// The serving shard's flat item index: linear probing, backward-shift
// erase, doubling.  Ids are chosen by their home slot (the top bits of
// MixId) to build collisions and runs that wrap past the last slot.
#include "serving/item_index.h"

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace horizon::serving {
namespace {

using Index = ItemIndex<int64_t>;

/// Home slot of `id` in a table of `capacity` (a power of two) slots.
size_t HomeOf(int64_t id, size_t capacity) {
  return static_cast<size_t>(MixId(id) >> (64 - std::countr_zero(capacity)));
}

/// The first `n` ids from `from` up whose home slot is `home`.
std::vector<int64_t> IdsWithHome(size_t home, size_t n, size_t capacity,
                                 int64_t from = 0) {
  std::vector<int64_t> ids;
  for (int64_t id = from; ids.size() < n; ++id) {
    if (HomeOf(id, capacity) == home) ids.push_back(id);
  }
  return ids;
}

bool Insert(Index& index, int64_t id) {
  return index.Insert(id, MixId(id), std::make_unique<int64_t>(id * 10));
}

/// Whether exactly `ids` are stored, each under its own value.
void ExpectHolds(const Index& index, const std::vector<int64_t>& ids) {
  EXPECT_EQ(index.size(), ids.size());
  for (const int64_t id : ids) {
    const int64_t* value = index.Find(id, MixId(id));
    ASSERT_NE(value, nullptr) << "id " << id;
    EXPECT_EQ(*value, id * 10);
  }
}

TEST(ItemIndexTest, EmptyIndexAllocatesNothing) {
  const Index index;
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.Find(7, MixId(7)), nullptr);
}

TEST(ItemIndexTest, CollidingHomeSlots) {
  constexpr size_t kCap = Index::kMinCapacity;
  const std::vector<int64_t> ids = IdsWithHome(3, 6, kCap);
  Index index;
  for (const int64_t id : ids) ASSERT_TRUE(Insert(index, id));
  ASSERT_EQ(index.capacity(), kCap);
  ExpectHolds(index, ids);
  // An absent id with the same home probes the whole run and stops at
  // the empty slot after it.
  const int64_t absent = IdsWithHome(3, 1, kCap, ids.back() + 1)[0];
  EXPECT_EQ(index.Find(absent, MixId(absent)), nullptr);
  EXPECT_FALSE(Insert(index, ids[2]));  // present: not replaced
  ExpectHolds(index, ids);
}

// Four ids whose home is the last slot fill it and wrap to slots 0-2; an
// id whose home is slot 0 lands after them.  Erasing from the middle of
// the wrapped run must shift the later ones back, across the end, so
// that every id stays reachable from its home.
TEST(ItemIndexTest, EraseFromTheMiddleOfARunThatWrapsPastTheEnd) {
  constexpr size_t kCap = Index::kMinCapacity;
  const std::vector<int64_t> last = IdsWithHome(kCap - 1, 4, kCap);
  const int64_t first = IdsWithHome(0, 1, kCap)[0];
  for (size_t erased = 0; erased < last.size(); ++erased) {
    SCOPED_TRACE(erased);
    Index index;
    for (const int64_t id : last) ASSERT_TRUE(Insert(index, id));
    ASSERT_TRUE(Insert(index, first));
    const int64_t gone = last[erased];
    EXPECT_EQ(index.EraseIf([&](int64_t id, const int64_t&) { return id == gone; }), 1u);
    std::vector<int64_t> kept = {first};
    for (const int64_t id : last) {
      if (id != gone) kept.push_back(id);
    }
    ASSERT_EQ(index.capacity(), kCap);
    ExpectHolds(index, kept);
    EXPECT_EQ(index.Find(gone, MixId(gone)), nullptr);
    // The freed slot is reusable.
    ASSERT_TRUE(Insert(index, gone));
    kept.push_back(gone);
    ExpectHolds(index, kept);
  }
}

TEST(ItemIndexTest, GrowsInTheMiddleOfInserts) {
  Index index;
  std::vector<int64_t> ids;
  size_t capacity = 0;
  int doublings = 0;
  for (int64_t id = 0; id < 2000; ++id) {
    ASSERT_TRUE(Insert(index, id * 7919));
    ids.push_back(id * 7919);
    if (index.capacity() != capacity) {
      EXPECT_TRUE(capacity == 0 ? index.capacity() == Index::kMinCapacity
                                : index.capacity() == 2 * capacity);
      capacity = index.capacity();
      ++doublings;
      ExpectHolds(index, ids);  // right after a doubling
    }
    EXPECT_LE(index.size() * Index::kMaxLoadDen, capacity * Index::kMaxLoadNum);
  }
  EXPECT_GE(doublings, 8);
  ExpectHolds(index, ids);
}

TEST(ItemIndexTest, ForEachAfterErases) {
  Index index;
  for (int64_t id = 0; id < 300; ++id) ASSERT_TRUE(Insert(index, id));
  EXPECT_EQ(index.EraseIf([](int64_t id, const int64_t&) { return id % 3 != 0; }),
            200u);
  std::map<int64_t, int> seen;
  index.ForEach([&](int64_t id, const int64_t& value) {
    EXPECT_EQ(value, id * 10);
    ++seen[id];
  });
  ASSERT_EQ(seen.size(), 100u);
  for (const auto& [id, times] : seen) {
    EXPECT_EQ(id % 3, 0) << id;
    EXPECT_EQ(times, 1) << id;
  }
}

TEST(ItemIndexTest, EraseIfAllAndNone) {
  Index index;
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(Insert(index, id));
    ids.push_back(id);
  }
  std::map<int64_t, int> calls;
  EXPECT_EQ(index.EraseIf([&](int64_t id, const int64_t&) {
    ++calls[id];
    return false;
  }), 0u);
  ExpectHolds(index, ids);
  calls.clear();
  EXPECT_EQ(index.EraseIf([&](int64_t id, const int64_t&) {
    ++calls[id];
    return true;
  }), 100u);
  EXPECT_EQ(index.size(), 0u);
  ASSERT_EQ(calls.size(), 100u);
  for (const auto& [id, times] : calls) EXPECT_EQ(times, 1) << id;
  for (const int64_t id : ids) EXPECT_EQ(index.Find(id, MixId(id)), nullptr);
  EXPECT_EQ(index.EraseIf([](int64_t, const int64_t&) { return true; }), 0u);
}

// Restore stages a checkpoint's items with Insert and rejects the
// checkpoint when it refuses one: an id already present keeps its value.
TEST(ItemIndexTest, InsertRefusesAPresentId) {
  Index index;
  ASSERT_TRUE(Insert(index, 5));
  EXPECT_FALSE(index.Insert(5, MixId(5), std::make_unique<int64_t>(-1)));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(*index.Find(5, MixId(5)), 50);
  ASSERT_TRUE(Insert(index, 6));
  EXPECT_FALSE(index.Insert(6, MixId(6), std::make_unique<int64_t>(-2)));
  ExpectHolds(index, {5, 6});
}

// Random inserts and erases over a small id range (so runs are long and
// collide) against std::map.
TEST(ItemIndexTest, MatchesAMapUnderRandomOperations) {
  Rng rng(0x17E41D3Cu);
  Index index;
  std::map<int64_t, int64_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    const int64_t id = static_cast<int64_t>(rng.UniformInt(400)) - 200;
    const double op = rng.Uniform();
    if (op < 0.55) {
      const bool inserted = Insert(index, id);
      EXPECT_EQ(inserted, oracle.emplace(id, id * 10).second);
    } else if (op < 0.95) {
      const size_t erased =
          index.EraseIf([&](int64_t key, const int64_t&) { return key == id; });
      EXPECT_EQ(erased, oracle.erase(id));
    } else {
      // Erase a random fifth in one sweep.
      const uint64_t salt = rng.UniformInt(1u << 30);
      const auto doomed = [&](int64_t key) { return (MixId(key) ^ salt) % 5 == 0; };
      const size_t erased =
          index.EraseIf([&](int64_t key, const int64_t&) { return doomed(key); });
      size_t expected = 0;
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (doomed(it->first)) {
          it = oracle.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(erased, expected);
    }
    ASSERT_EQ(index.size(), oracle.size()) << "step " << step;
    if (step % 97 == 0) {
      for (int64_t key = -200; key < 200; ++key) {
        const int64_t* value = index.Find(key, MixId(key));
        const auto it = oracle.find(key);
        ASSERT_EQ(value != nullptr, it != oracle.end()) << "step " << step << " id " << key;
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
      }
    }
  }
}

}  // namespace
}  // namespace horizon::serving
