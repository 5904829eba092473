// Tests for common/file_io.h: CRC32 known answers, frame round trips and
// corruption rejection, atomic file replacement, and the deterministic
// crash-fault injector (a write torn at any point must leave the previous
// file contents intact).
#include "common/file_io.h"

#include <gtest/gtest.h>

#include <string>

#include "env_guard.h"

namespace horizon::io {
namespace {

// Keep the injector's state hermetic: a HORIZON_FAULT_CRASH_AT from the
// invoking shell arms it at Global() construction and would tear every
// write this suite performs.
/// The file's contents, or "<missing>" when ReadFile fails.
std::string ContentsOrMissing(const std::string& path) {
  const StatusOr<std::string> contents = ReadFile(path);
  return contents.ok() ? *contents : "<missing>";
}

const ::testing::Environment* const kFaultEnvGuard =
    ::testing::AddGlobalTestEnvironment(
        new horizon::test::EnvVarGuard("HORIZON_FAULT_CRASH_AT",
                                       /*disarm_fault_injector=*/true));

std::string TestDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "horizon_file_io_" + leaf;
  RemoveTree(dir);
  EXPECT_TRUE(EnsureDir(dir).ok());
  return dir;
}

// -- CRC32 ---------------------------------------------------------------

TEST(Crc32Test, KnownAnswers) {
  // The IEEE 802.3 check value for the standard 9-byte test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
}

TEST(Crc32Test, SensitiveToEveryBit) {
  const std::string base = "the quick brown fox";
  const uint32_t crc = Crc32(base);
  for (size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = base;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(Crc32(flipped), crc) << "byte " << i << " bit " << bit;
    }
  }
}

// -- CRC frame -----------------------------------------------------------

TEST(CrcFrameTest, RoundTrip) {
  const std::string payloads[] = {
      std::string(), std::string("x"), std::string("hello world"),
      std::string(100000, 'z'), std::string("embedded\0null", 13),
      std::string("trailing newline\n")};
  for (const std::string& payload : payloads) {
    const std::string frame = WrapCrcFrame(payload);
    const auto back = UnwrapCrcFrame(frame);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payload);
  }
}

TEST(CrcFrameTest, RejectsTruncation) {
  const std::string frame = WrapCrcFrame("some checkpoint payload bytes");
  // Every proper prefix must be rejected -- a torn write is a prefix.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(UnwrapCrcFrame(frame.substr(0, len)).ok())
        << "prefix of length " << len << " accepted";
  }
}

TEST(CrcFrameTest, RejectsBitFlips) {
  const std::string frame = WrapCrcFrame("some checkpoint payload bytes");
  const size_t payload_start = frame.find('\n') + 1;
  ASSERT_NE(payload_start, 0u);
  // Any bit flip in the payload must be caught by the CRC.  (Header flips
  // are either caught too or -- e.g. hex-case changes -- decode to the same
  // frame; the garbage-header test below covers malformed headers.)
  for (size_t i = payload_start; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(UnwrapCrcFrame(flipped).ok())
          << "byte " << i << " bit " << bit;
    }
  }
  // Magic-string damage is rejected.
  std::string bad_magic = frame;
  bad_magic[0] = 'H';
  EXPECT_FALSE(UnwrapCrcFrame(bad_magic).ok());
}

TEST(CrcFrameTest, RejectsTrailingGarbage) {
  const std::string frame = WrapCrcFrame("payload");
  EXPECT_FALSE(UnwrapCrcFrame(frame + "x").ok());
  EXPECT_FALSE(UnwrapCrcFrame(frame + frame).ok());
}

TEST(CrcFrameTest, RejectsGarbageHeaders) {
  EXPECT_FALSE(UnwrapCrcFrame("").ok());
  EXPECT_FALSE(UnwrapCrcFrame("not a frame").ok());
  EXPECT_FALSE(UnwrapCrcFrame("hzf1").ok());
  EXPECT_FALSE(UnwrapCrcFrame("hzf1 abc def\n").ok());
  EXPECT_FALSE(UnwrapCrcFrame("hzf2 7 00000000\npayload").ok());
  // Absurd declared size must not allocate or crash.
  EXPECT_FALSE(
      UnwrapCrcFrame("hzf1 99999999999999999999 00000000\nx").ok());
}

// -- Atomic writes -------------------------------------------------------

TEST(WriteFileAtomicTest, WritesAndReplaces) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ContentsOrMissing(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer contents").ok());
  EXPECT_EQ(ContentsOrMissing(path), "second, longer contents");
  RemoveTree(dir);
}

TEST(ReadFileTest, MissingFileIsNullopt) {
  EXPECT_FALSE(ReadFile("/nonexistent/horizon/path").ok());
}

TEST(DirHelpersTest, EnsureListRemove) {
  const std::string dir = TestDir("dirs");
  EXPECT_TRUE(EnsureDir(dir).ok());  // idempotent
  EXPECT_TRUE(EnsureDir(dir + "/a/b/c").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/a/file1", "1").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/a/file2", "2").ok());
  const auto entries = ListDir(dir + "/a");
  ASSERT_EQ(entries.size(), 3u);  // sorted
  EXPECT_EQ(entries[0], "b");
  EXPECT_EQ(entries[1], "file1");
  EXPECT_EQ(entries[2], "file2");
  EXPECT_TRUE(ListDir(dir + "/missing").empty());
  EXPECT_TRUE(RemoveTree(dir));
  EXPECT_TRUE(ListDir(dir).empty());
  EXPECT_TRUE(RemoveTree(dir));  // already gone
}

// -- Fault injection -----------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultInjectionTest, CrashAtEveryPointPreservesOldFile) {
  const std::string dir = TestDir("faults");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "valid old contents").ok());

  auto& injector = FaultInjector::Global();
  bool succeeded = false;
  for (int n = 0; n < 100 && !succeeded; ++n) {
    injector.ArmCrashAt(n);
    const bool ok = WriteFileAtomic(path, "new contents after crash").ok();
    const int ops = injector.ops_seen();
    const bool crashed = injector.crashed();
    injector.Disarm();
    if (ok) {
      // The armed point lies beyond the operations this write performs:
      // the write committed.
      EXPECT_FALSE(crashed);
      EXPECT_GT(ops, 0);
      EXPECT_EQ(ContentsOrMissing(path),
                "new contents after crash");
      succeeded = true;
    } else {
      // Crashed mid-write: the visible file must be either the intact old
      // contents or the complete new contents (the rename may have been
      // published before the final directory fsync died) -- never a torn
      // mixture.  The only other debris allowed is the invisible temp file.
      EXPECT_TRUE(crashed) << "failed without a fault at n=" << n;
      const std::string contents = ContentsOrMissing(path);
      EXPECT_TRUE(contents == "valid old contents" ||
                  contents == "new contents after crash")
          << "torn file after crash at op " << n << ": \"" << contents << "\"";
    }
  }
  EXPECT_TRUE(succeeded) << "write never committed within 100 fault points";
  RemoveTree(dir);
}

TEST_F(FaultInjectionTest, TornWriteLeavesPrefixInTempOnly) {
  const std::string dir = TestDir("torn");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());

  auto& injector = FaultInjector::Global();
  injector.ArmCrashAt(0);  // the very first write op fails (torn)
  const std::string framed = WrapCrcFrame("this write is torn in half");
  EXPECT_FALSE(WriteFileAtomic(path, framed).ok());
  injector.Disarm();

  EXPECT_EQ(ContentsOrMissing(path), "old");
  // A torn CRC-framed temp file must never unwrap.
  const auto torn = ReadFile(path + ".tmp");
  if (torn.ok()) {
    EXPECT_FALSE(UnwrapCrcFrame(*torn).ok());
  }
  RemoveTree(dir);
}

TEST_F(FaultInjectionTest, AllOpsFailAfterCrash) {
  const std::string dir = TestDir("dead");
  auto& injector = FaultInjector::Global();
  injector.ArmCrashAt(0);
  EXPECT_FALSE(WriteFileAtomic(dir + "/a", "x").ok());
  // The process "died": every later durable operation fails too.
  EXPECT_FALSE(WriteFileAtomic(dir + "/b", "y").ok());
  EXPECT_TRUE(injector.crashed());
  injector.Disarm();
  EXPECT_FALSE(injector.crashed());
  EXPECT_TRUE(WriteFileAtomic(dir + "/b", "y").ok());
  EXPECT_EQ(ContentsOrMissing(dir + "/b"), "y");
  RemoveTree(dir);
}

TEST_F(FaultInjectionTest, OpsSeenCounts) {
  const std::string dir = TestDir("ops");
  auto& injector = FaultInjector::Global();
  injector.ArmCrashAt(1000);  // effectively never fires
  ASSERT_TRUE(WriteFileAtomic(dir + "/f", "x").ok());
  const int per_write = injector.ops_seen();
  EXPECT_GE(per_write, 3);  // at least write + fsync + rename
  ASSERT_TRUE(WriteFileAtomic(dir + "/f", "y").ok());
  EXPECT_EQ(injector.ops_seen(), 2 * per_write);
  injector.Disarm();
  EXPECT_EQ(injector.ops_seen(), 0);
  RemoveTree(dir);
}

TEST_F(FaultInjectionTest, FailOnceIsTransient) {
  // Unlike ArmCrashAt, a fail-once fault models a transient IO error: the
  // faulted operation fails, the injector self-disarms, and the very next
  // attempt succeeds without anyone calling Disarm.
  const std::string dir = TestDir("failonce");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());

  auto& injector = FaultInjector::Global();
  injector.ArmFailOnce(0);
  EXPECT_FALSE(WriteFileAtomic(path, "first attempt").ok());
  EXPECT_FALSE(injector.crashed());  // transient, not a crash
  EXPECT_EQ(ContentsOrMissing(path), "old");

  // Self-disarmed: the retry commits with no intervention.
  EXPECT_TRUE(WriteFileAtomic(path, "second attempt").ok());
  EXPECT_EQ(ContentsOrMissing(path), "second attempt");
  RemoveTree(dir);
}

TEST_F(FaultInjectionTest, FailOnceBeyondWriteNeverFires) {
  const std::string dir = TestDir("failonce_never");
  auto& injector = FaultInjector::Global();
  injector.ArmFailOnce(1000);  // past every op this write performs
  EXPECT_TRUE(WriteFileAtomic(dir + "/f", "x").ok());
  EXPECT_EQ(ContentsOrMissing(dir + "/f"), "x");
  injector.Disarm();
  RemoveTree(dir);
}

}  // namespace
}  // namespace horizon::io
