// Tests for common/file_io.h: CRC32 known answers, frame round trips and
// corruption rejection, atomic file replacement, and the deterministic
// crash-fault injector (a write torn at any point must leave the previous
// file contents intact).
#include "common/file_io.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace horizon::io {
namespace {

/// The file's contents, or "<missing>" when ReadFile fails.
std::string ContentsOrMissing(const std::string& path) {
  const StatusOr<std::string> contents = ReadFile(path);
  return contents.ok() ? *contents : "<missing>";
}

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

/// The bytewise table loop Crc32 ran before slicing-by-8, kept as its
/// reference.
uint32_t BytewiseCrc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Random buffers of every length from 0 to 4096, at every alignment of
// their start modulo 8.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLength) {
  Rng rng(0xC4C32);
  std::string bytes(4096 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  for (size_t len = 0; len <= 4096; ++len) {
    const std::string_view data(bytes.data() + len % 8, len);
    ASSERT_EQ(Crc32(data), BytewiseCrc32(data)) << "length " << len;
  }
}

// Crc32(Crc32(a), b) is the CRC of a followed by b, so a payload streamed
// in pieces is CRC'd piece by piece.
TEST(Crc32Test, ContinuationIsTheCrcOfTheConcatenation) {
  Rng rng(0xC4C33);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const std::string_view all(bytes);
    EXPECT_EQ(Crc32(Crc32(all.substr(0, split)), all.substr(split)), Crc32(all))
        << "split at " << split;
  }
  EXPECT_EQ(Crc32(0, "123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(Crc32("1234"), ""), Crc32("1234"));
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

TEST(CrcFrameTest, HeaderThenPayloadIsTheFrame) {
  const std::string payload = "123456789";
  EXPECT_EQ(CrcFrameHeader(payload), "hzf1 9 cbf43926\n");
  EXPECT_EQ(CrcFrameHeader(payload) + payload, WrapCrcFrame(payload));
  // The payload UnwrapCrcFrame returns is a view into the frame.
  const std::string frame = WrapCrcFrame(payload);
  const auto back = UnwrapCrcFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data(), frame.data() + frame.size() - payload.size());
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

// ReadFile sizes its string from the file's size; empty files, files past
// any chunk size and files whose size fstat does not know read whole.
TEST(ReadFileTest, ReadsFilesOfEverySize) {
  const std::string dir = TestDir("read");
  Rng rng(0xF11E);
  for (const size_t size : {0, 1, 4095, 4096, 4097, 65536, 65537, 300001}) {
    std::string contents(size, '\0');
    for (char& c : contents) c = static_cast<char>(rng.UniformInt(256));
    const std::string path = dir + "/f" + std::to_string(size);
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
    const StatusOr<std::string> read = ReadFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, contents) << size << " bytes";
  }
  RemoveTree(dir);
  // fstat gives a /proc file's size as 0; it still reads whole.
  const StatusOr<std::string> proc = ReadFile("/proc/self/stat");
  ASSERT_TRUE(proc.ok());
  EXPECT_GT(proc->size(), 0u);
  EXPECT_EQ(proc->back(), '\n');
}

// -- FramedFileWriter ----------------------------------------------------

/// The frame a FramedFileWriter writes around `payload`: its header with
/// the size zero-padded to FramedFileWriter::kFieldDigits digits.
std::string PaddedFrame(const std::string& payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "hzf1 %020zu %08x\n", payload.size(),
                Crc32(payload));
  return header + payload;
}

// The CRC UnwrapCrcFrame returns is the one the header holds, the
// payload's, whether the size is padded or not.
TEST(CrcFrameTest, ReturnedCrcIsThePayloadCrc) {
  Rng rng(0xF4A4);
  std::string random(5000, '\0');
  for (char& c : random) c = static_cast<char>(rng.UniformInt(256));
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string("shard v4\n"), random}) {
    for (const std::string& frame : {WrapCrcFrame(payload), PaddedFrame(payload)}) {
      uint32_t crc = 0;
      const auto back = UnwrapCrcFrame(frame, &crc);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, payload);
      EXPECT_EQ(crc, Crc32(payload)) << frame.substr(0, frame.find('\n'));
    }
  }
}

// A payload streamed in pieces lands as one CRC frame whose size is
// zero-padded; the frame reads back through UnwrapCrcFrame, payload_crc()
// is the CRC its header holds and file_bytes() the size on disk.
TEST(FramedFileWriterTest, StreamsOneFrameWithPaddedSizeAndCount) {
  const std::string dir = TestDir("writer");
  const std::string path = dir + "/file";
  Rng rng(0xF4A3);
  std::string tail(70000, '\0');
  for (char& c : tail) c = static_cast<char>(rng.UniformInt(256));
  {
    FramedFileWriter writer(path);
    ASSERT_TRUE(writer.Append("shard v4\n").ok());
    ASSERT_TRUE(writer.Append("").ok());
    for (size_t at = 0; at < tail.size(); at += 4099) {
      ASSERT_TRUE(writer.Append(std::string_view(tail).substr(at, 4099)).ok());
    }
    ASSERT_TRUE(writer.Commit().ok());
    const std::string payload = "shard v4\n" + tail;
    const std::string file = ContentsOrMissing(path);
    EXPECT_EQ(file, PaddedFrame(payload));
    EXPECT_EQ(writer.payload_crc(), Crc32(payload));
    EXPECT_EQ(writer.file_bytes(), file.size());
    const auto back = UnwrapCrcFrame(file);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payload);
  }
  // One piece, and an empty payload.
  for (const char* const payload : {"one piece", ""}) {
    FramedFileWriter writer(path);
    ASSERT_TRUE(writer.Append(payload).ok());
    ASSERT_TRUE(writer.Commit().ok());
    EXPECT_EQ(ContentsOrMissing(path), PaddedFrame(payload));
    EXPECT_EQ(writer.payload_crc(), Crc32(payload));
    EXPECT_EQ(writer.file_bytes(), PaddedFrame(payload).size());
  }
  EXPECT_FALSE(ReadFile(path + ".tmp").ok());
  RemoveTree(dir);
}

// An error sticks: every later call returns it and nothing is published.
TEST(FramedFileWriterTest, FailureSticksAndPublishesNothing) {
  const std::string path = ::testing::TempDir() + "horizon_file_io_missing/dir/file";
  FramedFileWriter writer(path);
  EXPECT_EQ(writer.Append("x").code(), StatusCode::kIoError);
  EXPECT_EQ(writer.Append("y").code(), StatusCode::kIoError);
  EXPECT_EQ(writer.Commit().code(), StatusCode::kIoError);
  EXPECT_FALSE(ReadFile(path).ok());
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

// A write torn by a crash leaves the first half of its bytes in the temp
// file only.
TEST_F(FaultInjectionTest, TornWriteLeavesTheFirstHalfOfTheBytes) {
  const std::string dir = TestDir("torn_half");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  const std::string frame = WrapCrcFrame("a payload written after its frame header");
  FaultInjector::Global().ArmCrashAt(0);
  EXPECT_FALSE(WriteFileAtomic(path, frame).ok());
  FaultInjector::Global().Disarm();
  EXPECT_EQ(ContentsOrMissing(path), "old");
  EXPECT_EQ(ContentsOrMissing(path + ".tmp"), frame.substr(0, frame.size() / 2));
  RemoveTree(dir);
}

/// Streams "head\n<tail>" to `path` in 1000-byte pieces.
Status StreamFrame(const std::string& path, const std::string& tail) {
  FramedFileWriter writer(path);
  HORIZON_RETURN_IF_ERROR(writer.Append("head\n"));
  for (size_t at = 0; at < tail.size(); at += 1000) {
    HORIZON_RETURN_IF_ERROR(writer.Append(std::string_view(tail).substr(at, 1000)));
  }
  return writer.Commit();
}

// The streamed writer keeps WriteFileAtomic's protocol: the same fault
// points per file, and a crash at any of them leaves the old file or the
// complete new one under the final name.
TEST_F(FaultInjectionTest, StreamedWriterCrashAtEveryPointPreservesOldFile) {
  const std::string dir = TestDir("stream_faults");
  const std::string path = dir + "/file";
  const std::string tail(5500, 't');
  auto& injector = FaultInjector::Global();
  injector.ArmCrashAt(1000);
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  const int per_atomic_write = injector.ops_seen();
  injector.ArmCrashAt(1000);
  ASSERT_TRUE(StreamFrame(path, std::string(tail.size(), 'o')).ok());
  EXPECT_EQ(injector.ops_seen(), per_atomic_write);
  injector.Disarm();
  const std::string old_file = ContentsOrMissing(path);
  const std::string new_file = PaddedFrame("head\n" + tail);

  bool succeeded = false;
  int points = 0;
  for (int n = 0; n < 100 && !succeeded; ++n, ++points) {
    injector.ArmCrashAt(n);
    const bool ok = StreamFrame(path, tail).ok();
    const bool crashed = injector.crashed();
    injector.Disarm();
    const std::string contents = ContentsOrMissing(path);
    if (ok) {
      EXPECT_FALSE(crashed);
      EXPECT_EQ(contents, new_file);
      succeeded = true;
    } else {
      EXPECT_TRUE(crashed) << "failed without a fault at n=" << n;
      EXPECT_TRUE(contents == old_file || contents == new_file)
          << "torn file after crash at op " << n;
    }
  }
  EXPECT_TRUE(succeeded);
  EXPECT_EQ(points, per_atomic_write + 1);
  RemoveTree(dir);
}

// A streamed write torn by a crash leaves the first half of the file's
// final bytes, header filled in, in the temp file only; it never unwraps.
TEST_F(FaultInjectionTest, TornStreamedWriteLeavesAPrefixOfTheFrame) {
  const std::string dir = TestDir("stream_torn");
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  const std::string tail(3000, 'q');
  FaultInjector::Global().ArmCrashAt(0);
  EXPECT_EQ(StreamFrame(path, tail).code(), StatusCode::kIoError);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(ContentsOrMissing(path), "old");
  const std::string frame = PaddedFrame("head\n" + tail);
  const std::string torn = ContentsOrMissing(path + ".tmp");
  EXPECT_EQ(torn, frame.substr(0, frame.size() / 2));
  EXPECT_FALSE(UnwrapCrcFrame(torn).ok());
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
