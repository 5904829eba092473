// Durable file IO for the checkpoint subsystem: CRC32-framed blobs (the
// frame's header holds its payload's size and CRC, and a checkpoint's
// manifest lists each file by that CRC), atomic write-temp -> fsync ->
// rename file replacement, streamed framed files, small directory
// helpers, and a deterministic crash-fault injector the durability tests
// use to prove that a checkpoint torn at ANY write/fsync/rename point is
// never loaded and never damages the previous valid checkpoint.
//
// Error reporting: the fallible helpers return Status / StatusOr with
// typed codes -- kNotFound (no such file), kIoError (the OS or the fault
// injector refused an operation), kCorruption (bytes fail CRC/size
// validation).  Callers test `.ok()` or `.code()` (see common/status.h).
#ifndef HORIZON_COMMON_FILE_IO_H_
#define HORIZON_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace horizon::io {

/// Deterministic crash-fault injection for durability tests.
///
/// A test arms the injector with `ArmCrashAt(n)`: the n-th (0-based)
/// faultable operation -- a write, fsync or rename -- performed by the
/// helpers below fails, and every subsequent operation fails too --
/// modeling a process that died at that point and never ran again.  A
/// failing write additionally leaves a torn file (a prefix of the
/// intended bytes) behind, the worst case a real crash can produce; CRC
/// framing must catch it.
///
/// Only this API arms it.  When not armed, each hook takes the injector's
/// lock and returns.
class FaultInjector {
 public:
  /// Process-wide injector consulted by the IO helpers.
  static FaultInjector& Global();

  /// Arms the injector: the n-th faultable operation from now on fails and
  /// the injector enters the "crashed" state.  n < 0 disarms.
  void ArmCrashAt(int n);

  /// Arms a transient fault: the n-th (0-based) faultable operation from
  /// now fails ONCE and the injector then disarms itself -- modeling a
  /// spurious IO error (EIO, full disk) rather than a dead process, so a
  /// retry of the failed protocol can succeed.  Used by the simulation
  /// harness's kIoError fault schedules.  n < 0 disarms.
  void ArmFailOnce(int n);

  /// Disarms and clears the crashed state and operation counter.
  void Disarm();

  /// Number of faultable operations observed since the last ArmCrashAt.
  /// Tests use this to size "crash at every point" loops.
  int ops_seen() const;

  /// True once the armed fault has fired.
  bool crashed() const;

  /// Consulted by the helpers before each faultable operation; returns
  /// true when the operation must fail.  No-op unless armed.
  bool ShouldFail();

 private:
  FaultInjector() = default;

  mutable Mutex mu_;
  bool armed_ HORIZON_GUARDED_BY(mu_) = false;
  bool crashed_ HORIZON_GUARDED_BY(mu_) = false;
  bool transient_ HORIZON_GUARDED_BY(mu_) = false;
  int countdown_ HORIZON_GUARDED_BY(mu_) = -1;
  int ops_ HORIZON_GUARDED_BY(mu_) = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

/// The CRC-32 of the bytes whose prefix has CRC-32 `prev` and whose
/// suffix is `data`: Crc32(Crc32(a), b) == Crc32(a + b).
uint32_t Crc32(uint32_t prev, std::string_view data);

/// The header of the CRC frame around `payload`:
///   "hzf1 <payload size> <crc32 hex>\n"
/// The frame, header then payload, detects truncation, bit flips, and
/// concatenation damage.
std::string CrcFrameHeader(std::string_view payload);

/// The CRC frame around `payload`, header and payload in one string.
std::string WrapCrcFrame(std::string_view payload);

/// Validates a CRC frame and returns its payload, a view into `frame`.
/// Returns kCorruption when the header is malformed, the size disagrees
/// with the actual byte count, or the CRC does not match -- i.e. for
/// every torn or corrupted file.  When `payload_crc` is non-null, a valid
/// frame also sets it to the CRC its header holds, Crc32(payload).
StatusOr<std::string_view> UnwrapCrcFrame(std::string_view frame,
                                          uint32_t* payload_crc = nullptr);

/// Atomically replaces `path` with `contents`: writes `path + ".tmp"`,
/// fsyncs it, renames it over `path`, and fsyncs the parent directory.
/// Either the old file or the complete new file survives a crash at any
/// step; a torn temp file (the first half of `contents`) is never visible
/// under `path`.  Returns kIoError on any IO error or injected fault.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Streams a CRC-framed file into place a piece at a time, so a file of
/// any size is written from a buffer of the caller's choosing, with
/// WriteFileAtomic's protocol and its four fault points (all consulted
/// by Commit).  The frame header's size and CRC are not known until the
/// last piece: the header is written with blanks and filled in by Commit,
/// the size zero-padded to kFieldDigits digits, which reads back as an
/// ordinary integer ("hzf1 00000000000000000042 <crc>\n").  Each payload
/// byte is CRC'd once, as it is appended.
///
/// The first failure sticks: every later Append and the Commit return
/// it, and the temp file stays behind, as a failed WriteFileAtomic
/// leaves it.
class FramedFileWriter {
 public:
  /// Digits of the zero-padded size field: any uint64_t fits.
  static constexpr size_t kFieldDigits = 20;

  /// Creates `path + ".tmp"` and writes a frame header with blanks.
  explicit FramedFileWriter(std::string path);
  /// Closes the temp file unless Commit did.
  ~FramedFileWriter();
  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  /// Appends `bytes` to the payload.
  Status Append(std::string_view bytes);

  /// Fills in the header's payload size and CRC, then fsyncs the temp
  /// file, renames it over `path` and fsyncs the parent directory.  A
  /// fault injected at the write leaves the first half of the file's
  /// final bytes in the temp file, as WriteFileAtomic's torn write does.
  Status Commit();

  /// The CRC-32 of the payload appended so far: once Commit has run, the
  /// CRC the header holds.
  uint32_t payload_crc() const { return crc_; }
  /// The size of the file, header included.
  uint64_t file_bytes() const;

 private:
  /// Writes `bytes` at the end of the temp file.
  Status Write(std::string_view bytes);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  Status status_;
  uint64_t payload_bytes_ = 0;
  uint32_t crc_ = 0;
};

/// Reads a whole file into a string sized once from the file's size.
/// Returns kNotFound when it does not exist and kIoError when it exists
/// but cannot be opened or read.
StatusOr<std::string> ReadFile(const std::string& path);

/// Creates a directory (and missing parents).  OK when the directory
/// exists afterwards, kIoError otherwise.
Status EnsureDir(const std::string& path);

/// Names of the entries of a directory (excluding "." / ".."), sorted.
/// Empty when the directory cannot be read.
std::vector<std::string> ListDir(const std::string& path);

/// Recursively removes a file or directory tree.  Best effort; returns
/// true when the target no longer exists.
bool RemoveTree(const std::string& path);

}  // namespace horizon::io

#endif  // HORIZON_COMMON_FILE_IO_H_
