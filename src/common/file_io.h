// Durable file IO for the checkpoint subsystem: CRC32-framed blobs,
// atomic write-temp -> fsync -> rename file replacement, small directory
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

/// The faultable operation kinds of the durability protocol.
enum class FaultPoint : int {
  kWrite = 0,   ///< writing bytes into a (temp) file
  kFsync = 1,   ///< flushing a file or directory to stable storage
  kRename = 2,  ///< atomically publishing a temp file
};

/// Deterministic crash-fault injection for durability tests.
///
/// A test arms the injector with `ArmCrashAt(n)`: the n-th (0-based)
/// faultable operation performed by the helpers below fails, and every
/// subsequent operation fails too -- modeling a process that died at that
/// point and never ran again.  A failing kWrite additionally leaves a torn
/// file (a prefix of the intended bytes) behind, the worst case a real
/// crash can produce; CRC framing must catch it.
///
/// The injector can also be armed from the environment for tooling runs:
/// setting HORIZON_FAULT_CRASH_AT=<n> arms it at process start.  When not
/// armed, the hook is a single relaxed atomic load on each operation.
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
  bool ShouldFail(FaultPoint point);

 private:
  FaultInjector();

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

/// The CRC-32 of a + b from the CRC-32 of a, the CRC-32 of b and b's
/// length, without reading either: Crc32Combine(Crc32(a), Crc32(b),
/// b.size()) == Crc32(a + b).  O(log len_b).
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

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
/// every torn or corrupted file.  When `frame_crc` is non-null, a valid
/// frame also sets it to Crc32(frame), combined from the header line's
/// CRC and the payload's (Crc32Combine), so each byte is read once.
StatusOr<std::string_view> UnwrapCrcFrame(std::string_view frame,
                                          uint32_t* frame_crc = nullptr);

/// Atomically replaces `path` with `contents`: writes `path + ".tmp"`,
/// fsyncs it, renames it over `path`, and fsyncs the parent directory.
/// Either the old file or the complete new file survives a crash at any
/// step; a torn temp file (the first half of `contents`) is never visible
/// under `path`.  Returns kIoError on any IO error or injected fault.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Streams a CRC-framed file into place a piece at a time, so a file of
/// any size is written from a buffer of the caller's choosing, with
/// WriteFileAtomic's protocol and its four fault points (all consulted
/// by Commit).  The frame header's size and one count field in the
/// payload are not known until the last piece: both are written as
/// kFieldDigits zeros and filled in by Commit, and read back as ordinary
/// integers ("hzf1 00000000000000000042 <crc>\n").  Each payload byte is
/// CRC'd once, as it is appended; Commit combines the CRCs of the pieces
/// around the count field with Crc32Combine.
///
/// The first failure sticks: every later Append and the Commit return
/// it, and the temp file stays behind, as a failed WriteFileAtomic
/// leaves it.
class FramedFileWriter {
 public:
  /// Digits of the zero-padded size and count fields: any uint64_t fits.
  static constexpr size_t kFieldDigits = 20;

  /// Creates `path + ".tmp"` and writes a frame header with blank fields.
  explicit FramedFileWriter(std::string path);
  /// Closes the temp file unless Commit did.
  ~FramedFileWriter();
  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  /// Appends `bytes` to the payload.
  Status Append(std::string_view bytes);

  /// Appends the count field, kFieldDigits zeros that Commit fills in.
  /// At most once per file.
  Status AppendCountField();

  /// Fills in the payload size and CRC and the count field (`count` is
  /// ignored if no field was appended), then fsyncs the temp file,
  /// renames it over `path` and fsyncs the parent directory.  A fault
  /// injected at the write leaves the first half of the file's final
  /// bytes in the temp file, as WriteFileAtomic's torn write does.
  Status Commit(uint64_t count);

  /// The CRC-32 and size of the whole file, header included, once Commit
  /// has filled in the fields.
  uint32_t file_crc() const { return file_crc_; }
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  /// Writes `bytes` at the end of the temp file.
  Status Write(std::string_view bytes);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  Status status_;
  uint64_t payload_bytes_ = 0;
  // The payload is a head, the count field, then a tail: the head's CRC
  // runs until the field is appended, the tail's from then on.
  uint32_t head_crc_ = 0;
  uint32_t tail_crc_ = 0;
  uint64_t tail_bytes_ = 0;
  bool has_count_ = false;
  uint64_t count_at_ = 0;  // payload offset of the count field
  uint32_t file_crc_ = 0;
  uint64_t file_bytes_ = 0;
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
