#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/text_codec.h"

namespace horizon::io {

// ---------------------------------------------------------------------------
// FaultInjector

FaultInjector::FaultInjector() {
  const char* env = std::getenv("HORIZON_FAULT_CRASH_AT");
  if (env != nullptr && *env != '\0') {
    ArmCrashAt(std::atoi(env));
  }
}

FaultInjector& FaultInjector::Global() {
  // horizon-lint: allow(naked-new) -- intentionally leaked singleton: the
  // injector is consulted from IO helpers that may run during static
  // destruction.
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::ArmCrashAt(int n) {
  MutexLock lock(mu_);
  armed_ = n >= 0;
  crashed_ = false;
  transient_ = false;
  countdown_ = n;
  ops_ = 0;
}

void FaultInjector::ArmFailOnce(int n) {
  MutexLock lock(mu_);
  armed_ = n >= 0;
  crashed_ = false;
  transient_ = true;
  countdown_ = n;
  ops_ = 0;
}

void FaultInjector::Disarm() {
  MutexLock lock(mu_);
  armed_ = false;
  crashed_ = false;
  transient_ = false;
  countdown_ = -1;
  ops_ = 0;
}

int FaultInjector::ops_seen() const {
  MutexLock lock(mu_);
  return ops_;
}

bool FaultInjector::crashed() const {
  MutexLock lock(mu_);
  return crashed_;
}

bool FaultInjector::ShouldFail(FaultPoint /*point*/) {
  MutexLock lock(mu_);
  if (!armed_) return false;
  ++ops_;
  if (crashed_) return true;  // the process died; nothing after it runs
  if (--countdown_ < 0) {
    if (transient_) {
      // A transient fault fires once and recovers.
      armed_ = false;
      transient_ = false;
      countdown_ = -1;
    } else {
      crashed_ = true;
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CRC32 framing

namespace {

using CrcTable = std::array<uint32_t, 256>;

/// The reflected CRC-32 polynomial: bit 31 - k holds the coefficient of
/// x^k, for k < 32 (x^32 is implied).
constexpr uint32_t kCrcPoly = 0xEDB88320u;

/// Table 0 is the bytewise table of the reflected polynomial; table k
/// carries a byte's contribution k more bytes along, so the slicing-by-8
/// loop folds in eight bytes with eight independent lookups.
constexpr std::array<CrcTable, 8> MakeCrcTables() {
  std::array<CrcTable, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}
constexpr std::array<CrcTable, 8> kCrcTables = MakeCrcTables();

/// The four bytes at `p` as a little-endian word.
uint32_t Load32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

/// a(x) * b(x) mod P(x), both in the reflected order of kCrcPoly.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if ((a & bit) != 0) product ^= b;
    b = (b & 1u) ? kCrcPoly ^ (b >> 1) : b >> 1;  // b(x) * x
  }
  return product;
}

/// Entry k is x^(2^k) mod P(x): the factor that moves a CRC register
/// 2^k bits along.  67 entries cover 8 * (2^64 - 1) bits.
constexpr std::array<uint32_t, 67> MakeX2nTable() {
  std::array<uint32_t, 67> table{};
  table[0] = 1u << 30;  // x^1
  for (size_t k = 1; k < table.size(); ++k) {
    table[k] = MultModP(table[k - 1], table[k - 1]);
  }
  return table;
}
constexpr std::array<uint32_t, 67> kX2nTable = MakeX2nTable();

}  // namespace

uint32_t Crc32(uint32_t prev, std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~prev;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

uint32_t Crc32(std::string_view data) { return Crc32(0, data); }

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // Appending b moves a's register 8 * len_b bits along, a product with
  // x^(8 len_b); b's own CRC then adds in.  The pre- and post-inversions
  // of the two CRCs cancel in the sum.
  uint32_t shift = 1u << 31;  // x^0
  for (size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1u) != 0) shift = MultModP(kX2nTable[k], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

std::string CrcFrameHeader(std::string_view payload) {
  char header[64];
  const int n = std::snprintf(header, sizeof(header), "hzf1 %zu %08x\n",
                              payload.size(), Crc32(payload));
  return std::string(header, static_cast<size_t>(n));
}

std::string WrapCrcFrame(std::string_view payload) {
  std::string out = CrcFrameHeader(payload);
  out.append(payload);
  return out;
}

StatusOr<std::string_view> UnwrapCrcFrame(std::string_view frame,
                                          uint32_t* frame_crc) {
  const size_t eol = frame.find('\n');
  if (eol == std::string_view::npos) {
    return Status::Corruption("CRC frame: missing header line");
  }
  text::Reader header(frame.substr(0, eol));
  std::string_view magic, crc_hex;
  size_t size = 0;
  if (!header.ReadWord(&magic) || magic != "hzf1" || !header.Read(&size) ||
      !header.ReadWord(&crc_hex)) {
    return Status::Corruption("CRC frame: malformed header");
  }
  uint32_t crc = 0;
  const char* const hex_end = crc_hex.data() + crc_hex.size();
  if (const auto [end, ec] = std::from_chars(crc_hex.data(), hex_end, crc, 16);
      ec != std::errc() || end != hex_end) {
    return Status::Corruption("CRC frame: bad checksum field");
  }
  const std::string_view payload = frame.substr(eol + 1);
  if (payload.size() != size) {  // torn or padded file
    return Status::Corruption("CRC frame: payload size mismatch");
  }
  if (Crc32(payload) != crc) {
    return Status::Corruption("CRC frame: checksum mismatch");
  }
  if (frame_crc != nullptr) {
    *frame_crc = Crc32Combine(Crc32(frame.substr(0, eol + 1)), crc, payload.size());
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Atomic file replacement

namespace {

/// Writes the whole buffer, retrying on short writes / EINTR.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// fsyncs the directory containing `path` so a completed rename is durable.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// The protocol's steps after the write, on the temp file `tmp` open as
/// `fd` (closed on every path): fsync it, rename it over `path`, fsync
/// the parent directory.  Three of the four fault points.
Status SyncAndPublish(int fd, const std::string& tmp, const std::string& path) {
  FaultInjector& faults = FaultInjector::Global();
  if (faults.ShouldFail(FaultPoint::kFsync) || ::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("fsync " + tmp);
  }
  if (::close(fd) != 0) {
    return Status::IoError("close " + tmp + ": " + std::strerror(errno));
  }
  if (faults.ShouldFail(FaultPoint::kRename)) {
    return Status::IoError("injected crash renaming " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + ": " + std::strerror(errno));
  }
  // The rename has reached the filesystem; a crash at the directory fsync
  // below corresponds to the "rename made it to disk" outcome, so the
  // injected failure only aborts the protocol, it cannot undo the rename.
  if (faults.ShouldFail(FaultPoint::kFsync)) {
    return Status::IoError("injected crash fsyncing parent of " + path);
  }
  if (!FsyncParentDir(path)) {
    return Status::IoError("fsync parent dir of " + path);
  }
  return Status::Ok();
}

/// Writes `value` as exactly FramedFileWriter::kFieldDigits decimal
/// digits, zero-padded, at `out`.
void FormatField(uint64_t value, char* out) {
  for (size_t i = FramedFileWriter::kFieldDigits; i > 0; --i, value /= 10) {
    out[i - 1] = static_cast<char>('0' + value % 10);
  }
}

/// "hzf1 " + the size field + " " + 8 hex digits + "\n".
constexpr size_t kPaddedHeaderBytes = 5 + FramedFileWriter::kFieldDigits + 1 + 8 + 1;

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("open " + tmp + ": " + std::strerror(errno));
  if (FaultInjector::Global().ShouldFail(FaultPoint::kWrite)) {
    // Simulated crash mid-write: leave a torn prefix, half the bytes.
    WriteAll(fd, contents.data(), contents.size() / 2);
    ::close(fd);
    return Status::IoError("injected crash writing " + tmp);
  }
  if (!WriteAll(fd, contents.data(), contents.size())) {
    ::close(fd);
    return Status::IoError("write " + tmp + ": " + std::strerror(errno));
  }
  return SyncAndPublish(fd, tmp, path);
}

// ---------------------------------------------------------------------------
// FramedFileWriter

FramedFileWriter::FramedFileWriter(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    status_ = Status::IoError("open " + tmp_ + ": " + std::strerror(errno));
    return;
  }
  char header[kPaddedHeaderBytes + 1];
  std::snprintf(header, sizeof(header), "hzf1 %0*d %08x\n",
                static_cast<int>(kFieldDigits), 0, 0u);
  status_ = Write({header, kPaddedHeaderBytes});
}

FramedFileWriter::~FramedFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FramedFileWriter::Write(std::string_view bytes) {
  if (!WriteAll(fd_, bytes.data(), bytes.size())) {
    return Status::IoError("write " + tmp_ + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

Status FramedFileWriter::Append(std::string_view bytes) {
  if (!status_.ok()) return status_;
  status_ = Write(bytes);
  if (!status_.ok()) return status_;
  if (has_count_) {
    tail_crc_ = Crc32(tail_crc_, bytes);
    tail_bytes_ += bytes.size();
  } else {
    head_crc_ = Crc32(head_crc_, bytes);
  }
  payload_bytes_ += bytes.size();
  return Status::Ok();
}

Status FramedFileWriter::AppendCountField() {
  HORIZON_CHECK(!has_count_);
  if (!status_.ok()) return status_;
  char zeros[kFieldDigits];
  FormatField(0, zeros);
  // Not CRC'd: Commit folds the real digits in between head and tail.
  status_ = Write({zeros, kFieldDigits});
  if (!status_.ok()) return status_;
  has_count_ = true;
  count_at_ = payload_bytes_;
  payload_bytes_ += kFieldDigits;
  return Status::Ok();
}

Status FramedFileWriter::Commit(uint64_t count) {
  if (!status_.ok()) return status_;
  uint32_t payload_crc = head_crc_;
  char field[kFieldDigits];
  if (has_count_) {
    FormatField(count, field);
    payload_crc = Crc32Combine(Crc32(head_crc_, {field, kFieldDigits}), tail_crc_,
                               tail_bytes_);
  }
  char header[kPaddedHeaderBytes + 1];
  std::snprintf(header, sizeof(header), "hzf1 %0*llu %08x\n",
                static_cast<int>(kFieldDigits),
                static_cast<unsigned long long>(payload_bytes_), payload_crc);
  const auto patch = [&](const char* bytes, size_t size, uint64_t offset) {
    const ssize_t n = ::pwrite(fd_, bytes, size, static_cast<off_t>(offset));
    if (n != static_cast<ssize_t>(size)) {
      status_ = Status::IoError("write " + tmp_ + ": " + std::strerror(errno));
    }
  };
  patch(header, kPaddedHeaderBytes, 0);
  if (has_count_) patch(field, kFieldDigits, kPaddedHeaderBytes + count_at_);
  if (!status_.ok()) return status_;
  file_crc_ = Crc32Combine(Crc32({header, kPaddedHeaderBytes}), payload_crc,
                           payload_bytes_);
  file_bytes_ = kPaddedHeaderBytes + payload_bytes_;

  const int fd = std::exchange(fd_, -1);
  if (FaultInjector::Global().ShouldFail(FaultPoint::kWrite)) {
    // Simulated crash mid-write: leave the first half of the bytes.
    const bool torn = ::ftruncate(fd, static_cast<off_t>(file_bytes_ / 2)) == 0;
    ::close(fd);
    status_ = Status::IoError(torn ? "injected crash writing " + tmp_
                                   : "truncate " + tmp_ + ": " + std::strerror(errno));
    return status_;
  }
  status_ = SyncAndPublish(fd, tmp_, path_);
  return status_;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + ": no such file");
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) out.resize(static_cast<size_t>(st.st_size));
  // Reads into `out` until it is full, then through `more` until the end
  // of the file: a file that grew after the fstat is read whole.
  size_t done = 0;
  for (;;) {
    char more[4096];
    const bool full = done == out.size();
    const ssize_t n = full ? ::read(fd, more, sizeof(more))
                           : ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("read " + path + ": " + std::strerror(errno));
    }
    if (n == 0) break;
    if (full) out.append(more, static_cast<size_t>(n));
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(done);  // the file shrank after the fstat
  return out;
}

Status EnsureDir(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("EnsureDir: empty path");
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir " + prefix + ": " + std::strerror(errno));
    }
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IoError(path + " is not a directory");
  }
  return Status::Ok();
}

std::vector<std::string> ListDir(const std::string& path) {
  std::vector<std::string> out;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return out;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

bool RemoveTree(const std::string& path) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) return errno == ENOENT;
  if (S_ISDIR(st.st_mode)) {
    for (const std::string& name : ListDir(path)) {
      RemoveTree(path + "/" + name);
    }
    return ::rmdir(path.c_str()) == 0;
  }
  return ::unlink(path.c_str()) == 0;
}

}  // namespace horizon::io
