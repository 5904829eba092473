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
#include <cstring>
#include <utility>

#include "common/text_codec.h"

namespace horizon::io {

// ---------------------------------------------------------------------------
// FaultInjector

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

bool FaultInjector::ShouldFail() {
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

/// The reflected CRC-32 polynomial.
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
                                          uint32_t* payload_crc) {
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
  if (payload_crc != nullptr) *payload_crc = crc;
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
  if (faults.ShouldFail() || ::fsync(fd) != 0) {  // the file's fsync
    ::close(fd);
    return Status::IoError("fsync " + tmp);
  }
  if (::close(fd) != 0) {
    return Status::IoError("close " + tmp + ": " + std::strerror(errno));
  }
  if (faults.ShouldFail()) {  // the rename
    return Status::IoError("injected crash renaming " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + ": " + std::strerror(errno));
  }
  // The rename has reached the filesystem; a crash at the directory fsync
  // below corresponds to the "rename made it to disk" outcome, so the
  // injected failure only aborts the protocol, it cannot undo the rename.
  if (faults.ShouldFail()) {  // the directory fsync
    return Status::IoError("injected crash fsyncing parent of " + path);
  }
  if (!FsyncParentDir(path)) {
    return Status::IoError("fsync parent dir of " + path);
  }
  return Status::Ok();
}

/// "hzf1 " + the size field + " " + 8 hex digits + "\n".
constexpr size_t kPaddedHeaderBytes = 5 + FramedFileWriter::kFieldDigits + 1 + 8 + 1;

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("open " + tmp + ": " + std::strerror(errno));
  if (FaultInjector::Global().ShouldFail()) {  // the write
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
  crc_ = Crc32(crc_, bytes);
  payload_bytes_ += bytes.size();
  return Status::Ok();
}

uint64_t FramedFileWriter::file_bytes() const {
  return kPaddedHeaderBytes + payload_bytes_;
}

Status FramedFileWriter::Commit() {
  if (!status_.ok()) return status_;
  char header[kPaddedHeaderBytes + 1];
  std::snprintf(header, sizeof(header), "hzf1 %0*llu %08x\n",
                static_cast<int>(kFieldDigits),
                static_cast<unsigned long long>(payload_bytes_), crc_);
  if (::pwrite(fd_, header, kPaddedHeaderBytes, 0) !=
      static_cast<ssize_t>(kPaddedHeaderBytes)) {
    status_ = Status::IoError("write " + tmp_ + ": " + std::strerror(errno));
    return status_;
  }

  const int fd = std::exchange(fd_, -1);
  if (FaultInjector::Global().ShouldFail()) {  // the write
    // Simulated crash mid-write: leave the first half of the bytes.
    const bool torn = ::ftruncate(fd, static_cast<off_t>(file_bytes() / 2)) == 0;
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
