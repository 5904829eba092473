// The files of a committed checkpoint, for tests that read them, split a
// shard payload into its records or re-frame a shard file around an
// edited payload (checkpoint_test, serving_fuzz_test).
#ifndef HORIZON_TESTS_CHECKPOINT_FILES_H_
#define HORIZON_TESTS_CHECKPOINT_FILES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"

namespace horizon::test {

/// The payload of the CRC-framed file at `path`.
inline std::string FramedPayload(const std::string& path) {
  const std::string file = io::ReadFile(path).value();
  return std::string(io::UnwrapCrcFrame(file).value());
}

/// The directory of the checkpoint CURRENT names under `dir`.
inline std::string CommittedCheckpoint(const std::string& dir) {
  std::string pointer = io::ReadFile(dir + "/CURRENT").value();
  while (!pointer.empty() && (pointer.back() == '\n' || pointer.back() == ' ')) {
    pointer.pop_back();
  }
  return dir + "/" + pointer;
}

/// A `shard v4` payload: its header line ("shard v4") and per item its id
/// line, static-record line and tracker blob.
struct ShardText {
  struct Record {
    std::string id, statics, blob;
  };
  std::string header;
  std::vector<Record> records;

  /// The payload, each blob after its byte count.
  std::string Join() const {
    std::string out = header;
    for (const Record& r : records) {
      out += r.id + "\n" + r.statics + "\n";
      out += std::to_string(r.blob.size()) + "\n" + r.blob;
    }
    return out;
  }
};

/// The parts of the `shard v4` payload `payload`; fails the test unless
/// they join back into `payload`.
inline ShardText SplitShard(const std::string& payload) {
  ShardText text;
  std::istringstream in(payload);
  std::string line;
  if (std::getline(in, line)) text.header = line + "\n";
  ShardText::Record record;
  size_t bytes = 0;
  while (std::getline(in, record.id) && std::getline(in, record.statics) && in >> bytes) {
    in.ignore(1);  // the newline after the byte count
    record.blob.assign(bytes, '\0');
    in.read(record.blob.data(), static_cast<std::streamsize>(bytes));
    text.records.push_back(record);
  }
  EXPECT_EQ(text.Join(), payload) << "not a shard v4 payload";
  return text;
}

/// Re-frames the shard files of the committed checkpoint under `dir` whose
/// payload `edit` changes, with fresh CRCs in each file and in the
/// manifest entry that vouches for it: what a re-framed (rather than torn)
/// shard file holds.  Every payload handed to `edit` is a shard v4 one;
/// the manifest keeps each file's item count.
/// Stops after the first edited shard unless `every_shard`; returns how
/// many shards it rewrote.
inline size_t ReframeShards(const std::string& dir,
                            const std::function<bool(std::string*)>& edit,
                            bool every_shard) {
  const std::string ckpt = CommittedCheckpoint(dir);
  std::string manifest = FramedPayload(ckpt + "/MANIFEST");
  size_t rewritten = 0;
  for (const std::string& name : io::ListDir(ckpt)) {
    if (name.rfind("shard-", 0) != 0) continue;
    std::string payload = FramedPayload(ckpt + "/" + name);
    EXPECT_EQ(payload.rfind("shard v4\n", 0), 0u) << name;
    if (!edit(&payload)) continue;
    const std::string framed = io::WrapCrcFrame(payload);
    EXPECT_TRUE(io::WriteFileAtomic(ckpt + "/" + name, framed).ok());
    // Manifest entry: "<name> <crc> <bytes> <items>".
    const size_t line = manifest.find("\n" + name + " ");
    if (line == std::string::npos) {
      ADD_FAILURE() << name << " has no manifest entry";
      return rewritten;
    }
    const size_t at = line + 1;
    const size_t end = manifest.find('\n', at);
    std::istringstream entry(manifest.substr(at, end - at));
    std::string file;
    uint32_t crc = 0;
    size_t bytes = 0, items = 0;
    entry >> file >> crc >> bytes >> items;
    manifest.replace(at, end - at,
                     name + " " + std::to_string(io::Crc32(payload)) + " " +
                         std::to_string(framed.size()) + " " +
                         std::to_string(items));
    EXPECT_TRUE(
        io::WriteFileAtomic(ckpt + "/MANIFEST", io::WrapCrcFrame(manifest)).ok());
    ++rewritten;
    if (!every_shard) break;
  }
  return rewritten;
}

/// ReframeShards on the first shard `edit` changes; false if it declined
/// every shard.
inline bool ReframeShard(const std::string& dir,
                         const std::function<bool(std::string*)>& edit) {
  return ReframeShards(dir, edit, /*every_shard=*/false) == 1;
}

}  // namespace horizon::test

#endif  // HORIZON_TESTS_CHECKPOINT_FILES_H_
