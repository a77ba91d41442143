#include "matching/serialization.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace dd {

namespace {

constexpr char kMagic[4] = {'D', 'D', 'M', 'R'};
// Version 1 is the legacy checksum-less layout; version 2 (current,
// kMatchingFormatVersion) inserts a u64 FNV-1a of the body after the
// version word. See serialization.h for the full history.
constexpr std::uint32_t kLegacyVersion = 1;

// Bounds-checked little reader over the byte buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - pos_ < sizeof(T)) {
      return Status::InvalidArgument("truncated matching-relation data");
    }
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status ReadBytes(void* out, std::size_t n) {
    if (bytes_.size() - pos_ < n) {
      return Status::InvalidArgument("truncated matching-relation data");
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  Status ReadString(std::string* out, std::size_t n) {
    out->resize(n);
    return ReadBytes(out->data(), n);
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

template <typename T>
void Append(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Parses the version-independent body (everything after the header).
Result<MatchingRelation> ParseBody(std::string_view body);

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (unsigned char c : bytes) {
    hash ^= static_cast<std::uint64_t>(c);
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

std::string SerializeMatchingRelation(const MatchingRelation& matching) {
  std::string body;
  Append(&body, static_cast<std::int32_t>(matching.dmax()));
  Append(&body, static_cast<std::uint32_t>(matching.num_attributes()));
  for (const auto& name : matching.attribute_names()) {
    Append(&body, static_cast<std::uint32_t>(name.size()));
    body.append(name);
  }
  Append(&body, static_cast<std::uint64_t>(matching.num_tuples()));
  for (const auto& [i, j] : matching.pairs()) {
    Append(&body, i);
    Append(&body, j);
  }
  for (std::size_t a = 0; a < matching.num_attributes(); ++a) {
    // Serialized columns stay one byte per level whatever the in-memory
    // packing, so the v2 format (and its checksums) are unchanged by
    // the bit-packed store.
    const std::vector<Level> column = matching.column(a).Unpack();
    body.append(reinterpret_cast<const char*>(column.data()), column.size());
  }

  std::string out;
  out.reserve(body.size() + 16);
  out.append(kMagic, sizeof(kMagic));
  Append(&out, kMatchingFormatVersion);
  Append(&out, Fnv1a64(body));
  out.append(body);
  return out;
}

Result<MatchingRelation> DeserializeMatchingRelation(std::string_view bytes) {
  Reader header(bytes);
  char magic[4];
  DD_RETURN_IF_ERROR(header.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic: not a matching-relation file");
  }
  std::uint32_t version = 0;
  DD_RETURN_IF_ERROR(header.Read(&version));
  if (version == kLegacyVersion) {
    // Legacy pre-checksum layout: the body follows immediately; no
    // integrity check possible beyond the structural validation below.
    return ParseBody(bytes.substr(sizeof(kMagic) + sizeof(version)));
  }
  if (version != kMatchingFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported matching-relation version %u", version));
  }
  std::uint64_t checksum = 0;
  DD_RETURN_IF_ERROR(header.Read(&checksum));
  const std::string_view body =
      bytes.substr(sizeof(kMagic) + sizeof(version) + sizeof(checksum));
  if (Fnv1a64(body) != checksum) {
    return Status::InvalidArgument(
        "checksum mismatch: corrupted matching-relation data");
  }
  return ParseBody(body);
}

namespace {

Result<MatchingRelation> ParseBody(std::string_view body) {
  Reader reader(body);
  std::int32_t dmax = 0;
  DD_RETURN_IF_ERROR(reader.Read(&dmax));
  if (dmax < 1 || dmax > 255) {
    return Status::InvalidArgument(StrFormat("corrupt dmax %d", dmax));
  }
  std::uint32_t num_attrs = 0;
  DD_RETURN_IF_ERROR(reader.Read(&num_attrs));
  if (num_attrs == 0 || num_attrs > 4096) {
    return Status::InvalidArgument("corrupt attribute count");
  }
  std::vector<std::string> names(num_attrs);
  for (auto& name : names) {
    std::uint32_t len = 0;
    DD_RETURN_IF_ERROR(reader.Read(&len));
    if (len > 4096) return Status::InvalidArgument("corrupt attribute name");
    DD_RETURN_IF_ERROR(reader.ReadString(&name, len));
  }
  std::uint64_t tuples = 0;
  DD_RETURN_IF_ERROR(reader.Read(&tuples));
  // Sanity bound: the remaining bytes must cover pairs + columns. The
  // bound divides because tuples * per_tuple can wrap for a crafted count.
  const std::uint64_t per_tuple = 2 * sizeof(std::uint32_t) + num_attrs;
  if (tuples > reader.remaining() / per_tuple) {
    return Status::InvalidArgument("truncated matching-relation payload");
  }

  MatchingRelation matching(names, dmax);
  matching.Reserve(tuples);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(tuples);
  for (auto& [i, j] : pairs) {
    DD_RETURN_IF_ERROR(reader.Read(&i));
    DD_RETURN_IF_ERROR(reader.Read(&j));
  }
  std::vector<std::vector<Level>> columns(num_attrs,
                                          std::vector<Level>(tuples));
  for (auto& column : columns) {
    DD_RETURN_IF_ERROR(reader.ReadBytes(column.data(), column.size()));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after matching relation");
  }
  std::vector<Level> levels(num_attrs);
  for (std::uint64_t t = 0; t < tuples; ++t) {
    for (std::uint32_t a = 0; a < num_attrs; ++a) {
      if (static_cast<int>(columns[a][t]) > dmax) {
        return Status::InvalidArgument("level exceeds dmax");
      }
      levels[a] = columns[a][t];
    }
    matching.AddTuple(pairs[t].first, pairs[t].second, levels);
  }
  return matching;
}

}  // namespace

Status WriteMatchingFile(const MatchingRelation& matching,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const std::string bytes = SerializeMatchingRelation(matching);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<MatchingRelation> ReadMatchingFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeMatchingRelation(buffer.str());
}

}  // namespace dd
