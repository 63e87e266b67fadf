#include "io/artifact.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/hash.hpp"

namespace h3dfact::io {

std::string section_kind_name(std::uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kCodebookSetMeta: return "codebook-set-meta";
    case SectionKind::kCodebookWords: return "codebook-words";
    case SectionKind::kItemMemoryMeta: return "item-memory-meta";
    case SectionKind::kItemMemoryWords: return "item-memory-words";
    case SectionKind::kSweepCells: return "sweep-cells";
  }
  return "unknown(" + std::to_string(kind) + ")";
}

void PayloadReader::fail(const std::string& detail) const {
  throw ArtifactError(path_, section_ + ": " + detail);
}

// --- writing ----------------------------------------------------------------

void ArtifactWriter::add_section(SectionKind kind, std::string payload,
                                 std::uint32_t version) {
  sections_.push_back(Pending{kind, version, std::move(payload)});
}

std::string ArtifactWriter::serialize() const {
  // Lay out payload offsets first: each aligned up to kSectionAlign.
  const std::size_t table_bytes = sections_.size() * kSectionEntryBytes;
  std::size_t cursor = kHeaderBytes + table_bytes;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(sections_.size());
  for (const Pending& s : sections_) {
    cursor = (cursor + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    offsets.push_back(cursor);
    cursor += s.payload.size();
  }
  const std::uint64_t file_bytes = cursor;

  std::string table;
  table.reserve(table_bytes);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Pending& s = sections_[i];
    util::put_u32(table, static_cast<std::uint32_t>(s.kind));
    util::put_u32(table, s.version);
    util::put_u64(table, offsets[i]);
    util::put_u64(table, s.payload.size());
    const std::uint64_t digest =
        util::Fnv1a().bytes(s.payload.data(), s.payload.size()).digest();
    util::put_u64(table, digest);
  }

  std::string out;
  out.reserve(static_cast<std::size_t>(file_bytes));
  util::put_u32(out, kArtifactMagic);
  util::put_u32(out, kFormatVersion);
  util::put_u32(out, static_cast<std::uint32_t>(sections_.size()));
  util::put_u32(out, 0);  // flags, reserved
  util::put_u64(out, file_bytes);
  util::put_u64(out, util::Fnv1a().bytes(table.data(), table.size()).digest());
  out.resize(kHeaderBytes, '\0');
  out += table;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    out.resize(static_cast<std::size_t>(offsets[i]), '\0');
    out += sections_[i].payload;
  }
  return out;
}

void ArtifactWriter::write(const std::string& path) const {
  const std::string bytes = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw ArtifactError(path, "cannot open '" + tmp + "' for writing");
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp.c_str());
      throw ArtifactError(path, "short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ArtifactError(path, "rename from '" + tmp + "' failed");
  }
}

// --- reading ----------------------------------------------------------------

Artifact::Artifact(Artifact&& other) noexcept { *this = std::move(other); }

Artifact& Artifact::operator=(Artifact&& other) noexcept {
  if (this == &other) return *this;
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
  path_ = std::move(other.path_);
  heap_ = std::move(other.heap_);
  map_base_ = std::exchange(other.map_base_, nullptr);
  map_len_ = std::exchange(other.map_len_, 0);
  data_ = std::exchange(other.data_, nullptr);
  len_ = std::exchange(other.len_, 0);
  sections_ = std::move(other.sections_);
  // The heap move relocates the buffer; re-aim the view at our copy.
  if (map_base_ == nullptr && !heap_.empty()) {
    data_ = reinterpret_cast<const char*>(heap_.data());
  }
  return *this;
}

Artifact::~Artifact() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

namespace {

/// Read a whole file into an 8-aligned u64 buffer; returns byte length.
std::size_t read_whole_file(const std::string& path,
                            std::vector<std::uint64_t>& buf) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw ArtifactError(path, "cannot open for reading");
  const std::streamsize size = is.tellg();
  if (size < 0) throw ArtifactError(path, "cannot determine file size");
  const auto bytes = static_cast<std::size_t>(size);
  buf.assign((bytes + 7) / 8, 0);
  is.seekg(0);
  if (bytes > 0) {
    is.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(bytes));
  }
  if (!is.good() && !is.eof()) throw ArtifactError(path, "read failed");
  if (static_cast<std::size_t>(is.gcount()) != bytes) {
    throw ArtifactError(path, "short read");
  }
  return bytes;
}

}  // namespace

Artifact Artifact::load(const std::string& path, LoadMode mode) {
  Artifact a;
  a.path_ = path;

  if (mode != LoadMode::kHeap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (mode == LoadMode::kMmap) {
        throw ArtifactError(path, "cannot open for mmap");
      }
    } else {
      struct stat st {};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                            PROT_READ, MAP_PRIVATE, fd, 0);
        if (base != MAP_FAILED) {
          a.map_base_ = base;
          a.map_len_ = static_cast<std::size_t>(st.st_size);
          a.data_ = static_cast<const char*>(base);
          a.len_ = a.map_len_;
        }
      }
      ::close(fd);
      if (a.map_base_ == nullptr && mode == LoadMode::kMmap) {
        throw ArtifactError(path, "mmap failed");
      }
    }
  }

  if (a.map_base_ == nullptr) {
    a.len_ = read_whole_file(path, a.heap_);
    a.data_ = reinterpret_cast<const char*>(a.heap_.data());
  }
  a.parse_and_verify();
  return a;
}

void Artifact::parse_and_verify() {
  if (len_ < kHeaderBytes) {
    throw ArtifactError(path_, "file too small for the 64-byte header (" +
                                   std::to_string(len_) + " bytes)");
  }
  const std::uint32_t magic = util::load_u32(data_);
  if (magic != kArtifactMagic) {
    throw ArtifactError(path_, "bad magic (not an H3DA artifact)");
  }
  const std::uint32_t version = util::load_u32(data_ + 4);
  if (version != kFormatVersion) {
    throw ArtifactError(path_, "unsupported format version " +
                                   std::to_string(version) + " (reader is v" +
                                   std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = util::load_u32(data_ + 8);
  const std::uint32_t flags = util::load_u32(data_ + 12);
  if (flags != 0) {
    throw ArtifactError(path_, "nonzero reserved flags field");
  }
  const std::uint64_t file_bytes = util::load_u64(data_ + 16);
  if (file_bytes != len_) {
    throw ArtifactError(path_, "header says " + std::to_string(file_bytes) +
                                   " bytes, file has " + std::to_string(len_) +
                                   " (truncated or padded)");
  }
  for (std::size_t i = 32; i < kHeaderBytes; ++i) {
    if (data_[i] != 0) {
      throw ArtifactError(path_, "nonzero header padding byte at offset " +
                                     std::to_string(i));
    }
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(count) * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > len_) {
    throw ArtifactError(path_, "section table (" + std::to_string(count) +
                                   " entries) exceeds the file");
  }
  const std::uint64_t table_digest = util::load_u64(data_ + 24);
  const std::uint64_t actual_table_digest =
      util::Fnv1a()
          .bytes(data_ + kHeaderBytes, static_cast<std::size_t>(table_bytes))
          .digest();
  if (table_digest != actual_table_digest) {
    throw ArtifactError(path_, "section table digest mismatch (corrupt "
                               "header or table)");
  }

  sections_.clear();
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base =
        kHeaderBytes + static_cast<std::size_t>(i) * kSectionEntryBytes;
    SectionInfo s;
    s.kind = util::load_u32(data_ + base);
    s.version = util::load_u32(data_ + base + 4);
    s.offset = util::load_u64(data_ + base + 8);
    s.bytes = util::load_u64(data_ + base + 16);
    s.digest = util::load_u64(data_ + base + 24);
    const std::string label =
        "section " + std::to_string(i) + " (" + section_kind_name(s.kind) + ")";
    if (s.offset % kSectionAlign != 0) {
      throw ArtifactError(path_, label + ": offset " +
                                     std::to_string(s.offset) +
                                     " is not 64-byte aligned");
    }
    if (s.offset < kHeaderBytes + table_bytes || s.offset > len_ ||
        s.bytes > len_ - s.offset) {
      throw ArtifactError(path_, label + ": payload [" +
                                     std::to_string(s.offset) + ", +" +
                                     std::to_string(s.bytes) +
                                     ") falls outside the file");
    }
    const std::uint64_t digest =
        util::Fnv1a()
            .bytes(data_ + s.offset, static_cast<std::size_t>(s.bytes))
            .digest();
    if (digest != s.digest) {
      throw ArtifactError(path_, label + ": payload digest mismatch "
                                         "(corrupt section)");
    }
    sections_.push_back(s);
  }
}

std::vector<const SectionInfo*> Artifact::find(SectionKind kind) const {
  std::vector<const SectionInfo*> out;
  for (const SectionInfo& s : sections_) {
    if (s.kind == static_cast<std::uint32_t>(kind)) out.push_back(&s);
  }
  return out;
}

const SectionInfo& Artifact::require_one(SectionKind kind) const {
  const auto matches = find(kind);
  if (matches.empty()) {
    throw ArtifactError(path_, "missing required section " +
                                   section_kind_name(
                                       static_cast<std::uint32_t>(kind)));
  }
  if (matches.size() > 1) {
    throw ArtifactError(path_, "duplicate section " +
                                   section_kind_name(
                                       static_cast<std::uint32_t>(kind)));
  }
  return *matches.front();
}

std::string_view Artifact::section_bytes(const SectionInfo& s) const {
  return std::string_view(data_ + s.offset, static_cast<std::size_t>(s.bytes));
}

void Artifact::require_known_version(const SectionInfo& s) const {
  if (s.version != kSectionVersion) {
    throw ArtifactError(path_, "section " + section_kind_name(s.kind) +
                                   ": unsupported section version " +
                                   std::to_string(s.version) + " (reader is v" +
                                   std::to_string(kSectionVersion) + ")");
  }
}

const std::uint64_t* Artifact::section_words(const SectionInfo& s,
                                             std::size_t* n_words) const {
  require_known_version(s);
  if constexpr (std::endian::native != std::endian::little) {
    throw ArtifactError(path_, "direct word views need a little-endian host "
                               "(artifacts are little-endian on disk)");
  }
  if (s.bytes % 8 != 0) {
    throw ArtifactError(path_, "section " +
                                   section_kind_name(s.kind) + ": " +
                                   std::to_string(s.bytes) +
                                   " payload bytes is not a whole number of "
                                   "u64 words");
  }
  if (n_words != nullptr) *n_words = static_cast<std::size_t>(s.bytes / 8);
  // Sections sit at 64-byte-aligned offsets and both backings (mmap page /
  // u64 heap buffer) are at least 8-aligned, so this cast is well-formed.
  return reinterpret_cast<const std::uint64_t*>(data_ + s.offset);
}

PayloadReader Artifact::reader(const SectionInfo& s) const {
  require_known_version(s);
  return PayloadReader(section_bytes(s), path_, section_kind_name(s.kind));
}

}  // namespace h3dfact::io
