#pragma once
// Versioned binary artifact container (the serialization + warm-start layer).
//
// On-disk layout (all integers little-endian, see docs/serialization.md):
//
//   offset 0              64-byte header
//     u32  magic          "H3DA" (0x41443348)
//     u32  format_version kFormatVersion; readers reject other versions
//     u32  section_count  entries in the section table
//     u32  flags          reserved, must be 0
//     u64  file_bytes     total file size (truncation check)
//     u64  table_digest   FNV-1a over the encoded section table
//     ...                 zero padding to 64 bytes
//   offset 64             section table: section_count × 32-byte entries
//     u32  kind           SectionKind
//     u32  version        per-section payload format version
//     u64  offset         absolute payload offset, 64-byte aligned
//     u64  bytes          payload length
//     u64  digest         FNV-1a over the payload bytes
//   then                  payloads, each at a 64-byte-aligned offset,
//                         zero-padded in between
//
// The 64-byte section alignment is what makes the zero-copy read path work:
// a kCodebookWords payload is a raw row-major u64 block, so an mmap of the
// file yields codevector rows the similarity kernels stream directly
// (hdc::Codebook::from_packed with borrow=true), and N workers on one host
// share the read-only pages. Every read path verifies header, table digest
// and per-section digests before any payload byte is interpreted; corrupt or
// truncated files fail with io::ArtifactError, never undefined behavior.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace h3dfact::io {

/// "H3DA" as a little-endian u32 (bytes H,3,D,A in file order).
inline constexpr std::uint32_t kArtifactMagic = 0x41443348u;

/// Container format version. Bumped whenever the header or section-table
/// layout changes; section payload layouts version independently through
/// each section's `version` field (see docs/serialization.md).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Payload layout version of every section kind this reader decodes; a
/// section carrying any other version is refused (docs/serialization.md).
inline constexpr std::uint32_t kSectionVersion = 1;

/// Every section payload starts at a multiple of this (zero-copy mmap).
inline constexpr std::size_t kSectionAlign = 64;

/// Fixed sizes of the two structural regions.
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kSectionEntryBytes = 32;

/// Typed payload discriminator.
enum class SectionKind : std::uint32_t {
  kCodebookSetMeta = 1,  ///< dims + names + fingerprint of a CodebookSet
  kCodebookWords = 2,    ///< one per factor, in order: raw packed u64 rows
  kItemMemoryMeta = 3,   ///< dim + labels of an ItemMemory
  kItemMemoryWords = 4,  ///< raw packed u64 rows, one per stored item
  // 5 is retired (was resonator-state) and must never be reused: decoders
  // skip an old file's kind-5 section as an unknown kind.
  kSweepCells = 6,       ///< sweep checkpoint: completed cells (sweep/emit.hpp)
};

/// Human-readable section-kind name ("codebook-words", ... ; "unknown(k)").
std::string section_kind_name(std::uint32_t kind);

/// Error type of every artifact failure: carries the file path and a
/// detail string, formatted as "artifact 'path': detail".
class ArtifactError : public std::runtime_error {
 public:
  ArtifactError(const std::string& path, const std::string& detail)
      : std::runtime_error("artifact '" + path + "': " + detail),
        path_(path),
        detail_(detail) {}

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string path_;
  std::string detail_;
};

/// One decoded section-table entry.
struct SectionInfo {
  std::uint32_t kind = 0;
  std::uint32_t version = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
};

/// util::ByteReader over one section payload whose failures throw
/// ArtifactError naming the file and the section.
class PayloadReader : public util::ByteReader {
 public:
  PayloadReader(std::string_view bytes, std::string path, std::string section)
      : ByteReader(bytes, ""),
        path_(std::move(path)),
        section_(std::move(section)) {}

 private:
  [[noreturn]] void fail(const std::string& detail) const override;

  std::string path_;
  std::string section_;
};

// --- writing ----------------------------------------------------------------

/// Collects sections, then writes the container atomically (tmp + rename).
/// Section order is preserved; offsets, digests and the header are computed
/// at write() time, so the same sections always produce byte-identical
/// files (the golden-artifact guarantee).
class ArtifactWriter {
 public:
  /// Append one section. Payload bytes are taken verbatim.
  void add_section(SectionKind kind, std::string payload,
                   std::uint32_t version = kSectionVersion);

  /// Serialize the container to a byte string (the exact file contents).
  [[nodiscard]] std::string serialize() const;

  /// Atomically write to `path` (path + ".tmp", then rename). Throws
  /// ArtifactError on any I/O failure; a failed write never clobbers an
  /// existing artifact at `path`.
  void write(const std::string& path) const;

 private:
  struct Pending {
    SectionKind kind;
    std::uint32_t version;
    std::string payload;
  };
  std::vector<Pending> sections_;
};

// --- reading ----------------------------------------------------------------

/// How to back a loaded artifact's bytes.
enum class LoadMode {
  kAuto,  ///< try mmap, silently fall back to a heap read
  kHeap,  ///< always read into a heap buffer
  kMmap,  ///< require mmap; ArtifactError where unavailable
};

/// A validated, loaded artifact. Construction (load) verifies magic,
/// version, file size, table digest and every section digest; afterwards
/// section payloads are available as raw bytes or aligned u64 words.
/// Movable, not copyable; the destructor unmaps mmap-backed loads.
class Artifact {
 public:
  static Artifact load(const std::string& path, LoadMode mode = LoadMode::kAuto);

  Artifact(Artifact&& other) noexcept;
  Artifact& operator=(Artifact&& other) noexcept;
  Artifact(const Artifact&) = delete;
  Artifact& operator=(const Artifact&) = delete;
  ~Artifact();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// True when the bytes are an mmap of the file (zero-copy sections).
  [[nodiscard]] bool mapped() const { return map_base_ != nullptr; }
  [[nodiscard]] std::size_t file_bytes() const { return len_; }
  [[nodiscard]] const std::vector<SectionInfo>& sections() const {
    return sections_;
  }

  /// Sections of one kind, in file order.
  [[nodiscard]] std::vector<const SectionInfo*> find(SectionKind kind) const;

  /// The unique section of `kind`; ArtifactError when absent or duplicated.
  [[nodiscard]] const SectionInfo& require_one(SectionKind kind) const;

  /// Raw payload bytes of a section (borrowed from this artifact).
  [[nodiscard]] std::string_view section_bytes(const SectionInfo& s) const;

  /// Payload as aligned u64 words; ArtifactError unless bytes % 8 == 0 and
  /// the version is kSectionVersion. For mmap-backed loads the pointer aims
  /// straight into the mapping.
  [[nodiscard]] const std::uint64_t* section_words(const SectionInfo& s,
                                                  std::size_t* n_words) const;

  /// A PayloadReader over a section, pre-labelled with path + kind for
  /// field-named truncation errors; ArtifactError unless the section
  /// version is kSectionVersion.
  [[nodiscard]] PayloadReader reader(const SectionInfo& s) const;

 private:
  Artifact() = default;
  void parse_and_verify();
  void require_known_version(const SectionInfo& s) const;

  std::string path_;
  // Heap backing is a u64 vector (not a string) so the byte image is
  // 8-aligned and section_words() can hand out direct word views on the
  // heap path too, mirroring the mapping exactly.
  std::vector<std::uint64_t> heap_;
  void* map_base_ = nullptr;     // mmap base (nullptr when heap-backed)
  std::size_t map_len_ = 0;
  const char* data_ = nullptr;   // points at heap_ or the mapping
  std::size_t len_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace h3dfact::io
