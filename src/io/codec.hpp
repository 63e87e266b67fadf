#pragma once
// Typed codecs over the artifact container (io/artifact.hpp): codebook sets
// and item memories. Writers append sections
// to an ArtifactWriter (one artifact can carry any mix); loaders decode and
// verify out of a loaded Artifact.
//
// Codebook loads are zero-copy: the kCodebookWords payloads are row-major
// packed u64 rows at 64-byte-aligned offsets, so the loaded hdc::Codebook
// borrows them in place (hdc::Codebook::from_packed, borrow=true) instead of
// copying — for mmap-backed artifacts the similarity kernels then stream
// codevector rows straight from the page cache, shared read-only across
// every worker on the host. The returned shared_ptr keeps the backing file
// mapping (or heap image) alive for as long as any copy of the set is.

#include <cstdint>
#include <memory>
#include <string>

#include "hdc/codebook.hpp"
#include "hdc/item_memory.hpp"
#include "io/artifact.hpp"

namespace h3dfact::io {

// --- codebook sets ----------------------------------------------------------

/// Append a codebook set: one kCodebookSetMeta section plus one
/// kCodebookWords section per factor, in factor order.
void add_codebook_set(ArtifactWriter& writer, const hdc::CodebookSet& set);

/// A codebook set decoded from an artifact.
struct LoadedCodebookSet {
  /// The set; keeps the artifact's backing bytes alive (aliasing pointer).
  std::shared_ptr<const hdc::CodebookSet> set;
  /// The stored fingerprint — always verified against a recompute on load.
  std::uint64_t fingerprint = 0;
  /// True when the packed codevector words are an mmap of the file (the
  /// shared-page warm-start path) rather than a private heap image.
  bool mapped = false;
};

/// Decode + verify the codebook set of `artifact`, taking ownership of the
/// artifact so the packed words can be borrowed in place. Throws
/// ArtifactError on any structural problem or fingerprint mismatch.
LoadedCodebookSet load_codebook_set(Artifact artifact);

/// Convenience: Artifact::load + load_codebook_set.
LoadedCodebookSet load_codebook_set(const std::string& path,
                                    LoadMode mode = LoadMode::kAuto);

// --- item memories ----------------------------------------------------------

/// Append an item memory: kItemMemoryMeta (dim + labels) + kItemMemoryWords.
void add_item_memory(ArtifactWriter& writer, const hdc::ItemMemory& memory);

/// Decode the item memory sections of `artifact` (owned copy; item vectors
/// are value types, so no borrowing applies).
hdc::ItemMemory load_item_memory(const Artifact& artifact);

}  // namespace h3dfact::io
