#pragma once
// Structured result emitters and the checkpoint file (the sweep subsystem,
// part 3 of 3).
//
// CellResults serialize to RFC-4180 CSV (one row per cell; axis coordinate
// and parameter columns come before the fixed statistics block, per-cell
// metadata after it) and to pretty-printed JSON (one object per cell with
// coordinates/params/config/stats subobjects). Both formats are stable,
// golden-file-tested, write-only renderings: a sweep re-run with the same
// spec emits byte-identical files apart from the wall-clock fields.
//
// The checkpoint (SweepOptions::checkpoint_path) is not a rendering but the
// cells themselves: one H3DA artifact (io/artifact.hpp) whose kSweepCells
// section holds each completed cell in the wire encoding remote trial blocks
// already cross bit for bit (encode_result). An interrupted --full run
// resumes from it losslessly.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace h3dfact::sweep {

/// CSV, one row per cell. Columns: cell index, one column per axis (order
/// of first appearance), one per parameter (sorted), the config echo and
/// statistics, wall seconds, then one column per metadata key (sorted).
void write_csv(std::ostream& os, std::span<const CellResult> results);

/// JSON document {"sweep": name, "cells": [...]}, every sample included.
void write_json(std::ostream& os, const std::string& sweep_name,
                std::span<const CellResult> results);

/// The emitters' number and string renderings, shared by every JSON writer
/// (dse/frontier.cpp) so all artifacts format alike, independent of locale
/// and platform. fmt_g is %.6g for the human-scale summaries; fmt_exact
/// prints a double exactly (integral values without exponent, anything
/// else at 17 significant digits); json_quote renders a JSON string literal
/// with escapes.
std::string fmt_g(double v);
std::string fmt_exact(double v);
std::string json_quote(const std::string& s);

/// String conveniences (tests, logging).
std::string csv_string(std::span<const CellResult> results);
std::string json_string(const std::string& sweep_name,
                        std::span<const CellResult> results);

/// Write `cells` (sorted by index) as the checkpoint of the sweep named
/// `sweep_name` whose spec_fingerprint is `fingerprint`: one kSweepCells
/// section holding the name, the fingerprint, a cell count and each cell as
/// a length-prefixed encode_result(0, cell). Replaces `path` atomically;
/// throws io::ArtifactError on an I/O failure, leaving any file at `path`
/// as it was.
void write_checkpoint(const std::string& path, const std::string& sweep_name,
                      std::uint64_t fingerprint,
                      std::span<const CellResult> cells);

/// The completed cells of `spec` (whose spec_fingerprint is `fingerprint`)
/// recorded at `path`, sorted by index; none when there is no file there.
/// Throws std::runtime_error naming `path`, and leaves the file alone,
/// unless it is a valid checkpoint of this very spec: an H3DA artifact whose
/// digests, bounds and length check out, with no trailing bytes, the spec's
/// name and fingerprint, and only whole cells of the grid in strictly
/// ascending index order.
std::vector<CellResult> read_checkpoint(const std::string& path,
                                        const SweepSpec& spec,
                                        std::uint64_t fingerprint);

}  // namespace h3dfact::sweep
