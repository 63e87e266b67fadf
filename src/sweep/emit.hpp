#pragma once
// Structured result emitters (the sweep subsystem, part 3 of 3).
//
// CellResults serialize to RFC-4180 CSV (one row per cell; axis coordinate
// and parameter columns come before the fixed statistics block, per-cell
// metadata after it) and to pretty-printed JSON (one object per cell with
// coordinates/params/config/stats subobjects). Both formats are stable,
// golden-file-tested renderings: a sweep re-run with the same spec emits
// byte-identical files apart from the wall-clock fields.
//
// The JSON artifact carries the complete per-cell statistics — including
// every iteration sample and trace histogram — so it round-trips through
// read_json without loss. That makes the artifact double as the sweep
// checkpoint (SweepOptions::checkpoint_path): an interrupted --full run
// resumes from the completed cells recorded in its own emitter output.

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

/// JSON document {"sweep": name, "cells": [...]}, lossless per cell.
void write_json(std::ostream& os, const std::string& sweep_name,
                std::span<const CellResult> results);

/// The emitters' number and string renderings, shared by every JSON writer
/// (dse/frontier.cpp) and the checkpoint comparison so all artifacts format
/// alike, independent of locale and platform. fmt_g is %.6g for the
/// human-scale summaries; fmt_exact round-trips a double exactly (integral
/// values without exponent, anything else at 17 significant digits);
/// json_quote renders a JSON string literal with escapes.
std::string fmt_g(double v);
std::string fmt_exact(double v);
std::string json_quote(const std::string& s);

/// String conveniences (tests, logging).
std::string csv_string(std::span<const CellResult> results);
std::string json_string(const std::string& sweep_name,
                        std::span<const CellResult> results);

/// A parsed sweep JSON artifact: the sweep name and its cells, with the
/// TrialStats fully reconstructed (Welford accumulators rebuilt from the
/// recorded samples, bit-identical to the emitting run).
struct SweepDocument {
  std::string sweep;               ///< the emitting sweep's name
  std::vector<CellResult> cells;   ///< cells in file order
};

/// Parse a document produced by write_json (the checkpoint/resume reader).
/// Throws std::runtime_error on malformed JSON or a missing required
/// field; derived statistics columns are recomputed, not trusted. Every
/// error message leads with `source` — callers pass the artifact's
/// identity (e.g. "checkpoint '/path/to/file'") so failures name the file,
/// the cell and the field, in the flag-named strict-parse convention —
/// and decode failures inside a cell add its array position ("cells[3]").
SweepDocument read_json(std::istream& is,
                        const std::string& source = "sweep JSON");

/// read_json over an in-memory string (tests, diffing tools).
SweepDocument read_json_string(const std::string& text,
                               const std::string& source = "sweep JSON");

}  // namespace h3dfact::sweep
