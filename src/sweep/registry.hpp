#pragma once
// Grid registry (the sweep subsystem's transport seam, part 0: naming).
//
// A SweepSpec holds closures — axis mutations, factories, finalize hooks —
// so it cannot cross a process boundary by value. What CAN cross is a
// *recipe*: a registered grid name plus the string parameters the builder
// consumes. The coordinator and every remote worker link the same builders
// (bench/grids registers all paper grids; tests register their own), so
// both sides resolve bit-identical specs from one GridRef, which
// spec_fingerprint() verifies at handshake time.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sweep/spec.hpp"

namespace h3dfact::sweep {

/// String parameters a grid builder consumes (CLI knobs, serialized as-is).
using GridParams = std::map<std::string, std::string>;

/// Builds a SweepSpec from its parameters. Must be a pure function of the
/// params — the same GridRef must resolve the same spec in every process.
using GridBuilder = std::function<SweepSpec(const GridParams&)>;

/// A serializable reference to a registered grid: everything a remote
/// worker needs to rebuild the coordinator's SweepSpec.
struct GridRef {
  std::string name;
  GridParams params;

  /// True when the ref names a grid (distributed execution is possible).
  [[nodiscard]] bool valid() const { return !name.empty(); }
};

/// Register `builder` under `name`. Re-registering a name replaces the
/// previous builder (idempotent registration helpers rely on this).
void register_grid(const std::string& name, GridBuilder builder);

/// Resolve `ref` through the registry. Throws std::out_of_range for an
/// unknown name and propagates whatever the builder throws on bad params.
[[nodiscard]] SweepSpec build_grid(const GridRef& ref);

/// Names of all registered grids, sorted (diagnostics, worker --list).
[[nodiscard]] std::vector<std::string> registered_grids();

// --- typed parameter accessors (shared by grid builders) --------------------

/// Integer parameter with a default when absent.
[[nodiscard]] std::int64_t param_i64(const GridParams& params,
                                     const std::string& key,
                                     std::int64_t def);
/// Unsigned integer parameter (a count or a seed) with a default when
/// absent; a negative value is refused, never wrapped.
[[nodiscard]] std::uint64_t param_u64(const GridParams& params,
                                      const std::string& key,
                                      std::uint64_t def);
/// Floating-point parameter with a default when absent.
[[nodiscard]] double param_f64(const GridParams& params,
                               const std::string& key, double def);
/// Boolean parameter ("0"/"false" are false, anything else true).
[[nodiscard]] bool param_flag(const GridParams& params, const std::string& key,
                              bool def = false);

}  // namespace h3dfact::sweep
