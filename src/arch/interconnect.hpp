#pragma once
// Tier-to-tier interconnect model (Sec. IV-B, Table I).
//
// TSVs (face-to-back) and hybrid bonds (face-to-face) carry the step I–IV
// signals of Fig. 3. Following the paper, connections exist only at each
// RRAM array's input rows and output columns: X WL + Y BL + Y/2 SL TSVs per
// X×Y array. TSV parasitics derate the system clock relative to a 2D design.

#include <cstddef>

namespace h3dfact::arch {

/// Table I: H3DFact interconnect specifications.
struct InterconnectSpec {
  double tsv_diameter_um = 2.0;
  double tsv_pitch_um = 4.0;
  double tsv_oxide_thickness_nm = 100.0;
  double tsv_height_um = 10.0;
  double hybrid_bond_pitch_um = 10.0;
  double hybrid_bond_thickness_um = 3.0;
};

/// The canonical Table I values.
InterconnectSpec table1_spec();

/// Per-array TSV counts and their electrical side effects (the keep-out
/// area they cost is ppa's calib::kTsvKeepoutUm2).
class TsvModel {
 public:
  explicit TsvModel(const InterconnectSpec& spec = table1_spec()) : spec_(spec) {}

  [[nodiscard]] const InterconnectSpec& spec() const { return spec_; }

  /// TSVs needed to connect one X×Y RRAM array to its tier-1 peripherals:
  /// X word lines + Y bit lines + Y/2 source lines (Sec. IV-B).
  [[nodiscard]] std::size_t tsvs_per_array(std::size_t rows, std::size_t cols) const {
    return rows + cols + cols / 2;
  }

  /// Capacitance of one TSV (fF), from the coaxial MOS-capacitor model over
  /// the oxide liner: C = 2πε_ox·h / ln(1 + 2t_ox/d).
  [[nodiscard]] double tsv_capacitance_fF() const;

  /// Hybrid bond capacitance (fF) — an order of magnitude below a TSV.
  [[nodiscard]] double hybrid_bond_capacitance_fF() const;

  /// Clock derating factor (<1) when every cross-tier signal drives one TSV
  /// plus one hybrid bond on top of a 2D critical-path wire load of
  /// `wire_load_fF` (driver + repeated wire, ~0.3 mm of routed metal).
  /// Reproduces the 200 → 185 MHz penalty of Table III.
  [[nodiscard]] double frequency_derate(double wire_load_fF = 290.0) const;

 private:
  InterconnectSpec spec_;
};

}  // namespace h3dfact::arch
