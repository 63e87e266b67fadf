#pragma once
// PPA calibration constants (Sec. IV-C / V-B).
//
// The paper estimates component sizes with the NeuroSim framework [31]
// cross-validated against the 40 nm RRAM macro [25], and extracts digital
// module areas from the TSMC standard-cell library. Neither tool is
// available here, so this header holds the equivalent per-component
// constants, documented with the Table III values they were fit against.
// The *structure* of the model (what scales with what) is physical; the
// absolute constants are calibration.

namespace h3dfact::ppa::calib {

// ---- RRAM array (40 nm) ----
/// 1T1R cell footprint ≈ 4F² at F = 40 nm (µm²).
inline constexpr double kRramCellUm2 = 0.0064;

/// High-voltage periphery per 256×256 array at 40 nm (mm²): programming
/// drivers, isolation switches, WL level shifters, bias + DCAP (Fig. 2a).
inline constexpr double kRramHvPeriphPerArrayMm2 = 0.0300;

/// Low-voltage periphery per array at 40 nm (mm²): decoders, column mux,
/// sense control. Scales with logic density when moved to 16 nm (H3D).
inline constexpr double kRramLvPeriphPerArrayMm2 = 0.0145;

/// Fraction of the HV periphery that must stay on the RRAM tier in the H3D
/// design (WL level shifters + isolation; the rest is shared in tier-1).
inline constexpr double kH3dHvRetainedFrac = 0.09;

// ---- ADC ----
/// 4-bit SAR ADC area at 16 nm (µm²); doubles per extra bit, scales with
/// node logic density. Fit to give the 1024-ADC budget of Table III.
inline constexpr double kAdc4bArea16nmUm2 = 16.0;

/// 4-bit SAR conversion energy at 16 nm (pJ).
inline constexpr double kAdc4bEnergy16nmPj = 0.05;

// ---- Digital logic ----
/// NAND2-equivalent gate area at 40 nm (µm²); /logic_density at other nodes.
inline constexpr double kGateArea40nmUm2 = 0.80;

/// Gate count of the shared digital block (XNOR unbinding array, −1's
/// counters / adder trees, controller) for the RRAM-based designs.
inline constexpr double kDigitalGatesRram = 70e3;

/// Gate count for the fully-digital SRAM-CIM design (adds the bit-serial
/// accumulator trees that the ADCs replace in the RRAM designs).
inline constexpr double kDigitalGatesSramCim = 350e3;

/// Dynamic energy per gate toggle at 40 nm (pJ).
inline constexpr double kGateEnergy40nmPj = 2.0e-4;

// ---- TSV / bonding ----
/// Silicon keep-out charged per TSV (µm²). The F2F interface (tier-3/tier-2)
/// uses hybrid bonds with no silicon keep-out; TSVs penetrate tier-2 only
/// (F2B to tier-1), so the keep-out lands on tier-2 (Sec. IV-C).
inline constexpr double kTsvKeepoutUm2 = 3.5;

// ---- Throughput calibration ----
// The MVM latency is the schedule's: arch::ScheduleTiming::mvm_pass_cycles().

/// Base clock of the 2D designs (Table III).
inline constexpr double kBaseClockMHz = 200.0;

// ---- Energy/efficiency calibration ----
/// Per-cell analog read energy (fJ) at the 0.2 V read voltage.
inline constexpr double kRramCellReadFj = 2.9;

/// SRAM-CIM per-bitcell compute-read energy (fJ) at 16 nm.
inline constexpr double kSramCimCellReadFj = 1.8;

/// System-level overhead multiplier on the component-sum energy (clock
/// tree, control, interconnect, margins). Fit to the Table III
/// 50.1 / 60.6 / 60.6 TOPS/W column.
inline constexpr double kSystemEnergyOverhead = 5.3;

}  // namespace h3dfact::ppa::calib
