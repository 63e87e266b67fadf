#pragma once
// Umbrella header: the full public API of the H3DFact reproduction.
//
// Thirteen layers (bottom-up; each usable on its own):
//   util        — PRNG, statistics, tables, CLI
//   hdc         — bipolar hypervector algebra, codebooks, item memory
//   resonator   — baseline + stochastic resonator networks, channels, trials
//   sweep       — declarative experiment grids, sharded runner, emitters
//   serve       — request/reply factorization daemon on the sweep transport
//   io          — versioned H3DA artifacts: codebooks, item memories,
//                 sweep checkpoints; warm-start + mmap zero-copy loads
//   device      — RRAM / PCM / ADC / sense-path / SRAM behavioural models
//   cim         — crossbars, CIM macros, hardware-in-the-loop MVM engine
//   arch        — tiers, TSVs, designs, batch scheduler, full-chip facade
//   ppa         — area / energy / timing models, floorplans, Table III
//   thermal     — finite-volume steady-state stack solver (Fig. 5)
//   dse         — design-space search: accuracy × hardware design points,
//                 Pareto frontiers, successive halving
//   perception  — RAVEN scenes, neural-frontend surrogate, pipeline (Fig. 7)

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "hdc/codebook.hpp"
#include "hdc/encoding.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/vsa.hpp"

#include "resonator/batched.hpp"
#include "resonator/channels.hpp"
#include "resonator/limit_cycle.hpp"
#include "resonator/problem.hpp"
#include "resonator/profiler.hpp"
#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"

#include "sweep/emit.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

#include "serve/serving.hpp"

#include "io/artifact.hpp"
#include "io/codec.hpp"

#include "device/adc.hpp"
#include "device/pcm_cell.hpp"
#include "device/rram_cell.hpp"
#include "device/rram_chip_data.hpp"
#include "device/sense_path.hpp"
#include "device/sram.hpp"
#include "device/tech_node.hpp"

#include "cim/crossbar.hpp"
#include "cim/engine.hpp"
#include "cim/macro.hpp"

#include "arch/chip.hpp"
#include "arch/design.hpp"
#include "arch/interconnect.hpp"
#include "arch/scheduler.hpp"
#include "arch/tier.hpp"

#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/report.hpp"
#include "ppa/timing_model.hpp"

#include "thermal/grid.hpp"
#include "thermal/stack.hpp"

#include "dse/evaluate.hpp"
#include "dse/frontier.hpp"
#include "dse/halving.hpp"
#include "dse/pareto.hpp"
#include "dse/space.hpp"

#include "perception/frontend.hpp"
#include "perception/pipeline.hpp"
#include "perception/raven.hpp"
