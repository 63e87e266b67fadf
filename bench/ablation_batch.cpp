// Ablation: batch size vs the single-active-RRAM-tier constraint
// (DESIGN.md #3, Sec. IV-A "Tier-1 SRAM Digital Compute").
// Without SRAM buffering the tiers ping-pong per problem; with batching the
// level-shifter transitions amortize. Reports cycles/problem, transitions,
// and buffer occupancy across batch sizes, plus the buffer-capacity limit.

#include <iostream>
#include <string>

#include "arch/scheduler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t F = static_cast<std::size_t>(cli.u64("f", 4));
  const std::size_t M = static_cast<std::size_t>(cli.u64("m", 256));
  cli.reject_unread();

  auto design = arch::make_design(arch::DesignKind::kH3dThreeTier);

  util::Table t("Ablation -- batch size under the single-active-tier rule (F=" +
                std::to_string(F) + ", M=" + std::to_string(M) + ")");
  t.set_header({"batch", "cycles/problem", "tier transitions", "TSV bits/problem",
                "SRAM buffer occupancy"});
  for (std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 100u}) {
    arch::BatchScheduler sched(design, F, M);
    if (batch > sched.max_batch()) {
      t.add_row({util::Table::fmt_int(static_cast<long long>(batch)),
                 "-- exceeds tier-1 SRAM buffer --", "", "", ""});
      continue;
    }
    auto s = sched.run_iteration(batch);
    t.add_row({util::Table::fmt_int(static_cast<long long>(batch)),
               util::Table::fmt(static_cast<double>(s.cycles) / batch, 1),
               util::Table::fmt_int(static_cast<long long>(s.tier_transitions)),
               util::Table::fmt(static_cast<double>(s.tsv_bits) / batch, 0),
               util::Table::fmt_pct(s.peak_buffer_occupancy)});
  }
  arch::BatchScheduler cap_probe(design, F, M);
  t.add_note("Maximum batch for this problem size: " +
             std::to_string(cap_probe.max_batch()) +
             " (tier-1 buffer of " +
             std::to_string(design.dims.sram_buffer_kb) + " KB; paper uses "
             "batch-100 as the motivating example).");
  t.add_note("Transitions stay constant per iteration regardless of batch "
             "size, so cycles/problem fall as the batch grows.");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
