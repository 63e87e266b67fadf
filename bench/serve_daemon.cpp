// serve_daemon: the factorization-as-a-service coordinator (docs/serving.md).
// Binds one TCP port, accepts ServeClients (bench/serve_load) and serve
// workers (`sweep_worker --serve=host:port`) on it, batches admitted
// requests and dispatches them to idle workers. Runs until a client sends
// Drain (everything in flight is flushed first) or SIGINT/SIGTERM.
//
// Flags (defaults in brackets):
//   --listen=[host:]port  listen address [127.0.0.1:0 = ephemeral]
//   --dim=D --factors=F --M=M   problem space served [1024, 3, 16]
//   --cap=N               per-request iteration cap [100]
//   --seed=N              codebook generation seed [1]
//   --max-batch=N         dispatch when N requests are queued [8]
//   --max-delay-us=N      ...or when the oldest has waited N us [2000]
//   --max-queue=N         admission bound; beyond it requests are
//                         rejected, not queued [1024]
//   --deadline-ms=N       drop a worker holding a batch longer than N ms
//                         and requeue the batch [10000; 0 = wait forever]
//   --artifact=PATH       warm-start: load-and-verify the codebooks from
//                         this H3DA artifact (bench/h3dfact_pack) instead
//                         of generating from --seed, and advertise the
//                         path + fingerprint to every worker [off]
//   --save-artifact=PATH  serialize the bound codebooks to PATH on startup
//                         (the pack step of the warm-start flow) [off]
//
// Prints "listening on port P" on stderr once bound, and the final
// ServeStats as one JSON object on stdout when the run ends.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "serve/serving.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

namespace {
serve::ServeCoordinator* g_coordinator = nullptr;

void on_signal(int) {
  if (g_coordinator != nullptr) g_coordinator->request_stop();
}
}  // namespace

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  serve::ServeConfig cfg;
  cfg.listen = cli.str("listen", "127.0.0.1:0");
  cfg.dim = static_cast<std::size_t>(cli.u64("dim", 1024));
  cfg.factors = static_cast<std::size_t>(cli.u64("factors", 3));
  cfg.codebook_size = static_cast<std::size_t>(cli.u64("M", 16));
  cfg.max_iterations = static_cast<std::size_t>(cli.u64("cap", 100));
  cfg.seed = cli.u64("seed", 1);
  cfg.max_batch = static_cast<std::size_t>(cli.u64("max-batch", 8));
  cfg.max_delay_us = cli.i64("max-delay-us", 2000);
  cfg.max_queue = static_cast<std::size_t>(cli.u64("max-queue", 1024));
  cfg.worker_deadline_ms = static_cast<int>(
      cli.u64("deadline-ms", 10000, std::numeric_limits<int>::max()));
  cfg.artifact = cli.str("artifact", "");
  cfg.save_artifact = cli.str("save-artifact", "");
  cli.reject_unread();

  serve::ServeCoordinator coordinator(std::move(cfg));
  g_coordinator = &coordinator;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr,
               "[serve_daemon] listening on port %u "
               "(D=%zu F=%zu M=%zu cap=%zu fingerprint=%016llx)\n",
               coordinator.listen_port(), coordinator.config().dim,
               coordinator.config().factors,
               coordinator.config().codebook_size,
               coordinator.config().max_iterations,
               static_cast<unsigned long long>(coordinator.fingerprint()));

  const serve::ServeStats stats = coordinator.run();
  g_coordinator = nullptr;

  std::printf(
      "{\"accepted\":%llu,\"completed\":%llu,\"rejected\":%llu,"
      "\"failed\":%llu,\"batches\":%llu,\"requeues\":%llu,"
      "\"workers_seen\":%llu,\"workers_dropped\":%llu,"
      "\"clients_seen\":%llu}\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.requeues),
      static_cast<unsigned long long>(stats.workers_seen),
      static_cast<unsigned long long>(stats.workers_dropped),
      static_cast<unsigned long long>(stats.clients_seen));
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
