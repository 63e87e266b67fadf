// sweep_worker: a remote trial-block worker for the distributed sweep
// runner. It links the same registered grid builders as the grid benches
// (bench/grids), so a coordinator only has to send a grid name + parameters
// and this process rebuilds the identical SweepSpec, proves it with the
// spec fingerprint, and then executes chunk-aligned trial-block Task frames
// until the coordinator shuts the connection down.
//
// Modes (exactly one):
//   --connect=host:port   dial a coordinator running a grid bench with
//                         --listen=port (retries while the coordinator is
//                         still starting: --retries=N, --retry-ms=M)
//   --listen=[host:]port  wait for a coordinator to dial in
//                         (bench --workers=host:port,...), serve one
//                         coordinator, then exit
//   --stdio               speak the framed protocol on stdin/stdout; this
//                         is the ssh transport ("ssh host sweep_worker
//                         --stdio" spawned by bench --worker-cmd=...)
//   --serve=host:port     dial a factorization serving daemon
//                         (bench/serve_daemon) and solve request batches
//                         instead of sweep trial blocks (docs/serving.md)
//
// Common flags:
//   --cell-threads=N      override the coordinator-requested per-cell
//                         thread count (0 = accept the request)
//   --artifact=PATH       (--serve mode) warm-start from this local H3DA
//                         artifact instead of the path the coordinator
//                         advertises — for hosts where that path does not
//                         resolve; falls back to the seed rebuild when the
//                         file is missing or fails verification
//   --list                print the registered grid names and exit
//
// Determinism: per-cell seeds derive from (master seed, cell index) and
// block merges are partition-invariant, so WHICH worker computes a block
// never changes the statistics — byte-identical JSON against --shards=1.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <unistd.h>

#include "dse/space.hpp"
#include "grids/grids.hpp"
#include "serve/serving.hpp"
#include "sweep/transport.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  dse::register_design_spaces();

  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  const bool list = cli.flag("list");
  const auto cell_threads = static_cast<unsigned>(
      cli.u64("cell-threads", 0, std::numeric_limits<unsigned>::max()));
  const std::string connect = cli.str("connect", "");
  const std::string listen = cli.str("listen", "");
  const std::string serve = cli.str("serve", "");
  const bool stdio = cli.flag("stdio");
  const int retries = static_cast<int>(cli.u64("retries", 120, kIntMax));
  const int retry_ms = static_cast<int>(cli.u64("retry-ms", 250, kIntMax));
  const std::string artifact = cli.str("artifact", "");
  const int timeout_ms =
      static_cast<int>(cli.u64("accept-timeout-ms", 600000, kIntMax));
  cli.reject_unread();

  if (list) {
    for (const std::string& name : sweep::registered_grids()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const int modes = (connect.empty() ? 0 : 1) + (listen.empty() ? 0 : 1) +
                    (serve.empty() ? 0 : 1) + (stdio ? 1 : 0);
  if (modes != 1) {
    std::fprintf(stderr,
                 "usage: sweep_worker (--connect=host:port | "
                 "--listen=[host:]port | --stdio | --serve=host:port) "
                 "[--cell-threads=N] [--retries=N] [--retry-ms=M] [--list]\n");
    return 64;
  }

  if (!serve.empty()) {
    const int fd = sweep::tcp_connect(serve, retries, retry_ms);
    std::fprintf(stderr, "[sweep_worker] serving batches from %s\n",
                 serve.c_str());
    return serve::serve_factor_worker(fd, fd, artifact);
  }
  if (stdio) {
    return sweep::serve_remote_worker(STDIN_FILENO, STDOUT_FILENO,
                                      cell_threads);
  }
  if (!connect.empty()) {
    const int fd = sweep::tcp_connect(connect, retries, retry_ms);
    std::fprintf(stderr, "[sweep_worker] connected to %s\n",
                 connect.c_str());
    return sweep::serve_remote_worker(fd, fd, cell_threads);
  }
  // --listen: accept one coordinator, serve it, exit.
  const int listen_fd = sweep::tcp_listen(listen);
  std::fprintf(stderr, "[sweep_worker] listening on port %u\n",
               sweep::tcp_local_port(listen_fd));
  const int fd = sweep::tcp_accept(listen_fd, timeout_ms);
  if (fd < 0) {
    std::fprintf(stderr, "[sweep_worker] no coordinator connected\n");
    return 1;
  }
  return sweep::serve_remote_worker(fd, fd, cell_threads);
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
