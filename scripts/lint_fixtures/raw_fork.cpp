// Fixture: a process fork outside WorkerFleet's spawn must trip the
// raw-fork rule; forking a generator stream must not.
#include <unistd.h>

#include "util/rng.hpp"

int spawn_shard(h3dfact::util::Rng& rng) {
  h3dfact::util::Rng stream = rng.fork(7);
  (void)stream;
  return static_cast<int>(::fork());
}
