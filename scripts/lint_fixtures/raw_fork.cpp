// Fixture: a process fork outside WorkerFleet's spawn must trip the
// raw-fork rule; a member function named fork that takes an argument must
// not.
#include <unistd.h>

struct Stream {
  Stream fork(int stream_id) const { return Stream{*this}; }
};

int spawn_shard(const Stream& parent) {
  const Stream child = parent.fork(7);
  (void)child;
  return static_cast<int>(::fork());
}
