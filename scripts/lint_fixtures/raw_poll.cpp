// Fixture: must trip [raw-poll]. A bare ::poll() outside the worker
// transport can block forever on a dead peer.
#include <poll.h>

int wait_forever(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, -1);  // unbounded wait — the exact bug the rule bans
}
