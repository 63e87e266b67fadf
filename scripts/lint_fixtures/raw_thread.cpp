// Fixture: a raw thread spawn outside src/util/sync.hpp must trip the
// raw-thread rule; asking for the core count must not.
#include <thread>

unsigned spawn_one() {
  std::thread worker([] {});
  worker.join();
  return std::thread::hardware_concurrency();
}
