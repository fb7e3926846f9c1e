// Counts the heap allocations one thread makes: the test binary replaces
// the global operator new (alloc_tally.cc) with one that tallies them
// while the calling thread has counting on.

#ifndef TESTS_ALLOC_TALLY_H_
#define TESTS_ALLOC_TALLY_H_

#include <cstdint>

namespace protego {

struct AllocTally {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Starts counting the calling thread's allocations from zero.
void StartAllocTally();
// Stops counting and returns what the thread allocated since the start.
AllocTally StopAllocTally();

}  // namespace protego

#endif  // TESTS_ALLOC_TALLY_H_
