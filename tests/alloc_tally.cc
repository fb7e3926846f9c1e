#include "tests/alloc_tally.h"

#include <cstdlib>
#include <new>

namespace protego {
namespace {

thread_local bool t_counting = false;
thread_local AllocTally t_tally;

}  // namespace

void StartAllocTally() {
  t_tally = AllocTally{};
  t_counting = true;
}

AllocTally StopAllocTally() {
  t_counting = false;
  return t_tally;
}

}  // namespace protego

// The replaceable global allocation functions; the array, nothrow and
// sized forms the standard library derives from these.
void* operator new(std::size_t size) {
  if (protego::t_counting) {
    ++protego::t_tally.allocs;
    protego::t_tally.bytes += size;
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
