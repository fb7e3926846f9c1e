// Spreads every thread the benchmark process creates over the CPUs it may
// run on, round-robin, by wrapping pthread_create.
//
// The workload engine starts its task threads itself (conc::ThreadScheduler),
// so the benchmark cannot place them through an API. Where the kernel
// balances load this only fixes what it would do anyway; where it does not
// (a cpuset with sched_load_balance=0 leaves a new thread on its creator's
// CPU), "4 tasks in parallel" would otherwise run on one CPU in some runs and
// on four in others, and throughput would jump between the two.

#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <vector>

namespace {

using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);

// The CPUs this process may use, read once at startup.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  return cpus;
}

std::atomic<unsigned> next_cpu{0};

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  static const auto real = reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  const std::vector<int>& cpus = AllowedCpus();
  if (attr != nullptr || cpus.size() < 2) {
    return real(thread, attr, start, arg);
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next_cpu.fetch_add(1) % cpus.size()], &set);
  pthread_attr_t pinned;
  pthread_attr_init(&pinned);
  pthread_attr_setaffinity_np(&pinned, sizeof(set), &set);
  const int rc = real(thread, &pinned, start, arg);
  pthread_attr_destroy(&pinned);
  return rc;
}
