// Deterministic cooperative scheduler for interleaving exploration.
//
// Each simulated task registered via StartTask runs on its own OS thread,
// but the threads never run concurrently: a single hand-off token (one
// mutex + per-unit condition variables) serializes them, and the token only
// moves at explicit yield points — syscall entry (SyscallGate calls
// OnSyscallEntry), blocking (WaitOn), and task exit. Because every
// scheduling decision happens at a yield point and is chosen by a
// deterministic policy, a schedule is fully described by the sequence of
// choices taken, and any run can be replayed bit-for-bit from its mode +
// seed or from its recorded choice list. This is the CHESS/dBug
// stateless-model-checking architecture scaled down to the simulated
// kernel.
//
// Thread-safety: at most one thread executes simulated kernel/userland code
// at any instant; the mutex hand-off establishes happens-before between
// consecutive quanta, so the whole arrangement is ThreadSanitizer-clean
// without any locking inside the kernel itself.

#ifndef SRC_CONC_SCHEDULER_H_
#define SRC_CONC_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/tracepoint.h"
#include "src/kernel/sched_iface.h"

namespace protego::conc {

// How the scheduler picks the next unit at a decision point.
enum class SchedMode {
  kRoundRobin,  // cycle through runnable units in registration order
  kRandom,      // seeded splitmix64; same seed => identical schedule
  kFixed,       // follow an explicit choice list (replay / enumeration)
};

const char* SchedModeName(SchedMode mode);

// One scheduling decision: who was runnable, who was picked. The recorded
// sequence of decisions both replays a schedule (feed chosen_index values
// back as kFixed choices) and drives bounded-exhaustive enumeration (each
// decision with |runnable| > 1 is a branch point).
struct SchedDecision {
  std::vector<int> runnable;  // pids runnable at this point, registration order
  uint32_t chosen_index = 0;  // index into `runnable` that received the token
  int prev_pid = 0;           // token holder before this decision (0 = none)
};

class DetScheduler : public TaskScheduler {
 public:
  explicit DetScheduler(Tracer* tracer = nullptr);
  ~DetScheduler() override;

  DetScheduler(const DetScheduler&) = delete;
  DetScheduler& operator=(const DetScheduler&) = delete;

  void set_mode(SchedMode mode) { mode_ = mode; }
  SchedMode mode() const { return mode_; }
  void set_seed(uint64_t seed);
  uint64_t seed() const { return seed_; }
  // Choice list for kFixed. Decisions beyond the end of the list fall back
  // to the default continuation: keep the previous unit if it is still
  // runnable, else take the lowest-index runnable unit. The default adds no
  // preemptions, which keeps prefix-based enumeration sound under a
  // preemption bound.
  void set_choices(std::vector<uint32_t> choices) { choices_ = std::move(choices); }
  // Benchmarks disable decision recording to measure pure hand-off cost.
  void set_record_decisions(bool record) { record_decisions_ = record; }

  // --- TaskScheduler interface (called by the kernel) ---------------------

  // Registers a unit and spawns its (parked) thread. Callable before Run()
  // or from a running unit (SpawnAsync); the new unit becomes runnable at
  // the next decision point.
  void StartTask(int pid, std::function<void()> body) override;

  // Yield point: called at every syscall entry. No-op on unmanaged threads
  // (the driving test thread is not a unit).
  void OnSyscallEntry(int pid, Sysno nr) override;

  // Blocks the calling unit until `resource` is signaled. Returns false if
  // blocking would leave the system with no runnable unit and no waiter
  // that could still be woken — i.e. a deadlock; the kernel then fails the
  // syscall with EDEADLK instead of hanging. On an unmanaged thread, runs
  // all pending units to completion and returns true so the caller
  // re-checks its predicate.
  bool WaitOn(int pid, uint64_t resource) override;

  // Marks every unit waiting on `resource` runnable (no token transfer —
  // woken units run when next chosen).
  void Signal(uint64_t resource) override;

  // --- Driver --------------------------------------------------------------

  // Runs every registered unit to completion. Returns when no unit remains
  // runnable or waiting (waiters that can never be woken are released with
  // spurious wake-ups so their syscalls fail with EDEADLK).
  void Run();

  // Decisions recorded this run, in order.
  const std::vector<SchedDecision>& decisions() const { return decisions_; }
  // The choice actually taken at each decision (replay list for kFixed).
  std::vector<uint32_t> executed_choices() const;
  // Scheduling steps (token hand-offs) performed.
  uint64_t steps() const { return steps_; }

 private:
  struct Unit {
    int pid = 0;
    std::function<void()> body;
    std::thread thread;
    std::condition_variable cv;
    bool active = false;    // holds the token
    bool finished = false;
    uint64_t waiting_on = 0;  // nonzero = blocked on this resource
    // Woken without a real Signal (deadlock-release probe). A unit that
    // re-blocks while still marked spurious is not re-wakeable until a real
    // Signal or fresh syscall arrives — this breaks the wake/re-block
    // livelock between two mutually-deadlocked units.
    bool spurious = false;
    // The hand-off that last gave this unit the token (step, previous
    // holder), traced by the unit's own thread once it resumes.
    uint64_t resumed_step = 0;
    int resumed_from = 0;
  };

  void ThreadMain(Unit* unit);
  // Picks the next unit per policy among runnable units; records the
  // decision. `self_runnable` includes the caller in the candidate set.
  // Returns nullptr when nothing is runnable. Caller holds mu_.
  Unit* ChooseNext(Unit* self, bool self_runnable);
  // Hands the token to `next` (caller holds mu_; caller must then wait on
  // its own cv or return to the pool).
  void Activate(Unit* next, int from_pid);
  // Emits the kContextSwitch event for the hand-off that resumed `unit`.
  // Called on the unit's own thread (holding mu_) before it runs on, so the
  // event lands in the call it resumes: its innermost call frame.
  void TraceResume(const Unit& unit);
  // Called by a finishing unit (holding mu_): pass the token on, or wake
  // stuck waiters, or declare the run complete.
  void FinishHandoff(Unit* self);

  SchedMode mode_ = SchedMode::kRoundRobin;
  uint64_t seed_ = 1;
  uint64_t rng_state_ = 1;
  std::vector<uint32_t> choices_;
  bool record_decisions_ = true;
  Tracer* tracer_ = nullptr;

  std::mutex mu_;
  std::condition_variable main_cv_;
  bool run_complete_ = false;
  bool shutdown_ = false;
  std::vector<std::unique_ptr<Unit>> units_;  // registration order
  int current_pid_ = 0;  // token holder; 0 when the driver holds it
  std::vector<SchedDecision> decisions_;
  uint64_t steps_ = 0;
  size_t next_choice_ = 0;  // cursor into choices_ (kFixed)
};

}  // namespace protego::conc

#endif  // SRC_CONC_SCHEDULER_H_
