#include "src/conc/scheduler.h"

#include <algorithm>

#include "src/base/hash.h"

namespace protego::conc {

namespace {

// Identity of the managed unit running on this thread. The kernel passes a
// pid to OnSyscallEntry/WaitOn, but that pid can differ from the unit's own:
// a unit that performs a synchronous Spawn runs its grandchild's syscalls on
// the same OS thread. The thread, not the pid argument, is the schedulable
// entity.
thread_local DetScheduler* tls_scheduler = nullptr;
thread_local int tls_pid = 0;

}  // namespace

const char* SchedModeName(SchedMode mode) {
  switch (mode) {
    case SchedMode::kRoundRobin: return "round-robin";
    case SchedMode::kRandom: return "random";
    case SchedMode::kFixed: return "fixed";
  }
  return "?";
}

DetScheduler::DetScheduler(Tracer* tracer) : tracer_(tracer) {}

DetScheduler::~DetScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    for (auto& u : units_) {
      u->cv.notify_all();
    }
  }
  for (auto& u : units_) {
    if (u->thread.joinable()) {
      u->thread.join();
    }
  }
}

void DetScheduler::set_seed(uint64_t seed) {
  seed_ = seed;
  rng_state_ = seed;
}

std::vector<uint32_t> DetScheduler::executed_choices() const {
  std::vector<uint32_t> out;
  out.reserve(decisions_.size());
  for (const SchedDecision& d : decisions_) {
    out.push_back(d.chosen_index);
  }
  return out;
}

void DetScheduler::StartTask(int pid, std::function<void()> body) {
  std::lock_guard<std::mutex> lk(mu_);
  auto unit = std::make_unique<Unit>();
  unit->pid = pid;
  unit->body = std::move(body);
  Unit* u = unit.get();
  units_.push_back(std::move(unit));
  u->thread = std::thread([this, u] { ThreadMain(u); });
}

void DetScheduler::ThreadMain(Unit* unit) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    unit->cv.wait(lk, [&] { return unit->active || shutdown_; });
    if (!unit->active) {
      unit->finished = true;  // destroyed before ever being scheduled
      return;
    }
    TraceResume(*unit);
  }
  tls_scheduler = this;
  tls_pid = unit->pid;
  unit->body();
  tls_scheduler = nullptr;
  tls_pid = 0;

  std::unique_lock<std::mutex> lk(mu_);
  unit->finished = true;
  unit->active = false;
  FinishHandoff(unit);
}

DetScheduler::Unit* DetScheduler::ChooseNext(Unit* self, bool self_runnable) {
  int prev_pid = self != nullptr ? self->pid : current_pid_;
  // Candidates in registration order, remembering each one's registration
  // index for the round-robin walk.
  std::vector<std::pair<size_t, Unit*>> runnable;
  for (size_t i = 0; i < units_.size(); ++i) {
    Unit* u = units_[i].get();
    if (u->finished || u->waiting_on != 0) continue;
    if (u == self && !self_runnable) continue;
    runnable.emplace_back(i, u);
  }
  if (runnable.empty()) {
    return nullptr;
  }

  uint32_t chosen = 0;
  switch (mode_) {
    case SchedMode::kRoundRobin: {
      size_t start = 0;
      for (size_t i = 0; i < units_.size(); ++i) {
        if (units_[i]->pid == prev_pid) {
          start = i + 1;
          break;
        }
      }
      // First runnable unit at registration index >= start, wrapping.
      for (size_t j = 0; j < runnable.size(); ++j) {
        if (runnable[j].first >= start) {
          chosen = static_cast<uint32_t>(j);
          break;
        }
      }
      break;  // all below start: wrap to runnable[0]
    }
    case SchedMode::kRandom:
      // splitmix64: the same seed replays the same schedule on every
      // platform (raw modulo of this stream is portable; std distributions
      // are not).
      chosen = static_cast<uint32_t>(SplitMix64(rng_state_) % runnable.size());
      break;
    case SchedMode::kFixed: {
      if (next_choice_ < choices_.size()) {
        chosen = choices_[next_choice_] % static_cast<uint32_t>(runnable.size());
      } else {
        // Default continuation past the choice list: keep the previous unit
        // if still runnable, else lowest index. Adds no preemptions, which
        // keeps prefix enumeration sound under a preemption bound.
        for (size_t j = 0; j < runnable.size(); ++j) {
          if (runnable[j].second->pid == prev_pid) {
            chosen = static_cast<uint32_t>(j);
            break;
          }
        }
      }
      break;
    }
  }
  ++next_choice_;

  if (record_decisions_) {
    SchedDecision d;
    d.prev_pid = prev_pid;
    d.runnable.reserve(runnable.size());
    for (const auto& [idx, u] : runnable) {
      d.runnable.push_back(u->pid);
    }
    d.chosen_index = chosen;
    decisions_.push_back(std::move(d));
  }
  return runnable[chosen].second;
}

void DetScheduler::Activate(Unit* next, int from_pid) {
  ++steps_;
  next->resumed_step = steps_;
  next->resumed_from = from_pid;
  current_pid_ = next->pid;
  next->active = true;
  next->cv.notify_one();
}

void DetScheduler::TraceResume(const Unit& unit) {
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kContextSwitch)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kContextSwitch, unit.pid);
    ev->comm = SchedModeName(mode_);
    ev->a = unit.resumed_step;
    ev->code = unit.resumed_from;
  }
}

void DetScheduler::OnSyscallEntry(int /*pid*/, Sysno /*nr*/) {
  if (tls_scheduler != this) {
    return;  // syscall from an unmanaged thread (the driving test)
  }
  std::unique_lock<std::mutex> lk(mu_);
  Unit* self = nullptr;
  for (auto& u : units_) {
    if (u->pid == tls_pid) {
      self = u.get();
      break;
    }
  }
  if (self == nullptr || !self->active) {
    return;
  }
  // Entering a fresh syscall is forward progress: the unit is again a
  // candidate for deadlock-probe wake-ups.
  self->spurious = false;
  Unit* next = ChooseNext(self, /*self_runnable=*/true);
  if (next == nullptr || next == self) {
    return;  // decision recorded; token stays put
  }
  self->active = false;
  Activate(next, self->pid);
  self->cv.wait(lk, [&] { return self->active; });
  TraceResume(*self);
}

bool DetScheduler::WaitOn(int /*pid*/, uint64_t resource) {
  if (tls_scheduler != this) {
    // The driving thread blocked on a kernel resource: run every pending
    // unit to completion, then let the caller re-check its predicate.
    bool pending = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& u : units_) {
        if (!u->finished) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) {
      return false;
    }
    Run();
    return true;
  }

  std::unique_lock<std::mutex> lk(mu_);
  Unit* self = nullptr;
  for (auto& u : units_) {
    if (u->pid == tls_pid) {
      self = u.get();
      break;
    }
  }
  if (self == nullptr) {
    return false;
  }
  self->waiting_on = resource;
  Unit* next = ChooseNext(self, /*self_runnable=*/false);
  if (next == nullptr) {
    // No runnable unit. Probe-wake waiters that have not already been
    // probe-woken: they re-check their predicates and either proceed or
    // block again (now marked spurious, hence not re-wakeable — which is
    // what terminates the probe cascade in a true deadlock).
    bool woke = false;
    for (auto& u : units_) {
      if (u.get() != self && !u->finished && u->waiting_on != 0 && !u->spurious) {
        u->waiting_on = 0;
        u->spurious = true;
        woke = true;
      }
    }
    if (woke) {
      next = ChooseNext(self, /*self_runnable=*/false);
    }
    if (next == nullptr) {
      // Deadlock: blocking would hang the whole system. Refuse; the kernel
      // fails the syscall with EDEADLK.
      self->waiting_on = 0;
      return false;
    }
  }
  self->active = false;
  Activate(next, self->pid);
  self->cv.wait(lk, [&] { return self->active; });
  TraceResume(*self);
  return true;
}

void DetScheduler::Signal(uint64_t resource) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& u : units_) {
    if (!u->finished && u->waiting_on == resource) {
      u->waiting_on = 0;
      u->spurious = false;  // a real signal, not a deadlock probe
    }
  }
}

void DetScheduler::FinishHandoff(Unit* self) {
  Unit* next = ChooseNext(self, /*self_runnable=*/false);
  if (next == nullptr) {
    // Nothing runnable. Wake every remaining waiter (even spurious ones —
    // a finished unit released its locks and signaled its exit, so waiters
    // must re-check; those truly stuck fail with EDEADLK and terminate).
    bool woke = false;
    for (auto& u : units_) {
      if (!u->finished && u->waiting_on != 0) {
        u->waiting_on = 0;
        u->spurious = true;
        woke = true;
      }
    }
    if (woke) {
      next = ChooseNext(self, /*self_runnable=*/false);
    }
  }
  if (next != nullptr) {
    Activate(next, self->pid);
  } else {
    run_complete_ = true;
    main_cv_.notify_all();
  }
}

void DetScheduler::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  bool pending = false;
  for (auto& u : units_) {
    if (!u->finished) {
      pending = true;
      break;
    }
  }
  if (!pending) {
    return;
  }
  run_complete_ = false;
  current_pid_ = 0;
  Unit* first = ChooseNext(nullptr, false);
  if (first == nullptr) {
    // Only waiters remain (all blocked before Run was called): probe them.
    bool woke = false;
    for (auto& u : units_) {
      if (!u->finished && u->waiting_on != 0) {
        u->waiting_on = 0;
        u->spurious = true;
        woke = true;
      }
    }
    if (woke) {
      first = ChooseNext(nullptr, false);
    }
    if (first == nullptr) {
      return;
    }
  }
  Activate(first, 0);
  main_cv_.wait(lk, [&] { return run_complete_; });
}

}  // namespace protego::conc
