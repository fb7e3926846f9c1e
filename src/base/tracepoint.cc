#include "src/base/tracepoint.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/base/result.h"
#include "src/base/strings.h"

namespace protego {

thread_local bool Tracer::tls_muted_ = false;

const char* TracepointName(TracepointId tp) {
  switch (tp) {
    case TracepointId::kSyscall: return "syscall";
    case TracepointId::kLsmHook: return "lsm_hook";
    case TracepointId::kLsmDecision: return "lsm_decision";
    case TracepointId::kCapable: return "capable";
    case TracepointId::kVfsPermission: return "vfs_permission";
    case TracepointId::kVfsMount: return "vfs_mount";
    case TracepointId::kNetfilter: return "netfilter";
    case TracepointId::kCredChange: return "cred_change";
    case TracepointId::kContextSwitch: return "context_switch";
    case TracepointId::kFileLock: return "file_lock";
    case TracepointId::kFaultInject: return "fault_inject";
    case TracepointId::kCount: break;
  }
  return "?";
}

Tracer::Tracer(const Clock* clock, size_t capacity)
    : clock_(clock), capacity_(capacity) {
  static std::atomic<uint64_t> next_tracer_id{1};
  id_ = next_tracer_id.fetch_add(1, std::memory_order_relaxed);
  point_mask_.store((1u << kTracepointCount) - 1,
                    std::memory_order_relaxed);  // all points on at boot
  for (std::atomic<uint32_t>& rate : sample_rate_) {
    rate.store(1, std::memory_order_relaxed);  // sampling off at boot
  }
}

namespace {

// splitmix64 (same generator as the fault registry and the deterministic
// scheduler): tiny, platform-identical, and each call advances the state by
// a fixed gamma — the per-thread stream position IS the draw count.
uint64_t SampleMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Tracer::set_all_sample_rates(uint32_t rate) {
  for (std::atomic<uint32_t>& r : sample_rate_) {
    r.store(rate == 0 ? 1 : rate, std::memory_order_relaxed);
  }
  sample_gen_.fetch_add(1, std::memory_order_relaxed);
  BumpConfigGen();
}

bool Tracer::SampleKeep(TracepointId tp) {
  uint32_t rate = sample_rate_[static_cast<size_t>(tp)].load(std::memory_order_relaxed);
  if (rate <= 1) {
    return true;
  }
  Shard& shard = MyShard();
  uint64_t gen = sample_gen_.load(std::memory_order_relaxed);
  if (shard.sample_key != gen) {
    // Lazy (re)seed: every thread starts the identical stream from the
    // recorded seed, so replays line up per thread.
    shard.sample_state = sample_seed_.load(std::memory_order_relaxed);
    shard.sample_key = gen;
  }
  if (SampleMix64(&shard.sample_state) % rate == 0) {
    return true;
  }
  sampled_out_[static_cast<size_t>(tp)].fetch_add(1, std::memory_order_relaxed);
  return false;
}

uint64_t Tracer::total_sampled_out() const {
  uint64_t total = 0;
  for (const std::atomic<uint64_t>& n : sampled_out_) {
    total += n.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Tracer::BeginSpan(int pid) {
  std::lock_guard<std::mutex> lk(spans_mu_);
  std::vector<OpenSpan>& stack = open_spans_[pid];
  OpenSpan s;
  s.id = next_span_++;
  s.parent = stack.empty() ? 0 : stack.back().id;
  stack.push_back(s);
  return s.id;
}

void Tracer::EndSpan(int pid, uint64_t span) {
  std::lock_guard<std::mutex> lk(spans_mu_);
  auto it = open_spans_.find(pid);
  if (it == open_spans_.end()) {
    return;
  }
  std::vector<OpenSpan>& stack = it->second;
  if (!stack.empty() && stack.back().id == span) {
    stack.pop_back();
  }
  if (stack.empty()) {
    open_spans_.erase(it);  // reaped tasks leave no residue in the map
  }
}

uint64_t Tracer::current_span(int pid) const {
  std::lock_guard<std::mutex> lk(spans_mu_);
  auto it = open_spans_.find(pid);
  if (it == open_spans_.end() || it->second.empty()) {
    return 0;
  }
  return it->second.back().id;
}

Tracer::Shard& Tracer::MyShard() {
  struct TlCache {
    uint64_t tracer_id = 0;
    Shard* shard = nullptr;
  };
  thread_local TlCache cache;
  if (cache.tracer_id == id_) {
    return *cache.shard;
  }
  std::lock_guard<std::mutex> lk(shards_mu_);
  std::thread::id me = std::this_thread::get_id();
  for (const std::unique_ptr<Shard>& s : shards_) {
    if (s->owner == me) {
      cache = {id_, s.get()};
      return *s;
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  Shard& shard = *shards_.back();
  shard.owner = me;
  shard.ring.resize(capacity_);
  cache = {id_, &shard};
  return shard;
}

TraceEvent& Tracer::Emit(TracepointId tp, int pid) {
  uint64_t span = 0;
  uint64_t parent = 0;
  {
    std::lock_guard<std::mutex> lk(spans_mu_);
    auto it = open_spans_.find(pid);
    if (it != open_spans_.end() && !it->second.empty()) {
      span = it->second.back().id;
      parent = it->second.back().parent;
    }
  }
  Shard& shard = MyShard();
  uint64_t emitted = shard.emitted.load(std::memory_order_relaxed);
  TraceEvent& ev = shard.ring[emitted % capacity_];
  shard.emitted.store(emitted + 1, std::memory_order_relaxed);
  ev.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  ev.tick = clock_->Now();
  ev.span = span;
  ev.parent = parent;
  ev.tp = tp;
  ev.pid = pid;
  ev.code = 0;
  ev.flags = 0;
  ev.a = 0;
  ev.dur = 0;
  ev.sname = "";
  ev.sdetail = "";
  ev.svalue = "";
  ev.comm.clear();
  ev.detail.clear();
  return ev;
}

TraceEvent& Tracer::EmitSpanRoot(TracepointId tp, int pid, uint64_t span) {
  TraceEvent& ev = Emit(tp, pid);
  ev.span = span;
  ev.parent = 0;
  // The span is normally still open (roots are emitted at syscall exit,
  // just before EndSpan), so its parent is on `pid`'s open stack.
  std::lock_guard<std::mutex> lk(spans_mu_);
  auto sit = open_spans_.find(pid);
  if (sit != open_spans_.end()) {
    const std::vector<OpenSpan>& stack = sit->second;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->id == span) {
        ev.parent = it->parent;
        break;
      }
    }
  }
  return ev;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lk(shards_mu_);
    for (const std::unique_ptr<Shard>& shard : shards_) {
      uint64_t emitted = shard->emitted.load(std::memory_order_relaxed);
      uint64_t count = std::min<uint64_t>(emitted, capacity_);
      for (uint64_t s = emitted - count; s < emitted; ++s) {
        out.push_back(shard->ring[s % capacity_]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  // Crop the merged view to the newest `capacity_` events so the single-
  // shard case behaves exactly like the historical single ring.
  uint64_t total = seq_.load(std::memory_order_relaxed);
  if (total > capacity_) {
    uint64_t first = total - capacity_;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [first](const TraceEvent& ev) { return ev.seq < first; }),
              out.end());
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (TraceEvent& ev : shard->ring) {
      ev = TraceEvent{};
    }
    shard->emitted.store(0, std::memory_order_relaxed);
  }
  seq_.store(0, std::memory_order_relaxed);
  // next_span_ is NOT reset: spans may still be open (the very write(2)
  // performing the clear), and stale ids must never be reissued.
}

namespace {

std::string RenderEvent(const TraceEvent& ev, bool orphan) {
  std::string line;
  switch (ev.tp) {
    case TracepointId::kSyscall: {
      std::string result = ev.code == 0
                               ? "0"
                               : StrFormat("-1 %s", ErrnoName(static_cast<Errno>(ev.code)));
      if (ev.flags & kTraceFlagSeccompDenied) {
        result += " (seccomp)";
      }
      line = StrFormat("%llu t=%llu span=%llu pid=%d %s %s(%s) = %s dur_ns=%llu",
                       (unsigned long long)ev.seq, (unsigned long long)ev.tick,
                       (unsigned long long)ev.span, ev.pid, ev.comm.c_str(), ev.sname,
                       ev.detail.c_str(), result.c_str(), (unsigned long long)ev.dur);
      break;
    }
    case TracepointId::kLsmHook:
      line = StrFormat("%llu lsm:%s module=%s -> %s", (unsigned long long)ev.seq,
                       ev.sname, ev.sdetail, ev.svalue);
      break;
    case TracepointId::kLsmDecision:
      line = StrFormat("%llu lsm:%s verdict=%s", (unsigned long long)ev.seq, ev.sname,
                       ev.svalue);
      break;
    case TracepointId::kCapable:
      line = StrFormat("%llu capable %s -> %s", (unsigned long long)ev.seq, ev.sname,
                       ev.code != 0 ? "granted" : "denied");
      break;
    case TracepointId::kVfsPermission:
      line = StrFormat("%llu vfs:inode_permission \"%s\" may=0x%llx -> %s",
                       (unsigned long long)ev.seq, ev.detail.c_str(),
                       (unsigned long long)ev.a,
                       ev.code == 0 ? "ok" : ErrnoName(static_cast<Errno>(ev.code)));
      break;
    case TracepointId::kVfsMount:
      line = StrFormat("%llu vfs:%s %s", (unsigned long long)ev.seq, ev.sname,
                       ev.detail.c_str());
      break;
    case TracepointId::kNetfilter:
      line = StrFormat("%llu netfilter chain=%s -> %s", (unsigned long long)ev.seq,
                       ev.sname, ev.sdetail);
      if (!ev.detail.empty()) {
        line += StrFormat(" rule=\"%s\"", ev.detail.c_str());
      }
      break;
    case TracepointId::kCredChange:
      line = StrFormat("%llu cred:%s pid=%d %s", (unsigned long long)ev.seq, ev.sname,
                       ev.pid, ev.detail.c_str());
      break;
    case TracepointId::kContextSwitch:
      // a = schedule step index, code = pid the token came from (0 at start).
      line = StrFormat("%llu sched:switch step=%llu pid=%d->%d %s",
                       (unsigned long long)ev.seq, (unsigned long long)ev.a, ev.code,
                       ev.pid, ev.comm.c_str());
      break;
    case TracepointId::kFileLock:
      // a = inode number, sname = operation, svalue = outcome.
      line = StrFormat("%llu flock:%s \"%s\" ino=%llu -> %s", (unsigned long long)ev.seq,
                       ev.sname, ev.detail.c_str(), (unsigned long long)ev.a, ev.svalue);
      break;
    case TracepointId::kFaultInject:
      // sname = site name, sdetail = injected errno name, a = injection count.
      line = StrFormat("%llu fault:%s inject=%s hit=%llu", (unsigned long long)ev.seq,
                       ev.sname, ev.sdetail, (unsigned long long)ev.a);
      if (!ev.detail.empty()) {
        line += StrFormat(" %s", ev.detail.c_str());
      }
      break;
    case TracepointId::kCount:
      break;
  }
  if (orphan) {
    line += StrFormat(" [orphan span=%llu]", (unsigned long long)ev.span);
  }
  return line;
}

}  // namespace

std::string Tracer::Format() const {
  std::vector<TraceEvent> events = Snapshot();

  // Spans whose root (kSyscall) event is still retained.
  std::unordered_set<uint64_t> rooted;
  for (const TraceEvent& ev : events) {
    if (ev.tp == TracepointId::kSyscall && ev.span != 0) {
      rooted.insert(ev.span);
    }
  }
  // Children of a span: its non-root events, plus nested span roots.
  std::unordered_map<uint64_t, std::vector<size_t>> kids;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    uint64_t under = ev.tp == TracepointId::kSyscall ? ev.parent : ev.span;
    if (under != 0 && rooted.count(under) != 0) {
      kids[under].push_back(i);
    }
  }

  const TraceFilter& f = read_filter_;
  std::string out;
  auto indent = [&out](int depth) { out.append(static_cast<size_t>(depth) * 2, ' '); };

  // Render `idx` and, if it is a span root, its subtree.
  auto render = [&](auto&& self, size_t idx, int depth) -> void {
    const TraceEvent& ev = events[idx];
    bool orphan = ev.tp != TracepointId::kSyscall && ev.span != 0 &&
                  rooted.count(ev.span) == 0;
    indent(depth);
    out += RenderEvent(ev, orphan);
    out += "\n";
    if (ev.tp == TracepointId::kSyscall) {
      auto it = kids.find(ev.span);
      if (it != kids.end()) {
        for (size_t child : it->second) {
          self(self, child, depth + 1);
        }
      }
    }
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    bool is_root = ev.tp == TracepointId::kSyscall &&
                   (ev.parent == 0 || rooted.count(ev.parent) == 0);
    bool is_standalone = ev.tp != TracepointId::kSyscall &&
                         (ev.span == 0 || rooted.count(ev.span) == 0);
    if (!is_root && !is_standalone) {
      continue;  // rendered under its span root
    }
    if (f.pid >= 0 && ev.pid != f.pid) {
      continue;
    }
    if (!f.syscall.empty() && (ev.tp != TracepointId::kSyscall || f.syscall != ev.sname)) {
      continue;
    }
    if (f.span != 0 && ev.span != f.span) {
      continue;
    }
    // The `since` cursor applies to top-level entries only: a root that
    // completed at/after the cursor renders its FULL subtree (its children
    // predate the root's seq by construction — trees would otherwise be
    // torn across polls).
    if (f.since != 0 && ev.seq < f.since) {
      continue;
    }
    render(render, i, 0);
  }
  if (dropped() > 0) {
    out += StrFormat("# dropped: %llu\n", (unsigned long long)dropped());
  }
  if (f.active()) {
    out += StrFormat("# filter: pid=%d syscall=%s span=%llu since=%llu\n", f.pid,
                     f.syscall.empty() ? "*" : f.syscall.c_str(),
                     (unsigned long long)f.span, (unsigned long long)f.since);
  }
  if (f.since != 0) {
    // The cursor a poller writes back (as ?since=N) to fetch only what
    // lands after this read.
    out += StrFormat("# next: %llu\n", (unsigned long long)seq());
  }
  return out;
}

}  // namespace protego
