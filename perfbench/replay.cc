#include "replay.h"

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/conc/thread_sched.h"
#include "src/net/packet.h"
#include "stats.h"

namespace perfbench {

using namespace protego;

uint64_t NextRand(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t TaskSeed(uint64_t seed, int task_index) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(task_index + 1));
}

const char* SessionUser(Mix mix, SimMode mode) {
  switch (mix) {
    case Mix::kCompile: return "alice";
    case Mix::kWebServe: return mode == SimMode::kLinux ? "root" : "www-data";
    case Mix::kMail: return mode == SimMode::kLinux ? "root" : "exim";
    case Mix::kSetuidBurst: return "root";
  }
  return "root";
}

MixBed::MixBed(Mix mix, SimMode mode, int tasks, uint64_t seed) : mix_(mix), sys_(mode) {
  Kernel& k = sys_.kernel();
  root_ = &sys_.Login("root");
  ctxs_.resize(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    TaskCtx& c = ctxs_[static_cast<size_t>(t)];
    c.index = static_cast<uint32_t>(t);
    c.session = &sys_.Login(SessionUser(mix, mode));
    c.rng = TaskSeed(seed, t);
  }
  switch (mix) {
    case Mix::kCompile:
      (void)k.vfs().EnsureDirs("/usr/include");
      for (int i = 0; i < 6; ++i) {
        (void)k.WriteWholeFile(*root_, "/usr/include/hdr" + std::to_string(i) + ".h",
                               std::string(512, 'h'));
      }
      for (size_t t = 0; t < ctxs_.size(); ++t) {
        ctxs_[t].obj_path = "/tmp/wlobj" + std::to_string(t) + ".o";
      }
      break;
    case Mix::kWebServe:
      (void)k.vfs().EnsureDirs("/var/www");
      for (int i = 0; i < 4; ++i) {
        (void)k.WriteWholeFile(*root_, "/var/www/page" + std::to_string(i) + ".html",
                               std::string(1024, 'R'));
      }
      for (size_t t = 0; t < ctxs_.size(); ++t) {
        TaskCtx& c = ctxs_[t];
        c.srv_port = static_cast<uint16_t>(8000 + t);
        c.cli_port = static_cast<uint16_t>(18000 + t);
        c.churn_port = static_cast<uint16_t>(12000 + t);
        Task& s = *c.session;
        auto srv = k.SocketCall(s, kAfInet, kSockDgram, 0);
        if (srv.ok()) {
          c.srv_fd = srv.value();
          (void)k.BindCall(s, c.srv_fd, c.srv_port);
        }
        auto cli = k.SocketCall(s, kAfInet, kSockDgram, 0);
        if (cli.ok()) {
          c.cli_fd = cli.value();
          (void)k.BindCall(s, c.cli_fd, c.cli_port);
        }
      }
      break;
    case Mix::kMail:
      (void)k.vfs().EnsureDirs("/var/spool/wl");
      for (size_t t = 0; t < ctxs_.size(); ++t) {
        const std::string dir = "/var/spool/wl/q" + std::to_string(t);
        (void)k.vfs().EnsureDirs(dir);
        (void)k.Chmod(*root_, dir, 01777);
        ctxs_[t].spool_dir = dir;
        ctxs_[t].spool_tmp = dir + "/in.tmp";
        ctxs_[t].spool_final = dir + "/msg";
      }
      break;
    case Mix::kSetuidBurst:
      break;
  }
}

std::vector<std::string> MixBed::FixturePaths(size_t t) const {
  std::vector<std::string> paths;
  switch (mix_) {
    case Mix::kCompile:
      for (int i = 0; i < 6; ++i) {
        paths.push_back("/usr/include/hdr" + std::to_string(i) + ".h");
      }
      break;
    case Mix::kWebServe:
      for (int i = 0; i < 4; ++i) {
        paths.push_back("/var/www/page" + std::to_string(i) + ".html");
      }
      break;
    case Mix::kMail:
      paths.push_back(ctxs_[t].spool_dir);
      break;
    case Mix::kSetuidBurst:
      paths.push_back("/etc/passwd");
      break;
  }
  return paths;
}

namespace {

// Opens the unit's root span; Op() parents each syscall span under it.
void BeginUnit(TaskCtx& t) {
  t.unit_span = static_cast<int32_t>(t.spans.size());
  t.spans.push_back({"unit", NowNs(), 0, -1, t.index, t.units});
}

void EndUnit(TaskCtx& t) {
  t.spans[static_cast<size_t>(t.unit_span)].end_ns = NowNs();
  ++t.units;
}

// Times one Kernel syscall and books it like the workload engine does:
// every attempt is issued, every error is a failure.
template <typename F>
auto Timed(TaskCtx& t, const char* name, F&& call) {
  const uint64_t start = NowNs();
  auto r = call();
  t.spans.push_back({name, start, NowNs(), t.unit_span, t.index, t.units});
  ++t.issued;
  if (!r.ok()) {
    ++t.failed;
  }
  return r;
}

template <typename F>
void Op(TaskCtx& t, const char* name, F&& call) {
  (void)Timed(t, name, std::forward<F>(call));
}

// A failed open hands fd -1 to its dependent ops, as in the engine.
template <typename F>
int OpFd(TaskCtx& t, const char* name, F&& call) {
  const Result<int> r = Timed(t, name, std::forward<F>(call));
  return r.ok() ? r.value() : -1;
}

void CompileUnit(Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  for (int i = 0; i < 8; ++i) {
    const auto n = NextRand(t.rng) % 6;
    Op(t, "stat", [&] { return k.Stat(s, "/usr/include/hdr" + std::to_string(n) + ".h"); });
  }
  for (int i = 0; i < 2; ++i) {
    const auto n = NextRand(t.rng) % 6;
    int fd = OpFd(t, "open", [&] {
      return k.Open(s, "/usr/include/hdr" + std::to_string(n) + ".h", kORdOnly);
    });
    Op(t, "read", [&] { return k.Read(s, fd); });
    Op(t, "close", [&] { return k.Close(s, fd); });
  }
  s.stdout_buf.clear();
  Op(t, "spawn", [&] { return k.Spawn(s, "/bin/sh", {"sh", "-c", "cc"}, {}); });
  int ofd = OpFd(t, "open", [&] { return k.Open(s, t.obj_path, kOWrOnly | kOCreat, 0644); });
  Op(t, "write", [&] { return k.Write(s, ofd, "object-code"); });
  Op(t, "close", [&] { return k.Close(s, ofd); });
}

void WebServeUnit(Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  int churn = OpFd(t, "socket", [&] { return k.SocketCall(s, kAfInet, kSockDgram, 0); });
  Op(t, "bind", [&] { return k.BindCall(s, churn, t.churn_port); });
  Op(t, "close", [&] { return k.Close(s, churn); });

  const auto n = NextRand(t.rng) % 4;
  int fd = OpFd(t, "open", [&] {
    return k.Open(s, "/var/www/page" + std::to_string(n) + ".html", kORdOnly);
  });
  Op(t, "read", [&] { return k.Read(s, fd); });
  Op(t, "close", [&] { return k.Close(s, fd); });

  Packet request;
  request.l4_proto = kProtoUdp;
  request.dst_ip = kLocalhostIp;
  request.dst_port = t.srv_port;
  request.payload = "GET /page" + std::to_string(n) + ".html";
  Op(t, "sendto", [&] { return k.SendCall(s, t.cli_fd, request); });
  Op(t, "recvfrom", [&] { return k.RecvCall(s, t.srv_fd); });
  Packet reply;
  reply.l4_proto = kProtoUdp;
  reply.dst_ip = kLocalhostIp;
  reply.dst_port = t.cli_port;
  reply.payload = std::string(1024, 'R');
  Op(t, "sendto", [&] { return k.SendCall(s, t.srv_fd, reply); });
  Op(t, "recvfrom", [&] { return k.RecvCall(s, t.cli_fd); });
}

void MailUnit(Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  const Uid recipient = static_cast<Uid>(1000 + NextRand(t.rng) % 3);
  Op(t, "seteuid", [&] { return k.Seteuid(s, recipient); });
  int fd = OpFd(t, "open", [&] { return k.Open(s, t.spool_tmp, kOWrOnly | kOCreat, 0600); });
  Op(t, "write", [&] {
    return k.Write(s, fd, "Received: by protego-sim; benchmark message body\n");
  });
  Op(t, "close", [&] { return k.Close(s, fd); });
  Op(t, "rename", [&] { return k.Rename(s, t.spool_tmp, t.spool_final); });
  Op(t, "stat", [&] { return k.Stat(s, t.spool_final); });
  Op(t, "unlink", [&] { return k.Unlink(s, t.spool_final); });
  Op(t, "seteuid", [&] { return k.Seteuid(s, 0); });
}

void RunUnit(Mix mix, Kernel& k, TaskCtx& t) {
  BeginUnit(t);
  switch (mix) {
    case Mix::kCompile: CompileUnit(k, t); break;
    case Mix::kWebServe: WebServeUnit(k, t); break;
    case Mix::kMail: MailUnit(k, t); break;
    case Mix::kSetuidBurst: break;  // not replayed (the benchmark does not time it)
  }
  EndUnit(t);
}

// Sum of every sample of counter family `family` in a Prometheus export.
uint64_t CounterSum(std::string_view text, std::string_view family) {
  uint64_t sum = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
    }
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() > family.size() && line.substr(0, family.size()) == family &&
        (line[family.size()] == '{' || line[family.size()] == ' ')) {
      size_t sp = line.rfind(' ');
      sum += std::strtoull(std::string(line.substr(sp + 1)).c_str(), nullptr, 10);
    }
  }
  return sum;
}

}  // namespace

WorkCounts WorkCounts::FromPrometheus(std::string_view text) {
  WorkCounts c;
  c.gate_calls = CounterSum(text, "protego_syscall_calls_total");
  c.vfs_resolves = CounterSum(text, "protego_vfs_resolves_total");
  c.lsm_hooks = CounterSum(text, "protego_lsm_hook_invocations_total");
  c.cache_hits = CounterSum(text, "protego_lsm_decision_cache_hits_total");
  c.cache_misses = CounterSum(text, "protego_lsm_decision_cache_misses_total");
  c.cache_bypasses = CounterSum(text, "protego_lsm_decision_cache_bypasses_total");
  c.netfilter_evals = CounterSum(text, "protego_netfilter_evaluated_total");
  return c;
}

WorkCounts WorkCounts::operator-(const WorkCounts& o) const {
  WorkCounts d;
  d.gate_calls = gate_calls - o.gate_calls;
  d.vfs_resolves = vfs_resolves - o.vfs_resolves;
  d.lsm_hooks = lsm_hooks - o.lsm_hooks;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.cache_bypasses = cache_bypasses - o.cache_bypasses;
  d.netfilter_evals = netfilter_evals - o.netfilter_evals;
  return d;
}

ReplayReport RunTracedReplay(const workload::WorkloadSpec& spec, SimMode mode,
                             bool keep_spans) {
  const int tasks = spec.tasks > 0 ? spec.tasks : 1;
  const uint64_t per_unit = workload::OpsPerUnit(spec.mix);
  const uint64_t units_per_task =
      std::max<uint64_t>(1, spec.total_ops / (static_cast<uint64_t>(tasks) * per_unit));

  MixBed bed(spec.mix, mode, tasks, spec.seed);
  Kernel& k = bed.kernel();
  k.tracer().set_enabled(false);
  for (TaskCtx& c : bed.ctxs()) {
    c.spans.reserve(units_per_task * (per_unit + 1));
  }

  k.syscalls().ResetStats();
  const WorkCounts before = WorkCounts::FromPrometheus(k.metrics().PrometheusText());
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  {
    conc::ThreadScheduler sched;
    k.set_scheduler(&sched);
    t0 = NowNs();
    for (TaskCtx& c : bed.ctxs()) {
      TaskCtx* ctx = &c;
      Mix mix = spec.mix;
      sched.StartTask(c.session->pid, [ctx, mix, units_per_task, &k] {
        for (uint64_t u = 0; u < units_per_task; ++u) {
          RunUnit(mix, k, *ctx);
        }
      });
    }
    sched.Join();
    t1 = NowNs();
    k.set_scheduler(nullptr);
  }

  ReplayReport report;
  for (const TaskCtx& c : bed.ctxs()) {
    report.units += c.units;
    report.ops_issued += c.issued;
    report.ops_failed += c.failed;
  }
  report.wall_seconds = static_cast<double>(t1 - t0) / 1e9;
  if (report.wall_seconds > 0) {
    report.ops_per_sec = static_cast<double>(report.ops_issued) / report.wall_seconds;
  }
  for (Sysno nr : AllSysnos()) {
    report.profile.calls[static_cast<size_t>(nr)] =
        k.syscalls().stats(nr).calls.load(std::memory_order_relaxed);
  }
  for (int i = 0; i < 5; ++i) {
    const uint64_t s0 = NowNs();
    std::string text = k.metrics().PrometheusText();
    report.scrape_us.push_back(static_cast<double>(NowNs() - s0) / 1e3);
    if (i == 0) {
      report.counts = WorkCounts::FromPrometheus(text) - before;
    }
  }
  for (TaskCtx& c : bed.ctxs()) {
    for (const Span& sp : c.spans) {
      if (sp.parent >= 0) {
        report.syscall_ns.push_back(static_cast<double>(sp.end_ns - sp.start_ns));
      }
    }
    if (keep_spans) {
      report.spans.push_back(std::move(c.spans));
    }
  }
  return report;
}

bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "list\ttask\tunit\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t l = 0; l < spans.size(); ++l) {
    for (size_t i = 0; i < spans[l].size(); ++i) {
      const Span& s = spans[l][i];
      std::fprintf(f, "%zu\t%u\t%llu\t%zu\t%d\t%s\t%llu\t%llu\n", l, s.task,
                   (unsigned long long)s.unit, i, s.parent, s.name,
                   (unsigned long long)s.start_ns, (unsigned long long)s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
