#include "src/workload/workload.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/hash.h"
#include "src/conc/scheduler.h"
#include "src/conc/thread_sched.h"
#include "src/net/packet.h"

namespace protego::workload {
namespace {

// Each task owns a private splitmix64 stream seeded from (spec.seed, task
// index), so parameter draws are independent of scheduling order.
uint64_t TaskSeed(uint64_t seed, int task_index) {
  return seed ^ (kSplitMix64Gamma * static_cast<uint64_t>(task_index + 1));
}

// All state one driving task owns: its session, its parameter stream, its
// private resources (ports, spool dir, object file), and its op ledger.
struct TaskCtx {
  Task* session = nullptr;
  uint64_t rng = 0;
  Uid home_euid = 0;
  // kWebServe: persistent server/client sockets, set up untimed.
  int srv_fd = -1;
  int cli_fd = -1;
  uint16_t srv_port = 0;
  uint16_t cli_port = 0;
  uint16_t churn_port = 0;
  // kMail: task-private 1777 spool directory.
  std::string spool_tmp;
  std::string spool_final;
  // kCompile: task-private object file.
  std::string obj_path;

  uint64_t units = 0;
  uint64_t issued = 0;
  uint64_t failed = 0;

  template <typename T>
  void Count(const Result<T>& r) {
    ++issued;
    if (!r.ok()) {
      ++failed;
    }
  }
  void CountOk(bool ok) {
    ++issued;
    if (!ok) {
      ++failed;
    }
  }
  // Open variant: a failed open still hands -1 to the dependent ops so the
  // unit's op count never depends on outcomes.
  int CountFd(const Result<int>& r) {
    ++issued;
    if (!r.ok()) {
      ++failed;
      return -1;
    }
    return r.value();
  }
};

const char* SessionUser(Mix mix, SimMode sim_mode) {
  switch (mix) {
    case Mix::kCompile:
      return "alice";
    case Mix::kWebServe:
      // The paper's web story: httpd runs as root on stock Linux (it must
      // bind privileged ports), directly as www-data under Protego.
      return sim_mode == SimMode::kLinux ? "root" : "www-data";
    case Mix::kMail:
      // Likewise exim: root on stock Linux, the deprivileged exim user
      // under Protego.
      return sim_mode == SimMode::kLinux ? "root" : "exim";
    case Mix::kSetuidBurst:
      return "root";
  }
  return "root";
}

// --- Unit bodies (exactly OpsPerUnit syscall attempts each) -----------------

// make(1): stat the include closure, read a couple of headers, run the
// compiler driver, write the object file. 18 ops.
void CompileUnit(SimSystem& sys, Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  for (int i = 0; i < 8; ++i) {
    const auto n = SplitMix64(t.rng) % 6;
    t.Count(k.Stat(s, "/usr/include/hdr" + std::to_string(n) + ".h"));
  }
  for (int i = 0; i < 2; ++i) {
    const auto n = SplitMix64(t.rng) % 6;
    int fd = t.CountFd(k.Open(s, "/usr/include/hdr" + std::to_string(n) + ".h", kORdOnly));
    t.Count(k.Read(s, fd));
    t.Count(k.Close(s, fd));
  }
  s.stdout_buf.clear();  // bound the session buffer across thousands of units
  t.Count(k.Spawn(s, "/bin/sh", {"sh", "-c", "cc"}, {}));
  int ofd = t.CountFd(k.Open(s, t.obj_path, kOWrOnly | kOCreat, 0644));
  t.Count(k.Write(s, ofd, "object-code"));
  t.Count(k.Close(s, ofd));
  (void)sys;
}

// Static file serving: bind/close churn on a task-private port, a page
// open/read/close, and a request/response datagram exchange between the
// task's persistent client and server sockets. 10 ops.
void WebServeUnit(SimSystem& sys, Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  int churn = t.CountFd(k.SocketCall(s, kAfInet, kSockDgram, 0));
  t.Count(k.BindCall(s, churn, t.churn_port));
  t.Count(k.Close(s, churn));

  const auto n = SplitMix64(t.rng) % 4;
  int fd = t.CountFd(k.Open(s, "/var/www/page" + std::to_string(n) + ".html", kORdOnly));
  t.Count(k.Read(s, fd));
  t.Count(k.Close(s, fd));

  Packet request;
  request.l4_proto = kProtoUdp;
  request.dst_ip = kLocalhostIp;
  request.dst_port = t.srv_port;
  request.payload = "GET /page" + std::to_string(n) + ".html";
  t.Count(k.SendCall(s, t.cli_fd, request));
  t.Count(k.RecvCall(s, t.srv_fd));
  Packet reply;
  reply.l4_proto = kProtoUdp;
  reply.dst_ip = kLocalhostIp;
  reply.dst_port = t.cli_port;  // known a priori: the reply path never
                                // depends on what recv returned
  reply.payload = std::string(1024, 'R');
  t.Count(k.SendCall(s, t.srv_fd, reply));
  t.Count(k.RecvCall(s, t.cli_fd));
  (void)sys;
}

// MTA spool delivery: become the recipient, write the spool tmp file,
// rename into place, stat, unlink, switch back. Under Protego the session
// is the unprivileged exim user, so both seteuid attempts fail EPERM —
// exactly the transition the paper obviates — and count as failed ops.
// 8 ops.
void MailUnit(SimSystem& sys, Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  const Uid recipient = static_cast<Uid>(1000 + SplitMix64(t.rng) % 3);
  t.Count(k.Seteuid(s, recipient));
  int fd = t.CountFd(k.Open(s, t.spool_tmp, kOWrOnly | kOCreat, 0600));
  t.Count(k.Write(s, fd, "Received: by protego-sim; benchmark message body\n"));
  t.Count(k.Close(s, fd));
  t.Count(k.Rename(s, t.spool_tmp, t.spool_final));
  t.Count(k.Stat(s, t.spool_final));
  t.Count(k.Unlink(s, t.spool_final));
  // Return to the MTA's privileged identity. On stock Linux the session IS
  // root, so this restores euid 0 for the next delivery; under Protego the
  // regain-root transition is the second obviated seteuid and fails EPERM.
  t.Count(k.Seteuid(s, 0));
  (void)sys;
}

// Tight credential-transition microburst: seteuid toggles interleaved with
// the cheapest syscalls, pricing the cred-change path itself. 6 ops.
void SetuidBurstUnit(SimSystem& sys, Kernel& k, TaskCtx& t) {
  Task& s = *t.session;
  const Uid target = static_cast<Uid>(1000 + SplitMix64(t.rng) % 3);
  t.Count(k.Seteuid(s, target));
  t.CountOk(k.GetPid(s) >= 0);
  t.Count(k.Stat(s, "/etc/passwd"));
  t.Count(k.Seteuid(s, t.home_euid));
  t.CountOk(k.GetPid(s) >= 0);
  t.Count(k.Stat(s, "/etc/passwd"));
  (void)sys;
}

void RunUnit(Mix mix, SimSystem& sys, Kernel& k, TaskCtx& t) {
  switch (mix) {
    case Mix::kCompile: CompileUnit(sys, k, t); break;
    case Mix::kWebServe: WebServeUnit(sys, k, t); break;
    case Mix::kMail: MailUnit(sys, k, t); break;
    case Mix::kSetuidBurst: SetuidBurstUnit(sys, k, t); break;
  }
  ++t.units;
}

// Untimed provisioning: fixtures the units read (headers, pages), the
// task-private resources they own (spool dirs, sockets), and the sessions
// themselves. Everything here is excluded from the measured region.
void SetupFixtures(SimSystem& sys, Kernel& k, Mix mix, Task& root,
                   std::vector<TaskCtx>& ctxs) {
  switch (mix) {
    case Mix::kCompile:
      (void)k.vfs().EnsureDirs("/usr/include");
      for (int i = 0; i < 6; ++i) {
        (void)k.WriteWholeFile(root, "/usr/include/hdr" + std::to_string(i) + ".h",
                               std::string(512, 'h'));
      }
      for (size_t t = 0; t < ctxs.size(); ++t) {
        ctxs[t].obj_path = "/tmp/wlobj" + std::to_string(t) + ".o";
      }
      break;
    case Mix::kWebServe: {
      (void)k.vfs().EnsureDirs("/var/www");
      for (int i = 0; i < 4; ++i) {
        (void)k.WriteWholeFile(root, "/var/www/page" + std::to_string(i) + ".html",
                               std::string(1024, 'R'));
      }
      for (size_t t = 0; t < ctxs.size(); ++t) {
        TaskCtx& c = ctxs[t];
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
    }
    case Mix::kMail: {
      (void)k.vfs().EnsureDirs("/var/spool/wl");
      for (size_t t = 0; t < ctxs.size(); ++t) {
        const std::string dir = "/var/spool/wl/q" + std::to_string(t);
        (void)k.vfs().EnsureDirs(dir);
        (void)k.Chmod(root, dir, 01777);
        ctxs[t].spool_tmp = dir + "/in.tmp";
        ctxs[t].spool_final = dir + "/msg";
      }
      break;
    }
    case Mix::kSetuidBurst:
      break;
  }
  (void)sys;
}

}  // namespace

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kCompile: return "compile";
    case Mix::kWebServe: return "web-serve";
    case Mix::kMail: return "mail";
    case Mix::kSetuidBurst: return "setuid-burst";
  }
  return "?";
}

std::optional<Mix> MixFromName(std::string_view name) {
  for (int i = 0; i < kMixCount; ++i) {
    Mix mix = static_cast<Mix>(i);
    if (name == MixName(mix)) {
      return mix;
    }
  }
  return std::nullopt;
}

uint64_t OpsPerUnit(Mix mix) {
  switch (mix) {
    case Mix::kCompile: return 18;
    case Mix::kWebServe: return 10;
    case Mix::kMail: return 8;
    case Mix::kSetuidBurst: return 6;
  }
  return 0;
}

uint64_t SyscallProfile::total() const {
  uint64_t sum = 0;
  for (uint64_t c : calls) {
    sum += c;
  }
  return sum;
}

MixReport RunWorkload(const WorkloadSpec& spec, SimMode sim_mode) {
  SimSystem sys(sim_mode);
  Kernel& k = sys.kernel();
  // The engine measures the syscall machinery, not trace-string formatting;
  // perfbench's --trace 1 run prices the tracer separately.
  // With spec.trace the tracer instead runs live under head sampling seeded
  // from the workload seed, so the sampled event stream replays exactly.
  if (spec.trace) {
    k.tracer().set_sample_seed(spec.seed);
    k.tracer().set_all_sample_rates(spec.sample_rate);
  } else {
    k.tracer().set_enabled(false);
  }
  if (spec.profile) {
    k.syscalls().SetAllSyscallsTimed(true);  // attribution follows the timed set
  }

  const int tasks = spec.tasks > 0 ? spec.tasks : 1;
  const uint64_t per_unit = OpsPerUnit(spec.mix);
  const uint64_t units_per_task =
      std::max<uint64_t>(1, spec.total_ops / (static_cast<uint64_t>(tasks) * per_unit));

  Task& root = sys.Login("root");
  std::vector<TaskCtx> ctxs(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    TaskCtx& c = ctxs[static_cast<size_t>(t)];
    c.session = &sys.Login(SessionUser(spec.mix, sim_mode));
    c.home_euid = c.session->cred.euid;
    c.rng = TaskSeed(spec.seed, t);
  }
  SetupFixtures(sys, k, spec.mix, root, ctxs);

  auto body = [&](int t) {
    TaskCtx& c = ctxs[static_cast<size_t>(t)];
    for (uint64_t u = 0; u < units_per_task; ++u) {
      RunUnit(spec.mix, sys, k, c);
    }
  };

  // Only the unit-driving region is timed and profiled: boot, logins, and
  // fixture provisioning stay outside both the clock and the gate counters.
  k.syscalls().ResetStats();
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  if (spec.exec_mode == ExecMode::kParallel) {
    conc::ThreadScheduler sched;
    k.set_scheduler(&sched);
    t0 = MonotonicNanos();
    for (int t = 0; t < tasks; ++t) {
      sched.StartTask(ctxs[static_cast<size_t>(t)].session->pid, [&body, t] { body(t); });
    }
    sched.Join();
    t1 = MonotonicNanos();
    k.set_scheduler(nullptr);
  } else {
    conc::DetScheduler sched;
    sched.set_mode(conc::SchedMode::kRandom);
    sched.set_seed(spec.seed);
    // Millions of ops: recording one SchedDecision per yield would dwarf
    // the workload itself.
    sched.set_record_decisions(false);
    k.set_scheduler(&sched);
    for (int t = 0; t < tasks; ++t) {
      sched.StartTask(ctxs[static_cast<size_t>(t)].session->pid, [&body, t] { body(t); });
    }
    t0 = MonotonicNanos();
    sched.Run();
    t1 = MonotonicNanos();
    k.set_scheduler(nullptr);
  }

  MixReport report;
  report.mix = spec.mix;
  report.sim_mode = sim_mode;
  report.exec_mode = spec.exec_mode;
  report.tasks = tasks;
  report.seed = spec.seed;
  for (const TaskCtx& c : ctxs) {
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
  if (spec.trace) {
    report.trace_sampled_out = k.tracer().total_sampled_out();
  }
  if (spec.profile) {
    report.attrib_root_ns = k.profiler().root_ns();
    for (size_t i = 0; i < kLayerCount; ++i) {
      report.attrib_self_ns += k.profiler().Totals(static_cast<Layer>(i)).self_ns;
    }
  }
  if (spec.trace || spec.profile) {
    // Captured after the timed region: the export itself (and its linting
    // in tests) never perturbs the measured throughput.
    report.metrics_text = k.metrics().PrometheusText();
  }
  return report;
}

double RelativeOverheadPct(double stock_ops_per_sec, double protego_ops_per_sec) {
  if (stock_ops_per_sec <= 0) {
    return 0;
  }
  return 100.0 * (stock_ops_per_sec - protego_ops_per_sec) / stock_ops_per_sec;
}

OverheadRow CompareStacks(const WorkloadSpec& spec) {
  OverheadRow row;
  row.stock = RunWorkload(spec, SimMode::kLinux);
  row.protego = RunWorkload(spec, SimMode::kProtego);
  row.overhead_pct = RelativeOverheadPct(row.stock.ops_per_sec, row.protego.ops_per_sec);
  return row;
}

}  // namespace protego::workload
