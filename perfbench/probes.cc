#include "probes.h"

#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "src/net/netfilter.h"

namespace perfbench {

using namespace protego;

namespace {

// Batches per probe and thread; each batch is one span and one sample.
constexpr int kBatches = 25;

// Runs body(thread, iters) kBatches times on each of `threads` threads at
// once (released together by a spin barrier) and returns the median over
// all batches of ns per call, where one iteration makes `calls_per_iter`
// calls.
template <typename Body>
double PerCallNs(std::vector<Span>& spans, const char* name, int threads, uint64_t iters,
                 uint64_t calls_per_iter, Body body) {
  const auto root = static_cast<int32_t>(spans.size());
  spans.push_back({name, NowNs(), 0, -1, 0, 0});
  std::vector<std::vector<Span>> local(static_cast<size_t>(threads));
  std::atomic<int> ready{0};
  auto run = [&](int th) {
    ready.fetch_add(1);
    while (ready.load() < threads) {
    }
    for (int b = 0; b < kBatches; ++b) {
      const uint64_t start = NowNs();
      body(th, iters);
      local[static_cast<size_t>(th)].push_back(
          {name, start, NowNs(), root, static_cast<uint32_t>(th), static_cast<uint64_t>(b)});
    }
  };
  if (threads == 1) {
    run(0);
  } else {
    // Every worker is a new thread, so pin.cc puts each on its own CPU; the
    // main thread only waits.
    std::vector<std::jthread> workers;
    for (int th = 0; th < threads; ++th) {
      workers.emplace_back(run, th);
    }
  }
  spans[static_cast<size_t>(root)].end_ns = NowNs();
  std::vector<double> per_call;
  for (const std::vector<Span>& l : local) {
    for (const Span& s : l) {
      per_call.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                         static_cast<double>(iters * calls_per_iter));
      spans.push_back(s);
    }
  }
  return Median(per_call);
}

// A path the mix touches, with the inode and access mode its syscall checks.
struct Target {
  std::string path;
  Inode inode;
  int may = kMayRead;
};

std::vector<Target> TargetsFor(MixBed& bed, size_t t) {
  std::vector<Target> out;
  for (const std::string& p : bed.FixturePaths(t)) {
    auto node = bed.kernel().vfs().Resolve(p);
    if (!node.ok()) {
      continue;
    }
    Target tg{p, bed.kernel().vfs().SnapshotInode(node.value()), kMayRead};
    if (tg.inode.IsDir()) {
      tg.may = kMayWrite | kMayExec;  // creating a spool file in the directory
    }
    out.push_back(std::move(tg));
  }
  return out;
}

}  // namespace

bool RunLayerProbes(MixBed& bed, int threads, Metrics& out, std::vector<Span>& spans,
                    std::string& err) {
  Kernel& k = bed.kernel();
  Vfs& vfs = k.vfs();
  LsmStack& lsm = k.lsm();
  k.tracer().set_enabled(false);
  std::atomic<uint64_t> failures{0};
  std::vector<TaskCtx>& ctxs = bed.ctxs();

  std::vector<std::vector<Target>> targets;
  std::vector<std::vector<std::string>> paths;
  for (int t = 0; t < threads; ++t) {
    targets.push_back(TargetsFor(bed, static_cast<size_t>(t)));
    paths.push_back(bed.FixturePaths(static_cast<size_t>(t)));
    (void)vfs.EnsureDirs("/tmp/pbmut" + std::to_string(t));
    if (targets.back().empty()) {
      err = "no fixture paths resolve for the probes";
      return false;
    }
  }

  // --- kernel: gate round trip --------------------------------------------
  auto getpid = [&](int th, uint64_t iters) {
    const Task& s = *ctxs[static_cast<size_t>(th)].session;
    for (uint64_t i = 0; i < iters; ++i) {
      if (k.GetPid(s) < 0) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"kernel.getpid_ns.1t", PerCallNs(spans, "kernel.getpid.1t", 1, 20000, 1, getpid), "ns"});
  out.push_back({"kernel.getpid_ns.4t",
                 PerCallNs(spans, "kernel.getpid.4t", threads, 20000, 1, getpid), "ns"});

  // --- vfs: lookups on the mix's paths, and a private mutate cycle ----------
  auto resolve = [&](int th, uint64_t iters) {
    const std::vector<std::string>& ps = paths[static_cast<size_t>(th)];
    for (uint64_t i = 0; i < iters; ++i) {
      if (!vfs.Resolve(ps[i % ps.size()]).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"vfs.resolve_ns.1t", PerCallNs(spans, "vfs.resolve.1t", 1, 4000, 1, resolve), "ns"});
  out.push_back({"vfs.resolve_ns.4t",
                 PerCallNs(spans, "vfs.resolve.4t", threads, 4000, 1, resolve), "ns"});

  auto mutate = [&](int th, uint64_t iters) {
    const std::string dir = "/tmp/pbmut" + std::to_string(th);
    const std::string tmp = dir + "/m.tmp";
    const std::string fin = dir + "/m";
    const Cred& cred = ctxs[static_cast<size_t>(th)].session->cred;
    for (uint64_t i = 0; i < iters; ++i) {
      auto node = vfs.CreateFile(tmp, 0600, cred.euid, cred.egid);
      bool ok = node.ok() && vfs.WriteNode(node.value(), "probe message body\n", false).ok() &&
                vfs.Rename(tmp, fin).ok() && vfs.Unlink(fin).ok();
      if (!ok) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"vfs.mutate_ns.1t", PerCallNs(spans, "vfs.mutate.1t", 1, 200, 1, mutate), "ns"});
  out.push_back({"vfs.mutate_ns.4t",
                 PerCallNs(spans, "vfs.mutate.4t", threads, 200, 1, mutate), "ns"});

  // --- lsm: the whole stack, then the Protego module alone -----------------
  auto inode_perm = [&](int th, uint64_t iters) {
    Task& s = *ctxs[static_cast<size_t>(th)].session;
    const std::vector<Target>& ts = targets[static_cast<size_t>(th)];
    for (uint64_t i = 0; i < iters; ++i) {
      const Target& tg = ts[i % ts.size()];
      if (lsm.InodePermission(s, tg.path, tg.inode, tg.may) == HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"lsm.inode_permission_ns",
                 PerCallNs(spans, "lsm.inode_permission.1t", 1, 4000, 1, inode_perm), "ns"});
  out.push_back({"lsm.inode_permission_ns.4t",
                 PerCallNs(spans, "lsm.inode_permission.4t", threads, 4000, 1, inode_perm),
                 "ns"});

  // The non-file hooks take the inputs of the mix that issues them: the
  // `sh -c cc` exec (compile), the churn-port bind (web-serve), and
  // the recipient seteuid (mail), each from that mix's session user.
  Task& alice = bed.sys().Login("alice");
  Task& www = bed.sys().Login("www-data");
  Task& exim = bed.sys().Login("exim");
  auto sh = vfs.Resolve("/bin/sh");
  if (!sh.ok()) {
    err = "/bin/sh does not resolve";
    return false;
  }
  const Inode sh_inode = vfs.SnapshotInode(sh.value());
  const std::vector<std::string> cc_argv = {"sh", "-c", "cc"};
  Cred exec_cred = alice.cred;
  std::map<std::string, std::string> exec_env;
  ExecControl control;
  control.cred = &exec_cred;
  control.env = &exec_env;
  const BindRequest bind_req{12000, www.exe_path, www.ns.net_ns};
  SecurityModule* protego = lsm.Find("protego");
  if (protego == nullptr) {
    err = "the Protego module is not registered";
    return false;
  }

  auto bprm = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      if (lsm.BprmCheck(alice, "/bin/sh", sh_inode, cc_argv, &control) == HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto bind = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      if (lsm.SocketBind(www, bind_req) == HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto fix_setuid = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      SetuidRequest req;
      req.target_uid = static_cast<Uid>(1000 + i % 3);
      SetuidDisposition disposition;
      (void)lsm.TaskFixSetuid(exim, req, &disposition);
    }
  };
  out.push_back({"lsm.bprm_check_ns", PerCallNs(spans, "lsm.bprm_check", 1, 4000, 1, bprm), "ns"});
  out.push_back({"lsm.socket_bind_ns", PerCallNs(spans, "lsm.socket_bind", 1, 4000, 1, bind), "ns"});
  out.push_back({"lsm.task_fix_setuid_ns",
                 PerCallNs(spans, "lsm.task_fix_setuid", 1, 4000, 1, fix_setuid), "ns"});

  auto p_inode_perm = [&](int, uint64_t iters) {
    Task& s = *ctxs[0].session;
    const std::vector<Target>& ts = targets[0];
    for (uint64_t i = 0; i < iters; ++i) {
      const Target& tg = ts[i % ts.size()];
      bool cacheable = true;
      if (protego->InodePermission(s, tg.path, tg.inode, tg.may, &cacheable) ==
          HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto p_bprm = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      if (protego->BprmCheck(alice, "/bin/sh", sh_inode, cc_argv, &control) ==
          HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto p_bind = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      bool cacheable = true;
      if (protego->SocketBind(www, bind_req, &cacheable) == HookVerdict::kDeny) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto p_fix_setuid = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      SetuidRequest req;
      req.target_uid = static_cast<Uid>(1000 + i % 3);
      SetuidDisposition disposition;
      (void)protego->TaskFixSetuid(exim, req, &disposition);
    }
  };
  out.push_back({"protego.inode_permission_ns",
                 PerCallNs(spans, "protego.inode_permission", 1, 4000, 1, p_inode_perm), "ns"});
  out.push_back({"protego.bprm_check_ns",
                 PerCallNs(spans, "protego.bprm_check", 1, 4000, 1, p_bprm), "ns"});
  out.push_back({"protego.socket_bind_ns",
                 PerCallNs(spans, "protego.socket_bind", 1, 4000, 1, p_bind), "ns"});
  out.push_back({"protego.task_fix_setuid_ns",
                 PerCallNs(spans, "protego.task_fix_setuid", 1, 4000, 1, p_fix_setuid), "ns"});

  // --- protego: one /proc/protego policy write (parse, compile, publish) ---
  const std::string policy_file = "/proc/protego/sudoers";
  auto policy = k.ReadWholeFile(bed.root(), policy_file);
  if (!policy.ok()) {
    err = "cannot read " + policy_file;
    return false;
  }
  auto swap = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      if (!k.WriteWholeFile(bed.root(), policy_file, policy.value()).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"protego.policy_swap_ms",
                 PerCallNs(spans, "protego.policy_swap", 1, 4, 1, swap) / 1e6, "ms"});

  // --- net: netfilter on web-serve's request and reply, both chains --------
  Packet request;
  request.l4_proto = kProtoUdp;
  request.dst_ip = kLocalhostIp;
  request.src_port = 18000;
  request.dst_port = 8000;
  request.payload = "GET /page0.html";
  request.sender_uid = www.cred.euid;
  Packet reply = request;
  reply.src_port = 8000;
  reply.dst_port = 18000;
  reply.payload = std::string(1024, 'R');
  const Netfilter& nf = k.net().netfilter();
  auto netfilter = [&](int, uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      bool accepted = nf.Evaluate(NfChain::kOutput, request) == NfVerdict::kAccept &&
                      nf.Evaluate(NfChain::kInput, request) == NfVerdict::kAccept &&
                      nf.Evaluate(NfChain::kOutput, reply) == NfVerdict::kAccept &&
                      nf.Evaluate(NfChain::kInput, reply) == NfVerdict::kAccept;
      if (!accepted) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  out.push_back({"net.netfilter_eval_ns",
                 PerCallNs(spans, "net.netfilter_eval", 1, 2500, 4, netfilter), "ns"});

  if (failures.load() != 0) {
    err = std::to_string(failures.load()) + " probed calls failed or were denied";
    return false;
  }
  return true;
}

double MedianBootMs(SimMode mode, int boots, std::vector<Span>& spans) {
  const char* name = mode == SimMode::kLinux ? "sim.boot.stock" : "sim.boot.protego";
  const auto root = static_cast<int32_t>(spans.size());
  spans.push_back({name, NowNs(), 0, -1, 0, 0});
  std::vector<double> ms;
  for (int b = 0; b < boots; ++b) {
    const uint64_t start = NowNs();
    auto sys = std::make_unique<SimSystem>(mode);
    const uint64_t end = NowNs();
    spans.push_back({name, start, end, root, 0, static_cast<uint64_t>(b)});
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  spans[static_cast<size_t>(root)].end_ns = NowNs();
  return Median(ms);
}

}  // namespace perfbench
