#include "src/lsm/stack.h"

#include <cstdlib>
#include <cstring>

#include "src/base/log.h"

namespace protego {

const char* HookVerdictName(HookVerdict v) {
  switch (v) {
    case HookVerdict::kDefault: return "DEFAULT";
    case HookVerdict::kAllow: return "ALLOW";
    case HookVerdict::kDeny: return "DENY";
  }
  return "?";
}

const char* LsmHookName(LsmHook hook) {
  switch (hook) {
    case LsmHook::kInodePermission: return "inode_permission";
    case LsmHook::kSbMount: return "sb_mount";
    case LsmHook::kSbUmount: return "sb_umount";
    case LsmHook::kSocketCreate: return "socket_create";
    case LsmHook::kSocketBind: return "socket_bind";
    case LsmHook::kTaskFixSetuid: return "task_fix_setuid";
    case LsmHook::kBprmCheck: return "bprm_check";
    case LsmHook::kFileIoctl: return "file_ioctl";
    case LsmHook::kCount: break;
  }
  return "?";
}

void SecurityModule::BumpPolicyGeneration() {
  if (stack_ != nullptr) {
    stack_->BumpPolicyGeneration();
  }
}

void SecurityModule::Audit(std::string record) {
  if (stack_ != nullptr) {
    stack_->Audit(std::move(record));
  }
}

void LsmStack::Register(std::unique_ptr<SecurityModule> module) {
  if (modules_.size() == kMaxModules) {
    LogError(std::string("LsmStack: cannot register ") + module->name() + ": stack is full");
    std::abort();
  }
  module->AttachStack(this);
  modules_.push_back(std::move(module));
}

SecurityModule* LsmStack::Find(const char* name) {
  for (const auto& m : modules_) {
    if (std::strcmp(m->name(), name) == 0) {
      return m.get();
    }
  }
  return nullptr;
}

uint64_t LsmStack::TotalHookInvocations() const {
  uint64_t total = 0;
  for (size_t h = 0; h < static_cast<size_t>(LsmHook::kCount); ++h) {
    total += HookInvocations(static_cast<LsmHook>(h));
  }
  return total;
}

bool LsmStack::Capable(const Task& task, Capability cap) const {
  for (const auto& m : modules_) {
    if (!m->CapablePermitted(task, cap)) {
      return false;
    }
  }
  return true;
}

HookVerdict LsmStack::Combine(HookVerdict acc, HookVerdict v) {
  if (acc == HookVerdict::kDeny || v == HookVerdict::kDeny) {
    return HookVerdict::kDeny;
  }
  if (acc == HookVerdict::kAllow || v == HookVerdict::kAllow) {
    return HookVerdict::kAllow;
  }
  return HookVerdict::kDefault;
}

// --- Observability ----------------------------------------------------------------

void LsmStack::TraceModule(LsmHook hook, const SecurityModule& module, HookVerdict v,
                           int pid) const {
  // The caller hoisted the Enabled() check; the head-sampling draw stays
  // per-emission so each module event is an independent sampling decision.
  if (!tracer_->SampleKeep(TracepointId::kLsmHook)) {
    return;
  }
  TraceSlot ev = tracer_->Emit(TracepointId::kLsmHook, pid);
  ev->a = static_cast<uint64_t>(hook);
  ev->sname = LsmHookName(hook);
  ev->sdetail = module.name();
  ev->svalue = HookVerdictName(v);
  if (v == HookVerdict::kDeny) {
    ev->flags |= kTraceFlagDenied;
  }
}

void LsmStack::TraceDecision(LsmHook hook, HookVerdict combined, int pid) const {
  if (tracer_ == nullptr || !tracer_->ShouldEmit(TracepointId::kLsmDecision)) {
    return;
  }
  TraceSlot ev = tracer_->Emit(TracepointId::kLsmDecision, pid);
  ev->a = static_cast<uint64_t>(hook);
  ev->sname = LsmHookName(hook);
  ev->svalue = HookVerdictName(combined);
  if (combined == HookVerdict::kDeny) {
    ev->flags |= kTraceFlagDenied;
  }
}

bool LsmStack::FaultDeny(LsmHook hook, int pid) const {
  if (faults_ == nullptr || !faults_->any_enabled()) {
    return false;
  }
  Errno e = faults_->Evaluate(FaultSite::kLsmHook, static_cast<int>(hook));
  if (e == Errno::kOk) {
    return false;
  }
  // Fail closed: an undecidable hook refuses.
  AddOwned(tallies_.Mine().fail_closed);
  TraceDecision(hook, HookVerdict::kDeny, pid);
  return true;
}

void LsmStack::CollectMetrics(MetricsBuilder& b) const {
  for (size_t h = 0; h < static_cast<size_t>(LsmHook::kCount); ++h) {
    const LsmHook hook = static_cast<LsmHook>(h);
    const uint64_t n = HookInvocations(hook);
    if (n == 0) {
      continue;
    }
    b.Counter("protego_lsm_hook_invocations_total", "LSM stack consultations per hook",
              {{"hook", LsmHookName(hook)}}, n);
  }
  for (size_t i = 0; i < modules_.size(); ++i) {
    for (size_t v = 0; v < 3; ++v) {
      const HookVerdict verdict = static_cast<HookVerdict>(v);
      const uint64_t n = ModuleVerdicts(i, verdict);
      if (n == 0) {
        continue;
      }
      b.Counter("protego_lsm_module_verdicts_total",
                "Verdicts returned by each security module",
                {{"module", modules_[i]->name()}, {"verdict", HookVerdictName(verdict)}}, n);
    }
  }
  b.Gauge("protego_policy_generation",
          "Policy generation counter (bumped on every policy swap)", {},
          static_cast<double>(policy_generation()));
}

// --- Hook dispatch ----------------------------------------------------------------

template <typename Call>
HookVerdict LsmStack::Dispatch(LsmHook hook, int pid, Call&& call) const {
  LayerScope lsm_scope(Layer::kLsm);
  Tally& tally = tallies_.Mine();
  AddOwned(tally.hooks[static_cast<size_t>(hook)]);
  if (FaultDeny(hook, pid)) {
    return HookVerdict::kDeny;
  }
  // Enabled() is false inside an untraced syscall: its module verdicts
  // would be orphans costing a ring slot each.
  const bool trace_hooks = tracer_ != nullptr && tracer_->Enabled(TracepointId::kLsmHook);
  HookVerdict acc = HookVerdict::kDefault;
  for (size_t i = 0; i < modules_.size(); ++i) {
    HookVerdict v = call(*modules_[i]);
    AddOwned(tally.verdicts[i][static_cast<size_t>(v)]);
    if (trace_hooks) {
      TraceModule(hook, *modules_[i], v, pid);
    }
    acc = Combine(acc, v);
  }
  TraceDecision(hook, acc, pid);
  return acc;
}

HookVerdict LsmStack::InodePermission(Task& task, const std::string& path,
                                      const Inode& inode, int may) const {
  return Dispatch(LsmHook::kInodePermission, task.pid, [&](SecurityModule& m) {
    return m.InodePermission(task, path, inode, may, nullptr);
  });
}

HookVerdict LsmStack::SbMount(const Task& task, const MountRequest& req) const {
  return Dispatch(LsmHook::kSbMount, task.pid,
                  [&](SecurityModule& m) { return m.SbMount(task, req, nullptr); });
}

HookVerdict LsmStack::SbUmount(const Task& task, const std::string& mountpoint,
                              Uid mounter) const {
  return Dispatch(LsmHook::kSbUmount, task.pid,
                  [&](SecurityModule& m) { return m.SbUmount(task, mountpoint, mounter); });
}

HookVerdict LsmStack::SocketCreate(const Task& task, const SocketRequest& req) const {
  return Dispatch(LsmHook::kSocketCreate, task.pid,
                  [&](SecurityModule& m) { return m.SocketCreate(task, req); });
}

HookVerdict LsmStack::SocketBind(const Task& task, const BindRequest& req) const {
  return Dispatch(LsmHook::kSocketBind, task.pid,
                  [&](SecurityModule& m) { return m.SocketBind(task, req, nullptr); });
}

HookVerdict LsmStack::TaskFixSetuid(Task& task, const SetuidRequest& req,
                                    SetuidDisposition* disposition) const {
  return Dispatch(LsmHook::kTaskFixSetuid, task.pid, [&](SecurityModule& m) {
    return m.TaskFixSetuid(task, req, disposition);
  });
}

HookVerdict LsmStack::BprmCheck(Task& task, const std::string& path, const Inode& inode,
                                const std::vector<std::string>& argv, ExecControl* control) const {
  return Dispatch(LsmHook::kBprmCheck, task.pid, [&](SecurityModule& m) {
    return m.BprmCheck(task, path, inode, argv, control);
  });
}

HookVerdict LsmStack::FileIoctl(const Task& task, const IoctlRequest& req) const {
  return Dispatch(LsmHook::kFileIoctl, task.pid,
                  [&](SecurityModule& m) { return m.FileIoctl(task, req); });
}

}  // namespace protego
