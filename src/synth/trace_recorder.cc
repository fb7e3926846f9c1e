#include "src/synth/trace_recorder.h"

#include <thread>

#include "src/sim/system.h"

namespace protego::synth {

namespace {

// Daemons launch as root on stock Linux (init starts them, and they need
// root to bind < 1024) and as their service account under Protego, where
// the bind table carries the privilege instead.
Task& DaemonSession(SimSystem& sys, const std::string& service_account) {
  return sys.Login(sys.mode() == SimMode::kProtego ? service_account : "root");
}

std::string EximDeliver(SimSystem& sys) {
  std::string t;
  Task& exim = DaemonSession(sys, "exim");
  Step(sys, exim, &t, "exim-deliver", "/usr/sbin/eximd",
       {"eximd", "--deliver=alice:hello alice"});
  Task& root = sys.Login("root");
  auto spool = sys.kernel().ReadWholeFile(root, "/var/mail/alice");
  Probe(&t, "spool-delivered",
        spool.ok() && spool.value().find("hello alice") != std::string::npos ? "yes" : "no");
  return t;
}

std::string HttpdServe(SimSystem& sys) {
  std::string t;
  Task& www = DaemonSession(sys, "www-data");
  Step(sys, www, &t, "httpd-serve", "/usr/sbin/httpd", {"httpd", "--port=80"});
  return t;
}

std::string KeysignDelegation(SimSystem& sys) {
  std::string t;
  // The delegation client runs as an ordinary user in BOTH modes: on stock
  // Linux the binary is setuid root; under Protego a File_Delegate rule
  // grants exactly this binary read access to the host key.
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "keysign", "/usr/lib/ssh-keysign", {"ssh-keysign", "pubkey-blob"});
  return t;
}

}  // namespace

size_t TraceCorpus::TotalEvents() const {
  size_t n = 0;
  for (const auto& [name, events] : streams) {
    n += events.size();
  }
  return n;
}

const std::vector<FunctionalScenario>& SynthExtraScenarios() {
  static const std::vector<FunctionalScenario>* scenarios = new std::vector<FunctionalScenario>{
      {"synth_exim_deliver", EximDeliver},
      {"synth_httpd_serve", HttpdServe},
      {"synth_keysign_delegation", KeysignDelegation},
  };
  return *scenarios;
}

std::vector<FunctionalScenario> SynthWorkload() {
  std::vector<FunctionalScenario> all = FunctionalSuite();
  const std::vector<FunctionalScenario>& extra = SynthExtraScenarios();
  all.insert(all.end(), extra.begin(), extra.end());
  return all;
}

namespace {

// Traces one scenario on its own fresh Protego system. The stream is a
// pure function of the scenario: nothing from other scenarios (or other
// threads) can interleave into it.
std::vector<SynthEvent> TraceScenario(const FunctionalScenario& scenario) {
  std::vector<SynthEvent> events;
  SimSystem sys(SimMode::kProtego);
  sys.syscalls().set_recorder([&events](const SyscallGate::SyscallObservation& ob) {
    SynthEvent e;
    e.kind = SynthEvent::Kind::kSyscall;
    e.sys = ob;
    events.push_back(std::move(e));
  });
  sys.kernel().SetAuthObserver(
      [&events](int pid, const std::vector<Uid>& accounts, std::optional<Uid> authenticated) {
        SynthEvent e;
        e.kind = SynthEvent::Kind::kAuth;
        e.auth_pid = pid;
        e.auth_accounts = accounts;
        e.auth_ok = authenticated.has_value();
        e.auth_as = authenticated.value_or(0);
        events.push_back(std::move(e));
      });
  (void)scenario.run(sys);
  // Detach before teardown so destructor-time syscalls don't dangle into
  // the (already captured) stream.
  sys.syscalls().set_recorder(nullptr);
  sys.kernel().SetAuthObserver(nullptr);
  return events;
}

}  // namespace

TraceCorpus CollectTraces(uint64_t seed, ExecMode mode) {
  std::vector<FunctionalScenario> workload = SynthWorkload();

  TraceCorpus corpus;
  corpus.seed = seed;

  if (mode == ExecMode::kParallel) {
    std::vector<std::vector<SynthEvent>> slots(workload.size());
    std::vector<std::thread> threads;
    threads.reserve(workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      threads.emplace_back(
          [&slots, &workload, i]() { slots[i] = TraceScenario(workload[i]); });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      corpus.streams[workload[i].name] = std::move(slots[i]);
    }
  } else {
    for (const FunctionalScenario& scenario : workload) {
      corpus.streams[scenario.name] = TraceScenario(scenario);
    }
  }
  return corpus;
}

}  // namespace protego::synth
