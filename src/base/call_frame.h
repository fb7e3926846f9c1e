// The call frame: the syscall running on a thread, as one record.
//
// SyscallGate::Run pushes a frame at entry and pops it at exit. A syscall
// made while another is still running on the same thread (Spawn's execve, a
// trusted service's lookup on behalf of a caller) pushes its own frame,
// linked to the enclosing one. Everything that asks "which call is this
// thread in?" reads the innermost frame:
//   - the tracer stamps each event with the frame's span, and an untraced
//     call mutes the span-scoped points emitted inside it;
//   - the fault registry matches its pid/syscall filters against it;
//   - the gate's path check reads the call's arguments and deferred filter
//     from it and records its verdict there;
//   - layer attribution (src/base/attribution.h) opens its scopes only
//     under a timed call, which carries the profiler, and links them
//     through the frame's innermost open scope.
// A frame lives on the stack of the thread running the call, so reading or
// writing it takes no lock and touches no shared line.
//
// The frame sits in src/base so the tracer and the fault registry can read
// it without depending on the kernel; the kernel types it points at are
// only declared here.

#ifndef SRC_BASE_CALL_FRAME_H_
#define SRC_BASE_CALL_FRAME_H_

#include <cstdint>
#include <memory>
#include <string>

namespace protego {

struct SyscallArgs;
class SeccompFilter;
class LayerProfiler;
class LayerScope;

class CallFrame {
 public:
  // Pushes the frame as the calling thread's innermost; the destructor pops
  // it, so frames nest with the C++ scopes that hold them. A nested call
  // starts from its caller's innermost layer scope.
  CallFrame(int task_pid, int nr)
      : pid(task_pid), sysno(nr), up(tls_top_), scope(up != nullptr ? up->scope : nullptr) {
    tls_top_ = this;
  }
  ~CallFrame() { tls_top_ = up; }
  CallFrame(const CallFrame&) = delete;
  CallFrame& operator=(const CallFrame&) = delete;

  // The innermost frame on the calling thread; nullptr outside any call.
  static CallFrame* Current() { return tls_top_; }

  // The span of the innermost traced call of task `pid` at or above `frame`
  // (0 = none). Calls of other tasks on the thread are skipped: a spawned
  // child's execve, or a service task's lookup, starts its own tree.
  static uint64_t TracedSpan(const CallFrame* frame, int pid) {
    for (; frame != nullptr; frame = frame->up) {
      if (frame->traced && frame->pid == pid) {
        return frame->span;
      }
    }
    return 0;
  }

  const int pid;
  const int sysno;
  CallFrame* const up;  // the enclosing frame on this thread

  // Tracing: the gate decides at entry. A traced call owns a span; its
  // parent is the enclosing traced call of the same task.
  bool traced = false;
  uint64_t span = 0;
  uint64_t parent = 0;

  // The path check (SyscallGate::CheckPath).
  const SyscallArgs* args = nullptr;
  // The task's filter, when its rules for `sysno` wait for the walk.
  std::shared_ptr<const SeccompFilter> filter;
  std::string* path = nullptr;  // the recorder's slot for the canonical path
  bool denied = false;          // the walk's check refused the call

  // Layer attribution: the gate sets `profiler` only on a timed call;
  // `scope` is the innermost open LayerScope on this thread.
  LayerProfiler* profiler = nullptr;
  LayerScope* scope;

 private:
  // Defined here, so every use site sees its constant initializer.
  inline static thread_local CallFrame* tls_top_ = nullptr;
};

}  // namespace protego

#endif  // SRC_BASE_CALL_FRAME_H_
