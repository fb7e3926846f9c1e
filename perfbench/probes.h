// Lower-layer probes for the traced run: each times calls into one
// module's public functions (gate GetPid, Vfs, LsmStack, the Protego
// module alone, Netfilter, the /proc/protego policy interface, SimSystem
// boot) on the workload's own fixtures, from 1 thread and, where contention
// is the question, from 4 threads at once. Every timed batch is recorded as
// a span.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "stats.h"

namespace perfbench {

// Appends the kernel/vfs/lsm/protego/net per-layer metrics measured on
// `bed` (a Protego MixBed with at least `threads` sessions). Spans go to
// `spans`: one root per probe, one child per timed batch. Returns false
// (with `err` set) if a probed call fails where the workload's own call
// succeeds.
bool RunLayerProbes(MixBed& bed, int threads, Metrics& out, std::vector<Span>& spans,
                    std::string& err);

// Median wall time of constructing a SimSystem for `mode`, in ms, over
// `boots` boots (teardown untimed).
double MedianBootMs(SimMode mode, int boots, std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
