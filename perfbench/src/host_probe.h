#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include "harness.h"

namespace perfbench {

// Fills host.* metrics: logical CPUs, spin-loop speedup at 2 and 4 threads,
// the LLC size the runtime sees (mz::LlcBytes), STREAM-triad bandwidth on
// arrays totalling 4x that LLC, and whether perf counters can be read.
void RunHostProbe(Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
