#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Runs one batch workload (bulk_vecmath, iterative_nbody, pandas_mix): a
// single client on a plain Runtime, one annotated iteration after another
// for args.seconds. Returns false for an unknown workload name.
bool RunBatchWorkload(const Args& args, Result* r);

// Runs served_mixed: open-loop arrivals into one ServingContext through
// ResilientClient::Eval. `offered_rps` <= 0 runs the closed-loop saturation
// probe that the fixed offered rate was derived from.
void RunServedMixed(const Args& args, double offered_rps, Result* r);

// The fixed offered rate of served_mixed (requests per second).
double ServedOfferedRps();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
