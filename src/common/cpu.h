// CPU topology and cache-size discovery.
//
// Mozart's batch-size heuristic (§5.2 of the paper) needs the L2 cache size:
// each pipeline batch should collectively occupy roughly one L2 cache. We read
// the Linux sysfs cache hierarchy and fall back to sysconf / a conservative
// constant when the information is unavailable (containers often hide sysfs).
#ifndef MOZART_COMMON_CPU_H_
#define MOZART_COMMON_CPU_H_

#include <cstddef>
#include <cstdint>

namespace mz {

// Number of logical CPUs this process may run on (>= 1): the size of its
// affinity mask on Linux, else the online CPU count.
int NumLogicalCpus();

// Private L2 data-cache size in bytes for cpu0. Falls back to 256 KiB.
std::size_t L2CacheBytes();

// Shared last-level-cache size in bytes. Falls back to 8 MiB.
std::size_t LlcBytes();

// Cache line size in bytes. Falls back to 64.
std::size_t CacheLineBytes();

}  // namespace mz

#endif  // MOZART_COMMON_CPU_H_
