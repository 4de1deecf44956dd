// mozart_perfbench: runs one benchmark workload and prints its record as one
// JSON line. run.py builds this binary, runs it, checks the record against
// BENCHMARK.json and prints the benchmark's result.
//
//   mozart_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//   mozart_perfbench --host-probe
//   mozart_perfbench --saturation --seed <n> --seconds <s>   (served_mixed, closed loop)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "host_probe.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "mozart_perfbench: %s\n"
               "usage: mozart_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n"
               "       mozart_perfbench --host-probe\n"
               "       mozart_perfbench --saturation --seed <n> --seconds <s>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool host_probe = false;
  bool saturation = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--host-probe") {
      host_probe = true;
    } else if (flag == "--saturation") {
      saturation = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--trace-out") {
      const char* v = value();
      if (v == nullptr) {
        return Usage(("missing value for " + flag).c_str());
      }
      char* end = nullptr;
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--trace-out") {
        args.trace_out = v;
      } else if (flag == "--seed") {
        args.seed = std::strtoull(v, &end, 10);
      } else if (flag == "--seconds") {
        args.seconds = std::strtod(v, &end);
      } else {
        args.trace = std::strtol(v, &end, 10) != 0;
      }
      if (end != nullptr && (*end != '\0' || end == v)) {
        return Usage(("bad value for " + flag + ": " + v).c_str());
      }
    } else {
      return Usage(("unknown argument " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Result result;
  if (host_probe) {
    args.workload = "host";
    perfbench::RunHostProbe(&result);
  } else if (saturation) {
    args.workload = "served_mixed";
    perfbench::RunServedMixed(args, 0.0, &result);
  } else if (args.workload == "served_mixed") {
    perfbench::RunServedMixed(args, perfbench::ServedOfferedRps(), &result);
  } else if (!perfbench::RunBatchWorkload(args, &result)) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  result.Set("error_rate",
             result.attempted > 0
                 ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                 : 0.0,
             "fraction");
  perfbench::PrintResult(args, result);
  return 0;
}
