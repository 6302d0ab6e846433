// perfbench: the tcs simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload <paging|consolidation|wan|app_traffic> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload on this thread for about --seconds of host time and prints, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"},
// with "metrics" mapping each measured metric's name to its value. Untraced (--trace 0)
// the metrics are the end-to-end ones; traced (--trace 1) they are the per-layer ones,
// and the spans go to .bench_build/traces/. Lines before it start with '#'. run.py
// checks the names against BENCHMARK.json and attaches the units given there.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paging|consolidation|wan|"
               "app_traffic> --seed <n> --seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

RunArgs Parse(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          Usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

Outcome Dispatch(const RunArgs& args) {
  if (args.workload == "paging") {
    return RunPaging(args);
  }
  if (args.workload == "consolidation") {
    return RunFleet(args, /*wan=*/false);
  }
  if (args.workload == "wan") {
    return RunFleet(args, /*wan=*/true);
  }
  if (args.workload == "app_traffic") {
    return RunAppTraffic(args);
  }
  Usage("unknown workload '" + args.workload + "'");
}

int Main(int argc, char** argv) {
  RunArgs args = Parse(argc, argv);
  Outcome out = Dispatch(args);

  std::string metrics;
  for (const auto& [name, value] : out.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", metrics.empty() ? "" : ", ",
                  name.c_str(), value);
    metrics += buf;
  }
  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              out.failed == 0 && out.guards_ok ? "true" : "false",
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
