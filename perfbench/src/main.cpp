//===- main.cpp - The benchmark command -----------------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <paper_eval|sim_run|daemon_mix> --seed <n>
///           --seconds <s> --trace <0|1> [--scratch <dir>]
///
/// Runs one workload, checks every output, prints a human-readable report,
/// and ends stdout with one JSON line: {"correct", "attempted", "failed",
/// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
/// --trace 1 a separate replay of the same inputs reports the per-layer
/// ones. Exits 1 when an output check fails, 2 on a usage error.
/// perfbench/README.md is the metric catalog.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_eval|sim_run|daemon_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  markProcessStart();
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      O.Seconds = std::atof(Value.c_str());
    } else if (Flag == "--trace") {
      O.Trace = Value == "1";
    } else if (Flag == "--scratch") {
      O.Scratch = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || O.Seconds <= 0)
    return usage("--seed and a positive --seconds are required");
  O.Nproc = std::max(1u, std::thread::hardware_concurrency());

  void (*Workload)(const Options &, Result &) = nullptr;
  if (O.Workload == "paper_eval")
    Workload = runPaperEval;
  else if (O.Workload == "sim_run")
    Workload = runSimRun;
  else if (O.Workload == "daemon_mix")
    Workload = runDaemonMix;
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  std::printf("perfbench %s\n", machineStamp(O).c_str());
  std::fflush(stdout);
  Result R;
  try {
    Workload(O, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", E.what());
    return 1;
  }
  R.report();
  std::printf("%s\n", R.line().c_str());
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}
