//===- shot_throughput.cpp - Shot-parallel + fusion throughput ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Charts the dense execution plan on a rotation-dense circuit (layered
/// RY/RZ over every wire with CX ladders — the gate mix of Grover and
/// period finding after decomposition): shots/sec of the fused batch
/// versus worker count, against the serial, unfused per-shot reference
/// StatevectorBackend::run(), plus the single-shot fusion gain.
///
/// Also re-proves the determinism contract where it matters most: every
/// worker count must return bit-identical per-shot results, and the first
/// shots must equal per-shot run().
///
/// Usage: shot_throughput [--smoke] [--json <path>] [qubits] [shots] [layers]
///        (default 20 1000 4; --smoke = 12 300 3, sized for CI runners —
///        every path and the bit-parity check still run, the timing bar
///        auto-disarms below the full-scale workload; --json writes the
///        machine-readable perf trajectory)
///
/// Acceptance bar from the execution-plan issue: >= 3x throughput at
/// jobs=4 vs jobs=1 on the default 20-qubit 1000-shot circuit. The check
/// is skipped (exit 0) on machines with fewer than 4 hardware threads,
/// where the speedup physically cannot materialize.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sim/Fusion.h"
#include "sim/StatevectorBackend.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

using namespace asdf;

namespace {

/// L layers of per-wire RY/RZ rotations plus a CX ladder, then measure-all:
/// dense in fusible single-qubit runs and in per-shot measurement work.
Circuit rotationDense(unsigned NumQubits, unsigned Layers) {
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  for (unsigned L = 0; L < Layers; ++L) {
    for (unsigned Q = 0; Q < NumQubits; ++Q) {
      C.append(CircuitInstr::gate(GateKind::RY, {}, {Q},
                                  0.3 + 0.1 * Q + 0.7 * L));
      C.append(CircuitInstr::gate(GateKind::RZ, {}, {Q},
                                  1.1 + 0.05 * Q + 0.3 * L));
      C.append(CircuitInstr::gate(GateKind::T, {}, {Q}));
    }
    for (unsigned Q = 1; Q < NumQubits; ++Q)
      C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

double seconds(const std::function<void()> &Body) {
  auto Start = std::chrono::steady_clock::now();
  Body();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

int main(int argc, char **argv) {
  BenchJson Json("shot_throughput", argc, argv);
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  int ArgBase = Smoke ? 2 : 1;
  unsigned NumQubits = argc > ArgBase ? std::atoi(argv[ArgBase]) : 20;
  unsigned Shots = argc > ArgBase + 1 ? std::atoi(argv[ArgBase + 1]) : 1000;
  unsigned Layers = argc > ArgBase + 2 ? std::atoi(argv[ArgBase + 2]) : 4;
  if (Smoke) {
    NumQubits = 12;
    Shots = 300;
    Layers = 3;
  }
  unsigned Cores = std::thread::hardware_concurrency();
  Json.config("smoke", Smoke);
  Json.config("qubits", NumQubits);
  Json.config("shots", Shots);
  Json.config("layers", Layers);
  Json.config("hardware_threads", Cores);

  Circuit C = rotationDense(NumQubits, Layers);
  StatevectorBackend Sv;
  FusedCircuit FC = fuseCircuit(C);
  std::printf("=== Shot throughput: %u qubits, %u shots, %u layers "
              "(%u hardware threads) ===\n",
              NumQubits, Shots, Layers, Cores);
  std::printf("fusion plan: %s\n\n", FC.summary().c_str());
  Json.config("fusion_plan", FC.summary());

  // The unfused baseline is per-shot run(), which re-simulates the whole
  // circuit every shot: timed over the first few shots, whose bits anchor
  // the parity check below. Its first shot is the single-shot baseline.
  unsigned RefShots = Shots < 8 ? Shots : 8;
  std::vector<ShotResult> Ref(RefShots);
  double TU = 0.0, TRef = 0.0;
  for (unsigned S = 0; S < RefShots; ++S) {
    TRef += seconds([&] { Ref[S] = Sv.run(C, deriveShotSeed(42, S)); });
    if (S == 0)
      TU = TRef;
  }
  {
    RunOptions Fused;
    Fused.Jobs = 1;
    double TF = seconds([&] { Sv.runBatch(C, 1, 42, Fused); });
    std::printf("single shot: unfused run() %.4f s, fused batch %.4f s  "
                "(%.2fx)\n\n",
                TU, TF, TF > 0 ? TU / TF : 0.0);
    Json.metric("single_shot_unfused_seconds", TU, "s");
    Json.metric("single_shot_fused_seconds", TF, "s");
  }

  std::printf("%8s %6s %14s %14s %10s\n", "path", "jobs", "seconds",
              "shots/sec", "speedup");
  double BaseRate = RefShots / TRef;
  std::printf("%8s %6u %14.4f %14.1f %9.2fx\n", "run()", 1u, TRef, BaseRate,
              1.0);
  Json.metric("shots_per_sec_j1_unfused", BaseRate, "shots/sec");
  double FusedAt1 = 0.0, FusedAt4 = 0.0;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    RunOptions Opts;
    Opts.Jobs = Jobs;
    SimStats Stats;
    Opts.SimCounters = &Stats;
    double T = seconds([&] { Sv.runBatch(C, Shots, 42, Opts); });
    if (Jobs == 1)
      FusedAt1 = T;
    if (Jobs == 4)
      FusedAt4 = T;
    std::printf("%8s %6u %14.4f %14.1f %9.2fx\n", "batch", Jobs, T,
                Shots / T, Shots / T / BaseRate);
    Json.metric("shots_per_sec_j" + std::to_string(Jobs) + "_fused",
                Shots / T, "shots/sec");
    if (Jobs == 1) {
        // The per-run counters ride along once, from the canonical config.
        Json.metric("fused_ops", double(Stats.FusedOps), "count");
        Json.metric("fused_blocks", double(Stats.FusedBlocks),
                    "count");
        Json.metric("amplitudes_touched",
                    double(Stats.AmplitudesTouched), "count");
      Json.metric("amps_per_sec",
                  T > 0 ? double(Stats.AmplitudesTouched) / T : 0.0,
                  "amps/sec");
    }
  }

  // Determinism: the serial and the widest batch agree bit-exactly. Both
  // walk the measure tail's outcome trie, so their first shots are also
  // anchored to the per-shot reference run(), which collapses the full
  // state.
  {
    RunOptions Serial, Parallel;
    Serial.Jobs = 1;
    Parallel.Jobs = 0;
    unsigned CheckShots = Shots < 64 ? Shots : 64;
    std::vector<ShotResult> A = Sv.runBatch(C, CheckShots, 42, Serial);
    std::vector<ShotResult> B = Sv.runBatch(C, CheckShots, 42, Parallel);
    bool Same = true;
    for (unsigned S = 0; S < CheckShots; ++S)
      Same &= A[S].Bits == B[S].Bits;
    bool SameAsRun = true;
    for (unsigned S = 0; S < RefShots; ++S)
      SameAsRun &= Ref[S].Bits == A[S].Bits;
    std::printf("\nper-shot parity, serial vs parallel batch: %s\n",
                Same ? "bit-exact" : "MISMATCH");
    std::printf("per-shot parity, first %u shots vs run(): %s\n", RefShots,
                SameAsRun ? "bit-exact" : "MISMATCH");
    if (!Same || !SameAsRun)
      return 1;
  }

  double Speedup = FusedAt4 > 0 ? FusedAt1 / FusedAt4 : 0.0;
  std::printf("\njobs=4 vs jobs=1 (fused): %.2fx\n", Speedup);
  Json.metric("speedup_j4_vs_j1_fused", Speedup, "x");
  // Enforce the >=3x bar only where it is meaningful: the full-scale
  // default workload on a machine with at least 4 hardware threads.
  // Reduced smoke runs (CI shared runners, laptops) still exercise every
  // path and the parity check above, without a timing-noise gate.
  if (Cores < 4 || NumQubits < 20 || Shots < 1000) {
    std::printf("speedup bar SKIPPED (needs >= 4 hardware threads and the "
                "default 20-qubit 1000-shot workload)\n");
    return 0;
  }
  std::printf("target >= 3x: %s\n", Speedup >= 3.0 ? "PASS" : "FAIL");
  return Speedup >= 3.0 ? 0 : 1;
}
