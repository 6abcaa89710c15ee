//===- backend_scaling.cpp - Statevector vs stabilizer scaling ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Charts how the two simulation backends scale on GHZ prepare-and-measure
/// circuits (H + CX ladder + measure-all): the dense engine doubles its
/// work per qubit while the CHP tableau runs the same family to thousands
/// of qubits in polynomial time. Also shows multi-shot amortization (the
/// statevector backend simulates the gate prefix once per batch, the
/// tableau runs one reference and samples each shot as a Pauli frame) and
/// — the dense-engine headline — single-shot throughput at >= 24 qubits:
/// the strided block-fused amplitude-parallel plan versus the serial
/// unfused reference path.
///
/// Acceptance bars: one 500-qubit GHZ prepare-and-measure run under one
/// second on the stabilizer backend, and >= 3x single-shot dense speedup
/// at the 24-qubit workload (armed only with >= 4 hardware threads, where
/// the amplitude-parallel component can materialize).
///
/// Usage: backend_scaling [--smoke] [--json <path>]
///        (--smoke trims the sweep to seconds for CI: small widths, fewer
///        shots, outcome sanity instead of the timing bars; --json writes
///        the machine-readable perf trajectory)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sim/CircuitAnalysis.h"
#include "sim/Simulator.h"
#include "sim/StabilizerBackend.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

using namespace asdf;

namespace {

Circuit ghz(unsigned NumQubits) {
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  for (unsigned Q = 1; Q < NumQubits; ++Q)
    C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// The dense-engine stress circuit: layered RY/RZ/H rotations with CX
/// ladders — fusible runs, multi-qubit blocks, and a measure-all tail.
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
      C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
    }
    for (unsigned Q = 1; Q < NumQubits; ++Q)
      C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

double secondsFor(const Circuit &C, unsigned Shots, BackendKind Kind) {
  auto Start = std::chrono::steady_clock::now();
  std::map<std::string, unsigned> Counts = runShots(C, Shots, 42, Kind);
  auto End = std::chrono::steady_clock::now();
  // GHZ sanity: only the two fully-correlated strings appear.
  if (Counts.size() > 2)
    std::printf("  !! unexpected outcome spread (%zu strings)\n",
                Counts.size());
  return std::chrono::duration<double>(End - Start).count();
}

double seconds(const std::function<void()> &Body) {
  auto Start = std::chrono::steady_clock::now();
  Body();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

int main(int argc, char **argv) {
  BenchJson Json("backend_scaling", argc, argv);
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const unsigned Shots = Smoke ? 16 : 64;
  unsigned Cores = std::thread::hardware_concurrency();
  Json.config("smoke", Smoke);
  Json.config("shots", Shots);
  Json.config("hardware_threads", Cores);
  std::printf("=== Backend scaling: GHZ prepare-and-measure, %u shots%s ===\n\n",
              Shots, Smoke ? " (smoke)" : "");

  std::printf("--- statevector (dense amplitudes, 2^n) ---\n");
  std::printf("%8s %14s\n", "qubits", "seconds");
  for (unsigned N : {4, 8, 12, 16, 20, 22}) {
    if (Smoke && N > 12)
      continue;
    double Secs = secondsFor(ghz(N), Shots, BackendKind::Statevector);
    std::printf("%8u %14.4f\n", N, Secs);
    Json.metric("sv_ghz_" + std::to_string(N) + "q_seconds", Secs, "s");
  }

  std::printf("\n--- stabilizer (CHP tableau, poly(n)) ---\n");
  std::printf("%8s %14s\n", "qubits", "seconds");
  for (unsigned N : {4, 16, 64, 100, 250, 500, 1000, 2000}) {
    if (Smoke && N > 100)
      continue;
    double Secs = secondsFor(ghz(N), Shots, BackendKind::Stabilizer);
    std::printf("%8u %14.4f\n", N, Secs);
    Json.metric("stab_ghz_" + std::to_string(N) + "q_seconds", Secs, "s");
  }

  std::printf("\n--- auto-dispatch ---\n");
  {
    Circuit C = ghz(500);
    std::printf("ghz(500) classified Clifford: %s; auto selects: %s\n",
                analyzeCircuit(C).CliffordOnly ? "yes" : "no",
                BackendRegistry::instance()
                    .select(C, BackendKind::Auto)
                    .name());
  }

  // --- Dense single-shot: strided/fused/amplitude-parallel vs serial ----
  // The low-shot/large-n regime the amplitude-parallel kernels exist for:
  // one shot, 2^24 amplitudes, nothing for shot-parallelism to grab.
  unsigned DenseN = Smoke ? 14 : 24;
  double RefSecs, OptSecs;
  double AmpsPerSec = 0.0;
  {
    Circuit C = rotationDense(DenseN, 2);
    StatevectorBackend Sv;
    RunOptions Opt; // the batch plan: fused blocks, amplitude-parallel
    SimStats Stats;
    Opt.SimCounters = &Stats;
    ShotResult A;
    std::vector<ShotResult> B;
    // run() is the serial, unfused reference; shot 0 of a batch runs with
    // deriveShotSeed(Seed, 0).
    RefSecs = seconds([&] { A = Sv.run(C, deriveShotSeed(42, 0)); });
    OptSecs = seconds([&] { B = Sv.runBatch(C, 1, 42, Opt); });
    bool Same = A.Bits == B[0].Bits;
    uint64_t Amps = Stats.AmplitudesTouched;
    AmpsPerSec = OptSecs > 0 ? double(Amps) / OptSecs : 0.0;
    std::printf("\n--- dense single-shot, %u qubits (rotation-dense) ---\n",
                DenseN);
    std::printf("serial unfused reference: %.3f s\n", RefSecs);
    std::printf("optimized plan (fused blocks + %u worker(s)): %.3f s "
                "(%.2fx), %.3g amps/sec\n",
                resolveJobCount(0), OptSecs,
                OptSecs > 0 ? RefSecs / OptSecs : 0.0, AmpsPerSec);
    std::printf("per-shot parity vs reference: %s\n",
                Same ? "bit-exact" : "MISMATCH");
    Json.config("dense_qubits", DenseN);
    Json.metric("dense_single_shot_ref_seconds", RefSecs, "s");
    Json.metric("dense_single_shot_opt_seconds", OptSecs, "s");
    Json.metric("dense_single_shot_speedup",
                OptSecs > 0 ? RefSecs / OptSecs : 0.0, "x");
    Json.metric("dense_gate_kernels", double(Stats.GatesApplied),
                "count");
    Json.metric("dense_fused_ops", double(Stats.FusedOps), "count");
    Json.metric("dense_fused_blocks", double(Stats.FusedBlocks),
                "count");
    Json.metric("dense_amplitudes_touched", double(Amps), "count");
    Json.metric("dense_amps_per_sec", AmpsPerSec, "amps/sec");
    if (!Same)
      return 1;
  }

  if (Smoke) {
    // The timing bars need the full-scale sweeps; the smoke run has
    // already proven every path (both engines, dispatch, GHZ sanity, the
    // dense plan parity check).
    std::printf("\ntiming bars SKIPPED (smoke mode)\n");
    return 0;
  }
  // The bar times one run(), not the sweep's 500-qubit time over its shot
  // count: a batch samples its shots as Pauli frames on one shared
  // reference run, so that quotient no longer times an execution.
  Circuit Ghz500 = ghz(500);
  double At500 = seconds([&] { StabilizerBackend().run(Ghz500, 42); });
  Json.metric("stab_ghz_500q_single_shot_seconds", At500, "s");
  std::printf("\n500-qubit GHZ single shot: %.4f s (target < 1 s): %s\n",
              At500, At500 < 1.0 ? "PASS" : "FAIL");
  double Speedup = OptSecs > 0 ? RefSecs / OptSecs : 0.0;
  if (Cores < 4) {
    std::printf("dense single-shot >= 3x bar SKIPPED (needs >= 4 hardware "
                "threads; measured %.2fx on %u)\n",
                Speedup, Cores);
    return At500 < 1.0 ? 0 : 1;
  }
  std::printf("dense single-shot speedup at %uq: %.2fx (target >= 3x): %s\n",
              DenseN, Speedup, Speedup >= 3.0 ? "PASS" : "FAIL");
  return (At500 < 1.0 && Speedup >= 3.0) ? 0 : 1;
}
