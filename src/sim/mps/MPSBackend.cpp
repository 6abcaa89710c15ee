//===- MPSBackend.cpp - Matrix-product-state engine -----------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/mps/MPSBackend.h"

#include "sim/CircuitAnalysis.h"
#include "sim/mps/MPSState.h"

#include <cassert>

using namespace asdf;

namespace {

/// The per-shot RNG stream: same construction as the other engines, with
/// an engine-specific salt so an MPS shot never replays a dense shot's
/// stream for the same (seed, shot) pair.
std::mt19937_64 mpsRng(uint64_t Seed) {
  return std::mt19937_64(Seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE123ull);
}

/// Executes instructions [Start, end) of \p C on \p State, recording
/// measurement bits into \p R and honoring classical conditions.
void execute(const Circuit &C, size_t Start, MPSState &State, ShotResult &R,
             std::mt19937_64 &Rng) {
  for (size_t N = Start; N < C.Instrs.size(); ++N) {
    const CircuitInstr &I = C.Instrs[N];
    if (I.CondBit >= 0 &&
        R.Bits[static_cast<unsigned>(I.CondBit)] != I.CondVal)
      continue;
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate:
      State.apply(I);
      break;
    case CircuitInstr::Kind::Measure:
      R.Bits[static_cast<unsigned>(I.Cbit)] =
          State.measure(I.Targets[0], Rng);
      break;
    case CircuitInstr::Kind::Reset:
      State.reset(I.Targets[0], Rng);
      break;
    }
  }
}

} // namespace

bool MPSBackend::supports(const Circuit &C, const CircuitProfile &P) const {
  // Any width, any gate set, feed-forward included — but every gate must
  // fit one contracted block. Parametric circuits pass (like the dense
  // engine): runSweep binds them before execution; run()/runBatch assert.
  return P.MaxGateQubits <= MaxGateSites && C.NumQubits >= 1;
}

ShotResult MPSBackend::run(const Circuit &C, uint64_t Seed) const {
  assert(!C.isParametric() && "bind parameters before running");
  MPSState State(C.NumQubits, DefaultChi);
  std::mt19937_64 Rng = mpsRng(Seed);
  ShotResult R;
  R.Bits.assign(C.NumBits, false);
  execute(C, 0, State, R, Rng);
  return R;
}

std::vector<ShotResult> MPSBackend::runBatch(const Circuit &C, unsigned Shots,
                                             uint64_t Seed,
                                             const RunOptions &Opts) const {
  assert(!C.isParametric() && "bind parameters before running");
  if (Shots == 0)
    return {};

  // The unconditional gate prefix is identical for every shot and
  // consumes no randomness: run it once and fork the tensors per shot.
  size_t Prefix = analyzeCircuit(C).UnconditionalGatePrefix;
  MPSState Shared(C.NumQubits, Opts.MpsChi);
  Shared.setStats(Opts.SimCounters);
  for (size_t N = 0; N < Prefix; ++N)
    Shared.apply(C.Instrs[N]); // Unconditional gates by construction.
  Shared.setStats(nullptr);

  auto runRest = [&](MPSState &State, unsigned S, SimStats *Stats) {
    if (Opts.deadlineExpired())
      throw DeadlineExceeded();
    State.setStats(Stats);
    std::mt19937_64 Rng = mpsRng(deriveShotSeed(Seed, S));
    ShotResult R;
    R.Bits.assign(C.NumBits, false);
    execute(C, Prefix, State, R, Rng);
    return R;
  };

  std::vector<ShotResult> Results(Shots);
  if (Shots == 1) {
    Results[0] = runRest(Shared, 0, Opts.SimCounters);
    return Results;
  }

  unsigned Jobs = resolveJobCount(Opts.Jobs, Shots);
  std::vector<MPSState> WorkerState(Jobs, Shared);
  parallelShotLoop(Jobs, Shots, Opts.SimCounters,
                   [&](unsigned W, unsigned S, SimStats *Stats) {
                     WorkerState[W] = Shared;
                     Results[S] = runRest(WorkerState[W], S, Stats);
                   });
  return Results;
}
