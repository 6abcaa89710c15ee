//===- DifferentialTest.cpp - Differential fuzzing of the execution plan --===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the dense execution plan against the serial,
/// unfused reference path, StatevectorBackend::run(). ~200 random circuits
/// — mixed Clifford gates, rotations at arbitrary angles, multi-controlled
/// gates, mid-circuit measurement, reset, and feed-forward — each run as a
/// fused batch at jobs=1 and jobs=4 at a fixed seed, with per-shot results
/// required to agree bit-exactly. The batch shares per-shot seeds and
/// RNG-consumption order with the reference by construction; these tests
/// are what keeps that true as kernels evolve. Circuits ending in a
/// measure/reset tail wide enough to span several reduction chunks pin the
/// collapsed-register path amplitude by amplitude, and 14-qubit circuits
/// drive every branch of the batch — one shot, serial shots on split
/// kernels, shot-parallel workers — ideal and noisy.
///
/// A second battery pins the stabilizer tableau: jobs=1 vs jobs=4 must be
/// bit-exact, Pauli-frame batches must equal per-shot tableau runs shot
/// for shot (ideal and Pauli-noisy, up to 130 qubits), and sampled
/// distributions must match the dense engine's on random dynamic Clifford
/// circuits.
///
/// A third battery holds the transpile-o3 pass to the simulator on random
/// circuits rich in rotations: the same unitary up to global phase when
/// measurement-free, the same shots at a fixed seed when dynamic.
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "noise/NoiseModel.h"
#include "sim/CircuitAnalysis.h"
#include "sim/Fusion.h"
#include "sim/Simulator.h"
#include "sim/StabilizerBackend.h"
#include "sim/mps/MPSBackend.h"
#include "sim/mps/MPSState.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>

using namespace asdf;

namespace {

/// A random circuit over \p NumQubits qubits mixing Clifford gates,
/// rotations, Toffoli-class gates, mid-circuit measurement, reset, and
/// feed-forward, ending in measure-all. \p CliffordOnly restricts the gate
/// alphabet to what the tableau engine supports exactly. \p Rewritable
/// adds rotations, controlled and not, at multiples of pi/4 from -2pi to
/// 2pi, so that a circuit optimizer's merges and identity drops fire.
Circuit randomCircuit(std::mt19937_64 &Rng, unsigned NumQubits,
                      unsigned NumInstrs, bool CliffordOnly,
                      bool Rewritable = false) {
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  std::uniform_int_distribution<unsigned> PickOp(
      0, CliffordOnly ? 11 : Rewritable ? 17 : 15);
  std::uniform_int_distribution<unsigned> PickQubit(0, NumQubits - 1);
  std::uniform_real_distribution<double> PickAngle(-2.0 * M_PI, 2.0 * M_PI);
  std::uniform_int_distribution<int> PickEighths(-8, 8);
  const GateKind Rotations[] = {GateKind::P, GateKind::RX, GateKind::RY,
                                GateKind::RZ};
  std::uniform_int_distribution<unsigned> PickRotation(0, 3);
  auto Other = [&](unsigned A) {
    unsigned B = PickQubit(Rng);
    while (NumQubits > 1 && B == A)
      B = PickQubit(Rng);
    return B;
  };
  for (unsigned N = 0; N < NumInstrs; ++N) {
    unsigned A = PickQubit(Rng);
    switch (PickOp(Rng)) {
    case 0:
      C.append(CircuitInstr::gate(GateKind::H, {}, {A}));
      break;
    case 1:
      C.append(CircuitInstr::gate(GateKind::S, {}, {A}));
      break;
    case 2:
      C.append(CircuitInstr::gate(GateKind::Sdg, {}, {A}));
      break;
    case 3:
      C.append(CircuitInstr::gate(GateKind::X, {}, {A}));
      break;
    case 4:
      C.append(CircuitInstr::gate(GateKind::Y, {}, {A}));
      break;
    case 5:
      C.append(CircuitInstr::gate(GateKind::Z, {}, {A}));
      break;
    case 6:
      C.append(CircuitInstr::gate(GateKind::X, {Other(A)}, {A}));
      break;
    case 7:
      C.append(CircuitInstr::gate(GateKind::Z, {Other(A)}, {A}));
      break;
    case 8:
      C.append(CircuitInstr::gate(GateKind::Swap, {}, {A, Other(A)}));
      break;
    case 9:
      C.append(CircuitInstr::measure(A, A));
      break;
    case 10:
      C.append(CircuitInstr::reset(A));
      break;
    case 11: {
      // Feed-forward: condition a Clifford correction on any bit.
      CircuitInstr Fix = CircuitInstr::gate(
          N % 2 ? GateKind::X : GateKind::Z, {}, {A});
      Fix.CondBit = static_cast<int>(PickQubit(Rng));
      Fix.CondVal = N % 3 != 0;
      C.append(Fix);
      break;
    }
    case 12:
      C.append(CircuitInstr::gate(GateKind::T, {}, {A}));
      break;
    case 13:
      C.append(CircuitInstr::gate(
          N % 2 ? GateKind::RY : GateKind::RX, {}, {A}, PickAngle(Rng)));
      break;
    case 14:
      C.append(CircuitInstr::gate(
          N % 2 ? GateKind::RZ : GateKind::P, {}, {A}, PickAngle(Rng)));
      break;
    case 15: {
      if (NumQubits < 3) {
        C.append(CircuitInstr::gate(GateKind::Tdg, {}, {A}));
        break;
      }
      unsigned B = Other(A), D = Other(A);
      while (D == B)
        D = Other(A);
      C.append(CircuitInstr::gate(N % 2 ? GateKind::X : GateKind::Z,
                                  {B, D}, {A})); // Toffoli / CCZ
      break;
    }
    default: {
      std::vector<unsigned> Controls;
      if (NumQubits > 1 && Rng() % 2)
        Controls.push_back(Other(A));
      C.append(CircuitInstr::gate(Rotations[PickRotation(Rng)], Controls,
                                  {A}, PickEighths(Rng) * M_PI / 4));
      break;
    }
    }
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

void expectBatchesBitExact(const std::vector<ShotResult> &Want,
                           const std::vector<ShotResult> &Got,
                           const char *Config, unsigned Trial) {
  ASSERT_EQ(Want.size(), Got.size()) << Config << " trial " << Trial;
  for (size_t S = 0; S < Want.size(); ++S)
    ASSERT_EQ(Want[S].Bits, Got[S].Bits)
        << Config << " trial " << Trial << " shot " << S;
}

/// Shot S of the serial, unfused reference run() for S in [0, Shots).
std::vector<ShotResult> referenceShots(const Circuit &C, unsigned Shots,
                                       uint64_t Seed,
                                       const NoiseModel *Noise = nullptr) {
  StatevectorBackend Sv;
  std::vector<ShotResult> Want;
  for (unsigned S = 0; S < Shots; ++S)
    Want.push_back(Noise ? Sv.runNoisy(C, deriveShotSeed(Seed, S), *Noise)
                         : Sv.run(C, deriveShotSeed(Seed, S)));
  return Want;
}

//===----------------------------------------------------------------------===//
// Statevector: the fused batch vs the serial unfused reference
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, RandomCircuitsBitExactAcrossConfigs) {
  std::mt19937_64 Rng(0xD1FFEull);
  StatevectorBackend Sv;
  const unsigned Shots = 12;
  for (unsigned Trial = 0; Trial < 200; ++Trial) {
    unsigned NumQubits = 2 + Trial % 7; // 2..8 qubits
    Circuit C = randomCircuit(Rng, NumQubits, 18 + Trial % 24,
                              /*CliffordOnly=*/Trial % 4 == 0);
    uint64_t Seed = 1000 + Trial;
    std::vector<ShotResult> Want = referenceShots(C, Shots, Seed);

    // The fused batch at one and at four workers must replay run() bit for
    // bit: the amortized prefix, the fused matrices and the shot pool add
    // nothing observable.
    for (unsigned Jobs : {1u, 4u}) {
      RunOptions Opts;
      Opts.Jobs = Jobs;
      std::vector<ShotResult> Got = Sv.runBatch(C, Shots, Seed, Opts);
      expectBatchesBitExact(Want, Got, Jobs == 1 ? "j1" : "j4", Trial);
    }
  }
}

//===----------------------------------------------------------------------===//
// Parameter sweeps: runSweep vs recompile-per-point, at every worker count
//===----------------------------------------------------------------------===//

/// Lifts every rotation-family gate of \p C into a symbolic angle over up
/// to three parameters with varied scales and offsets (degree-space linear
/// forms), returning how many gates were lifted.
unsigned parameterize(Circuit &C, std::mt19937_64 &Rng) {
  C.ParamNames = {"a", "b", "c"};
  std::uniform_real_distribution<double> PickScale(-2.0, 2.0);
  std::uniform_real_distribution<double> PickOfs(-90.0, 90.0);
  unsigned Lifted = 0;
  for (CircuitInstr &I : C.Instrs) {
    if (I.TheKind != CircuitInstr::Kind::Gate)
      continue;
    if (!isParamGate(I.Gate))
      continue;
    I.ParamIdx = static_cast<int>(Lifted % 3);
    I.ParamScale = PickScale(Rng);
    I.ParamOfs = PickOfs(Rng);
    I.Param = 0.0;
    ++Lifted;
  }
  return Lifted;
}

TEST(DifferentialTest, SweepsBitExactToRecompilePerPoint) {
  // The runSweep contract: Results[P] == runBatch(bindCircuit(C,
  // Points[P]), Shots, deriveSweepPointSeed(Seed, P), Opts) bit-for-bit,
  // at every worker count. The fast path plans the fusion once
  // (planFusion reads no angle) and builds every point's fused ops from
  // that plan (buildFusedCircuit); these trials are what keeps that a
  // pure optimization.
  std::mt19937_64 Rng(0x5EE9ull);
  StatevectorBackend Sv;
  const unsigned Shots = 6;
  std::uniform_real_distribution<double> PickVal(-360.0, 360.0);
  for (unsigned Trial = 0; Trial < 25; ++Trial) {
    unsigned NumQubits = 2 + Trial % 5;
    Circuit C = randomCircuit(Rng, NumQubits, 14 + Trial % 18,
                              /*CliffordOnly=*/false);
    if (!parameterize(C, Rng))
      continue; // This trial rolled no rotations; nothing symbolic.
    std::vector<std::vector<double>> Points;
    for (unsigned P = 0; P < 4; ++P)
      Points.push_back({PickVal(Rng), PickVal(Rng), PickVal(Rng)});
    uint64_t Seed = 0xABC0 + Trial;

    for (unsigned Jobs : {1u, 4u}) {
      const char *Name = Jobs == 1 ? "sweep/j1" : "sweep/j4";
      RunOptions Opts;
      Opts.Jobs = Jobs;
      std::vector<std::vector<ShotResult>> Sweep =
          Sv.runSweep(C, Points, Shots, Seed, Opts);
      ASSERT_EQ(Sweep.size(), Points.size()) << Name;
      for (size_t P = 0; P < Points.size(); ++P) {
        std::vector<ShotResult> Want =
            Sv.runBatch(bindCircuit(C, Points[P]), Shots,
                        deriveSweepPointSeed(Seed, P), Opts);
        expectBatchesBitExact(Want, Sweep[P], Name, Trial);
      }
    }
  }
}

/// As parameterize(), but half the lifted gates get a scale of +-1, 2 or
/// -1/2 and an offset on the 90-degree grid, so points on that grid bind
/// them to exactly 0 (where RX and RY turn diagonal) or to multiples of
/// 90 degrees.
unsigned parameterizeOnGrid(Circuit &C, std::mt19937_64 &Rng) {
  C.ParamNames = {"a", "b", "c"};
  const double GridScales[] = {1.0, -1.0, 2.0, -0.5};
  std::uniform_real_distribution<double> PickScale(-2.0, 2.0);
  std::uniform_real_distribution<double> PickOfs(-90.0, 90.0);
  unsigned Lifted = 0;
  for (CircuitInstr &I : C.Instrs) {
    if (I.TheKind != CircuitInstr::Kind::Gate || !isParamGate(I.Gate))
      continue;
    bool OnGrid = Rng() % 2;
    I.ParamIdx = static_cast<int>(Lifted % 3);
    I.ParamScale = OnGrid ? GridScales[Rng() % 4] : PickScale(Rng);
    I.ParamOfs = OnGrid ? 90.0 * (static_cast<int>(Rng() % 3) - 1)
                        : PickOfs(Rng);
    I.Param = 0.0;
    ++Lifted;
  }
  return Lifted;
}

/// Layers of short one-qubit runs on every wire (rotations among
/// diagonal gates), each layer closed by a CX, a controlled phase or a
/// mid-circuit measurement. Many runs stay on one wire until they flush,
/// and there the bound angles decide between a diagonal entry and a
/// unitary.
Circuit rotationRuns(std::mt19937_64 &Rng, unsigned NumQubits,
                     unsigned Layers) {
  const GateKind Kinds[] = {GateKind::RX, GateKind::RY, GateKind::RZ,
                            GateKind::P,  GateKind::S,  GateKind::T,
                            GateKind::Z,  GateKind::RX};
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  for (unsigned L = 0; L < Layers; ++L) {
    for (unsigned Q = 0; Q < NumQubits; ++Q)
      for (unsigned G = 0, Len = 1 + Rng() % 3; G < Len; ++G)
        C.append(CircuitInstr::gate(Kinds[Rng() % 8], {}, {Q}, 0.0));
    unsigned A = Rng() % NumQubits;
    unsigned B = (A + 1 + Rng() % NumQubits) % NumQubits;
    if (Rng() % 2 || A == B)
      C.append(CircuitInstr::measure(A, A));
    else if (Rng() % 2)
      C.append(CircuitInstr::gate(GateKind::X, {A}, {B}));
    else
      C.append(CircuitInstr::gate(GateKind::P, {A}, {B}, 0.0));
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// Byte-for-byte plan equality: op kinds, indices, supports and stats,
/// and memcmp-equal matrices and phases.
void expectSamePlan(const FusedCircuit &Want, const FusedCircuit &Got,
                    unsigned Trial, size_t Point) {
  ASSERT_EQ(Want.Ops.size(), Got.Ops.size())
      << "trial " << Trial << " point " << Point;
  for (size_t K = 0; K < Want.Ops.size(); ++K) {
    const FusedOp &A = Want.Ops[K], &B = Got.Ops[K];
    ASSERT_EQ(A.TheKind, B.TheKind) << "trial " << Trial << " op " << K;
    EXPECT_EQ(A.InstrIndex, B.InstrIndex) << "trial " << Trial << " op " << K;
    EXPECT_EQ(A.Qubits, B.Qubits) << "trial " << Trial << " op " << K;
    ASSERT_EQ(A.Diag.size(), B.Diag.size())
        << "trial " << Trial << " op " << K;
    for (size_t E = 0; E < A.Diag.size(); ++E) {
      EXPECT_EQ(A.Diag[E].CtlMask, B.Diag[E].CtlMask);
      EXPECT_EQ(A.Diag[E].TargetBit, B.Diag[E].TargetBit);
      EXPECT_EQ(std::memcmp(&A.Diag[E].Phase0, &B.Diag[E].Phase0,
                            sizeof(A.Diag[E].Phase0)),
                0)
          << "trial " << Trial << " op " << K << " entry " << E;
      EXPECT_EQ(std::memcmp(&A.Diag[E].Phase1, &B.Diag[E].Phase1,
                            sizeof(A.Diag[E].Phase1)),
                0)
          << "trial " << Trial << " op " << K << " entry " << E;
    }
    ASSERT_EQ(A.BlockU.size(), B.BlockU.size())
        << "trial " << Trial << " op " << K;
    if (!A.BlockU.empty()) // memcmp must not see the null data() of empty.
      EXPECT_EQ(std::memcmp(A.BlockU.data(), B.BlockU.data(),
                            A.BlockU.size() * sizeof(A.BlockU[0])),
                0)
          << "trial " << Trial << " op " << K;
  }
  EXPECT_EQ(Want.UnconditionalPrefixOps, Got.UnconditionalPrefixOps);
  EXPECT_EQ(Want.GatesIn, Got.GatesIn);
  EXPECT_EQ(Want.GatesFused, Got.GatesFused);
  EXPECT_EQ(Want.SweepsCoalesced, Got.SweepsCoalesced);
  EXPECT_EQ(Want.BlocksFormed, Got.BlocksFormed);
  EXPECT_EQ(Want.WidestBlock, Got.WidestBlock);
}

TEST(DifferentialTest, FusionPlanReadsNoAngle) {
  // One plan of the parametric circuit must build, for every binding,
  // exactly the plan a fresh fuse of the bound circuit gives: planning
  // reads no angle. Points on the 90-degree grid bind some rotations to
  // exactly 0, so one-qubit runs flip between a diagonal entry and a
  // unitary, and the coalescing of diagonal entries changes with them.
  std::mt19937_64 Rng(0x9A7Eull);
  NoiseModel Noise;
  Noise.addGateChannel(GateKind::H, KrausChannel::depolarizing(0.05));
  Noise.addQubitChannel(1, KrausChannel::amplitudeDamping(0.1));
  std::uniform_real_distribution<double> PickVal(-360.0, 360.0);
  unsigned Ran = 0, KindsVaried = 0;
  for (unsigned Trial = 0; Trial < 260; ++Trial) {
    unsigned NumQubits = 1 + Trial % 6;
    Circuit C = Trial % 3 ? randomCircuit(Rng, NumQubits, 12 + Trial % 30,
                                          /*CliffordOnly=*/false,
                                          /*Rewritable=*/true)
                          : rotationRuns(Rng, NumQubits, 2 + Trial % 5);
    if (!parameterizeOnGrid(C, Rng))
      continue;
    ++Ran;
    const NoiseModel *M = Trial % 2 ? &Noise : nullptr;
    FusionPlan Plan = planFusion(C, M);
    std::vector<std::vector<FusedOp::Kind>> Kinds;
    for (size_t P = 0; P < 4; ++P) {
      std::vector<double> Point;
      for (unsigned V = 0; V < 3; ++V)
        Point.push_back(Rng() % 3 ? 90.0 * (static_cast<int>(Rng() % 3) - 1)
                                  : PickVal(Rng));
      Circuit Bound = bindCircuit(C, Point);
      FusedCircuit Got = buildFusedCircuit(Plan, Bound);
      expectSamePlan(fuseCircuit(Bound, M), Got, Trial, P);
      Kinds.emplace_back();
      for (const FusedOp &Op : Got.Ops)
        Kinds.back().push_back(Op.TheKind);
    }
    if (std::count(Kinds.begin(), Kinds.end(), Kinds[0]) != 4)
      ++KindsVaried;
  }
  EXPECT_GE(Ran, 200u);
  // The angle-dependent flush decisions were exercised, not just reused.
  EXPECT_GT(KindsVaried, 0u);
  std::printf("[ FUSION   ] %u parametric circuits, %u with op kinds that "
              "vary by point\n",
              Ran, KindsVaried);
}

TEST(DifferentialTest, NoisySweepsBitExactToRecompilePerPoint) {
  // runSweep under a Kraus model: noisy gates stay unfused and sample a
  // trajectory branch per shot, readout errors flip recorded bits, and
  // each point must still replay the bound circuit's batch at the point's
  // seed, at every worker count.
  NoiseModel Noise;
  Noise.addGateChannel(GateKind::H, KrausChannel::depolarizing(0.05));
  Noise.addQubitChannel(1, KrausChannel::amplitudeDamping(0.1));
  Noise.setReadoutError(0.02, 0.05);
  std::mt19937_64 Rng(0x7015Eull);
  StatevectorBackend Sv;
  const unsigned Shots = 6;
  std::uniform_real_distribution<double> PickVal(-360.0, 360.0);
  unsigned Points = 0;
  for (unsigned Trial = 0; Trial < 50; ++Trial) {
    unsigned NumQubits = 2 + Trial % 5;
    Circuit C = randomCircuit(Rng, NumQubits, 14 + Trial % 18,
                              /*CliffordOnly=*/false);
    if (!parameterize(C, Rng))
      continue;
    std::vector<std::vector<double>> Pts;
    for (unsigned P = 0; P < 4; ++P)
      Pts.push_back({PickVal(Rng), PickVal(Rng), PickVal(Rng)});
    uint64_t Seed = 0xD00D + Trial;
    for (unsigned Jobs : {1u, 4u}) {
      const char *Name = Jobs == 1 ? "noisy-sweep/j1" : "noisy-sweep/j4";
      RunOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Noise = &Noise;
      std::vector<std::vector<ShotResult>> Sweep =
          Sv.runSweep(C, Pts, Shots, Seed, Opts);
      ASSERT_EQ(Sweep.size(), Pts.size()) << Name;
      for (size_t P = 0; P < Pts.size(); ++P) {
        std::vector<ShotResult> Want =
            Sv.runBatch(bindCircuit(C, Pts[P]), Shots,
                        deriveSweepPointSeed(Seed, P), Opts);
        expectBatchesBitExact(Want, Sweep[P], Name, Trial);
        ++Points;
      }
    }
  }
  EXPECT_GE(Points, 300u);
}

//===----------------------------------------------------------------------===//
// Measure/reset tails: the collapsed register vs full-state collapses
//===----------------------------------------------------------------------===//

/// A rotation prefix, then a shuffled tail of only measure and reset:
/// every qubit measured once, half as many measured again and as many
/// reset (before or after their measurement). Varied RY angles (in [0.1,
/// \p MaxAngle)) and a CX ladder make every probability a sum of many
/// distinct terms, so any regrouping of the sum shows in its last bits.
/// At 18, 19 and 20 qubits the sums span 2, 4 and 8 reduction chunks.
Circuit measureTailCircuit(unsigned NumQubits, std::mt19937_64 &Rng,
                           double MaxAngle = 3.0) {
  Circuit C;
  C.NumQubits = NumQubits;
  std::uniform_real_distribution<double> PickAngle(0.1, MaxAngle);
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, PickAngle(Rng)));
  for (unsigned Q = 1; Q < NumQubits; ++Q)
    C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  for (unsigned Q = 0; Q < NumQubits; Q += 3)
    C.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, PickAngle(Rng)));
  std::vector<CircuitInstr> Tail;
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    Tail.push_back(CircuitInstr::measure(Q, Q));
  std::uniform_int_distribution<unsigned> PickQubit(0, NumQubits - 1);
  unsigned Bits = NumQubits;
  for (unsigned K = 0; K < NumQubits / 2; ++K) {
    Tail.push_back(CircuitInstr::measure(PickQubit(Rng), Bits++));
    Tail.push_back(CircuitInstr::reset(PickQubit(Rng)));
  }
  std::shuffle(Tail.begin(), Tail.end(), Rng);
  for (CircuitInstr &I : Tail)
    C.append(std::move(I));
  C.NumBits = Bits;
  return C;
}

TEST(DifferentialTest, MeasureTailAmplitudesExact) {
  // After every tail step the collapsed register must hold exactly the
  // amplitudes StateVector::measure/reset leave (== on doubles) and must
  // have sampled against the identical probability. Shot bits alone cannot
  // pin this: a sum regrouped off the full state's chunk grid rounds
  // differently, yet almost never flips a sampled outcome.
  std::mt19937_64 Rng(0x7A11ull);
  for (unsigned NumQubits : {18u, 19u, 20u}) {
    Circuit C = measureTailCircuit(NumQubits, Rng);
    size_t Prefix = analyzeCircuit(C).UnconditionalGatePrefix;
    StateVector Shared(NumQubits);
    for (size_t N = 0; N < Prefix; ++N) {
      const CircuitInstr &I = C.Instrs[N];
      Shared.apply(I.Gate, I.Controls, I.Targets, I.Param);
    }
    // Variant 0 reads the shared state into scratch with split sums and a
    // split first collapse; variant 1 collapses a copy in place, serially.
    for (unsigned Variant = 0; Variant < 2; ++Variant) {
      StateVector Ref = Shared, Own = Shared;
      CollapsedRegister Reg;
      if (Variant == 0) {
        Reg.setParallelJobs(4);
        Reg.start(Shared);
      } else {
        Reg.startInPlace(Own);
      }
      std::mt19937_64 RefRng(NumQubits + 100 * Variant);
      std::mt19937_64 RegRng(NumQubits + 100 * Variant);
      for (size_t N = Prefix; N < C.Instrs.size(); ++N) {
        const CircuitInstr &I = C.Instrs[N];
        unsigned Q = I.Targets[0];
        std::string Where = std::to_string(NumQubits) + " qubits, variant " +
                            std::to_string(Variant) + ", step " +
                            std::to_string(N - Prefix) + ": " + I.str();
        double P1 = Ref.probOne(Q);
        if (I.TheKind == CircuitInstr::Kind::Measure) {
          ASSERT_EQ(Ref.measure(Q, RefRng), Reg.measure(Q, RegRng)) << Where;
        } else {
          Ref.reset(Q, RefRng);
          Reg.reset(Q, RegRng);
        }
        ASSERT_EQ(Reg.lastProbOne(), P1) << Where;
        // Survivors in ascending index order, exact zeros everywhere else.
        const std::vector<Amplitude> &Want = Ref.amplitudes();
        const Amplitude *Got = Reg.survivors();
        uint64_t K = 0, Mismatches = 0;
        for (uint64_t Idx = 0; Idx < Want.size(); ++Idx) {
          if ((Idx & Reg.fixedMask()) == Reg.fixedValues())
            Mismatches += Want[Idx] != Got[K++];
          else
            Mismatches += Want[Idx] != Amplitude(0.0, 0.0);
        }
        ASSERT_EQ(K, Reg.size()) << Where;
        ASSERT_EQ(Mismatches, 0u) << Where;
      }
    }
  }
}

TEST(DifferentialTest, InPlaceCollapseSplitsExactly) {
  // A collapse inside the buffer it reads splits across workers in
  // doubling rounds of pairs. On a random 17-qubit state, measuring the
  // top, the bottom and a middle qubit splits (at least 2^14 pairs), and
  // must leave exactly (== on doubles) the survivors of a serial in-place
  // collapse, as must the serial measures that follow.
  const unsigned N = 17;
  std::mt19937_64 Rng(0x1A9ull);
  std::normal_distribution<double> Gauss(0.0, 1.0);
  StateVector Start(N);
  double Norm = 0.0;
  for (Amplitude &A : Start.amplitudes()) {
    A = Amplitude(Gauss(Rng), Gauss(Rng));
    Norm += std::norm(A);
  }
  for (Amplitude &A : Start.amplitudes())
    A /= std::sqrt(Norm);
  for (unsigned Seed = 0; Seed < 4; ++Seed) {
    StateVector Serial = Start, Split = Start;
    CollapsedRegister A, B;
    A.startInPlace(Serial);
    B.setParallelJobs(4);
    B.startInPlace(Split);
    std::mt19937_64 RngA(Seed), RngB(Seed);
    for (unsigned Q : {0u, 16u, 8u, 15u, 1u}) {
      ASSERT_EQ(A.measure(Q, RngA), B.measure(Q, RngB))
          << "seed " << Seed << ", qubit " << Q;
      ASSERT_EQ(A.size(), B.size());
      ASSERT_TRUE(std::equal(A.survivors(), A.survivors() + A.size(),
                             B.survivors()))
          << "seed " << Seed << ", qubit " << Q;
    }
  }
}

/// Offset[S] is the global index pattern of local basis state S of a
/// block on \p Qubits (Qubits[0] owns the local MSB), as applyBlock
/// enumerates it; Offset.back() masks the block's bits.
std::vector<uint64_t> blockOffsets(unsigned NumQubits,
                                   const std::vector<unsigned> &Qubits) {
  const unsigned M = static_cast<unsigned>(Qubits.size());
  std::vector<uint64_t> Offset(size_t(1) << M, 0);
  for (unsigned S = 0; S < Offset.size(); ++S)
    for (unsigned J = 0; J < M; ++J)
      if ((S >> (M - 1 - J)) & 1)
        Offset[S] |= uint64_t(1) << (NumQubits - 1 - Qubits[J]);
  return Offset;
}

/// The scalar row product: group by group, each output row summed over the
/// columns in ascending order, on split re/im doubles. The SIMD lane
/// kernel must reproduce its rounding bit for bit.
std::vector<Amplitude> scalarBlockProduct(std::vector<Amplitude> A,
                                          unsigned NumQubits,
                                          const std::vector<unsigned> &Qubits,
                                          const std::vector<Amplitude> &U) {
  const std::vector<uint64_t> Offset = blockOffsets(NumQubits, Qubits);
  const unsigned Dim = static_cast<unsigned>(Offset.size());
  for (uint64_t Base = 0; Base < A.size(); ++Base) {
    if (Base & Offset.back())
      continue;
    double Vr[8], Vi[8], Wr[8], Wi[8];
    for (unsigned S = 0; S < Dim; ++S) {
      Vr[S] = A[Base | Offset[S]].real();
      Vi[S] = A[Base | Offset[S]].imag();
    }
    for (unsigned R = 0; R < Dim; ++R) {
      double Ar = 0.0, Ai = 0.0;
      for (unsigned S = 0; S < Dim; ++S) {
        double Ur = U[R * Dim + S].real(), Ui = U[R * Dim + S].imag();
        Ar += Ur * Vr[S] - Ui * Vi[S];
        Ai += Ur * Vi[S] + Ui * Vr[S];
      }
      Wr[R] = Ar;
      Wi[R] = Ai;
    }
    for (unsigned S = 0; S < Dim; ++S)
      A[Base | Offset[S]] = Amplitude(Wr[S], Wi[S]);
  }
  return A;
}

/// The plain complex matrix-vector product, group by group.
std::vector<Amplitude> complexBlockProduct(const std::vector<Amplitude> &A,
                                           unsigned NumQubits,
                                           const std::vector<unsigned> &Qubits,
                                           const std::vector<Amplitude> &U) {
  const std::vector<uint64_t> Offset = blockOffsets(NumQubits, Qubits);
  const unsigned Dim = static_cast<unsigned>(Offset.size());
  std::vector<Amplitude> W = A;
  for (uint64_t Base = 0; Base < A.size(); ++Base) {
    if (Base & Offset.back())
      continue;
    for (unsigned R = 0; R < Dim; ++R) {
      Amplitude Sum(0.0, 0.0);
      for (unsigned S = 0; S < Dim; ++S)
        Sum += U[R * Dim + S] * A[Base | Offset[S]];
      W[Base | Offset[R]] = Sum;
    }
  }
  return W;
}

TEST(DifferentialTest, BlockKernelAmplitudesExact) {
  // Every fused block, dense, sparse or diagonal, and every uncontrolled
  // 2x2, lone gate or fused run, goes through one SIMD kernel. Its
  // amplitudes must not depend on how the groups split across workers (16
  // qubits: every block splits into 4 chunks), every block must round
  // exactly as the scalar row product (skipping an exact-zero entry
  // changes at most the sign of a zero, which == ignores), and must agree
  // with a plain complex matrix-vector product. Supports cover every
  // layout of index bits 0 and 1, and 3- and 4-qubit states take the
  // kernel's small-state path.
  std::mt19937_64 Rng(0xB10Cull);
  std::normal_distribution<double> Gauss(0.0, 1.0);
  std::uniform_real_distribution<double> Unit(-1.0, 1.0);
  auto RandomState = [&](unsigned N) {
    std::vector<Amplitude> Start(uint64_t(1) << N);
    double Norm = 0.0;
    for (Amplitude &A : Start) {
      A = Amplitude(Gauss(Rng), Gauss(Rng));
      Norm += std::norm(A);
    }
    for (Amplitude &A : Start)
      A /= std::sqrt(Norm);
    return Start;
  };
  // Runs \p Apply at several worker counts, requires them equal, and
  // returns the serial result.
  auto EveryJobs = [](const std::vector<Amplitude> &Start, unsigned N,
                      const std::string &Where,
                      const std::function<void(StateVector &)> &Apply) {
    std::vector<Amplitude> Serial;
    for (unsigned Jobs : {1u, 2u, 3u, 4u, 8u}) {
      StateVector SV(N);
      SV.amplitudes() = Start;
      SV.setParallelJobs(Jobs);
      Apply(SV);
      if (Jobs == 1)
        Serial = SV.amplitudes();
      else
        EXPECT_TRUE(SV.amplitudes() == Serial) << Where << ", jobs " << Jobs;
    }
    return Serial;
  };

  // Qubit N-1 owns bit 0 and qubit 0 the top bit.
  const std::vector<std::pair<unsigned, std::vector<unsigned>>> Supports = {
      {16, {15}},         {16, {14}},       {16, {0}},
      {16, {7}},          {16, {14, 15}},   {16, {0, 1}},
      {16, {3, 12}},      {16, {0, 15}},    {16, {3, 14}},
      {16, {13, 14, 15}}, {16, {0, 1, 2}},  {16, {0, 8, 15}},
      {16, {2, 6, 11}},   {16, {4, 9, 14}}, {3, {0, 1, 2}},
      {4, {0, 1, 2}},     {4, {1, 2, 3}},   {4, {0, 3}}};
  for (const auto &[N, Q] : Supports) {
    const std::vector<Amplitude> Start = RandomState(N);
    const unsigned M = static_cast<unsigned>(Q.size()), Dim = 1u << M;
    std::vector<Amplitude> Dense(Dim * Dim), Diagonal(Dim * Dim);
    for (Amplitude &X : Dense)
      X = Amplitude(Unit(Rng), Unit(Rng));
    for (unsigned R = 0; R < Dim; ++R)
      Diagonal[R * Dim + R] = std::polar(1.0, M_PI * Unit(Rng));
    // Two nonzeros per row: an H, then a CX or CCX onto the last qubit.
    std::vector<Amplitude> Sparse =
        gateBlockMatrix(CircuitInstr::gate(GateKind::H, {}, {Q[0]}), Q);
    if (M > 1)
      Sparse = blockMatmul(
          gateBlockMatrix(
              CircuitInstr::gate(GateKind::X,
                                 std::vector<unsigned>(Q.begin(), Q.end() - 1),
                                 {Q.back()}),
              Q),
          Sparse, Dim);
    const std::pair<const char *, const std::vector<Amplitude> *> Blocks[] = {
        {"dense", &Dense}, {"sparse", &Sparse}, {"diagonal", &Diagonal}};
    for (const auto &[Kind, U] : Blocks) {
      std::string Where = std::string(Kind) + " block on " +
                          std::to_string(M) + " qubits from " +
                          std::to_string(Q[0]) + " of " + std::to_string(N);
      std::vector<Amplitude> Serial =
          EveryJobs(Start, N, Where,
                    [&](StateVector &SV) { SV.applyBlock(Q, *U); });
      EXPECT_TRUE(Serial == scalarBlockProduct(Start, N, Q, *U)) << Where;
      std::vector<Amplitude> Want = complexBlockProduct(Start, N, Q, *U);
      double MaxDiff = 0.0;
      for (uint64_t I = 0; I < Want.size(); ++I)
        MaxDiff = std::max(MaxDiff, std::abs(Want[I] - Serial[I]));
      EXPECT_LE(MaxDiff, 1e-13) << Where;
    }
  }

  // On index bits 0, 1 and 15, a fused 1-qubit block, dense and with a
  // zero entry, and each lone uncontrolled gate that is neither X nor a
  // phase on |1> round as the 2x2 scalar row product.
  const unsigned N = 16;
  const std::vector<Amplitude> Start = RandomState(N);
  for (unsigned Q : {15u, 14u, 0u}) {
    const std::string Bit = " on bit " + std::to_string(N - 1 - Q);
    for (bool Sparse : {false, true}) {
      std::vector<Amplitude> U(4);
      for (Amplitude &X : U)
        X = Amplitude(Unit(Rng), Unit(Rng));
      if (Sparse)
        U[2] = 0.0;
      std::string Where = std::string(Sparse ? "sparse" : "dense") +
                          " 1-qubit block" + Bit;
      std::vector<Amplitude> Serial = EveryJobs(
          Start, N, Where, [&](StateVector &SV) { SV.applyBlock({Q}, U); });
      EXPECT_TRUE(Serial == scalarBlockProduct(Start, N, {Q}, U)) << Where;
    }
    for (GateKind G : {GateKind::H, GateKind::Y, GateKind::RX, GateKind::RY,
                       GateKind::RZ}) {
      const double Theta = 0.7;
      const Mat2 U = gateMatrix2(G, Theta);
      std::string Where = std::string("lone ") + gateKindName(G) + Bit;
      std::vector<Amplitude> Serial =
          EveryJobs(Start, N, Where,
                    [&](StateVector &SV) { SV.apply(G, {}, {Q}, Theta); });
      EXPECT_TRUE(Serial == scalarBlockProduct(Start, N, {Q},
                                               {U.M[0][0], U.M[0][1],
                                                U.M[1][0], U.M[1][1]}))
          << Where;
    }
  }
}

/// The batch shapes that reach each branch of the dense batch core on
/// states of 14 qubits or more: it runs the rest of each shot
/// shot-parallel when there are at least two shots per worker, and one
/// shot after another on split kernels below that. A single shot finishes
/// on the shared state itself.
struct BatchShape {
  unsigned Jobs;
  unsigned Shots;
  const char *Name;
};
const BatchShape BatchShapes[] = {
    {4, 1, "one shot/j4"},
    {4, 4, "split kernels/j4"},
    {4, 8, "shot-parallel/j4"},
    {1, 4, "shot-parallel/j1"},
};

/// Runs \p C as every BatchShape and checks each against \p Want, the
/// reference shots (at least 8).
void expectEveryShapeMatches(const Circuit &C, uint64_t Seed,
                             const std::vector<ShotResult> &Want,
                             const NoiseModel *Noise, unsigned Trial) {
  StatevectorBackend Sv;
  for (const BatchShape &Shape : BatchShapes) {
    RunOptions Opts;
    Opts.Jobs = Shape.Jobs;
    Opts.Noise = Noise;
    expectBatchesBitExact(
        std::vector<ShotResult>(Want.begin(), Want.begin() + Shape.Shots),
        Sv.runBatch(C, Shape.Shots, Seed, Opts), Shape.Name, Trial);
  }
}

TEST(DifferentialTest, MeasureTailBitExactAcrossConfigs) {
  // The same circuits through every batch branch that runs a tail on the
  // register — one shot, split kernels, shot-parallel, a sweep — must
  // replay per-shot run() bit-exactly.
  std::mt19937_64 Rng(0x7A11ull);
  StatevectorBackend Sv;
  for (unsigned NumQubits : {18u, 19u, 20u}) {
    Circuit C = measureTailCircuit(NumQubits, Rng);
    uint64_t Seed = 0x7A10 + NumQubits;
    expectEveryShapeMatches(C, Seed, referenceShots(C, 8, Seed), nullptr,
                            NumQubits);
  }

  // bind-run: the sweep core takes the same tail path per point.
  Circuit C = measureTailCircuit(18, Rng);
  ASSERT_GT(parameterize(C, Rng), 0u);
  std::vector<std::vector<double>> Points = {{10.0, -20.0, 30.0},
                                             {-45.0, 60.0, 75.0}};
  std::vector<std::vector<ShotResult>> WantSweep(Points.size());
  for (size_t P = 0; P < Points.size(); ++P)
    WantSweep[P] = referenceShots(bindCircuit(C, Points[P]), 8,
                                  deriveSweepPointSeed(0x5EED, P));
  for (const BatchShape &Shape : BatchShapes) {
    RunOptions Opts;
    Opts.Jobs = Shape.Jobs;
    std::vector<std::vector<ShotResult>> Sweep =
        Sv.runSweep(C, Points, Shape.Shots, 0x5EED, Opts);
    ASSERT_EQ(Sweep.size(), Points.size()) << Shape.Name;
    for (size_t P = 0; P < Points.size(); ++P)
      expectBatchesBitExact(std::vector<ShotResult>(WantSweep[P].begin(),
                                                    WantSweep[P].begin() +
                                                        Shape.Shots),
                            Sweep[P], Shape.Name, unsigned(P));
  }

  // A second walk group of 17 shots. Small angles leave most qubits near
  // |0>, so the shots share most outcome prefixes; readout error flips
  // recorded bits without splitting the trie. The walk's work depends on
  // the outcomes alone, so every worker count counts the same.
  Circuit Small = measureTailCircuit(12, Rng, 0.4);
  NoiseModel Readout;
  Readout.setReadoutError(0.02, 0.03);
  const unsigned Shots = StatevectorBackend::TailGroupShots + 17;
  const uint64_t Seed = 0x6A0B;
  std::vector<ShotResult> Want = referenceShots(Small, Shots, Seed, &Readout);
  SimStats J1;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SimStats Got;
    RunOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Noise = &Readout;
    Opts.SimCounters = &Got;
    expectBatchesBitExact(Want, Sv.runBatch(Small, Shots, Seed, Opts),
                          "two groups", Jobs);
    if (Jobs == 1) {
      J1 = Got;
      EXPECT_GT(J1.ReadoutFlips, 0u);
      // Per-shot registers would run 24 tail kernels a shot; the walk
      // runs fewer than one.
      EXPECT_LT(J1.GatesApplied, uint64_t(Shots));
      continue;
    }
    EXPECT_EQ(Got.GatesApplied, J1.GatesApplied) << "jobs " << Jobs;
    EXPECT_EQ(Got.AmplitudesTouched, J1.AmplitudesTouched) << "jobs " << Jobs;
    EXPECT_EQ(Got.ReadoutFlips, J1.ReadoutFlips) << "jobs " << Jobs;
  }
}

TEST(DifferentialTest, EveryBatchBranchMatchesTheReference) {
  // 14 qubits: 2^13 pairs, enough for the kernels to split, so each
  // BatchShape takes its own branch of the batch core. The circuits:
  // gates after a mid-circuit measurement (every shot forks the prefix
  // state), a pure measure/reset tail (every shot runs on a collapsed
  // register), and both again under noise — Kraus channels on the gates,
  // which end the shared prefix at the first noisy gate, and readout
  // error alone, which leaves the tail on the register.
  std::mt19937_64 Rng(0xB7A4Cull);
  Circuit Forked;
  Forked.NumQubits = 14;
  Forked.NumBits = 14;
  for (unsigned Q = 0; Q < 14; ++Q) {
    Forked.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
    Forked.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, 0.2 + 0.15 * Q));
  }
  for (unsigned Q = 1; Q < 14; ++Q)
    Forked.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  Forked.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  Forked.append(Fix);
  Forked.append(CircuitInstr::gate(GateKind::RZ, {}, {1}, 0.9));
  Forked.append(CircuitInstr::gate(GateKind::T, {}, {2}));
  for (unsigned Q = 1; Q < 14; ++Q)
    Forked.append(CircuitInstr::measure(Q, Q));
  Circuit Tail = measureTailCircuit(14, Rng);

  NoiseModel Gates;
  Gates.addGateChannel(GateKind::RY, KrausChannel::phaseDamping(0.1));
  Gates.addGateChannel(GateKind::T, KrausChannel::amplitudeDamping(0.2));
  Gates.setReadoutError(0.05, 0.08);
  NoiseModel Readout;
  Readout.setReadoutError(0.1, 0.15);

  struct Case {
    const Circuit *C;
    const NoiseModel *Noise;
  };
  const Case Cases[] = {{&Forked, nullptr},
                        {&Tail, nullptr},
                        {&Forked, &Gates},
                        {&Tail, &Gates},
                        {&Tail, &Readout}};
  for (unsigned I = 0; I < std::size(Cases); ++I) {
    uint64_t Seed = 0xB0 + I;
    expectEveryShapeMatches(*Cases[I].C, Seed,
                            referenceShots(*Cases[I].C, 8, Seed,
                                           Cases[I].Noise),
                            Cases[I].Noise, I);
  }
}

TEST(DifferentialTest, BlockFusedMatricesEqualGateProducts) {
  // The block-fusion property: a FusedOp::Block's matrix equals the
  // product of its constituent gates' full matrices over the block
  // support, computed here independently with the exported
  // gateBlockMatrix/blockMatmul utilities. A non-diagonal 3-qubit opener
  // guarantees every following gate lands in the same block.
  std::mt19937_64 Rng(0xB10Cull);
  std::uniform_int_distribution<unsigned> PickOp(0, 12);
  std::uniform_int_distribution<unsigned> PickQ(0, 2);
  std::uniform_real_distribution<double> Angle(-3.0, 3.0);
  for (unsigned Trial = 0; Trial < 60; ++Trial) {
    Circuit C;
    C.NumQubits = 3;
    C.NumBits = 3;
    // Toffoli opener: a non-diagonal gate spanning all three qubits, so
    // the block covers the full support from the first instruction and
    // every later gate merges into it.
    C.append(CircuitInstr::gate(GateKind::X, {0, 1}, {2}));
    unsigned NumGates = 4 + Trial % 12;
    for (unsigned N = 0; N < NumGates; ++N) {
      unsigned A = PickQ(Rng);
      unsigned B = (A + 1 + PickQ(Rng) % 2) % 3;
      switch (PickOp(Rng)) {
      case 0:
        C.append(CircuitInstr::gate(GateKind::H, {}, {A}));
        break;
      case 1:
        C.append(CircuitInstr::gate(GateKind::S, {}, {A}));
        break;
      case 2:
        C.append(CircuitInstr::gate(GateKind::T, {}, {A}));
        break;
      case 3:
        C.append(CircuitInstr::gate(GateKind::X, {}, {A}));
        break;
      case 4:
        C.append(CircuitInstr::gate(GateKind::Y, {}, {A}));
        break;
      case 5:
        C.append(CircuitInstr::gate(GateKind::RX, {}, {A}, Angle(Rng)));
        break;
      case 6:
        C.append(CircuitInstr::gate(GateKind::RY, {}, {A}, Angle(Rng)));
        break;
      case 7:
        C.append(CircuitInstr::gate(GateKind::RZ, {}, {A}, Angle(Rng)));
        break;
      case 8:
        C.append(CircuitInstr::gate(GateKind::P, {}, {A}, Angle(Rng)));
        break;
      case 9:
        C.append(CircuitInstr::gate(GateKind::X, {B}, {A}));
        break;
      case 10:
        C.append(CircuitInstr::gate(GateKind::Z, {B}, {A}));
        break;
      case 11:
        C.append(CircuitInstr::gate(GateKind::Swap, {}, {A, B}));
        break;
      default:
        C.append(CircuitInstr::gate(GateKind::X, {(A + 1) % 3, (A + 2) % 3},
                                    {A}));
        break;
      }
    }
    FusedCircuit FC = fuseCircuit(C);
    ASSERT_EQ(FC.Ops.size(), 1u) << "trial " << Trial << ": " << FC.summary();
    const FusedOp &Op = FC.Ops[0];
    ASSERT_EQ(Op.TheKind, FusedOp::Kind::Block) << "trial " << Trial;
    const std::vector<unsigned> Support = {0, 1, 2};
    ASSERT_EQ(Op.Qubits, Support);
    std::vector<std::complex<double>> Want =
        gateBlockMatrix(C.Instrs[0], Support);
    for (size_t N = 1; N < C.Instrs.size(); ++N)
      Want = blockMatmul(gateBlockMatrix(C.Instrs[N], Support), Want, 8);
    ASSERT_EQ(Op.BlockU.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_LT(std::abs(Op.BlockU[I] - Want[I]), 1e-12)
          << "trial " << Trial << " entry " << I;
  }
}

TEST(DifferentialTest, DuplicateControlsAreNotDroppedByFusion) {
  // Regression: a repeated control qubit (Controls={0,0}) ORs into one
  // mask bit in the engines — it is a plain CX, not a degenerate no-op.
  // The fusion pass must keep it (only control == target gates drop).
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0, 0}, {1}));
  for (unsigned Q = 0; Q < 2; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  StatevectorBackend Sv;
  RunOptions Fused;
  Fused.Jobs = 1;
  std::vector<ShotResult> Want = referenceShots(C, 1, 5);
  std::vector<ShotResult> Got = Sv.runBatch(C, 1, 5, Fused);
  ASSERT_EQ(Want[0].Bits, Got[0].Bits);
  EXPECT_TRUE(Want[0].Bits[0] && Want[0].Bits[1]); // X then CX: |11>

  // And a control-on-target gate still drops as the no-op it always was.
  Circuit D;
  D.NumQubits = 2;
  D.NumBits = 2;
  D.append(CircuitInstr::gate(GateKind::X, {1}, {1}));
  for (unsigned Q = 0; Q < 2; ++Q)
    D.append(CircuitInstr::measure(Q, Q));
  EXPECT_EQ(referenceShots(D, 1, 5)[0].Bits,
            Sv.runBatch(D, 1, 5, Fused)[0].Bits);
}

TEST(DifferentialTest, FusionPlanCoversEveryGate) {
  // Structural invariant behind the differential battery: every gate of
  // the source circuit lands in the plan exactly once (fused, swept, or
  // passed through), and barriers never end up inside the prefix.
  std::mt19937_64 Rng(99);
  for (unsigned Trial = 0; Trial < 50; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial % 5, 30, Trial % 2 == 0);
    FusedCircuit FC = fuseCircuit(C);
    ASSERT_EQ(FC.Source, &C);
    size_t GateInstrs = 0;
    for (const CircuitInstr &I : C.Instrs)
      if (I.TheKind == CircuitInstr::Kind::Gate)
        ++GateInstrs;
    EXPECT_EQ(FC.GatesIn, GateInstrs) << "trial " << Trial;
    ASSERT_LE(FC.UnconditionalPrefixOps, FC.Ops.size());
    for (size_t N = 0; N < FC.UnconditionalPrefixOps; ++N) {
      const FusedOp &Op = FC.Ops[N];
      if (Op.TheKind != FusedOp::Kind::Instr)
        continue;
      const CircuitInstr &I = C.Instrs[Op.InstrIndex];
      EXPECT_TRUE(I.TheKind == CircuitInstr::Kind::Gate && I.CondBit < 0)
          << "barrier inside prefix, trial " << Trial << " op " << N;
    }
  }
}

TEST(DifferentialTest, FusionCoalescesRotationRuns) {
  // A rotation cascade on one wire plus a CZ chain must actually shrink:
  // the plan is pointless if nothing fuses.
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 3;
  for (unsigned K = 0; K < 10; ++K)
    C.append(CircuitInstr::gate(GateKind::RY, {}, {0}, 0.1 * (K + 1)));
  for (unsigned K = 0; K < 6; ++K)
    C.append(CircuitInstr::gate(K % 2 ? GateKind::Z : GateKind::P, {1}, {2},
                                0.2 * (K + 1)));
  for (unsigned Q = 0; Q < 3; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  FusedCircuit FC = fuseCircuit(C);
  // 10 RYs -> one 1-qubit Block op; 6 controlled phases -> one Diag op;
  // plus the three measurements.
  EXPECT_EQ(FC.Ops.size(), 5u) << FC.summary();
  EXPECT_EQ(FC.GatesFused, 16u);
  EXPECT_EQ(FC.UnconditionalPrefixOps, 2u);
}

//===----------------------------------------------------------------------===//
// Stabilizer: parallel parity and cross-engine distributions
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, StabilizerParallelBitExact) {
  std::mt19937_64 Rng(0x57ABull);
  StabilizerBackend Stab;
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial % 6, 24, /*CliffordOnly=*/true);
    ASSERT_TRUE(analyzeCircuit(C).CliffordOnly);
    RunOptions Serial, Parallel;
    Serial.Jobs = 1;
    Parallel.Jobs = 4;
    std::vector<ShotResult> Want = Stab.runBatch(C, 16, Trial, Serial);
    std::vector<ShotResult> Got = Stab.runBatch(C, 16, Trial, Parallel);
    expectBatchesBitExact(Want, Got, "stab/j4", Trial);
  }
}

TEST(DifferentialTest, StabilizerFramesMatchPerShotTableauRuns) {
  // Feed-forward-free batches sample every shot as a Pauli frame on one
  // shared reference run. Each collapse coin is the draw a per-shot
  // tableau run makes at the same point, so shot S must equal run() (or
  // runNoisy()) with deriveShotSeed(Seed, S) bit for bit: ideal, under
  // gate noise, and under readout noise. The widths cross the 64- and
  // 128-qubit word boundaries of frames and tableau rows.
  NoiseModel Mixed;
  Mixed.addDefaultChannel(KrausChannel::depolarizing(0.03));
  Mixed.addGateChannel(GateKind::X, KrausChannel::bitFlip(0.05));
  Mixed.setReadoutError(0.02, 0.04);
  NoiseModel Readout;
  Readout.setReadoutError(0.1, 0.15);
  const NoiseModel *Models[] = {nullptr, &Mixed, &Readout};
  std::mt19937_64 Rng(0xF2A3Eull);
  StabilizerBackend Stab;
  const unsigned Shots = 32;
  unsigned Trial = 0;
  for (unsigned Width :
       {2u, 3u, 5u, 9u, 31u, 63u, 64u, 65u, 100u, 127u, 128u, 129u, 130u}) {
    for (unsigned Rep = 0; Rep < 3; ++Rep, ++Trial) {
      // Mid-circuit measure and reset from the generator's alphabet, and
      // the final measure-all re-measures every measured qubit.
      Circuit C = randomCircuit(Rng, Width, 4 * Width + 8,
                                /*CliffordOnly=*/true);
      std::erase_if(C.Instrs,
                    [](const CircuitInstr &I) { return I.CondBit >= 0; });
      ASSERT_FALSE(analyzeCircuit(C).HasFeedForward);
      for (const NoiseModel *Noise : Models) {
        std::vector<ShotResult> Want(Shots);
        for (unsigned S = 0; S < Shots; ++S)
          Want[S] = Noise ? Stab.runNoisy(C, deriveShotSeed(Trial, S), *Noise)
                          : Stab.run(C, deriveShotSeed(Trial, S));
        for (unsigned Jobs : {1u, 4u}) {
          RunOptions Opts;
          Opts.Jobs = Jobs;
          Opts.Noise = Noise;
          std::string Config = std::string(Noise == &Mixed     ? "mixed"
                                           : Noise == &Readout ? "readout"
                                                               : "ideal") +
                               "/j" + std::to_string(Jobs) + "/w" +
                               std::to_string(Width);
          expectBatchesBitExact(Want, Stab.runBatch(C, Shots, Trial, Opts),
                                Config.c_str(), Trial);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// MPS: parallel parity, exact amplitudes, and cross-engine distributions
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MpsParallelBitExact) {
  // The tensor-network engine honors the same execution-plan contract as
  // the others: jobs=1 and jobs=4 replay identical per-shot bits, dynamic
  // circuits (mid-circuit measure, reset, feed-forward) included.
  std::mt19937_64 Rng(0x3975ull);
  MPSBackend Mps;
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial % 5, 20, /*CliffordOnly=*/false);
    RunOptions Serial, Parallel;
    Serial.Jobs = 1;
    Parallel.Jobs = 4;
    std::vector<ShotResult> Want = Mps.runBatch(C, 16, Trial, Serial);
    std::vector<ShotResult> Got = Mps.runBatch(C, 16, Trial, Parallel);
    expectBatchesBitExact(Want, Got, "mps/j4", Trial);
  }
}

TEST(DifferentialTest, MpsExactAmplitudesAtUnlimitedChi) {
  // With chi unlimited every SVD split is exact: the MPS must reproduce
  // the dense amplitudes of random gate-only circuits to rounding.
  std::mt19937_64 Rng(0xAC1Dull);
  for (unsigned Trial = 0; Trial < 12; ++Trial) {
    unsigned NumQubits = 2 + Trial % 7; // 2..8
    Circuit Raw = randomCircuit(Rng, NumQubits, 24, /*CliffordOnly=*/false);
    Circuit C;
    C.NumQubits = NumQubits;
    for (const CircuitInstr &I : Raw.Instrs)
      if (I.TheKind == CircuitInstr::Kind::Gate && I.CondBit < 0)
        C.append(I);
    MPSState Mps(NumQubits, /*Chi=*/0);
    StateVector Sv(NumQubits);
    for (const CircuitInstr &I : C.Instrs) {
      Mps.apply(I);
      Sv.apply(I.Gate, I.Controls, I.Targets, I.Param);
    }
    std::vector<MPSState::Cplx> Amp = Mps.statevector();
    for (uint64_t Idx = 0; Idx < (uint64_t(1) << NumQubits); ++Idx)
      ASSERT_LT(std::abs(Amp[Idx] - Sv.amplitudes()[Idx]), 1e-8)
          << "trial " << Trial << " index " << Idx;
    EXPECT_EQ(Mps.truncationError(), 0.0) << "trial " << Trial;
  }
}

TEST(DifferentialTest, MpsWideGatesMatchStatevector) {
  // Gates on 7 and 8 sites — MPSBackend::MaxGateSites — are contracted
  // through gateBlockMatrix, whose width bound is the MPS limit, not the
  // fusion block width. Controls spread over the chain, so the engine
  // also gathers non-adjacent sites into one window.
  Circuit C;
  C.NumQubits = 10;
  for (unsigned Q = 0; Q < 10; ++Q)
    C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
  C.append(CircuitInstr::gate(GateKind::X, {0, 2, 4, 6, 8, 9}, {5}));
  C.append(CircuitInstr::gate(GateKind::RY, {1, 3, 5, 7, 9, 0, 2}, {8}, 0.7));
  C.append(CircuitInstr::gate(GateKind::Z, {9, 8, 7, 6, 5, 4}, {0}));
  MPSState Mps(C.NumQubits, /*Chi=*/0);
  StateVector Sv(C.NumQubits);
  for (const CircuitInstr &I : C.Instrs) {
    Mps.apply(I);
    Sv.apply(I.Gate, I.Controls, I.Targets, I.Param);
  }
  std::vector<MPSState::Cplx> Amp = Mps.statevector();
  for (uint64_t Idx = 0; Idx < (uint64_t(1) << C.NumQubits); ++Idx)
    ASSERT_LT(std::abs(Amp[Idx] - Sv.amplitudes()[Idx]), 1e-8)
        << "index " << Idx;

  // The same widths through the backend, on a deterministic circuit so
  // both engines must return the same bits.
  Circuit D;
  D.NumQubits = 9;
  D.NumBits = 9;
  for (unsigned Q = 0; Q < 7; ++Q)
    D.append(CircuitInstr::gate(GateKind::X, {}, {Q}));
  D.append(CircuitInstr::gate(GateKind::X, {0, 1, 2, 3, 4, 5}, {7}));
  D.append(CircuitInstr::gate(GateKind::X, {0, 1, 2, 3, 4, 5, 6}, {8}));
  D.append(CircuitInstr::gate(GateKind::X, {0, 1, 2, 3, 4, 5, 7}, {6}));
  for (unsigned Q = 0; Q < 9; ++Q)
    D.append(CircuitInstr::measure(Q, Q));
  ASSERT_EQ(analyzeCircuit(D).MaxGateQubits, MPSBackend::MaxGateSites);
  std::vector<ShotResult> Want = referenceShots(D, 4, 3);
  std::vector<ShotResult> Got =
      MPSBackend().runBatch(D, 4, 3, RunOptions());
  expectBatchesBitExact(Want, Got, "mps wide gates", 0);
  EXPECT_EQ(Got[0].str(), "111111011");
}

TEST(DifferentialTest, MpsMatchesStatevectorDistributions) {
  // Distributional parity against the dense engine at jobs 1 and 4 — the
  // engines consume RNG differently, so the comparison is total
  // variation, not bit equality.
  std::mt19937_64 Rng(0x395Dull);
  const unsigned Shots = 2500;
  for (unsigned Trial = 0; Trial < 4; ++Trial) {
    Circuit C = randomCircuit(Rng, 3 + Trial, 18, /*CliffordOnly=*/false);
    std::map<std::string, unsigned> Mps =
        runShots(C, Shots, 21 + Trial, BackendKind::MPS);
    for (unsigned Jobs : {1u, 4u}) {
      RunOptions Opts;
      Opts.Jobs = Jobs;
      std::map<std::string, unsigned> Sv = runShots(
          C, Shots, 700 + Trial, BackendKind::Statevector, Opts);
      EXPECT_LT(tvDistance(Mps, Sv, Shots), 0.11)
          << "sv j" << Jobs << " trial " << Trial;
    }
  }
}

TEST(DifferentialTest, MpsMatchesStatevectorOnStructuredLowEntanglement) {
  // A 16-qubit brickwork ladder at generic angles: wide enough that the
  // bond structure matters, shallow enough that the default chi is exact.
  Circuit C;
  C.NumQubits = 16;
  C.NumBits = 16;
  for (unsigned Q = 0; Q < 16; ++Q)
    C.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, 0.2 + 0.05 * Q));
  for (unsigned Layer = 0; Layer < 2; ++Layer) {
    for (unsigned Q = Layer % 2; Q + 1 < 16; Q += 2) {
      C.append(CircuitInstr::gate(GateKind::X, {Q}, {Q + 1}));
      C.append(CircuitInstr::gate(GateKind::RZ, {}, {Q + 1}, 0.6));
      C.append(CircuitInstr::gate(GateKind::X, {Q}, {Q + 1}));
    }
    for (unsigned Q = 0; Q < 16; ++Q)
      C.append(CircuitInstr::gate(GateKind::RX, {}, {Q}, 0.3));
  }
  // Exact check first: the full 2^16 amplitude vectors must agree (the
  // sampled space is too large for a meaningful TV comparison).
  MPSState Exact(16, /*Chi=*/0);
  StateVector Dense(16);
  for (const CircuitInstr &I : C.Instrs) {
    Exact.apply(I);
    Dense.apply(I.Gate, I.Controls, I.Targets, I.Param);
  }
  std::vector<MPSState::Cplx> Amp = Exact.statevector();
  for (uint64_t Idx = 0; Idx < (uint64_t(1) << 16); ++Idx)
    ASSERT_LT(std::abs(Amp[Idx] - Dense.amplitudes()[Idx]), 1e-8)
        << "index " << Idx;
  // Two brickwork layers can at most quadruple any cut's rank.
  EXPECT_LE(Exact.maxBond(), 4u);

  // Sampled check on per-qubit marginals, where counting statistics are
  // sound at this shot budget.
  for (unsigned Q = 0; Q < 16; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  const unsigned Shots = 2000;
  std::map<std::string, unsigned> Mps =
      runShots(C, Shots, 31, BackendKind::MPS);
  std::map<std::string, unsigned> Sv =
      runShots(C, Shots, 450, BackendKind::Statevector);
  for (unsigned Q = 0; Q < 16; ++Q) {
    auto Marginal = [&](const std::map<std::string, unsigned> &Counts) {
      uint64_t Ones = 0;
      for (const auto &KV : Counts)
        if (KV.first[Q] == '1')
          Ones += KV.second;
      return double(Ones) / Shots;
    };
    EXPECT_NEAR(Marginal(Mps), Marginal(Sv), 0.06) << "qubit " << Q;
  }
}

TEST(DifferentialTest, StabilizerMatchesStatevectorDistributions) {
  // The engines sample with different RNG-consumption patterns, so parity
  // here is distributional: total variation within sampling noise.
  std::mt19937_64 Rng(0xD15Cull);
  const unsigned Shots = 3000;
  for (unsigned Trial = 0; Trial < 6; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial, 20, /*CliffordOnly=*/true);
    RunOptions SvOpts; // fused, parallel: the optimized dense path
    std::map<std::string, unsigned> Sv =
        runShots(C, Shots, 11 + Trial, BackendKind::Statevector, SvOpts);
    std::map<std::string, unsigned> Stab =
        runShots(C, Shots, 800 + Trial, BackendKind::Stabilizer);
    EXPECT_LT(tvDistance(Sv, Stab, Shots), 0.11) << "trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// transpile-o3 keeps the meaning of generated circuits
//===----------------------------------------------------------------------===//

/// What transpileO3 removed over a property run, to show its rewrites
/// fired. Only rotations merge or drop as identities; every other gate
/// leaves in a cancelling pair.
struct RewriteTally {
  unsigned Circuits = 0, Changed = 0, PairsCancelled = 0,
           RotationsRemoved = 0;

  void add(const Circuit &In, const Circuit &Out) {
    auto Gates = [](const Circuit &C, bool Rotations) {
      return static_cast<unsigned>(std::count_if(
          C.Instrs.begin(), C.Instrs.end(), [&](const CircuitInstr &I) {
            return I.TheKind == CircuitInstr::Kind::Gate &&
                   isParamGate(I.Gate) == Rotations;
          }));
    };
    ++Circuits;
    Changed += Out.Instrs.size() != In.Instrs.size();
    PairsCancelled += (Gates(In, false) - Gates(Out, false)) / 2;
    RotationsRemoved += Gates(In, true) - Gates(Out, true);
  }

  /// Prints the tally and checks that both kinds of rewrite fired often.
  void report(const char *What) const {
    std::printf("transpile-o3 on %u %s circuits: %u changed, %u gate pairs "
                "cancelled, %u rotations cancelled, merged or dropped\n",
                Circuits, What, Changed, PairsCancelled, RotationsRemoved);
    EXPECT_GT(PairsCancelled, Circuits / 4);
    EXPECT_GT(RotationsRemoved, Circuits / 4);
  }
};

TEST(DifferentialTest, TranspileO3KeepsUnitaries) {
  std::mt19937_64 Rng(0x7A45ull);
  RewriteTally Tally;
  unsigned Broken = 0;
  for (unsigned Trial = 0; Trial < 2000; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial % 4, 12 + Trial % 24,
                              /*CliffordOnly=*/false, /*Rewritable=*/true);
    std::erase_if(C.Instrs, [](const CircuitInstr &I) {
      return I.TheKind != CircuitInstr::Kind::Gate || I.CondBit >= 0;
    });
    Circuit Opt = transpileO3(C);
    Tally.add(C, Opt);
    if (!unitariesEquivalent(circuitUnitary(C), circuitUnitary(Opt)) &&
        Broken++ < 3)
      ADD_FAILURE() << "trial " << Trial << " before:\n"
                    << C.str() << "after:\n"
                    << Opt.str();
  }
  EXPECT_EQ(Broken, 0u) << "circuits whose unitary transpile-o3 changed";
  Tally.report("measurement-free");
}

TEST(DifferentialTest, TranspileO3KeepsShots) {
  // No rewrite removes a measurement or reset, so both circuits draw the
  // same random numbers in the same order and must agree shot for shot.
  std::mt19937_64 Rng(0x7A46ull);
  RewriteTally Tally;
  unsigned Broken = 0;
  for (unsigned Trial = 0; Trial < 2000; ++Trial) {
    Circuit C = randomCircuit(Rng, 2 + Trial % 5, 12 + Trial % 24,
                              /*CliffordOnly=*/false, /*Rewritable=*/true);
    Circuit Opt = transpileO3(C);
    Tally.add(C, Opt);
    uint64_t Seed = 7000 + Trial;
    std::vector<ShotResult> Want = referenceShots(C, 8, Seed);
    std::vector<ShotResult> Got = referenceShots(Opt, 8, Seed);
    for (unsigned S = 0; S < Want.size(); ++S)
      if (Want[S].Bits != Got[S].Bits) {
        if (Broken++ < 3)
          ADD_FAILURE() << "trial " << Trial << " shot " << S << " before:\n"
                        << C.str() << "after:\n"
                        << Opt.str();
        break;
      }
  }
  EXPECT_EQ(Broken, 0u) << "circuits whose shots transpile-o3 changed";
  Tally.report("dynamic");
}

} // namespace
