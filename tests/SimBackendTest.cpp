//===- SimBackendTest.cpp - Backend subsystem tests -----------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pluggable backend subsystem: circuit classification,
/// registry dispatch, per-shot seed derivation, multi-shot amortization,
/// and — the load-bearing property — that the stabilizer tableau and the
/// dense statevector engine induce the same outcome distributions on random
/// small Clifford circuits.
///
//===----------------------------------------------------------------------===//

#include "sim/CircuitAnalysis.h"
#include "sim/Simulator.h"
#include "sim/StabilizerBackend.h"
#include "sim/mps/MPSBackend.h"
#include "sim/mps/MPSState.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

using namespace asdf;

namespace {

//===----------------------------------------------------------------------===//
// Circuit analysis
//===----------------------------------------------------------------------===//

TEST(CircuitAnalysisTest, ClassifiesCliffordAndPrefix) {
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::measure(1, 0));
  CircuitInstr Cond = CircuitInstr::gate(GateKind::Z, {}, {2});
  Cond.CondBit = 0;
  C.append(Cond);
  CircuitProfile P = analyzeCircuit(C);
  EXPECT_TRUE(P.CliffordOnly);
  EXPECT_TRUE(P.HasMeasure);
  EXPECT_TRUE(P.HasFeedForward);
  EXPECT_FALSE(P.HasReset);
  EXPECT_EQ(P.UnconditionalGatePrefix, 2u);
  EXPECT_EQ(P.MaxControls, 1u);
}

TEST(CircuitAnalysisTest, TGateBreaksClifford) {
  Circuit C;
  C.NumQubits = 1;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  EXPECT_TRUE(analyzeCircuit(C).CliffordOnly);
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  EXPECT_FALSE(analyzeCircuit(C).CliffordOnly);
}

TEST(CircuitAnalysisTest, PhaseAngleGranularity) {
  auto Gate1Q = [](GateKind G, double Theta) {
    Circuit C;
    C.NumQubits = 2;
    C.append(CircuitInstr::gate(G, {}, {0}, Theta));
    return analyzeCircuit(C).CliffordOnly;
  };
  EXPECT_TRUE(Gate1Q(GateKind::P, M_PI / 2));
  EXPECT_TRUE(Gate1Q(GateKind::P, -M_PI / 2));
  EXPECT_TRUE(Gate1Q(GateKind::P, M_PI));
  EXPECT_TRUE(Gate1Q(GateKind::RZ, 3 * M_PI / 2));
  EXPECT_FALSE(Gate1Q(GateKind::P, M_PI / 4));
  EXPECT_FALSE(Gate1Q(GateKind::RZ, 0.7));

  // Controlled P(pi) is CZ (Clifford); controlled P(pi/2) is CS (not).
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::P, {0}, {1}, M_PI));
  EXPECT_TRUE(analyzeCircuit(C).CliffordOnly);
  C.append(CircuitInstr::gate(GateKind::P, {0}, {1}, M_PI / 2));
  EXPECT_FALSE(analyzeCircuit(C).CliffordOnly);

  // Toffoli leaves the Clifford group.
  Circuit D;
  D.NumQubits = 3;
  D.append(CircuitInstr::gate(GateKind::X, {0, 1}, {2}));
  EXPECT_FALSE(analyzeCircuit(D).CliffordOnly);
}

TEST(CircuitAnalysisTest, EmptyCircuitIsCliffordAndDispatchesToTableau) {
  Circuit C;
  C.NumQubits = 0;
  C.NumBits = 0;
  CircuitProfile P = analyzeCircuit(C);
  EXPECT_TRUE(P.CliffordOnly);
  EXPECT_TRUE(P.measureFree());
  EXPECT_FALSE(P.HasFeedForward);
  EXPECT_EQ(P.UnconditionalGatePrefix, 0u);
  EXPECT_EQ(P.MaxControls, 0u);
  // Degenerate but legal: auto-dispatch picks the tableau and a run
  // returns the empty bit string.
  BackendRegistry &Reg = BackendRegistry::instance();
  EXPECT_STREQ(Reg.select(C, BackendKind::Auto, &P).name(), "stab");
  EXPECT_TRUE(simulate(C, 3).Bits.empty());
}

TEST(CircuitAnalysisTest, MeasureOnlyCircuitHasEmptyPrefix) {
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  CircuitProfile P = analyzeCircuit(C);
  EXPECT_TRUE(P.CliffordOnly);
  EXPECT_TRUE(P.HasMeasure);
  EXPECT_FALSE(P.HasReset);
  EXPECT_EQ(P.UnconditionalGatePrefix, 0u);
  BackendRegistry &Reg = BackendRegistry::instance();
  EXPECT_STREQ(Reg.select(C, BackendKind::Auto, &P).name(), "stab");
  // |00> measured is deterministic on both engines.
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> Counts = runShots(C, 20, 1, K);
    ASSERT_EQ(Counts.size(), 1u);
    EXPECT_EQ(Counts.begin()->first, "00");
  }
}

TEST(CircuitAnalysisTest, ResetInterruptsPrefixButNotCliffordness) {
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::reset(1));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  CircuitProfile P = analyzeCircuit(C);
  // The reset ends the shareable prefix after two gates; the circuit
  // stays Clifford (reset is a native tableau operation), so dispatch
  // still picks the tableau.
  EXPECT_EQ(P.UnconditionalGatePrefix, 2u);
  EXPECT_TRUE(P.CliffordOnly);
  EXPECT_TRUE(P.HasReset);
  EXPECT_FALSE(P.HasFeedForward);
  BackendRegistry &Reg = BackendRegistry::instance();
  EXPECT_STREQ(Reg.select(C, BackendKind::Auto, &P).name(), "stab");

  // A non-Clifford gate after the reset flips the dispatch decision; the
  // prefix is unchanged.
  Circuit D = C;
  D.Instrs.insert(D.Instrs.begin() + 4,
                  CircuitInstr::gate(GateKind::T, {}, {1}));
  CircuitProfile Q = analyzeCircuit(D);
  EXPECT_EQ(Q.UnconditionalGatePrefix, 2u);
  EXPECT_FALSE(Q.CliffordOnly);
  EXPECT_STREQ(Reg.select(D, BackendKind::Auto, &Q).name(), "sv");
}

//===----------------------------------------------------------------------===//
// Registry and dispatch
//===----------------------------------------------------------------------===//

TEST(BackendRegistryTest, BuiltinsRegistered) {
  BackendRegistry &Reg = BackendRegistry::instance();
  ASSERT_NE(Reg.lookup("sv"), nullptr);
  ASSERT_NE(Reg.lookup("stab"), nullptr);
  ASSERT_NE(Reg.lookup("mps"), nullptr);
  EXPECT_EQ(Reg.lookup("nope"), nullptr);
  EXPECT_EQ(Reg.names().size(), 3u);
}

TEST(BackendRegistryTest, AutoPrefersStabilizerForClifford) {
  Circuit Cliff;
  Cliff.NumQubits = 2;
  Cliff.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  Cliff.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  BackendRegistry &Reg = BackendRegistry::instance();
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Auto).name(), "stab");
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Statevector).name(), "sv");

  Circuit Magic = Cliff;
  Magic.append(CircuitInstr::gate(GateKind::T, {}, {1}));
  EXPECT_STREQ(Reg.select(Magic, BackendKind::Auto).name(), "sv");
  EXPECT_STREQ(Reg.select(Magic, BackendKind::Stabilizer).name(), "stab");
}

TEST(BackendRegistryTest, ParseBackendKind) {
  BackendKind K;
  EXPECT_TRUE(parseBackendKind("auto", K));
  EXPECT_EQ(K, BackendKind::Auto);
  EXPECT_TRUE(parseBackendKind("sv", K));
  EXPECT_EQ(K, BackendKind::Statevector);
  EXPECT_TRUE(parseBackendKind("stabilizer", K));
  EXPECT_EQ(K, BackendKind::Stabilizer);
  EXPECT_TRUE(parseBackendKind("mps", K));
  EXPECT_EQ(K, BackendKind::MPS);
  EXPECT_FALSE(parseBackendKind("qpu", K));
}

//===----------------------------------------------------------------------===//
// Per-shot seed derivation
//===----------------------------------------------------------------------===//

TEST(ShotSeedTest, DeterministicAndWellSpread) {
  EXPECT_EQ(deriveShotSeed(7, 3), deriveShotSeed(7, 3));
  // Nearby (seed, shot) pairs land far apart; in particular the collision
  // family seed+shot == const of the old Seed+S scheme is gone.
  EXPECT_NE(deriveShotSeed(7, 3), deriveShotSeed(7, 4));
  EXPECT_NE(deriveShotSeed(7, 3), deriveShotSeed(8, 3));
  EXPECT_NE(deriveShotSeed(7, 3), deriveShotSeed(6, 4));
  EXPECT_NE(deriveShotSeed(7, 3), deriveShotSeed(8, 2));
}

TEST(ShotSeedTest, RunShotsReproducible) {
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> A = runShots(C, 200, 5, K);
    std::map<std::string, unsigned> B = runShots(C, 200, 5, K);
    EXPECT_EQ(A, B);
    EXPECT_NE(A, runShots(C, 200, 6, K));
  }
}

TEST(ShotSeedTest, PrefixAmortizationMatchesPerShotRuns) {
  // The statevector runShots forks the shared prefix; every shot must equal
  // an independent run() with the same derived seed.
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 3;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {0})); // keep it off the tableau
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {1}, {2}));
  for (unsigned Q = 0; Q < 3; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  StatevectorBackend Sv;
  std::map<std::string, unsigned> Amortized = Sv.runShots(C, 300, 17);
  std::map<std::string, unsigned> Manual;
  for (unsigned S = 0; S < 300; ++S)
    ++Manual[Sv.run(C, deriveShotSeed(17, S)).str()];
  EXPECT_EQ(Amortized, Manual);
}

//===----------------------------------------------------------------------===//
// Cross-backend equivalence on random Clifford circuits
//===----------------------------------------------------------------------===//

/// A random Clifford circuit on \p NumQubits qubits ending in measure-all
/// (qubit i -> classical bit i).
Circuit randomCliffordCircuit(std::mt19937_64 &Rng, unsigned NumQubits,
                              unsigned NumGates) {
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  std::uniform_int_distribution<unsigned> PickGate(0, 8);
  std::uniform_int_distribution<unsigned> PickQubit(0, NumQubits - 1);
  for (unsigned G = 0; G < NumGates; ++G) {
    unsigned A = PickQubit(Rng);
    unsigned B = PickQubit(Rng);
    while (NumQubits > 1 && B == A)
      B = PickQubit(Rng);
    switch (PickGate(Rng)) {
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
      C.append(CircuitInstr::gate(GateKind::X, {A}, {B}));
      break;
    case 7:
      C.append(CircuitInstr::gate(GateKind::Z, {A}, {B}));
      break;
    default:
      C.append(CircuitInstr::gate(GateKind::Swap, {}, {A, B}));
      break;
    }
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// Exact outcome distribution of the measure-all tail, read off the dense
/// amplitudes of the gate prefix. Outcome strings are bit 0 first, matching
/// ShotResult::str with qubit i measured into bit i.
std::map<std::string, double> exactDistribution(const Circuit &C) {
  StateVector SV(C.NumQubits);
  for (const CircuitInstr &I : C.Instrs)
    if (I.TheKind == CircuitInstr::Kind::Gate)
      SV.apply(I.Gate, I.Controls, I.Targets, I.Param);
  std::map<std::string, double> Dist;
  uint64_t Dim = uint64_t(1) << C.NumQubits;
  for (uint64_t Idx = 0; Idx < Dim; ++Idx) {
    double P = std::norm(SV.amplitudes()[Idx]);
    if (P < 1e-15)
      continue;
    std::string Key;
    // Qubit 0 is the most significant bit of a basis index.
    for (unsigned Q = 0; Q < C.NumQubits; ++Q)
      Key.push_back((Idx >> (C.NumQubits - 1 - Q)) & 1 ? '1' : '0');
    Dist[Key] += P;
  }
  return Dist;
}

TEST(BackendEquivalenceTest, RandomCliffordDistributionsMatch) {
  std::mt19937_64 Rng(20250726);
  const unsigned Shots = 4000;
  for (unsigned Trial = 0; Trial < 20; ++Trial) {
    unsigned NumQubits = 2 + Trial % 7; // 2..8 qubits
    Circuit C = randomCliffordCircuit(Rng, NumQubits, 24 + 2 * Trial);
    ASSERT_TRUE(analyzeCircuit(C).CliffordOnly);
    std::map<std::string, unsigned> Counts =
        runShots(C, Shots, 1000 + Trial, BackendKind::Stabilizer);
    std::map<std::string, double> Exact = exactDistribution(C);
    // Every sampled outcome is possible.
    double Tv = 0.0;
    for (const auto &KV : Counts) {
      ASSERT_TRUE(Exact.count(KV.first))
          << "trial " << Trial << ": impossible outcome " << KV.first;
    }
    // Total variation between empirical and exact stays at sampling noise.
    for (const auto &KV : Exact) {
      auto It = Counts.find(KV.first);
      double Freq = It == Counts.end() ? 0.0 : double(It->second) / Shots;
      Tv += std::abs(Freq - KV.second);
    }
    Tv /= 2.0;
    EXPECT_LT(Tv, 0.12) << "trial " << Trial << " (" << NumQubits
                        << " qubits)";
  }
}

TEST(BackendEquivalenceTest, DynamicCliffordCircuitsMatch) {
  // Mid-circuit measurement, feed-forward, and reset: compare the two
  // engines' sampled distributions directly.
  std::mt19937_64 Rng(77);
  for (unsigned Trial = 0; Trial < 8; ++Trial) {
    Circuit C = randomCliffordCircuit(Rng, 3, 12);
    // Splice in a mid-circuit measurement feeding a correction, plus a
    // reset, before the final measure-all (keeps the tail intact).
    std::vector<CircuitInstr> Tail(C.Instrs.end() - 3, C.Instrs.end());
    C.Instrs.resize(C.Instrs.size() - 3);
    C.append(CircuitInstr::measure(0, 0));
    CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
    Fix.CondBit = 0;
    C.append(Fix);
    C.append(CircuitInstr::reset(2));
    C.append(CircuitInstr::gate(GateKind::H, {}, {2}));
    for (const CircuitInstr &I : Tail)
      C.append(I);
    const unsigned Shots = 4000;
    std::map<std::string, unsigned> Sv =
        runShots(C, Shots, 5 + Trial, BackendKind::Statevector);
    std::map<std::string, unsigned> Stab =
        runShots(C, Shots, 900 + Trial, BackendKind::Stabilizer);
    EXPECT_LT(tvDistance(Sv, Stab, Shots), 0.1) << "trial " << Trial;
  }
}

TEST(BackendEquivalenceTest, DegenerateGatesAreNoOpsOnBothBackends) {
  // Ill-formed control == target and swap(q, q) instructions have always
  // been no-ops in the dense engine; the tableau must agree instead of
  // corrupting its rows.
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {1}, {1}));
  C.append(CircuitInstr::gate(GateKind::Z, {0}, {0}));
  C.append(CircuitInstr::gate(GateKind::Y, {1}, {1}));
  C.append(CircuitInstr::gate(GateKind::Swap, {}, {0, 0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {0})); // net identity
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  ASSERT_TRUE(analyzeCircuit(C).CliffordOnly);
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> Counts = runShots(C, 50, 3, K);
    ASSERT_EQ(Counts.size(), 1u) << "backend " << int(K);
    EXPECT_EQ(Counts.begin()->first, "00") << "backend " << int(K);
  }
}

//===----------------------------------------------------------------------===//
// Simulation counters
//===----------------------------------------------------------------------===//

TEST(SimStatsTest, CountersTrackKernelsAndAmplitudes) {
  // Rotation runs on every wire plus a CX ladder: with 3-qubit blocks the
  // plan must form multi-qubit blocks, and every kernel must report the
  // amplitudes it touched.
  Circuit C;
  C.NumQubits = 6;
  C.NumBits = 6;
  for (unsigned Q = 0; Q < 6; ++Q) {
    C.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, 0.3 + 0.1 * Q));
    C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
  }
  for (unsigned Q = 1; Q < 6; ++Q)
    C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  for (unsigned Q = 0; Q < 6; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  StatevectorBackend Sv;

  SimStats Fused;
  RunOptions FusedOpts;
  FusedOpts.Jobs = 1;
  FusedOpts.SimCounters = &Fused;
  std::vector<ShotResult> Shots = Sv.runBatch(C, 4, 11, FusedOpts);
  EXPECT_GT(Fused.FusedOps, 0u);
  EXPECT_GT(Fused.FusedBlocks, 0u);
  EXPECT_GT(Fused.AmplitudesTouched, 0u);
  EXPECT_GT(Fused.GatesApplied, 0u); // the measure kernels

  // The measure tail is one walk over the shots' outcome trie. A node at
  // step D is a distinct prefix of the shots' first D outcomes; it counts
  // one kernel and reads half its 2^(6-D) survivors for the probability.
  // Before the last step it then reads the kept half and writes it once
  // per outcome drawn there (a distinct prefix of D + 1 outcomes): 2^(6-D)
  // per child.
  uint64_t Kernels = 0, Amps = 0;
  for (unsigned D = 0; D < 6; ++D) {
    std::set<std::string> Nodes, Children;
    for (const ShotResult &R : Shots) {
      Nodes.insert(R.str().substr(0, D));
      Children.insert(R.str().substr(0, D + 1));
    }
    Kernels += Nodes.size();
    Amps += Nodes.size() * (32u >> D);
    if (D + 1 < 6)
      Amps += Children.size() * (64u >> D);
  }
  EXPECT_LT(Kernels, 4u * 6); // The root, at least, is shared.
  Circuit Gates = C;
  Gates.Instrs.resize(Gates.Instrs.size() - 6);
  SimStats Prefix;
  FusedOpts.SimCounters = &Prefix;
  Sv.runBatch(Gates, 4, 11, FusedOpts);
  EXPECT_EQ(Fused.GatesApplied - Prefix.GatesApplied, Kernels);
  EXPECT_EQ(Fused.AmplitudesTouched - Prefix.AmplitudesTouched, Amps);

  // The same gates one kernel each, as the unfused run() applies them.
  SimStats Unfused;
  StateVector Serial(6);
  Serial.setStats(&Unfused);
  for (const CircuitInstr &I : Gates.Instrs)
    Serial.apply(I.Gate, I.Controls, I.Targets, I.Param);
  EXPECT_EQ(Unfused.GatesApplied, Gates.Instrs.size());
  EXPECT_GT(Unfused.GatesApplied, Prefix.GatesApplied);
  // Fusion's whole point, now measurable: fewer amplitudes touched.
  EXPECT_LT(Prefix.AmplitudesTouched, Unfused.AmplitudesTouched);
}

TEST(BackendEquivalenceTest, AutoMatchesForcedStabilizer) {
  std::mt19937_64 Rng(123);
  Circuit C = randomCliffordCircuit(Rng, 4, 20);
  // Auto must dispatch to the tableau: identical counts, same seeds.
  EXPECT_EQ(runShots(C, 500, 9, BackendKind::Auto),
            runShots(C, 500, 9, BackendKind::Stabilizer));
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

/// GHZ preparation on a line: H then a nearest-neighbor CX ladder, measure
/// all. Clifford, and every bisection is crossed by exactly one entangler.
Circuit ghzLine(unsigned N) {
  Circuit C;
  C.NumQubits = N;
  C.NumBits = N;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  for (unsigned Q = 1; Q < N; ++Q)
    C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// Depth-1 QAOA on a ring: H layer, one RZZ (CX-RZ-CX) per ring edge at a
/// generic angle, RX mixer layer, measure all. Non-Clifford, wide, and
/// lowly entangled — the circuit family the MPS engine exists for.
Circuit qaoaRing(unsigned N) {
  Circuit C;
  C.NumQubits = N;
  C.NumBits = N;
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
  for (unsigned E = 0; E < N; ++E) {
    unsigned A = E, B = (E + 1) % N;
    C.append(CircuitInstr::gate(GateKind::X, {A}, {B}));
    C.append(CircuitInstr::gate(GateKind::RZ, {}, {B}, 0.7));
    C.append(CircuitInstr::gate(GateKind::X, {A}, {B}));
  }
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::gate(GateKind::RX, {}, {Q}, 0.4));
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// A wide circuit whose entanglement estimate saturates every bound: 64
/// maximally-long-range entanglers plus a T gate so no engine is exact.
Circuit wideDense(unsigned N) {
  Circuit C;
  C.NumQubits = N;
  C.NumBits = N;
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
  for (unsigned R = 0; R < 64; ++R)
    C.append(CircuitInstr::gate(GateKind::X, {0}, {N - 1}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  for (unsigned Q = 0; Q < N; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

TEST(CostModelTest, GhzLineBondIsTwo) {
  CostModel M = estimateCost(ghzLine(100));
  EXPECT_EQ(M.NumQubits, 100u);
  EXPECT_TRUE(M.CliffordOnly);
  EXPECT_EQ(M.EntanglingGates, 99u);
  EXPECT_EQ(M.MaxGateSpan, 1u);
  EXPECT_EQ(M.MaxCutCrossings, 1u);
  EXPECT_EQ(M.EstimatedLogBond, 1u);
  EXPECT_EQ(M.estimatedMaxBond(), 2u);
  EXPECT_FALSE(M.summary().empty());
}

TEST(CostModelTest, QaoaRingBondFitsDefaultChi) {
  CostModel M = estimateCost(qaoaRing(100));
  EXPECT_FALSE(M.CliffordOnly);
  EXPECT_GT(M.NonCliffordGates, 0u);
  // Each cut sees two CXs from its local edge plus two from the
  // wrap-around edge: rank at most 2^4, far under the default chi of 64.
  EXPECT_EQ(M.MaxCutCrossings, 4u);
  EXPECT_EQ(M.EstimatedLogBond, 4u);
  EXPECT_LE(M.estimatedMaxBond(), RunOptions().MpsChi);
}

TEST(CostModelTest, DenseLongRangeSaturates) {
  // 64 entanglers across every cut of a 130-qubit register: the crossing
  // count saturates, the side-dimension bound is wider, and the log-bond
  // clamp at 63 keeps estimatedMaxBond from overflowing.
  CostModel M = estimateCost(wideDense(130));
  EXPECT_EQ(M.MaxCutCrossings, 64u);
  EXPECT_EQ(M.EstimatedLogBond, 63u);
  EXPECT_EQ(M.estimatedMaxBond(), UINT64_MAX);
  EXPECT_EQ(M.MaxGateSpan, 129u);
}

//===----------------------------------------------------------------------===//
// Cost-model auto-dispatch
//===----------------------------------------------------------------------===//

const char *autoPick(const Circuit &C) {
  BackendSelection Sel = BackendRegistry::instance().selectWithReasons(
      C, BackendKind::Auto);
  EXPECT_TRUE(Sel.Supported) << Sel.describe();
  return Sel.Chosen->name();
}

TEST(AutoDispatchTest, LabeledCircuitsLandOnExpectedEngines) {
  // GHZ line at 100 qubits is Clifford: the tableau wins even though the
  // MPS engine could run it.
  EXPECT_STREQ(autoPick(ghzLine(100)), "stab");

  // QAOA ring at 100 qubits: non-Clifford kicks out the tableau, the
  // width kicks out the dense engine, and the entanglement estimate fits
  // chi — the tensor network's home turf.
  EXPECT_STREQ(autoPick(qaoaRing(100)), "mps");

  // A random dense circuit at 12 qubits with T gates: inside the dense
  // cap, so the statevector wins (it is exact; MPS would only add SVDs).
  std::mt19937_64 Rng(42);
  Circuit Dense = randomCliffordCircuit(Rng, 12, 60);
  Dense.Instrs.insert(Dense.Instrs.begin() + 10,
                      CircuitInstr::gate(GateKind::T, {}, {3}));
  EXPECT_STREQ(autoPick(Dense), "sv");

  // Clifford-only with feed-forward stays on the tableau.
  Circuit Ff = ghzLine(8);
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  Ff.append(Fix);
  EXPECT_STREQ(autoPick(Ff), "stab");

  // Non-Clifford feed-forward at small width: the dense engine.
  Ff.Instrs.insert(Ff.Instrs.begin() + 1,
                   CircuitInstr::gate(GateKind::T, {}, {0}));
  EXPECT_STREQ(autoPick(Ff), "sv");
}

TEST(AutoDispatchTest, NothingEligibleReportsPerBackendReasons) {
  Circuit C = wideDense(130);
  BackendSelection Sel = BackendRegistry::instance().selectWithReasons(
      C, BackendKind::Auto);
  EXPECT_FALSE(Sel.Supported);
  ASSERT_NE(Sel.Chosen, nullptr); // fallback engine, still named
  ASSERT_EQ(Sel.Verdicts.size(), BackendRegistry::instance().names().size());
  for (const BackendVerdict &V : Sel.Verdicts) {
    EXPECT_FALSE(V.Eligible) << V.Name;
    EXPECT_FALSE(V.Why.empty()) << V.Name;
  }
  // Every registered backend shows up in the one-line rejection summary.
  std::string Summary = Sel.rejectionSummary();
  for (const std::string &Name : BackendRegistry::instance().names())
    EXPECT_NE(Summary.find(Name + ":"), std::string::npos) << Summary;
  EXPECT_FALSE(Sel.CostSummary.empty());
}

TEST(AutoDispatchTest, ForcedMpsOverChiTruncatesButRuns) {
  // Forcing mps on an over-chi circuit is allowed (the run truncates);
  // auto-dispatch would have refused it.
  Circuit C = wideDense(40);
  BackendSelection Sel = BackendRegistry::instance().selectWithReasons(
      C, BackendKind::MPS);
  EXPECT_TRUE(Sel.Supported);
  EXPECT_STREQ(Sel.Chosen->name(), "mps");
  EXPECT_NE(Sel.Reason.find("forced"), std::string::npos) << Sel.Reason;
}

//===----------------------------------------------------------------------===//
// MPS engine
//===----------------------------------------------------------------------===//

TEST(MPSStateTest, BellAndLongRangeGhzExact) {
  MPSState Bell(2);
  Bell.apply(CircuitInstr::gate(GateKind::H, {}, {0}));
  Bell.apply(CircuitInstr::gate(GateKind::X, {0}, {1}));
  const double R = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(Bell.amplitude(0)), R, 1e-12);
  EXPECT_NEAR(std::abs(Bell.amplitude(3)), R, 1e-12);
  EXPECT_NEAR(std::abs(Bell.amplitude(1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(Bell.amplitude(2)), 0.0, 1e-12);
  EXPECT_EQ(Bell.maxBond(), 2u);
  EXPECT_EQ(Bell.truncationError(), 0.0);

  // GHZ-6 built from long-range CX(0, q): every gate routes through swaps,
  // yet the state stays exactly rank 2 across each cut.
  MPSState Ghz(6);
  Ghz.apply(CircuitInstr::gate(GateKind::H, {}, {0}));
  for (unsigned Q = 1; Q < 6; ++Q)
    Ghz.apply(CircuitInstr::gate(GateKind::X, {0}, {Q}));
  std::vector<MPSState::Cplx> Amp = Ghz.statevector();
  EXPECT_NEAR(std::abs(Amp[0]), R, 1e-12);
  EXPECT_NEAR(std::abs(Amp[63]), R, 1e-12);
  double Middle = 0.0;
  for (unsigned Idx = 1; Idx < 63; ++Idx)
    Middle += std::norm(Amp[Idx]);
  EXPECT_NEAR(Middle, 0.0, 1e-20);
  EXPECT_EQ(Ghz.maxBond(), 2u);
}

TEST(MPSStateTest, MatchesDenseAmplitudesOnMixedGateSet) {
  // Toffoli, Swap, controlled phase, and generic rotations — every apply()
  // path (single-site, contiguous block, routed block) against the dense
  // engine, exactly (chi unlimited).
  Circuit C;
  C.NumQubits = 4;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::RY, {}, {3}, 0.9));
  C.append(CircuitInstr::gate(GateKind::X, {0, 1}, {2}));
  C.append(CircuitInstr::gate(GateKind::Swap, {}, {1, 3}));
  C.append(CircuitInstr::gate(GateKind::P, {0}, {3}, 0.37));
  C.append(CircuitInstr::gate(GateKind::RZ, {}, {2}, -1.2));
  C.append(CircuitInstr::gate(GateKind::X, {3}, {0}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {1}));

  MPSState Mps(4);
  StateVector Sv(4);
  for (const CircuitInstr &I : C.Instrs) {
    Mps.apply(I);
    Sv.apply(I.Gate, I.Controls, I.Targets, I.Param);
  }
  std::vector<MPSState::Cplx> Amp = Mps.statevector();
  for (uint64_t Idx = 0; Idx < 16; ++Idx)
    EXPECT_LT(std::abs(Amp[Idx] - Sv.amplitudes()[Idx]), 1e-10)
        << "index " << Idx;
  EXPECT_EQ(Mps.truncationError(), 0.0);
}

TEST(MPSBackendTest, ChiOneTruncatesBellToProduct) {
  Circuit C = ghzLine(2);
  MPSBackend Mps;
  SimStats Stats;
  RunOptions Opts;
  Opts.Jobs = 1;
  Opts.MpsChi = 1;
  Opts.SimCounters = &Stats;
  Mps.runBatch(C, 1, 7, Opts);
  // The CX split must truncate rank 2 -> 1, discarding half the weight.
  EXPECT_GE(Stats.MpsSvds, 1u);
  EXPECT_GE(Stats.MpsTruncations, 1u);
  EXPECT_NEAR(Stats.MpsTruncationError, 0.5, 1e-12);
  EXPECT_EQ(Stats.MpsMaxBond, 1u);
}

TEST(MPSBackendTest, MatchesExactDistributionAndOtherEngines) {
  // Random Clifford circuits with a T-gate sprinkle, measure-all: the MPS
  // samples must match the dense amplitudes' exact distribution.
  std::mt19937_64 Rng(2025);
  const unsigned Shots = 3000;
  for (unsigned Trial = 0; Trial < 6; ++Trial) {
    unsigned NumQubits = 2 + Trial; // 2..7
    Circuit C = randomCliffordCircuit(Rng, NumQubits, 18 + 3 * Trial);
    C.Instrs.insert(C.Instrs.begin() + 5,
                    CircuitInstr::gate(GateKind::T, {}, {Trial % NumQubits}));
    std::map<std::string, unsigned> Counts =
        runShots(C, Shots, 300 + Trial, BackendKind::MPS);
    std::map<std::string, double> Exact = exactDistribution(C);
    for (const auto &KV : Counts)
      ASSERT_TRUE(Exact.count(KV.first))
          << "trial " << Trial << ": impossible outcome " << KV.first;
    double Tv = 0.0;
    for (const auto &KV : Exact) {
      auto It = Counts.find(KV.first);
      double Freq = It == Counts.end() ? 0.0 : double(It->second) / Shots;
      Tv += std::abs(Freq - KV.second);
    }
    Tv /= 2.0;
    EXPECT_LT(Tv, 0.12) << "trial " << Trial;
  }
}

TEST(MPSBackendTest, DynamicCircuitMatchesDenseEngine) {
  // Teleportation-flavored dynamic circuit: mid-circuit measurement,
  // feed-forward corrections, and a reset, on a non-Clifford state.
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 3;
  C.append(CircuitInstr::gate(GateKind::RY, {}, {0}, 0.8)); // payload
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1})); // Bell pair
  C.append(CircuitInstr::gate(GateKind::X, {1}, {2}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1})); // Bell measure
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  CircuitInstr FixX = CircuitInstr::gate(GateKind::X, {}, {2});
  FixX.CondBit = 1;
  C.append(FixX);
  CircuitInstr FixZ = CircuitInstr::gate(GateKind::Z, {}, {2});
  FixZ.CondBit = 0;
  C.append(FixZ);
  C.append(CircuitInstr::reset(0));
  C.append(CircuitInstr::gate(GateKind::H, {}, {2})); // measure payload
  C.append(CircuitInstr::gate(GateKind::RY, {}, {2}, -0.8));
  C.append(CircuitInstr::measure(2, 2));
  const unsigned Shots = 4000;
  std::map<std::string, unsigned> Mps =
      runShots(C, Shots, 11, BackendKind::MPS);
  std::map<std::string, unsigned> Sv =
      runShots(C, Shots, 900, BackendKind::Statevector);
  EXPECT_LT(tvDistance(Mps, Sv, Shots), 0.1);
}

TEST(MPSBackendTest, BatchMatchesPerShotRunsAcrossJobs) {
  std::mt19937_64 Rng(7);
  Circuit C = randomCliffordCircuit(Rng, 5, 20);
  C.Instrs.insert(C.Instrs.begin() + 3,
                  CircuitInstr::gate(GateKind::T, {}, {2}));
  MPSBackend Mps;
  // Batch (prefix amortized) must equal independent per-shot runs...
  std::vector<ShotResult> Batch = Mps.runBatch(C, 60, 13);
  for (unsigned S = 0; S < 60; ++S)
    EXPECT_EQ(Batch[S].str(), Mps.run(C, deriveShotSeed(13, S)).str())
        << "shot " << S;
  // ...and the execution plan must not change any shot.
  RunOptions Par;
  Par.Jobs = 4;
  std::vector<ShotResult> Parallel = Mps.runBatch(C, 60, 13, Par);
  for (unsigned S = 0; S < 60; ++S)
    EXPECT_EQ(Batch[S].str(), Parallel[S].str()) << "shot " << S;
}

TEST(MPSBackendTest, HundredQubitGhzRunsCheaply) {
  // The headline capability: 100 qubits, far beyond the dense cap, exact
  // at bond dimension 2.
  Circuit C = ghzLine(100);
  MPSBackend Mps;
  SimStats Stats;
  RunOptions Opts;
  Opts.SimCounters = &Stats;
  std::vector<ShotResult> Shots = Mps.runBatch(C, 20, 99, Opts);
  ASSERT_EQ(Shots.size(), 20u);
  for (const ShotResult &R : Shots) {
    std::string S = R.str();
    ASSERT_EQ(S.size(), 100u);
    // Perfect correlation: all zeros or all ones.
    EXPECT_TRUE(S == std::string(100, '0') || S == std::string(100, '1'))
        << S;
  }
  EXPECT_EQ(Stats.MpsMaxBond, 2u);
  EXPECT_EQ(Stats.MpsTruncations, 0u);
}

} // namespace
