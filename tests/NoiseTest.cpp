//===- NoiseTest.cpp - Noise-model subsystem tests ------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The noise subsystem, pinned end to end: every built-in channel is CPTP,
/// trajectory sampling converges to closed-form expectations at fixed
/// seed, the stabilizer engine's Pauli-frame and Monte-Carlo paths agree
/// with dense trajectories in distribution, fusion respects channel
/// barriers, the spec parser round-trips and rejects garbage, and —
/// load-bearing — noisy batches stay bit-identical to the serial unfused
/// runNoisy() at every worker count, their trajectory counters included.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseModel.h"
#include "noise/NoiseSpec.h"
#include "noise/PauliFrame.h"
#include "sim/CircuitAnalysis.h"
#include "sim/Simulator.h"
#include "sim/StabilizerBackend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <random>

using namespace asdf;

namespace {

//===----------------------------------------------------------------------===//
// Channels
//===----------------------------------------------------------------------===//

TEST(ChannelTest, BuiltinsAreCPTP) {
  for (double P : {0.0, 0.01, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_TRUE(KrausChannel::depolarizing(P).isCPTP()) << "p=" << P;
    EXPECT_TRUE(KrausChannel::bitFlip(P).isCPTP()) << "p=" << P;
    EXPECT_TRUE(KrausChannel::phaseFlip(P).isCPTP()) << "p=" << P;
    EXPECT_TRUE(KrausChannel::amplitudeDamping(P).isCPTP()) << "g=" << P;
    EXPECT_TRUE(KrausChannel::phaseDamping(P).isCPTP()) << "l=" << P;
  }
  // A non-trace-preserving operator set must be rejected.
  Mat2 Half = Mat2::identity();
  Half.M[0][0] = Half.M[1][1] = 0.5;
  EXPECT_FALSE(KrausChannel::kraus({Half}, "broken").isCPTP());
}

TEST(ChannelTest, PauliDetection) {
  PauliProbs P;
  ASSERT_TRUE(KrausChannel::depolarizing(0.3).pauliProbs(P));
  EXPECT_NEAR(P.PI, 0.7, 1e-12);
  EXPECT_NEAR(P.PX, 0.1, 1e-12);
  EXPECT_NEAR(P.PY, 0.1, 1e-12);
  EXPECT_NEAR(P.PZ, 0.1, 1e-12);

  ASSERT_TRUE(KrausChannel::bitFlip(0.25).pauliProbs(P));
  EXPECT_NEAR(P.PX, 0.25, 1e-12);
  EXPECT_NEAR(P.PZ, 0.0, 1e-12);

  ASSERT_TRUE(KrausChannel::phaseFlip(0.125).pauliProbs(P));
  EXPECT_NEAR(P.PZ, 0.125, 1e-12);

  // Damping channels are not Pauli (except at rate 0).
  EXPECT_FALSE(KrausChannel::amplitudeDamping(0.2).pauliProbs(P));
  EXPECT_FALSE(KrausChannel::phaseDamping(0.2).pauliProbs(P));
  EXPECT_TRUE(KrausChannel::amplitudeDamping(0.0).pauliProbs(P));
}

//===----------------------------------------------------------------------===//
// Model assembly and lookup
//===----------------------------------------------------------------------===//

TEST(NoiseModelTest, ChannelLookupOrderAndClassification) {
  NoiseModel M;
  EXPECT_TRUE(M.empty());
  M.addGateChannel(GateKind::X, KrausChannel::bitFlip(0.1));
  M.addDefaultChannel(KrausChannel::depolarizing(0.01));
  M.addQubitChannel(1, KrausChannel::phaseFlip(0.2));
  M.setReadoutError(0.01, 0.02);
  EXPECT_FALSE(M.empty());
  EXPECT_TRUE(M.hasGateNoise());
  EXPECT_TRUE(M.isPauliOnly());

  // CX carries GateKind::X: the x channel applies to target then control,
  // and qubit 1's channel stacks on top wherever qubit 1 is touched.
  CircuitInstr Cx = CircuitInstr::gate(GateKind::X, {0}, {1});
  ASSERT_TRUE(M.affectsGate(Cx));
  std::vector<NoiseOp> Ops = M.noiseFor(Cx);
  ASSERT_EQ(Ops.size(), 3u);
  EXPECT_EQ(Ops[0].Qubit, 1u); // target: gate-kind channel
  EXPECT_EQ(Ops[1].Qubit, 1u); // target: per-qubit channel
  EXPECT_EQ(Ops[2].Qubit, 0u); // control: gate-kind channel

  // A kind with its own channels suppresses the default; one without
  // falls back to it.
  CircuitInstr H = CircuitInstr::gate(GateKind::H, {}, {0});
  std::vector<NoiseOp> HOps = M.noiseFor(H);
  ASSERT_EQ(HOps.size(), 1u);
  EXPECT_EQ(HOps[0].Channel->Name, KrausChannel::depolarizing(0.01).Name);

  // Measure/reset instructions carry no channels.
  EXPECT_FALSE(M.affectsGate(CircuitInstr::measure(0, 0)));
  EXPECT_TRUE(M.noiseFor(CircuitInstr::reset(0)).empty());

  // Readout lookup: per-qubit override beats the global error.
  M.setQubitReadoutError(3, 0.5, 0.5);
  EXPECT_NEAR(M.readoutFor(0).P0to1, 0.01, 1e-15);
  EXPECT_NEAR(M.readoutFor(3).P0to1, 0.5, 1e-15);

  // One general Kraus channel flips the whole model off the Pauli path.
  M.addQubitChannel(2, KrausChannel::amplitudeDamping(0.1));
  EXPECT_FALSE(M.isPauliOnly());

  std::string Error;
  EXPECT_TRUE(M.validate(Error)) << Error;
}

TEST(NoiseModelTest, ValidateRejectsBrokenChannels) {
  NoiseModel M;
  Mat2 Half = Mat2::identity();
  Half.M[0][0] = Half.M[1][1] = 0.5;
  M.addGateChannel(GateKind::H, KrausChannel::kraus({Half}, "broken"));
  std::string Error;
  EXPECT_FALSE(M.validate(Error));
  EXPECT_NE(Error.find("broken"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(NoiseSpecTest, ParsesFullSpec) {
  const char *Good = R"(
# gate channels
[gate:x]
depolarizing = 0.01

[gate:*]
bit_flip = 0.001     ; catch-all

[qubit:2]
amplitude_damping = 0.05
phase_damping = 0.02

[readout]
p0to1 = 0.01
p1to0 = 0.03

[readout:4]
p0to1 = 0.08
)";
  NoiseModel M;
  std::string Error;
  ASSERT_TRUE(parseNoiseSpec(Good, M, Error)) << Error;
  EXPECT_TRUE(M.hasGateNoise());
  EXPECT_FALSE(M.isPauliOnly()); // amplitude damping on qubit 2
  EXPECT_TRUE(M.validate(Error)) << Error;

  EXPECT_TRUE(M.affectsGate(CircuitInstr::gate(GateKind::X, {}, {0})));
  // H falls back to the catch-all channel.
  std::vector<NoiseOp> HOps =
      M.noiseFor(CircuitInstr::gate(GateKind::H, {}, {0}));
  ASSERT_EQ(HOps.size(), 1u);
  // Qubit 2 stacks its two damping channels in file order.
  std::vector<NoiseOp> Q2 =
      M.noiseFor(CircuitInstr::gate(GateKind::H, {}, {2}));
  ASSERT_EQ(Q2.size(), 3u);
  EXPECT_NE(Q2[1].Channel->Name.find("amplitude_damping"),
            std::string::npos);
  EXPECT_NE(Q2[2].Channel->Name.find("phase_damping"), std::string::npos);

  EXPECT_NEAR(M.readoutFor(0).P1to0, 0.03, 1e-15);
  EXPECT_NEAR(M.readoutFor(4).P0to1, 0.08, 1e-15);
  EXPECT_NEAR(M.readoutFor(4).P1to0, 0.0, 1e-15);
}

TEST(NoiseSpecTest, ReopenedReadoutSectionsMerge) {
  // Re-opening [readout] must continue it, not zero the keys the earlier
  // section set — and an empty re-open changes nothing.
  NoiseModel M;
  std::string Error;
  ASSERT_TRUE(parseNoiseSpec("[readout]\np0to1 = 0.01\n"
                             "[readout]\np1to0 = 0.03\n"
                             "[readout]\n",
                             M, Error))
      << Error;
  EXPECT_NEAR(M.globalReadoutError().P0to1, 0.01, 1e-15);
  EXPECT_NEAR(M.globalReadoutError().P1to0, 0.03, 1e-15);

  NoiseModel Q;
  ASSERT_TRUE(parseNoiseSpec("[readout:2]\np0to1 = 0.05\n"
                             "[readout:2]\np1to0 = 0.07\n",
                             Q, Error))
      << Error;
  ASSERT_NE(Q.qubitReadoutOverride(2), nullptr);
  EXPECT_NEAR(Q.readoutFor(2).P0to1, 0.05, 1e-15);
  EXPECT_NEAR(Q.readoutFor(2).P1to0, 0.07, 1e-15);
  // A fresh per-qubit section starts from zero, not from the global error.
  NoiseModel R;
  ASSERT_TRUE(parseNoiseSpec("[readout]\np0to1 = 0.5\n"
                             "[readout:1]\np1to0 = 0.25\n",
                             R, Error))
      << Error;
  EXPECT_NEAR(R.readoutFor(1).P0to1, 0.0, 1e-15);
  EXPECT_NEAR(R.readoutFor(1).P1to0, 0.25, 1e-15);
}

TEST(NoiseSpecTest, RejectsGarbageWithLineNumbers) {
  NoiseModel M;
  std::string Error;
  EXPECT_FALSE(parseNoiseSpec("[gate:cnot]\n", M, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parseNoiseSpec("[gate:x]\nwarp_drive = 0.1\n", M, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parseNoiseSpec("[gate:x]\ndepolarizing = 1.5\n", M, Error));
  EXPECT_FALSE(parseNoiseSpec("[gate:x]\ndepolarizing = nope\n", M, Error));
  EXPECT_FALSE(parseNoiseSpec("depolarizing = 0.1\n", M, Error));
  EXPECT_NE(Error.find("outside any section"), std::string::npos);
  EXPECT_FALSE(parseNoiseSpec("[qubit:abc]\n", M, Error));
  EXPECT_FALSE(parseNoiseSpec("[readout]\nq = 0.1\n", M, Error));
  EXPECT_FALSE(parseNoiseSpec("[planet:3]\n", M, Error));
}

TEST(NoiseSpecTest, QubitIndicesAreWholeDecimalsInRange) {
  // An index past UINT_MAX must not wrap onto a small qubit, and a signed
  // index is not a qubit: the CLI's whole-number rules apply.
  for (const char *Bad : {"[qubit: 4294967296]\nbit_flip = 0.1\n",
                          "[readout: 4294967297]\np0to1 = 0.1\n",
                          "[qubit: -1]\nbit_flip = 0.1\n",
                          "[qubit: +2]\nbit_flip = 0.1\n"}) {
    NoiseModel M;
    std::string Error;
    EXPECT_FALSE(parseNoiseSpec(Bad, M, Error)) << Bad;
    EXPECT_NE(Error.find("line 1: bad qubit index"), std::string::npos)
        << Bad << " -> " << Error;
    EXPECT_TRUE(M.empty()) << Bad;
  }

  NoiseModel M;
  std::string Error;
  ASSERT_TRUE(parseNoiseSpec("[qubit: 3]\nbit_flip = 0.1\n"
                             "[readout: 3]\np0to1 = 0.2\n",
                             M, Error))
      << Error;
  EXPECT_TRUE(M.affectsGate(CircuitInstr::gate(GateKind::H, {}, {3})));
  EXPECT_FALSE(M.affectsGate(CircuitInstr::gate(GateKind::H, {}, {0})));
  ASSERT_NE(M.qubitReadoutOverride(3), nullptr);
  EXPECT_EQ(M.qubitReadoutOverride(1), nullptr);
  EXPECT_NEAR(M.readoutFor(3).P0to1, 0.2, 1e-15);
}

TEST(NoiseSpecTest, ProbabilitiesFollowTheSharedNumberRules) {
  // Hex floats, a '+' sign and an underflowing exponent are not numbers on
  // the command line, so they are not probabilities here either.
  for (const char *Bad : {"0x1p-4", "+0.1", "1e-400"}) {
    NoiseModel M;
    std::string Error;
    EXPECT_FALSE(parseNoiseSpec(std::string("[gate:*]\ndepolarizing = ") +
                                    Bad + "\n",
                                M, Error))
        << Bad;
    EXPECT_NE(Error.find("line 2: '" + std::string(Bad) +
                         "' is not a probability in [0, 1]"),
              std::string::npos)
        << Bad << " -> " << Error;
    EXPECT_TRUE(M.empty()) << Bad;
  }

  NoiseModel M;
  std::string Error;
  ASSERT_TRUE(parseNoiseSpec("[gate:*]\ndepolarizing = 0.25\n"
                             "[readout]\np0to1 = 1e-3\np1to0 = .5\n",
                             M, Error))
      << Error;
  EXPECT_EQ(M.globalReadoutError().P0to1, 1e-3);
  EXPECT_EQ(M.globalReadoutError().P1to0, 0.5);
  EXPECT_FALSE(M.empty());
}

//===----------------------------------------------------------------------===//
// Fusion channel barriers
//===----------------------------------------------------------------------===//

TEST(FusionBarrierTest, PredicateAndChannelBarriers) {
  EXPECT_TRUE(isFusionBarrier(CircuitInstr::measure(0, 0)));
  EXPECT_TRUE(isFusionBarrier(CircuitInstr::reset(0)));
  CircuitInstr Cond = CircuitInstr::gate(GateKind::X, {}, {0});
  Cond.CondBit = 0;
  EXPECT_TRUE(isFusionBarrier(Cond));
  EXPECT_FALSE(isFusionBarrier(CircuitInstr::gate(GateKind::X, {}, {0})));

  // A fusible 4-gate run: one op without noise, but a channel on T splits
  // it and closes the shared prefix at the first noisy gate.
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));

  FusedCircuit Ideal = fuseCircuit(C);
  EXPECT_EQ(Ideal.GatesFused, 4u);
  EXPECT_EQ(Ideal.UnconditionalPrefixOps, 1u);

  NoiseModel M;
  M.addGateChannel(GateKind::T, KrausChannel::depolarizing(0.1));
  FusedCircuit Noisy = fuseCircuit(C, &M);
  // H runs stay fusible around them, but both T gates pass through.
  unsigned PassThroughT = 0;
  for (const FusedOp &Op : Noisy.Ops)
    if (Op.TheKind == FusedOp::Kind::Instr &&
        C.Instrs[Op.InstrIndex].TheKind == CircuitInstr::Kind::Gate &&
        C.Instrs[Op.InstrIndex].Gate == GateKind::T)
      ++PassThroughT;
  EXPECT_EQ(PassThroughT, 2u);
  // The shared prefix ends before the first noisy gate (only the leading
  // H remains shareable).
  EXPECT_EQ(Noisy.UnconditionalPrefixOps, 1u);
  EXPECT_EQ(Noisy.Ops[0].TheKind, FusedOp::Kind::Instr);
  EXPECT_EQ(C.Instrs[Noisy.Ops[0].InstrIndex].Gate, GateKind::H);
}

//===----------------------------------------------------------------------===//
// Trajectory convergence to closed forms
//===----------------------------------------------------------------------===//

double oneFrequency(const std::map<std::string, unsigned> &Counts,
                    unsigned Shots, char Bit = '1') {
  unsigned Ones = 0;
  for (const auto &KV : Counts)
    if (KV.first[0] == Bit)
      Ones += KV.second;
  return double(Ones) / Shots;
}

TEST(TrajectoryTest, AmplitudeDampingMatchesClosedForm) {
  // X |0> = |1>, then damping with rate g: P(1) = 1 - g.
  const double Gamma = 0.3;
  NoiseModel M;
  M.addGateChannel(GateKind::X, KrausChannel::amplitudeDamping(Gamma));
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  RunOptions Opts;
  Opts.Noise = &M;
  const unsigned Shots = 20000;
  std::map<std::string, unsigned> Counts =
      runShots(C, Shots, 7, BackendKind::Statevector, Opts);
  EXPECT_NEAR(oneFrequency(Counts, Shots), 1.0 - Gamma, 0.02);
}

TEST(TrajectoryTest, RepeatedDampingCompounds) {
  // X then Z, damping after every gate: P(1) = (1 - g)^2 — the Z leaves
  // populations alone but triggers the catch-all channel.
  const double Gamma = 0.25;
  NoiseModel M;
  M.addDefaultChannel(KrausChannel::amplitudeDamping(Gamma));
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::Z, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  RunOptions Opts;
  Opts.Noise = &M;
  const unsigned Shots = 20000;
  std::map<std::string, unsigned> Counts =
      runShots(C, Shots, 11, BackendKind::Statevector, Opts);
  EXPECT_NEAR(oneFrequency(Counts, Shots), (1.0 - Gamma) * (1.0 - Gamma),
              0.02);
}

TEST(TrajectoryTest, DepolarizingMatchesClosedForm) {
  // X |0> = |1>, depolarizing p: X and Y branches flip the population,
  // so P(0) = 2p/3 — on both engines (the model is Pauli-only).
  const double P = 0.3;
  NoiseModel M;
  M.addGateChannel(GateKind::X, KrausChannel::depolarizing(P));
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  RunOptions Opts;
  Opts.Noise = &M;
  const unsigned Shots = 20000;
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> Counts = runShots(C, Shots, 13, K, Opts);
    EXPECT_NEAR(oneFrequency(Counts, Shots, '0'), 2.0 * P / 3.0, 0.02)
        << "backend " << int(K);
  }
}

TEST(TrajectoryTest, ReadoutErrorMatchesClosedForm) {
  NoiseModel M;
  M.setReadoutError(0.08, 0.15);
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::X, {}, {1}));
  C.append(CircuitInstr::measure(0, 0)); // true 0: flips with p0to1
  C.append(CircuitInstr::measure(1, 1)); // true 1: flips with p1to0
  RunOptions Opts;
  Opts.Noise = &M;
  const unsigned Shots = 20000;
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> Counts = runShots(C, Shots, 17, K, Opts);
    unsigned Bit0One = 0, Bit1Zero = 0;
    for (const auto &KV : Counts) {
      if (KV.first[0] == '1')
        Bit0One += KV.second;
      if (KV.first[1] == '0')
        Bit1Zero += KV.second;
    }
    EXPECT_NEAR(double(Bit0One) / Shots, 0.08, 0.01) << "backend " << int(K);
    EXPECT_NEAR(double(Bit1Zero) / Shots, 0.15, 0.015)
        << "backend " << int(K);
  }
}

TEST(TrajectoryTest, DepolarizedBellPairCorrelation) {
  // Bell pair with one depolarizing hit on qubit 1 (touched only by the
  // CX): X or Y branches break the correlation, Z does not, so
  // P(equal outcomes) = 1 - 2p/3. Both engines must land there.
  const double P = 0.24;
  NoiseModel M;
  M.addQubitChannel(1, KrausChannel::depolarizing(P));
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  RunOptions Opts;
  Opts.Noise = &M;
  const unsigned Shots = 20000;
  for (BackendKind K : {BackendKind::Statevector, BackendKind::Stabilizer}) {
    std::map<std::string, unsigned> Counts = runShots(C, Shots, 23, K, Opts);
    unsigned Equal = 0;
    for (const auto &KV : Counts)
      if (KV.first[0] == KV.first[1])
        Equal += KV.second;
    EXPECT_NEAR(double(Equal) / Shots, 1.0 - 2.0 * P / 3.0, 0.02)
        << "backend " << int(K);
  }
}

//===----------------------------------------------------------------------===//
// Cross-backend distribution agreement
//===----------------------------------------------------------------------===//

/// A random Clifford circuit ending in measure-all (as in SimBackendTest).
Circuit randomClifford(std::mt19937_64 &Rng, unsigned NumQubits,
                       unsigned NumGates) {
  Circuit C;
  C.NumQubits = NumQubits;
  C.NumBits = NumQubits;
  std::uniform_int_distribution<unsigned> PickGate(0, 8);
  std::uniform_int_distribution<unsigned> PickQubit(0, NumQubits - 1);
  for (unsigned G = 0; G < NumGates; ++G) {
    unsigned A = PickQubit(Rng), B = PickQubit(Rng);
    while (NumQubits > 1 && B == A)
      B = PickQubit(Rng);
    switch (PickGate(Rng)) {
    case 0: C.append(CircuitInstr::gate(GateKind::H, {}, {A})); break;
    case 1: C.append(CircuitInstr::gate(GateKind::S, {}, {A})); break;
    case 2: C.append(CircuitInstr::gate(GateKind::Sdg, {}, {A})); break;
    case 3: C.append(CircuitInstr::gate(GateKind::X, {}, {A})); break;
    case 4: C.append(CircuitInstr::gate(GateKind::Y, {}, {A})); break;
    case 5: C.append(CircuitInstr::gate(GateKind::Z, {}, {A})); break;
    case 6: C.append(CircuitInstr::gate(GateKind::X, {A}, {B})); break;
    case 7: C.append(CircuitInstr::gate(GateKind::Z, {A}, {B})); break;
    default: C.append(CircuitInstr::gate(GateKind::Swap, {}, {A, B})); break;
    }
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

NoiseModel pauliTestModel() {
  NoiseModel M;
  M.addDefaultChannel(KrausChannel::depolarizing(0.02));
  M.addGateChannel(GateKind::X, KrausChannel::bitFlip(0.05));
  M.setReadoutError(0.01, 0.02);
  return M;
}

TEST(CrossBackendNoiseTest, PauliModelDistributionsAgree) {
  // The acceptance bar: Pauli-noise Clifford circuits produce the same
  // distribution on the dense trajectory engine and the stabilizer
  // Pauli-frame path.
  NoiseModel M = pauliTestModel();
  RunOptions Opts;
  Opts.Noise = &M;
  std::mt19937_64 Rng(20260727);
  const unsigned Shots = 4000;
  for (unsigned Trial = 0; Trial < 6; ++Trial) {
    Circuit C = randomClifford(Rng, 2 + Trial % 4, 16 + 2 * Trial);
    ASSERT_TRUE(analyzeCircuit(C).CliffordOnly);
    std::map<std::string, unsigned> Sv =
        runShots(C, Shots, 100 + Trial, BackendKind::Statevector, Opts);
    std::map<std::string, unsigned> Stab =
        runShots(C, Shots, 900 + Trial, BackendKind::Stabilizer, Opts);
    EXPECT_LT(tvDistance(Sv, Stab, Shots), 0.1) << "trial " << Trial;
  }
}

TEST(CrossBackendNoiseTest, FeedForwardFallsBackToMonteCarlo) {
  // Feed-forward keeps the stabilizer engine off the frame path; the
  // per-shot tableau Monte-Carlo fallback must still match dense
  // trajectories in distribution.
  NoiseModel M = pauliTestModel();
  RunOptions Opts;
  Opts.Noise = &M;
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 3;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {2});
  Fix.CondBit = 0;
  C.append(Fix);
  C.append(CircuitInstr::reset(1));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  C.append(CircuitInstr::measure(1, 1));
  C.append(CircuitInstr::measure(2, 2));
  ASSERT_TRUE(analyzeCircuit(C).HasFeedForward);
  const unsigned Shots = 4000;
  std::map<std::string, unsigned> Sv =
      runShots(C, Shots, 3, BackendKind::Statevector, Opts);
  std::map<std::string, unsigned> Stab =
      runShots(C, Shots, 41, BackendKind::Stabilizer, Opts);
  EXPECT_LT(tvDistance(Sv, Stab, Shots), 0.1);
}

TEST(CrossBackendNoiseTest, FramePathMatchesMonteCarlo) {
  // The frame sampler against independent noisy tableau runs on a circuit
  // with random collapses, mid-circuit measurement, and reset (but no
  // feed-forward): distributions must agree — the collapse-coin machinery
  // is exactly what this pins.
  NoiseModel M = pauliTestModel();
  Circuit C;
  C.NumQubits = 4;
  C.NumBits = 4;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {1}, {2}));
  C.append(CircuitInstr::measure(2, 2)); // random mid-circuit collapse
  C.append(CircuitInstr::reset(2));
  C.append(CircuitInstr::gate(GateKind::H, {}, {2}));
  C.append(CircuitInstr::gate(GateKind::S, {}, {3}));
  C.append(CircuitInstr::gate(GateKind::Z, {0}, {3}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(CircuitInstr::measure(1, 1));
  C.append(CircuitInstr::measure(3, 3));
  ASSERT_FALSE(analyzeCircuit(C).HasFeedForward);

  StabilizerBackend Stab;
  const unsigned Shots = 6000;
  RunOptions Opts;
  Opts.Noise = &M;
  // runBatch takes the frame path (no feed-forward)...
  std::map<std::string, unsigned> Frame;
  for (const ShotResult &R : Stab.runBatch(C, Shots, 5, Opts))
    ++Frame[R.str()];
  // ...and runNoisy is always the per-shot Monte-Carlo tableau.
  std::map<std::string, unsigned> Mc;
  for (unsigned S = 0; S < Shots; ++S)
    ++Mc[Stab.runNoisy(C, deriveShotSeed(77, S), M).str()];
  EXPECT_LT(tvDistance(Frame, Mc, Shots), 0.08);
}

TEST(CrossBackendNoiseTest, NoiselessFramePathMatchesIdealDistribution) {
  // With an all-readout (gate-noise-free) Pauli model, the frame path's
  // collapse coins alone must reproduce the ideal outcome distribution —
  // GHZ correlations included.
  NoiseModel M;
  M.setReadoutError(0.0, 0.0);
  M.addDefaultChannel(KrausChannel::depolarizing(0.0));
  Circuit C;
  C.NumQubits = 3;
  C.NumBits = 3;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {1}, {2}));
  for (unsigned Q = 0; Q < 3; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  StabilizerBackend Stab;
  RunOptions Opts;
  Opts.Noise = &M;
  EXPECT_FALSE(M.empty()); // depolarizing(0) keeps the noisy path engaged
  const unsigned Shots = 4000;
  std::map<std::string, unsigned> Counts;
  for (const ShotResult &R : Stab.runBatch(C, Shots, 9, Opts))
    ++Counts[R.str()];
  // Only the two GHZ strings, split close to evenly.
  ASSERT_EQ(Counts.size(), 2u);
  EXPECT_NEAR(double(Counts["000"]) / Shots, 0.5, 0.03);
  EXPECT_NEAR(double(Counts["111"]) / Shots, 0.5, 0.03);
}

//===----------------------------------------------------------------------===//
// Determinism: jobs and fusion must not change noisy bits
//===----------------------------------------------------------------------===//

/// A non-Clifford dynamic circuit exercising every noise code path.
Circuit mixedNoisyCircuit() {
  Circuit C;
  C.NumQubits = 4;
  C.NumBits = 4;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::RY, {}, {1}, 0.8));
  C.append(CircuitInstr::gate(GateKind::T, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {2}));
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {3});
  Fix.CondBit = 0;
  C.append(Fix);
  C.append(CircuitInstr::reset(2));
  C.append(CircuitInstr::gate(GateKind::H, {}, {2}));
  for (unsigned Q = 1; Q < 4; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

NoiseModel krausTestModel() {
  NoiseModel M;
  M.addDefaultChannel(KrausChannel::depolarizing(0.01));
  M.addGateChannel(GateKind::H, KrausChannel::amplitudeDamping(0.05));
  M.addQubitChannel(1, KrausChannel::phaseDamping(0.04));
  M.setReadoutError(0.02, 0.03);
  return M;
}

TEST(NoiseDeterminismTest, JobsAndFusionDoNotChangeNoisyBits) {
  // The acceptance bar: the fused noisy batch at jobs 1 and 4 is
  // bit-identical to the unfused runNoisy reference — both with noise on
  // every gate (nothing fusible) and with sparse noise, where fusion
  // really merges runs between the channel barriers.
  NoiseModel Dense = krausTestModel();
  NoiseModel Sparse;
  Sparse.addGateChannel(GateKind::T, KrausChannel::amplitudeDamping(0.1));
  Sparse.setReadoutError(0.02, 0.03);
  Circuit C = mixedNoisyCircuit();
  StatevectorBackend Sv;
  const unsigned Shots = 48;
  for (const NoiseModel *M : {&Dense, &Sparse}) {
    std::vector<ShotResult> Want;
    for (unsigned S = 0; S < Shots; ++S)
      Want.push_back(Sv.runNoisy(C, deriveShotSeed(21, S), *M));
    for (unsigned Jobs : {1u, 4u}) {
      RunOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Noise = M;
      std::vector<ShotResult> Got = Sv.runBatch(C, Shots, 21, Opts);
      ASSERT_EQ(Got.size(), Want.size());
      for (unsigned S = 0; S < Shots; ++S)
        ASSERT_EQ(Got[S].Bits, Want[S].Bits)
            << "jobs " << Jobs << " shot " << S;
    }
  }
}

TEST(NoiseDeterminismTest, StabilizerNoisyBatchesAreJobsInvariant) {
  NoiseModel M = pauliTestModel();
  StabilizerBackend Stab;
  // Frame path (no feed-forward) and Monte-Carlo path (feed-forward).
  std::mt19937_64 Rng(5);
  Circuit Plain = randomClifford(Rng, 5, 30);
  Circuit Dynamic = Plain;
  CircuitInstr Fix = CircuitInstr::gate(GateKind::Z, {}, {0});
  Fix.CondBit = 4;
  Dynamic.append(Fix);
  Dynamic.append(CircuitInstr::measure(0, 0));
  for (const Circuit &C : {Plain, Dynamic}) {
    RunOptions J1, J4;
    J1.Jobs = 1;
    J4.Jobs = 4;
    J1.Noise = J4.Noise = &M;
    std::vector<ShotResult> A = Stab.runBatch(C, 64, 31, J1);
    std::vector<ShotResult> B = Stab.runBatch(C, 64, 31, J4);
    for (unsigned S = 0; S < 64; ++S)
      ASSERT_EQ(A[S].Bits, B[S].Bits) << "shot " << S;
  }
}

TEST(NoiseDeterminismTest, TrajectoryCountersAreJobsInvariant) {
  // The counters asdfc --trajectories prints. Every engine path counts
  // into its worker's own SimStats, merged after the join, so jobs 1 and 4
  // must agree exactly; without conditional gates every shot samples every
  // insertion site once.
  NoiseModel Kraus = krausTestModel();
  NoiseModel Pauli = pauliTestModel();
  std::mt19937_64 Rng(7);
  Circuit Plain = randomClifford(Rng, 5, 30);
  Circuit Dynamic = Plain;
  CircuitInstr Fix = CircuitInstr::gate(GateKind::Z, {}, {0});
  Fix.CondBit = 4;
  Dynamic.append(Fix);
  Dynamic.append(CircuitInstr::measure(0, 0));
  ASSERT_TRUE(analyzeCircuit(Dynamic).HasFeedForward);
  StatevectorBackend Sv;
  StabilizerBackend Stab;
  struct Case {
    const char *Name;
    const SimBackend *B;
    const Circuit *C;
    const NoiseModel *M;
  };
  const Case Cases[] = {
      {"dense trajectories", &Sv, &Plain, &Kraus},
      {"dense feed-forward", &Sv, &Dynamic, &Kraus},
      {"pauli frames", &Stab, &Plain, &Pauli},
      {"tableau feed-forward", &Stab, &Dynamic, &Pauli},
  };
  const unsigned Shots = 200;
  for (const Case &TC : Cases) {
    SimStats J1, J4;
    for (unsigned Jobs : {1u, 4u}) {
      RunOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Noise = TC.M;
      Opts.SimCounters = Jobs == 1 ? &J1 : &J4;
      TC.B->runBatch(*TC.C, Shots, 13, Opts);
    }
    EXPECT_GT(J1.ErrorBranches, 0u) << TC.Name;
    EXPECT_GT(J1.ReadoutFlips, 0u) << TC.Name;
    EXPECT_EQ(J1.ChannelApps, J4.ChannelApps) << TC.Name;
    EXPECT_EQ(J1.ErrorBranches, J4.ErrorBranches) << TC.Name;
    EXPECT_EQ(J1.ReadoutFlips, J4.ReadoutFlips) << TC.Name;
    if (TC.C == &Plain) {
      size_t Sites = 0;
      for (const std::vector<NoiseOp> &Ops : planNoise(*TC.M, Plain).PerInstr)
        Sites += Ops.size();
      EXPECT_EQ(J1.ChannelApps, Shots * Sites) << TC.Name;
    }
  }
}

TEST(NoiseDeterminismTest, StabilizerBatchesHonorAnExpiredDeadline) {
  // Backend.h's runBatch contract: past RunOptions::Deadline the run
  // throws DeadlineExceeded instead of finishing. Both stabilizer batch
  // paths check it before every shot, noisy or ideal: Pauli frames (no
  // feed-forward) and per-shot tableaus (feed-forward).
  NoiseModel M = pauliTestModel();
  StabilizerBackend Stab;
  std::mt19937_64 Rng(13);
  Circuit Plain = randomClifford(Rng, 6, 40);
  Circuit Dynamic = Plain;
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  Dynamic.append(Fix);
  Dynamic.append(CircuitInstr::measure(1, 1));
  ASSERT_FALSE(analyzeCircuit(Plain).HasFeedForward);
  ASSERT_TRUE(analyzeCircuit(Dynamic).HasFeedForward);
  const NoiseModel *Models[] = {&M, nullptr};
  for (const NoiseModel *Noise : Models)
    for (const Circuit *C : {&Plain, &Dynamic})
      for (unsigned Jobs : {1u, 4u}) {
        RunOptions Opts;
        Opts.Jobs = Jobs;
        Opts.Noise = Noise;
        Opts.Deadline =
            std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
        EXPECT_THROW(Stab.runBatch(*C, 64, 5, Opts), DeadlineExceeded)
            << (Noise ? "noisy" : "ideal") << " jobs " << Jobs
            << (C == &Plain ? " frames" : " feed-forward");
      }
}

TEST(NoiseDeterminismTest, DenseBatchesHonorAnExpiredDeadline) {
  // The dense twin of the test above. Forked shots check the deadline
  // before every shot, in each branch of the batch core: one shot, split
  // kernels and shot-parallel (14 qubits, so the kernels split). The
  // measure/reset tail's walk checks it before every group and node.
  // Kraus channels on the gates fork every shot; readout error alone
  // leaves the tail to the walk.
  Circuit Tail;
  Tail.NumQubits = 14;
  Tail.NumBits = 14;
  for (unsigned Q = 0; Q < 14; ++Q)
    Tail.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, 0.3 + 0.1 * Q));
  for (unsigned Q = 1; Q < 14; ++Q)
    Tail.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  Circuit Forked = Tail;
  for (unsigned Q = 0; Q < 14; ++Q) {
    Tail.append(CircuitInstr::measure(Q, Q));
    Tail.append(CircuitInstr::reset(Q));
  }
  Forked.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  Forked.append(Fix);
  for (unsigned Q = 1; Q < 14; ++Q)
    Forked.append(CircuitInstr::measure(Q, Q));
  NoiseModel Kraus = krausTestModel();
  NoiseModel Readout;
  Readout.setReadoutError(0.02, 0.03);
  StatevectorBackend Sv;
  const NoiseModel *Models[] = {nullptr, &Readout, &Kraus};
  const std::pair<unsigned, unsigned> Shapes[] = {{4, 1}, {4, 4}, {4, 8},
                                                  {1, 4}};
  for (const NoiseModel *Noise : Models)
    for (const Circuit *C : {&Tail, &Forked})
      for (auto [Jobs, Shots] : Shapes) {
        RunOptions Opts;
        Opts.Jobs = Jobs;
        Opts.Noise = Noise;
        Opts.Deadline =
            std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
        EXPECT_THROW(Sv.runBatch(*C, Shots, 5, Opts), DeadlineExceeded)
            << (Noise == &Kraus ? "kraus" : Noise ? "readout" : "ideal")
            << (C == &Tail ? " tail" : " forked") << ", jobs " << Jobs
            << ", " << Shots << " shots";
      }
}

TEST(NoiseDeterminismTest, SeedsMatterAndReplaysAreExact) {
  NoiseModel M = krausTestModel();
  Circuit C = mixedNoisyCircuit();
  RunOptions Opts;
  Opts.Noise = &M;
  std::map<std::string, unsigned> A = runShots(C, 400, 1, BackendKind::Auto,
                                               Opts);
  EXPECT_EQ(A, runShots(C, 400, 1, BackendKind::Auto, Opts));
  EXPECT_NE(A, runShots(C, 400, 2, BackendKind::Auto, Opts));
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

TEST(NoiseDispatchTest, AutoRoutesByModelKind) {
  Circuit Cliff;
  Cliff.NumQubits = 2;
  Cliff.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  Cliff.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  BackendRegistry &Reg = BackendRegistry::instance();

  NoiseModel Pauli = pauliTestModel();
  NoiseModel Kraus = krausTestModel();
  NoiseModel Empty;
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Auto, nullptr, &Pauli).name(),
               "stab");
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Auto, nullptr, &Kraus).name(),
               "sv");
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Auto, nullptr, &Empty).name(),
               "stab");
  EXPECT_STREQ(Reg.select(Cliff, BackendKind::Auto).name(), "stab");

  EXPECT_TRUE(Reg.lookup("sv")->supportsNoise(Kraus));
  EXPECT_TRUE(Reg.lookup("sv")->supportsNoise(Pauli));
  EXPECT_FALSE(Reg.lookup("stab")->supportsNoise(Kraus));
  EXPECT_TRUE(Reg.lookup("stab")->supportsNoise(Pauli));
}

} // namespace
