//===- SimulatorTest.cpp - State-vector simulator unit tests --------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace asdf;

namespace {

constexpr double S2 = 0.70710678118654752440;

//===----------------------------------------------------------------------===//
// Single-qubit gates against known matrices
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, XFlips) {
  StateVector SV(1);
  SV.apply(GateKind::X, {}, {0}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1]), 1.0, 1e-12);
}

TEST(SimulatorTest, HCreatesSuperposition) {
  StateVector SV(1);
  SV.apply(GateKind::H, {}, {0}, 0);
  EXPECT_NEAR(SV.amplitudes()[0].real(), S2, 1e-12);
  EXPECT_NEAR(SV.amplitudes()[1].real(), S2, 1e-12);
}

TEST(SimulatorTest, YOnZero) {
  // Y|0> = i|1>.
  StateVector SV(1);
  SV.apply(GateKind::Y, {}, {0}, 0);
  EXPECT_NEAR(SV.amplitudes()[1].imag(), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0]), 0.0, 1e-12);
}

TEST(SimulatorTest, SThenSIsZ) {
  StateVector A(1), B(1);
  A.apply(GateKind::H, {}, {0}, 0);
  B.apply(GateKind::H, {}, {0}, 0);
  A.apply(GateKind::S, {}, {0}, 0);
  A.apply(GateKind::S, {}, {0}, 0);
  B.apply(GateKind::Z, {}, {0}, 0);
  EXPECT_NEAR(A.overlap(B), 1.0, 1e-12);
}

TEST(SimulatorTest, TFourthPowerIsZ) {
  StateVector A(1), B(1);
  A.apply(GateKind::H, {}, {0}, 0);
  B.apply(GateKind::H, {}, {0}, 0);
  for (int I = 0; I < 4; ++I)
    A.apply(GateKind::T, {}, {0}, 0);
  B.apply(GateKind::Z, {}, {0}, 0);
  EXPECT_NEAR(A.overlap(B), 1.0, 1e-12);
}

TEST(SimulatorTest, PIsPhaseOnOne) {
  StateVector SV(1);
  SV.apply(GateKind::H, {}, {0}, 0);
  SV.apply(GateKind::P, {}, {0}, M_PI / 3);
  Amplitude A1 = SV.amplitudes()[1];
  EXPECT_NEAR(std::arg(A1), M_PI / 3, 1e-12);
  // |0> amplitude untouched.
  EXPECT_NEAR(SV.amplitudes()[0].real(), S2, 1e-12);
}

TEST(SimulatorTest, RotationPeriodicity) {
  // RX(2 pi) = -I: probabilities unchanged.
  StateVector SV(1);
  SV.apply(GateKind::RX, {}, {0}, 2 * M_PI);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0]), 1.0, 1e-12);
  EXPECT_NEAR(SV.amplitudes()[0].real(), -1.0, 1e-12); // global -1 phase
}

TEST(SimulatorTest, RYAngleSweep) {
  for (double Theta : {0.3, 0.9, 1.7, 2.9}) {
    StateVector SV(1);
    SV.apply(GateKind::RY, {}, {0}, Theta);
    EXPECT_NEAR(SV.probOne(0), std::pow(std::sin(Theta / 2), 2), 1e-12);
  }
}

TEST(SimulatorTest, RZIsDiagonal) {
  StateVector SV(1);
  SV.apply(GateKind::H, {}, {0}, 0);
  SV.apply(GateKind::RZ, {}, {0}, 0.8);
  EXPECT_NEAR(SV.probOne(0), 0.5, 1e-12); // no population transfer
}

//===----------------------------------------------------------------------===//
// Multi-qubit behavior and conventions
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, Qubit0IsMostSignificant) {
  StateVector SV(2);
  SV.apply(GateKind::X, {}, {0}, 0);
  // |10>: index 0b10 = 2.
  EXPECT_NEAR(std::abs(SV.amplitudes()[2]), 1.0, 1e-12);
}

TEST(SimulatorTest, CxEntangles) {
  StateVector SV(2);
  SV.apply(GateKind::H, {}, {0}, 0);
  SV.apply(GateKind::X, {0}, {1}, 0);
  // Bell state: (|00> + |11>)/sqrt2.
  EXPECT_NEAR(std::abs(SV.amplitudes()[0]), S2, 1e-12);
  EXPECT_NEAR(std::abs(SV.amplitudes()[3]), S2, 1e-12);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1]), 0.0, 1e-12);
}

TEST(SimulatorTest, ControlOnZeroDoesNothing) {
  StateVector SV(2);
  SV.apply(GateKind::X, {0}, {1}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0]), 1.0, 1e-12);
}

TEST(SimulatorTest, SwapExchanges) {
  StateVector SV(2);
  SV.apply(GateKind::X, {}, {0}, 0); // |10>
  SV.apply(GateKind::Swap, {}, {0, 1}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1]), 1.0, 1e-12); // |01>
}

TEST(SimulatorTest, ControlledSwapIsFredkin) {
  StateVector SV(3);
  SV.apply(GateKind::X, {}, {0}, 0);
  SV.apply(GateKind::X, {}, {1}, 0); // |110>
  SV.apply(GateKind::Swap, {0}, {1, 2}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0b101]), 1.0, 1e-12);
}

TEST(SimulatorTest, MultiControlRequiresAll) {
  StateVector SV(3);
  SV.apply(GateKind::X, {}, {0}, 0); // only one control set
  SV.apply(GateKind::X, {0, 1}, {2}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0b100]), 1.0, 1e-12);
  SV.apply(GateKind::X, {}, {1}, 0); // both controls set
  SV.apply(GateKind::X, {0, 1}, {2}, 0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0b111]), 1.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Measurement and reset
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, MeasurementCollapses) {
  std::mt19937_64 Rng(5);
  StateVector SV(1);
  SV.apply(GateKind::H, {}, {0}, 0);
  bool Outcome = SV.measure(0, Rng);
  EXPECT_NEAR(SV.probOne(0), Outcome ? 1.0 : 0.0, 1e-12);
}

TEST(SimulatorTest, MeasurementStatisticsFollowBorn) {
  // RY(theta) gives P(1) = sin^2(theta/2); check frequencies.
  double Theta = 1.2;
  unsigned Ones = 0, Shots = 4000;
  for (unsigned S = 0; S < Shots; ++S) {
    std::mt19937_64 Rng(S);
    StateVector SV(1);
    SV.apply(GateKind::RY, {}, {0}, Theta);
    Ones += SV.measure(0, Rng);
  }
  double Want = std::pow(std::sin(Theta / 2), 2);
  EXPECT_NEAR(double(Ones) / Shots, Want, 0.03);
}

TEST(SimulatorTest, MeasuringBellCorrelates) {
  for (unsigned S = 0; S < 20; ++S) {
    std::mt19937_64 Rng(S * 3 + 1);
    StateVector SV(2);
    SV.apply(GateKind::H, {}, {0}, 0);
    SV.apply(GateKind::X, {0}, {1}, 0);
    bool A = SV.measure(0, Rng);
    bool B = SV.measure(1, Rng);
    EXPECT_EQ(A, B);
  }
}

TEST(SimulatorTest, ResetToZero) {
  std::mt19937_64 Rng(11);
  StateVector SV(1);
  SV.apply(GateKind::H, {}, {0}, 0);
  SV.reset(0, Rng);
  EXPECT_NEAR(SV.probOne(0), 0.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Circuit-level execution helpers
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, ConditionalInstructionsHonorBits) {
  // Measure |1>, then conditionally flip another qubit.
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr Cond = CircuitInstr::gate(GateKind::X, {}, {1});
  Cond.CondBit = 0;
  C.append(Cond);
  C.append(CircuitInstr::measure(1, 1)); // re-measure to observe
  // Hmm: need a second cbit for qubit 1.
  C.NumBits = 2;
  C.Instrs.back() = CircuitInstr::measure(1, 1);
  ShotResult R = simulate(C, 3);
  EXPECT_TRUE(R.Bits[0]);
  EXPECT_TRUE(R.Bits[1]);
}

TEST(SimulatorTest, RunShotsAggregates) {
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  std::map<std::string, unsigned> Counts = runShots(C, 2000, 9);
  ASSERT_EQ(Counts.size(), 2u);
  EXPECT_NEAR(Counts["0"] / 2000.0, 0.5, 0.05);
}

TEST(SimulatorTest, UnitaryOfCxMatchesMatrix) {
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  std::vector<std::vector<Amplitude>> U = circuitUnitary(C);
  std::vector<std::vector<Amplitude>> Want(4, std::vector<Amplitude>(4));
  Want[0][0] = Want[1][1] = Want[3][2] = Want[2][3] = Amplitude(1);
  EXPECT_TRUE(unitariesEquivalent(U, Want));
}

TEST(SimulatorTest, UnitaryEquivalenceUpToGlobalPhase) {
  Circuit A, B;
  A.NumQubits = B.NumQubits = 1;
  // RZ(pi) = diag(-i, i) vs Z = diag(1, -1): equal up to phase -i.
  A.append(CircuitInstr::gate(GateKind::RZ, {}, {0}, M_PI));
  B.append(CircuitInstr::gate(GateKind::Z, {}, {0}));
  EXPECT_TRUE(unitariesEquivalent(circuitUnitary(A), circuitUnitary(B)));
}

TEST(SimulatorTest, UnitaryEquivalenceWhenNoEntryExceedsOneHalf) {
  // Every entry of H (x) H has magnitude 1/2: the global phase must still
  // be read off one of them.
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  std::vector<std::vector<Amplitude>> U = circuitUnitary(C), Neg = U;
  for (auto &Row : Neg)
    for (Amplitude &X : Row)
      X = -X;
  EXPECT_TRUE(unitariesEquivalent(U, Neg));
  // A relative phase is not a global one.
  C.append(CircuitInstr::gate(GateKind::Z, {}, {0}));
  EXPECT_FALSE(unitariesEquivalent(U, circuitUnitary(C)));
}

TEST(SimulatorTest, OverlapDetectsOrthogonality) {
  StateVector A(1), B(1);
  B.apply(GateKind::X, {}, {0}, 0);
  EXPECT_NEAR(A.overlap(B), 0.0, 1e-12);
  EXPECT_NEAR(A.overlap(A), 1.0, 1e-12);
}

} // namespace
