//===- BackendTest.cpp - Codegen, estimator, and baseline tests -----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "compiler/CompileSession.h"
#include "estimate/ResourceEstimator.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace asdf;

namespace {

Circuit bvCircuit(const std::string &Secret) {
  const char *Source = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString(Secret);
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  CompileSession S(Source, B);
  Circuit *C = S.flatCircuit();
  EXPECT_NE(C, nullptr) << S.errorMessage();
  return C ? std::move(*C) : Circuit();
}

//===----------------------------------------------------------------------===//
// OpenQASM 3
//===----------------------------------------------------------------------===//

TEST(QasmTest, EmitsWellFormedProgram) {
  Circuit C = bvCircuit("101");
  std::string Qasm = emitOpenQasm3(C);
  EXPECT_NE(Qasm.find("OPENQASM 3.0;"), std::string::npos);
  EXPECT_NE(Qasm.find("include \"stdgates.inc\";"), std::string::npos);
  EXPECT_NE(Qasm.find("qubit["), std::string::npos);
  EXPECT_NE(Qasm.find("h q["), std::string::npos);
  EXPECT_NE(Qasm.find("measure q["), std::string::npos);
}

TEST(QasmTest, NamedControlledGates) {
  Circuit C;
  C.NumQubits = 3;
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {0, 1}, {2}));
  C.append(CircuitInstr::gate(GateKind::Z, {0}, {1}));
  C.append(CircuitInstr::gate(GateKind::P, {0}, {1}, 0.25));
  std::string Qasm = emitOpenQasm3(C);
  EXPECT_NE(Qasm.find("cx q[0], q[1];"), std::string::npos);
  EXPECT_NE(Qasm.find("ccx q[0], q[1], q[2];"), std::string::npos);
  EXPECT_NE(Qasm.find("cz q[0], q[1];"), std::string::npos);
  EXPECT_NE(Qasm.find("cp(0.25) q[0], q[1];"), std::string::npos);
}

TEST(QasmTest, DynamicCircuitConditions) {
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr I = CircuitInstr::gate(GateKind::X, {}, {0});
  I.CondBit = 0;
  C.append(I);
  std::string Qasm = emitOpenQasm3(C);
  EXPECT_NE(Qasm.find("if (c[0] == 1) { x q[0]; }"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// QIR
//===----------------------------------------------------------------------===//

TEST(QirTest, BaseProfileStraightLine) {
  Circuit C = bvCircuit("1011");
  std::optional<std::string> Qir = emitQirBaseProfile(C);
  ASSERT_TRUE(Qir.has_value());
  EXPECT_NE(Qir->find("define void @main()"), std::string::npos);
  EXPECT_NE(Qir->find("__quantum__qis__h__body"), std::string::npos);
  EXPECT_NE(Qir->find("__quantum__qis__mz__body"), std::string::npos);
  EXPECT_NE(Qir->find("base_profile"), std::string::npos);
  // Base profile forbids callables entirely.
  EXPECT_EQ(Qir->find("callable"), std::string::npos);
}

TEST(QirTest, BaseProfileRejectsDynamicCircuits) {
  Circuit C;
  C.NumQubits = 1;
  C.NumBits = 1;
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr I = CircuitInstr::gate(GateKind::X, {}, {0});
  I.CondBit = 0;
  C.append(I);
  EXPECT_FALSE(emitQirBaseProfile(C).has_value());
}

TEST(QirTest, UnrestrictedEmitsCallablesWhenNotInlined) {
  const char *Source = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString("101");
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  SessionOptions Opts;
  Opts.Plan = presetPlan("no-opt");
  CompileSession S(Source, B, Opts);
  Module *QCircIR = S.qcircIR();
  ASSERT_NE(QCircIR, nullptr) << S.errorMessage();
  QirCallableStats Stats;
  std::string Qir = emitQirUnrestricted(*QCircIR, &Stats);
  EXPECT_GT(Stats.Creates, 0u);
  EXPECT_GT(Stats.Invokes, 0u);
  EXPECT_NE(Qir.find("__quantum__rt__callable_create"), std::string::npos);
  EXPECT_NE(Qir.find("__quantum__rt__callable_invoke"), std::string::npos);
  EXPECT_NE(Qir.find("__FunctionTable"), std::string::npos);
}

TEST(QirTest, UnrestrictedInlinedHasNoCallables) {
  const char *Source = R"(
qpu kernel(q: qubit[2]) -> qubit[2] { return q | pm[2] >> std[2] }
)";
  CompileSession S(Source, {});
  Module *QCircIR = S.qcircIR();
  ASSERT_NE(QCircIR, nullptr) << S.errorMessage();
  QirCallableStats Stats;
  emitQirUnrestricted(*QCircIR, &Stats);
  EXPECT_EQ(Stats.Creates, 0u);
  EXPECT_EQ(Stats.Invokes, 0u);
}

//===----------------------------------------------------------------------===//
// Resource estimator
//===----------------------------------------------------------------------===//

TEST(EstimatorTest, PaperParameters) {
  SurfaceCodeParams P;
  EXPECT_EQ(P.PhysPerLogical, 338u); // [[338, 1, 13]]
  EXPECT_EQ(P.CodeDistance, 13u);
  EXPECT_DOUBLE_EQ(P.LogicalCycleSeconds, 5.2e-6);
}

TEST(EstimatorTest, MonotoneInTCount) {
  CircuitStats A, B;
  A.TCount = 100;
  A.TDepth = 100;
  A.Depth = 100;
  B = A;
  B.TCount = 1000;
  B.TDepth = 1000;
  B.Depth = 1000;
  ResourceEstimate EA = estimateResources(A, 10);
  ResourceEstimate EB = estimateResources(B, 10);
  EXPECT_GT(EB.RuntimeSeconds, EA.RuntimeSeconds);
  EXPECT_GE(EB.PhysicalQubits, EA.PhysicalQubits);
}

TEST(EstimatorTest, MonotoneInWidth) {
  CircuitStats S;
  S.Depth = 10;
  ResourceEstimate Narrow = estimateResources(S, 8);
  ResourceEstimate Wide = estimateResources(S, 64);
  EXPECT_GT(Wide.PhysicalQubits, Narrow.PhysicalQubits);
  EXPECT_GT(Wide.LogicalQubits, Narrow.LogicalQubits);
}

TEST(EstimatorTest, TwoQubitSerializationDrivesCliffordRuntime) {
  CircuitStats S;
  S.Depth = 3;
  S.TwoQubitCount = 500; // Clifford-only circuit, many CNOTs.
  ResourceEstimate E = estimateResources(S, 16);
  EXPECT_GE(E.LogicalDepth, 500u);
}

//===----------------------------------------------------------------------===//
// Baselines
//===----------------------------------------------------------------------===//

class BaselineCorrectness
    : public ::testing::TestWithParam<std::tuple<BenchAlgorithm, int>> {};

TEST_P(BaselineCorrectness, BVStyleRecoverSecret) {
  auto [Alg, StyleInt] = GetParam();
  if (Alg != BenchAlgorithm::BV && Alg != BenchAlgorithm::DJ)
    GTEST_SKIP();
  BaselineStyle Style = static_cast<BaselineStyle>(StyleInt);
  unsigned N = 5;
  Circuit C = buildBaselineCircuit(Alg, Style, N);
  ShotResult Shot = simulate(C, 3);
  std::string Out;
  for (unsigned I = 0; I < N; ++I)
    Out.push_back(Shot.Bits[I] ? '1' : '0');
  std::string Want;
  for (unsigned I = 0; I < N; ++I)
    Want.push_back(Alg == BenchAlgorithm::BV ? (I % 2 == 0 ? '1' : '0')
                                             : '1');
  EXPECT_EQ(Out, Want) << baselineStyleName(Style);
}

TEST_P(BaselineCorrectness, GroverFindsAllOnes) {
  auto [Alg, StyleInt] = GetParam();
  if (Alg != BenchAlgorithm::Grover)
    GTEST_SKIP();
  BaselineStyle Style = static_cast<BaselineStyle>(StyleInt);
  unsigned N = 3;
  Circuit C = buildBaselineCircuit(Alg, Style, N);
  unsigned Hits = 0, Shots = 48;
  for (unsigned S = 0; S < Shots; ++S) {
    ShotResult Shot = simulate(C, S);
    bool All = true;
    for (unsigned I = 0; I < N; ++I)
      All &= Shot.Bits[I];
    Hits += All;
  }
  // 2 iterations at N=3: success probability ~0.94.
  EXPECT_GT(Hits * 1.0 / Shots, 0.8) << baselineStyleName(Style);
}

INSTANTIATE_TEST_SUITE_P(
    Backend, BaselineCorrectness,
    ::testing::Combine(::testing::Values(BenchAlgorithm::BV,
                                         BenchAlgorithm::DJ,
                                         BenchAlgorithm::Grover),
                       ::testing::Values(0, 1, 2)));

TEST(BaselineTest, QuipperUsesMoreQubitsOnBV) {
  Circuit Qiskit =
      buildBaselineCircuit(BenchAlgorithm::BV, BaselineStyle::Qiskit, 8);
  Circuit Quipper =
      buildBaselineCircuit(BenchAlgorithm::BV, BaselineStyle::Quipper, 8);
  EXPECT_GT(Quipper.NumQubits, Qiskit.NumQubits);
  EXPECT_GT(Quipper.stats().Total, Qiskit.stats().Total);
}

TEST(BaselineTest, SelingerBeatsNaiveOnGroverTCount) {
  Circuit Qiskit =
      buildBaselineCircuit(BenchAlgorithm::Grover, BaselineStyle::Qiskit, 8);
  Circuit QSharp =
      buildBaselineCircuit(BenchAlgorithm::Grover, BaselineStyle::QSharp, 8);
  EXPECT_LT(QSharp.stats().TCount, Qiskit.stats().TCount);
}

TEST(BaselineTest, QuipperPeriodFindingHasNoSwaps) {
  Circuit Quipper = buildBaselineCircuit(BenchAlgorithm::PeriodFinding,
                                         BaselineStyle::Quipper, 8);
  Circuit Qiskit = buildBaselineCircuit(BenchAlgorithm::PeriodFinding,
                                        BaselineStyle::Qiskit, 8);
  auto CountSwaps = [](const Circuit &C) {
    unsigned Count = 0;
    for (const CircuitInstr &I : C.Instrs)
      Count += I.TheKind == CircuitInstr::Kind::Gate &&
               I.Gate == GateKind::Swap;
    return Count;
  };
  EXPECT_EQ(CountSwaps(Quipper), 0u); // Renaming-based swaps (§8.3).
  EXPECT_GT(CountSwaps(Qiskit), 0u);
}

TEST(TranspileTest, CancelsAdjacentInverses) {
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::S, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::Sdg, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  Circuit Out = transpileO3(C);
  EXPECT_EQ(Out.Instrs.size(), 1u);
  EXPECT_EQ(Out.Instrs[0].Gate, GateKind::X);
}

TEST(TranspileTest, MergesRotations) {
  Circuit C;
  C.NumQubits = 1;
  C.append(CircuitInstr::gate(GateKind::P, {}, {0}, 0.5));
  C.append(CircuitInstr::gate(GateKind::P, {}, {0}, -0.5));
  Circuit Out = transpileO3(C);
  EXPECT_TRUE(Out.Instrs.empty());
}

TEST(TranspileTest, BlockedCancellationPreserved) {
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1})); // Blocks the pair.
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  Circuit Out = transpileO3(C);
  EXPECT_EQ(Out.Instrs.size(), 3u);
}

/// transpileO3 must not change a single shot: same seed, same bits.
void expectSameShots(const Circuit &C) {
  Circuit Opt = transpileO3(C);
  for (uint64_t Seed = 0; Seed < 32; ++Seed)
    ASSERT_EQ(simulate(C, Seed).Bits, simulate(Opt, Seed).Bits)
        << "seed " << Seed << "\nbefore:\n"
        << C.str() << "after:\n"
        << Opt.str();
}

TEST(TranspileTest, KeepsGatesConditionedOnOppositeValues) {
  // The two branches flatten to `if c0==1: X q1` and `if c0==0: X q1`.
  // Exactly one fires, so r reads 1 on every shot.
  const char *Source = R"(
qpu kernel() -> bit[2] {
    m = 'p' | std.measure
    r = '0' | (std.flip if m else id) | (id if m else std.flip) | std.measure
    return m + r
}
)";
  CompileSession S(Source, {});
  Circuit *C = S.flatCircuit();
  ASSERT_TRUE(C) << S.errorMessage();
  expectSameShots(*C);
}

TEST(TranspileTest, NoPairAcrossAWriteToTheConditionBit) {
  // The second measurement rewrites c0 between the two conditioned X's:
  // the first is skipped, the second fires.
  Circuit C;
  C.NumQubits = 2;
  C.NumBits = 2;
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  C.append(CircuitInstr::measure(0, 0));
  C.append(Fix);
  C.append(CircuitInstr::gate(GateKind::X, {}, {0}));
  C.append(CircuitInstr::measure(0, 0));
  C.append(Fix);
  C.append(CircuitInstr::measure(1, 1));
  expectSameShots(C);
}

TEST(TranspileTest, ControlledTwoPiRotationIsNotIdentity) {
  // RZ(2pi) = -I is a global phase alone but a Z on the control when
  // controlled: only uncontrolled 2pi and controlled 4pi rotations vanish.
  Circuit C;
  C.NumQubits = 3;
  C.append(CircuitInstr::gate(GateKind::RZ, {0}, {1}, M_PI));
  C.append(CircuitInstr::gate(GateKind::RZ, {0}, {1}, M_PI));
  C.append(CircuitInstr::gate(GateKind::RX, {}, {2}, M_PI));
  C.append(CircuitInstr::gate(GateKind::RX, {}, {2}, M_PI));
  C.append(CircuitInstr::gate(GateKind::RY, {1}, {2}, 2 * M_PI));
  C.append(CircuitInstr::gate(GateKind::RY, {1}, {2}, 2 * M_PI));
  Circuit Out = transpileO3(C);
  ASSERT_EQ(Out.Instrs.size(), 1u) << Out.str();
  EXPECT_TRUE(unitariesEquivalent(circuitUnitary(C), circuitUnitary(Out)))
      << Out.str();
}

TEST(TranspileTest, PreservesSemantics) {
  Circuit C = buildBaselineCircuit(BenchAlgorithm::Grover,
                                   BaselineStyle::QSharp, 3);
  Circuit Opt = transpileO3(C);
  // Both circuits must find the marked item.
  unsigned Hits = 0;
  for (unsigned S = 0; S < 24; ++S) {
    ShotResult Shot = simulate(Opt, S);
    bool All = Shot.Bits[0] && Shot.Bits[1] && Shot.Bits[2];
    Hits += All;
  }
  EXPECT_GT(Hits, 18u);
}

//===----------------------------------------------------------------------===//
// Circuit stats
//===----------------------------------------------------------------------===//

TEST(StatsTest, CountsTGates) {
  Circuit C;
  C.NumQubits = 2;
  C.append(CircuitInstr::gate(GateKind::T, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::Tdg, {}, {1}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  CircuitStats S = C.stats();
  EXPECT_EQ(S.TCount, 2u);
  EXPECT_EQ(S.CxCount, 1u);
  EXPECT_EQ(S.TwoQubitCount, 1u);
  EXPECT_EQ(S.Total, 4u);
}

TEST(StatsTest, DepthLayering) {
  Circuit C;
  C.NumQubits = 2;
  // Parallel single-qubit gates: depth 1.
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::H, {}, {1}));
  EXPECT_EQ(C.stats().Depth, 1u);
  // A CX serializes them.
  C.append(CircuitInstr::gate(GateKind::X, {0}, {1}));
  EXPECT_EQ(C.stats().Depth, 2u);
}

TEST(StatsTest, CliffordAngleRotationsNotCountedAsT) {
  Circuit C;
  C.NumQubits = 1;
  C.append(CircuitInstr::gate(GateKind::P, {}, {0}, M_PI / 2)); // S: Clifford
  C.append(CircuitInstr::gate(GateKind::P, {}, {0}, M_PI / 4)); // T
  C.append(CircuitInstr::gate(GateKind::P, {}, {0}, 0.3)); // arbitrary
  CircuitStats S = C.stats();
  EXPECT_EQ(S.TCount, 2u);
}

} // namespace
