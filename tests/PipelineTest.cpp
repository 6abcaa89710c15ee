//===- PipelineTest.cpp - End-to-end compiler + simulator tests -----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs whole Qwerty programs through every stage of Fig. 2 and validates
/// the executed semantics on the state-vector simulator: Bernstein-Vazirani
/// recovers its secret, Deutsch-Jozsa distinguishes balanced oracles,
/// Grover finds the marked item, Simon's samples are orthogonal to the
/// secret, and teleportation preserves arbitrary states through the
/// classically-conditioned circuit.
///
//===----------------------------------------------------------------------===//

#include "classical/LogicNetwork.h"
#include "classical/ReversibleSynth.h"
#include "ast/Parser.h"
#include "ast/TypeChecker.h"
#include "compiler/CompileSession.h"
#include "qcirc/Flatten.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace asdf;

namespace {

/// Reads the output bits of a shot through the circuit's output mapping.
std::string outputString(const Circuit &C, const ShotResult &R) {
  std::string S;
  for (int Ref : C.OutputBits) {
    if (Ref == -2)
      S.push_back('1');
    else if (Ref == -3)
      S.push_back('0');
    else
      S.push_back(R.Bits[static_cast<unsigned>(Ref)] ? '1' : '0');
  }
  return S;
}

const char *BVSource = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";

ProgramBindings bvBindings(const std::string &Secret) {
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString(Secret);
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return B;
}

TEST(PipelineTest, BernsteinVaziraniRecoversSecret) {
  for (const char *Secret : {"1010", "1111", "0001", "1011010"}) {
    CompileSession S(BVSource, bvBindings(Secret));
    Circuit *C = S.flatCircuit();
    ASSERT_TRUE(C) << S.errorMessage();
    // B-V is deterministic: every shot yields the secret.
    ShotResult Shot = simulate(*C, 42);
    EXPECT_EQ(outputString(*C, Shot), Secret);
  }
}

TEST(PipelineTest, BVFullyInlines) {
  CompileSession S(BVSource, bvBindings("1010"));
  Module *QwertyIR = S.qwertyIR();
  ASSERT_TRUE(QwertyIR) << S.errorMessage();
  // With optimization, everything inlines into one function with no
  // call_indirect ops (§8.2).
  EXPECT_EQ(QwertyIR->Functions.size(), 1u);
  for (auto &O : QwertyIR->Functions[0]->Body.Ops) {
    EXPECT_NE(O->Kind, OpKind::CallIndirect);
    EXPECT_NE(O->Kind, OpKind::Call);
  }
}

TEST(PipelineTest, BVNoOptKeepsCallIndirects) {
  SessionOptions Opts;
  Opts.Plan = presetPlan("no-opt");
  CompileSession S(BVSource, bvBindings("1010"), Opts);
  Module *QwertyIR = S.qwertyIR();
  ASSERT_TRUE(QwertyIR) << S.errorMessage();
  unsigned Consts = 0, Indirects = 0;
  for (auto &F : QwertyIR->Functions)
    for (auto &O : F->Body.Ops) {
      Consts += O->Kind == OpKind::FuncConst;
      Indirects += O->Kind == OpKind::CallIndirect;
    }
  EXPECT_GT(Consts, 0u);
  EXPECT_GT(Indirects, 0u);
}

TEST(PipelineTest, DeutschJozsaBalancedDetected) {
  // Balanced oracle (XOR of all bits): kernel output must be nonzero.
  const char *Source = R"(
classical f[N](x: bit[N]) -> bit {
    return x.xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";
  ProgramBindings B;
  B.DimVars["N"] = 5;
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  CompileSession S(Source, B);
  Circuit *C = S.flatCircuit();
  ASSERT_TRUE(C) << S.errorMessage();
  ShotResult Shot = simulate(*C, 7);
  // XOR-of-all-bits oracle is the secret 11111 in B-V terms.
  EXPECT_EQ(outputString(*C, Shot), "11111");
}

TEST(PipelineTest, GroverFindsMarkedItem) {
  // One Grover iteration on 2 qubits finds the all-ones item with
  // certainty: 'p'[2] | f.sign | diffuser.
  const char *Source = R"(
classical oracle[N](x: bit[N]) -> bit {
    return x.and_reduce()
}
qpu kernel[N](oracle: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | oracle.sign \
        | {'p'[N]} >> {-'p'[N]} \
        | std[N].measure
}
)";
  ProgramBindings B;
  B.DimVars["N"] = 2;
  B.Captures["kernel"]["oracle"] = CaptureValue::classicalFunc("oracle");
  CompileSession Session(Source, B);
  Circuit *C = Session.flatCircuit();
  ASSERT_TRUE(C) << Session.errorMessage();
  // Grover on N=2 with one iteration succeeds with probability 1; note the
  // diffuser {'p'[2]} >> {-'p'[2]} flips the sign of everything EXCEPT...
  // rather, exactly ON |++>, which is the standard diffuser up to global
  // phase.
  std::map<std::string, unsigned> Counts;
  for (unsigned S = 0; S < 32; ++S)
    ++Counts[outputString(*C, simulate(*C, S))];
  ASSERT_EQ(Counts.size(), 1u);
  EXPECT_EQ(Counts.begin()->first, "11");
}

TEST(PipelineTest, SimonSamplesOrthogonalToSecret) {
  // Simon's with secret s: f(x) = f(x ^ s). Use f(x) = (x & mask) where
  // mask zeroes the last bit and secret = 00...01: f(x) = x >> drops the
  // last bit. Measured samples y obey y . s = 0, i.e. the last bit of y is
  // always 0.
  const char *Source = R"(
classical f[N](mask: bit[N], x: bit[N]) -> bit[N] {
    return x & mask
}
qpu kernel[N](f: cfunc[N, N]) -> bit[N] {
    q = 'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N]
    first, second = q | (std[N] + std[N]).measure
    return first
}
)";
  unsigned N = 4;
  ProgramBindings B;
  B.Captures["f"]["mask"] = CaptureValue::bitsFromString("1110");
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  CompileSession Session(Source, B);
  Circuit *C = Session.flatCircuit();
  ASSERT_TRUE(C) << Session.errorMessage();
  for (unsigned S = 0; S < 40; ++S) {
    std::string Y = outputString(*C, simulate(*C, S));
    ASSERT_EQ(Y.size(), N);
    // y . s = 0 with s = 0001 means the last bit of y is 0.
    EXPECT_EQ(Y[3], '0') << "sample " << Y;
  }
}

TEST(PipelineTest, TeleportPreservesState) {
  const char *Source = R"(
qpu teleport(secret: qubit) -> qubit {
    alice, bob = 'p0' | '1' & std.flip
    m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure
    secret_teleported = bob | (std.flip if m_std else id) \
        | (pm.flip if m_pm else id)
    return secret_teleported
}
)";
  // Note: Fig. C13 of the paper conditions pm.flip on m_std and std.flip
  // on m_pm; working the algebra (and simulating), the corrections are the
  // other way around: X^(m_std) then Z^(m_pm).
  SessionOptions Opts;
  Opts.Entry = "teleport";
  CompileSession Session(Source, {}, Opts);
  Circuit *Flat = Session.flatCircuit();
  ASSERT_TRUE(Flat) << Session.errorMessage();
  const Circuit &C = *Flat;
  ASSERT_EQ(C.OutputQubits.size(), 1u);
  unsigned OutQ = C.OutputQubits.front();

  // Teleport a few distinct states prepared on the input register (the
  // argument occupies register 0).
  for (double Theta : {0.0, 0.7, 1.3, 2.2, M_PI}) {
    StateVector SV(C.NumQubits);
    SV.apply(GateKind::RY, {}, {0}, Theta);
    std::mt19937_64 Rng(round(Theta * 1000));
    std::vector<bool> Bits(C.NumBits, false);
    for (const CircuitInstr &I : C.Instrs) {
      if (I.CondBit >= 0 &&
          Bits[static_cast<unsigned>(I.CondBit)] != I.CondVal)
        continue;
      switch (I.TheKind) {
      case CircuitInstr::Kind::Gate:
        SV.apply(I.Gate, I.Controls, I.Targets, I.Param);
        break;
      case CircuitInstr::Kind::Measure:
        Bits[static_cast<unsigned>(I.Cbit)] = SV.measure(I.Targets[0], Rng);
        break;
      case CircuitInstr::Kind::Reset:
        SV.reset(I.Targets[0], Rng);
        break;
      }
    }
    // The output qubit must be in state RY(theta)|0>: check probability.
    double WantP1 = std::pow(std::sin(Theta / 2.0), 2);
    EXPECT_NEAR(SV.probOne(OutQ), WantP1, 1e-9) << "theta=" << Theta;
  }
}

TEST(PipelineTest, AdjointOfKernelUndoesIt) {
  const char *Source = R"(
qpu prep(q: qubit[2]) -> qubit[2] {
    return q | pm[2] >> std[2] | {'00','01'} >> {'01','00'}
}
qpu kernel(q: qubit[2]) -> qubit[2] {
    return q | prep | ~prep
}
)";
  CompileSession Session(Source, {});
  Circuit *C = Session.flatCircuit();
  ASSERT_TRUE(C) << Session.errorMessage();
  // prep then ~prep is the identity.
  std::vector<std::vector<Amplitude>> U = circuitUnitary(*C);
  std::vector<std::vector<Amplitude>> Id(
      U.size(), std::vector<Amplitude>(U.size(), Amplitude(0)));
  for (unsigned I = 0; I < Id.size(); ++I)
    Id[I][I] = Amplitude(1);
  EXPECT_TRUE(unitariesEquivalent(U, Id, 1e-8));
}

TEST(PipelineTest, PredicatedKernelActsOnlyInSpan) {
  // '1' & X == CX, and '1' & RZ(pi) == controlled-RZ(pi).
  using Matrix = std::vector<std::vector<Amplitude>>;
  Matrix CX(4, std::vector<Amplitude>(4)), CRZ(4, std::vector<Amplitude>(4));
  CX[0][0] = CX[1][1] = CX[3][2] = CX[2][3] = Amplitude(1);
  CRZ[0][0] = CRZ[1][1] = Amplitude(1);
  CRZ[2][2] = Amplitude(0, -1);
  CRZ[3][3] = Amplitude(0, 1);
  const std::pair<const char *, Matrix> Bodies[] = {
      {"std.flip", CX}, {"std.rotate(180)", CRZ}};
  for (const auto &[Body, Want] : Bodies) {
    std::string Source = std::string("qpu body(q: qubit) -> qubit {\n"
                                     "    return q | ") +
                         Body +
                         "\n}\n"
                         "qpu kernel(q: qubit[2]) -> qubit[2] {\n"
                         "    return q | '1' & body\n}\n";
    CompileSession Session(Source, {});
    Circuit *C = Session.flatCircuit();
    ASSERT_TRUE(C) << Body << ": " << Session.errorMessage();
    EXPECT_TRUE(unitariesEquivalent(circuitUnitary(*C), Want, 1e-8))
        << Body << ":\n"
        << C->str();
  }
}

TEST(PipelineTest, RenamingSwapPredication) {
  // A kernel whose body swaps its two qubits by renaming; predicated, this
  // must become a controlled swap (Fig. 5).
  const char *Source = R"(
qpu swapper(q: qubit[2]) -> qubit[2] {
    a, b = q | id[2]
    return b + a
}
qpu kernel(q: qubit[3]) -> qubit[3] {
    return q | '1' & swapper
}
)";
  CompileSession Session(Source, {});
  Circuit *C = Session.flatCircuit();
  ASSERT_TRUE(C) << Session.errorMessage();
  std::vector<std::vector<Amplitude>> URaw = circuitUnitary(*C);
  // The kernel's qubit outputs may be a permutation of the physical
  // registers (renaming survives to the entry boundary); fold that
  // permutation into the unitary so we compare position-space semantics.
  const std::vector<unsigned> &OutQ = C->OutputQubits;
  ASSERT_EQ(OutQ.size(), 3u);
  unsigned N = C->NumQubits;
  std::vector<std::vector<Amplitude>> U(URaw.size(),
                                        std::vector<Amplitude>(URaw.size()));
  for (uint64_t RIdx = 0; RIdx < URaw.size(); ++RIdx) {
    uint64_t Pos = 0;
    for (unsigned P = 0; P < OutQ.size(); ++P)
      if (RIdx & (uint64_t(1) << (N - 1 - OutQ[P])))
        Pos |= uint64_t(1) << (OutQ.size() - 1 - P);
    for (uint64_t CIdx = 0; CIdx < URaw.size(); ++CIdx)
      U[Pos][CIdx] = URaw[RIdx][CIdx];
  }
  // Controlled-SWAP (Fredkin) on (control q0; targets q1,q2).
  std::vector<std::vector<Amplitude>> F(8, std::vector<Amplitude>(8));
  for (unsigned I = 0; I < 8; ++I) {
    unsigned J = I;
    if (I & 4) { // control set: swap the low two bits
      unsigned B1 = (I >> 1) & 1, B0 = I & 1;
      J = (I & 4) | (B0 << 1) | B1;
    }
    F[J][I] = Amplitude(1);
  }
  EXPECT_TRUE(unitariesEquivalent(U, F, 1e-8));
}

//===----------------------------------------------------------------------===//
// Oracle synthesis (§6.4)
//===----------------------------------------------------------------------===//

/// Builds U_f for a classical source function and checks the full truth
/// table against LogicNetwork::evaluate.
void expectOracleCorrect(const std::string &Source, const std::string &Func,
                         const ProgramBindings &Bindings) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Source, Diags);
  ASSERT_TRUE(P) << Diags.str();
  std::unique_ptr<Program> E = expandProgram(*P, Bindings, Diags);
  ASSERT_TRUE(E) << Diags.str();
  ASSERT_TRUE(typeCheckProgram(*E, Diags)) << Diags.str();
  FunctionDef *F = E->lookup(Func);
  ASSERT_TRUE(F);
  std::optional<LogicNetwork> Net = buildLogicNetwork(*F, Diags);
  ASSERT_TRUE(Net) << Diags.str();
  unsigned NIn = Net->numInputs(), NOut = Net->numOutputs();
  ASSERT_LE(NIn + NOut, 10u);

  // Emit the embedding into a standalone circuit.
  Module M;
  IRFunction *IRF = M.create("u_f");
  Builder B(&IRF->Body);
  std::vector<Value *> Qs;
  for (unsigned I = 0; I < NIn + NOut; ++I)
    Qs.push_back(B.qalloc());
  GateEmitter GE(B, Qs);
  std::vector<unsigned> In, Out;
  for (unsigned I = 0; I < NIn; ++I)
    In.push_back(I);
  for (unsigned I = 0; I < NOut; ++I)
    Out.push_back(NIn + I);
  ASSERT_TRUE(emitXorEmbedding(GE, *Net, In, Out, {}));
  for (unsigned I = 0; I < NIn + NOut; ++I)
    B.qfreez(GE.wire(I));
  B.ret({});
  DiagnosticEngine FlatDiags;
  std::optional<Circuit> C = flattenToCircuit(M, "u_f", FlatDiags);
  ASSERT_TRUE(C) << FlatDiags.str();

  // Truth table: |x>|0...0> -> |x>|f(x)>.
  for (uint64_t X = 0; X < (uint64_t(1) << NIn); ++X) {
    std::vector<bool> InBits;
    for (unsigned I = 0; I < NIn; ++I)
      InBits.push_back(bitAt(X, NIn, I));
    std::vector<bool> Want = Net->evaluate(InBits);
    StateVector SV(C->NumQubits);
    SV.setBasisState(X << (C->NumQubits - NIn));
    for (const CircuitInstr &I : C->Instrs)
      SV.apply(I.Gate, I.Controls, I.Targets, I.Param);
    // Expected basis state: x concatenated with f(x), ancillas |0>.
    uint64_t WantIdx = X;
    for (unsigned I = 0; I < NOut; ++I)
      WantIdx = (WantIdx << 1) | (Want[I] ? 1 : 0);
    WantIdx <<= C->NumQubits - NIn - NOut;
    EXPECT_NEAR(std::abs(SV.amplitudes()[WantIdx]), 1.0, 1e-9)
        << "input " << X;
  }
}

TEST(OracleTest, BVInnerProductOracle) {
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString("101");
  expectOracleCorrect(R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
)",
                      "f", B);
}

TEST(OracleTest, AndReduceOracle) {
  ProgramBindings B;
  B.DimVars["N"] = 3;
  expectOracleCorrect(R"(
classical f[N](x: bit[N]) -> bit {
    return x.and_reduce()
}
)",
                      "f", B);
}

TEST(OracleTest, MaskOracle) {
  ProgramBindings B;
  B.Captures["f"]["mask"] = CaptureValue::bitsFromString("110");
  expectOracleCorrect(R"(
classical f[N](mask: bit[N], x: bit[N]) -> bit[N] {
    return x & mask
}
)",
                      "f", B);
}

TEST(OracleTest, MixedLogicOracle) {
  ProgramBindings B;
  B.DimVars["N"] = 3;
  expectOracleCorrect(R"(
classical f[N](x: bit[N]) -> bit {
    a = x ^ ~x
    b = x | x
    return (a & b).xor_reduce()
}
)",
                      "f", B);
}

TEST(OracleTest, OrReduceNeedsAncilla) {
  ProgramBindings B;
  B.DimVars["N"] = 4;
  expectOracleCorrect(R"(
classical f[N](x: bit[N]) -> bit {
    return x.or_reduce()
}
)",
                      "f", B);
}

TEST(LogicNetworkTest, ConstantFoldingKillsCapturedAnds) {
  // (secret & x).xor_reduce() with a constant secret must become a pure
  // XOR cone: zero AND nodes (the paper's ancilla-free B-V oracle).
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString("1010");
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
)",
                                            Diags);
  ASSERT_TRUE(P);
  std::unique_ptr<Program> E = expandProgram(*P, B, Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckProgram(*E, Diags));
  std::optional<LogicNetwork> Net =
      buildLogicNetwork(*E->lookup("f"), Diags);
  ASSERT_TRUE(Net);
  EXPECT_EQ(Net->numAndNodes(), 0u);
}

//===----------------------------------------------------------------------===//
// Parametric compilation: $params through the pipeline, bind diagnostics,
// and literal-angle lifting (parameterizeSource)
//===----------------------------------------------------------------------===//

const char *RotParamSource = R"(
qpu kernel() -> bit {
    return 'p' | std.rotate($theta) | std.measure
}
)";

const char *RotLiteralSource = R"(
qpu kernel() -> bit {
    return 'p' | std.rotate(45.5) | std.measure
}
)";

TEST(ParametricTest, ParamSurvivesToTheFlatCircuit) {
  CompileSession S(RotParamSource, ProgramBindings{});
  const std::vector<std::string> *Names = S.paramNames();
  ASSERT_NE(Names, nullptr) << S.errorMessage();
  ASSERT_EQ(Names->size(), 1u);
  EXPECT_EQ((*Names)[0], "theta");
  Circuit *C = S.flatCircuit();
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->isParametric());
  unsigned Symbolic = 0;
  for (const CircuitInstr &I : C->Instrs)
    Symbolic += I.isSymbolic();
  EXPECT_EQ(Symbolic, 1u) << "the $theta rotation must stay symbolic";
}

TEST(ParametricTest, BoundParamsMatchLiteralCompileBitForBit) {
  CompileSession Sym(RotParamSource, ProgramBindings{});
  std::string Err;
  std::optional<Circuit> Bound =
      Sym.bindParams(std::map<std::string, double>{{"theta", 45.5}}, &Err);
  ASSERT_TRUE(Bound) << Err;
  EXPECT_FALSE(Bound->isParametric());

  CompileSession Lit(RotLiteralSource, ProgramBindings{});
  Circuit *Want = Lit.flatCircuit();
  ASSERT_TRUE(Want) << Lit.errorMessage();

  // Structural identity: same instructions, and the bound angle is the
  // exact double the literal compile produced (both run degrees through
  // the one degreesToRadians).
  ASSERT_EQ(Bound->Instrs.size(), Want->Instrs.size());
  for (size_t I = 0; I < Want->Instrs.size(); ++I)
    EXPECT_EQ(Bound->Instrs[I].Param, Want->Instrs[I].Param) << "instr " << I;

  // And the executed bits agree shot-for-shot.
  for (uint64_t Seed = 0; Seed < 16; ++Seed)
    EXPECT_EQ(simulate(*Bound, Seed).Bits, simulate(*Want, Seed).Bits)
        << "seed " << Seed;

  // Positional binding produces the identical circuit.
  std::optional<Circuit> Positional =
      Sym.bindParams(std::vector<double>{45.5}, &Err);
  ASSERT_TRUE(Positional) << Err;
  for (size_t I = 0; I < Bound->Instrs.size(); ++I)
    EXPECT_EQ(Positional->Instrs[I].Param, Bound->Instrs[I].Param);
}

TEST(ParametricTest, BindDiagnostics) {
  CompileSession S(RotParamSource, ProgramBindings{});
  std::string Err;

  // Arity mismatch names the counts and the declared parameters.
  EXPECT_FALSE(S.bindParams(std::vector<double>{1.0, 2.0}, &Err));
  EXPECT_NE(Err.find("cannot bind 2 value(s) to 1 parameter(s)"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("$theta"), std::string::npos) << Err;

  // Unknown name lists what the program declares.
  EXPECT_FALSE(
      S.bindParams(std::map<std::string, double>{{"phi", 1.0}}, &Err));
  EXPECT_NE(Err.find("unknown parameter '$phi'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("$theta"), std::string::npos) << Err;

  // Missing value for a declared parameter.
  EXPECT_FALSE(S.bindParams(std::map<std::string, double>{}, &Err));
  EXPECT_NE(Err.find("missing value for parameter '$theta'"),
            std::string::npos)
      << Err;

  // A failed bind does not poison the session.
  EXPECT_TRUE(S.bindParams(std::vector<double>{45.5}, &Err)) << Err;

  // Binding a program with no parameters: only the empty bind works.
  CompileSession Lit(RotLiteralSource, ProgramBindings{});
  EXPECT_FALSE(
      Lit.bindParams(std::map<std::string, double>{{"theta", 1.0}}, &Err));
  EXPECT_NE(Err.find("declares no parameters"), std::string::npos) << Err;
  EXPECT_TRUE(Lit.bindParams(std::vector<double>{}, &Err)) << Err;
}

TEST(ParametricTest, ParameterizeSourceLiftsLiterals) {
  std::optional<ParameterizedSource> PS =
      parameterizeSource(RotLiteralSource);
  ASSERT_TRUE(PS);
  ASSERT_EQ(PS->LiftedNames.size(), 1u);
  EXPECT_EQ(PS->LiftedNames[0], "__a0");
  ASSERT_EQ(PS->LiftedValues.size(), 1u);
  EXPECT_EQ(PS->LiftedValues[0], 45.5);
  EXPECT_NE(PS->Source.find(".rotate($__a0)"), std::string::npos)
      << PS->Source;

  // The lifted program compiles, and binding the lifted values back
  // reproduces the literal compile exactly.
  CompileSession Lifted(PS->Source, ProgramBindings{});
  std::string Err;
  std::optional<Circuit> Bound = Lifted.bindParams(PS->LiftedValues, &Err);
  ASSERT_TRUE(Bound) << Err;
  CompileSession Lit(RotLiteralSource, ProgramBindings{});
  Circuit *Want = Lit.flatCircuit();
  ASSERT_TRUE(Want) << Lit.errorMessage();
  ASSERT_EQ(Bound->Instrs.size(), Want->Instrs.size());
  for (size_t I = 0; I < Want->Instrs.size(); ++I)
    EXPECT_EQ(Bound->Instrs[I].Param, Want->Instrs[I].Param) << "instr " << I;
}

TEST(ParametricTest, ParameterizeSourceHandlesSignsAndIntegers) {
  // Negative and integer angles fold the sign into the lifted value.
  std::optional<ParameterizedSource> PS = parameterizeSource(R"(
qpu kernel() -> bit {
    return 'p' | std.rotate(-30.5) | pm.rotate(90) | std.measure
}
)");
  ASSERT_TRUE(PS);
  ASSERT_EQ(PS->LiftedValues.size(), 2u);
  EXPECT_EQ(PS->LiftedValues[0], -30.5);
  EXPECT_EQ(PS->LiftedValues[1], 90.0);
  EXPECT_NE(PS->Source.find(".rotate($__a0)"), std::string::npos);
  EXPECT_NE(PS->Source.find(".rotate($__a1)"), std::string::npos);
  EXPECT_EQ(PS->Source.find(".rotate(-"), std::string::npos)
      << "the minus sign must be spliced out with the literal";

  // Two sources differing only in their angles canonicalize identically —
  // the property the service's structure hash is built on.
  std::optional<ParameterizedSource> Other = parameterizeSource(R"(
qpu kernel() -> bit {
    return 'p' | std.rotate(11.25) | pm.rotate(-7) | std.measure
}
)");
  ASSERT_TRUE(Other);
  EXPECT_EQ(PS->Source, Other->Source);
}

TEST(ParametricTest, ParameterizeSourceEdgeCases) {
  // No literal rotations: returned unchanged with empty lift lists.
  std::optional<ParameterizedSource> PS =
      parameterizeSource(RotParamSource);
  ASSERT_TRUE(PS);
  EXPECT_EQ(PS->Source, RotParamSource);
  EXPECT_TRUE(PS->LiftedNames.empty());
  EXPECT_TRUE(PS->LiftedValues.empty());

  // The __a prefix is reserved for lifted names: refuse to canonicalize.
  EXPECT_FALSE(parameterizeSource(R"(
qpu kernel() -> bit {
    return 'p' | std.rotate($__a0) | std.measure
}
)"));

  // Unlexable input refuses rather than guessing.
  EXPECT_FALSE(parameterizeSource("qpu kernel() -> bit { ` }"));
}

TEST(LogicNetworkTest, AndTreeFlattensToOneNode) {
  ProgramBindings B;
  B.DimVars["N"] = 5;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(R"(
classical f[N](x: bit[N]) -> bit {
    return x.and_reduce()
}
)",
                                            Diags);
  ASSERT_TRUE(P);
  std::unique_ptr<Program> E = expandProgram(*P, B, Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckProgram(*E, Diags));
  std::optional<LogicNetwork> Net =
      buildLogicNetwork(*E->lookup("f"), Diags);
  ASSERT_TRUE(Net);
  // A single flattened 5-ary AND node -> one MCX when embedded.
  EXPECT_EQ(Net->numAndNodes(), 1u);
}

} // namespace
