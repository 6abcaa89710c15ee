//===- EmitterGoldenTest.cpp - Golden-file tests for the emitters ---------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down QasmEmitter/QirEmitter output for the five examples/
/// programs (Bernstein-Vazirani, Deutsch-Jozsa, Grover, period finding,
/// teleportation) against checked-in golden text under tests/golden/.
/// Any intentional change to emission — gate spelling, header boilerplate,
/// register naming, instruction order — shows up as a readable diff here
/// instead of silently altering every downstream artifact.
///
/// It also pins the 80 circuits of the paper's evaluation (§8.3) as they
/// leave the common transpile-o3 pass: their counts, the fault-tolerant
/// estimate, and a digest of the circuit text.
///
/// Regeneration workflow: README "Golden files". Golden files live at
/// ASDF_GOLDEN_DIR, baked in by CMake as <source>/tests/golden.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "estimate/ResourceEstimator.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace asdf;

namespace {

bool regenMode() { return std::getenv("ASDF_REGEN_GOLDEN") != nullptr; }

std::string goldenPath(const std::string &Name) {
  return std::string(ASDF_GOLDEN_DIR) + "/" + Name;
}

/// Compares \p Got against golden file \p Name, or rewrites it in regen
/// mode. Reports the first differing line to keep failures readable.
void checkGolden(const std::string &Name, const std::string &Got) {
  std::string Path = goldenPath(Name);
  if (regenMode()) {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Got;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " — run ASDF_REGEN_GOLDEN=1 ./EmitterGoldenTest";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Want = Buf.str();
  if (Want == Got)
    return;
  std::istringstream WantS(Want), GotS(Got);
  std::string WantLine, GotLine;
  unsigned LineNo = 1;
  while (std::getline(WantS, WantLine) && std::getline(GotS, GotLine) &&
         WantLine == GotLine)
    ++LineNo;
  FAIL() << Name << " diverges at line " << LineNo << "\n  golden: "
         << WantLine << "\n  got:    " << GotLine
         << "\n(regenerate with ASDF_REGEN_GOLDEN=1 after reviewing)";
}

struct Compiled {
  Circuit FlatCircuit;
  std::unique_ptr<Module> QCircIR;
};

Compiled compileOrDie(const std::string &Source,
                      const ProgramBindings &Bindings,
                      const std::string &Entry = "kernel") {
  SessionOptions Opts;
  Opts.Entry = Entry;
  CompileSession S(Source, Bindings, Opts);
  EXPECT_NE(S.flatCircuit(), nullptr) << S.errorMessage();
  CompileSession::Artifacts A = S.takeArtifacts();
  Compiled C;
  if (A.Flat)
    C.FlatCircuit = std::move(*A.Flat);
  C.QCircIR = std::move(A.QCircIR);
  return C;
}

//===----------------------------------------------------------------------===//
// The five examples/ programs, pinned at fixed sizes
//===----------------------------------------------------------------------===//

Compiled bernsteinVazirani() {
  const char *Source = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}

qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign \
        | pm[N] >> std[N] \
        | std[N].measure
}
)";
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString("1101");
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return compileOrDie(Source, B);
}

Compiled deutschJozsa() {
  const char *Source = R"(
classical f[N](x: bit[N]) -> bit {
    return x.xor_reduce()
}

qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";
  ProgramBindings B;
  B.DimVars["N"] = 4;
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return compileOrDie(Source, B);
}

Compiled grover() {
  unsigned N = 3, Iters = groverIterations(3);
  std::ostringstream OS;
  OS << R"(
classical oracle[N](x: bit[N]) -> bit {
    return x.and_reduce()
}
qpu kernel[N](oracle: cfunc[N, 1]) -> bit[N] {
    return 'p'[N])";
  for (unsigned I = 0; I < Iters; ++I)
    OS << " \\\n        | oracle.sign | {'p'[N]} >> {-'p'[N]}";
  OS << " \\\n        | std[N].measure\n}\n";
  ProgramBindings B;
  B.DimVars["N"] = N;
  B.Captures["kernel"]["oracle"] = CaptureValue::classicalFunc("oracle");
  return compileOrDie(OS.str(), B);
}

Compiled periodFinding() {
  const char *Source = R"(
classical f[N](mask: bit[N], x: bit[N]) -> bit[N] {
    return x & mask
}
qpu kernel[N](f: cfunc[N, N]) -> bit[N] {
    q = 'p'[N] + '0'[N] | f.xor
    phase, out = q | fourier[N].measure + std[N].measure
    return phase
}
)";
  ProgramBindings B;
  B.Captures["f"]["mask"] = CaptureValue::bitsFromString("0111");
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return compileOrDie(Source, B);
}

Compiled teleportation() {
  const char *Source = R"(
qpu teleport(secret: qubit) -> qubit {
    alice, bob = 'p0' | '1' & std.flip
    m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure
    secret_teleported = bob | (std.flip if m_std else id) \
        | (pm.flip if m_pm else id)
    return secret_teleported
}
)";
  return compileOrDie(Source, {}, "teleport");
}

//===----------------------------------------------------------------------===//
// OpenQASM 3 goldens
//===----------------------------------------------------------------------===//

TEST(EmitterGoldenTest, QasmBernsteinVazirani) {
  checkGolden("bv.qasm", emitOpenQasm3(bernsteinVazirani().FlatCircuit));
}

TEST(EmitterGoldenTest, QasmDeutschJozsa) {
  checkGolden("deutsch_jozsa.qasm",
              emitOpenQasm3(deutschJozsa().FlatCircuit));
}

TEST(EmitterGoldenTest, QasmGrover) {
  checkGolden("grover.qasm", emitOpenQasm3(grover().FlatCircuit));
}

TEST(EmitterGoldenTest, QasmPeriodFinding) {
  checkGolden("period_finding.qasm",
              emitOpenQasm3(periodFinding().FlatCircuit));
}

TEST(EmitterGoldenTest, QasmTeleportation) {
  checkGolden("teleportation.qasm",
              emitOpenQasm3(teleportation().FlatCircuit));
}

//===----------------------------------------------------------------------===//
// QIR goldens
//===----------------------------------------------------------------------===//

TEST(EmitterGoldenTest, QirBaseBernsteinVazirani) {
  std::optional<std::string> Qir =
      emitQirBaseProfile(bernsteinVazirani().FlatCircuit);
  ASSERT_TRUE(Qir.has_value());
  checkGolden("bv.ll", *Qir);
}

TEST(EmitterGoldenTest, QirBaseDeutschJozsa) {
  std::optional<std::string> Qir =
      emitQirBaseProfile(deutschJozsa().FlatCircuit);
  ASSERT_TRUE(Qir.has_value());
  checkGolden("deutsch_jozsa.ll", *Qir);
}

TEST(EmitterGoldenTest, QirUnrestrictedGrover) {
  Compiled C = grover();
  // The multi-controlled oracle/diffuser gates are outside the Base
  // Profile (it requires decomposed controls); pin that, then golden the
  // Unrestricted Profile emission.
  EXPECT_FALSE(emitQirBaseProfile(C.FlatCircuit).has_value());
  ASSERT_NE(C.QCircIR, nullptr);
  checkGolden("grover.ll", emitQirUnrestricted(*C.QCircIR));
}

TEST(EmitterGoldenTest, QirUnrestrictedPeriodFinding) {
  Compiled C = periodFinding();
  ASSERT_NE(C.QCircIR, nullptr);
  checkGolden("period_finding.ll", emitQirUnrestricted(*C.QCircIR));
}

TEST(EmitterGoldenTest, QirTeleportation) {
  Compiled C = teleportation();
  // Teleportation feed-forward is outside the Base Profile by design.
  EXPECT_FALSE(emitQirBaseProfile(C.FlatCircuit).has_value());
  ASSERT_NE(C.QCircIR, nullptr);
  QirCallableStats Stats;
  checkGolden("teleportation.ll", emitQirUnrestricted(*C.QCircIR, &Stats));
}

TEST(EmitterGoldenTest, PaperCircuitsAfterTranspileO3) {
  // One line per circuit of Figs. 11-12: five programs, four sizes, and
  // Asdf's circuit beside the three baseline compilers' circuits.
  const BenchAlgorithm Algs[] = {BenchAlgorithm::BV, BenchAlgorithm::DJ,
                                 BenchAlgorithm::Grover, BenchAlgorithm::Simon,
                                 BenchAlgorithm::PeriodFinding};
  const BaselineStyle Styles[] = {BaselineStyle::Qiskit,
                                  BaselineStyle::Quipper,
                                  BaselineStyle::QSharp};
  std::string Got;
  auto Line = [&](BenchAlgorithm Alg, unsigned N, const char *Compiler,
                  const Circuit &C) {
    CircuitStats S = C.stats();
    ResourceEstimate E = estimateResources(C);
    ContentHasher H;
    H.str(C.str());
    std::array<uint64_t, 2> D = H.digest();
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s %u %s instrs=%llu t=%llu depth=%llu t_depth=%llu "
                  "runtime_s=%.6e phys_qubits=%llu str=%016llx%016llx\n",
                  benchAlgorithmName(Alg), N, Compiler,
                  (unsigned long long)S.Total, (unsigned long long)S.TCount,
                  (unsigned long long)S.Depth, (unsigned long long)S.TDepth,
                  E.RuntimeSeconds, (unsigned long long)E.PhysicalQubits,
                  (unsigned long long)D[0], (unsigned long long)D[1]);
    Got += Buf;
  };
  for (BenchAlgorithm Alg : Algs)
    for (unsigned N : {16u, 32u, 64u, 128u}) {
      Line(Alg, N, "Asdf", compileAsdfBenchmark(Alg, N));
      for (BaselineStyle Style : Styles)
        Line(Alg, N, baselineStyleName(Style),
             buildBaselineBenchmark(Alg, Style, N));
    }
  checkGolden("paper_circuits.txt", Got);
}

} // namespace
