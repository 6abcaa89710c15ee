//===- PassManagerTest.cpp - Pass table, plans, and CLI smoke tests -------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down the pass table and the staged pipeline API:
///
///   - pipeline-spec parsing (presets, stage:pass specs, every error path),
///   - pass-ordering invariants of the preset plans,
///   - --verify-each catches a deliberately IR-breaking pass and names it,
///   - every table row runs, and a failing pass is named stage:pass,
///   - the timing and print-after instrumentation,
///   - asdfc CLI behavior: --help, strict flag/emit validation, duplicate
///     --bind/--capture diagnosis, and a --pass-timings/--print-after
///     golden smoke (instrumentation must not perturb stdout).
///
//===----------------------------------------------------------------------===//

#include "compiler/CompileSession.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace asdf;

namespace {

const char *BVSource = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";

ProgramBindings bvBindings(const std::string &Secret = "1101") {
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString(Secret);
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return B;
}

//===----------------------------------------------------------------------===//
// Pipeline plan parsing
//===----------------------------------------------------------------------===//

TEST(PipelinePlanTest, PresetsParse) {
  for (const std::string &Name : pipelinePresetNames()) {
    PipelinePlan Plan;
    std::string Error;
    EXPECT_TRUE(parsePipelinePlan(Name, Plan, Error)) << Error;
  }
}

TEST(PipelinePlanTest, ExplicitSpecParses) {
  PipelinePlan Plan;
  std::string Error;
  ASSERT_TRUE(parsePipelinePlan(
      "qwerty:lift-lambdas,inline,dce,verify;qcirc:canonicalize", Plan,
      Error))
      << Error;
  EXPECT_EQ(Plan.Qwerty,
            (std::vector<std::string>{"lift-lambdas", "inline", "dce",
                                      "verify"}));
  EXPECT_EQ(Plan.QCirc, (std::vector<std::string>{"canonicalize"}));
  // Unmentioned stages keep the default preset's passes.
  EXPECT_EQ(Plan.Ast, presetPlan("default").Ast);
}

TEST(PipelinePlanTest, EmptyStageListRunsNothing) {
  PipelinePlan Plan;
  std::string Error;
  ASSERT_TRUE(parsePipelinePlan("circuit:", Plan, Error)) << Error;
  EXPECT_TRUE(Plan.Circuit.empty());
}

TEST(PipelinePlanTest, ParseErrors) {
  PipelinePlan Plan;
  std::string Error;
  // Unknown preset (no colon -> treated as a preset name).
  EXPECT_FALSE(parsePipelinePlan("fastest", Plan, Error));
  EXPECT_NE(Error.find("unknown pipeline preset"), std::string::npos);
  EXPECT_NE(Error.find("default"), std::string::npos) << "lists presets";
  // Unknown stage.
  EXPECT_FALSE(parsePipelinePlan("mlir:canonicalize", Plan, Error));
  EXPECT_NE(Error.find("unknown pipeline stage"), std::string::npos);
  // Unknown pass, with valid ones listed.
  EXPECT_FALSE(parsePipelinePlan("qwerty:optimize-harder", Plan, Error));
  EXPECT_NE(Error.find("unknown pass"), std::string::npos);
  EXPECT_NE(Error.find("lift-lambdas"), std::string::npos);
  // A pass of the wrong stage.
  EXPECT_FALSE(parsePipelinePlan("ast:peephole", Plan, Error));
  // Duplicate stage.
  EXPECT_FALSE(parsePipelinePlan("qcirc:peephole;qcirc:peephole", Plan,
                                 Error));
  EXPECT_NE(Error.find("twice"), std::string::npos);
  // Empty pass name.
  EXPECT_FALSE(parsePipelinePlan("qwerty:inline,,dce", Plan, Error));
  EXPECT_NE(Error.find("empty pass name"), std::string::npos);
}

TEST(PipelinePlanTest, RoundTripsThroughStr) {
  PipelinePlan Plan = presetPlan("default");
  PipelinePlan Reparsed;
  std::string Error;
  ASSERT_TRUE(parsePipelinePlan(Plan.str(), Reparsed, Error)) << Error;
  EXPECT_EQ(Plan.str(), Reparsed.str());
}

//===----------------------------------------------------------------------===//
// Pass-ordering invariants of the preset plans
//===----------------------------------------------------------------------===//

int indexOf(const std::vector<std::string> &L, const std::string &N) {
  auto It = std::find(L.begin(), L.end(), N);
  return It == L.end() ? -1 : int(It - L.begin());
}

TEST(PipelinePlanTest, PresetOrderingInvariants) {
  PipelinePlan D = presetPlan("default");
  // Lambdas must be lifted before inlining; DCE runs after inlining (it
  // keys off the entry's final call graph); verification is last.
  EXPECT_LT(indexOf(D.Qwerty, "lift-lambdas"), indexOf(D.Qwerty, "inline"));
  EXPECT_LT(indexOf(D.Qwerty, "inline"), indexOf(D.Qwerty, "dce"));
  EXPECT_EQ(D.Qwerty.back(), "verify");
  // Expansion precedes type checking precedes canonicalization.
  EXPECT_LT(indexOf(D.Ast, "expand"), indexOf(D.Ast, "typecheck"));
  EXPECT_LT(indexOf(D.Ast, "typecheck"), indexOf(D.Ast, "canonicalize"));
  // QCirc: canonicalize first, then a peephole on both sides of the
  // multi-control decomposition (§6.5).
  EXPECT_EQ(D.QCirc.front(), "canonicalize");
  EXPECT_LT(indexOf(D.QCirc, "peephole"), indexOf(D.QCirc, "decompose-mc"));

  // no-opt swaps inlining for specialization and never flattens.
  PipelinePlan N = presetPlan("no-opt");
  EXPECT_EQ(indexOf(N.Qwerty, "inline"), -1);
  EXPECT_NE(indexOf(N.Qwerty, "specialize"), -1);
  EXPECT_TRUE(D.producesFlatCircuit());
  EXPECT_FALSE(N.producesFlatCircuit());

  // Every preset names only registered passes of the right stage.
  PassRegistry &Reg = PassRegistry::instance();
  for (const std::string &Preset : pipelinePresetNames()) {
    PipelinePlan P = presetPlan(Preset);
    for (PipelineStage S :
         {PipelineStage::AST, PipelineStage::Qwerty, PipelineStage::QCirc,
          PipelineStage::Circuit})
      for (const std::string &Name : P.stage(S))
        EXPECT_TRUE(Reg.hasPass(S, Name))
            << Preset << " references unknown " << pipelineStageName(S)
            << " pass " << Name;
  }
}

//===----------------------------------------------------------------------===//
// Artifact cache
//===----------------------------------------------------------------------===//

TEST(PassManagerTest, ArtifactGettersAreCached) {
  CompileSession S(BVSource, bvBindings());
  Circuit *Flat1 = S.flatCircuit();
  ASSERT_NE(Flat1, nullptr) << S.errorMessage();
  // Same pointers on re-query: no recompilation.
  EXPECT_EQ(S.flatCircuit(), Flat1);
  Module *QW = S.qwertyIR();
  ASSERT_NE(QW, nullptr);
  EXPECT_EQ(S.qwertyIR(), QW);
  // The preserved Qwerty IR is the *pre-conversion* module: it still
  // contains Qwerty-dialect ops, while the QCirc module does not.
  EXPECT_NE(QW->str().find("qbprep"), std::string::npos);
  EXPECT_EQ(S.qcircIR()->str().find("qbprep"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// --verify-each catches a deliberately broken pass
//===----------------------------------------------------------------------===//

TEST(PassManagerTest, VerifyEachCatchesBrokenPass) {
  // A pass body that breaks the linearity invariant: it materializes a
  // qubit bundle and never consumes it.
  auto BreakIR = [](Module &M) {
    Block &Body = M.Functions.front()->Body;
    Builder B(&Body, Body.terminator());
    B.qbprep(PrimitiveBasis::Std, false, 1); // Leaked: never used.
    return true;
  };
  SessionOptions SO;
  SO.Plan.Qwerty = {"lift-lambdas", "inline", "dce"};

  CompileSession S(BVSource, bvBindings(), SO);
  Module *M = S.qwertyIR();
  ASSERT_NE(M, nullptr) << S.errorMessage();
  ASSERT_FALSE(M->Functions.empty());
  DiagnosticEngine Diags;
  PassContext Ctx(Diags);
  Ctx.VerifyEach = true;
  EXPECT_FALSE(Ctx.runInstrumented(PipelineStage::Qwerty, "break-ir", *M,
                                   [&] { return BreakIR(*M); }));
  // The failure names the offending pass, the stage, and the linearity
  // violation the verifier found.
  EXPECT_EQ(Ctx.FailedPass, "break-ir");
  EXPECT_EQ(Ctx.FailedStage, PipelineStage::Qwerty);
  EXPECT_NE(Diags.str().find("after pass 'break-ir' (qwerty stage)"),
            std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("never used"), std::string::npos)
      << Diags.str();

  // The same broken pass *without* --verify-each is only caught by a
  // trailing verify pass (or not at all) — the point of the flag.
  CompileSession S2(BVSource, bvBindings(), SO);
  Module *M2 = S2.qwertyIR();
  ASSERT_NE(M2, nullptr) << S2.errorMessage();
  DiagnosticEngine LooseDiags;
  PassContext Loose(LooseDiags);
  EXPECT_TRUE(Loose.runInstrumented(PipelineStage::Qwerty, "break-ir", *M2,
                                    [&] { return BreakIR(*M2); }));
  PassFn<Module> Verify = findPass<Module>(PipelineStage::Qwerty, "verify");
  ASSERT_NE(Verify, nullptr);
  EXPECT_FALSE(Loose.runInstrumented(PipelineStage::Qwerty, "verify", *M2,
                                     [&] { return Verify(*M2, Loose); }));
  EXPECT_EQ(Loose.FailedPass, "verify");
}

TEST(PassManagerTest, EveryTableRowRunsUnderVerifyEach) {
  // Between them these plans run every row of the pass table, each under
  // --verify-each; every planned pass must leave its timing entry.
  struct Case {
    const char *Spec;
    bool Flat; // Compiles through the circuit stage.
  } Cases[] = {
      {"default", true},
      {"qwerty:lift-lambdas,canonicalize,inline,dce,verify;"
       "qcirc:canonicalize,peephole,decompose-mc,peephole,verify;"
       "circuit:transpile-o3,verify",
       true},
      {"no-opt", false},
  };
  const PipelineStage Stages[] = {PipelineStage::AST, PipelineStage::Qwerty,
                                  PipelineStage::QCirc,
                                  PipelineStage::Circuit};
  std::set<std::string> Ran;
  for (const Case &C : Cases) {
    SessionOptions SO;
    SO.VerifyEach = true;
    SO.CollectTimings = true;
    std::string Error;
    ASSERT_TRUE(parsePipelinePlan(C.Spec, SO.Plan, Error)) << Error;
    CompileSession S(BVSource, bvBindings(), SO);
    bool Compiled = C.Flat ? S.flatCircuit() != nullptr
                           : S.qcircIR() != nullptr;
    ASSERT_TRUE(Compiled) << C.Spec << ": " << S.errorMessage();
    std::set<std::string> Timed;
    for (const PassTiming &T : S.timings())
      Timed.insert(std::string(pipelineStageName(T.Stage)) + ":" +
                   T.PassName);
    for (PipelineStage St : Stages)
      for (const std::string &Name : SO.Plan.stage(St)) {
        std::string Row = std::string(pipelineStageName(St)) + ":" + Name;
        EXPECT_TRUE(Timed.count(Row)) << C.Spec << " has no timing for "
                                      << Row;
        Ran.insert(Row);
      }
  }
  std::set<std::string> Table;
  for (PipelineStage St : Stages)
    for (const std::string &Name : PassRegistry::instance().passNames(St))
      Table.insert(std::string(pipelineStageName(St)) + ":" + Name);
  EXPECT_EQ(Ran, Table);
}

TEST(PassManagerTest, FailureNamesStageAndPass) {
  CompileSession S("qpu kernel(q: qubit) -> qubit[2] { return q + q }\n",
                   ProgramBindings());
  EXPECT_EQ(S.ast(), nullptr);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.errorMessage().rfind("ast:typecheck failed for entry 'kernel'",
                                   0),
            0u)
      << S.errorMessage();
}

//===----------------------------------------------------------------------===//
// Timing and printing instrumentation
//===----------------------------------------------------------------------===//

TEST(PassManagerTest, TimingsCoverEveryPassAndTransition) {
  SessionOptions SO;
  SO.CollectTimings = true;
  CompileSession S(BVSource, bvBindings(), SO);
  ASSERT_NE(S.flatCircuit(), nullptr) << S.errorMessage();

  std::vector<std::string> Names;
  for (const PassTiming &T : S.timings())
    Names.push_back(std::string(pipelineStageName(T.Stage)) + ":" +
                    T.PassName);
  // Transitions and passes, in pipeline order.
  const char *Expected[] = {"ast:parse",      "ast:expand",
                            "qwerty:lower",   "qwerty:inline",
                            "qcirc:convert",  "qcirc:peephole",
                            "circuit:flatten"};
  int Last = -1;
  for (const char *E : Expected) {
    int At = indexOf(Names, E);
    EXPECT_GT(At, Last) << E << " missing or out of order";
    Last = At;
  }
  // The report renders and mentions a pass plus the IR-size columns.
  std::string Report = S.timingReport();
  EXPECT_NE(Report.find("Pass execution timing report"), std::string::npos);
  EXPECT_NE(Report.find("qwerty:inline"), std::string::npos);
  EXPECT_NE(Report.find("Total Execution Time"), std::string::npos);

  // The inline pass collapses the module to one function: its recorded
  // before/after statistics must reflect a change.
  for (const PassTiming &T : S.timings())
    if (T.PassName == "inline")
      EXPECT_TRUE(T.changedIR());
}

TEST(PassManagerTest, PrintAfterSelectsOnePass) {
  std::vector<std::pair<std::string, std::string>> Dumps;
  SessionOptions SO;
  SO.PrintAfter = "inline";
  SO.PrintSink = [&](const std::string &Banner, const std::string &IR) {
    Dumps.push_back({Banner, IR});
  };
  CompileSession S(BVSource, bvBindings(), SO);
  ASSERT_NE(S.flatCircuit(), nullptr) << S.errorMessage();
  ASSERT_EQ(Dumps.size(), 1u);
  EXPECT_NE(Dumps[0].first.find("IR Dump After inline"), std::string::npos);
  EXPECT_NE(Dumps[0].second.find("func @kernel"), std::string::npos);
}

TEST(PassManagerTest, PrintAfterAllDumpsEveryPass) {
  std::vector<std::string> Banners;
  SessionOptions SO;
  SO.PrintAfter = std::string(); // Empty selector = every pass.
  SO.PrintSink = [&](const std::string &Banner, const std::string &) {
    Banners.push_back(Banner);
  };
  CompileSession S(BVSource, bvBindings(), SO);
  ASSERT_NE(S.flatCircuit(), nullptr) << S.errorMessage();
  // One dump per transition + per plan pass (default plan).
  PipelinePlan Plan = presetPlan("default");
  size_t Want = 4 /*parse,lower,convert,flatten*/ + Plan.Ast.size() +
                Plan.Qwerty.size() + Plan.QCirc.size() + Plan.Circuit.size();
  EXPECT_EQ(Banners.size(), Want);
}

//===----------------------------------------------------------------------===//
// asdfc CLI smoke (exit codes, usage hints, instrumentation goldens)
//===----------------------------------------------------------------------===//

#ifdef ASDF_ASDFC_PATH

/// Runs a shell command, captures combined stdout+stderr, returns the exit
/// code.
int runCommand(const std::string &Cmd, std::string &Output) {
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Output.clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

class AsdfcCli : public ::testing::Test {
protected:
  void SetUp() override {
    Program = ::testing::TempDir() + "asdfc_cli_bv.qw";
    std::ofstream Out(Program, std::ios::trunc);
    ASSERT_TRUE(Out.good());
    Out << BVSource;
    Out.close();
    Base = std::string(ASDF_ASDFC_PATH) + " " + Program +
           " --capture f.secret=1101 --capture kernel.f=@f";
  }
  std::string Program, Base;
};

TEST_F(AsdfcCli, HelpExitsZero) {
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " --help", Out), 0);
  EXPECT_NE(Out.find("usage: asdfc"), std::string::npos);
  EXPECT_NE(Out.find("--pipeline"), std::string::npos);
}

TEST_F(AsdfcCli, UnknownFlagExitsTwoWithHint) {
  std::string Out;
  EXPECT_EQ(runCommand(Base + " --frobnicate", Out), 2);
  EXPECT_NE(Out.find("unknown option '--frobnicate'"), std::string::npos);
  EXPECT_NE(Out.find("--help"), std::string::npos);
}

TEST_F(AsdfcCli, UnknownEmitExitsTwoWithHint) {
  std::string Out;
  EXPECT_EQ(runCommand(Base + " --emit mlir", Out), 2);
  EXPECT_NE(Out.find("unknown --emit value 'mlir'"), std::string::npos);
}

TEST_F(AsdfcCli, DuplicateBindAndCaptureDiagnosed) {
  std::string Out;
  EXPECT_EQ(runCommand(Base + " --bind N=4 --bind N=5", Out), 2);
  EXPECT_NE(Out.find("duplicate --bind"), std::string::npos);
  EXPECT_EQ(runCommand(Base + " --capture f.secret=0000", Out), 2);
  EXPECT_NE(Out.find("duplicate --capture"), std::string::npos);
}

TEST_F(AsdfcCli, BadPipelineExitsTwoNamingAlternatives) {
  std::string Out;
  EXPECT_EQ(runCommand(Base + " --pipeline turbo", Out), 2);
  EXPECT_NE(Out.find("unknown pipeline preset 'turbo'"), std::string::npos);
  EXPECT_EQ(runCommand(Base + " --pipeline no-opt --no-inline", Out), 2);
  EXPECT_NE(Out.find("cannot be combined"), std::string::npos);
}

TEST_F(AsdfcCli, InstrumentationDoesNotPerturbStdout) {
  // Golden smoke: qasm output must be byte-identical with --pipeline
  // default, --pass-timings, --print-after, and --verify-each attached,
  // and the instrumentation must land on stderr with its banners.
  // Subshells keep runCommand's trailing 2>&1 from re-capturing the
  // stream each command already redirected away.
  std::string Plain, Out;
  ASSERT_EQ(runCommand("( " + Base + " --emit qasm 2>/dev/null )", Plain),
            0);
  ASSERT_NE(Plain.find("OPENQASM 3"), std::string::npos);

  ASSERT_EQ(runCommand("( " + Base + " --pipeline default --emit qasm "
                                     "2>/dev/null )",
                       Out),
            0);
  EXPECT_EQ(Out, Plain) << "--pipeline default diverges from legacy";

  ASSERT_EQ(runCommand("( " + Base + " --pass-timings --verify-each "
                                     "--emit qasm 2>/dev/null )",
                       Out),
            0);
  EXPECT_EQ(Out, Plain) << "--pass-timings/--verify-each perturb stdout";

  // Subshell so runCommand's trailing 2>&1 captures stderr alone.
  ASSERT_EQ(runCommand("( " + Base + " --pass-timings --emit qasm "
                                     ">/dev/null )",
                       Out),
            0);
  EXPECT_NE(Out.find("Pass execution timing report"), std::string::npos);
  EXPECT_NE(Out.find("circuit:flatten"), std::string::npos);

  ASSERT_EQ(runCommand("( " + Base + " --print-after=peephole --emit qasm "
                                     ">/dev/null )",
                       Out),
            0);
  EXPECT_NE(Out.find("IR Dump After peephole (qcirc)"), std::string::npos);
}

TEST_F(AsdfcCli, ExplicitSpecMatchesPreset) {
  std::string Spec, Preset;
  PipelinePlan Plan = presetPlan("default");
  ASSERT_EQ(runCommand("( " + Base + " --pipeline \"" + Plan.str() +
                           "\" --emit qasm 2>/dev/null )",
                       Spec),
            0);
  ASSERT_EQ(runCommand("( " + Base + " --pipeline default --emit qasm "
                                     "2>/dev/null )",
                       Preset),
            0);
  EXPECT_EQ(Spec, Preset);
}

#endif // ASDF_ASDFC_PATH

} // namespace
