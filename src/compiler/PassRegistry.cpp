//===- PassRegistry.cpp - The pass table and pipeline plans ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compiler/PassRegistry.h"

#include "ast/AST.h"
#include "ast/Canonicalize.h"
#include "ast/Expand.h"
#include "ast/TypeChecker.h"
#include "baselines/Baselines.h"
#include "compiler/CommandLine.h"
#include "ir/IR.h"
#include "qcirc/Peephole.h"
#include "transform/Passes.h"

#include <algorithm>
#include <sstream>
#include <variant>

using namespace asdf;

//===----------------------------------------------------------------------===//
// PipelinePlan
//===----------------------------------------------------------------------===//

std::vector<std::string> &PipelinePlan::stage(PipelineStage S) {
  switch (S) {
  case PipelineStage::AST:
    return Ast;
  case PipelineStage::Qwerty:
    return Qwerty;
  case PipelineStage::QCirc:
    return QCirc;
  case PipelineStage::Circuit:
    break;
  }
  return Circuit;
}

const std::vector<std::string> &PipelinePlan::stage(PipelineStage S) const {
  return const_cast<PipelinePlan *>(this)->stage(S);
}

bool PipelinePlan::producesFlatCircuit() const {
  return std::find(Qwerty.begin(), Qwerty.end(), "inline") != Qwerty.end();
}

std::string PipelinePlan::str() const {
  std::ostringstream OS;
  bool FirstStage = true;
  for (PipelineStage S :
       {PipelineStage::AST, PipelineStage::Qwerty, PipelineStage::QCirc,
        PipelineStage::Circuit}) {
    if (!FirstStage)
      OS << ";";
    FirstStage = false;
    OS << pipelineStageName(S) << ":";
    const std::vector<std::string> &Passes = stage(S);
    for (unsigned I = 0; I < Passes.size(); ++I)
      OS << (I ? "," : "") << Passes[I];
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// The pass table
//===----------------------------------------------------------------------===//

namespace {

bool runExpand(Program &P, PassContext &Ctx) {
  static const ProgramBindings Empty;
  const ProgramBindings &B = Ctx.Bindings ? *Ctx.Bindings : Empty;
  std::unique_ptr<Program> Expanded = expandProgram(P, B, Ctx.Diags);
  if (!Expanded)
    return false;
  P = std::move(*Expanded);
  return true;
}

bool runTypecheck(Program &P, PassContext &Ctx) {
  return typeCheckProgram(P, Ctx.Diags);
}

bool runAstCanonicalize(Program &P, PassContext &) {
  canonicalizeProgram(P);
  return true;
}

bool runLiftLambdas(Module &M, PassContext &) {
  liftLambdas(M);
  return true;
}

bool runIRCanonicalize(Module &M, PassContext &) {
  canonicalizeIR(M);
  return true;
}

bool runInline(Module &M, PassContext &) {
  bool Changed = true;
  while (Changed) {
    Changed = canonicalizeIR(M);
    while (inlineOneCall(M)) {
      Changed = true;
      canonicalizeIR(M);
    }
  }
  return true;
}

bool runDce(Module &M, PassContext &Ctx) {
  removeDeadFunctions(M, {Ctx.Entry});
  return true;
}

bool runSpecialize(Module &M, PassContext &Ctx) {
  std::set<SpecKey> Specs = analyzeSpecializations(M, Ctx.Entry);
  if (!generateSpecializations(M, Specs)) {
    Ctx.Diags.error(SourceLoc(),
                    "cannot generate required function specializations "
                    "reachable from entry '" +
                        Ctx.Entry + "'");
    return false;
  }
  return true;
}

bool runVerifyModule(Module &M, PassContext &Ctx) {
  return verifyModule(M, Ctx.Diags);
}

bool runPeephole(Module &M, PassContext &) {
  peepholeOptimize(M);
  return true;
}

bool runDecomposeMc(Module &M, PassContext &) {
  decomposeMultiControls(M, McDecompose::Selinger);
  return true;
}

bool runTranspileO3(Circuit &C, PassContext &) {
  C = transpileO3(C);
  return true;
}

bool runVerifyCircuit(Circuit &C, PassContext &Ctx) {
  return unitVerify(C, Ctx.Diags);
}

/// One built-in pass: its stage, name, one-line description, and body over
/// the stage's unit (Program for ast, Module for qwerty and qcirc, Circuit
/// for circuit).
struct PassRow {
  PipelineStage Stage;
  const char *Name;
  const char *Desc;
  std::variant<PassFn<Program>, PassFn<Module>, PassFn<Circuit>> Fn;
};

/// Every built-in pass. A stage's rows are in the order its "unknown pass"
/// error lists them.
const PassRow PassTable[] = {
    // --- ast stage (§4) ---
    {PipelineStage::AST, "expand",
     "instantiate dimension variables, unroll, bind captures (§4.1)",
     runExpand},
    {PipelineStage::AST, "typecheck",
     "linear type checking over the expanded AST (§4)", runTypecheck},
    {PipelineStage::AST, "canonicalize",
     "AST-level canonicalization rewrites (§4.2)", runAstCanonicalize},

    // --- qwerty stage (§5.4, §6.2) ---
    {PipelineStage::Qwerty, "lift-lambdas",
     "lift lambdas to module functions (§5.4 step 1)", runLiftLambdas},
    {PipelineStage::Qwerty, "canonicalize",
     "canonicalization patterns + DCE to fixpoint (§5.4 step 2)",
     runIRCanonicalize},
    {PipelineStage::Qwerty, "inline",
     "canonicalize + inline direct calls to fixpoint, specializing "
     "adj/pred callees on demand (§5.4 step 3)",
     runInline},
    {PipelineStage::Qwerty, "dce",
     "remove functions unreachable from the entry kernel", runDce},
    {PipelineStage::Qwerty, "specialize",
     "generate adjoint/controlled specializations for the QIR callables "
     "path (§6.2, Algorithm D5)",
     runSpecialize},

    // --- verification, available in both Module stages ---
    {PipelineStage::Qwerty, "verify",
     "structural + linearity verification of the module", runVerifyModule},
    {PipelineStage::QCirc, "verify",
     "structural + linearity verification of the module", runVerifyModule},

    // --- qcirc stage (§6.5) ---
    {PipelineStage::QCirc, "canonicalize",
     "canonicalization patterns + DCE to fixpoint", runIRCanonicalize},
    {PipelineStage::QCirc, "peephole",
     "QCircuit peephole optimizations (§6.5)", runPeephole},
    {PipelineStage::QCirc, "decompose-mc",
     "decompose multi-controls via Selinger's controlled-iX scheme (§6.5)",
     runDecomposeMc},

    // --- circuit stage (§7, §8) ---
    {PipelineStage::Circuit, "transpile-o3",
     "gate-cancellation + rotation-merging cleanup (the §8.3 baseline "
     "transpiler pass)",
     runTranspileO3},
    {PipelineStage::Circuit, "verify",
     "register/bit index bounds check of the flat circuit",
     runVerifyCircuit},
};

const PassRow *findRow(PipelineStage Stage, const std::string &Name) {
  for (const PassRow &Row : PassTable)
    if (Row.Stage == Stage && Name == Row.Name)
      return &Row;
  return nullptr;
}

/// The row (stage, name) as a pass object over \p UnitT; null if unknown.
template <typename UnitT>
std::unique_ptr<Pass<UnitT>> rowPass(PipelineStage Stage,
                                     const std::string &Name) {
  PassFn<UnitT> Fn = findPass<UnitT>(Stage, Name);
  return Fn ? std::make_unique<Pass<UnitT>>(Pass<UnitT>{Name, Fn}) : nullptr;
}

} // namespace

template <typename UnitT>
PassFn<UnitT> asdf::findPass(PipelineStage Stage, const std::string &Name) {
  const PassRow *Row = findRow(Stage, Name);
  const PassFn<UnitT> *Fn =
      Row ? std::get_if<PassFn<UnitT>>(&Row->Fn) : nullptr;
  return Fn ? *Fn : nullptr;
}

template PassFn<Program> asdf::findPass(PipelineStage, const std::string &);
template PassFn<Module> asdf::findPass(PipelineStage, const std::string &);
template PassFn<Circuit> asdf::findPass(PipelineStage, const std::string &);

PassRegistry &PassRegistry::instance() {
  static PassRegistry R;
  return R;
}

std::unique_ptr<Pass<Program>>
PassRegistry::createProgramPass(PipelineStage Stage,
                                const std::string &Name) const {
  return rowPass<Program>(Stage, Name);
}

std::unique_ptr<Pass<Module>>
PassRegistry::createModulePass(PipelineStage Stage,
                               const std::string &Name) const {
  return rowPass<Module>(Stage, Name);
}

std::unique_ptr<Pass<Circuit>>
PassRegistry::createCircuitPass(PipelineStage Stage,
                                const std::string &Name) const {
  return rowPass<Circuit>(Stage, Name);
}

bool PassRegistry::hasPass(PipelineStage Stage,
                           const std::string &Name) const {
  return findRow(Stage, Name) != nullptr;
}

std::vector<std::string> PassRegistry::passNames(PipelineStage Stage) const {
  std::vector<std::string> Names;
  for (const PassRow &Row : PassTable)
    if (Row.Stage == Stage)
      Names.push_back(Row.Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Presets and plan parsing
//===----------------------------------------------------------------------===//

std::vector<std::string> asdf::pipelinePresetNames() {
  return {"default", "no-opt", "no-peephole", "no-canon"};
}

bool asdf::isPipelinePreset(const std::string &Name) {
  for (const std::string &P : pipelinePresetNames())
    if (P == Name)
      return true;
  return false;
}

PipelinePlan asdf::presetPlan(const std::string &Name) {
  PipelinePlan Plan;
  Plan.Ast = {"expand", "typecheck", "canonicalize"};
  Plan.Qwerty = {"lift-lambdas", "inline", "dce", "verify"};
  Plan.QCirc = {"canonicalize", "peephole", "decompose-mc", "peephole"};
  Plan.Circuit = {};
  if (Name == "no-opt")
    Plan.Qwerty = {"lift-lambdas", "specialize", "verify"};
  else if (Name == "no-peephole")
    Plan.QCirc = {"canonicalize", "decompose-mc"};
  else if (Name == "no-canon")
    Plan.Ast = {"expand", "typecheck"};
  return Plan;
}

namespace {

std::string joinNames(const std::vector<std::string> &Names) {
  std::string S;
  for (unsigned I = 0; I < Names.size(); ++I)
    S += (I ? ", " : "") + Names[I];
  return S;
}

} // namespace

bool asdf::parsePipelinePlan(const std::string &Text, PipelinePlan &Plan,
                             std::string &Error) {
  if (isPipelinePreset(Text)) {
    Plan = presetPlan(Text);
    return true;
  }
  if (Text.find(':') == std::string::npos) {
    Error = "unknown pipeline preset '" + Text +
            "' (presets: " + joinNames(pipelinePresetNames()) +
            "; or a spec like \"qwerty:lift-lambdas,inline,dce\")";
    return false;
  }
  Plan = presetPlan("default");
  PassRegistry &Reg = PassRegistry::instance();
  std::vector<bool> Seen(4, false);
  for (const std::string &Part : splitOn(Text, ';')) {
    if (Part.empty())
      continue;
    size_t Colon = Part.find(':');
    if (Colon == std::string::npos) {
      Error = "malformed pipeline stage '" + Part +
              "' (expected <stage>:<pass,...>)";
      return false;
    }
    std::string StageName = Part.substr(0, Colon);
    PipelineStage Stage;
    if (!parsePipelineStage(StageName, Stage)) {
      Error = "unknown pipeline stage '" + StageName +
              "' (stages: ast, qwerty, qcirc, circuit)";
      return false;
    }
    if (Seen[static_cast<unsigned>(Stage)]) {
      Error = "pipeline stage '" + StageName + "' specified twice";
      return false;
    }
    Seen[static_cast<unsigned>(Stage)] = true;
    std::vector<std::string> Passes;
    std::string Rest = Part.substr(Colon + 1);
    if (!Rest.empty()) {
      for (const std::string &Name : splitOn(Rest, ',')) {
        if (Name.empty()) {
          Error = "empty pass name in stage '" + StageName + "'";
          return false;
        }
        if (!Reg.hasPass(Stage, Name)) {
          Error = "unknown pass '" + Name + "' in stage '" + StageName +
                  "' (passes: " + joinNames(Reg.passNames(Stage)) + ")";
          return false;
        }
        Passes.push_back(Name);
      }
    }
    Plan.stage(Stage) = std::move(Passes);
  }
  return true;
}
