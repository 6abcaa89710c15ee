//===- PassRegistry.cpp - Named pass registry and pipeline plans ----------===//
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
// Built-in passes
//===----------------------------------------------------------------------===//

namespace {

template <typename UnitT>
std::unique_ptr<Pass<UnitT>>
makePass(const char *Name, const char *Desc,
         typename LambdaPass<UnitT>::Fn Body) {
  return std::make_unique<LambdaPass<UnitT>>(Name, Desc, std::move(Body));
}

} // namespace

PassRegistry::PassRegistry() {
  // --- ast stage (§4) ---
  registerPass(
      PipelineStage::AST, "expand",
      "instantiate dimension variables, unroll, bind captures (§4.1)",
      ProgramFactory([] {
        return makePass<Program>(
            "expand", "", [](Program &P, PassContext &Ctx) {
              static const ProgramBindings Empty;
              const ProgramBindings &B =
                  Ctx.Bindings ? *Ctx.Bindings : Empty;
              std::unique_ptr<Program> Expanded =
                  expandProgram(P, B, Ctx.Diags);
              if (!Expanded)
                return false;
              P = std::move(*Expanded);
              return true;
            });
      }));
  registerPass(PipelineStage::AST, "typecheck",
               "linear type checking over the expanded AST (§4)",
               ProgramFactory([] {
                 return makePass<Program>(
                     "typecheck", "", [](Program &P, PassContext &Ctx) {
                       return typeCheckProgram(P, Ctx.Diags);
                     });
               }));
  registerPass(PipelineStage::AST, "canonicalize",
               "AST-level canonicalization rewrites (§4.2)",
               ProgramFactory([] {
                 return makePass<Program>("canonicalize", "",
                                          [](Program &P, PassContext &) {
                                            canonicalizeProgram(P);
                                            return true;
                                          });
               }));

  // --- qwerty stage (§5.4, §6.2) ---
  registerPass(PipelineStage::Qwerty, "lift-lambdas",
               "lift lambdas to module functions (§5.4 step 1)",
               ModuleFactory([] {
                 return makePass<Module>("lift-lambdas", "",
                                         [](Module &M, PassContext &) {
                                           liftLambdas(M);
                                           return true;
                                         });
               }));
  registerPass(PipelineStage::Qwerty, "canonicalize",
               "canonicalization patterns + DCE to fixpoint (§5.4 step 2)",
               ModuleFactory([] {
                 return makePass<Module>("canonicalize", "",
                                         [](Module &M, PassContext &) {
                                           canonicalizeIR(M);
                                           return true;
                                         });
               }));
  registerPass(
      PipelineStage::Qwerty, "inline",
      "canonicalize + inline direct calls to fixpoint, specializing "
      "adj/pred callees on demand (§5.4 step 3)",
      ModuleFactory([] {
        return makePass<Module>("inline", "", [](Module &M, PassContext &) {
          bool Changed = true;
          while (Changed) {
            Changed = canonicalizeIR(M);
            while (inlineOneCall(M)) {
              Changed = true;
              canonicalizeIR(M);
            }
          }
          return true;
        });
      }));
  registerPass(PipelineStage::Qwerty, "dce",
               "remove functions unreachable from the entry kernel",
               ModuleFactory([] {
                 return makePass<Module>("dce", "",
                                         [](Module &M, PassContext &Ctx) {
                                           removeDeadFunctions(M,
                                                               {Ctx.Entry});
                                           return true;
                                         });
               }));
  registerPass(
      PipelineStage::Qwerty, "specialize",
      "generate adjoint/controlled specializations for the QIR callables "
      "path (§6.2, Algorithm D5)",
      ModuleFactory([] {
        return makePass<Module>(
            "specialize", "", [](Module &M, PassContext &Ctx) {
              std::set<SpecKey> Specs =
                  analyzeSpecializations(M, Ctx.Entry);
              if (!generateSpecializations(M, Specs)) {
                Ctx.Diags.error(
                    SourceLoc(),
                    "cannot generate required function specializations "
                    "reachable from entry '" +
                        Ctx.Entry + "'");
                return false;
              }
              return true;
            });
      }));

  // --- verification, available in both Module stages ---
  for (PipelineStage S : {PipelineStage::Qwerty, PipelineStage::QCirc})
    registerPass(S, "verify",
                 "structural + linearity verification of the module",
                 ModuleFactory([] {
                   return makePass<Module>(
                       "verify", "", [](Module &M, PassContext &Ctx) {
                         return verifyModule(M, Ctx.Diags);
                       });
                 }));

  // --- qcirc stage (§6.5) ---
  registerPass(PipelineStage::QCirc, "canonicalize",
               "canonicalization patterns + DCE to fixpoint",
               ModuleFactory([] {
                 return makePass<Module>("canonicalize", "",
                                         [](Module &M, PassContext &) {
                                           canonicalizeIR(M);
                                           return true;
                                         });
               }));
  registerPass(PipelineStage::QCirc, "peephole",
               "QCircuit peephole optimizations (§6.5)",
               ModuleFactory([] {
                 return makePass<Module>("peephole", "",
                                         [](Module &M, PassContext &) {
                                           peepholeOptimize(M);
                                           return true;
                                         });
               }));
  registerPass(PipelineStage::QCirc, "decompose-mc",
               "decompose multi-controls via Selinger's controlled-iX "
               "scheme (§6.5)",
               ModuleFactory([] {
                 return makePass<Module>(
                     "decompose-mc", "", [](Module &M, PassContext &) {
                       decomposeMultiControls(M, McDecompose::Selinger);
                       return true;
                     });
               }));

  // --- circuit stage (§7, §8) ---
  registerPass(PipelineStage::Circuit, "transpile-o3",
               "gate-cancellation + rotation-merging cleanup (the §8.3 "
               "baseline transpiler pass)",
               CircuitFactory([] {
                 return makePass<Circuit>("transpile-o3", "",
                                          [](Circuit &C, PassContext &) {
                                            C = transpileO3(C);
                                            return true;
                                          });
               }));
  registerPass(PipelineStage::Circuit, "verify",
               "register/bit index bounds check of the flat circuit",
               CircuitFactory([] {
                 return makePass<Circuit>(
                     "verify", "", [](Circuit &C, PassContext &Ctx) {
                       return unitVerify(C, Ctx.Diags);
                     });
               }));
}

//===----------------------------------------------------------------------===//
// Registry mechanics
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::instance() {
  static PassRegistry R;
  return R;
}

void PassRegistry::record(PipelineStage Stage, const std::string &Name,
                          Entry E) {
  auto [It, Inserted] = Entries[Stage].emplace(Name, std::move(E));
  if (!Inserted)
    It->second = std::move(E); // Re-registration wins (tests override).
  else
    Order[Stage].push_back(Name);
}

void PassRegistry::registerPass(PipelineStage Stage, const std::string &Name,
                                const std::string &Desc, ProgramFactory F) {
  Entry E;
  E.Desc = Desc;
  E.AsProgram = std::move(F);
  record(Stage, Name, std::move(E));
}

void PassRegistry::registerPass(PipelineStage Stage, const std::string &Name,
                                const std::string &Desc, ModuleFactory F) {
  Entry E;
  E.Desc = Desc;
  E.AsModule = std::move(F);
  record(Stage, Name, std::move(E));
}

void PassRegistry::registerPass(PipelineStage Stage, const std::string &Name,
                                const std::string &Desc, CircuitFactory F) {
  Entry E;
  E.Desc = Desc;
  E.AsCircuit = std::move(F);
  record(Stage, Name, std::move(E));
}

const PassRegistry::Entry *PassRegistry::find(PipelineStage Stage,
                                              const std::string &Name) const {
  auto SIt = Entries.find(Stage);
  if (SIt == Entries.end())
    return nullptr;
  auto It = SIt->second.find(Name);
  return It == SIt->second.end() ? nullptr : &It->second;
}

std::unique_ptr<Pass<Program>>
PassRegistry::createProgramPass(PipelineStage Stage,
                                const std::string &Name) const {
  const Entry *E = find(Stage, Name);
  return E && E->AsProgram ? E->AsProgram() : nullptr;
}

std::unique_ptr<Pass<Module>>
PassRegistry::createModulePass(PipelineStage Stage,
                               const std::string &Name) const {
  const Entry *E = find(Stage, Name);
  return E && E->AsModule ? E->AsModule() : nullptr;
}

std::unique_ptr<Pass<Circuit>>
PassRegistry::createCircuitPass(PipelineStage Stage,
                                const std::string &Name) const {
  const Entry *E = find(Stage, Name);
  return E && E->AsCircuit ? E->AsCircuit() : nullptr;
}

bool PassRegistry::hasPass(PipelineStage Stage,
                           const std::string &Name) const {
  return find(Stage, Name) != nullptr;
}

std::vector<std::string> PassRegistry::passNames(PipelineStage Stage) const {
  auto It = Order.find(Stage);
  return It == Order.end() ? std::vector<std::string>() : It->second;
}

std::string PassRegistry::describe(PipelineStage Stage,
                                   const std::string &Name) const {
  const Entry *E = find(Stage, Name);
  return E ? E->Desc : "";
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
