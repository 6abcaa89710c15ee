//===- PassRegistry.h - Named pass registry and pipeline plans ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry the stage pipelines are built from: every pass of Fig. 2 is
/// registered under a (stage, name) key with a factory, and a
/// `PipelinePlan` names which passes run in each stage. The Table 1
/// ablations are named preset plans:
///
///   - `default`     — the full pipeline (§5.4 + §6.5),
///   - `no-opt`      — lambda lifting + specialization only; QIR callables
///                     survive (the "Asdf (No Opt)" row),
///   - `no-peephole` — full inlining, QCircuit peepholes off,
///   - `no-canon`    — AST canonicalization (§4.2) off.
///
/// Plans also parse from `--pipeline "stage:pass,...;stage:pass,..."` text,
/// so ablations beyond the presets need no recompile. Tests and tools can
/// register their own passes; the registry is process-global.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_COMPILER_PASSREGISTRY_H
#define ASDF_COMPILER_PASSREGISTRY_H

#include "compiler/Pass.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace asdf {

/// Which registered passes run in each stage, by name and in order.
struct PipelinePlan {
  std::vector<std::string> Ast;
  std::vector<std::string> Qwerty;
  std::vector<std::string> QCirc;
  std::vector<std::string> Circuit;

  std::vector<std::string> &stage(PipelineStage S);
  const std::vector<std::string> &stage(PipelineStage S) const;

  /// True if the Qwerty stage fully inlines, so the module can flatten to a
  /// circuit (§7). Plans without `inline` keep call/callable ops that only
  /// the QIR callables path can emit.
  bool producesFlatCircuit() const;

  /// Renders back to `--pipeline` spec text.
  std::string str() const;
};

/// Global registry of named passes, keyed by (stage, name).
class PassRegistry {
public:
  /// The singleton, with every built-in pass pre-registered.
  static PassRegistry &instance();

  using ProgramFactory = std::function<std::unique_ptr<Pass<Program>>()>;
  using ModuleFactory = std::function<std::unique_ptr<Pass<Module>>()>;
  using CircuitFactory = std::function<std::unique_ptr<Pass<Circuit>>()>;

  void registerPass(PipelineStage Stage, const std::string &Name,
                    const std::string &Desc, ProgramFactory F);
  void registerPass(PipelineStage Stage, const std::string &Name,
                    const std::string &Desc, ModuleFactory F);
  void registerPass(PipelineStage Stage, const std::string &Name,
                    const std::string &Desc, CircuitFactory F);

  /// Instantiates a registered pass; null if (stage, name) is unknown or
  /// the stage's unit type does not match the requested pass type.
  std::unique_ptr<Pass<Program>> createProgramPass(PipelineStage Stage,
                                                   const std::string &Name)
      const;
  std::unique_ptr<Pass<Module>> createModulePass(PipelineStage Stage,
                                                 const std::string &Name)
      const;
  std::unique_ptr<Pass<Circuit>> createCircuitPass(PipelineStage Stage,
                                                   const std::string &Name)
      const;

  bool hasPass(PipelineStage Stage, const std::string &Name) const;
  /// Registered pass names for a stage, in registration order.
  std::vector<std::string> passNames(PipelineStage Stage) const;
  /// One-line description, or "" if unknown.
  std::string describe(PipelineStage Stage, const std::string &Name) const;

private:
  PassRegistry();

  struct Entry {
    std::string Desc;
    ProgramFactory AsProgram; ///< Exactly one factory is set.
    ModuleFactory AsModule;
    CircuitFactory AsCircuit;
  };
  /// Per stage: name -> entry, plus registration order.
  std::map<PipelineStage, std::map<std::string, Entry>> Entries;
  std::map<PipelineStage, std::vector<std::string>> Order;

  const Entry *find(PipelineStage Stage, const std::string &Name) const;
  void record(PipelineStage Stage, const std::string &Name, Entry E);
};

/// True if \p Name is one of the built-in preset plans.
bool isPipelinePreset(const std::string &Name);

/// Names of the built-in presets, in documentation order.
std::vector<std::string> pipelinePresetNames();

/// The plan for a preset; \p Name must satisfy isPipelinePreset.
PipelinePlan presetPlan(const std::string &Name);

/// Parses \p Text into \p Plan: either a preset name or a spec of the form
/// `stage:pass,pass;stage:pass,...` (stages: ast, qwerty, qcirc, circuit).
/// Stages not mentioned keep the `default` preset's passes; a mentioned
/// stage with an empty list runs nothing. Returns false and fills \p Error
/// (naming valid stages/passes/presets) on malformed input.
bool parsePipelinePlan(const std::string &Text, PipelinePlan &Plan,
                       std::string &Error);

} // namespace asdf

#endif // ASDF_COMPILER_PASSREGISTRY_H
