//===- PassRegistry.h - The pass table and pipeline plans -----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass table the stage pipelines run from: every pass of Fig. 2 is one
/// row of a static table keyed by (stage, name), holding a plain function
/// over that stage's unit, and a `PipelinePlan` names which passes run in
/// each stage. The Table 1 ablations are named preset plans:
///
///   - `default`     — the full pipeline (§5.4 + §6.5),
///   - `no-opt`      — lambda lifting + specialization only; QIR callables
///                     survive (the "Asdf (No Opt)" row),
///   - `no-peephole` — full inlining, QCircuit peepholes off,
///   - `no-canon`    — AST canonicalization (§4.2) off.
///
/// Plans also parse from `--pipeline "stage:pass,...;stage:pass,..."` text,
/// so ablations beyond the presets need no recompile. The table is fixed at
/// build time; a caller with a pass of its own runs it through
/// `PassContext::runInstrumented`.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_COMPILER_PASSREGISTRY_H
#define ASDF_COMPILER_PASSREGISTRY_H

#include "compiler/Pass.h"

#include <memory>
#include <string>
#include <vector>

namespace asdf {

/// Which table passes run in each stage, by name and in order.
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

/// The body of the built-in pass \p Name of \p Stage over \p UnitT, the
/// stage's unit type; null if the table has no such row.
template <typename UnitT>
PassFn<UnitT> findPass(PipelineStage Stage, const std::string &Name);

/// Read-only access to the pass table by (stage, name).
class PassRegistry {
public:
  static PassRegistry &instance();

  /// The table row as a pass object; null if (stage, name) is unknown or
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
  /// The stage's pass names, in table order.
  std::vector<std::string> passNames(PipelineStage Stage) const;

private:
  PassRegistry() = default;
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
