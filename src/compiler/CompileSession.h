//===- CompileSession.h - One compilation: source, artifacts, diagnostics -===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primary compilation API. A CompileSession owns one compilation of
/// one source program: the source text, the dimension/capture bindings, the
/// diagnostics engine, the pipeline plan, and a cache of every intermediate
/// artifact of Fig. 2. Artifact getters run exactly the pipeline prefix
/// they need and memoize it:
///
///   CompileSession S(Source, Bindings);
///   const Circuit *C = S.flatCircuit();   // runs parse .. flatten
///   if (!C) die(S.errorMessage());        // names the failing stage:pass
///   const Module *QW = S.qwertyIR();      // already cached — no recompile
///
/// Embedders (asdfc, the simulator harnesses, the resource estimator
/// sweeps, benches, tests) all drive compilation through sessions. A
/// session never re-runs the front half: the Qwerty IR is preserved by
/// deep-cloning the module before the destructive QCircuit conversion.
///
/// Instrumentation (per-pass wall time + IR statistics, dump-before/after,
/// inter-pass verification) is configured in SessionOptions and surfaced on
/// the CLI as --pass-timings, --print-before/--print-after, --verify-each.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_COMPILER_COMPILESESSION_H
#define ASDF_COMPILER_COMPILESESSION_H

#include "ast/Expand.h"
#include "compiler/Pass.h"
#include "compiler/PassRegistry.h"
#include "ir/IR.h"
#include "qcirc/Circuit.h"
#include "support/Hash.h"

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace asdf {

/// Configuration of one compilation session.
struct SessionOptions {
  /// Entry kernel name.
  std::string Entry = "kernel";
  /// Which passes run in each stage; see PassRegistry.h for presets.
  PipelinePlan Plan = presetPlan("default");
  /// Record per-pass wall time and IR statistics (timings(), timingReport()).
  bool CollectTimings = false;
  /// Verify the IR after every pass; failures name the offending pass.
  bool VerifyEach = false;
  /// Dump IR after/before passes: unset = off, "" = every pass, otherwise
  /// the named pass (stage transitions parse/lower/convert/flatten count;
  /// `parse` has no predecessor unit and thus no before-dump).
  std::optional<std::string> PrintAfter;
  std::optional<std::string> PrintBefore;
  /// Dump destination; defaults to stderr.
  std::function<void(const std::string &Banner, const std::string &IR)>
      PrintSink;
};

/// One compilation of one program, with cached artifacts.
class CompileSession {
public:
  CompileSession(std::string Source, ProgramBindings Bindings,
                 SessionOptions Options = SessionOptions());

  //===--- Artifact getters (run + cache; null on failure) ---===//

  /// The expanded, checked, canonicalized AST (§4).
  Program *ast();
  /// The Qwerty IR after the qwerty-stage pipeline (§5.4).
  Module *qwertyIR();
  /// The QCircuit IR after conversion + the qcirc-stage pipeline (§6).
  Module *qcircIR();
  /// The flat, reg2mem'd circuit (§7). Requires a plan that fully inlines
  /// (PipelinePlan::producesFlatCircuit).
  Circuit *flatCircuit();

  //===--- Parametric compilation ---===//

  /// The flat circuit's parameter names, in binding order (first
  /// occurrence in the source). Empty for a non-parametric program; null
  /// if compilation fails.
  const std::vector<std::string> *paramNames();

  /// Binds the flat circuit's parameters to \p Values (degrees, in
  /// paramNames() order) and returns the concrete, runnable circuit.
  /// Compilation runs (and caches) once; re-binding never recompiles.
  /// Returns nullopt on compile failure or arity mismatch, describing the
  /// problem in \p Err — a bind error does not poison the session, so the
  /// caller can bind again with corrected values.
  std::optional<Circuit> bindParams(const std::vector<double> &Values,
                                    std::string *Err = nullptr);
  /// As above, keyed by parameter name: every declared parameter must be
  /// given exactly once, and unknown names are rejected.
  std::optional<Circuit> bindParams(const std::map<std::string, double> &Values,
                                    std::string *Err = nullptr);

  //===--- Status and instrumentation ---===//

  bool ok() const { return !Failed; }
  /// On failure: which pass failed, on which stage, for which entry, plus
  /// every accumulated diagnostic (with source locations where known).
  const std::string &errorMessage() const { return ErrorMessage; }
  DiagnosticEngine &diagnostics() { return Diags; }
  const SessionOptions &options() const { return Options; }

  const std::vector<PassTiming> &timings() const { return Ctx.Timings; }
  std::string timingReport() const { return Ctx.timingReport(); }

  //===--- Content hashing (the service's cache-key hook) ---===//

  /// Streams the canonical byte encoding of one compilation's identity —
  /// source text, entry kernel, pipeline plan, and bindings — into \p H.
  /// The encoding is exact, not semantic: any byte difference in the
  /// source (even whitespace) and any field difference in the plan or
  /// bindings produces a different digest, while the same inputs hash
  /// identically in every process on every run (std::map iteration is
  /// sorted; no pointers or addresses are fed in). The artifact cache
  /// combines this with the build fingerprint and the artifact kind to
  /// form its key.
  static void hashIdentity(ContentHasher &H, const std::string &Source,
                           const std::string &Entry,
                           const PipelinePlan &Plan,
                           const ProgramBindings &Bindings);

  /// The digest of hashIdentity over this session's own inputs.
  std::array<uint64_t, 2> contentHash() const;

  /// Every artifact the session has materialized so far, moved out (the
  /// golden tests keep the QCircuit IR past the session); a session whose
  /// artifacts were taken must not run further stages.
  struct Artifacts {
    std::unique_ptr<Program> AST;
    std::unique_ptr<Module> QwertyIR;
    std::unique_ptr<Module> QCircIR;
    std::optional<Circuit> Flat;
  };
  Artifacts takeArtifacts();

private:
  /// Pipeline prefix already materialized, in stage order.
  enum class Phase { None, AST, Qwerty, QCirc, Flat };

  bool runTo(Phase Target);
  bool runAstStage();
  bool runQwertyStage();
  bool runQCircStage();
  bool runCircuitStage();
  bool fail();

  template <typename UnitT>
  bool runPassList(PipelineStage Stage,
                   const std::vector<std::string> &Names, UnitT &U);

  std::string Source;
  ProgramBindings Bindings;
  SessionOptions Options;

  DiagnosticEngine Diags;
  PassContext Ctx;

  Phase Done = Phase::None;
  bool Failed = false;
  std::string ErrorMessage;

  std::unique_ptr<Program> AST;
  std::unique_ptr<Module> QwertyIR;
  std::unique_ptr<Module> QCircIR;
  std::optional<Circuit> Flat;
};

/// The result of parameterizeSource: the canonicalized source text with
/// every literal `.rotate` angle lifted into a fresh parameter, plus the
/// lifted names and their original values (degrees, in lift order).
struct ParameterizedSource {
  std::string Source;
  std::vector<std::string> LiftedNames;  ///< "__a0", "__a1", ...
  std::vector<double> LiftedValues;      ///< Degrees, parallel to names.
};

/// Lifts every literal `.rotate(<float>)` angle in \p Source into a fresh
/// `$__aK` parameter, so two programs that differ only in their rotation
/// angle values canonicalize to the same source text — the structural
/// identity the service's bind-run cache keys on (compile the lifted
/// source once, re-bind per request). Only lone literal angles (with an
/// optional leading minus) are lifted; compound angle expressions are
/// left alone. Returns nullopt when the source does not lex or already
/// uses the reserved `$__a` parameter prefix; callers then fall back to
/// hashing the source verbatim.
std::optional<ParameterizedSource>
parameterizeSource(const std::string &Source);

} // namespace asdf

#endif // ASDF_COMPILER_COMPILESESSION_H
