//===- Pass.h - Pass context and instrumentation for the Fig. 2 pipeline --===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MLIR-style pass infrastructure the compilation pipeline is built
/// from. The Fig. 2 pipeline has four staged unit types:
///
///   - **ast**: passes over the Qwerty `Program` (expand, typecheck,
///     canonicalize),
///   - **qwerty**: passes over the Qwerty-IR `Module` (§5.4: lift-lambdas,
///     inline, dce, specialize, verify),
///   - **qcirc**: passes over the QCircuit-IR `Module` (§6.5: canonicalize,
///     peephole, decompose-mc),
///   - **circuit**: passes over the flat `Circuit` (§7, e.g. transpile-o3).
///
/// A pass is a plain function `bool(Unit&, PassContext&)`; the built-in
/// ones are the rows of one table (PassRegistry.h). `PassContext` carries
/// the diagnostics engine, the entry-kernel name, and the instrumentation
/// hooks: per-pass wall time and IR statistics, dump-before/dump-after IR
/// printing, and an optional inter-pass verifier (`--verify-each`).
/// `CompileSession` runs each stage's pass list through
/// `PassContext::runInstrumented`, and funnels the stage *transitions*
/// (parse, lower, convert, flatten) through the same hooks so they show up
/// in timing reports and can be dump targets too.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_COMPILER_PASS_H
#define ASDF_COMPILER_PASS_H

#include "obs/Trace.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace asdf {

class Module;
struct Program;
struct Circuit;
struct ProgramBindings;

/// The four staged unit types of the Fig. 2 pipeline, in order.
enum class PipelineStage { AST, Qwerty, QCirc, Circuit };

const char *pipelineStageName(PipelineStage S);

/// Parses "ast"/"qwerty"/"qcirc"/"circuit"; false on anything else.
bool parsePipelineStage(const std::string &Name, PipelineStage &Out);

/// A size snapshot of a pipeline unit, taken before and after each pass so
/// instrumentation can report what the pass did to the IR.
struct UnitStats {
  uint64_t Functions = 0; ///< Module: functions; Program: function defs.
  uint64_t Ops = 0;       ///< Module: ops (recursive); Circuit: instrs;
                          ///< Program: statements across all functions.
  uint64_t Qubits = 0;    ///< Circuit only: register width.

  bool operator==(const UnitStats &O) const {
    return Functions == O.Functions && Ops == O.Ops && Qubits == O.Qubits;
  }
  bool operator!=(const UnitStats &O) const { return !(*this == O); }

  /// Renders e.g. "3 funcs, 120 ops" or "57 instrs, 9 qubits".
  std::string str(PipelineStage S) const;
};

UnitStats unitStats(const Program &P);
UnitStats unitStats(const Module &M);
UnitStats unitStats(const Circuit &C);

/// Prints a unit for --print-before/--print-after dumps.
std::string unitPrint(const Program &P);
std::string unitPrint(const Module &M);
std::string unitPrint(const Circuit &C);

/// Inter-pass verification (--verify-each). Modules run the full structural
/// verifier; circuits get an index-bounds check; programs have no invariant
/// checkable without re-running the type checker, so they always pass.
bool unitVerify(const Program &P, DiagnosticEngine &Diags);
bool unitVerify(const Module &M, DiagnosticEngine &Diags);
bool unitVerify(const Circuit &C, DiagnosticEngine &Diags);

/// One timed pass (or stage transition) execution.
struct PassTiming {
  PipelineStage Stage = PipelineStage::AST;
  std::string PassName;
  double Seconds = 0.0;
  UnitStats Before, After;

  bool changedIR() const { return Before != After; }
};

/// Shared state threaded through every pass of a compilation: diagnostics,
/// the entry-point name, the capture/dimension bindings (consumed by the
/// `expand` pass), and the instrumentation configuration.
class PassContext {
public:
  PassContext(DiagnosticEngine &Diags) : Diags(Diags) {}

  DiagnosticEngine &Diags;
  /// Entry kernel: the dce/specialize passes and flatten key off it.
  std::string Entry = "kernel";
  /// Dimension-variable and capture bindings for the `expand` pass.
  const ProgramBindings *Bindings = nullptr;

  //===--- Instrumentation configuration ---===//

  /// Record per-pass wall time and before/after IR statistics.
  bool CollectTimings = false;
  /// Run the unit verifier after every pass; a failure aborts compilation
  /// naming the pass that broke the IR.
  bool VerifyEach = false;
  /// Dump IR after passes: unset = off, "" = after every pass, otherwise
  /// only after the named pass. Stage transitions (parse, lower, convert,
  /// flatten) are valid names too.
  std::optional<std::string> PrintAfter;
  /// Same, before passes.
  std::optional<std::string> PrintBefore;
  /// Where dumps go: called with a banner line and the printed IR.
  /// Defaults to stderr.
  std::function<void(const std::string &Banner, const std::string &IR)>
      PrintSink;

  //===--- Instrumentation output ---===//

  std::vector<PassTiming> Timings;
  /// Set when a pass fails (or --verify-each fails after it): the offending
  /// pass and stage, for error messages that name the culprit.
  std::string FailedPass;
  PipelineStage FailedStage = PipelineStage::AST;

  /// Renders an MLIR-style pass-timing report from `Timings`.
  std::string timingReport() const;

  /// Runs \p Body as the named pass over \p U with full instrumentation:
  /// dump-before, timing, dump-after, and the inter-pass verifier. Returns
  /// false (recording FailedPass/FailedStage) if the body fails or the
  /// verifier rejects the unit afterwards.
  template <typename UnitT, typename Fn>
  bool runInstrumented(PipelineStage Stage, const std::string &Name, UnitT &U,
                       Fn Body) {
    if (wantsDump(PrintBefore, Name))
      dump("Before", Stage, Name, unitPrint(U));
    UnitStats Before;
    if (CollectTimings)
      Before = unitStats(U);
    auto T0 = std::chrono::steady_clock::now();
    bool Ok;
    {
      // "qwerty:inline"-style span per pass; formats nothing and costs
      // one relaxed load when tracing is off.
      obs::Span Sp(pipelineStageName(Stage), Name, "compile");
      Ok = Body();
    }
    if (CollectTimings) {
      double Secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
      Timings.push_back({Stage, Name, Secs, Before, unitStats(U)});
    }
    return finishStep(Stage, Name, Ok ? &U : nullptr);
  }

  /// Dump hook for the unit *feeding* a creation transition (the AST
  /// before `lower`, the QCirc module before `flatten`): honors
  /// print-before. `parse` has no predecessor unit and thus no
  /// before-dump.
  template <typename UnitT>
  void dumpBeforeCreation(PipelineStage Stage, const std::string &Name,
                          const UnitT &U) {
    if (wantsDump(PrintBefore, Name))
      dump("Before", Stage, Name, unitPrint(U));
  }

  /// Instruments a stage transition that *creates* its unit (parse, lower,
  /// flatten): records the timing with empty before-stats, honors
  /// print-after and the inter-pass verifier. Pass null \p U on failure.
  template <typename UnitT>
  bool recordCreation(PipelineStage Stage, const std::string &Name,
                      double Seconds, UnitT *U) {
    if (obs::traceEnabled()) {
      // The transition already ran; emit its span retroactively so parse/
      // lower/flatten appear alongside the instrumented passes.
      uint64_t DurNs = static_cast<uint64_t>(Seconds * 1e9);
      uint64_t Now = obs::nowNs();
      obs::emitSpan(Name.c_str(), "compile", Now > DurNs ? Now - DurNs : 0,
                    DurNs, obs::currentTraceId());
    }
    if (CollectTimings)
      Timings.push_back({Stage, Name, Seconds, UnitStats(),
                         U ? unitStats(*U) : UnitStats()});
    return finishStep(Stage, Name, U);
  }

  void noteFailure(PipelineStage Stage, const std::string &Name) {
    // Keep the first (innermost) failure.
    if (FailedPass.empty()) {
      FailedPass = Name;
      FailedStage = Stage;
    }
  }

private:
  /// The tail of every step, pass or transition: a failed step (null \p U)
  /// is noted; otherwise print-after and the inter-pass verifier run.
  template <typename UnitT>
  bool finishStep(PipelineStage Stage, const std::string &Name,
                  const UnitT *U) {
    if (!U) {
      noteFailure(Stage, Name);
      return false;
    }
    if (wantsDump(PrintAfter, Name))
      dump("After", Stage, Name, unitPrint(*U));
    if (VerifyEach && !unitVerify(*U, Diags)) {
      Diags.note(SourceLoc(), "IR verification failed after pass '" + Name +
                                  "' (" + pipelineStageName(Stage) +
                                  " stage)");
      noteFailure(Stage, Name);
      return false;
    }
    return true;
  }

  static bool wantsDump(const std::optional<std::string> &Sel,
                        const std::string &Name) {
    return Sel && (Sel->empty() || *Sel == Name);
  }
  void dump(const char *When, PipelineStage Stage, const std::string &Name,
            const std::string &IR);
};

/// The body of a pass over one stage's unit: transforms \p U in place and
/// returns false on failure after reporting into Ctx.Diags.
template <typename UnitT> using PassFn = bool (*)(UnitT &, PassContext &);

/// A named pass over one unit type, as PassRegistry's create*Pass hand out.
template <typename UnitT> struct Pass {
  std::string Name;
  PassFn<UnitT> Fn;

  bool run(UnitT &U, PassContext &Ctx) const { return Fn(U, Ctx); }
};

} // namespace asdf

#endif // ASDF_COMPILER_PASS_H
