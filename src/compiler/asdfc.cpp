//===- asdfc.cpp - Command-line driver for the Asdf reproduction ----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line compiler for .qw files:
///
///   asdfc program.qw --entry kernel --bind N=8
///         --capture f.secret=110101 --capture kernel.f=@f --emit qasm
///
/// Emission targets: qasm (OpenQASM 3), qir (Unrestricted Profile QIR),
/// qir-base (Base Profile QIR), qwerty-ir, circuit, run (simulate and print
/// the measured bits), estimate.
///
/// The pipeline is selected with --pipeline (a preset name or a
/// "stage:pass,..." spec); --print-after/--print-before, --pass-timings,
/// and --verify-each expose the pass instrumentation. The legacy
/// --no-inline/--no-peephole flags remain as shorthands for the no-opt and
/// no-peephole presets.
///
//===----------------------------------------------------------------------===//

#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "compiler/CommandLine.h"
#include "compiler/CompileSession.h"
#include "estimate/ResourceEstimator.h"
#include "noise/NoiseSpec.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Simulator.h"
#include "support/BuildInfo.h"
#include "support/FaultInject.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace asdf;

namespace {

void usage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: asdfc <file.qw> [options]\n"
      "  -h, --help              print this help and exit\n"
      "  --version               print version, build identity (compiler,\n"
      "                          build type, native-arch, commit), and the\n"
      "                          build fingerprint that keys the asdfd\n"
      "                          artifact cache, then exit\n"
      "  --entry <name>          entry kernel (default: kernel)\n"
      "  --bind <Var>=<int>      bind a dimension variable\n"
      "  --capture <fn>.<param>=<bits>   bind a bit-string capture\n"
      "  --capture <fn>.<param>=@<name>  bind a classical-function capture\n"
      "  --emit qasm|qir|qir-base|qwerty-ir|circuit|run|estimate\n"
      "  --pipeline <plan>       pipeline preset (default, no-opt,\n"
      "                          no-peephole, no-canon) or an explicit\n"
      "                          \"stage:pass,...;stage:pass,...\" spec\n"
      "                          (stages: ast, qwerty, qcirc, circuit);\n"
      "                          see README \"Compilation pipeline\"\n"
      "  --print-after[=pass]    dump IR to stderr after every pass (or\n"
      "                          only the named pass/transition)\n"
      "  --print-before[=pass]   same, before passes\n"
      "  --pass-timings          report per-pass wall time and IR-size\n"
      "                          deltas to stderr after compiling\n"
      "  --verify-each           run the IR verifier after every pass and\n"
      "                          name the pass that broke the IR\n"
      "  --no-inline             shorthand for --pipeline no-opt (emit\n"
      "                          callables)\n"
      "  --no-peephole           shorthand for --pipeline no-peephole\n"
      "  --shots <n>             shots for --emit run (default 1)\n"
      "  --seed <n>              base RNG seed for --emit run (default 0)\n"
      "  --backend auto|sv|stab|mps  simulation backend for --emit run\n"
      "                          (auto consults the cost model: stabilizer\n"
      "                          tableau for Clifford circuits, statevector\n"
      "                          within the dense cap, MPS tensor network\n"
      "                          for wide low-entanglement circuits)\n"
      "  --mps-chi <n>           MPS bond-dimension cap (default 64; 0 =\n"
      "                          unlimited/exact). Larger chi is more\n"
      "                          accurate and slower; truncation is\n"
      "                          reported by --sim-stats\n"
      "  --explain-backend       print the backend auto-dispatch decision\n"
      "                          (chosen engine, cost model, per-backend\n"
      "                          verdicts) and exit without running\n"
      "  --jobs <n>              worker threads for --emit run (default 0 =\n"
      "                          one per hardware core; results are\n"
      "                          identical for any value)\n"
      "  --sim-stats             print simulation counters (gate kernels,\n"
      "                          fused ops/blocks, amplitudes touched,\n"
      "                          amps/sec) to stderr after --emit run\n"
      "  --param <name>=<float>  bind a rotation parameter (degrees); repeat\n"
      "                          for each $-parameter the program declares.\n"
      "                          Binding happens after compilation, so\n"
      "                          re-binding never recompiles\n"
      "  --sweep <spec>          run a parameter sweep with --emit run:\n"
      "                          semicolon-separated points, each a comma-\n"
      "                          separated value list in declaration order\n"
      "                          (e.g. \"0,90;45,90;90,90\" for two\n"
      "                          parameters x three points). Compiles and\n"
      "                          plans fusion once, then binds and builds\n"
      "                          the fused ops per point; per-point\n"
      "                          results are bit-identical to recompiling\n"
      "  --noise <file.ini>      noise model for --emit run (INI spec; see\n"
      "                          README \"Noisy simulation\"). Pauli-only\n"
      "                          models run on the stabilizer engine via\n"
      "                          Pauli frames; general Kraus models run as\n"
      "                          dense quantum trajectories\n"
      "  --trajectories          print noise/trajectory diagnostics (model\n"
      "                          summary, execution path, sampled error\n"
      "                          branches) to stderr\n"
      "  --trace <file.json>     record a Chrome trace-event JSON of this\n"
      "                          invocation (per-pass compile spans, fusion,\n"
      "                          per-worker kernel execution); load it in\n"
      "                          Perfetto or chrome://tracing\n"
      "  --metrics               print metrics (sim counters, run wall\n"
      "                          time) in Prometheus text format to stderr\n"
      "                          after the command finishes\n");
}

/// Exits with code 2 after a one-line diagnosis plus a usage pointer, the
/// convention for every command-line error.
[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "asdfc: %s\n", Message.c_str());
  std::fprintf(stderr, "run 'asdfc --help' for usage\n");
  std::exit(2);
}

bool validEmit(const std::string &E) {
  static const std::set<std::string> Valid = {
      "qasm", "qir", "qir-base", "qwerty-ir", "circuit", "run", "estimate"};
  return Valid.count(E) != 0;
}

/// All of asdfc; main adds only the out-of-memory exit.
int asdfcMain(int argc, char **argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "--help") == 0)) {
    usage(stdout);
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    printVersion("asdfc");
    return 0;
  }
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  std::string Path = argv[1];
  if (!Path.empty() && Path[0] == '-')
    usageError("first argument must be the input .qw file (got option '" +
               Path + "')");
  std::string Emit = "qasm";
  RunSpec Spec;
  SessionOptions Opts;
  ProgramBindings Bindings;
  NoiseModel Noise;
  std::string PipelineArg;
  bool NoInline = false, NoPeephole = false;
  bool Trajectories = false;
  bool PassTimings = false;
  bool JobsExplicitZero = false;
  bool SimStatsRequested = false;
  std::map<std::string, double> ParamArgs;
  std::string TracePath;
  bool MetricsRequested = false;
  bool ExplainBackend = false;

  std::string Error;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usageError("option '" + Arg + "' expects a value");
      return argv[++I];
    };
    if (Arg == "-h" || Arg == "--help") {
      usage(stdout);
      return 0;
    } else if (Arg == "--version") {
      printVersion("asdfc");
      return 0;
    } else if (Arg == "--entry") {
      Opts.Entry = Next();
    } else if (Arg == "--bind") {
      if (!parseBindArg(Next(), Bindings, Error))
        usageError(Error);
    } else if (Arg == "--capture") {
      if (!parseCaptureArg(Next(), Bindings, Error))
        usageError(Error);
    } else if (Arg == "--emit") {
      Emit = Next();
      if (!validEmit(Emit))
        usageError("unknown --emit value '" + Emit +
                   "' (expected qasm, qir, qir-base, qwerty-ir, circuit, "
                   "run, or estimate)");
    } else if (Arg == "--pipeline") {
      PipelineArg = Next();
    } else if (Arg == "--print-after" ||
               Arg.rfind("--print-after=", 0) == 0) {
      Opts.PrintAfter = Arg == "--print-after"
                            ? std::string()
                            : Arg.substr(std::strlen("--print-after="));
    } else if (Arg == "--print-before" ||
               Arg.rfind("--print-before=", 0) == 0) {
      Opts.PrintBefore = Arg == "--print-before"
                             ? std::string()
                             : Arg.substr(std::strlen("--print-before="));
    } else if (Arg == "--pass-timings") {
      PassTimings = true;
    } else if (Arg == "--verify-each") {
      Opts.VerifyEach = true;
    } else if (Arg == "--no-inline") {
      NoInline = true;
    } else if (Arg == "--no-peephole") {
      NoPeephole = true;
    } else if (Arg == "--shots") {
      if (!parseUnsignedArg(Arg, Next(), Spec.Shots, Error))
        usageError(Error);
    } else if (Arg == "--seed") {
      if (!parseUnsignedArg(Arg, Next(), Spec.Seed, Error))
        usageError(Error);
    } else if (Arg == "--jobs") {
      if (!parseUnsignedArg(Arg, Next(), Spec.Opts.Jobs, Error))
        usageError(Error);
      JobsExplicitZero = Spec.Opts.Jobs == 0;
    } else if (Arg == "--sim-stats") {
      SimStatsRequested = true;
    } else if (Arg == "--param") {
      std::string Key, Value;
      if (!splitEq(Next(), Key, Value))
        usageError("--param expects <name>=<float>");
      double D;
      if (!parseDoubleArg(Value, D))
        usageError("--param value '" + Value + "' is not a number");
      if (!ParamArgs.emplace(Key, D).second)
        usageError("duplicate --param for '" + Key +
                   "' (each parameter can be bound once)");
    } else if (Arg == "--sweep") {
      if (!parseSweepSpec(Next(), Spec.Points, Error))
        usageError(Error);
    } else if (Arg == "--noise") {
      if (!loadNoiseSpec(Next(), Noise, Error)) {
        std::fprintf(stderr, "noise spec: %s\n", Error.c_str());
        return 1;
      }
      if (!Noise.validate(Error)) {
        std::fprintf(stderr, "noise spec: %s\n", Error.c_str());
        return 1;
      }
    } else if (Arg == "--trajectories") {
      Trajectories = true;
    } else if (Arg == "--trace") {
      TracePath = Next();
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(std::strlen("--trace="));
    } else if (Arg == "--metrics") {
      MetricsRequested = true;
    } else if (Arg == "--backend") {
      std::string Name = Next();
      if (!parseBackendKind(Name, Spec.Backend))
        usageError("unknown backend '" + Name +
                   "' (expected auto, sv, stab, or mps)");
    } else if (Arg == "--mps-chi") {
      if (!parseUnsignedArg(Arg, Next(), Spec.Opts.MpsChi, Error))
        usageError(Error);
    } else if (Arg == "--explain-backend") {
      ExplainBackend = true;
    } else {
      usageError("unknown option '" + Arg + "'");
    }
  }

  // --explain-backend is a question about running, whatever --emit says:
  // route through the run path, which exits right after the decision.
  if (ExplainBackend)
    Emit = "run";

  // Tracing must be live before the first compiler pass runs so the
  // per-pass spans land in the export.
  if (!TracePath.empty())
    obs::enableTracing();

  // Fault-injection builds arm named failure points from $ASDF_FAULTS, as
  // asdfd does; production builds compile this to a no-op.
  fault::armFromEnv();

  // Resolve the pipeline plan: --pipeline text wins; the legacy shorthands
  // only modify the default plan, and combining them with an explicit
  // --pipeline would be ambiguous.
  if (!PipelineArg.empty() && (NoInline || NoPeephole))
    usageError("--pipeline cannot be combined with --no-inline/"
               "--no-peephole (encode the ablation in the plan instead)");
  if (!PipelineArg.empty()) {
    if (!parsePipelinePlan(PipelineArg, Opts.Plan, Error))
      usageError(Error);
  } else if (NoInline) {
    Opts.Plan.Qwerty = presetPlan("no-opt").Qwerty;
    if (NoPeephole)
      Opts.Plan.QCirc = presetPlan("no-peephole").QCirc;
  } else if (NoPeephole) {
    Opts.Plan.QCirc = presetPlan("no-peephole").QCirc;
  }
  Opts.CollectTimings = PassTimings;

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  if (fault::shouldFail("compile.bad-alloc"))
    throw std::bad_alloc();
  CompileSession Session(Buf.str(), Bindings, Opts);
  SimStats SimCounters;
  double RunSecs = 0.0;
  // Reports the pass-timing table even when compilation fails partway:
  // the timings up to the failing pass are exactly what's useful then.
  // Likewise the trace and metrics dumps: a failing invocation's spans
  // are exactly the ones worth looking at.
  auto Finish = [&](int Code) {
    if (PassTimings)
      std::fprintf(stderr, "%s", Session.timingReport().c_str());
    if (MetricsRequested) {
      // Prometheus only: asdfc has no stats payload, so no series has a
      // JSON path.
      obs::MetricsRegistry Reg;
      Reg.counterFn("asdfc_gate_kernels_total", "",
                    "Dense gate kernels applied",
                    [&SimCounters] { return SimCounters.GatesApplied; });
      Reg.counterFn("asdfc_fused_ops_total", "", "Fused-block applications",
                    [&SimCounters] { return SimCounters.FusedOps; });
      Reg.counterFn("asdfc_fused_blocks_total", "", "Fused blocks built",
                    [&SimCounters] { return SimCounters.FusedBlocks; });
      Reg.counterFn(
          "asdfc_amplitudes_touched_total", "",
          "Statevector amplitudes visited by kernels",
          [&SimCounters] { return SimCounters.AmplitudesTouched; });
      Reg.counterFn("asdfc_shots_total", "", "Shots executed",
                    [&Spec] { return uint64_t(Spec.Shots); });
      Reg.gaugeFn("asdfc_run_seconds", "", "Wall seconds spent simulating",
                  [&RunSecs] { return RunSecs; });
      std::fputs(Reg.renderPrometheus().c_str(), stderr);
    }
    if (!TracePath.empty()) {
      if (obs::writeChromeTrace(TracePath))
        std::fprintf(stderr, "trace: wrote %s\n", TracePath.c_str());
      else
        std::fprintf(stderr, "trace: cannot write '%s'\n",
                     TracePath.c_str());
    }
    return Code;
  };
  auto CompileError = [&]() {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                 Session.errorMessage().c_str());
    return Finish(1);
  };

  if (Emit == "qwerty-ir") {
    Module *QW = Session.qwertyIR();
    if (!QW)
      return CompileError();
    std::printf("%s", QW->str().c_str());
    return Finish(0);
  }
  if (Emit == "qir") {
    Module *QC = Session.qcircIR();
    if (!QC)
      return CompileError();
    QirCallableStats Stats;
    std::printf("%s", emitQirUnrestricted(*QC, &Stats).c_str());
    std::fprintf(stderr, "; callable_create: %u, callable_invoke: %u\n",
                 Stats.Creates, Stats.Invokes);
    return Finish(0);
  }
  if (!Session.options().Plan.producesFlatCircuit()) {
    std::fprintf(stderr,
                 "a non-inlining pipeline supports only --emit "
                 "qir/qwerty-ir\n");
    return Finish(1);
  }
  Circuit *Flat = Session.flatCircuit();
  if (!Flat)
    return CompileError();

  // Parameter handling: --param binds the compiled circuit once (for any
  // flat-circuit emit target); --sweep re-binds per point inside the run.
  const bool HasSweep = !Spec.Points.empty();
  if (HasSweep && Emit != "run")
    usageError("--sweep requires --emit run");
  if (HasSweep && !ParamArgs.empty())
    usageError("--param cannot be combined with --sweep (the sweep spec "
               "carries the values)");
  const std::vector<std::string> &ParamNames = Flat->ParamNames;
  Circuit BoundStorage;
  if (!ParamArgs.empty()) {
    std::string Err;
    std::optional<Circuit> Bound = Session.bindParams(ParamArgs, &Err);
    if (!Bound) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
      return Finish(1);
    }
    BoundStorage = std::move(*Bound);
  }
  const Circuit &FlatCircuit = ParamArgs.empty() ? *Flat : BoundStorage;
  if (HasSweep) {
    if (ParamNames.empty()) {
      std::fprintf(stderr, "--sweep requires a parametric program, but "
                           "entry '%s' declares no $-parameters\n",
                   Session.options().Entry.c_str());
      return Finish(1);
    }
    for (size_t P = 0; P < Spec.Points.size(); ++P)
      if (Spec.Points[P].size() != ParamNames.size())
        usageError("--sweep point " + std::to_string(P) + " has " +
                   std::to_string(Spec.Points[P].size()) +
                   " value(s) but the program declares " +
                   std::to_string(ParamNames.size()) + " parameter(s)");
  }

  if (Emit == "qasm") {
    std::printf("%s", emitOpenQasm3(FlatCircuit).c_str());
    return Finish(0);
  }
  if (Emit == "qir-base") {
    std::optional<std::string> Qir = emitQirBaseProfile(FlatCircuit);
    if (!Qir) {
      std::fprintf(stderr, "circuit needs features outside the Base "
                           "Profile (dynamic conditions or unbound "
                           "parameters)\n");
      return Finish(1);
    }
    std::printf("%s", Qir->c_str());
    return Finish(0);
  }
  if (Emit == "circuit") {
    std::printf("%s", FlatCircuit.str().c_str());
    return Finish(0);
  }
  if (Emit == "estimate") {
    ResourceEstimate Est = estimateResources(FlatCircuit);
    std::printf("%s\n", Est.str().c_str());
    return Finish(0);
  }
  // Emit == "run" (the only remaining target; validated at parse time).
  if (!Noise.empty())
    Spec.Opts.Noise = &Noise;
  const bool NoiseCounts = Trajectories && Spec.Opts.Noise;
  if (SimStatsRequested || MetricsRequested || NoiseCounts)
    Spec.Opts.SimCounters = &SimCounters;
  std::chrono::steady_clock::time_point RunStart;
  RunReport Run = runCircuit(FlatCircuit, Spec, [&](const RunReport &R) {
    if (ExplainBackend)
      return false;
    bool IsSv = std::strcmp(R.Selection.Chosen->name(), "sv") == 0;
    if (JobsExplicitZero)
      std::fprintf(stderr,
                   "jobs: 0 means one worker per hardware core; worker "
                   "budget %u (shot-parallel runs clamp to the %u "
                   "shot(s))\n",
                   resolveJobCount(0), Spec.Shots);
    if (IsSv) {
      FusedCircuit Plan = fuseCircuit(FlatCircuit, Spec.Opts.Noise);
      if (Plan.GatesFused > 0)
        std::fprintf(stderr, "fusion: %s\n", Plan.summary().c_str());
    }
    if (NoiseCounts) {
      NoisePlan Plan = planNoise(*Spec.Opts.Noise, FlatCircuit);
      size_t Sites = 0;
      for (const std::vector<NoiseOp> &Ops : Plan.PerInstr)
        Sites += Ops.size();
      const char *NoisePath =
          IsSv ? "statevector-trajectory"
               : (R.Profile.HasFeedForward ? "tableau-monte-carlo"
                                           : "pauli-frame");
      std::fprintf(stderr, "noise: %s\n",
                   Spec.Opts.Noise->summary().c_str());
      std::fprintf(stderr,
                   "noise: %zu insertion site(s) over %zu instruction(s); "
                   "path: %s\n",
                   Sites, FlatCircuit.Instrs.size(), NoisePath);
    }
    RunStart = std::chrono::steady_clock::now();
    return true;
  });
  if (Run.Result == RunReport::Outcome::Ran)
    RunSecs = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - RunStart)
                  .count();
  if (Run.Result == RunReport::Outcome::Refused) {
    std::fprintf(stderr,
                 "%s; bind each with --param or sweep with --sweep\n",
                 Run.Refusal.c_str());
    return Finish(1);
  }
  if (ExplainBackend) {
    std::printf("%s", Run.Selection.describe().c_str());
    return Finish(0);
  }
  if (Run.Result == RunReport::Outcome::Unsupported) {
    // Unified failure diagnostics: the decision, the cost-model summary,
    // and one verdict per registered backend saying why each was (or was
    // not) eligible — the same report --explain-backend prints.
    std::fprintf(stderr, "%s", Run.Selection.describe().c_str());
    return Finish(1);
  }
  for (size_t P = 0; P < Run.Bits.size(); ++P) {
    if (HasSweep)
      std::printf("%s\n",
                  formatPointHeader(P, ParamNames, Spec.Points[P]).c_str());
    for (const std::string &Bits : Run.Bits[P])
      std::printf("%s\n", Bits.c_str());
  }
  const char *Engine = Run.Selection.Chosen->name();
  if (SimStatsRequested) {
    uint64_t Amps = SimCounters.AmplitudesTouched;
    std::fprintf(
        stderr,
        "sim-stats: %llu gate kernel(s), %llu fused op(s) (%llu block(s)), "
        "%llu amplitudes touched, %.3g amps/sec over %u shot(s)\n",
        static_cast<unsigned long long>(SimCounters.GatesApplied),
        static_cast<unsigned long long>(SimCounters.FusedOps),
        static_cast<unsigned long long>(SimCounters.FusedBlocks),
        static_cast<unsigned long long>(Amps),
        RunSecs > 0 ? double(Amps) / RunSecs : 0.0, Spec.Shots);
    if (std::strcmp(Engine, "mps") == 0)
      std::fprintf(
          stderr,
          "sim-stats: mps: %llu SVD(s), %llu truncation(s), discarded "
          "weight %.3g, max bond %llu (chi %u)\n",
          static_cast<unsigned long long>(SimCounters.MpsSvds),
          static_cast<unsigned long long>(SimCounters.MpsTruncations),
          SimCounters.MpsTruncationError,
          static_cast<unsigned long long>(SimCounters.MpsMaxBond),
          Spec.Opts.MpsChi);
    else if (std::strcmp(Engine, "sv") != 0)
      std::fprintf(stderr, "sim-stats: note: the '%s' backend does not "
                           "report dense-engine counters\n",
                   Engine);
  }
  if (NoiseCounts)
    std::fprintf(
        stderr,
        "trajectories: %llu channel application(s), %llu error "
        "branch(es), %llu readout flip(s) over %u shot(s)\n",
        static_cast<unsigned long long>(SimCounters.ChannelApps),
        static_cast<unsigned long long>(SimCounters.ErrorBranches),
        static_cast<unsigned long long>(SimCounters.ReadoutFlips),
        Spec.Shots);
  return Finish(0);
}

} // namespace

int main(int argc, char **argv) {
  // An allocation failure anywhere (a binding too large to compile, a
  // state that does not fit) is a runtime failure like any other.
  try {
    return asdfcMain(argc, argv);
  } catch (const std::bad_alloc &) {
    std::fprintf(stderr, "asdfc: out of memory\n");
    return 1;
  }
}
