//===- PaperEval.cpp - Workload paper_eval: the §8 pipeline, serially -----===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own workload (§8): the five §8.1 programs (BV, DJ, Grover,
/// Simon, period finding) at oracle sizes 16, 32 and 64, each compiled
/// with the plan compileAsdfBenchmark uses (default + transpile-o3),
/// emitted as OpenQASM 3 and QIR, and run through the resource estimator —
/// serially, on one thread, with no simulation and no service in the timed
/// window. Size 128 is left out: Grover-128 alone spends ~29 s in
/// transpileO3.
///
/// The programs do not depend on the seed (the determinism audit requires
/// identical counts on every seed); the seed orders each pass and seeds
/// the check runs.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "compiler/CompileSession.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace asdf;

namespace perfbench {
namespace {

const unsigned PaperSizes[] = {16, 32, 64};
/// The Clifford programs run on the tableau at every paper size; Grover and
/// period finding are too wide to simulate there and run at N=5.
const unsigned CliffordShots = 256;
const unsigned SmallN = 5, SmallShots = 1000;
/// shots_per_s is the median over rounds of the check runs, repeated for
/// at least this long (and at least three rounds).
const double CheckSecs = 2.0;

struct PaperProgram {
  BenchAlgorithm Alg;
  unsigned N;
  BenchProgram P;
  std::string name() const {
    return std::string(algName(Alg)) + "-" + std::to_string(N);
  }
};

/// One program's outputs: what every pass must reproduce exactly.
struct PaperOutput {
  std::shared_ptr<const Circuit> Flat;
  std::string QasmHash, QirHash;
  ResourceEstimate Est;
};

/// The deterministic summary of one pass.
struct PassSummary {
  uint64_t Gates = 0, TCount = 0;
  double FtRuntime = 0.0, FtPhysQubits = 0.0;
  std::string Digest;

  bool operator==(const PassSummary &O) const {
    return Gates == O.Gates && TCount == O.TCount &&
           FtRuntime == O.FtRuntime && FtPhysQubits == O.FtPhysQubits &&
           Digest == O.Digest;
  }
};

PassSummary summarize(const std::vector<PaperProgram> &Progs,
                      const std::vector<PaperOutput> &Outs) {
  PassSummary S;
  std::vector<double> Runtime, Phys;
  std::string All;
  for (size_t I = 0; I < Outs.size(); ++I) {
    S.Gates += Outs[I].Flat->Instrs.size();
    S.TCount += Outs[I].Est.TCount;
    Runtime.push_back(Outs[I].Est.RuntimeSeconds);
    Phys.push_back(double(Outs[I].Est.PhysicalQubits));
    All += Progs[I].name() + " " + Outs[I].QasmHash + " " +
           Outs[I].QirHash + " " + Outs[I].Est.str() + "\n";
  }
  S.FtRuntime = geomean(Runtime);
  S.FtPhysQubits = geomean(Phys);
  S.Digest = hashHex(All);
  return S;
}

/// One program through CompileSession with the §8.3 plan, the emitters and
/// the estimator: the timed operation of the workload.
bool compileOne(const BenchProgram &P, PaperOutput &Out, std::string &Error) {
  SpanLog Off(false, 0);
  Emitted E;
  {
    SessionOptions SO;
    SO.Entry = P.Entry;
    SO.Plan = paperPlan();
    CompileSession S(P.Source, P.Bindings, SO);
    Circuit *C = S.flatCircuit();
    if (!C) {
      Error = S.errorMessage();
      return false;
    }
    E = emitAndEstimate(*C, *S.qcircIR(), Off, 0);
    Out.Flat = std::make_shared<const Circuit>(std::move(*C));
  }
  Out.QasmHash = hashHex(E.Qasm);
  Out.QirHash = hashHex(E.Qir);
  Out.Est = E.Est;
  return true;
}

/// Compiles every program once, in a seeded order. \p Compiled counts the
/// successful compiles; false (with \p Error) on the first failure.
bool runPass(const std::vector<PaperProgram> &Progs, std::mt19937_64 &Rng,
             std::vector<PaperOutput> &Outs, uint64_t &Compiled,
             std::string &Error) {
  std::vector<size_t> Order(Progs.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Rng);
  Outs.assign(Progs.size(), PaperOutput());
  for (size_t I : Order) {
    std::string Why;
    if (!compileOne(Progs[I].P, Outs[I], Why)) {
      Error = "compile " + Progs[I].name() + ": " + Why;
      return false;
    }
    ++Compiled;
  }
  return true;
}

/// One serial pipeline: whole passes, one program after another.
struct Pipeline {
  std::vector<double> PassSecs;
  std::vector<PassSummary> Summaries;
  std::vector<PaperOutput> Outs; ///< The last pass's outputs.
  uint64_t Compiled = 0;
  std::string Error;
};

/// Compiles whole passes, each in a fresh seeded order, until \p Deadline
/// (at least one pass).
void runPipeline(const std::vector<PaperProgram> &Progs, uint64_t Seed,
                 double Deadline, Pipeline &P) {
  std::mt19937_64 Rng = makeRng(Seed, 10);
  do {
    double T0 = now();
    if (!runPass(Progs, Rng, P.Outs, P.Compiled, P.Error))
      return;
    P.PassSecs.push_back(now() - T0);
    P.Summaries.push_back(summarize(Progs, P.Outs));
  } while (now() < Deadline);
}

/// Counts a pipeline's compiles as operations; false if one failed.
bool recordOps(const Pipeline &P, Result &R) {
  for (uint64_t K = 0; K < P.Compiled; ++K)
    R.op(true);
  if (P.Error.empty())
    return true;
  R.op(false);
  return R.check(false, P.Error);
}

/// Input generation plus warm-up: the first compile of each program. The
/// first compiles of the large programs also grow the heap to its steady
/// size, which the timed passes should not pay again.
std::vector<PaperProgram> setUp(const Options &O, Result &R) {
  std::vector<PaperProgram> Progs;
  for (BenchAlgorithm Alg : AllAlgorithms)
    for (unsigned N : PaperSizes)
      Progs.push_back({Alg, N, makeBenchProgram(Alg, N)});
  Pipeline Warm;
  runPipeline(Progs, O.Seed, 0.0, Warm);
  R.check(Warm.Error.empty(), "warm-up: " + Warm.Error);
  return Progs;
}

struct CheckRun {
  BenchAlgorithm Alg;
  unsigned N;
  BenchProgram P;
  std::shared_ptr<const Circuit> C;
  BackendKind Kind;
  const char *Backend;
  unsigned Shots;
  std::string QasmHash; ///< The §8 pipeline's QASM for this program.
};

std::vector<CheckRun> checkRuns(const std::vector<PaperProgram> &Progs,
                                const std::vector<PaperOutput> &Outs,
                                Result &R) {
  std::vector<CheckRun> Checks;
  for (size_t I = 0; I < Progs.size(); ++I) {
    BenchAlgorithm A = Progs[I].Alg;
    if (A == BenchAlgorithm::BV || A == BenchAlgorithm::DJ ||
        A == BenchAlgorithm::Simon)
      Checks.push_back({A, Progs[I].N, Progs[I].P, Outs[I].Flat,
                        BackendKind::Stabilizer, "stab", CliffordShots,
                        Outs[I].QasmHash});
  }
  for (BenchAlgorithm A :
       {BenchAlgorithm::Grover, BenchAlgorithm::PeriodFinding}) {
    BenchProgram P = makeBenchProgram(A, SmallN);
    PaperOutput Out;
    std::string Error;
    if (R.check(compileOne(P, Out, Error),
                std::string("compile ") + algName(A) + "-5: " + Error))
      Checks.push_back({A, SmallN, P, Out.Flat, BackendKind::Statevector,
                        "sv", SmallShots, Out.QasmHash});
  }
  return Checks;
}

/// Runs every check circuit through the engine layers on \p Jobs workers
/// and compares each shot with its closed-form answer. Returns the number
/// of shots run.
uint64_t runChecks(const std::vector<CheckRun> &Checks, unsigned Jobs,
                   std::mt19937_64 &Rng, Result &R, SpanLog &Log,
                   LayerReport *L) {
  uint64_t Shots = 0;
  for (size_t I = 0; I < Checks.size(); ++I) {
    const CheckRun &C = Checks[I];
    EngineRun Run{algName(C.Alg), C.C.get(), C.Kind, C.Shots, Rng(), Jobs};
    double FirstShot = L ? probeEngineLayers(Run, Log, I) : 0.0;
    EngineResult E = runEngineLayers(Run, Log, I);
    R.op(E.Ok);
    if (!R.check(E.Ok, E.Error))
      continue;
    std::string Why;
    R.check(checkAnswers(C.Alg, C.N, alternatingSecret(C.N), E.Bits, Why),
            Why);
    Shots += E.Bits.size();
    if (L) {
      L->Stats.merge(E.Stats);
      L->FormattedShots += E.Bits.size();
      L->PerShotSecs[Run.Prog].push_back((E.BatchSecs - FirstShot) /
                                         double(C.Shots - 1));
    }
  }
  return Shots;
}

/// The check programs served by an in-process service: each compiled to
/// QASM under the §8.3 pipeline twice (a miss, then a hit), run on its
/// engine, and — for the two dense ones — run again as a one-point
/// bind-run. Every answer is checked.
void serviceLeg(const std::vector<CheckRun> &Checks, std::mt19937_64 &Rng,
                SpanLog &Log, Result &R, LayerReport &L) {
  ServiceOptions SO;
  SO.Workers = 1;
  AsdfService Svc(SO);
  uint64_t Id = 0;
  auto serve = [&](ServiceRequest Req) {
    Req.Id = ++Id;
    std::string Encoded;
    double Secs = 0.0;
    ServiceResponse Resp =
        serveByLayers(Svc, Req.toJson().write(), Req.Id, Log, Encoded, Secs);
    R.op(Resp.Ok);
    R.check(Resp.Ok, "service request " + std::to_string(Req.Id) + ": " +
                         Resp.Error.Message);
    L.HandleSecs.push_back(Secs);
    addClassLatency(L, Req, Resp, Secs);
    return Resp;
  };
  for (const CheckRun &C : Checks) {
    std::string Name = std::string(algName(C.Alg)) + "-" +
                       std::to_string(C.N);
    for (int Repeat = 0; Repeat < 2; ++Repeat) {
      ServiceResponse Resp =
          serve(compileRequest(C.P, "qasm", PaperPipeline));
      R.check(!Resp.Ok || hashHex(Resp.Artifact) == C.QasmHash,
              Name + ": served QASM differs from the §8 pipeline's");
    }
    std::string Why;
    ServiceResponse Run =
        serve(runRequest(C.P, C.Backend, C.Shots, Rng(), 1));
    if (Run.Ok)
      R.check(checkAnswers(C.Alg, C.N, alternatingSecret(C.N), Run.Results,
                           Why),
              Why);
    if (C.Kind != BackendKind::Statevector)
      continue;
    ServiceRequest Bind = runRequest(C.P, C.Backend, CliffordShots, Rng(), 1);
    Bind.TheKind = ServiceRequest::Kind::BindRun;
    Bind.Points = {{}};
    ServiceResponse Sweep = serve(Bind);
    if (Sweep.Ok && R.check(Sweep.PointResults.size() == 1,
                            Name + ": bind-run returned no point"))
      R.check(checkAnswers(C.Alg, C.N, alternatingSecret(C.N),
                           Sweep.PointResults[0], Why),
              Why);
  }
  addServiceCounters(L, Svc);
}

void untracedRun(const Options &O, Result &R) {
  EndToEnd E;
  std::vector<PaperProgram> Progs;
  for (unsigned K = 0; K < SetUpRepeats; ++K) {
    double T0 = K == 0 ? processStart() : now();
    Progs = setUp(O, R);
    E.SetupSecs.push_back(now() - T0);
  }

  Pipeline P;
  runPipeline(Progs, O.Seed, now() + O.Seconds, P);
  E.PeakRssMiB = peakRssMiB();
  if (!recordOps(P, R))
    return;
  std::vector<double> Rates;
  for (double Secs : P.PassSecs) {
    Rates.push_back(double(Progs.size()) / Secs);
    E.LatencySecs.push_back(Secs);
  }
  const PassSummary &First = P.Summaries[0];
  for (const PassSummary &S : P.Summaries)
    R.check(S == First, "a pass's counts, estimates or emitted text differ "
                        "from the first pass");
  std::printf("%zu pass(es) of %zu programs; output digest %s\n",
              P.PassSecs.size(), Progs.size(), First.Digest.c_str());

  std::mt19937_64 Rng = makeRng(O.Seed, 1);
  std::vector<CheckRun> Checks = checkRuns(Progs, P.Outs, R);
  SpanLog Off(false, 0);
  std::vector<double> ShotRates;
  for (double Start = now();
       ShotRates.size() < 3 || now() - Start < CheckSecs;) {
    double T0 = now();
    uint64_t Shots = runChecks(Checks, O.Nproc, Rng, R, Off, nullptr);
    ShotRates.push_back(double(Shots) / (now() - T0));
  }

  E.CompilesPerSec = E.RequestsPerSec = median(Rates);
  E.GateCount = First.Gates;
  E.TCount = First.TCount;
  E.FtRuntimeSecs = First.FtRuntime;
  E.FtPhysQubits = First.FtPhysQubits;
  E.ShotsPerSec = median(ShotRates);
  emitEndToEnd(E, R);
}

void tracedRun(const Options &O, Result &R) {
  std::vector<PaperProgram> Progs = setUp(O, R);
  std::mt19937_64 Rng = makeRng(O.Seed, 1);

  // The untraced replay: one pass through CompileSession.
  Pipeline Want;
  double T0 = now();
  bool Ok = runPass(Progs, Rng, Want.Outs, Want.Compiled, Want.Error);
  double Untraced = now() - T0;
  if (!recordOps(Want, R) || !Ok)
    return;

  // The same pass, layer by layer, with a span around every call.
  std::vector<size_t> Order(Progs.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Rng);
  SpanLog Log(true, 0);
  LayerReport L;
  std::vector<LayerCompile> Got(Progs.size());
  std::vector<Emitted> GotText(Progs.size());
  T0 = now();
  {
    Span Root(Log, "replay.compile", 0);
    for (size_t I : Order) {
      bool Ok = compileByLayers(Progs[I].P, paperPlan(), Log, I, Got[I]);
      R.op(Ok);
      if (R.check(Ok, Progs[I].name() + ": " + Got[I].Error))
        GotText[I] = emitAndEstimate(*Got[I].Flat, *Got[I].QCirc, Log, I);
    }
  }
  double Traced = now() - T0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    if (!Got[I].Flat)
      continue;
    addCompileSizes(L, Got[I]);
    const PaperOutput &W = Want.Outs[I];
    R.check(Got[I].Flat->str() == W.Flat->str(),
            Progs[I].name() +
                ": the layer-by-layer circuit differs from CompileSession's");
    R.check(hashHex(GotText[I].Qasm) == W.QasmHash &&
                hashHex(GotText[I].Qir) == W.QirHash &&
                GotText[I].Est.str() == W.Est.str(),
            Progs[I].name() + ": traced outputs differ from untraced ones");
  }

  std::vector<CheckRun> Checks = checkRuns(Progs, Want.Outs, R);
  {
    Span Root(Log, "replay.engines", 0);
    runChecks(Checks, O.Nproc, Rng, R, Log, &L);
  }
  {
    Span Root(Log, "replay.service", 0);
    serviceLeg(Checks, Rng, Log, R, L);
  }
  LayerTotals T = finishTrace(O, R, {&Log}, Untraced, Traced);
  emitLayerMetrics(T, L, R);
}

} // namespace

void runPaperEval(const Options &O, Result &R) {
  if (O.Trace)
    tracedRun(O, R);
  else
    untracedRun(O, R);
}

} // namespace perfbench
