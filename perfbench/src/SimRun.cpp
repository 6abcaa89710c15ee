//===- SimRun.cpp - Workload sim_run: the engines, through the service ----===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run requests sent one at a time to an in-process AsdfService::handle,
/// with jobs = nproc. The three programs split the engines' time three
/// ways, so a per-shot fast path, a gate-kernel change and routing ideal
/// Clifford batches through the Pauli-frame sampler each move this
/// workload (paper_eval bypasses all three):
///
///   - period finding N=9 (18 qubits, all measured) on sv, 1000 shots —
///     bound by per-shot work;
///   - Grover N=11 (20 qubits) on sv, 8 shots — bound by the shared
///     prefix;
///   - Simon N=256 (512 qubits) on stab, 1000 shots — bound by the tableau.
///
/// Set-up compiles each program into the run-path cache with a zero-shot
/// run request, so the timed window measures the engines, not the
/// compiler. The seed draws every request's shot seed.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace asdf;

namespace perfbench {
namespace {

struct SimSpec {
  BenchAlgorithm Alg;
  unsigned N;
  const char *Backend;
  BackendKind Kind;
  unsigned Shots;
};
const SimSpec Specs[] = {
    {BenchAlgorithm::PeriodFinding, 9, "sv", BackendKind::Statevector, 1000},
    {BenchAlgorithm::Grover, 11, "sv", BackendKind::Statevector, 8},
    {BenchAlgorithm::Simon, 256, "stab", BackendKind::Stabilizer, 1000},
};
const size_t NumSpecs = std::size(Specs);

std::string specName(const SimSpec &S) {
  return std::string(algName(S.Alg)) + "-" + std::to_string(S.N);
}

struct SimSetup {
  std::vector<BenchProgram> Progs;
  std::unique_ptr<AsdfService> Svc;
  std::vector<double> CompileSecs; ///< As the service reported them.
};

/// Input generation, a service, and the warm-up: one zero-shot run request
/// per program compiles it into the run-path cache.
SimSetup setUp(const Options &O, Result &R) {
  SimSetup S;
  for (const SimSpec &Spec : Specs)
    S.Progs.push_back(makeBenchProgram(Spec.Alg, Spec.N));
  ServiceOptions SO;
  SO.Workers = 1; // handle() runs on the calling thread.
  S.Svc = std::make_unique<AsdfService>(SO);
  for (size_t I = 0; I < NumSpecs; ++I) {
    ServiceRequest Req =
        runRequest(S.Progs[I], Specs[I].Backend, 0, 0, O.Nproc);
    ServiceResponse Resp = S.Svc->handle(Req);
    R.check(Resp.Ok && !Resp.CacheHit,
            "warm-up of " + specName(Specs[I]) + ": " + Resp.Error.Message);
    S.CompileSecs.push_back(Resp.CompileSecs);
  }
  return S;
}

ServiceRequest passRequest(const SimSetup &S, size_t I, uint64_t Seed,
                           const Options &O) {
  ServiceRequest Req =
      runRequest(S.Progs[I], Specs[I].Backend, Specs[I].Shots, Seed, O.Nproc);
  Req.Id = I + 1;
  return Req;
}

/// Checks one run response; Grover's frequency bound needs every shot of
/// the run, so its shots are pooled in \p GroverShots and checked at the
/// end.
void checkResponse(size_t I, const ServiceResponse &Resp, Result &R,
                   std::vector<std::string> &GroverShots) {
  R.op(Resp.Ok);
  if (!R.check(Resp.Ok, specName(Specs[I]) + ": " + Resp.Error.Message))
    return;
  R.check(Resp.CacheHit, specName(Specs[I]) + " missed the warm cache");
  R.check(Resp.Results.size() == Specs[I].Shots,
          specName(Specs[I]) + ": wrong shot count");
  if (Specs[I].Alg == BenchAlgorithm::Grover) {
    GroverShots.insert(GroverShots.end(), Resp.Results.begin(),
                       Resp.Results.end());
    return;
  }
  std::string Why;
  R.check(checkAnswers(Specs[I].Alg, Specs[I].N, "", Resp.Results, Why), Why);
}

void checkGrover(const std::vector<std::string> &Shots, Result &R) {
  std::string Why;
  R.check(checkAnswers(BenchAlgorithm::Grover, Specs[1].N, "", Shots, Why),
          Why);
}

void untracedRun(const Options &O, Result &R) {
  EndToEnd E;
  SimSetup S;
  for (unsigned K = 0; K < SetUpRepeats; ++K) {
    S.Svc.reset();
    double T0 = K == 0 ? processStart() : now();
    S = setUp(O, R);
    E.SetupSecs.push_back(now() - T0);
  }
  // The circuits the service runs, compiled on the side for the resource
  // metrics.
  std::vector<Circuit> Flats = compileFlats(S.Progs, R);
  if (Flats.size() != NumSpecs)
    return;
  std::vector<const Circuit *> Ptrs;
  for (const Circuit &C : Flats)
    Ptrs.push_back(&C);
  addResources(E, Ptrs);

  std::mt19937_64 Rng = makeRng(O.Seed, 1);
  std::vector<double> ShotRates, RequestRates;
  std::vector<std::string> GroverShots;
  double WindowStart = now();
  for (unsigned Pass = 0; Pass < 2 || now() - WindowStart < O.Seconds;
       ++Pass) {
    uint64_t Shots = 0;
    double T0 = now();
    for (size_t I = 0; I < NumSpecs; ++I) {
      ServiceResponse Resp = S.Svc->handle(passRequest(S, I, Rng(), O));
      checkResponse(I, Resp, R, GroverShots);
      Shots += Resp.Results.size();
    }
    double Wall = now() - T0;
    E.LatencySecs.push_back(Wall);
    ShotRates.push_back(double(Shots) / Wall);
    RequestRates.push_back(double(NumSpecs) / Wall);
  }
  E.PeakRssMiB = peakRssMiB();
  checkGrover(GroverShots, R);
  std::printf("%zu pass(es) of %zu run requests\n", ShotRates.size(),
              NumSpecs);

  E.ShotsPerSec = median(ShotRates);
  // Each run request carries its program from source, through the compile
  // cache, to shots.
  E.CompilesPerSec = E.RequestsPerSec = median(RequestRates);
  emitEndToEnd(E, R);
}

void tracedRun(const Options &O, Result &R) {
  SimSetup S = setUp(O, R);
  std::vector<Circuit> Flats = compileFlats(S.Progs, R);
  if (Flats.size() != NumSpecs)
    return;
  std::mt19937_64 Rng = makeRng(O.Seed, 1);
  std::vector<ServiceRequest> Reqs;
  std::vector<std::string> Lines;
  for (size_t I = 0; I < NumSpecs; ++I) {
    Reqs.push_back(passRequest(S, I, Rng(), O));
    Lines.push_back(Reqs.back().toJson().write());
  }

  // The untraced replay: one pass through AsdfService::handle.
  LayerReport L;
  L.CompileMissSecs = S.CompileSecs;
  std::vector<ServiceResponse> Want;
  std::vector<std::string> GroverShots;
  double T0 = now();
  for (size_t I = 0; I < NumSpecs; ++I) {
    double T1 = now();
    Want.push_back(S.Svc->handle(Reqs[I]));
    double Secs = now() - T1;
    L.HandleSecs.push_back(Secs);
    addClassLatency(L, Reqs[I], Want.back(), Secs);
  }
  double Untraced = now() - T0;
  for (size_t I = 0; I < NumSpecs; ++I)
    checkResponse(I, Want[I], R, GroverShots);
  checkGrover(GroverShots, R);
  addServiceCounters(L, *S.Svc);

  // The same pass, layer by layer: decode, the engine run path, encode.
  SpanLog Log(true, 0);
  std::vector<EngineResult> Got(NumSpecs);
  T0 = now();
  {
    Span Root(Log, "replay.runs", 0);
    for (size_t I = 0; I < NumSpecs; ++I) {
      ServiceRequest Dec;
      uint64_t WireId = 0;
      std::string Error;
      bool Parsed;
      {
        Span D(Log, "service.decode", I);
        Parsed = parseRequestLine(Lines[I], Dec, WireId, Error);
      }
      if (!R.check(Parsed, "decode: " + Error))
        continue;
      EngineRun Run{algName(Specs[I].Alg), &Flats[I], Specs[I].Kind,
                    Dec.Shots, Dec.Seed, Dec.Jobs};
      Got[I] = runEngineLayers(Run, Log, I);
      ServiceResponse Resp;
      Resp.Id = Dec.Id;
      Resp.Ok = Got[I].Ok;
      Resp.Results = Got[I].Bits;
      for (const std::string &Bits : Resp.Results)
        ++Resp.Counts[Bits];
      std::string Encoded;
      {
        Span En(Log, "service.encode", I);
        Encoded = Resp.toJson().write();
      }
    }
  }
  double Traced = now() - T0;
  for (size_t I = 0; I < NumSpecs; ++I) {
    R.op(Got[I].Ok);
    R.check(Got[I].Ok && Got[I].Bits == Want[I].Results,
            specName(Specs[I]) +
                ": the layer-by-layer run differs from the service's");
    L.Stats.merge(Got[I].Stats);
    L.FormattedShots += Got[I].Bits.size();
  }

  // The compiler layers on the same programs, plus the §8.3 tail on their
  // circuits (off the run path, but measured on this workload's inputs).
  {
    Span Root(Log, "replay.compile", 0);
    for (size_t I = 0; I < NumSpecs; ++I) {
      LayerCompile LC;
      bool Ok = compileByLayers(S.Progs[I], presetPlan("default"), Log, I, LC);
      R.op(Ok);
      if (!R.check(Ok, specName(Specs[I]) + ": " + LC.Error))
        continue;
      R.check(LC.Flat->str() == Flats[I].str(),
              specName(Specs[I]) +
                  ": the layer-by-layer circuit differs from CompileSession's");
      addCompileSizes(L, LC);
      {
        Span T(Log, "baselines.transpile-o3", I);
        Circuit O3 = transpileO3(*LC.Flat);
      }
      emitAndEstimate(*LC.Flat, *LC.QCirc, Log, I);
    }
  }

  // The engine layers the run path calls only internally. A second
  // one-shot run under the same seed must count identical work. (Counts
  // follow the measurement outcomes, so they differ between seeds.)
  {
    Span Root(Log, "replay.engines", 0);
    for (size_t I = 0; I < NumSpecs; ++I) {
      EngineRun Run{algName(Specs[I].Alg), &Flats[I], Specs[I].Kind,
                    Reqs[I].Shots, Reqs[I].Seed, Reqs[I].Jobs};
      SimStats A, B;
      double FirstShot = probeEngineLayers(Run, Log, I, &A);
      probeEngineLayers(Run, Log, I, &B);
      R.check(A.GatesApplied == B.GatesApplied && A.FusedOps == B.FusedOps &&
                  A.FusedBlocks == B.FusedBlocks &&
                  A.AmplitudesTouched == B.AmplitudesTouched,
              specName(Specs[I]) + ": SimStats counts are not reproducible");
      L.PerShotSecs[Run.Prog].push_back((Got[I].BatchSecs - FirstShot) /
                                        double(Run.Shots - 1));
    }
  }

  // The service's compile and bind-run paths on the same programs: each
  // compiled to its circuit text twice (a miss, then a hit) — which must
  // equal the circuit the runs used — and Simon as a one-point bind-run.
  {
    Span Root(Log, "replay.service", 0);
    ServiceOptions SO;
    SO.Workers = 1;
    AsdfService Svc(SO);
    uint64_t Id = 100;
    for (size_t I = 0; I < NumSpecs; ++I) {
      std::vector<ServiceRequest> Probe(
          2, compileRequest(S.Progs[I], "circuit", "default"));
      if (Specs[I].Kind == BackendKind::Stabilizer) {
        ServiceRequest Bind =
            runRequest(S.Progs[I], Specs[I].Backend, 64, Rng(), 1);
        Bind.TheKind = ServiceRequest::Kind::BindRun;
        Bind.Points = {{}};
        Probe.push_back(Bind);
      }
      for (ServiceRequest &Req : Probe) {
        Req.Id = ++Id;
        std::string Encoded;
        double Secs = 0.0;
        ServiceResponse Resp = serveByLayers(Svc, Req.toJson().write(),
                                             Req.Id, Log, Encoded, Secs);
        R.op(Resp.Ok);
        if (!R.check(Resp.Ok, specName(Specs[I]) + ": " + Resp.Error.Message))
          continue;
        addClassLatency(L, Req, Resp, Secs);
        std::string Why;
        if (Req.TheKind == ServiceRequest::Kind::Compile)
          R.check(Resp.Artifact == Flats[I].str(),
                  specName(Specs[I]) + ": served circuit differs");
        else
          R.check(Resp.PointResults.size() == 1 &&
                      checkAnswers(Specs[I].Alg, Specs[I].N, "",
                                   Resp.PointResults[0], Why),
                  specName(Specs[I]) + " bind-run: " + Why);
      }
    }
  }
  LayerTotals T = finishTrace(O, R, {&Log}, Untraced, Traced);
  emitLayerMetrics(T, L, R);
}

} // namespace

void runSimRun(const Options &O, Result &R) {
  if (O.Trace)
    tracedRun(O, R);
  else
    untracedRun(O, R);
}

} // namespace perfbench
