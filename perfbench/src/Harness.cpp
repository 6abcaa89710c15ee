//===- Harness.cpp - Shared machinery of the benchmark --------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ast/AST.h"
#include "ast/Parser.h"
#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "compiler/CompileSession.h"
#include "compiler/PassRegistry.h"
#include "qcirc/Convert.h"
#include "qcirc/Flatten.h"
#include "qwerty/Lower.h"
#include "sim/CircuitAnalysis.h"
#include "sim/Fusion.h"
#include "sim/Simulator.h"
#include "support/BuildInfo.h"
#include "support/Hash.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

using namespace asdf;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Clock, machine, result
//===----------------------------------------------------------------------===//

namespace {
double StartSecs = 0.0;

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// The CPU brand string from CPUID (no file outside the checkout is read).
std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000u, nullptr);
  if (Max >= 0x80000004u) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

std::string formatNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void markProcessStart() { StartSecs = now(); }
double processStart() { return StartSecs; }

double peakRssMiB() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::mt19937_64 makeRng(uint64_t Seed, uint64_t Stream) {
  return std::mt19937_64(splitmix64(splitmix64(Seed) ^ Stream));
}

std::string machineStamp(const Options &O) {
  std::ostringstream OS;
  OS << "workload=" << O.Workload << " seed=" << O.Seed
     << " seconds=" << O.Seconds << " trace=" << (O.Trace ? 1 : 0)
     << " nproc=" << O.Nproc << " cpu=\"" << cpuModel() << "\" build=\""
     << buildFingerprint() << "\"";
  return OS.str();
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!check(std::isfinite(Value), "metric " + Name + " is not finite"))
    Value = 0.0;
  Metrics.push_back({Name, Unit, Value});
}

bool Result::check(bool Ok, const std::string &What) {
  if (!Ok) {
    Correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", What.c_str());
  }
  return Ok;
}

void Result::op(bool Ok) {
  ++Attempted;
  if (!Ok)
    ++Failed;
}

double Result::okRatio() const {
  return Attempted ? double(Attempted - Failed) / double(Attempted) : 0.0;
}

void Result::report() const {
  std::printf("%-32s %20s  %s\n", "metric", "value", "unit");
  for (const Metric &M : Metrics)
    std::printf("%-32s %20.6g  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("ops attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Correct ? "correct" : "INCORRECT");
}

std::string Result::line() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(Attempted, 1)
     << ", \"failed\": " << Failed << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name << "\": {\"value\": "
       << formatNumber(Metrics[I].Value) << ", \"unit\": \""
       << Metrics[I].Unit << "\"}";
  OS << "}}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double tailLatency(const std::vector<double> &V, bool &IsP99) {
  size_t N = V.size();
  size_t Rank = static_cast<size_t>(std::ceil(0.99 * double(N)));
  IsP99 = N > 0 && N - std::min(Rank, N) >= 10;
  if (IsP99)
    return quantile(V, 0.99);
  return V.empty() ? 0.0 : *std::max_element(V.begin(), V.end());
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

const char *intern(const std::string &Name) {
  static std::mutex M;
  static std::set<std::string> Names;
  std::lock_guard<std::mutex> Lock(M);
  return Names.insert(Name).first->c_str();
}

int SpanLog::open(const char *Name, uint64_t Id) {
  int Parent = Stack.empty() ? -1 : Stack.back();
  Records.push_back({Name, Id, Parent, now(), 0.0});
  Stack.push_back(static_cast<int>(Records.size() - 1));
  return Stack.back();
}

void SpanLog::close(int Index) {
  Records[Index].End = now();
  Stack.pop_back();
}

double LayerTotals::selfOf(const std::string &Layer) const {
  auto It = Self.find(Layer);
  return It == Self.end() ? 0.0 : It->second;
}

double LayerTotals::medianCall(const std::string &Layer) const {
  auto It = Calls.find(Layer);
  return It == Calls.end() ? 0.0 : median(It->second);
}

double LayerTotals::coverage() const {
  double Covered = 0.0;
  for (const auto &[Name, Secs] : Self)
    Covered += Secs;
  return Roots > 0.0 ? Covered / Roots : 0.0;
}

static bool isRoot(const char *Name) {
  return std::strncmp(Name, "replay.", 7) == 0;
}

LayerTotals foldSpans(const std::vector<const SpanLog *> &Logs) {
  LayerTotals T;
  for (const SpanLog *L : Logs) {
    const std::vector<SpanRecord> &Recs = L->records();
    std::vector<double> ChildSecs(Recs.size(), 0.0);
    for (const SpanRecord &S : Recs)
      if (S.Parent >= 0)
        ChildSecs[S.Parent] += S.End - S.Start;
    for (size_t I = 0; I < Recs.size(); ++I) {
      double Dur = Recs[I].End - Recs[I].Start;
      if (isRoot(Recs[I].Name)) {
        T.Roots += Dur;
        continue;
      }
      T.Self[Recs[I].Name] += Dur - ChildSecs[I];
      T.Calls[Recs[I].Name].push_back(Dur);
    }
  }
  return T;
}

bool writeTrace(const std::string &Path,
                const std::vector<const SpanLog *> &Logs) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [";
  bool First = true;
  char Buf[64];
  for (const SpanLog *L : Logs) {
    const std::vector<SpanRecord> &Recs = L->records();
    for (size_t I = 0; I < Recs.size(); ++I) {
      const SpanRecord &S = Recs[I];
      Out << (First ? "\n" : ",\n") << "{\"name\": \"" << S.Name
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << L->thread();
      std::snprintf(Buf, sizeof(Buf), ", \"ts\": %.3f",
                    1e6 * (S.Start - processStart()));
      Out << Buf;
      std::snprintf(Buf, sizeof(Buf), ", \"dur\": %.3f",
                    1e6 * (S.End - S.Start));
      Out << Buf << ", \"args\": {\"id\": " << S.Id
          << ", \"index\": " << I << ", \"parent\": " << S.Parent << "}}";
      First = false;
    }
  }
  Out << "\n]}\n";
  Out.flush();
  return static_cast<bool>(Out);
}

LayerTotals finishTrace(const Options &O, Result &R,
                        const std::vector<const SpanLog *> &Logs,
                        double UntracedSecs, double TracedSecs) {
  LayerTotals T = foldSpans(Logs);
  std::string Path = O.Scratch + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (writeTrace(Path, Logs))
    std::printf("spans written to %s\n", Path.c_str());
  else
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());

  std::vector<std::pair<double, std::string>> BySelf;
  for (const auto &[Name, Secs] : T.Self)
    BySelf.push_back({Secs, Name});
  std::sort(BySelf.rbegin(), BySelf.rend());
  std::printf("layer self time (replay legs: %.3f s)\n", T.Roots);
  for (const auto &[Secs, Name] : BySelf)
    std::printf("  %-30s %10.3f ms  %5.1f%%  %zu call(s)\n", Name.c_str(),
                1e3 * Secs, T.Roots > 0 ? 100.0 * Secs / T.Roots : 0.0,
                T.Calls[Name].size());
  double Coverage = T.coverage();
  std::printf("coverage %.1f%%; replay untraced %.3f s, traced %.3f s\n",
              100.0 * Coverage, UntracedSecs, TracedSecs);
  R.check(Coverage >= 0.90,
          "layer self times cover " + std::to_string(100.0 * Coverage) +
              "% of the traced replay (bar: 90%)");
  R.metric("trace.coverage_pct", 100.0 * Coverage, "%");
  R.metric("trace.overhead_pct",
           100.0 * (TracedSecs - UntracedSecs) / UntracedSecs, "%");
  return T;
}

//===----------------------------------------------------------------------===//
// Programs and requests
//===----------------------------------------------------------------------===//

const BenchAlgorithm AllAlgorithms[5] = {
    BenchAlgorithm::BV, BenchAlgorithm::DJ, BenchAlgorithm::Grover,
    BenchAlgorithm::Simon, BenchAlgorithm::PeriodFinding};

const char *algName(BenchAlgorithm A) {
  switch (A) {
  case BenchAlgorithm::BV:
    return "bv";
  case BenchAlgorithm::DJ:
    return "dj";
  case BenchAlgorithm::Grover:
    return "grover";
  case BenchAlgorithm::Simon:
    return "simon";
  case BenchAlgorithm::PeriodFinding:
    break;
  }
  return "period";
}

const char *const PaperPipeline = "circuit:transpile-o3";

PipelinePlan paperPlan() {
  PipelinePlan Plan = presetPlan("default");
  Plan.Circuit = {"transpile-o3"};
  return Plan;
}

std::string alternatingSecret(unsigned N) {
  std::string S;
  for (unsigned I = 0; I < N; ++I)
    S.push_back(I % 2 == 0 ? '1' : '0');
  return S;
}

BenchProgram bvWithSecret(unsigned N, const std::string &Secret) {
  BenchProgram P = makeBenchProgram(BenchAlgorithm::BV, N);
  P.Bindings.Captures["f"]["secret"] = CaptureValue::bitsFromString(Secret);
  return P;
}

ServiceRequest compileRequest(const BenchProgram &P, const std::string &Emit,
                              const std::string &Pipeline) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Compile;
  R.Source = P.Source;
  R.Entry = P.Entry;
  R.Bindings = P.Bindings;
  R.Emit = Emit;
  R.Pipeline = Pipeline;
  return R;
}

ServiceRequest runRequest(const BenchProgram &P, const std::string &Backend,
                          unsigned Shots, uint64_t Seed, unsigned Jobs) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Source = P.Source;
  R.Entry = P.Entry;
  R.Bindings = P.Bindings;
  R.Backend = Backend;
  R.Shots = Shots;
  R.Seed = Seed;
  R.Jobs = Jobs;
  return R;
}

std::string hashHex(const std::string &Text) {
  ContentHasher H;
  H.str(Text);
  std::array<uint64_t, 2> D = H.digest();
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(D[0]),
                static_cast<unsigned long long>(D[1]));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Closed-form answers
//===----------------------------------------------------------------------===//

bool checkAnswers(BenchAlgorithm Alg, unsigned N, const std::string &Secret,
                  const std::vector<std::string> &Shots, std::string &Why) {
  std::string Name = std::string(algName(Alg)) + "-" + std::to_string(N);
  if (Shots.empty()) {
    Why = Name + ": no shots";
    return false;
  }
  for (size_t I = 0; I < Shots.size(); ++I) {
    const std::string &Y = Shots[I];
    bool Ok = Y.size() == N;
    if (Ok) {
      switch (Alg) {
      case BenchAlgorithm::BV:
        Ok = Y == Secret;
        break;
      case BenchAlgorithm::DJ:
        Ok = Y == std::string(N, '1');
        break;
      case BenchAlgorithm::Simon:
        // s = 0...01, so y.s is y's last bit.
        Ok = Y.back() == '0';
        break;
      case BenchAlgorithm::PeriodFinding: {
        // The phase register read MSB-first; r = 2^(N-1) makes the
        // allowed phases the multiples of 2^N / r = 2.
        uint64_t Phase = 0;
        for (char C : Y)
          Phase = 2 * Phase + (C == '1');
        uint64_t Step = (uint64_t(1) << N) >> (N - 1);
        Ok = Phase % Step == 0;
        break;
      }
      case BenchAlgorithm::Grover:
        break; // A frequency check over all shots, below.
      }
    }
    if (!Ok) {
      Why = Name + ": shot " + std::to_string(I) + " read '" + Y + "'";
      return false;
    }
  }
  if (Alg == BenchAlgorithm::Grover) {
    size_t Hits = std::count(Shots.begin(), Shots.end(), std::string(N, '1'));
    double S = double(Shots.size());
    double K = groverIterations(N);
    double P = std::pow(
        std::sin((2 * K + 1) * std::asin(std::pow(2.0, -0.5 * N))), 2);
    double Freq = double(Hits) / S;
    double Bound = 5.0 * std::sqrt(P * (1 - P) / S) + 1.0 / S;
    if (std::fabs(Freq - P) > Bound) {
      Why = Name + ": all-ones frequency " + std::to_string(Freq) +
            " outside " + std::to_string(P) + " +- " + std::to_string(Bound);
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Layer-by-layer compile
//===----------------------------------------------------------------------===//

namespace {

/// The span (and metric) name of one registry pass: ast.*, transform.*,
/// qcirc.peephole / qcirc.decompose-mc, baselines.*, and ir.verify for the
/// verifier in any stage.
const char *layerFor(PipelineStage Stage, const std::string &Pass) {
  if (Pass == "verify")
    return "ir.verify";
  switch (Stage) {
  case PipelineStage::AST:
    return intern("ast." + Pass);
  case PipelineStage::Qwerty:
  case PipelineStage::QCirc:
    if (Pass == "peephole" || Pass == "decompose-mc")
      return intern("qcirc." + Pass);
    return intern("transform." + Pass);
  case PipelineStage::Circuit:
    break;
  }
  return intern("baselines." + Pass);
}

std::unique_ptr<Pass<Program>> createPass(PipelineStage S,
                                          const std::string &N, Program *) {
  return PassRegistry::instance().createProgramPass(S, N);
}
std::unique_ptr<Pass<Module>> createPass(PipelineStage S,
                                         const std::string &N, Module *) {
  return PassRegistry::instance().createModulePass(S, N);
}
std::unique_ptr<Pass<Circuit>> createPass(PipelineStage S,
                                          const std::string &N, Circuit *) {
  return PassRegistry::instance().createCircuitPass(S, N);
}

template <typename UnitT>
bool runStage(PipelineStage Stage, const std::vector<std::string> &Names,
              UnitT &U, PassContext &Ctx, SpanLog &Log, uint64_t Id,
              std::string &Error) {
  for (const std::string &Name : Names) {
    std::unique_ptr<Pass<UnitT>> P =
        createPass(Stage, Name, static_cast<UnitT *>(nullptr));
    bool Ok = P != nullptr;
    if (Ok) {
      Span S(Log, layerFor(Stage, Name), Id);
      Ok = P->run(U, Ctx);
    }
    if (!Ok) {
      Error = std::string(pipelineStageName(Stage)) + ":" + Name +
              " failed: " + Ctx.Diags.str();
      return false;
    }
  }
  return true;
}

} // namespace

bool compileByLayers(const BenchProgram &P, const PipelinePlan &Plan,
                     SpanLog &Log, uint64_t Id, LayerCompile &Out) {
  DiagnosticEngine Diags;
  PassContext Ctx(Diags);
  Ctx.Entry = P.Entry;
  Ctx.Bindings = &P.Bindings;
  auto fail = [&](const char *Where) {
    Out.Error = std::string(Where) + " failed: " + Diags.str();
    return false;
  };

  {
    Span S(Log, "ast.parse", Id);
    Out.AST = parseProgram(P.Source, Diags);
  }
  if (!Out.AST)
    return fail("ast:parse");
  if (!runStage(PipelineStage::AST, Plan.Ast, *Out.AST, Ctx, Log, Id,
                Out.Error))
    return false;

  std::unique_ptr<Module> QW;
  {
    Span S(Log, "qwerty.lower", Id);
    QW = lowerToQwertyIR(*Out.AST, Diags);
  }
  if (!QW)
    return fail("qwerty:lower");
  if (!runStage(PipelineStage::Qwerty, Plan.Qwerty, *QW, Ctx, Log, Id,
                Out.Error))
    return false;
  Out.QwertyOps = unitStats(*QW).Ops;

  bool Converted;
  {
    // CompileSession converts a deep clone, keeping the Qwerty IR
    // artifact; the clone is part of what conversion costs there.
    Span S(Log, "qcirc.convert", Id);
    Out.QCirc = cloneModule(*QW);
    Converted = convertToQCircuit(*Out.QCirc, *Out.AST, Diags);
  }
  if (!Converted)
    return fail("qcirc:convert");
  if (!runStage(PipelineStage::QCirc, Plan.QCirc, *Out.QCirc, Ctx, Log, Id,
                Out.Error))
    return false;
  Out.QCircOps = unitStats(*Out.QCirc).Ops;

  {
    Span S(Log, "qcirc.flatten", Id);
    Out.Flat = flattenToCircuit(*Out.QCirc, P.Entry, Diags);
  }
  if (!Out.Flat)
    return fail("circuit:flatten");
  Out.FlatInstrs = Out.Flat->Instrs.size();
  if (!runStage(PipelineStage::Circuit, Plan.Circuit, *Out.Flat, Ctx, Log, Id,
                Out.Error))
    return false;
  Out.FinalInstrs = Out.Flat->Instrs.size();
  return true;
}

Emitted emitAndEstimate(const Circuit &C, const Module &QCirc, SpanLog &Log,
                        uint64_t Id) {
  Emitted E;
  {
    Span S(Log, "codegen.qasm", Id);
    E.Qasm = emitOpenQasm3(C);
  }
  {
    Span S(Log, "codegen.qir", Id);
    std::optional<std::string> Base = emitQirBaseProfile(C);
    E.Qir = Base ? std::move(*Base) : emitQirUnrestricted(QCirc);
  }
  {
    Span S(Log, "estimate.resources", Id);
    E.Est = estimateResources(C);
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Engine and service layers
//===----------------------------------------------------------------------===//

EngineResult runEngineLayers(const EngineRun &R, SpanLog &Log, uint64_t Id) {
  EngineResult Out;
  const std::string Group = "sim." + R.Prog + ".";
  RunOptions Opts;
  Opts.Jobs = R.Jobs;
  Opts.SimCounters = &Out.Stats;
  BackendSelection Sel;
  {
    Span S(Log, intern(Group + "select"), Id);
    CircuitProfile Profile = analyzeCircuit(*R.C);
    Sel = BackendRegistry::instance().selectWithReasons(*R.C, R.Kind, Opts,
                                                        &Profile);
  }
  if (!Sel.Supported) {
    Out.Error = std::string("backend '") + Sel.Chosen->name() +
                "' cannot run " + R.Prog + ": " + Sel.rejectionSummary();
    return Out;
  }
  std::vector<ShotResult> Batch;
  double T0 = now();
  {
    Span S(Log, intern(Group + "batch"), Id);
    Batch = Sel.Chosen->runBatch(*R.C, R.Shots, R.Seed, Opts);
  }
  Out.BatchSecs = now() - T0;
  {
    Span S(Log, "sim.format", Id);
    Out.Bits.reserve(Batch.size());
    for (const ShotResult &Shot : Batch)
      Out.Bits.push_back(formatShotBits(*R.C, Shot));
  }
  Out.Ok = true;
  return Out;
}

double probeEngineLayers(const EngineRun &R, SpanLog &Log, uint64_t Id,
                         SimStats *Stats) {
  const std::string Group = "sim." + R.Prog + ".";
  RunOptions Opts;
  Opts.Jobs = R.Jobs;
  Opts.SimCounters = Stats;
  SimBackend &B = BackendRegistry::instance().select(*R.C, R.Kind);
  {
    Span S(Log, intern(Group + "fuse"), Id);
    FusedCircuit F = fuseCircuit(*R.C);
  }
  double T0 = now();
  {
    Span S(Log, intern(Group + "first_shot"), Id);
    B.runBatch(*R.C, 1, R.Seed, Opts);
  }
  return now() - T0;
}

ServiceResponse serveByLayers(AsdfService &Svc, const std::string &WireLine,
                              uint64_t Id, SpanLog &Log, std::string &Encoded,
                              double &HandleSecs) {
  ServiceRequest Req;
  uint64_t WireId = 0;
  std::string Error;
  bool Parsed;
  {
    Span S(Log, "service.decode", Id);
    Parsed = parseRequestLine(WireLine, Req, WireId, Error);
  }
  ServiceResponse Resp =
      ServiceResponse::failure(WireId, "bad-request", Error);
  HandleSecs = 0.0;
  if (Parsed) {
    double T0 = now();
    Span S(Log, "service.handle", Id);
    Resp = Svc.handle(Req);
    HandleSecs = now() - T0;
  }
  {
    Span S(Log, "service.encode", Id);
    Encoded = Resp.toJson().write();
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// Per-layer report
//===----------------------------------------------------------------------===//

void addCompileSizes(LayerReport &L, const LayerCompile &C) {
  L.QwertyOps += C.QwertyOps;
  L.QCircOps += C.QCircOps;
  L.FlatInstrs += C.FlatInstrs;
  L.FinalInstrs += C.FinalInstrs;
}

void addServiceCounters(LayerReport &L, AsdfService &Svc) {
  CacheStats CS = Svc.cache().stats();
  if (CS.Hits + CS.Misses)
    L.CacheHitRatio = double(CS.Hits) / double(CS.Hits + CS.Misses);
  json::Value Stats = Svc.statsJson();
  if (const json::Value *Req = Stats.get("requests"))
    if (const json::Value *C = Req->get("coalesced"))
      L.Coalesced += C->asU64();
}

void addClassLatency(LayerReport &L, const ServiceRequest &Req,
                     const ServiceResponse &Resp, double Secs) {
  const char *Class = nullptr;
  switch (Req.TheKind) {
  case ServiceRequest::Kind::Compile:
    Class = Resp.CacheHit ? "compile_hit" : "compile_miss";
    if (!Resp.CacheHit && Resp.Ok)
      L.CompileMissSecs.push_back(Resp.CompileSecs);
    break;
  case ServiceRequest::Kind::Run:
    Class = Req.Backend == "stab" ? "run_stab" : "run_sv";
    break;
  case ServiceRequest::Kind::BindRun:
    Class = "bind-run";
    break;
  default:
    return;
  }
  L.ClassSecs[Class].push_back(Secs);
}

void emitLayerMetrics(const LayerTotals &T, const LayerReport &L,
                      Result &R) {
  static const char *const CompilerLayers[] = {
      "ast.parse",              "ast.expand",
      "ast.typecheck",          "ast.canonicalize",
      "qwerty.lower",           "transform.lift-lambdas",
      "transform.inline",       "transform.dce",
      "transform.canonicalize", "ir.verify",
      "qcirc.convert",          "qcirc.peephole",
      "qcirc.decompose-mc",     "qcirc.flatten",
      "baselines.transpile-o3", "codegen.qasm",
      "codegen.qir",            "estimate.resources"};
  for (const char *Layer : CompilerLayers)
    R.metric(std::string(Layer) + "_ms", 1e3 * T.selfOf(Layer), "ms");
  R.metric("ir.qwerty_ops", double(L.QwertyOps), "count");
  R.metric("ir.qcirc_ops", double(L.QCircOps), "count");
  R.metric("ir.flat_instrs", double(L.FlatInstrs), "count");
  R.metric("ir.final_instrs", double(L.FinalInstrs), "count");

  auto meanCall = [&](const std::string &Layer) {
    auto It = T.Calls.find(Layer);
    return It == T.Calls.end() || It->second.empty()
               ? 0.0
               : T.selfOf(Layer) / double(It->second.size());
  };
  for (const char *Prog : {"period", "grover", "simon"}) {
    std::string G = std::string("sim.") + Prog + ".";
    R.metric(G + "select_ms", 1e3 * meanCall(G + "select"), "ms");
    R.metric(G + "fuse_ms", 1e3 * meanCall(G + "fuse"), "ms");
    R.metric(G + "first_shot_ms", 1e3 * meanCall(G + "first_shot"), "ms");
    double PerShot = 0.0;
    auto It = L.PerShotSecs.find(Prog);
    if (It != L.PerShotSecs.end())
      for (double S : It->second)
        PerShot += S / double(It->second.size());
    R.metric(G + "per_shot_us", 1e6 * PerShot, "us");
  }
  R.metric("sim.format_us",
           L.FormattedShots
               ? 1e6 * T.selfOf("sim.format") / double(L.FormattedShots)
               : 0.0,
           "us");
  R.metric("sim.gates_applied", double(L.Stats.GatesApplied), "count");
  R.metric("sim.fused_ops", double(L.Stats.FusedOps), "count");
  R.metric("sim.fused_blocks", double(L.Stats.FusedBlocks), "count");
  R.metric("sim.amplitudes_touched", double(L.Stats.AmplitudesTouched),
           "count");

  R.metric("service.decode_us", 1e6 * T.medianCall("service.decode"), "us");
  R.metric("service.encode_us", 1e6 * T.medianCall("service.encode"), "us");
  bool IsP99 = false;
  double Tail = tailLatency(L.HandleSecs, IsP99);
  R.metric("service.handle_p50_ms", 1e3 * median(L.HandleSecs), "ms");
  R.metric("service.handle_p99_ms", 1e3 * Tail, "ms");
  std::printf("service.handle: %zu sample(s); tail reported as %s\n",
              L.HandleSecs.size(), IsP99 ? "p99" : "the maximum (n < 1000)");
  R.metric("service.cache_hit_ratio", L.CacheHitRatio, "ratio");
  R.metric("service.coalesced", double(L.Coalesced), "count");
  R.metric("service.compile_miss_ms", 1e3 * median(L.CompileMissSecs), "ms");
  for (const char *Class :
       {"compile_hit", "compile_miss", "run_sv", "run_stab", "bind-run"}) {
    auto It = L.ClassSecs.find(Class);
    R.metric(std::string("service.") + Class + "_p50_ms",
             It == L.ClassSecs.end() ? 0.0 : 1e3 * median(It->second), "ms");
  }
  R.metric("error_ratio", 1.0 - R.okRatio(), "ratio");
}

//===----------------------------------------------------------------------===//
// End-to-end report
//===----------------------------------------------------------------------===//

void addResources(EndToEnd &E, const std::vector<const Circuit *> &Cs) {
  std::vector<double> Runtime, Phys;
  for (const Circuit *C : Cs) {
    ResourceEstimate Est = estimateResources(*C);
    E.GateCount += C->Instrs.size();
    E.TCount += Est.TCount;
    Runtime.push_back(Est.RuntimeSeconds);
    Phys.push_back(double(Est.PhysicalQubits));
  }
  E.FtRuntimeSecs = geomean(Runtime);
  E.FtPhysQubits = geomean(Phys);
}

std::vector<Circuit> compileFlats(const std::vector<BenchProgram> &Progs,
                                  Result &R) {
  std::vector<Circuit> Flats;
  for (const BenchProgram &P : Progs) {
    SessionOptions SO;
    SO.Entry = P.Entry;
    CompileSession S(P.Source, P.Bindings, SO);
    Circuit *C = S.flatCircuit();
    if (!R.check(C != nullptr, "compile: " + S.errorMessage()))
      return {};
    Flats.push_back(std::move(*C));
  }
  return Flats;
}

void emitEndToEnd(const EndToEnd &E, Result &R) {
  bool IsP99 = false;
  double Tail = tailLatency(E.LatencySecs, IsP99);
  std::printf("latency: %zu sample(s); tail reported as %s\n",
              E.LatencySecs.size(),
              IsP99 ? "p99" : "the maximum (n < 1000)");
  R.metric("setup_s", median(E.SetupSecs), "s");
  R.metric("compiles_per_s", E.CompilesPerSec, "1/s");
  R.metric("gate_count", double(E.GateCount), "count");
  R.metric("t_count", double(E.TCount), "count");
  // A modelled runtime, identical on every run: not a measured time.
  R.metric("ft_runtime_s", E.FtRuntimeSecs, "est-s");
  R.metric("ft_phys_qubits", E.FtPhysQubits, "count");
  R.metric("shots_per_s", E.ShotsPerSec, "1/s");
  R.metric("requests_per_s", E.RequestsPerSec, "1/s");
  R.metric("latency_p50_ms", 1e3 * median(E.LatencySecs), "ms");
  R.metric("latency_p99_ms", 1e3 * Tail, "ms");
  R.metric("ok_ratio", R.okRatio(), "ratio");
  R.metric("peak_rss_mb", E.PeakRssMiB, "MiB");
}

} // namespace perfbench
