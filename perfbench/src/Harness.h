//===- Harness.h - Shared machinery of the benchmark ----------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the command line, the result line,
/// quantiles over raw samples, benchmark-side spans, the closed-form answer
/// checks, and the layer-by-layer entry points the traced runs call.
///
/// Every layer is measured from outside, by timing a call into its
/// module's public API (parseProgram, a registry pass's run(),
/// lowerToQwertyIR, convertToQCircuit, flattenToCircuit, the emitters,
/// estimateResources, analyzeCircuit/selectWithReasons, fuseCircuit,
/// runBatch, formatShotBits, parseRequestLine, AsdfService::handle,
/// ServiceResponse::toJson). The program's own obs tracing stays off.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_PERFBENCH_HARNESS_H
#define ASDF_PERFBENCH_HARNESS_H

#include "BenchCommon.h"
#include "estimate/ResourceEstimator.h"
#include "service/Service.h"
#include "sim/Backend.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

//===--- Command line and result ------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory (relative to the working directory) for the unix socket and
  /// the exported trace.
  std::string Scratch = ".";
  unsigned Nproc = 1;
};

/// Steady-clock seconds.
double now();
/// now() at the top of main: set-up #1 is timed from here.
double processStart();
void markProcessStart();

/// Peak resident set size of this process so far, in MiB.
double peakRssMiB();

/// The deterministic generator every input is drawn from: stream \p Stream
/// of workload seed \p Seed.
std::mt19937_64 makeRng(uint64_t Seed, uint64_t Stream);

/// The machine and build stamp printed with every result.
std::string machineStamp(const Options &O);

/// The result line and the checks behind its `correct` field.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// A failing check marks the run incorrect and says why on stderr.
  bool check(bool Ok, const std::string &What);
  /// Counts one attempted operation; \p Ok false counts it as failed
  /// (errored or refused).
  void op(bool Ok);
  double okRatio() const;
  bool correct() const { return Correct; }
  /// Prints the human-readable metric table to stdout.
  void report() const;
  /// The one-line JSON object the benchmark ends with.
  std::string line() const;

private:
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
};

//===--- Raw-sample statistics --------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank quantile: the smallest sample with at least Q of the
/// samples at or below it.
double quantile(std::vector<double> V, double Q);
/// The 99th percentile when at least ten samples lie beyond it (n >= 1000);
/// otherwise the largest sample. \p IsP99 says which was reported.
double tailLatency(const std::vector<double> &V, bool &IsP99);
double geomean(const std::vector<double> &V);

//===--- Benchmark-side spans ---------------------------------------------===//

struct SpanRecord {
  const char *Name; ///< Interned (see intern()); stable for the process.
  uint64_t Id;      ///< The program or request the span works for.
  int Parent;       ///< Index in the same log; -1 for a root.
  double Start, End;
};

/// Returns a stable pointer to a copy of \p Name.
const char *intern(const std::string &Name);

/// One thread's spans, kept in memory until exit. A disabled log records
/// nothing, so the untraced replays run the very same code.
class SpanLog {
public:
  SpanLog(bool On, unsigned Thread) : On(On), Thread(Thread) {}
  bool on() const { return On; }
  unsigned thread() const { return Thread; }
  int open(const char *Name, uint64_t Id);
  void close(int Index);
  const std::vector<SpanRecord> &records() const { return Records; }

private:
  bool On;
  unsigned Thread;
  std::vector<SpanRecord> Records;
  std::vector<int> Stack;
};

/// RAII span around one call into a layer.
class Span {
public:
  Span(SpanLog &Log, const char *Name, uint64_t Id)
      : Log(Log), Index(Log.on() ? Log.open(Name, Id) : -1) {}
  ~Span() {
    if (Index >= 0)
      Log.close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog &Log;
  int Index;
};

/// Spans folded per layer. Roots are the replay legs ("replay.*"); every
/// other span is a layer call. A span's self time is its duration minus
/// its children's.
struct LayerTotals {
  std::map<std::string, double> Self;               ///< Seconds.
  std::map<std::string, std::vector<double>> Calls; ///< Durations, s.
  double Roots = 0.0;                               ///< Seconds.
  double selfOf(const std::string &Layer) const;
  /// Median duration of one call in seconds (0 when never called).
  double medianCall(const std::string &Layer) const;
  double coverage() const;
};
LayerTotals foldSpans(const std::vector<const SpanLog *> &Logs);

/// Writes the spans as a Chrome/Perfetto trace ("X" events).
bool writeTrace(const std::string &Path,
                const std::vector<const SpanLog *> &Logs);

/// The shared tail of the three traced runs: exports the spans, checks
/// that layer self times cover at least 90% of the replay legs, and
/// records coverage and the tracing overhead (traced replay wall time
/// against the same replay untraced). Returns the folded totals.
LayerTotals finishTrace(const Options &O, Result &R,
                        const std::vector<const SpanLog *> &Logs,
                        double UntracedSecs, double TracedSecs);

//===--- Programs and requests --------------------------------------------===//

extern const asdf::BenchAlgorithm AllAlgorithms[5];
/// "bv", "dj", "grover", "simon", "period".
const char *algName(asdf::BenchAlgorithm A);

/// The §8.3 plan compileAsdfBenchmark uses: default + transpile-o3, and
/// its `pipeline` spelling on the wire.
asdf::PipelinePlan paperPlan();
extern const char *const PaperPipeline;

/// The BV secret makeBenchProgram binds (1010...).
std::string alternatingSecret(unsigned N);
/// makeBenchProgram(BV, N) with \p Secret bound instead.
asdf::BenchProgram bvWithSecret(unsigned N, const std::string &Secret);

asdf::ServiceRequest compileRequest(const asdf::BenchProgram &P,
                                    const std::string &Emit,
                                    const std::string &Pipeline);
asdf::ServiceRequest runRequest(const asdf::BenchProgram &P,
                                const std::string &Backend, unsigned Shots,
                                uint64_t Seed, unsigned Jobs);

/// 128-bit content hash as 32 hex digits.
std::string hashHex(const std::string &Text);

//===--- Closed-form answers ----------------------------------------------===//

/// Checks every shot of one executed §8.1 circuit against its closed-form
/// answer (never against the compiler under test): BV returns \p Secret,
/// DJ's balanced oracle all ones, every Simon sample y has y.s = 0 for
/// s = 0...01, every period-finding phase is a multiple of 2^N/r with
/// r = 2^(N-1), and Grover's all-ones frequency lies within a 5-sigma
/// binomial bound of sin^2((2k+1) asin(2^(-N/2))), k = groverIterations(N).
bool checkAnswers(asdf::BenchAlgorithm Alg, unsigned N,
                  const std::string &Secret,
                  const std::vector<std::string> &Shots, std::string &Why);

//===--- Layer-by-layer entry points --------------------------------------===//

/// One program compiled layer by layer, mirroring CompileSession stage for
/// stage, with a span around every call.
struct LayerCompile {
  std::unique_ptr<asdf::Program> AST;
  std::unique_ptr<asdf::Module> QCirc;
  std::optional<asdf::Circuit> Flat; ///< After the plan's circuit passes.
  uint64_t QwertyOps = 0, QCircOps = 0, FlatInstrs = 0, FinalInstrs = 0;
  std::string Error;
};
bool compileByLayers(const asdf::BenchProgram &P,
                     const asdf::PipelinePlan &Plan, SpanLog &Log,
                     uint64_t Id, LayerCompile &Out);

/// The §8.3 harness tail: OpenQASM 3, QIR (Base Profile where the emitter
/// accepts the circuit, unrestricted from the QCircuit module otherwise)
/// and the surface-code resource estimate.
struct Emitted {
  std::string Qasm, Qir;
  asdf::ResourceEstimate Est;
};
Emitted emitAndEstimate(const asdf::Circuit &C, const asdf::Module &QCirc,
                        SpanLog &Log, uint64_t Id);

/// One circuit's run, as a run request asks for it. \p Prog names the
/// span group ("sim.<prog>.*").
struct EngineRun {
  std::string Prog;
  const asdf::Circuit *C = nullptr;
  asdf::BackendKind Kind = asdf::BackendKind::Auto;
  unsigned Shots = 1;
  uint64_t Seed = 0;
  unsigned Jobs = 1;
};
struct EngineResult {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Bits;
  asdf::SimStats Stats;
  double BatchSecs = 0.0;
};
/// The run path through the engine layers, as AsdfService::handle takes
/// it: select (analyzeCircuit + selectWithReasons), the S-shot runBatch
/// with SimCounters, and formatShotBits per shot.
EngineResult runEngineLayers(const EngineRun &R, SpanLog &Log, uint64_t Id);
/// The engine layers the run path calls only internally, timed on their
/// own: fuseCircuit, and a one-shot runBatch (fusion, the shared prefix
/// and one shot) counted into \p Stats when given. Returns the one-shot
/// seconds.
double probeEngineLayers(const EngineRun &R, SpanLog &Log, uint64_t Id,
                         asdf::SimStats *Stats = nullptr);

/// One request through the service layers: decode its wire line, handle
/// it in-process, encode the response into \p Encoded. \p HandleSecs is
/// the handle call's wall time.
asdf::ServiceResponse serveByLayers(asdf::AsdfService &Svc,
                                    const std::string &WireLine, uint64_t Id,
                                    SpanLog &Log, std::string &Encoded,
                                    double &HandleSecs);

//===--- Per-layer report -------------------------------------------------===//

/// What a traced run gathered beyond its spans. Every workload's traced
/// run fills all of it, so the per-layer metric set is the same on each.
struct LayerReport {
  uint64_t QwertyOps = 0, QCircOps = 0, FlatInstrs = 0, FinalInstrs = 0;
  asdf::SimStats Stats;
  uint64_t FormattedShots = 0;
  /// Per program group: (S-shot batch - one-shot run) / (S - 1), seconds.
  std::map<std::string, std::vector<double>> PerShotSecs;
  std::vector<double> HandleSecs;
  /// Per op class (compile_hit, compile_miss, run_sv, run_stab,
  /// bind-run): request latencies, seconds.
  std::map<std::string, std::vector<double>> ClassSecs;
  std::vector<double> CompileMissSecs; ///< CompileSecs reported on misses.
  double CacheHitRatio = 0.0;
  uint64_t Coalesced = 0;
};
void addCompileSizes(LayerReport &L, const LayerCompile &C);
/// Folds one service's cache and coalescing counters into \p L.
void addServiceCounters(LayerReport &L, asdf::AsdfService &Svc);
/// Records the op class of one answered request with its latency.
void addClassLatency(LayerReport &L, const asdf::ServiceRequest &Req,
                     const asdf::ServiceResponse &Resp, double Secs);
/// Prints every per-layer metric.
void emitLayerMetrics(const LayerTotals &T, const LayerReport &L,
                      Result &R);

//===--- End-to-end report ------------------------------------------------===//

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr unsigned SetUpRepeats = 3;

/// The end-to-end metrics, measured with tracing off. Every workload
/// reports all of them; perfbench/README.md defines each per workload.
struct EndToEnd {
  std::vector<double> SetupSecs;
  double CompilesPerSec = 0.0;
  /// Over the workload's own program set, as compiled.
  uint64_t GateCount = 0, TCount = 0;
  double FtRuntimeSecs = 0.0, FtPhysQubits = 0.0;
  double ShotsPerSec = 0.0, RequestsPerSec = 0.0;
  std::vector<double> LatencySecs; ///< Raw per-op samples.
  /// Taken when the timed window closes, before the reference checks.
  double PeakRssMiB = 0.0;
};
/// Fills the four resource metrics from the final circuits of a program
/// set: instruction and T-count sums, geometric means of the fault-
/// tolerant runtime and physical qubits.
void addResources(EndToEnd &E, const std::vector<const asdf::Circuit *> &Cs);
/// Each program compiled to its flat circuit through CompileSession with
/// the default plan, as the service compiles run requests; empty (with a
/// failed check) when one does not compile.
std::vector<asdf::Circuit>
compileFlats(const std::vector<asdf::BenchProgram> &Progs, Result &R);
void emitEndToEnd(const EndToEnd &E, Result &R);

//===--- Workloads --------------------------------------------------------===//

void runPaperEval(const Options &O, Result &R);
void runSimRun(const Options &O, Result &R);
void runDaemonMix(const Options &O, Result &R);

} // namespace perfbench

#endif // ASDF_PERFBENCH_HARNESS_H
