//===- Request.h - The shared request/job abstraction ---------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One `ServiceRequest` describes one unit of work — a compilation, a
/// simulation run, a parameter sweep, a stats query, or a shutdown — and
/// one `ServiceResponse` its outcome. asdf-cli builds one from its argv,
/// asdfd parses one per NDJSON line, and the benches and tests synthesize
/// them in-process. asdfc builds none: "daemon-served results are
/// bit-identical to asdfc" holds because a run or bind-run request and
/// `asdfc --emit run` end in the same function, `runCircuit`
/// (sim/Simulator.h), which refuses unbound parameters, selects the
/// engine, runs the shots and renders the bits.
///
/// The JSON encoding (docs/protocol.md) is the wire format of asdfd;
/// parse/serialize round-trips exactly, including 64-bit seeds.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SERVICE_REQUEST_H
#define ASDF_SERVICE_REQUEST_H

#include "ast/Expand.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asdf {

/// The longest timeout the wire and asdf-cli accept, in seconds (about 11.6
/// days): a deadline `now + timeout` stays inside steady_clock's range, and
/// a client's poll wait in milliseconds inside an int.
inline constexpr double MaxTimeoutSecs = 1e6;

/// One unit of service work.
struct ServiceRequest {
  enum class Kind { Compile, Run, BindRun, Stats, Shutdown, Metrics };

  Kind TheKind = Kind::Compile;
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t Id = 0;
  /// Optional 64-bit trace id ("trace" on the wire; 0 = none). When the
  /// daemon runs with tracing enabled, every span this request produces —
  /// wire decode, queue wait, cache probe, compiler passes, fusion,
  /// simulator workers — carries this id, so one client-chosen value
  /// correlates the whole request in the exported Chrome trace.
  uint64_t Trace = 0;

  //===--- Compile and Run fields ---===//

  /// Qwerty source text.
  std::string Source;
  /// Entry kernel name.
  std::string Entry = "kernel";
  /// Pipeline preset name or "stage:pass,..." spec (PassRegistry.h).
  std::string Pipeline = "default";
  /// Dimension-variable and capture bindings.
  ProgramBindings Bindings;
  /// Compile only: which artifact to return — qasm, qir, qir-base,
  /// qwerty-ir, or circuit.
  std::string Emit = "qasm";

  //===--- Run fields ---===//

  unsigned Shots = 1;
  /// Per-request base RNG seed: shot S of this request runs with
  /// deriveShotSeed(Seed, S) exactly as `asdfc --seed` does, so the same
  /// request produces the same bits whether served by the daemon (any
  /// worker count, any interleaving with other requests) or by asdfc.
  uint64_t Seed = 0;
  /// Backend name for BackendRegistry: auto, sv, stab, or mps.
  std::string Backend = "auto";
  /// Worker threads for this run's simulation (RunOptions::Jobs; 0 = one
  /// per hardware core). Results are identical for any value.
  unsigned Jobs = 1;

  //===--- BindRun fields ---===//

  /// Names of the program's $-parameters the sweep varies, defining the
  /// value order within each point ("params" on the wire). Parameters the
  /// service lifts from literal rotation angles are bound internally and
  /// must not appear here.
  std::vector<std::string> SweepParams;
  /// The sweep points ("points"): one value list per point, each in
  /// SweepParams order. Point P runs Shots shots with the sweep-derived
  /// seed for P, so results are bit-identical to running each bound
  /// circuit as its own run request with that seed.
  std::vector<std::vector<double>> Points;

  //===--- Scheduling ---===//

  /// Per-request timeout in seconds, in [0, MaxTimeoutSecs]; 0 means
  /// none. Enforced cooperatively: a request whose deadline has passed
  /// when a worker picks it up (or between its compile and run halves)
  /// fails with a "timeout" error. An in-flight compiler pass is not
  /// preempted.
  double TimeoutSecs = 0.0;

  //===--- Testing ---===//

  /// Test-only fault-arming spec ("fault" on the wire; FaultInject.h
  /// grammar). Accepted only by ASDF_FAULT_INJECTION builds — production
  /// daemons reject the field — and applied before the request runs.
  std::string Fault;

  /// Serializes to the wire object ({"id": ..., "op": ...}).
  json::Value toJson() const;

  /// Parses a wire object. Returns false and fills \p Error on malformed
  /// or unknown fields/ops; unknown keys are rejected so typos fail loudly
  /// instead of silently running defaults.
  static bool fromJson(const json::Value &V, ServiceRequest &Out,
                       std::string &Error);
};

/// Machine-readable error classification of a failed request.
struct ServiceError {
  /// One of: bad-request, compile-error, unsupported, timeout,
  /// shutting-down, overloaded, resource-exhausted, internal — plus the
  /// client-side-only connection-lost (never sent by the daemon; the
  /// client synthesizes it when the transport dies mid-call).
  std::string Kind;
  /// Human-readable detail; for compile-error this is the CompileSession
  /// message naming the failing stage:pass and entry.
  std::string Message;
  /// Server backoff hint in milliseconds ("retry_after_ms" on the wire;
  /// 0 = no hint). Set on overloaded/resource-exhausted: retrying sooner
  /// than this is unlikely to be admitted.
  uint64_t RetryAfterMs = 0;
};

/// The outcome of one request.
struct ServiceResponse {
  uint64_t Id = 0;
  bool Ok = false;
  ServiceError Error; ///< Valid when !Ok.

  //===--- Compile (and Run: the compile half) ---===//

  /// Compile only: the rendered artifact text.
  std::string Artifact;
  /// Whether the artifact/circuit came from the cache.
  bool CacheHit = false;
  /// Hex cache key of the request (compile and run).
  std::string Key;
  /// Seconds spent compiling (0 on a hit).
  double CompileSecs = 0.0;

  //===--- Run ---===//

  /// Per-shot output bit strings in shot order — exactly the stdout lines
  /// of `asdfc --emit run` on the same request.
  std::vector<std::string> Results;
  /// Aggregated outcome frequencies (sorted by bit string).
  std::map<std::string, unsigned> Counts;

  //===--- BindRun ---===//

  /// Per-point per-shot bit strings ("point_results"): PointResults[P][S]
  /// is shot S of sweep point P.
  std::vector<std::vector<std::string>> PointResults;

  //===--- Stats ---===//

  /// Stats payload, pre-encoded (Service.cpp fills it).
  json::Value StatsBody;

  //===--- Metrics ---===//

  /// Prometheus text exposition ("metrics" on the wire).
  std::string MetricsText;

  json::Value toJson() const;
  static bool fromJson(const json::Value &V, ServiceResponse &Out,
                       std::string &Error);

  static ServiceResponse failure(uint64_t Id, std::string Kind,
                                 std::string Message,
                                 uint64_t RetryAfterMs = 0);
};

/// Parses one NDJSON request line (text -> JSON -> struct). On failure the
/// caller should answer with a bad-request error echoing the id when one
/// could be recovered (\p IdOut is filled best-effort).
bool parseRequestLine(const std::string &Line, ServiceRequest &Out,
                      uint64_t &IdOut, std::string &Error);

/// The wire name of \p K ("compile", "run", "bind-run", ...): the span
/// and metric label for per-op instrumentation.
const char *requestKindName(ServiceRequest::Kind K);

} // namespace asdf

#endif // ASDF_SERVICE_REQUEST_H
