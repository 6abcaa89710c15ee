//===- Service.h - The compile-and-run service engine ---------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `AsdfService` is asdfd with the sockets stripped away: an artifact
/// cache, a worker pool, and a request handler mapping `ServiceRequest` ->
/// `ServiceResponse`. The daemon feeds it NDJSON lines; the throughput
/// bench and the concurrency tests drive `handle`/`submit` in-process
/// against the very same code path, which is how "daemon-served results
/// are bit-identical to asdfc" is tested without flaky socket plumbing.
///
/// Request handling is synchronous-per-request (`handle`, safe from any
/// number of threads) with an async wrapper (`submit`) that runs the
/// handler on the JobQueue and invokes a completion callback. Compile
/// requests are served from the ArtifactCache when the content hash
/// matches. Run and bind-run requests share one handler that caches the
/// compiled flat circuit under the same key scheme and then executes it
/// through `runCircuit` (sim/Simulator.h), the function `asdfc --emit run`
/// calls, so the same request and seed give asdfc's bits on any worker
/// count; bind-run adds only its prelude (points, params, lifted angles).
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SERVICE_SERVICE_H
#define ASDF_SERVICE_SERVICE_H

#include "obs/Metrics.h"
#include "service/ArtifactCache.h"
#include "service/JobQueue.h"
#include "service/Request.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace asdf {

class DiskCache;

struct ServiceOptions {
  /// Worker threads executing requests (JobQueue; 0 = one per core).
  unsigned Workers = 0;
  /// Artifact-cache byte budget.
  size_t CacheBytes = ArtifactCache::DefaultByteBudget;
  /// Directory of the crash-safe on-disk cache tier; empty = memory-only.
  std::string DiskCacheDir;
  /// Disk-tier byte budget (used only with DiskCacheDir).
  size_t DiskCacheBytes = 0; ///< 0 = DiskCache::DefaultByteBudget.
  /// Submitted requests allowed to wait for a worker before new ones are
  /// shed with an `overloaded` error (0 = unbounded, the old behavior).
  size_t MaxQueueDepth = 0;
  /// Admission budget for dense statevector run memory across in-flight
  /// requests (0 = unlimited). A run whose 16·2^n state would exceed it
  /// is refused with `resource-exhausted` instead of thrashing the box.
  size_t RunMemoryBytes = 0;
};

class AsdfService {
public:
  explicit AsdfService(ServiceOptions Options = ServiceOptions());
  ~AsdfService();

  /// Executes one request to completion on the calling thread. Thread-safe
  /// and non-blocking with respect to other requests (compilation runs
  /// outside the cache lock). The deadline, if any, is derived from
  /// R.TimeoutSecs at entry.
  ServiceResponse handle(const ServiceRequest &R);

  /// As above with an explicit deadline (already-expired deadlines fail
  /// with a "timeout" error before any work). Epoch means none.
  ServiceResponse
  handle(const ServiceRequest &R,
         std::chrono::steady_clock::time_point Deadline);

  /// Enqueues \p R on the worker pool; \p Done fires exactly once, on a
  /// worker thread, with the response. Returns Draining or Overloaded
  /// (without calling \p Done) when the request is refused; the server
  /// maps those to shutting-down / overloaded errors. \p Client keys the
  /// queue's round-robin fairness (the server passes the connection fd).
  /// The request's timeout starts now — time spent queued counts
  /// against it.
  JobQueue::Submit submit(ServiceRequest R,
                          std::function<void(ServiceResponse)> Done,
                          uint64_t Client = 0);

  /// The error response for a submit() that returned Overloaded: kind
  /// `overloaded` with a retry_after_ms hint scaled to the backlog.
  ServiceResponse overloadedResponse(uint64_t Id) const;

  /// An error answer the server sends without running a handler (a line
  /// that does not decode, a request refused while draining), counted in
  /// requests.errors like every handler failure.
  ServiceResponse refuse(uint64_t Id, std::string Kind, std::string Message);

  /// The backoff hint attached to overloaded/resource-exhausted errors:
  /// roughly how long the current backlog needs to clear one queue slot,
  /// clamped to [25 ms, 2 s].
  uint64_t retryAfterMsHint() const;

  /// True once a shutdown request has been handled (or drain() called);
  /// the server layer polls this to stop accepting.
  bool shuttingDown() const { return ShuttingDown.load(); }

  /// Stops admission and completes all in-flight/queued requests.
  void drain();

  ArtifactCache &cache() { return Cache; }
  /// The disk tier, or null when running memory-only (not configured, or
  /// the directory failed to open — see diskCacheError()).
  DiskCache *diskCache() { return Disk.get(); }
  /// Non-empty when DiskCacheDir was configured but could not be opened;
  /// the service degrades to memory-only and asdfd refuses to start.
  const std::string &diskCacheError() const { return DiskError; }
  JobQueue &queue() { return Queue; }
  unsigned workers() const { return Queue.workers(); }

  /// The payload of the "stats" op: the JSON exposition of the service's
  /// metric catalog (request, cache, queue and disk series, per-op
  /// latency histograms, uptime) plus the version, fingerprint and disk
  /// directory strings, which no series carries.
  json::Value statsJson() const;

  /// Prometheus text exposition of the same catalog — the `metrics` op
  /// payload and asdfd --metrics-dump body.
  std::string metricsText() const { return Reg.renderPrometheus(); }

private:
  ServiceResponse handleCompile(
      const ServiceRequest &R,
      std::chrono::steady_clock::time_point Deadline);
  /// Serves run and bind-run requests.
  ServiceResponse handleRun(const ServiceRequest &R,
                            std::chrono::steady_clock::time_point Deadline);
  ServiceResponse handleStats(const ServiceRequest &R);
  ServiceResponse handleShutdown(const ServiceRequest &R);
  ServiceResponse handleMetrics(const ServiceRequest &R);

  /// Memory-budget admission for a dense statevector run: reserves the
  /// 16·2^NumQubits state bytes against RunMemoryBytes. True (with
  /// \p Reserved to release after the run) when admitted — including
  /// trivially, with Reserved 0, when no budget is configured. False with
  /// \p Failure filled (resource-exhausted) when refused.
  bool admitRunMemory(const ServiceRequest &R, unsigned NumQubits,
                      size_t &Reserved, ServiceResponse &Failure);
  void releaseRunMemory(size_t Bytes);

  /// One in-flight compilation other requests with the same key wait on
  /// instead of compiling the same thing concurrently (single-flight).
  struct Flight {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    std::shared_ptr<const CachedArtifact> Art; ///< Null when the compile
                                               ///< failed.
    ServiceResponse Failure;                   ///< Valid when Art is null.
  };

  /// Cache lookup with single-flight miss coalescing: on a miss, exactly
  /// one caller per key runs \p Compute (which compiles, fills
  /// \p CompileSecs, and on failure fills \p Failure and returns null);
  /// concurrent callers with the same key block until it finishes and
  /// share its artifact (reported as a hit — they did not compile) or its
  /// failure (the caller must overwrite Failure's response id with its
  /// own). The artifact is inserted into the cache before waiters wake.
  std::shared_ptr<const CachedArtifact> coalesceCompile(
      const CacheKey &Key, bool &WasHit, double &CompileSecs,
      ServiceResponse &Failure,
      const std::function<std::shared_ptr<const CachedArtifact>(
          ServiceResponse &, double &)> &Compute);

  /// Returns the compiled flat circuit for \p R, from cache or by
  /// compiling now (single-flight); null with \p Failure filled on
  /// compile errors.
  std::shared_ptr<const Circuit>
  flatCircuitFor(const ServiceRequest &R, const PipelinePlan &Plan,
                 bool &WasHit, std::string &KeyHex, double &CompileSecs,
                 ServiceResponse &Failure);

  static bool expired(std::chrono::steady_clock::time_point Deadline) {
    return Deadline != std::chrono::steady_clock::time_point() &&
           std::chrono::steady_clock::now() >= Deadline;
  }

  /// Declared before Cache: the cache holds a raw pointer to the disk
  /// tier, so the tier must outlive it.
  std::unique_ptr<DiskCache> Disk;
  std::string DiskError;
  ArtifactCache Cache;
  JobQueue Queue;
  /// Memory-admission state (0 budget = unlimited).
  size_t RunMemoryBudget = 0;
  std::atomic<size_t> RunMemoryInFlight{0};
  std::atomic<bool> ShuttingDown{false};
  std::chrono::steady_clock::time_point Start;

  std::mutex FlightsM;
  std::unordered_map<std::string, std::shared_ptr<Flight>> Flights;

  // Request counters (stats op). Relaxed: they are monotonic telemetry.
  // NumCompiled counts compilations actually executed; NumCoalesced counts
  // requests that waited on another request's identical compile — the
  // stampede test pins {Compiled: 1, Coalesced: N-1} for N concurrent
  // identical cold requests.
  std::atomic<uint64_t> NumCompile{0}, NumRun{0}, NumBindRun{0},
      NumStats{0}, NumMetrics{0}, NumErrors{0}, NumTimeouts{0},
      NumShots{0}, NumCompiled{0}, NumCoalesced{0};
  // Load-shedding counters: requests refused at the queue bound, refused
  // by the run-memory budget, and expired before pickup (a subset of
  // NumTimeouts — the deadline passed while the request waited).
  std::atomic<uint64_t> NumShedOverloaded{0}, NumShedMemory{0},
      NumShedExpired{0};

  // The service's metric catalog, behind both `stats` and `metrics`:
  // per-op latency histograms plus read-time views over the counters
  // above and the cache, queue and disk counters, each registered once in
  // the constructor. The views capture `this`; Reg is private and only
  // rendered by member functions, so they never outlive the service.
  obs::MetricsRegistry Reg;
  /// Per-op latency histograms indexed by ServiceRequest::Kind, whose last
  /// enumerator is Metrics; shutdown's slot stays null (it is not timed).
  std::array<obs::Histogram *, size_t(ServiceRequest::Kind::Metrics) + 1>
      Latency{};
};

} // namespace asdf

#endif // ASDF_SERVICE_SERVICE_H
