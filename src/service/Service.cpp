//===- Service.cpp - The compile-and-run service engine -------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "compiler/CompileSession.h"
#include "obs/Trace.h"
#include "service/DiskCache.h"
#include "sim/Simulator.h"
#include "support/BuildInfo.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

using namespace asdf;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

bool validServiceEmit(const std::string &E) {
  return E == "qasm" || E == "qir" || E == "qir-base" || E == "qwerty-ir" ||
         E == "circuit";
}

/// Static span name per op (the Span ctor copies, but a switch avoids
/// formatting on the hot path).
const char *opSpanName(ServiceRequest::Kind K) {
  switch (K) {
  case ServiceRequest::Kind::Compile:
    return "request.compile";
  case ServiceRequest::Kind::Run:
    return "request.run";
  case ServiceRequest::Kind::BindRun:
    return "request.bind-run";
  case ServiceRequest::Kind::Stats:
    return "request.stats";
  case ServiceRequest::Kind::Shutdown:
    return "request.shutdown";
  case ServiceRequest::Kind::Metrics:
    return "request.metrics";
  }
  return "request";
}

} // namespace

AsdfService::AsdfService(ServiceOptions Options)
    : Cache(Options.CacheBytes),
      Queue(Options.Workers, Options.MaxQueueDepth),
      RunMemoryBudget(Options.RunMemoryBytes), Start(Clock::now()) {
  if (!Options.DiskCacheDir.empty()) {
    Disk = std::make_unique<DiskCache>(
        Options.DiskCacheDir, Options.DiskCacheBytes != 0
                                  ? Options.DiskCacheBytes
                                  : DiskCache::DefaultByteBudget);
    if (Disk->open(DiskError)) {
      Cache.attachDisk(Disk.get());
    } else {
      // Degrade to memory-only; asdfd checks diskCacheError() and refuses
      // to start, but an in-process service keeps serving.
      Disk.reset();
    }
  }
  // The one catalog behind `stats` and `metrics`: each series with its
  // Prometheus name, its place in the stats payload and its help text,
  // in payload order. The counter and gauge views read the existing
  // storage at render time, so nothing is double-counted.
  auto Count = [](const std::atomic<uint64_t> &C) {
    return [&C] { return C.load(std::memory_order_relaxed); };
  };
  Reg.gaugeFn("asdf_uptime_seconds", "uptime_secs",
              "Seconds since the service started",
              [this] { return secondsSince(Start); });
  Reg.gaugeFn("asdf_workers", "workers", "Worker threads in the pool",
              [this] { return double(Queue.workers()); });

  Reg.counterFn("asdf_cache_hits_total", "cache.hits", "Artifact-cache hits",
                [this] { return Cache.stats().Hits; });
  Reg.counterFn("asdf_cache_misses_total", "cache.misses",
                "Artifact-cache misses",
                [this] { return Cache.stats().Misses; });
  Reg.counterFn("asdf_cache_evictions_total", "cache.evictions",
                "Artifact-cache evictions",
                [this] { return Cache.stats().Evictions; });
  Reg.counterFn("asdf_cache_insertions_total", "cache.insertions",
                "Artifact-cache insertions",
                [this] { return Cache.stats().Insertions; });
  Reg.gaugeFn("asdf_cache_entries", "cache.entries",
              "Artifact-cache resident entries",
              [this] { return double(Cache.stats().Entries); });
  Reg.gaugeFn("asdf_cache_bytes_used", "cache.bytes_used",
              "Artifact-cache resident bytes",
              [this] { return double(Cache.stats().BytesUsed); });
  Reg.gaugeFn("asdf_cache_byte_budget", "cache.byte_budget",
              "Artifact-cache byte budget",
              [this] { return double(Cache.stats().ByteBudget); });

  Reg.counterFn("asdf_requests_compile_total", "requests.compile",
                "Compile requests handled", Count(NumCompile));
  Reg.counterFn("asdf_requests_run_total", "requests.run",
                "Run requests handled", Count(NumRun));
  Reg.counterFn("asdf_requests_bind_run_total", "requests.bind_run",
                "Bind-run requests handled", Count(NumBindRun));
  Reg.counterFn("asdf_requests_stats_total", "requests.stats",
                "Stats requests handled", Count(NumStats));
  Reg.counterFn("asdf_requests_metrics_total", "requests.metrics",
                "Metrics requests handled", Count(NumMetrics));
  Reg.counterFn("asdf_requests_errors_total", "requests.errors",
                "Requests answered with an error", Count(NumErrors));
  Reg.counterFn("asdf_requests_timeouts_total", "requests.timeouts",
                "Requests that hit their deadline", Count(NumTimeouts));
  Reg.counterFn("asdf_shots_total", "requests.shots",
                "Simulation shots executed", Count(NumShots));
  Reg.counterFn("asdf_compilations_total", "requests.compiled",
                "Compilations actually executed (cache misses minus "
                "coalesced)",
                Count(NumCompiled));
  Reg.counterFn("asdf_coalesced_total", "requests.coalesced",
                "Requests served by another request's in-flight compile",
                Count(NumCoalesced));
  Reg.counterFn("asdf_shed_overloaded_total", "requests.shed_overloaded",
                "Requests refused with `overloaded`",
                Count(NumShedOverloaded));
  Reg.counterFn("asdf_shed_memory_total", "requests.shed_memory",
                "Requests refused with `resource-exhausted`",
                Count(NumShedMemory));
  Reg.counterFn("asdf_shed_expired_total", "requests.shed_expired",
                "Requests whose deadline expired before pickup",
                Count(NumShedExpired));

  Reg.counterFn("asdf_queue_submitted_total", "queue.submitted",
                "Jobs accepted by the queue",
                [this] { return Queue.counters().Submitted; });
  Reg.counterFn("asdf_queue_executed_total", "queue.executed",
                "Jobs executed by the queue",
                [this] { return Queue.counters().Executed; });
  Reg.counterFn("asdf_queue_rejected_total", "queue.rejected",
                "Jobs rejected while draining",
                [this] { return Queue.counters().Rejected; });
  Reg.counterFn("asdf_queue_shed_total", "queue.shed",
                "Jobs shed by the depth bound",
                [this] { return Queue.counters().Shed; });
  Reg.gaugeFn("asdf_queue_pending", "queue.pending",
              "Jobs waiting for a worker",
              [this] { return double(Queue.counters().Pending); });

  if (Disk) {
    Reg.counterFn("asdf_disk_hits_total", "disk.hits", "Disk-tier hits",
                  [this] { return Disk->stats().Hits; });
    Reg.counterFn("asdf_disk_misses_total", "disk.misses",
                  "Disk-tier misses",
                  [this] { return Disk->stats().Misses; });
    Reg.counterFn("asdf_disk_insertions_total", "disk.insertions",
                  "Disk-tier insertions",
                  [this] { return Disk->stats().Insertions; });
    Reg.counterFn("asdf_disk_evictions_total", "disk.evictions",
                  "Disk-tier evictions",
                  [this] { return Disk->stats().Evictions; });
    Reg.counterFn("asdf_disk_corrupt_total", "disk.corrupt",
                  "Disk entries that failed validation",
                  [this] { return Disk->stats().Corrupt; });
    Reg.counterFn("asdf_disk_quarantined_total", "disk.quarantined",
                  "Invalid disk entries moved to quarantine",
                  [this] { return Disk->stats().Quarantined; });
    Reg.counterFn("asdf_disk_write_failures_total", "disk.write_failures",
                  "Disk-tier writes that failed",
                  [this] { return Disk->stats().WriteFailures; });
    Reg.gaugeFn("asdf_disk_warmed_entries", "disk.warmed",
                "Valid disk entries indexed at startup",
                [this] { return double(Disk->stats().WarmedEntries); });
    Reg.gaugeFn("asdf_disk_entries", "disk.entries",
                "Disk-tier resident entries",
                [this] { return double(Disk->stats().Entries); });
    Reg.gaugeFn("asdf_disk_bytes_used", "disk.bytes_used",
                "Disk-tier resident bytes",
                [this] { return double(Disk->stats().BytesUsed); });
    Reg.gaugeFn("asdf_disk_byte_budget", "disk.byte_budget",
                "Disk-tier byte budget",
                [this] { return double(Disk->stats().ByteBudget); });
  }

  auto Timed = [this](ServiceRequest::Kind K, const char *Name,
                      const char *Path, const char *Help) {
    Latency[static_cast<size_t>(K)] = &Reg.histogram(Name, Path, Help);
  };
  Timed(ServiceRequest::Kind::Compile, "asdf_compile_seconds",
        "latency.compile", "Latency of compile requests");
  Timed(ServiceRequest::Kind::Run, "asdf_run_seconds", "latency.run",
        "Latency of run requests");
  Timed(ServiceRequest::Kind::BindRun, "asdf_bind_run_seconds",
        "latency.bind_run", "Latency of bind-run requests");
  Timed(ServiceRequest::Kind::Stats, "asdf_stats_seconds", "latency.stats",
        "Latency of stats requests");
  Timed(ServiceRequest::Kind::Metrics, "asdf_metrics_seconds",
        "latency.metrics", "Latency of metrics requests");
}

AsdfService::~AsdfService() { drain(); }

void AsdfService::drain() {
  ShuttingDown.store(true);
  Queue.drain();
}

ServiceResponse AsdfService::handle(const ServiceRequest &R) {
  Clock::time_point Deadline; // Epoch = none.
  if (R.TimeoutSecs > 0)
    Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(R.TimeoutSecs));
  return handle(R, Deadline);
}

ServiceResponse AsdfService::handle(const ServiceRequest &R,
                                    Clock::time_point Deadline) {
  // Every span below this frame — cache probe, compiler passes, fusion,
  // simulator workers — inherits the request's trace id; a request
  // without one keeps whatever context the caller established.
  obs::TraceContext TC(R.Trace ? R.Trace : obs::currentTraceId());
  obs::Span Sp(opSpanName(R.TheKind), "service");
  Clock::time_point T0 = Clock::now();
  auto Dispatch = [&] {
    if (expired(Deadline)) {
      // Reject-at-pickup: the deadline passed while the request waited,
      // so running it now would only burn a worker on a dead answer.
      NumTimeouts.fetch_add(1, std::memory_order_relaxed);
      NumShedExpired.fetch_add(1, std::memory_order_relaxed);
      return ServiceResponse::failure(
          R.Id, "timeout", "request deadline passed before execution");
    }
    if (!R.Fault.empty()) {
      std::string FaultError;
      if (!fault::arm(R.Fault, FaultError))
        return ServiceResponse::failure(R.Id, "bad-request", FaultError);
    }
    switch (R.TheKind) {
    case ServiceRequest::Kind::Compile:
      NumCompile.fetch_add(1, std::memory_order_relaxed);
      return handleCompile(R, Deadline);
    case ServiceRequest::Kind::Run:
      NumRun.fetch_add(1, std::memory_order_relaxed);
      return handleRun(R, Deadline);
    case ServiceRequest::Kind::BindRun:
      NumBindRun.fetch_add(1, std::memory_order_relaxed);
      return handleRun(R, Deadline);
    case ServiceRequest::Kind::Stats:
      NumStats.fetch_add(1, std::memory_order_relaxed);
      return handleStats(R);
    case ServiceRequest::Kind::Metrics:
      NumMetrics.fetch_add(1, std::memory_order_relaxed);
      return handleMetrics(R);
    case ServiceRequest::Kind::Shutdown:
      return handleShutdown(R);
    }
    return ServiceResponse::failure(R.Id, "internal", "unreachable");
  };
  // No handler failure may kill a worker thread: an allocation failure
  // becomes a retryable resource-exhausted answer, anything else an
  // internal error, and the daemon keeps serving everyone else.
  ServiceResponse Resp;
  try {
    Resp = Dispatch();
  } catch (const std::bad_alloc &) {
    NumShedMemory.fetch_add(1, std::memory_order_relaxed);
    Resp = ServiceResponse::failure(
        R.Id, "resource-exhausted",
        "out of memory while handling the request; retry when load drops",
        retryAfterMsHint());
  } catch (const std::exception &E) {
    Resp = ServiceResponse::failure(
        R.Id, "internal",
        std::string("request handler failed: ") + E.what());
  } catch (...) {
    Resp = ServiceResponse::failure(R.Id, "internal",
                                    "request handler failed");
  }
  if (!Resp.Ok)
    NumErrors.fetch_add(1, std::memory_order_relaxed);
  if (obs::Histogram *H = Latency[static_cast<size_t>(R.TheKind)])
    H->observe(secondsSince(T0));
  return Resp;
}

JobQueue::Submit AsdfService::submit(
    ServiceRequest R, std::function<void(ServiceResponse)> Done,
    uint64_t Client) {
  Clock::time_point Deadline;
  if (R.TimeoutSecs > 0)
    Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(R.TimeoutSecs));
  // Queue wait is only measurable retroactively: the duration is known
  // when a worker picks the job up, so the span is emitted there with the
  // enqueue timestamp captured here.
  uint64_t EnqueuedNs = obs::traceEnabled() ? obs::nowNs() : 0;
  JobQueue::Submit Outcome = Queue.submit(
      [this, R = std::move(R), Done = std::move(Done), Deadline,
       EnqueuedNs] {
        if (EnqueuedNs) {
          uint64_t Now = obs::nowNs();
          obs::emitSpan("queue.wait", "service", EnqueuedNs,
                        Now > EnqueuedNs ? Now - EnqueuedNs : 0, R.Trace);
        }
        Done(handle(R, Deadline));
      },
      Client);
  if (Outcome == JobQueue::Submit::Overloaded) {
    NumShedOverloaded.fetch_add(1, std::memory_order_relaxed);
    NumErrors.fetch_add(1, std::memory_order_relaxed);
  }
  return Outcome;
}

uint64_t AsdfService::retryAfterMsHint() const {
  JobQueue::Counters C = Queue.counters();
  unsigned W = std::max(1u, Queue.workers());
  // ~25 ms of work per queued request per worker: crude, but monotone in
  // the backlog, which is what a backoff hint needs to be.
  uint64_t Hint = 25 * (C.Pending / W + 1);
  return std::min<uint64_t>(std::max<uint64_t>(Hint, 25), 2000);
}

ServiceResponse AsdfService::overloadedResponse(uint64_t Id) const {
  return ServiceResponse::failure(
      Id, "overloaded",
      "request queue is full; back off and retry", retryAfterMsHint());
}

ServiceResponse AsdfService::refuse(uint64_t Id, std::string Kind,
                                    std::string Message) {
  NumErrors.fetch_add(1, std::memory_order_relaxed);
  return ServiceResponse::failure(Id, std::move(Kind), std::move(Message));
}

bool AsdfService::admitRunMemory(const ServiceRequest &R,
                                 unsigned NumQubits, size_t &Reserved,
                                 ServiceResponse &Failure) {
  Reserved = 0;
  if (RunMemoryBudget == 0)
    return true;
  // The floor of what a dense run allocates: one 16-byte amplitude per
  // basis state. Shot-parallel worker forks can multiply it, but bounding
  // the floor already refuses every state that cannot fit at all.
  size_t Need = NumQubits >= 8 * sizeof(size_t) - 4
                    ? std::numeric_limits<size_t>::max()
                    : size_t(16) << NumQubits;
  if (Need > RunMemoryBudget) {
    NumShedMemory.fetch_add(1, std::memory_order_relaxed);
    Failure = ServiceResponse::failure(
        R.Id, "resource-exhausted",
        "dense statevector for " + std::to_string(NumQubits) +
            " qubit(s) needs " + std::to_string(Need) +
            " bytes against a run-memory budget of " +
            std::to_string(RunMemoryBudget) +
            " (use a smaller circuit, the stab/mps backend, or a larger "
            "--run-mem-mb)");
    return false;
  }
  size_t Cur = RunMemoryInFlight.load();
  while (true) {
    if (Cur + Need > RunMemoryBudget) {
      // Fits alone but not beside the runs in flight: retryable.
      NumShedMemory.fetch_add(1, std::memory_order_relaxed);
      Failure = ServiceResponse::failure(
          R.Id, "resource-exhausted",
          "run-memory budget is held by in-flight runs; retry shortly",
          std::max<uint64_t>(retryAfterMsHint(), 50));
      return false;
    }
    if (RunMemoryInFlight.compare_exchange_weak(Cur, Cur + Need))
      break;
  }
  Reserved = Need;
  return true;
}

void AsdfService::releaseRunMemory(size_t Bytes) {
  if (Bytes)
    RunMemoryInFlight.fetch_sub(Bytes);
}

std::shared_ptr<const CachedArtifact> AsdfService::coalesceCompile(
    const CacheKey &Key, bool &WasHit, double &CompileSecs,
    ServiceResponse &Failure,
    const std::function<std::shared_ptr<const CachedArtifact>(
        ServiceResponse &, double &)> &Compute) {
  CompileSecs = 0.0;
  if (std::shared_ptr<const CachedArtifact> Hit = Cache.get(Key)) {
    WasHit = true;
    return Hit;
  }
  WasHit = false;
  std::string KeyHex = Key.hex();
  std::shared_ptr<Flight> F;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> Lock(FlightsM);
    auto It = Flights.find(KeyHex);
    if (It != Flights.end()) {
      F = It->second;
    } else {
      F = std::make_shared<Flight>();
      Flights.emplace(KeyHex, F);
      Leader = true;
    }
  }
  if (!Leader) {
    // Another request is compiling exactly this key right now: wait for
    // its result instead of compiling the same thing again (the classic
    // cache stampede — both requests miss, both compile, one insert wins).
    NumCoalesced.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> Lock(F->M);
    F->CV.wait(Lock, [&] { return F->Done; });
    if (F->Art) {
      WasHit = true; // Served without compiling, exactly like a hit.
      return F->Art;
    }
    Failure = F->Failure;
    return nullptr;
  }
  NumCompiled.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const CachedArtifact> Art;
  auto Publish = [&] {
    {
      std::lock_guard<std::mutex> Lock(FlightsM);
      Flights.erase(KeyHex);
    }
    {
      std::lock_guard<std::mutex> Lock(F->M);
      F->Art = Art;
      F->Failure = Failure;
      F->Done = true;
    }
    F->CV.notify_all();
  };
  try {
    Art = Compute(Failure, CompileSecs);
  } catch (...) {
    // Never strand waiters: publish an internal failure, then rethrow.
    Failure = ServiceResponse::failure(0, "internal",
                                       "compilation terminated abnormally");
    Publish();
    throw;
  }
  if (Art)
    Cache.put(Key, Art); // Insert before waking waiters: no re-miss window.
  Publish();
  return Art;
}

std::shared_ptr<const Circuit> AsdfService::flatCircuitFor(
    const ServiceRequest &R, const PipelinePlan &Plan, bool &WasHit,
    std::string &KeyHex, double &CompileSecs, ServiceResponse &Failure) {
  CacheKey Key = computeCacheKey(R, Plan, "flat-circuit");
  KeyHex = Key.hex();
  std::shared_ptr<const CachedArtifact> Art = coalesceCompile(
      Key, WasHit, CompileSecs, Failure,
      [&](ServiceResponse &Fail,
          double &Secs) -> std::shared_ptr<const CachedArtifact> {
        if (fault::shouldFail("compile.bad-alloc"))
          throw std::bad_alloc();
        Clock::time_point T0 = Clock::now();
        SessionOptions Opts;
        Opts.Entry = R.Entry;
        Opts.Plan = Plan;
        CompileSession Session(R.Source, R.Bindings, Opts);
        Circuit *Flat = Session.flatCircuit();
        Secs = secondsSince(T0);
        if (!Flat) {
          Fail = ServiceResponse::failure(R.Id, "compile-error",
                                          Session.errorMessage());
          return nullptr;
        }
        auto Entry = std::make_shared<CachedArtifact>();
        Entry->Kind = "flat-circuit";
        Entry->Flat = std::make_shared<Circuit>(std::move(*Flat));
        return Entry;
      });
  if (!Art) {
    Failure.Id = R.Id; // A coalesced failure carries the leader's id.
    return nullptr;
  }
  return Art->Flat;
}

ServiceResponse
AsdfService::handleCompile(const ServiceRequest &R,
                           Clock::time_point Deadline) {
  if (!validServiceEmit(R.Emit))
    return ServiceResponse::failure(
        R.Id, "bad-request",
        "unknown emit '" + R.Emit +
            "' (expected qasm, qir, qir-base, qwerty-ir, or circuit)");
  PipelinePlan Plan;
  std::string Error;
  if (!parsePipelinePlan(R.Pipeline, Plan, Error))
    return ServiceResponse::failure(R.Id, "bad-request", Error);
  if (!Plan.producesFlatCircuit() && R.Emit != "qir" &&
      R.Emit != "qwerty-ir")
    return ServiceResponse::failure(
        R.Id, "unsupported",
        "a non-inlining pipeline supports only emit qir/qwerty-ir");

  ServiceResponse Resp;
  Resp.Id = R.Id;
  CacheKey Key = computeCacheKey(R, Plan, R.Emit);
  Resp.Key = Key.hex();
  ServiceResponse Failure;
  std::shared_ptr<const CachedArtifact> Art = coalesceCompile(
      Key, Resp.CacheHit, Resp.CompileSecs, Failure,
      [&](ServiceResponse &Fail,
          double &Secs) -> std::shared_ptr<const CachedArtifact> {
        if (expired(Deadline)) {
          NumTimeouts.fetch_add(1, std::memory_order_relaxed);
          Fail = ServiceResponse::failure(
              R.Id, "timeout", "request deadline passed before compile");
          return nullptr;
        }
        if (fault::shouldFail("compile.bad-alloc"))
          throw std::bad_alloc();
        Clock::time_point T0 = Clock::now();
        SessionOptions Opts;
        Opts.Entry = R.Entry;
        Opts.Plan = Plan;
        CompileSession Session(R.Source, R.Bindings, Opts);
        std::string Text;
        if (R.Emit == "qwerty-ir") {
          Module *QW = Session.qwertyIR();
          if (!QW) {
            Fail = ServiceResponse::failure(R.Id, "compile-error",
                                            Session.errorMessage());
            return nullptr;
          }
          Text = QW->str();
        } else if (R.Emit == "qir") {
          Module *QC = Session.qcircIR();
          if (!QC) {
            Fail = ServiceResponse::failure(R.Id, "compile-error",
                                            Session.errorMessage());
            return nullptr;
          }
          Text = emitQirUnrestricted(*QC);
        } else {
          Circuit *Flat = Session.flatCircuit();
          if (!Flat) {
            Fail = ServiceResponse::failure(R.Id, "compile-error",
                                            Session.errorMessage());
            return nullptr;
          }
          if (R.Emit == "qasm") {
            Text = emitOpenQasm3(*Flat);
          } else if (R.Emit == "circuit") {
            Text = Flat->str();
          } else { // qir-base
            std::optional<std::string> Qir = emitQirBaseProfile(*Flat);
            if (!Qir) {
              Fail = ServiceResponse::failure(
                  R.Id, "unsupported",
                  "circuit needs features outside the Base Profile "
                  "(dynamic conditions or unbound parameters)");
              return nullptr;
            }
            Text = std::move(*Qir);
          }
        }
        Secs = secondsSince(T0);
        auto Entry = std::make_shared<CachedArtifact>();
        Entry->Kind = R.Emit;
        Entry->Text = std::move(Text);
        return Entry;
      });
  if (!Art) {
    Failure.Id = R.Id; // A coalesced failure carries the leader's id.
    return Failure;
  }
  Resp.Ok = true;
  Resp.Artifact = Art->Text;
  return Resp;
}

ServiceResponse AsdfService::handleRun(const ServiceRequest &R,
                                       Clock::time_point Deadline) {
  const bool Sweep = R.TheKind == ServiceRequest::Kind::BindRun;
  PipelinePlan Plan;
  std::string Error;
  if (!parsePipelinePlan(R.Pipeline, Plan, Error))
    return ServiceResponse::failure(R.Id, "bad-request", Error);
  if (!Plan.producesFlatCircuit())
    return ServiceResponse::failure(
        R.Id, "unsupported",
        std::string(Sweep ? "bind-run" : "run") +
            " requests need a fully inlining pipeline (the plan keeps "
            "callables, which only the QIR path can emit)");
  RunSpec Spec;
  if (!parseBackendKind(R.Backend, Spec.Backend))
    return ServiceResponse::failure(
        R.Id, "bad-request",
        "unknown backend '" + R.Backend +
            "' (expected auto, sv, stab, or mps)");

  // bind-run canonicalizes the source: literal rotation angles become
  // fresh $__aK parameters, so requests differing only in angle values
  // share one compiled (and cached) parametric circuit — the compile-once,
  // re-bind-forever path. The cache key is computed over the lifted
  // source, which by construction excludes angle values.
  std::optional<ParameterizedSource> PS;
  std::optional<ServiceRequest> Canon;
  if (Sweep) {
    if (R.Points.empty())
      return ServiceResponse::failure(R.Id, "bad-request",
                                      "bind-run needs at least one point");
    for (size_t P = 0; P < R.Points.size(); ++P)
      if (R.Points[P].size() != R.SweepParams.size())
        return ServiceResponse::failure(
            R.Id, "bad-request",
            "point " + std::to_string(P) + " has " +
                std::to_string(R.Points[P].size()) +
                " value(s) but \"params\" names " +
                std::to_string(R.SweepParams.size()));
    std::set<std::string> Seen;
    for (const std::string &Name : R.SweepParams)
      if (!Seen.insert(Name).second)
        return ServiceResponse::failure(
            R.Id, "bad-request",
            "duplicate sweep parameter '" + Name + "'");
    PS = parameterizeSource(R.Source);
    if (PS) {
      Canon = R;
      Canon->Source = PS->Source;
    }
  }

  ServiceResponse Resp;
  Resp.Id = R.Id;
  ServiceResponse Failure;
  std::shared_ptr<const Circuit> Flat =
      flatCircuitFor(Canon ? *Canon : R, Plan, Resp.CacheHit, Resp.Key,
                     Resp.CompileSecs, Failure);
  if (!Flat)
    return Failure;
  if (expired(Deadline)) {
    NumTimeouts.fetch_add(1, std::memory_order_relaxed);
    return ServiceResponse::failure(R.Id, "timeout",
                                    "request deadline passed before run");
  }

  if (Sweep) {
    // Every circuit parameter, in declaration order: lifted angles bind to
    // the values they were lifted from, the rest come from the request's
    // sweep values by name.
    const std::vector<std::string> &Names = Flat->ParamNames;
    for (const std::string &Name : R.SweepParams) {
      if (Name.rfind("__a", 0) == 0)
        return ServiceResponse::failure(
            R.Id, "bad-request",
            "sweep parameter '" + Name +
                "' uses the internally lifted angle namespace (the __a "
                "prefix is reserved)");
      if (std::find(Names.begin(), Names.end(), Name) == Names.end())
        return ServiceResponse::failure(
            R.Id, "bad-request",
            "unknown sweep parameter '" + Name +
                "' (the program declares no such $-parameter)");
    }
    std::map<std::string, double> Lifted;
    if (PS)
      for (size_t K = 0; K < PS->LiftedNames.size(); ++K)
        Lifted[PS->LiftedNames[K]] = PS->LiftedValues[K];
    Spec.Points.assign(R.Points.size(), std::vector<double>(Names.size()));
    for (size_t I = 0; I < Names.size(); ++I) {
      auto SIt =
          std::find(R.SweepParams.begin(), R.SweepParams.end(), Names[I]);
      auto LIt = Lifted.find(Names[I]);
      if (SIt == R.SweepParams.end() && LIt == Lifted.end())
        return ServiceResponse::failure(
            R.Id, "bad-request",
            "parameter '$" + Names[I] +
                "' is not covered by \"params\" and has no literal value "
                "to lift");
      for (size_t P = 0; P < R.Points.size(); ++P)
        Spec.Points[P][I] = SIt != R.SweepParams.end()
                                ? R.Points[P][SIt - R.SweepParams.begin()]
                                : LIt->second;
    }
  }

  Spec.Shots = R.Shots;
  Spec.Seed = R.Seed;
  Spec.Opts.Jobs = R.Jobs;
  // Cooperative cancellation: the engines re-check this between shots and
  // between sweep points, so a long run cannot overshoot its deadline by
  // more than one shot (an in-flight kernel is never preempted).
  Spec.Opts.Deadline = Deadline;
  size_t Reserved = 0;
  ServiceResponse MemFailure;
  RunReport Run;
  try {
    // Admission: a dense run reserves its state bytes against the budget
    // before touching the simulator, so an oversized request is refused
    // (retryably) instead of thrashing or OOM-killing the daemon.
    Run = runCircuit(*Flat, Spec, [&](const RunReport &Sel) {
      return std::strcmp(Sel.Selection.Chosen->name(), "sv") != 0 ||
             admitRunMemory(R, Flat->NumQubits, Reserved, MemFailure);
    });
  } catch (const DeadlineExceeded &) {
    releaseRunMemory(Reserved);
    NumTimeouts.fetch_add(1, std::memory_order_relaxed);
    return ServiceResponse::failure(
        R.Id, "timeout",
        Sweep ? "run deadline exceeded during sweep"
              : "run deadline exceeded between shots");
  } catch (...) {
    releaseRunMemory(Reserved);
    throw;
  }
  releaseRunMemory(Reserved);
  switch (Run.Result) {
  case RunReport::Outcome::Refused:
    return ServiceResponse::failure(
        R.Id, "bad-request",
        Run.Refusal + "; bind them with a bind-run request");
  case RunReport::Outcome::Unsupported:
    return ServiceResponse::failure(
        R.Id, "unsupported",
        std::string("backend '") + Run.Selection.Chosen->name() +
            "' cannot simulate this circuit (" + Run.Selection.CostSummary +
            "); candidates: " + Run.Selection.rejectionSummary());
  case RunReport::Outcome::Declined:
    return MemFailure;
  case RunReport::Outcome::Ran:
    break;
  }
  NumShots.fetch_add(static_cast<uint64_t>(R.Shots) * Run.Bits.size(),
                     std::memory_order_relaxed);
  if (Sweep) {
    Resp.PointResults = std::move(Run.Bits);
  } else {
    Resp.Results = std::move(Run.Bits[0]);
    for (const std::string &Bits : Resp.Results)
      ++Resp.Counts[Bits];
  }
  Resp.Ok = true;
  return Resp;
}

ServiceResponse AsdfService::handleStats(const ServiceRequest &R) {
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Ok = true;
  Resp.StatsBody = statsJson();
  return Resp;
}

ServiceResponse AsdfService::handleShutdown(const ServiceRequest &R) {
  ShuttingDown.store(true);
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Ok = true;
  return Resp;
}

ServiceResponse AsdfService::handleMetrics(const ServiceRequest &R) {
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Ok = true;
  Resp.MetricsText = metricsText();
  return Resp;
}

json::Value AsdfService::statsJson() const {
  json::Value O = json::Value::object();
  O.set("version", json::Value::str(buildInfo().Version));
  O.set("fingerprint", json::Value::str(buildFingerprint()));
  json::Value Series = Reg.toJson();
  for (const auto &[Key, V] : Series.members())
    O.set(Key, V);
  if (Disk)
    O.get("disk")->set("dir", json::Value::str(Disk->dir()));
  return O;
}
