//===- Backend.cpp - Simulation-backend interface and dispatch ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Backend.h"

#include "noise/NoiseModel.h"
#include "obs/Trace.h"
#include "sim/CircuitAnalysis.h"
#include "sim/StabilizerBackend.h"
#include "sim/StatevectorBackend.h"
#include "sim/mps/MPSBackend.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

using namespace asdf;

std::string ShotResult::str() const {
  std::string S;
  for (bool B : Bits)
    S.push_back(B ? '1' : '0');
  return S;
}

uint64_t asdf::deriveShotSeed(uint64_t Seed, uint64_t Shot) {
  // splitmix64 finalizer over a golden-ratio stride: adjacent shots land in
  // statistically independent streams, and shot S of run (C, Seed) replays
  // bit-for-bit on every backend and platform.
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Shot + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::mt19937_64 asdf::shotRng(uint64_t Seed) {
  return std::mt19937_64(Seed * 0x9E3779B97F4A7C15ull + 0xDEADBEEF);
}

uint64_t asdf::deriveSweepPointSeed(uint64_t Seed, uint64_t Point) {
  // Same finalizer under a distinct salt, so the shot streams of sweep
  // point P never collide with the plain shot streams of the same base
  // seed (deriveShotSeed(Seed, S) vs deriveShotSeed(thisResult, S)).
  uint64_t Z =
      (Seed ^ 0xC2B2AE3D27D4EB4Full) + 0x9E3779B97F4A7C15ull * (Point + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

bool asdf::parseBackendKind(const std::string &Name, BackendKind &Kind) {
  if (Name == "auto") {
    Kind = BackendKind::Auto;
    return true;
  }
  if (Name == "sv" || Name == "statevector") {
    Kind = BackendKind::Statevector;
    return true;
  }
  if (Name == "stab" || Name == "stabilizer") {
    Kind = BackendKind::Stabilizer;
    return true;
  }
  if (Name == "mps") {
    Kind = BackendKind::MPS;
    return true;
  }
  return false;
}

namespace {

unsigned coreCount() {
  unsigned Cores = std::thread::hardware_concurrency();
  return Cores == 0 ? 1 : Cores;
}

/// Oversubscription past a few threads per core never helps a CPU-bound
/// sweep, and an absurd request (--jobs 50000, or -1 wrapped unsigned)
/// must not exhaust thread-creation resources.
constexpr unsigned MaxJobsPerCore = 4;

} // namespace

unsigned asdf::resolveJobCount(unsigned RequestedJobs) {
  unsigned Cores = coreCount();
  unsigned Jobs = RequestedJobs == 0 ? Cores : RequestedJobs;
  if (Jobs > Cores * MaxJobsPerCore)
    Jobs = Cores * MaxJobsPerCore;
  return Jobs < 1 ? 1 : Jobs;
}

unsigned asdf::resolveJobCount(unsigned RequestedJobs, unsigned Shots) {
  unsigned Jobs = resolveJobCount(RequestedJobs);
  if (Shots < Jobs)
    Jobs = Shots;
  return Jobs < 1 ? 1 : Jobs;
}

namespace {

/// The shared chunked self-scheduling queue behind parallelIndexLoop and
/// parallelShotLoop: workers grab the next chunk of indices as they go
/// idle, so stragglers (shots whose feed-forward takes a longer path,
/// index ranges crossing a slow page) never serialize the run. Chunks keep
/// the atomic off the fast path while staying small enough to balance.
struct ChunkLoop {
  ChunkLoop(const std::function<void(unsigned, uint64_t, uint64_t)> &Body,
            uint64_t NumItems, uint64_t Chunk)
      : Body(Body), NumItems(NumItems), Chunk(Chunk) {}

  const std::function<void(unsigned, uint64_t, uint64_t)> &Body;
  const uint64_t NumItems, Chunk;
  /// Workers inherit the caller's trace id so their sim.worker spans
  /// correlate with the rest of the request in the exported trace.
  const uint64_t ParentTrace = obs::currentTraceId();
  std::atomic<uint64_t> Next{0};
  std::atomic<bool> Failed{false};
  std::mutex ErrorLock;
  std::exception_ptr FirstError; ///< Guarded by ErrorLock.

  /// Runs worker \p W until the queue is empty. Never throws.
  void work(unsigned W) {
    obs::TraceContext TC(ParentTrace);
    obs::Span Sp("sim.worker", "sim");
    try {
      while (!Failed.load(std::memory_order_relaxed)) {
        uint64_t Begin = Next.fetch_add(Chunk, std::memory_order_relaxed);
        if (Begin >= NumItems)
          return;
        uint64_t End = Begin + Chunk < NumItems ? Begin + Chunk : NumItems;
        Body(W, Begin, End);
      }
    } catch (...) {
      // Park the first exception (e.g. a state fork's bad_alloc) and stop
      // the queue; the caller sees it rethrown, as the serial loop would.
      std::lock_guard<std::mutex> Guard(ErrorLock);
      if (!FirstError)
        FirstError = std::current_exception();
      Failed.store(true, std::memory_order_relaxed);
    }
  }
};

/// A worker thread that outlives the loops it serves. Between loops it
/// parks in Busy.wait, which spins briefly and then blocks in the kernel,
/// so an idle process burns no CPU. The loop that borrowed it owns it
/// until it sees Busy fall back to 0. Never destroyed, so its thread is
/// never joined: the pool that owns it lives until the process exits.
struct Helper {
  /// 1 from the borrower's assignment until the helper finishes the loop.
  /// Loop and Worker are written before the release store of 1 and read
  /// after the acquire load that sees it.
  std::atomic<uint32_t> Busy{0};
  ChunkLoop *Loop = nullptr;
  unsigned Worker = 0;
  std::thread Thread; ///< Last: starts after the fields it reads exist.

  Helper() : Thread([this] { serve(); }) {}
  Helper(const Helper &) = delete;
  Helper &operator=(const Helper &) = delete;

  void serve() {
    for (;;) {
      Busy.wait(0, std::memory_order_acquire);
      Loop->work(Worker);
      Busy.store(0, std::memory_order_release);
      Busy.notify_one();
    }
  }

  void start(ChunkLoop &L, unsigned W) {
    Loop = &L;
    Worker = W;
    Busy.store(1, std::memory_order_release);
    Busy.notify_one();
  }

  void finish() { Busy.wait(1, std::memory_order_acquire); }
};

/// The process-wide set of parked helpers. A loop borrows what is parked
/// and creates a helper only when none is, so a process holds at most as
/// many helpers as it ever ran at once, and never more than the job cap.
class HelperPool {
public:
  // Full capacity up front: borrow and giveBack then never allocate after
  // taking a helper, so no helper is lost to an exception.
  HelperPool() {
    All.reserve(Cap);
    Parked.reserve(Cap);
  }

  /// Appends up to \p Want parked (or new) helpers to \p Out.
  void borrow(unsigned Want, std::vector<Helper *> &Out) {
    Out.reserve(std::min<size_t>(Want, Cap));
    std::lock_guard<std::mutex> Guard(Lock);
    for (; Want > 0 && !Parked.empty(); --Want) {
      Out.push_back(Parked.back());
      Parked.pop_back();
    }
    for (; Want > 0 && All.size() < Cap; --Want) {
      try {
        All.push_back(std::make_unique<Helper>());
      } catch (...) {
        return; // Thread resources exhausted: run with what we got.
      }
      Out.push_back(All.back().get());
    }
  }

  /// Parks \p Hs again, each finished with its loop.
  void giveBack(const std::vector<Helper *> &Hs) {
    std::lock_guard<std::mutex> Guard(Lock);
    // Reversed, so the next borrower takes the same helpers first.
    Parked.insert(Parked.end(), Hs.rbegin(), Hs.rend());
  }

private:
  const size_t Cap = coreCount() * MaxJobsPerCore;
  std::mutex Lock;
  std::vector<std::unique_ptr<Helper>> All; ///< Guarded by Lock.
  std::vector<Helper *> Parked;             ///< Guarded by Lock.
};

HelperPool &helperPool() {
  // Never destroyed: helpers stay parked until the process exits, so none
  // touches the pool, or runs its thread-exit hooks (its trace ring's
  // hand-back), after static destruction has begun.
  static HelperPool *Pool = new HelperPool;
  return *Pool;
}

/// Body receives (Worker, Begin, End) with dense worker ids in [0, Jobs).
void parallelChunkLoop(
    unsigned Jobs, uint64_t NumItems, uint64_t Chunk,
    const std::function<void(unsigned, uint64_t, uint64_t)> &Body) {
  if (Chunk < 1)
    Chunk = 1;
  // Clamp the worker count to the actual number of chunks: requesting 8
  // workers for 3 work items must borrow at most 2 helpers, never 7.
  uint64_t NumChunks = (NumItems + Chunk - 1) / Chunk;
  if (NumChunks < Jobs)
    Jobs = static_cast<unsigned>(NumChunks);
  if (Jobs <= 1 || NumItems <= Chunk) {
    if (NumItems > 0)
      Body(0, 0, NumItems);
    return;
  }
  ChunkLoop Loop(Body, NumItems, Chunk);
  std::vector<Helper *> Helpers;
  helperPool().borrow(Jobs - 1, Helpers);
  for (size_t I = 0; I < Helpers.size(); ++I)
    Helpers[I]->start(Loop, static_cast<unsigned>(I + 1));
  Loop.work(0); // This thread is worker 0.
  for (Helper *H : Helpers)
    H->finish();
  helperPool().giveBack(Helpers);
  if (Loop.FirstError)
    std::rethrow_exception(Loop.FirstError);
}

} // namespace

void asdf::parallelIndexLoop(
    unsigned Jobs, uint64_t NumItems, uint64_t MinChunk,
    const std::function<void(uint64_t, uint64_t)> &Body) {
  if (MinChunk < 1)
    MinChunk = 1;
  // Aim for ~8 chunks per worker for balance, but never below the
  // caller's floor: a tiny chunk of a memory-bound sweep costs more in
  // queue traffic than it recovers in balance.
  uint64_t Chunk = Jobs > 1 ? NumItems / (uint64_t(Jobs) * 8) : NumItems;
  if (Chunk < MinChunk)
    Chunk = MinChunk;
  parallelChunkLoop(Jobs, NumItems, Chunk,
                    [&](unsigned, uint64_t Begin, uint64_t End) {
                      Body(Begin, End);
                    });
}

void asdf::parallelShotLoop(
    unsigned Jobs, unsigned Shots,
    const std::function<void(unsigned, unsigned)> &Body) {
  uint64_t Chunk = Jobs > 1 ? Shots / (uint64_t(Jobs) * 8) : Shots;
  parallelChunkLoop(Jobs, Shots, Chunk,
                    [&](unsigned W, uint64_t Begin, uint64_t End) {
                      for (uint64_t S = Begin; S < End; ++S)
                        Body(W, static_cast<unsigned>(S));
                    });
}

void asdf::parallelShotLoop(unsigned Jobs, unsigned Shots,
                            const std::function<void(unsigned)> &Body) {
  parallelShotLoop(Jobs, Shots,
                   [&](unsigned, unsigned S) { Body(S); });
}

void asdf::parallelShotLoop(
    unsigned Jobs, unsigned Shots, SimStats *Counters,
    const std::function<void(unsigned, unsigned, SimStats *)> &Body) {
  std::vector<SimStats> WorkerStats(Counters ? std::max(Jobs, 1u) : 0);
  parallelShotLoop(Jobs, Shots, [&](unsigned W, unsigned S) {
    Body(W, S, Counters ? &WorkerStats[W] : nullptr);
  });
  for (const SimStats &WS : WorkerStats)
    Counters->merge(WS);
}

ShotResult SimBackend::runNoisy(const Circuit &C, uint64_t Seed,
                                const NoiseModel &) const {
  return run(C, Seed);
}

bool SimBackend::supportsNoise(const NoiseModel &) const { return false; }

std::vector<std::vector<ShotResult>>
SimBackend::runSweep(const Circuit &C,
                     const std::vector<std::vector<double>> &Points,
                     unsigned Shots, uint64_t Seed,
                     const RunOptions &Opts) const {
  // The reference semantics: bind, then run, per point. Overrides must
  // reproduce this bit-for-bit.
  std::vector<std::vector<ShotResult>> Results(Points.size());
  for (size_t P = 0; P < Points.size(); ++P) {
    if (Opts.deadlineExpired())
      throw DeadlineExceeded();
    Circuit Bound = bindCircuit(C, Points[P]);
    Results[P] = runBatch(Bound, Shots, deriveSweepPointSeed(Seed, P), Opts);
  }
  return Results;
}

std::map<std::string, unsigned>
SimBackend::runShots(const Circuit &C, unsigned Shots, uint64_t Seed,
                     const RunOptions &Opts) const {
  std::map<std::string, unsigned> Counts;
  for (const ShotResult &R : runBatch(C, Shots, Seed, Opts))
    ++Counts[R.str()];
  return Counts;
}

BackendRegistry::BackendRegistry() {
  Backends.push_back(std::make_unique<StatevectorBackend>());
  Backends.push_back(std::make_unique<StabilizerBackend>());
  Backends.push_back(std::make_unique<MPSBackend>());
}

BackendRegistry &BackendRegistry::instance() {
  static BackendRegistry Registry;
  return Registry;
}

SimBackend *BackendRegistry::lookup(const std::string &Name) const {
  for (const std::unique_ptr<SimBackend> &B : Backends)
    if (Name == B->name())
      return B.get();
  return nullptr;
}

std::string BackendSelection::describe() const {
  std::string S = "backend: " + std::string(Chosen ? Chosen->name() : "none");
  if (!Supported)
    S += " (cannot run this circuit)";
  S += "\nreason: " + Reason + "\ncost model: " + CostSummary +
       "\ncandidates:\n";
  for (const BackendVerdict &V : Verdicts)
    S += "  " + V.Name + ": " + (V.Eligible ? "eligible" : "rejected") +
         ": " + V.Why + "\n";
  return S;
}

std::string BackendSelection::rejectionSummary() const {
  std::string S;
  for (const BackendVerdict &V : Verdicts) {
    if (!S.empty())
      S += "; ";
    S += V.Name + ": " +
         (V.Eligible ? "eligible: " + V.Why : V.Why);
  }
  return S;
}

SimBackend &BackendRegistry::select(const Circuit &C, BackendKind Kind,
                                    const CircuitProfile *Profile,
                                    const NoiseModel *Noise) const {
  return *selectWithReasons(C, Kind, RunOptions(), Profile, Noise).Chosen;
}

BackendSelection
BackendRegistry::selectWithReasons(const Circuit &C, BackendKind Kind,
                                   const RunOptions &Opts,
                                   const CircuitProfile *Profile,
                                   const NoiseModel *Noise) const {
  assert(!Backends.empty() && "engines missing");
  CircuitProfile P = Profile ? *Profile : analyzeCircuit(C);
  CostModel Cost = estimateCost(C, &P);
  if (Noise && Noise->empty())
    Noise = nullptr;
  // The bond cap the entanglement estimate is measured against: the run's
  // chi, or the default chi when the run asked for unlimited (chi 0 always
  // "fits", but auto-dispatch must not volunteer an exponential run).
  unsigned ChiBar = Opts.MpsChi ? Opts.MpsChi : RunOptions().MpsChi;

  BackendSelection Sel;
  Sel.CostSummary = Cost.summary();

  // One verdict per engine: can auto-dispatch hand it this circuit, and
  // why (not).
  for (const std::unique_ptr<SimBackend> &B : Backends) {
    BackendVerdict V;
    V.Name = B->name();
    bool NoiseOk = !Noise || B->supportsNoise(*Noise);
    if (V.Name == "sv") {
      unsigned Cap = StatevectorBackend::maxQubits();
      V.Eligible = C.NumQubits <= Cap && NoiseOk;
      if (!NoiseOk)
        V.Why = "cannot execute the noise model";
      else if (V.Eligible)
        V.Why = "fits the dense cap (" + std::to_string(C.NumQubits) +
                " <= " + std::to_string(Cap) + " qubits)";
      else
        V.Why = std::to_string(C.NumQubits) +
                " qubits exceed the dense cap (" + std::to_string(Cap) +
                ", derived from available memory)";
    } else if (V.Name == "stab") {
      bool Ok = B->supports(C, P);
      V.Eligible = Ok && NoiseOk;
      if (!Ok)
        V.Why = P.CliffordOnly
                    ? "circuit is outside the tableau gate set"
                    : "circuit is not Clifford-only (" +
                          std::to_string(Cost.NonCliffordGates) +
                          " non-Clifford gate(s))";
      else if (!NoiseOk)
        V.Why = "noise model has non-Pauli channels (needs dense "
                "trajectories)";
      else
        V.Why = "Clifford-only circuit: polynomial tableau updates at any "
                "width";
    } else {
      assert(V.Name == "mps" && "unknown engine");
      bool Ok = B->supports(C, P);
      bool BondOk = Cost.estimatedMaxBond() <= ChiBar;
      V.Eligible = Ok && BondOk && !Noise;
      if (!Ok)
        V.Why = "gate support exceeds " +
                std::to_string(MPSBackend::MaxGateSites) +
                " sites (widest gate touches " +
                std::to_string(P.MaxGateQubits) + ")";
      else if (Noise)
        V.Why = "noise models need dense trajectories or Pauli frames";
      else if (!BondOk)
        V.Why = "estimated max bond " +
                (Cost.EstimatedLogBond >= 63
                     ? ">= 2^63"
                     : std::to_string(Cost.estimatedMaxBond())) +
                " exceeds chi " + std::to_string(ChiBar) +
                " (force with --backend mps for approximate simulation)";
      else
        V.Why = "estimated max bond " +
                std::to_string(Cost.estimatedMaxBond()) + " fits chi " +
                std::to_string(ChiBar);
    }
    Sel.Verdicts.push_back(std::move(V));
  }

  auto VerdictFor = [&](const char *Name) -> const BackendVerdict * {
    for (const BackendVerdict &V : Sel.Verdicts)
      if (V.Name == Name)
        return &V;
    return nullptr;
  };

  // Forced kinds resolve directly; Supported reflects executability, not
  // auto-eligibility — a forced MPS run past the entanglement estimate
  // still executes (it truncates to chi), a forced dense run past the cap
  // does not (the state cannot be allocated).
  auto Forced = [&](const char *Name) -> BackendSelection & {
    SimBackend *B = lookup(Name);
    assert(B && "engine missing");
    Sel.Chosen = B;
    const BackendVerdict *V = VerdictFor(Name);
    Sel.Reason = "forced by --backend " + std::string(Name);
    Sel.Supported = V && V->Eligible;
    if (std::string(Name) == "mps" && V && !V->Eligible) {
      // Re-derive executability without the exactness conditions: past
      // the entanglement estimate the engine still runs (truncating to
      // chi) — but a noise model would be silently ignored, so that
      // stays unsupported.
      bool CanRun = B->supports(C, P) && !Noise;
      Sel.Supported = CanRun;
      if (CanRun)
        Sel.Reason += "; " + V->Why;
    }
    return Sel;
  };
  switch (Kind) {
  case BackendKind::Statevector:
    return Forced("sv");
  case BackendKind::Stabilizer:
    return Forced("stab");
  case BackendKind::MPS:
    return Forced("mps");
  case BackendKind::Auto:
    break;
  }

  // Auto: polynomial tableau first, the dense engine for anything that
  // fits in memory, the tensor network for wide-but-lowly-entangled
  // circuits — in that order, each only when exact.
  for (const char *Name : {"stab", "sv", "mps"}) {
    const BackendVerdict *V = VerdictFor(Name);
    if (V && V->Eligible) {
      Sel.Chosen = lookup(Name);
      Sel.Supported = true;
      Sel.Reason = V->Why;
      return Sel;
    }
  }
  Sel.Chosen = Backends.front().get();
  Sel.Supported = false;
  Sel.Reason = "no registered backend supports this circuit";
  return Sel;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> Names;
  for (const std::unique_ptr<SimBackend> &B : Backends)
    Names.push_back(B->name());
  return Names;
}
