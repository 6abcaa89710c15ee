//===- Backend.h - Simulation-backend interface and dispatch --------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation-backend subsystem. A `SimBackend` executes flat circuits
/// (§7) and reports which circuits it can run exactly; the `BackendRegistry`
/// owns the three engines and auto-dispatches each circuit to the fastest
/// backend that supports it:
///
///   - `StatevectorBackend` — dense amplitudes, any gate set, <= 26 qubits;
///   - `StabilizerBackend`  — CHP tableau, Clifford + measure + reset +
///     feed-forward, thousands of qubits;
///   - `MPSBackend`         — matrix-product-state tensor network, any gate
///     set at hundreds of qubits when entanglement stays low (bond
///     dimension capped by RunOptions::MpsChi).
///
/// Auto-dispatch consults the cost model (CircuitAnalysis.h): Clifford
/// circuits take the tableau, circuits inside the dense cap take the
/// statevector, and wider circuits whose estimated entanglement fits the
/// bond cap take the MPS engine. `selectWithReasons` exposes the decision
/// and the per-backend rejection reasons (asdfc --explain-backend).
///
/// Shots are made independent-but-reproducible by deriving every shot's RNG
/// seed from the base seed and the shot index with a splitmix64 hash, so the
/// same (circuit, seed, shots) triple replays identically on any backend
/// while no two shots share a stream. That contract is what lets multi-shot
/// runs execute shot-parallel (`RunOptions::Jobs` workers over a
/// work-stealing shot queue) with results still written in shot-index
/// order, bit-identical to the serial path.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SIM_BACKEND_H
#define ASDF_SIM_BACKEND_H

#include "qcirc/Circuit.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace asdf {

struct CircuitProfile;
class NoiseModel;

/// Which backend `simulate`/`runShots` should use.
enum class BackendKind {
  Auto,        ///< Fastest backend that supports the circuit.
  Statevector, ///< Force the dense engine.
  Stabilizer,  ///< Force the tableau engine.
  MPS,         ///< Force the matrix-product-state engine.
};

/// Parses "auto"/"sv"/"stab"/"mps" (also "statevector"/"stabilizer").
/// Returns false on unknown names.
bool parseBackendKind(const std::string &Name, BackendKind &Kind);

/// Derives the RNG seed for shot \p Shot of a run with base seed \p Seed.
/// splitmix64 finalizer: statistically independent streams per shot, yet
/// fully determined by (Seed, Shot).
uint64_t deriveShotSeed(uint64_t Seed, uint64_t Shot);

/// The generator a dense or tableau shot with seed \p Seed draws from:
/// shared by both engines' per-shot and batch paths and by the Pauli-frame
/// sampler, whose shots replay tableau runs bit for bit. The MPS engine
/// salts its own.
std::mt19937_64 shotRng(uint64_t Seed);

/// Derives the base seed for point \p Point of a parameter sweep with base
/// seed \p Seed: the sweep-level analogue of deriveShotSeed, salted so
/// point P's shot streams never collide with the plain runs of \p Seed.
/// Shot S of point P then uses deriveShotSeed(deriveSweepPointSeed(Seed,
/// P), S) — which is also the contract a recompile-per-point reference
/// must follow to reproduce runSweep bit-for-bit.
uint64_t deriveSweepPointSeed(uint64_t Seed, uint64_t Point);

/// Thrown by runBatch/runSweep when RunOptions::Deadline passes mid-run.
/// The cooperative cancellation point sits between shots (and between
/// sweep points), never inside a kernel, so a throw leaves no partially
/// applied gate behind — the run's results are simply abandoned.
class DeadlineExceeded : public std::runtime_error {
public:
  DeadlineExceeded() : std::runtime_error("run deadline exceeded") {}
};

/// Lightweight counters for one run (RunOptions::SimCounters, asdfc
/// --sim-stats and --trajectories, bench JSON), shared by every engine.
/// Plain fields bumped once per kernel application or noise draw, never
/// per amplitude — shot-parallel runners give each worker its own
/// instance and merge() at the join (the counting parallelShotLoop), so
/// no site ever shares a mutable SimStats across threads.
struct SimStats {
  /// Raw gate/measure/reset kernels applied (the fused plan's
  /// pass-through instructions, and every measure and reset). On a dense
  /// measure/reset tail, one per distinct outcome prefix (a node of the
  /// batch's tail walk), not one per shot; so are the tail's amplitudes.
  uint64_t GatesApplied = 0;
  /// Fused ops applied (2x2 runs, diagonal sweeps, multi-qubit blocks).
  uint64_t FusedOps = 0;
  /// Of those, multi-qubit block applications (gather/scatter sweeps).
  uint64_t FusedBlocks = 0;
  /// Amplitudes read or written across all kernels (one updated in place
  /// counts once), the currency of the memory-bound engine (amps/sec =
  /// this over wall time).
  uint64_t AmplitudesTouched = 0;
  /// MPS engine: SVDs run while applying gates and moving the
  /// orthogonality center.
  uint64_t MpsSvds = 0;
  /// MPS engine: SVDs that discarded singular values to honor the chi cap
  /// (zero means the run was exact up to floating-point rounding).
  uint64_t MpsTruncations = 0;
  /// MPS engine: accumulated discarded squared Schmidt weight across
  /// truncating SVDs — a (loose) upper-bound proxy for the infidelity the
  /// chi cap introduced.
  double MpsTruncationError = 0.0;
  /// MPS engine: largest bond dimension any site pair reached.
  uint64_t MpsMaxBond = 0;
  /// Noisy runs: channel applications sampled (a Kraus branch on the
  /// dense engine, a Pauli on the tableau).
  uint64_t ChannelApps = 0;
  /// Noisy runs: non-first Kraus / non-I Pauli branches taken.
  uint64_t ErrorBranches = 0;
  /// Noisy runs: recorded measurement bits flipped by readout error.
  uint64_t ReadoutFlips = 0;

  /// Folds a worker's counts into this instance (caller serializes).
  void merge(const SimStats &Other) {
    GatesApplied += Other.GatesApplied;
    FusedOps += Other.FusedOps;
    FusedBlocks += Other.FusedBlocks;
    AmplitudesTouched += Other.AmplitudesTouched;
    MpsSvds += Other.MpsSvds;
    MpsTruncations += Other.MpsTruncations;
    MpsTruncationError += Other.MpsTruncationError;
    if (Other.MpsMaxBond > MpsMaxBond)
      MpsMaxBond = Other.MpsMaxBond;
    ChannelApps += Other.ChannelApps;
    ErrorBranches += Other.ErrorBranches;
    ReadoutFlips += Other.ReadoutFlips;
  }
};

/// What a run may ask of the engines, threaded through runShots/runBatch.
/// The execution plan itself is each engine's own choice — the dense
/// engine always fuses and decides per run where its workers go — and
/// every plan returns bit-identical per-shot results: shot S always runs
/// with deriveShotSeed(Seed, S) and lands at result index S, regardless
/// of scheduling, and the dense kernels' reductions use a fixed chunked
/// summation order, so even amplitude-parallel execution is bit-identical
/// across worker counts.
struct RunOptions {
  /// Worker threads for multi-shot runs. 0 means one per hardware core;
  /// 1 forces the serial path.
  unsigned Jobs = 0;
  /// MPS bond-dimension cap (chi): every SVD the tensor-network engine
  /// runs keeps at most this many singular values, truncating (and
  /// renormalizing) the rest while accumulating the discarded weight in
  /// SimStats::MpsTruncationError. 0 means unlimited — exact, but memory
  /// and time grow exponentially with entanglement. The default matches
  /// MPSBackend::run(), so runBatch stays bit-identical to per-shot run()
  /// calls at default options. Ignored by the dense and tableau engines.
  unsigned MpsChi = 64;
  /// Noise model for the run (noise/NoiseModel.h); null or empty means
  /// ideal execution. Non-owning — the model must outlive the run. Noisy
  /// shots keep the determinism contract: shot S samples all noise from
  /// the deriveShotSeed(Seed, S) stream, so per-shot bits are still
  /// independent of Jobs. Callers must route the model only to a backend
  /// whose supportsNoise accepts it (auto-dispatch does).
  const NoiseModel *Noise = nullptr;
  /// Optional counters for the run (SimStats): dense kernels, MPS SVDs,
  /// and the noise draws of the dense and tableau engines. Non-owning.
  SimStats *SimCounters = nullptr;
  /// Cooperative deadline: a default-constructed (epoch) time_point means
  /// none. The shot runners check it between shot chunks and runSweep
  /// between points; past the deadline the run throws DeadlineExceeded
  /// instead of finishing. Checks sit outside the kernels, so a run in a
  /// long amplitude sweep finishes that sweep first — the deadline bounds
  /// wasted work, not kernel latency.
  std::chrono::steady_clock::time_point Deadline{};

  /// True if a deadline is set and has passed.
  bool deadlineExpired() const {
    return Deadline.time_since_epoch().count() != 0 &&
           std::chrono::steady_clock::now() >= Deadline;
  }
};

/// Resolves RunOptions::Jobs against the machine alone: 0 becomes
/// std::thread::hardware_concurrency, explicit requests are capped at 4x
/// the core count (oversubscribing a CPU-bound sweep further only risks
/// thread-creation failure). The worker budget for amplitude-parallel
/// kernels, where the shot count does not bound useful parallelism.
unsigned resolveJobCount(unsigned RequestedJobs);

/// As above, additionally clamped to [1, Shots] (minimum 1 even for zero
/// shots): the resolution for shot-parallel loops, where a worker beyond
/// the shot count could only idle.
unsigned resolveJobCount(unsigned RequestedJobs, unsigned Shots);

/// Runs \p Body(Begin, End) over disjoint subranges covering [0,
/// \p NumItems) on up to \p Jobs workers, claiming chunks of at least
/// \p MinChunk items from a shared work queue (idle workers steal the
/// next chunk as they finish — no static partition, so uneven chunk costs
/// balance out). The generalization of the shot loop that the dense
/// engine's amplitude-parallel kernels split their index ranges over.
/// \p Body must be safe to call concurrently for disjoint ranges.
///
/// The calling thread is worker 0. The others are helper threads borrowed
/// from one process-wide set of parked threads: a loop takes up to
/// Jobs - 1 of them, creates one only when none is parked (never more
/// than resolveJobCount's cap in all), and parks them again once each has
/// finished its part. A parked helper spins briefly, then blocks, so an
/// idle process burns no CPU. The worker count is clamped to the number
/// of chunks; Jobs <= 1 or a single chunk degenerates to one
/// Body(0, NumItems) call on this thread. Loops may run concurrently and
/// nest: a loop that finds no helper parked runs with the workers it has,
/// down to the caller alone, and never waits for one. If \p Body throws,
/// the queue drains, the loop waits for its helpers, and the first
/// exception is rethrown here — same observable behavior as the serial
/// loop. Thread-creation failure degrades to fewer workers, never an
/// error.
void parallelIndexLoop(unsigned Jobs, uint64_t NumItems, uint64_t MinChunk,
                       const std::function<void(uint64_t, uint64_t)> &Body);

/// Runs \p Body(Worker, S) for every S in [0, Shots) on \p Jobs worker
/// threads over the chunked work queue of parallelIndexLoop. Worker ids
/// are dense in [0, Jobs), so callers can hoist per-worker scratch (e.g.
/// a forked state per worker instead of per shot) out of the loop. The
/// worker count is clamped to Shots — requesting more workers than work
/// items never borrows an idle helper.
void parallelShotLoop(unsigned Jobs, unsigned Shots,
                      const std::function<void(unsigned, unsigned)> &Body);

/// Worker-agnostic convenience overload: runs \p Body(S) for every shot.
void parallelShotLoop(unsigned Jobs, unsigned Shots,
                      const std::function<void(unsigned)> &Body);

/// The counting overload every engine's shot loop uses: \p Body(Worker, S,
/// Stats) gets its worker's own SimStats (null when \p Counters is null),
/// and every worker's counts merge into \p Counters after the loop ends.
/// SimStats fields are plain, so concurrent shots never share one.
void parallelShotLoop(
    unsigned Jobs, unsigned Shots, SimStats *Counters,
    const std::function<void(unsigned, unsigned, SimStats *)> &Body);

/// The classical outcome of one circuit execution.
struct ShotResult {
  std::vector<bool> Bits; ///< Indexed by classical bit number.

  std::string str() const;
};

/// Abstract interface every simulation engine implements.
class SimBackend {
public:
  virtual ~SimBackend() = default;

  /// Short stable identifier ("sv", "stab") used by --backend and tests.
  virtual const char *name() const = 0;

  /// True if this backend executes \p C exactly. \p P is the precomputed
  /// classification of \p C (see CircuitAnalysis.h).
  virtual bool supports(const Circuit &C, const CircuitProfile &P) const = 0;

  /// Executes \p C once from |0...0>, honoring measurements, resets, and
  /// classical conditions. \p Seed fully determines the outcome. Must be
  /// safe to call concurrently (the shot-parallel runner does).
  virtual ShotResult run(const Circuit &C, uint64_t Seed) const = 0;

  /// Executes one noisy trajectory of \p C (quantum-trajectory Kraus
  /// sampling on the dense engine, Pauli injection on the tableau). The
  /// base implementation ignores \p Noise and runs ideally — callers must
  /// check supportsNoise first; the registry's auto-dispatch does.
  virtual ShotResult runNoisy(const Circuit &C, uint64_t Seed,
                              const NoiseModel &Noise) const;

  /// True if this backend executes \p Noise exactly (the dense engine
  /// takes any Kraus model, the tableau only Pauli-only models). The base
  /// implementation refuses every model.
  virtual bool supportsNoise(const NoiseModel &Noise) const;

  /// Executes \p C \p Shots times, returning outcomes in shot order; shot
  /// S uses seed deriveShotSeed(\p Seed, S), so the result is independent
  /// of \p Opts.Jobs. Shot S replays run() (runNoisy() under
  /// \p Opts.Noise) at that seed; each engine amortizes work across shots
  /// its own way.
  virtual std::vector<ShotResult> runBatch(const Circuit &C, unsigned Shots,
                                           uint64_t Seed,
                                           const RunOptions &Opts) const = 0;
  std::vector<ShotResult> runBatch(const Circuit &C, unsigned Shots,
                                   uint64_t Seed) const {
    return runBatch(C, Shots, Seed, RunOptions());
  }

  /// Executes the parametric circuit \p C once per parameter point:
  /// Results[P] holds the \p Shots outcomes of \p C bound to \p Points[P]
  /// (one value per C.ParamNames entry, bindCircuit order), run with base
  /// seed deriveSweepPointSeed(\p Seed, P). The contract is bit-identity:
  /// Results[P] == runBatch(bindCircuit(C, Points[P]), Shots,
  /// deriveSweepPointSeed(Seed, P), Opts) for every point, on every
  /// backend and execution plan. The default implementation is exactly
  /// that loop; backends override it to reuse work across points (the
  /// dense engine plans fusion once and builds the fused ops per point).
  /// A non-parametric \p C is allowed — each point must then be an empty
  /// value list.
  virtual std::vector<std::vector<ShotResult>>
  runSweep(const Circuit &C, const std::vector<std::vector<double>> &Points,
           unsigned Shots, uint64_t Seed, const RunOptions &Opts) const;

  /// Aggregates runBatch into outcome frequencies keyed by the classical
  /// bit string (bit 0 first).
  std::map<std::string, unsigned>
  runShots(const Circuit &C, unsigned Shots, uint64_t Seed,
           const RunOptions &Opts = RunOptions()) const;
};

/// One registered backend's verdict in a selection decision: whether
/// auto-dispatch may hand it the circuit, and the reason either way.
struct BackendVerdict {
  std::string Name;
  /// True if auto-dispatch may choose this backend for the circuit (it
  /// executes the circuit exactly, noise model included).
  bool Eligible = false;
  /// Human-readable reason — why it qualifies, or why it was rejected
  /// (unsupported feature, qubit cap, entanglement estimate over chi).
  std::string Why;
};

/// The full outcome of one dispatch decision: the chosen engine, the
/// cost-model reasoning behind it, and every registered backend's verdict.
/// Produced by BackendRegistry::selectWithReasons; rendered by
/// `asdfc --explain-backend` and by the unsupported-circuit diagnostics of
/// the driver and the service.
struct BackendSelection {
  /// The resolved engine; never null (a forced kind returns its backend,
  /// Auto falls back to the first registered engine when nothing is
  /// eligible so the caller still has a name to report).
  SimBackend *Chosen = nullptr;
  /// True if Chosen can actually execute the circuit. A forced MPS run
  /// over the entanglement estimate stays supported (it truncates); a
  /// forced dense run over the qubit cap does not.
  bool Supported = false;
  /// Why Chosen was picked ("Clifford-only circuit: ...", "forced by
  /// --backend sv", ...).
  std::string Reason;
  /// One-line cost-model summary (CostModel::summary()).
  std::string CostSummary;
  /// Per-backend verdicts, registration order.
  std::vector<BackendVerdict> Verdicts;

  /// Multi-line human-readable report (--explain-backend).
  std::string describe() const;
  /// Single-line rejection summary ("sv: ...; stab: ...; mps: ...") for
  /// wire-protocol error payloads and one-line diagnostics.
  std::string rejectionSummary() const;
};

/// Owns the three engines and picks one per circuit.
class BackendRegistry {
public:
  /// The process-wide registry: sv, stab and mps, in that order.
  static BackendRegistry &instance();

  /// Finds a backend by name(); null if absent.
  SimBackend *lookup(const std::string &Name) const;

  /// Resolves \p Kind for \p C. Auto consults the cost model: the
  /// stabilizer engine whenever it is exact for the circuit (tableau
  /// updates are polynomial where dense amplitudes are exponential) AND
  /// can execute \p Noise (Pauli-only models; null means ideal); else the
  /// dense engine when the circuit fits the memory-derived qubit cap; else
  /// the MPS engine when the estimated entanglement fits the bond cap.
  /// A forced kind returns that backend even if it does not support \p C
  /// or \p Noise — callers that care check supports()/supportsNoise()
  /// first, or use selectWithReasons. Pass \p Profile if the circuit is
  /// already analyzed; otherwise Auto analyzes it internally.
  SimBackend &select(const Circuit &C, BackendKind Kind,
                     const CircuitProfile *Profile = nullptr,
                     const NoiseModel *Noise = nullptr) const;

  /// As select(), but returns the whole decision: the chosen backend, the
  /// cost-model reasoning, and one verdict per registered backend stating
  /// why it was or was not eligible. \p Opts supplies the MPS chi the
  /// entanglement verdict is measured against.
  BackendSelection selectWithReasons(const Circuit &C, BackendKind Kind,
                                     const RunOptions &Opts = RunOptions(),
                                     const CircuitProfile *Profile = nullptr,
                                     const NoiseModel *Noise = nullptr) const;

  /// Registered backend names, registration order.
  std::vector<std::string> names() const;

private:
  BackendRegistry();
  std::vector<std::unique_ptr<SimBackend>> Backends;
};

} // namespace asdf

#endif // ASDF_SIM_BACKEND_H
