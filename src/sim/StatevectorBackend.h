//===- StatevectorBackend.h - Dense state-vector engine -------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense amplitude engine — the stand-in for qir-runner (§7) — behind
/// the SimBackend interface. Exact for every gate kind at any control
/// count, memory-bound at 2^n amplitudes; the qubit cap derives from
/// available physical memory.
///
/// Every kernel is a branch-free strided sweep (QuEST-style): instead of
/// filtering all 2^n indices with an `(Idx & Mask) == Mask` test, the
/// kernels enumerate exactly the 2^(n-c-1) relevant pair indices by bit
/// insertion over the target/control bits. Two gate families need no 2x2
/// product and keep their own kernels at any control count: a phase on |1>
/// alone (Z/S/Sdg/T/Tdg/P) is a strided phase sweep, and X a pair
/// permutation. Every other single-target gate is a 2x2 product. Fused
/// blocks (Fusion.h, one qubit up to three) and every
/// uncontrolled 2x2 (lone H/Y/RX/RY/RZ, Kraus branches) apply through one
/// SIMD kernel: a 64-byte vector holds one local basis state of four
/// groups, the lanes being the two lowest index bits outside the support
/// (128-bit shuffles move whole amplitudes into lane order when the
/// support holds index bit 0 or 1), and each output row sums only its
/// nonzero entries. A controlled 2x2 takes a strided loop.
///
/// Batch runs fuse the circuit, simulate the unconditional gate prefix
/// once, fork the state per shot, and run the shots on a work-stealing
/// thread pool — all without changing per-shot RNG consumption, so every
/// worker count replays the outcomes of the serial, unfused run(), up to
/// floating-point rounding of the fused matrices. When everything after
/// the prefix is unconditional measure and reset (the usual end of a
/// Qwerty kernel), no shot forks at all: the batch walks one trie of
/// outcome prefixes. Shots that have drawn the same outcomes so far hold
/// identical collapsed registers, so each node sums its probability once,
/// lets each of its shots draw from the shot's own stream, and collapses
/// once per outcome drawn, keeping only the survivors: every new qubit
/// measured halves the amplitudes the next step reads. The walk's small
/// subtrees run one per worker. The shared prefix, the walk's large nodes
/// and, in the low-shot/large-n regime, every forked shot split each
/// kernel's index range across the workers (`setParallelJobs`); all
/// probability reductions use a fixed chunked summation order, so
/// amplitude-parallel execution is bit-identical across worker counts —
/// and bit-identical to the serial reference.
///
/// Convention: qubit 0 is the leftmost qubit and occupies the most
/// significant bit of a basis-state index, matching the eigenbit convention
/// of the basis library.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SIM_STATEVECTORBACKEND_H
#define ASDF_SIM_STATEVECTORBACKEND_H

#include "sim/Backend.h"
#include "sim/Fusion.h"

#include <complex>
#include <random>

namespace asdf {

struct KrausChannel;
class NoiseModel;

using Amplitude = std::complex<double>;

/// A dense quantum state over a fixed number of qubits.
class StateVector {
public:
  explicit StateVector(unsigned NumQubits);

  unsigned numQubits() const { return NumQubits; }
  const std::vector<Amplitude> &amplitudes() const { return Amp; }
  std::vector<Amplitude> &amplitudes() { return Amp; }

  /// Sets the state to the computational basis state |index>.
  void setBasisState(uint64_t Index);

  /// Applies one gate (with controls).
  void apply(GateKind G, const std::vector<unsigned> &Controls,
             const std::vector<unsigned> &Targets, double Param);

  /// Applies a fused block: the 2^m x 2^m row-major unitary \p U over
  /// \p Qubits (1 to MaxBlockQubits of them, sorted ascending, Qubits[0]
  /// = local MSB, matching FusedOp::Qubits) in one sweep. Each output
  /// amplitude is the row product summed over the columns in ascending
  /// order, bit for bit, whatever the worker count: the kernel skips
  /// exact-zero entries, whose terms would add only +-0 to a sum that
  /// starts at +0. SimStats::FusedBlocks counts blocks of 2+ qubits.
  void applyBlock(const std::vector<unsigned> &Qubits,
                  const std::vector<Amplitude> &U);

  /// Applies a coalesced diagonal sweep: one pass over the amplitudes,
  /// multiplying in every matching entry's phase.
  void applyDiagSweep(const std::vector<DiagEntry> &Entries);

  /// Splits every subsequent kernel's index range across \p Jobs workers
  /// (amplitude-level parallelism). 1 restores serial kernels. Any value
  /// produces bit-identical amplitudes: per-amplitude updates are
  /// independent and reductions use a fixed chunked summation order.
  void setParallelJobs(unsigned Jobs) { ParJobs = Jobs < 1 ? 1 : Jobs; }

  /// Attaches per-run simulation counters (null detaches). Non-owning;
  /// fields are plain, so concurrently-running shots must each attach
  /// their own instance and merge() at the join.
  void setStats(SimStats *S) { Stats = S; }
  SimStats *stats() const { return Stats; }

  /// Quantum-trajectory step: samples one Kraus branch of \p Ch on qubit
  /// \p Q — branch k with probability ||K_k |psi>||^2 — and applies
  /// K_k / sqrt(p_k), counting the draw into the attached SimStats.
  /// Consumes exactly one uniform draw, so RNG consumption is identical on
  /// every execution plan.
  void applyChannel(unsigned Q, const KrausChannel &Ch, std::mt19937_64 &Rng);

  /// Measures qubit \p Q; collapses the state. \p Rng drives sampling.
  bool measure(unsigned Q, std::mt19937_64 &Rng);

  /// Resets qubit \p Q to |0> (measure and correct).
  void reset(unsigned Q, std::mt19937_64 &Rng);

  /// Probability that qubit \p Q reads 1.
  double probOne(unsigned Q) const;

  /// Inner-product magnitude |<other|this>|.
  double overlap(const StateVector &Other) const;

private:
  unsigned NumQubits;
  std::vector<Amplitude> Amp;
  unsigned ParJobs = 1;      ///< Amplitude-parallel worker count.
  SimStats *Stats = nullptr; ///< Optional per-run counters.

  uint64_t qubitBit(unsigned Q) const {
    return uint64_t(1) << (NumQubits - 1 - Q);
  }

  /// Strided kernel: Amp[i] *= Phase for the 2^(n-k) indices with all k
  /// Mask bits set — no index filtering.
  void phaseSweep(uint64_t Mask, Amplitude Phase);
  /// Strided kernel: swap the target pair wherever all controls are set.
  void pairSwap(uint64_t CtlMask, uint64_t Bit);
  /// Every 2x2 that is neither X nor a phase on |1> alone, at any control
  /// count: uncontrolled, the block kernel; controlled, a strided loop.
  void matrix2Kernel(uint64_t CtlMask, uint64_t Bit, const Mat2 &U);

  void bumpStats(uint64_t Touched, bool Fused, bool Block = false) const;
};

/// The survivors of a run of collapses: the amplitudes of the full-state
/// indices i with (i & FixedMask) == FixedVals, ascending by index. Every
/// other amplitude of the state is zero. A CollapsedRegister holds one;
/// so does each node of runBatch's measure/reset tail walk.
struct CollapsedState {
  const Amplitude *Amp = nullptr;
  uint64_t Size = 0;
  /// The collapsed qubits' bits in full-state index space, and their
  /// values.
  uint64_t FixedMask = 0, FixedVals = 0;
};

/// One shot's measure/reset tail, run on the survivors of its collapses
/// instead of on a fork of the full state: the per-shot form of the tail
/// walk runBatch takes, built from the same steps. The register starts as
/// a view of a prefix state; each collapse of a new qubit writes only the
/// kept half, divided by the same norm StateVector::measure divides by,
/// into a scratch of 2^(n-1) amplitudes, so the next measurement sweeps
/// half as many. Measuring or resetting a qubit that is already collapsed
/// reads its survivors (collapsed to 1) or nothing (collapsed to 0: an
/// exact zero probability), and a reset's X only flips the qubit's fixed
/// value.
///
/// Bit-exact with StateVector by construction: every draw and norm is the
/// same computation, and every probability is summed over the full
/// state's fixed chunk grid in ascending index order — the skipped
/// amplitudes are exact zeros, which change no partial sum.
class CollapsedRegister {
public:
  /// Restarts on \p S without copying it: the first collapse reads S and
  /// writes into this register's own scratch (allocated once, 2^(n-1)
  /// amplitudes). S must stay unchanged until the shot ends.
  void start(const StateVector &S);
  /// Restarts on \p S and collapses inside S's own buffer (no scratch):
  /// for a single shot that consumes the state.
  void startInPlace(StateVector &S);

  /// As StateVector::setParallelJobs (the sums and the collapses split
  /// across workers).
  void setParallelJobs(unsigned Jobs) { ParJobs = Jobs < 1 ? 1 : Jobs; }

  /// Measures qubit \p Q, exactly as StateVector::measure would.
  bool measure(unsigned Q, std::mt19937_64 &Rng);
  /// Resets qubit \p Q to |0>, exactly as StateVector::reset would.
  void reset(unsigned Q, std::mt19937_64 &Rng);

  /// The probability of reading 1 the last measure or reset sampled
  /// against.
  double lastProbOne() const { return LastProbOne; }
  /// The survivors (CollapsedState).
  const Amplitude *survivors() const { return State.Amp; }
  uint64_t size() const { return State.Size; }
  uint64_t fixedMask() const { return State.FixedMask; }
  uint64_t fixedValues() const { return State.FixedVals; }

private:
  unsigned NumQubits = 0;
  CollapsedState State;
  Amplitude *Scratch = nullptr; ///< Where collapses write.
  std::vector<Amplitude> Own;   ///< The scratch, unless collapsing in place.
  unsigned ParJobs = 1;
  double LastProbOne = 0.0;

  void begin(const StateVector &S, Amplitude *Dst);
};

/// The dense engine as a SimBackend ("sv").
class StatevectorBackend : public SimBackend {
public:
  const char *name() const override { return "sv"; }
  bool supports(const Circuit &C, const CircuitProfile &P) const override;
  /// The serial, unfused reference path: the differential tests pin
  /// runBatch and runSweep against this at every worker count.
  ShotResult run(const Circuit &C, uint64_t Seed) const override;
  /// The serial, unfused noisy reference: one quantum trajectory, sampling
  /// a Kraus branch per attached channel after each gate and readout error
  /// after each measurement, all from the shot's RNG stream.
  ShotResult runNoisy(const Circuit &C, uint64_t Seed,
                      const NoiseModel &Noise) const override;
  /// The execution-plan path: fuses the circuit, simulates the
  /// unconditional prefix once (amplitude-parallel), then spends the
  /// Opts.Jobs worker budget on the rest of each shot — shot-parallel
  /// per-worker forks when there are at least two shots per worker or the
  /// state is too small to split, amplitude-parallel kernels otherwise
  /// (the low-shot/large-n regime). A remainder of only unconditional
  /// measure/reset forks nothing: the shots walk one trie of outcome
  /// prefixes, each node summed and collapsed once for all of its shots.
  /// With Opts.Noise, runs quantum trajectories: noisy gates act as fusion
  /// barriers and close the shared prefix. Every worker count returns the
  /// per-shot bits of run() (runNoisy() with noise), up to floating-point
  /// rounding of the fused matrices.
  std::vector<ShotResult> runBatch(const Circuit &C, unsigned Shots,
                                   uint64_t Seed,
                                   const RunOptions &Opts) const override;
  using SimBackend::runBatch;
  /// The parametric fast path: plans the fusion once (planFusion reads no
  /// angle), then per point binds the parameters and builds the fused ops
  /// from that plan before running the batch core — bit-identical to
  /// recompiling and fusing per point, at every worker count.
  std::vector<std::vector<ShotResult>>
  runSweep(const Circuit &C, const std::vector<std::vector<double>> &Points,
           unsigned Shots, uint64_t Seed,
           const RunOptions &Opts) const override;
  /// The dense engine executes any Kraus model.
  bool supportsNoise(const NoiseModel &Noise) const override;

  /// Shots per walk of a measure/reset tail: a group's RNG streams (2.4
  /// KiB of mt19937_64 state each, 10 MiB in all) live for the whole walk.
  static constexpr unsigned TailGroupShots = 4096;

  /// Absolute cap regardless of memory: 2^30 amplitudes (16 GiB) keeps
  /// index arithmetic and allocation sizes comfortably in range.
  static constexpr unsigned HardMaxQubits = 30;

  /// Widest circuit the dense engine accepts, derived from available
  /// physical memory (the shared state plus one per-shot fork within half
  /// of it — one state per quarter; runBatch shrinks its worker count to
  /// stay inside the same budget), falling back to 26 when the OS won't
  /// say. Never exceeds HardMaxQubits.
  static unsigned maxQubits();
};

} // namespace asdf

#endif // ASDF_SIM_STATEVECTORBACKEND_H
