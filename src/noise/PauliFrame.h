//===- PauliFrame.h - Pauli-frame shot sampling for Clifford circuits -----===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stabilizer engine's multi-shot path (Gidney, "Stim: a fast
/// stabilizer circuit simulator", Quantum 5, 497 — the frame simulator
/// idea, rebuilt on our CHP tableau). The noiseless circuit runs ONCE on
/// the tableau as a reference; every shot, ideal or Pauli-noisy, then
/// tracks only a Pauli *frame* F — the Pauli operator relating the shot's
/// state to the reference state — as one (x, z) bit pair per qubit:
///
///   - Clifford gates conjugate the frame in O(1) bit operations
///     (H swaps x/z, S folds x into z, CX spreads x forward / z backward);
///   - sampled noise Paulis multiply into the frame;
///   - a measurement of qubit q reads outcome ref_q XOR F.x(q);
///   - a measurement that was *random* in the reference draws one bit d
///     from the shot's RNG, exactly where Tableau::measure would draw it,
///     and multiplies the frame by the recorded stabilizer that
///     anticommuted with Z_q (the Pauli mapping one collapse branch onto
///     the other) iff d XOR ref_q XOR F.x(q) = 1. The shot's outcome is
///     then d, as in a per-shot tableau run. Pauli frames and noise change
///     only tableau signs, never which measurements are random, so with
///     noise and readout draws taken in the same order every shot is
///     bit-identical to run()/runNoisy() under the same shot seed;
///   - reset clears the frame on its qubit (after the collapse coin).
///
/// One reference tableau run plus O(gates) bit-ops per shot replaces
/// O(n * gates) tableau work per shot. Feed-forward circuits cannot use
/// frames (the instruction sequence itself depends on per-shot bits); the
/// stabilizer backend runs those shot by shot on the tableau.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_NOISE_PAULIFRAME_H
#define ASDF_NOISE_PAULIFRAME_H

#include "noise/NoiseModel.h"
#include "qcirc/Circuit.h"
#include "sim/Backend.h" // ShotResult

#include <cstdint>
#include <vector>

namespace asdf {

/// The ideal reference execution of a feed-forward-free Clifford circuit,
/// holding everything a per-shot frame replay needs: the reference
/// measurement outcomes and, for each random collapse, the anticommuting
/// stabilizer. Build once per batch; sampleShot is const and thread-safe.
class FrameReference {
public:
  /// Runs \p C once on the tableau. Its random outcomes are arbitrary:
  /// every shot replays its own draws. \p C must be Clifford-only with no
  /// classically-conditioned instructions (asserted).
  explicit FrameReference(const Circuit &C);

  /// Samples one shot: propagates a Pauli frame through the circuit,
  /// drawing collapse coins, \p Plan's Pauli noise and \p Noise's readout
  /// errors from the \p ShotSeed stream (both null: an ideal shot), and
  /// counting the noise draws into the worker's \p Stats, if any.
  /// Bit-identical to the tableau run of StabilizerBackend::run or
  /// runNoisy with the same seed and model.
  ShotResult sampleShot(uint64_t ShotSeed, const PauliNoisePlan *Plan,
                        const NoiseModel *Noise, SimStats *Stats) const;

private:
  /// One measure/reset of the reference run, in instruction order.
  struct Event {
    bool Random = false;
    bool RefOutcome = false;
    std::vector<uint64_t> AntiX, AntiZ; ///< Random only.
  };

  const Circuit *C;
  unsigned Words; ///< 64-bit words per frame half.
  std::vector<Event> Events;
};

} // namespace asdf

#endif // ASDF_NOISE_PAULIFRAME_H
