//===- StabilizerBackend.h - CHP tableau engine ---------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aaronson-Gottesman CHP simulation ("Improved Simulation of Stabilizer
/// Circuits", PRA 70, 052328): the state of an n-qubit Clifford circuit is
/// the stabilizer group of the state, held as a 2n x 2n binary tableau
/// of destabilizer/stabilizer generator rows plus sign bits. Every Clifford
/// gate is an O(n) column update and measurement is O(n^2) worst case, so
/// thousand-qubit Clifford circuits (GHZ ladders, teleportation networks,
/// syndrome extraction) run in milliseconds where dense amplitudes would
/// need 2^n doubles.
///
/// Rows are packed 64 qubits per word; the row-product sign is computed
/// word-parallel with popcounts rather than per-bit (the hot loop of the
/// original chp.c).
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SIM_STABILIZERBACKEND_H
#define ASDF_SIM_STABILIZERBACKEND_H

#include "sim/Backend.h"

#include <random>

namespace asdf {

class NoiseModel;
struct PauliNoisePlan;

/// What one measurement did, recorded for the Pauli-frame sampler
/// (noise/PauliFrame.h): whether the outcome was random and, if so, the
/// stabilizer that anticommuted with the measured Z — the Pauli that maps
/// the post-measurement state of one outcome onto the other's.
struct MeasureRecord {
  bool Random = false;
  /// The anticommuting stabilizer, packed 64 qubits per word (random
  /// outcomes only; sign omitted — frames track Paulis up to phase).
  std::vector<uint64_t> AntiX, AntiZ;
};

/// The destabilizer/stabilizer tableau of an n-qubit stabilizer state,
/// starting at |0...0>.
class Tableau {
public:
  explicit Tableau(unsigned NumQubits);

  unsigned numQubits() const { return N; }

  // Clifford generators (CHP primitives).
  void h(unsigned Q);
  void s(unsigned Q);
  void cx(unsigned Ctl, unsigned Tgt);

  // Derived Cliffords.
  void sdg(unsigned Q);
  void x(unsigned Q);
  void y(unsigned Q);
  void z(unsigned Q);
  void cy(unsigned Ctl, unsigned Tgt);
  void cz(unsigned A, unsigned B);
  void swapQubits(unsigned A, unsigned B);

  /// Measures qubit \p Q in the computational basis, collapsing the state.
  /// \p Rng decides random outcomes (when some stabilizer anticommutes with
  /// Z_Q); deterministic outcomes consume no randomness. \p Rec, if given,
  /// receives what the frame sampler needs to replay this collapse.
  bool measure(unsigned Q, std::mt19937_64 &Rng, MeasureRecord *Rec = nullptr);

  /// True if measuring \p Q would give a deterministic outcome; sets
  /// \p Outcome without collapsing anything.
  bool isDeterministic(unsigned Q, bool &Outcome) const;

  /// Resets qubit \p Q to |0> (measure and correct).
  void reset(unsigned Q, std::mt19937_64 &Rng);

private:
  unsigned N;     ///< Qubit count.
  unsigned Words; ///< 64-bit words per row.
  /// Row-major bit matrices, 2N rows: rows [0,N) are destabilizers,
  /// [N,2N) stabilizers.
  std::vector<uint64_t> X, Z;
  std::vector<uint8_t> R; ///< Sign bit per row (1 == negative).

  uint64_t *xRow(unsigned I) { return &X[size_t(I) * Words]; }
  uint64_t *zRow(unsigned I) { return &Z[size_t(I) * Words]; }
  const uint64_t *xRow(unsigned I) const { return &X[size_t(I) * Words]; }
  const uint64_t *zRow(unsigned I) const { return &Z[size_t(I) * Words]; }
  bool xBit(unsigned I, unsigned Q) const {
    return (xRow(I)[Q >> 6] >> (Q & 63)) & 1;
  }
  bool zBit(unsigned I, unsigned Q) const {
    return (zRow(I)[Q >> 6] >> (Q & 63)) & 1;
  }

  /// Row H *= row I as Pauli group elements, sign included.
  void rowMult(unsigned H, unsigned I);
  /// Row H = row I.
  void rowCopy(unsigned H, unsigned I);
  /// Row H = +Z_Q (post-measurement stabilizer).
  void rowSetZ(unsigned H, unsigned Q);
};

/// The tableau engine as a SimBackend ("stab"). Supports Clifford circuits
/// — gates classified by isCliffordInstr — with measurement, reset, and
/// classical feed-forward, at any width, ideal or under a Pauli-only noise
/// model. run() and runNoisy() execute one shot on its own tableau, with
/// sampled Paulis injected after noisy gates (O(n) sign updates each).
/// They are the reference every batch reproduces bit for bit:
///
///   - no feed-forward: the circuit runs once as a tableau reference and
///     every shot, ideal or noisy, propagates a Pauli frame through it
///     (noise/PauliFrame.h) — O(gates) bit operations per shot;
///   - feed-forward: each shot is an independent tableau run.
class StabilizerBackend : public SimBackend {
public:
  const char *name() const override { return "stab"; }
  bool supports(const Circuit &C, const CircuitProfile &P) const override;
  ShotResult run(const Circuit &C, uint64_t Seed) const override;
  /// Pauli-only models only (supportsNoise).
  ShotResult runNoisy(const Circuit &C, uint64_t Seed,
                      const NoiseModel &Noise) const override;
  /// Shot S equals run() (or runNoisy()) with deriveShotSeed(Seed, S):
  /// Pauli frames on one shared reference without feed-forward, per-shot
  /// tableaus with it. Checks the deadline before every shot.
  std::vector<ShotResult> runBatch(const Circuit &C, unsigned Shots,
                                   uint64_t Seed,
                                   const RunOptions &Opts) const override;
  using SimBackend::runBatch;
  /// True exactly for Pauli-only models.
  bool supportsNoise(const NoiseModel &Noise) const override;
};

/// Applies one (already validated Clifford) gate instruction to \p T.
/// Shared by the backend's execution loops and the Pauli-frame reference
/// run (noise/PauliFrame.cpp), so gate semantics can never diverge.
void applyCliffordInstr(Tableau &T, const CircuitInstr &I);

} // namespace asdf

#endif // ASDF_SIM_STABILIZERBACKEND_H
