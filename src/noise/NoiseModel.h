//===- NoiseModel.h - Kraus channels and noise-model subsystem ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The noise-model subsystem: NISQ-realistic simulation for the execution
/// engines. A `NoiseModel` attaches single-qubit `KrausChannel`s to the
/// instruction stream — per gate kind, per qubit, or as a catch-all default
/// — plus classical readout error on measurement. The engines consume it
/// two ways:
///
///   - the dense statevector engine runs **quantum trajectories**: after
///     each noisy gate it samples one Kraus branch per attached channel
///     (branch k with probability ||K_k |psi>||^2) from the per-shot RNG
///     stream, so noisy multi-shot runs stay bit-identical at every worker
///     count;
///   - the stabilizer engine requires a **Pauli-only** model (every Kraus
///     operator proportional to I/X/Y/Z) and either propagates sampled
///     Pauli frames through the Clifford circuit (PauliFrame.h) or, with
///     feed-forward, injects sampled Paulis into per-shot tableau runs —
///     polynomial either way, so 500-qubit noisy Clifford circuits stay
///     cheap.
///
/// Channel semantics, fixed and documented so every engine agrees: after a
/// gate instruction executes, for each qubit the instruction touches
/// (targets in order, then controls in order), the gate-kind channels (or
/// the default channels when the kind has none) apply first, then that
/// qubit's per-qubit channels, each in registration order. A
/// classically-conditioned gate that is skipped applies no noise.
/// Measurement readout error flips the *recorded* classical bit (the
/// collapsed state is untouched), so feed-forward conditions see the noisy
/// bit — exactly what hardware does. Reset is noise-free.
///
/// Models parse from a small INI spec (NoiseSpec.h, `asdfc --noise`) or
/// build programmatically via the add*/set* calls below.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_NOISE_NOISEMODEL_H
#define ASDF_NOISE_NOISEMODEL_H

#include "qcirc/Circuit.h"
#include "sim/Fusion.h" // Mat2, the currency of Kraus operators

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace asdf {

struct SimStats;

/// The probabilities of a Pauli channel: Kraus operators proportional to
/// I, X, Y, Z with |scale|^2 summing to one.
struct PauliProbs {
  double PI = 1.0, PX = 0.0, PY = 0.0, PZ = 0.0;
};

/// A single-qubit quantum channel in Kraus form: rho -> sum_k K_k rho K_k'.
/// Trace preservation (sum_k K_k' K_k == I) makes the trajectory branch
/// probabilities sum to one; `isCPTP` verifies it and the engines assume it.
struct KrausChannel {
  std::string Name;      ///< Human-readable, e.g. "depolarizing(0.01)".
  std::vector<Mat2> Ops; ///< The Kraus operators K_k.

  /// True if sum_k K_k' K_k == I within \p Tol (trace preservation; Kraus
  /// form is completely positive by construction).
  bool isCPTP(double Tol = 1e-9) const;

  /// True if every K_k is proportional to a single Pauli matrix; fills
  /// \p P with the summed branch probabilities. Pauli channels are what the
  /// stabilizer engine's frame/tableau paths can execute.
  bool pauliProbs(PauliProbs &P, double Tol = 1e-9) const;

  // Built-in channels. Probabilities/rates must lie in [0, 1].
  static KrausChannel depolarizing(double P);     ///< p/3 each of X, Y, Z.
  static KrausChannel bitFlip(double P);          ///< X with probability p.
  static KrausChannel phaseFlip(double P);        ///< Z with probability p.
  static KrausChannel amplitudeDamping(double Gamma); ///< |1> decays to |0>.
  static KrausChannel phaseDamping(double Lambda);    ///< Coherence decay.
  /// A general channel from explicit Kraus operators (validated by callers
  /// via isCPTP).
  static KrausChannel kraus(std::vector<Mat2> Ops, std::string Name);
};

/// Classical measurement error: the recorded bit flips 0->1 with P0to1 and
/// 1->0 with P1to0; the collapsed quantum state is untouched.
struct ReadoutError {
  double P0to1 = 0.0;
  double P1to0 = 0.0;

  bool trivial() const { return P0to1 <= 0.0 && P1to0 <= 0.0; }
};

/// One channel application site: \p Channel acts on \p Qubit.
struct NoiseOp {
  unsigned Qubit = 0;
  const KrausChannel *Channel = nullptr;
};

/// A noise model: channels keyed by gate kind / qubit plus readout error.
/// Engines hold it by const pointer (RunOptions::Noise); it must outlive
/// the run.
class NoiseModel {
public:
  /// Appends \p Ch to the channels applied (to each touched qubit) after
  /// every gate of kind \p G.
  void addGateChannel(GateKind G, KrausChannel Ch);

  /// Appends \p Ch to the catch-all channels, applied after gates whose
  /// kind has no channel of its own.
  void addDefaultChannel(KrausChannel Ch);

  /// Appends \p Ch to the channels applied to qubit \p Q after every gate
  /// touching it (on top of the gate-kind/default channels).
  void addQubitChannel(unsigned Q, KrausChannel Ch);

  /// Sets the global readout error.
  void setReadoutError(double P0to1, double P1to0);

  /// Overrides the readout error for one qubit.
  void setQubitReadoutError(unsigned Q, double P0to1, double P1to0);

  /// True if the model perturbs nothing (no channels, trivial readout).
  bool empty() const;

  /// True if any gate-attached channel exists (as opposed to readout-only
  /// models, which leave the shared unconditional prefix reusable).
  bool hasGateNoise() const;

  /// True if every channel in the model is a Pauli channel — the condition
  /// for the stabilizer engine to execute the model exactly.
  bool isPauliOnly() const;

  /// True if executing \p I applies at least one channel.
  bool affectsGate(const CircuitInstr &I) const;

  /// The channel applications executing \p I triggers, in the documented
  /// order (per touched qubit: gate-kind-or-default channels, then
  /// per-qubit channels). Empty for non-gate and unaffected instructions.
  std::vector<NoiseOp> noiseFor(const CircuitInstr &I) const;

  /// The readout error for measurements of qubit \p Q (the per-qubit
  /// override if set, else the global error).
  const ReadoutError &readoutFor(unsigned Q) const;

  /// The global readout error, ignoring per-qubit overrides.
  const ReadoutError &globalReadoutError() const { return GlobalReadout; }

  /// The per-qubit override for \p Q, or null if none is set.
  const ReadoutError *qubitReadoutOverride(unsigned Q) const;

  /// Verifies every channel is CPTP and every probability is a
  /// probability. False fills \p Error with the first offender.
  bool validate(std::string &Error) const;

  /// One-line description for diagnostics, e.g.
  /// "2 gate channel(s), 1 qubit channel(s), default: 1, readout: global".
  std::string summary() const;

private:
  std::map<GateKind, std::vector<KrausChannel>> GateChannels;
  std::vector<KrausChannel> DefaultChannels;
  std::map<unsigned, std::vector<KrausChannel>> QubitChannels;
  ReadoutError GlobalReadout;
  std::map<unsigned, ReadoutError> QubitReadout;
};

/// The per-instruction channel applications of \p M over \p C, resolved
/// once per batch so per-shot execution never touches a map.
struct NoisePlan {
  /// Indexed by instruction; empty vectors for unaffected instructions.
  std::vector<std::vector<NoiseOp>> PerInstr;
};
NoisePlan planNoise(const NoiseModel &M, const Circuit &C);

/// One Pauli-sampling site of a Pauli-only model, with cumulative branch
/// thresholds: a uniform draw u picks X if u < CumX, else Y if u < CumXY,
/// else Z if u < CumXYZ, else I.
struct PauliNoiseOp {
  unsigned Qubit = 0;
  double CumX = 0.0, CumXY = 0.0, CumXYZ = 0.0;
};

/// The Pauli-sampling plan of a Pauli-only model over \p C (asserts
/// M.isPauliOnly()). Channel lists compose by sequential sampling, which
/// is exact for Pauli channels.
struct PauliNoisePlan {
  std::vector<std::vector<PauliNoiseOp>> PerInstr;
};
PauliNoisePlan planPauliNoise(const NoiseModel &M, const Circuit &C);

/// Samples one Pauli from \p Op: 0 = I, 1 = X, 2 = Y, 3 = Z, counting the
/// application (and a non-I branch) into the shot's \p Stats, if any.
/// Consumes exactly one uniform draw.
unsigned samplePauli(const PauliNoiseOp &Op, std::mt19937_64 &Rng,
                     SimStats *Stats);

/// Applies \p E to a recorded measurement bit: returns the possibly
/// flipped bit, counting a flip into the shot's \p Stats, if any.
/// Consumes one uniform draw unless \p E is trivial.
bool applyReadoutError(const ReadoutError &E, bool Bit, std::mt19937_64 &Rng,
                       SimStats *Stats);

} // namespace asdf

#endif // ASDF_NOISE_NOISEMODEL_H
