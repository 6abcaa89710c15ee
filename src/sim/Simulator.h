//===- Simulator.h - Circuit execution facade ------------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The convenience entry points for executing flat circuits — the stand-in
/// for qir-runner (§7) — over the pluggable backend subsystem (Backend.h).
/// `simulate` and `runShots` auto-dispatch by default: Clifford circuits run
/// on the CHP stabilizer tableau (thousands of qubits), everything else on
/// the dense statevector engine. `runCircuit` is the one run path of the
/// tools: `asdfc --emit run` and the service's run and bind-run requests
/// all select, run and render through it. Tests and examples that poke
/// amplitudes directly keep using `StateVector` (StatevectorBackend.h,
/// re-exported here).
///
/// Convention: qubit 0 is the leftmost qubit and occupies the most
/// significant bit of a basis-state index, matching the eigenbit convention
/// of the basis library.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SIM_SIMULATOR_H
#define ASDF_SIM_SIMULATOR_H

#include "sim/Backend.h"
#include "sim/CircuitAnalysis.h"
#include "sim/StatevectorBackend.h"

#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace asdf {

/// Executes \p C once from |0...0>, honoring measurements, resets, and
/// classical conditions, on the backend selected by \p Backend.
ShotResult simulate(const Circuit &C, uint64_t Seed = 0,
                    BackendKind Backend = BackendKind::Auto);

/// Executes \p C \p Shots times, returning outcome frequencies keyed by the
/// classical bit string (bit 0 first). Each shot's seed derives from
/// (\p Seed, shot index) via deriveShotSeed, so shots are independent yet
/// the whole run replays deterministically — including under the
/// shot-parallel, gate-fused execution plan selected by \p Opts.
std::map<std::string, unsigned>
runShots(const Circuit &C, unsigned Shots, uint64_t Seed = 0,
         BackendKind Backend = BackendKind::Auto,
         const RunOptions &Opts = RunOptions());

/// Renders one shot's classical outcome as the entry function's returned
/// bit string: one character per OutputBits entry, with the constant
/// pseudo-bits (-2 = literal '1', -3 = literal '0') folded in: one stdout
/// line of `asdfc --emit run`, one result of a daemon run (runCircuit).
std::string formatShotBits(const Circuit &C, const ShotResult &Shot);

/// The line printed before sweep point \p P's shots by `asdfc --sweep` and
/// `asdf-cli bind-run`: "# point P: name=value, ...", each value in
/// shortest round-trip form.
std::string formatPointHeader(size_t P, const std::vector<std::string> &Names,
                              const std::vector<double> &Values);

/// What runCircuit runs; only values its callers already pass.
struct RunSpec {
  BackendKind Backend = BackendKind::Auto;
  unsigned Shots = 1;
  uint64_t Seed = 0;
  /// Sweep points, one value per Circuit::ParamNames entry each. Empty:
  /// one plain run at Seed; else point P runs bound to Points[P] at
  /// deriveSweepPointSeed(Seed, P).
  std::vector<std::vector<double>> Points;
  /// Opts.Noise also steers engine selection.
  RunOptions Opts;
};

/// What runCircuit decided and, when it ran, produced.
struct RunReport {
  enum class Outcome {
    Refused,     ///< A plain run of a parametric circuit; see Refusal.
    Unsupported, ///< The selected engine cannot run the circuit.
    Declined,    ///< The caller's gate stopped the run.
    Ran,         ///< Bits holds the shots.
  };
  Outcome Result = Outcome::Refused;
  std::string Refusal; ///< Names every unbound $-parameter.
  /// The circuit's classification and the engine decision with every
  /// backend's verdict; set unless Refused.
  CircuitProfile Profile;
  BackendSelection Selection;
  /// Bits[P][S] is shot S of point P as formatShotBits renders it; a plain
  /// run is the single point 0.
  std::vector<std::vector<std::string>> Bits;
};

/// Runs \p C as \p Spec says and renders its bits. In order: refuses a
/// plain run of a circuit with unbound parameters; analyzes the circuit
/// and selects the engine with reasons; stops if that engine cannot run
/// it; hands the report to \p Gate, if any, before any simulator state
/// exists (returning false declines the run: `asdfc --explain-backend`
/// stops there and the service reserves dense memory there); runs one
/// batch, or one sweep when Spec.Points is non-empty; formats every shot.
/// Throws DeadlineExceeded when Spec.Opts.Deadline passes mid-run.
RunReport runCircuit(const Circuit &C, const RunSpec &Spec,
                     const std::function<bool(const RunReport &)> &Gate =
                         nullptr);

/// Total-variation distance between two outcome-frequency maps (as
/// returned by runShots), each over \p Shots samples: half the L1
/// distance of the empirical distributions, in [0, 1]. The common currency
/// of the cross-engine distribution parity checks in tests and benches.
double tvDistance(const std::map<std::string, unsigned> &A,
                  const std::map<std::string, unsigned> &B, unsigned Shots);

/// Computes the full unitary of a measurement-free circuit by simulating
/// every basis input. Requires C.NumQubits <= 10. Column k is U|k>.
std::vector<std::vector<Amplitude>> circuitUnitary(const Circuit &C);

/// True if two unitaries agree up to a global phase.
bool unitariesEquivalent(const std::vector<std::vector<Amplitude>> &A,
                         const std::vector<std::vector<Amplitude>> &B,
                         double Tol = 1e-9);

} // namespace asdf

#endif // ASDF_SIM_SIMULATOR_H
