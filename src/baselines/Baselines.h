//===- Baselines.h - Circuit-oriented baseline compilers (§8) -------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gate-level implementations of the five benchmark algorithms in the style
/// of each baseline compiler of §8.1, reproducing the structural choices
/// the paper attributes to them:
///
///  - **Qiskit** (textbook): oracles as gates; multi-controls decomposed
///    with a V-chain of full 7-T Toffolis; IQFT with SWAP gates.
///  - **Quipper**: oracles synthesized from classical logic with an ancilla
///    per intermediate XOR (its Bennett-style synthesis); full-Toffoli
///    multi-controls; renaming-based IQFT swaps (no SWAP gates).
///  - **Q#**: oracles as gates; multi-controls decomposed with Selinger's
///    controlled-iX (RCCX) scheme — the same scheme Asdf uses; IQFT with
///    SWAP gates.
///
/// A common `transpileO3` pass (standing in for the Qiskit -O3 transpiler
/// of the evaluation methodology) is applied to every compiler's output,
/// including Asdf's.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_BASELINES_BASELINES_H
#define ASDF_BASELINES_BASELINES_H

#include "qcirc/Circuit.h"

namespace asdf {

/// Which baseline compiler's style to imitate.
enum class BaselineStyle { Qiskit, Quipper, QSharp };

/// The five benchmark algorithms of §8.1.
enum class BenchAlgorithm { BV, DJ, Grover, Simon, PeriodFinding };

const char *benchAlgorithmName(BenchAlgorithm A);
const char *baselineStyleName(BaselineStyle S);

/// Builds the benchmark circuit for oracle input size \p N. Grover runs
/// min(floor(pi/4 sqrt(2^N)), 12) iterations (the paper's cap).
Circuit buildBaselineCircuit(BenchAlgorithm Alg, BaselineStyle Style,
                             unsigned N);

/// Number of Grover iterations used for input size \p N (capped at 12).
unsigned groverIterations(unsigned N);

/// A gate-cancellation + rotation-merging cleanup pass applied to every
/// compiler's output before estimation (the paper's step (2)). One forward
/// pass keeps a stack of live instructions per qubit: an arriving gate
/// cancels with (or, for P/RX/RY/RZ, merges into) the gate on top of every
/// one of its wires, and a cancellation exposes the gate beneath, so nested
/// compute/uncompute unwinds at once. A pair must act on the same controls
/// and targets, carry the same condition bit and value, and have no
/// measurement into that bit between them. Identity rotations are dropped:
/// P(2πk), uncontrolled RX/RY/RZ(2πk) (a global phase), and controlled
/// RX/RY/RZ(4πk) only, since at 2πk those are a Z on the controls.
Circuit transpileO3(const Circuit &C);

} // namespace asdf

#endif // ASDF_BASELINES_BASELINES_H
