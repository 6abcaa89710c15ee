//===- Fusion.h - Gate fusion for the dense execution plan ----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gate-fusion pass of the dense execution plan. A flat circuit applies
/// every gate as its own sweep over all 2^n amplitudes, so rotation-dense
/// circuits (Grover diffusers, QFT tails) are bound by memory passes, not
/// arithmetic. `fuseCircuit` rewrites the instruction stream into a
/// `FusedCircuit` of coarser ops the statevector engine consumes:
///
///   - **multi-qubit block fusion** (qsim-style): adjacent gates whose
///     combined support stays within MaxBlockQubits (3 qubits, 8x8
///     matrices) greedily accumulate into one
///     `FusedOp::Block` applied in a single gather/scatter sweep — CX
///     ladders interleaved with rotation runs collapse into a handful of
///     block sweeps. Open blocks on disjoint supports accumulate
///     independently (adjacent up to commuting instructions on other
///     wires) and merge when a spanning gate arrives. A block that never
///     grew past one wire flushes as a one-qubit Block (or a diagonal
///     entry when the product stayed diagonal);
///   - **diagonal coalescing**: consecutive diagonal ops — controlled
///     phases (CZ/CP/CCZ/CRZ...) on wires with no open block and fused
///     runs that stayed diagonal (S·T·RZ chains) — merge into a single
///     phase sweep that applies every entry in one pass over the state.
///     Diagonal gates landing on an open block's support are absorbed into
///     the block instead, so H·S·H sandwiches still fuse;
///   - everything else (gates wider than a block, measurement, reset,
///     classically-conditioned instructions) passes through by reference
///     into the original instruction. A gate that ends up alone in its
///     block also passes through, and the engine picks its kernel from
///     the gate kind.
///
/// Fusion is exact: the fused stream applies the same operator product in
/// the same order (up to commuting disjoint-wire reorderings), and
/// measurements/resets/feed-forward act as full barriers, so per-shot RNG
/// consumption is identical to the unfused path. Amplitudes may differ from
/// unfused execution only by floating-point rounding of the pre-multiplied
/// matrices.
///
/// Fusion runs in two halves. `planFusion` makes every grouping decision
/// from instruction kinds, supports and noise barriers alone, never from
/// an angle; `buildFusedCircuit` computes the matrices and emits the ops.
/// `fuseCircuit` runs both. A parameter sweep plans once and builds once
/// per bound point, and every point's plan is the one `fuseCircuit` gives
/// the bound circuit, bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SIM_FUSION_H
#define ASDF_SIM_FUSION_H

#include "qcirc/Circuit.h"

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

namespace asdf {

class NoiseModel;

/// One 2x2 complex matrix (row-major): a single-qubit gate or Kraus operator.
struct Mat2 {
  std::complex<double> M[2][2];

  static Mat2 identity() { return {{{1, 0}, {0, 1}}}; }
};

/// The 2x2 matrix of an uncontrolled single-qubit gate. Asserts on Swap.
Mat2 gateMatrix2(GateKind G, double Theta);

/// The phases diagonal gate \p G puts on |0> and |1> of its target
/// (applied only where every control reads 1): the diagonal of
/// gateMatrix2. False, leaving \p P0 and \p P1 alone, if \p G is not
/// diagonal.
bool diagonalPhases(GateKind G, double Theta, std::complex<double> &P0,
                    std::complex<double> &P1);

/// One entry of a coalesced diagonal sweep, in basis-index space: indices
/// with all CtlMask bits set pick up Phase0 or Phase1 depending on the
/// target bit; all other indices are untouched.
struct DiagEntry {
  uint64_t CtlMask = 0;
  uint64_t TargetBit = 0;
  std::complex<double> Phase0{1.0, 0.0};
  std::complex<double> Phase1{1.0, 0.0};
};

/// The widest combined support a fused Block may accumulate: 8x8
/// matrices. A block's arithmetic per amplitude grows as 4^k while the
/// memory passes it saves grow far slower, and another width rounds the
/// fused matrices differently, so a change needs its own measurements.
inline constexpr unsigned MaxBlockQubits = 3;

/// One op of the fused execution plan.
struct FusedOp {
  enum class Kind {
    Diag,  ///< Coalesced diagonal sweep (one memory pass, many entries).
    Block, ///< Fused block: 2^m x 2^m unitary on Qubits, m from 1 up.
    Instr, ///< Pass-through: Source->Instrs[InstrIndex].
  };

  Kind TheKind = Kind::Instr;
  std::vector<DiagEntry> Diag;  ///< Diag only.
  size_t InstrIndex = 0;        ///< Instr only.
  /// Block only: the support, sorted ascending by qubit number. Qubits[0]
  /// owns the most significant bit of the local 2^m basis index, matching
  /// the global eigenbit convention.
  std::vector<unsigned> Qubits;
  /// Block only: row-major 2^m x 2^m matrix over the local basis.
  std::vector<std::complex<double>> BlockU;
};

/// The fused execution plan for one circuit. Holds a pointer into the
/// source circuit for pass-through instructions; the source must outlive
/// the plan.
struct FusedCircuit {
  const Circuit *Source = nullptr;
  std::vector<FusedOp> Ops;
  /// Ops before the first measurement/reset/conditional instruction — the
  /// deterministic prefix shared by every shot (mirrors
  /// CircuitProfile::UnconditionalGatePrefix at op granularity).
  size_t UnconditionalPrefixOps = 0;

  // Plan statistics, for diagnostics and the --emit run stderr summary.
  size_t GatesIn = 0;       ///< Gate instructions consumed.
  size_t GatesFused = 0;    ///< Gates folded into Diag/Block ops.
  size_t SweepsCoalesced = 0; ///< Diagonal ops merged into a neighbor.
  size_t BlocksFormed = 0;  ///< Multi-qubit Block ops emitted.
  size_t WidestBlock = 0;   ///< Largest multi-qubit Block support emitted.

  /// "123 gates -> 41 ops (96 fused, 7 blocks <= 3q, 12 sweeps coalesced)"
  std::string summary() const;
};

/// True if \p I is a full fusion barrier: measurement, reset, and
/// feed-forward must see exactly the state (and consume exactly the
/// randomness) the unfused program would have at that point. Reusable by
/// anything that must not reorder across these points — the noise
/// subsystem's insertion planning uses it too.
bool isFusionBarrier(const CircuitInstr &I);

/// The angle-free half of fusion: every decision fuseCircuit makes, which
/// gates merge into which blocks, in which order, and where flushes and
/// barriers land, read from instruction kinds, supports and noise barriers
/// alone. `Nodes` say how each block's matrix is built; `Events` are the
/// plan's emissions in order. One plan serves every binding of a
/// parametric circuit's parameters.
struct FusionPlan {
  /// How one block's matrix is built: a gate folded on top of zero or
  /// more earlier blocks (the children, in fold order). Children precede
  /// their parent, and each node folds into at most one parent.
  struct Node {
    size_t InstrIndex = 0;        ///< The gate folded on top.
    std::vector<unsigned> Qubits; ///< Support, sorted; Qubits[0] = MSB.
    std::vector<int> Children;    ///< Earlier nodes folded first, in order.
    /// True for a block seeded directly from gateBlockMatrix (its gate
    /// would overflow the block budget of what it touches); false for the
    /// identity-seeded fold. The two round -0.0 differently.
    bool Direct = false;
  };

  /// One emission of the plan.
  struct Event {
    enum class Kind {
      Instr,    ///< Pass-through of source instruction InstrIndex.
      DiagGate, ///< Controlled or wide diagonal gate -> one sweep entry.
      Run,      ///< Flushed block: a Diag entry or a Block op, decided
                ///< from the built matrix.
    };
    Kind TheKind = Kind::Instr;
    size_t InstrIndex = 0;  ///< Instr/DiagGate source instruction.
    int Node = -1;          ///< Run: the node to build.
    uint64_t CtlMask = 0;   ///< DiagGate entry placement.
    uint64_t TargetBit = 0; ///< DiagGate entry placement.
  };

  std::vector<Node> Nodes;
  std::vector<Event> Events;
  size_t PrefixEvents = 0; ///< Events before the prefix-closing barrier.
  size_t NumInstrs = 0;    ///< Source instruction count (validation).
  size_t GatesIn = 0;      ///< FusedCircuit::GatesIn of every build.
  size_t GatesFused = 0;   ///< FusedCircuit::GatesFused of every build.
};

/// Plans the fusion of \p C. Never fails; a circuit with nothing to fuse
/// plans pure pass-through. A non-null \p Noise adds channel barriers: a
/// gate with noise attached passes through unfused (trajectory sampling
/// right after it must see the exact unfused state, in program order) and
/// closes the shared unconditional prefix, since it consumes per-shot
/// randomness. Reads no angle, so \p C may be parametric.
FusionPlan planFusion(const Circuit &C, const NoiseModel *Noise);

/// Builds the fused execution plan \p Plan describes for \p C, which must
/// have the structure \p Plan was made from, with every angle concrete
/// (bindCircuit): each block's matrix (identity seed, children in fold
/// order, then the gate on top; or the gate alone for a Direct node), then
/// the ops in event order. The result points into \p C, which must
/// outlive it.
FusedCircuit buildFusedCircuit(const FusionPlan &Plan, const Circuit &C);

/// planFusion, then buildFusedCircuit: the fused execution plan of \p C.
FusedCircuit fuseCircuit(const Circuit &C, const NoiseModel *Noise = nullptr);

/// The full 2^m x 2^m unitary of gate instruction \p I over the qubit set
/// \p Support, which must be sorted ascending and contain every control
/// and target of \p I (it may be wider; extra qubits tensor in as
/// identity). Controls fold in as identity rows/columns where any control
/// bit reads 0. Local basis convention matches FusedOp::Qubits:
/// Support[0] is the most significant local bit; at most
/// MPSBackend::MaxGateSites qubits wide, the widest gate the MPS engine
/// contracts through it. Exposed for the block-fusion property tests.
std::vector<std::complex<double>>
gateBlockMatrix(const CircuitInstr &I, const std::vector<unsigned> &Support);

/// Row-major product A*B of two Dim x Dim matrices ("apply B first").
std::vector<std::complex<double>>
blockMatmul(const std::vector<std::complex<double>> &A,
            const std::vector<std::complex<double>> &B, unsigned Dim);

} // namespace asdf

#endif // ASDF_SIM_FUSION_H
