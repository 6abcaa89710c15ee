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
///     grew past one wire flushes as a fused 2x2 unitary (or a diagonal
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
///     block also passes through, keeping the engine's specialized
///     bit-exact kernels for lone gates.
///
/// Fusion is exact: the fused stream applies the same operator product in
/// the same order (up to commuting disjoint-wire reorderings), and
/// measurements/resets/feed-forward act as full barriers, so per-shot RNG
/// consumption is identical to the unfused path. Amplitudes may differ from
/// unfused execution only by floating-point rounding of the pre-multiplied
/// matrices.
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

/// One 2x2 complex matrix (row-major), the currency of single-qubit fusion.
struct Mat2 {
  std::complex<double> M[2][2];

  static Mat2 identity() { return {{{1, 0}, {0, 1}}}; }

  /// True if both off-diagonal entries are exactly zero — guaranteed for
  /// products of diagonal factors (0*x + y*0 stays 0 in IEEE arithmetic).
  bool isDiagonal() const {
    return std::abs(M[0][1]) == 0.0 && std::abs(M[1][0]) == 0.0;
  }
};

/// Matrix product A*B ("apply B first, then A", matching gate order).
Mat2 matmul(const Mat2 &A, const Mat2 &B);

/// The 2x2 matrix of an uncontrolled single-qubit gate. Asserts on Swap.
Mat2 gateMatrix2(GateKind G, double Theta);

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
    Unitary, ///< Fused 2x2 on Target.
    Diag,    ///< Coalesced diagonal sweep (one memory pass, many entries).
    Block,   ///< Fused multi-qubit block: 2^m x 2^m unitary on Qubits.
    Instr,   ///< Pass-through: Source->Instrs[InstrIndex].
  };

  Kind TheKind = Kind::Instr;
  unsigned Target = 0;          ///< Unitary only.
  Mat2 U = Mat2::identity();    ///< Unitary only.
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
  size_t GatesFused = 0;    ///< Gates folded into Unitary/Diag/Block ops.
  size_t SweepsCoalesced = 0; ///< Diagonal ops merged into a neighbor.
  size_t BlocksFormed = 0;  ///< Multi-qubit Block ops emitted.
  size_t WidestBlock = 0;   ///< Largest Block support (qubits) emitted.

  /// "123 gates -> 41 ops (96 fused, 7 blocks <= 3q, 12 sweeps coalesced)"
  std::string summary() const;
};

/// True if \p I is a full fusion barrier: measurement, reset, and
/// feed-forward must see exactly the state (and consume exactly the
/// randomness) the unfused program would have at that point. Reusable by
/// anything that must not reorder across these points — the noise
/// subsystem's insertion planning uses it too.
bool isFusionBarrier(const CircuitInstr &I);

/// The structural record of one fuseCircuit run, the compile-once half of
/// parametric execution. Every grouping decision fuseCircuit makes — which
/// gates merge into which blocks, in which order, where flushes and
/// barriers land — depends only on instruction kinds and supports, never
/// on angle values. A recipe captures those decisions as matrix-product
/// trees (`Nodes`) plus an ordered emission log (`Events`), so
/// `rebindFusedCircuit` can rebuild the plan for a re-bound circuit by
/// recomputing only the angle-dependent matrices — through the very same
/// gateBlockMatrix/embedBlockMatrix/blockMatmul call sequence, so the
/// rebuilt plan is bit-identical to running fuseCircuit afresh on the
/// bound circuit. Subtrees that touch no symbolic parameter keep their
/// recorded matrix and are never recomputed.
struct FusionRecipe {
  /// How one open block's matrix was built: a gate folded on top of zero
  /// or more previously open blocks (the children, in fold order).
  struct Node {
    size_t InstrIndex = 0;        ///< The gate folded on top.
    std::vector<unsigned> Qubits; ///< Support, sorted; Qubits[0] = MSB.
    std::vector<int> Children;    ///< Prior nodes folded first, in order.
    /// True for the budget-overflow path that seeds a block directly from
    /// gateBlockMatrix; false for the identity-seeded merge fold. The two
    /// construction paths round -0.0 differently, so replay must match.
    bool Direct = false;
    bool Symbolic = false;        ///< Subtree reads a symbolic parameter.
    /// Matrix from the recording run; exact for every non-symbolic
    /// subtree (concrete angles never change across binds).
    std::vector<std::complex<double>> CachedU;
  };

  /// One plan-emission decision, replayed in order on rebind.
  struct Event {
    enum class Kind {
      Instr,    ///< Pass-through of source instruction InstrIndex.
      DiagGate, ///< Controlled/wide diagonal gate -> one sweep entry.
      Run,      ///< Flushed block: Diag or Unitary or Block, decided by
                ///< the rebuilt matrix exactly as flushBlock decides.
    };
    Kind TheKind = Kind::Instr;
    size_t InstrIndex = 0;         ///< Instr/DiagGate source instruction.
    int Node = -1;                 ///< Run: recipe node to materialize.
    uint64_t CtlMask = 0;          ///< DiagGate entry placement.
    uint64_t TargetBit = 0;        ///< DiagGate entry placement.
  };

  std::vector<Node> Nodes;
  std::vector<Event> Events;
  size_t PrefixEvents = 0; ///< Events before the prefix-closing barrier.
  size_t NumInstrs = 0;    ///< Source instruction count (validation).
  bool Valid = false;      ///< Set once a fuseCircuit run populated this.

  // Structural plan statistics, copied into every rebuilt plan.
  size_t GatesIn = 0;
  size_t GatesFused = 0;
  size_t BlocksFormed = 0;
  size_t WidestBlock = 0;
};

/// Builds the fused execution plan for \p C. Never fails; a circuit with
/// nothing to fuse comes back as pure pass-through ops. A non-null
/// \p Noise adds channel barriers: a gate with noise attached passes
/// through unfused (trajectory sampling right after it must see the exact
/// unfused state, in program order) and closes the shared unconditional
/// prefix, since it consumes per-shot randomness. A non-null \p Recipe
/// additionally records the structural decisions of this run so
/// rebindFusedCircuit can re-materialize the plan for a re-bound circuit;
/// when \p C is parametric, the returned plan itself is a template —
/// matrices derived from symbolic angles are placeholders — and must not
/// be executed, only rebound.
FusedCircuit fuseCircuit(const Circuit &C, const NoiseModel *Noise = nullptr,
                         FusionRecipe *Recipe = nullptr);

/// Rebuilds the fused plan recorded in \p R for \p Bound — the same
/// circuit structure the recipe was recorded from, with parameters bound
/// to concrete values (bindCircuit). Only matrices whose product tree
/// touches a symbolic parameter are recomputed, through the same
/// floating-point operation sequence fuseCircuit uses, so the result is
/// bit-identical to fuseCircuit(Bound) with the recording run's noise
/// model. The returned plan points into \p Bound, which
/// must outlive it.
FusedCircuit rebindFusedCircuit(const FusionRecipe &R, const Circuit &Bound);

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
