//===- Fusion.cpp - Gate fusion for the dense execution plan --------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Fusion.h"

#include "noise/NoiseModel.h"
#include "obs/Trace.h"
#include "sim/mps/MPSBackend.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace asdf;

using Cplx = std::complex<double>;

static_assert(MaxBlockQubits <= MPSBackend::MaxGateSites,
              "gateBlockMatrix must build every fused block's gates");

Mat2 asdf::matmul(const Mat2 &A, const Mat2 &B) {
  Mat2 R;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      R.M[I][J] = A.M[I][0] * B.M[0][J] + A.M[I][1] * B.M[1][J];
  return R;
}

Mat2 asdf::gateMatrix2(GateKind G, double Theta) {
  const double S2 = 1.0 / std::sqrt(2.0);
  const Cplx I(0.0, 1.0);
  switch (G) {
  case GateKind::X:
    return {{{0, 1}, {1, 0}}};
  case GateKind::Y:
    return {{{0, -I}, {I, 0}}};
  case GateKind::Z:
    return {{{1, 0}, {0, -1}}};
  case GateKind::H:
    return {{{S2, S2}, {S2, -S2}}};
  case GateKind::S:
    return {{{1, 0}, {0, I}}};
  case GateKind::Sdg:
    return {{{1, 0}, {0, -I}}};
  case GateKind::T:
    return {{{1, 0}, {0, std::exp(I * (M_PI / 4.0))}}};
  case GateKind::Tdg:
    return {{{1, 0}, {0, std::exp(-I * (M_PI / 4.0))}}};
  case GateKind::P:
    return {{{1, 0}, {0, std::exp(I * Theta)}}};
  case GateKind::RX:
    return {{{std::cos(Theta / 2), -I * std::sin(Theta / 2)},
             {-I * std::sin(Theta / 2), std::cos(Theta / 2)}}};
  case GateKind::RY:
    return {{{std::cos(Theta / 2), -std::sin(Theta / 2)},
             {std::sin(Theta / 2), std::cos(Theta / 2)}}};
  case GateKind::RZ:
    return {{{std::exp(-I * (Theta / 2)), 0},
             {0, std::exp(I * (Theta / 2))}}};
  case GateKind::Swap:
    break;
  }
  assert(false && "no 2x2 matrix for this gate");
  return Mat2::identity();
}

namespace {

/// The phases a diagonal gate puts on |0> and |1> of its target (applied
/// only where every control reads 1). False for non-diagonal gates.
bool diagonalPhases(GateKind G, double Theta, Cplx &P0, Cplx &P1) {
  const Cplx I(0.0, 1.0);
  P0 = Cplx(1.0, 0.0);
  switch (G) {
  case GateKind::Z:
    P1 = Cplx(-1.0, 0.0);
    return true;
  case GateKind::S:
    P1 = I;
    return true;
  case GateKind::Sdg:
    P1 = -I;
    return true;
  case GateKind::T:
    P1 = std::exp(I * (M_PI / 4.0));
    return true;
  case GateKind::Tdg:
    P1 = std::exp(-I * (M_PI / 4.0));
    return true;
  case GateKind::P:
    P1 = std::exp(I * Theta);
    return true;
  case GateKind::RZ:
    P0 = std::exp(-I * (Theta / 2));
    P1 = std::exp(I * (Theta / 2));
    return true;
  default:
    return false;
  }
}

} // namespace

std::vector<Cplx> asdf::blockMatmul(const std::vector<Cplx> &A,
                                    const std::vector<Cplx> &B,
                                    unsigned Dim) {
  assert(A.size() == size_t(Dim) * Dim && B.size() == size_t(Dim) * Dim);
  std::vector<Cplx> R(size_t(Dim) * Dim, Cplx(0.0, 0.0));
  for (unsigned I = 0; I < Dim; ++I)
    for (unsigned K = 0; K < Dim; ++K) {
      Cplx AIK = A[size_t(I) * Dim + K];
      if (AIK == Cplx(0.0, 0.0))
        continue;
      for (unsigned J = 0; J < Dim; ++J)
        R[size_t(I) * Dim + J] += AIK * B[size_t(K) * Dim + J];
    }
  return R;
}

std::vector<Cplx>
asdf::gateBlockMatrix(const CircuitInstr &I,
                      const std::vector<unsigned> &Support) {
  assert(I.TheKind == CircuitInstr::Kind::Gate && "gate instructions only");
  const unsigned M = Support.size();
  assert(M <= MPSBackend::MaxGateSites &&
         "support too wide for a block matrix");
  const unsigned Dim = 1u << M;
  // Local bit of Support[j]: MSB-first, matching the global convention.
  auto LocalBit = [&](unsigned Q) -> unsigned {
    for (unsigned J = 0; J < M; ++J)
      if (Support[J] == Q)
        return 1u << (M - 1 - J);
    assert(false && "qubit not in support");
    return 0;
  };
  unsigned CtlMask = 0;
  for (unsigned C : I.Controls)
    CtlMask |= LocalBit(C);

  std::vector<Cplx> R(size_t(Dim) * Dim, Cplx(0.0, 0.0));
  if (I.Gate == GateKind::Swap) {
    assert(I.Targets.size() == 2);
    unsigned BitA = LocalBit(I.Targets[0]), BitB = LocalBit(I.Targets[1]);
    for (unsigned Col = 0; Col < Dim; ++Col) {
      unsigned Row = Col;
      if ((Col & CtlMask) == CtlMask) {
        Row = Col & ~(BitA | BitB);
        if (Col & BitA)
          Row |= BitB;
        if (Col & BitB)
          Row |= BitA;
      }
      R[size_t(Row) * Dim + Col] = Cplx(1.0, 0.0);
    }
    return R;
  }

  assert(I.Targets.size() == 1);
  unsigned Bit = LocalBit(I.Targets[0]);
  Mat2 U = gateMatrix2(I.Gate, I.Param);
  for (unsigned Col = 0; Col < Dim; ++Col) {
    if ((Col & CtlMask) != CtlMask) {
      R[size_t(Col) * Dim + Col] = Cplx(1.0, 0.0);
      continue;
    }
    unsigned Tv = (Col & Bit) ? 1 : 0;
    R[size_t(Col & ~Bit) * Dim + Col] = U.M[0][Tv];
    R[size_t(Col | Bit) * Dim + Col] = U.M[1][Tv];
  }
  return R;
}

namespace {

/// Expands matrix \p U over qubit set \p From into qubit set \p To
/// (From subset of To, both sorted ascending): identity tensors in on the
/// extra qubits, respecting the MSB-first local basis convention.
std::vector<Cplx> embedBlockMatrix(const std::vector<Cplx> &U,
                                   const std::vector<unsigned> &From,
                                   const std::vector<unsigned> &To) {
  const unsigned MF = From.size(), MT = To.size();
  const unsigned DimF = 1u << MF, DimT = 1u << MT;
  if (From == To)
    return U;
  // For each To basis index, precompute its From sub-index and the
  // spectator remainder (the bits outside From, packed in order).
  std::vector<unsigned> SubIdx(DimT), RestIdx(DimT);
  std::vector<int> FromPos(MT, -1);
  for (unsigned J = 0, F = 0; J < MT; ++J) {
    if (F < MF && To[J] == From[F])
      FromPos[J] = static_cast<int>(F++);
  }
  for (unsigned B = 0; B < DimT; ++B) {
    unsigned Sub = 0, Rest = 0;
    for (unsigned J = 0; J < MT; ++J) {
      unsigned BitVal = (B >> (MT - 1 - J)) & 1;
      if (FromPos[J] >= 0)
        Sub = (Sub << 1) | BitVal;
      else
        Rest = (Rest << 1) | BitVal;
    }
    SubIdx[B] = Sub;
    RestIdx[B] = Rest;
  }
  std::vector<Cplx> R(size_t(DimT) * DimT, Cplx(0.0, 0.0));
  for (unsigned Row = 0; Row < DimT; ++Row)
    for (unsigned Col = 0; Col < DimT; ++Col)
      if (RestIdx[Row] == RestIdx[Col])
        R[size_t(Row) * DimT + Col] =
            U[size_t(SubIdx[Row]) * DimF + SubIdx[Col]];
  return R;
}

bool isDiagonalBlock(const std::vector<Cplx> &U, unsigned Dim) {
  for (unsigned Row = 0; Row < Dim; ++Row)
    for (unsigned Col = 0; Col < Dim; ++Col)
      if (Row != Col && U[size_t(Row) * Dim + Col] != Cplx(0.0, 0.0))
        return false;
  return true;
}

} // namespace

std::string FusedCircuit::summary() const {
  std::string S = std::to_string(GatesIn) + " gates -> " +
                  std::to_string(Ops.size()) + " ops (" +
                  std::to_string(GatesFused) + " fused";
  if (BlocksFormed)
    S += ", " + std::to_string(BlocksFormed) + " blocks <= " +
         std::to_string(WidestBlock) + "q";
  S += ", " + std::to_string(SweepsCoalesced) + " sweep entries coalesced)";
  return S;
}

bool asdf::isFusionBarrier(const CircuitInstr &I) {
  return I.TheKind != CircuitInstr::Kind::Gate || I.CondBit >= 0;
}

FusedCircuit asdf::fuseCircuit(const Circuit &C, const NoiseModel *Noise,
                               FusionRecipe *Recipe) {
  obs::Span Sp("fuse", "fusion");
  FusedCircuit FC;
  FC.Source = &C;
  const unsigned N = C.NumQubits;
  auto QubitBit = [&](unsigned Q) { return uint64_t(1) << (N - 1 - Q); };
  if (Recipe) {
    *Recipe = FusionRecipe();
    Recipe->NumInstrs = C.Instrs.size();
  }

  /// An open accumulation of adjacent gates over one (disjoint) support.
  struct OpenBlock {
    std::vector<unsigned> Qubits; ///< Sorted ascending.
    std::vector<Cplx> U;          ///< 2^m x 2^m, MSB-first local basis.
    unsigned Count = 0;           ///< Gates absorbed.
    size_t OnlyInstr = 0;         ///< Source index, meaningful at Count 1.
    int Node = -1;                ///< Recipe node, when recording.
  };
  std::vector<OpenBlock> Open;
  bool PrefixOpen = true;

  // Recording hooks: a new recipe node per block construction, an event
  // per plan emission. All no-ops when Recipe is null.
  auto recordNode = [&](size_t Idx, const std::vector<unsigned> &Qubits,
                        std::vector<int> Children, bool Direct,
                        const std::vector<Cplx> &U) -> int {
    if (!Recipe)
      return -1;
    FusionRecipe::Node Nd;
    Nd.InstrIndex = Idx;
    Nd.Qubits = Qubits;
    Nd.Direct = Direct;
    Nd.Symbolic = C.Instrs[Idx].isSymbolic();
    for (int Ch : Children)
      if (Recipe->Nodes[Ch].Symbolic)
        Nd.Symbolic = true;
    Nd.Children = std::move(Children);
    Nd.CachedU = U;
    Recipe->Nodes.push_back(std::move(Nd));
    return static_cast<int>(Recipe->Nodes.size() - 1);
  };
  auto recordEvent = [&](FusionRecipe::Event E) {
    if (Recipe)
      Recipe->Events.push_back(E);
  };
  auto recordPrefix = [&] {
    if (Recipe)
      Recipe->PrefixEvents = Recipe->Events.size();
  };

  auto emitInstr = [&](size_t Idx) {
    FusedOp Op;
    Op.TheKind = FusedOp::Kind::Instr;
    Op.InstrIndex = Idx;
    FC.Ops.push_back(std::move(Op));
    recordEvent({FusionRecipe::Event::Kind::Instr, Idx, -1, 0, 0});
  };

  // Diagonal ops commute, so an entry landing directly after another
  // diagonal op merges into it: one memory pass applies both.
  auto emitDiagEntry = [&](DiagEntry E) {
    if (!FC.Ops.empty() && FC.Ops.back().TheKind == FusedOp::Kind::Diag) {
      FC.Ops.back().Diag.push_back(E);
      ++FC.SweepsCoalesced;
      return;
    }
    FusedOp Op;
    Op.TheKind = FusedOp::Kind::Diag;
    Op.Diag.push_back(E);
    FC.Ops.push_back(std::move(Op));
  };

  auto flushBlock = [&](OpenBlock &B) {
    if (B.Count == 0)
      return;
    if (B.Count == 1) {
      // A lone gate keeps its specialized engine kernel (and bit-exact
      // arithmetic): pass it through instead of wrapping it in a matrix.
      emitInstr(B.OnlyInstr);
      return;
    }
    // The Diag-vs-Unitary choice below depends on angle values, so the
    // recipe records only the flush itself; rebind re-decides from the
    // rebuilt matrix, exactly as this code does.
    recordEvent({FusionRecipe::Event::Kind::Run, 0, B.Node, 0, 0});
    FC.GatesFused += B.Count;
    if (B.Qubits.size() == 1) {
      // A run that never grew past one wire keeps the cheap 2x2 kernels.
      Mat2 U2{{{B.U[0], B.U[1]}, {B.U[2], B.U[3]}}};
      if (U2.isDiagonal()) {
        emitDiagEntry({0, QubitBit(B.Qubits[0]), U2.M[0][0], U2.M[1][1]});
        return;
      }
      FusedOp Op;
      Op.TheKind = FusedOp::Kind::Unitary;
      Op.Target = B.Qubits[0];
      Op.U = U2;
      FC.Ops.push_back(std::move(Op));
      return;
    }
    ++FC.BlocksFormed;
    if (B.Qubits.size() > FC.WidestBlock)
      FC.WidestBlock = B.Qubits.size();
    FusedOp Op;
    Op.TheKind = FusedOp::Kind::Block;
    Op.Qubits = std::move(B.Qubits);
    Op.BlockU = std::move(B.U);
    FC.Ops.push_back(std::move(Op));
  };
  // Flushes (in creation order — open supports are pairwise disjoint, so
  // any order is exact) every open block whose support intersects \p Qs,
  // or every block when \p Qs is null.
  auto flushTouching = [&](const std::vector<unsigned> *Qs) {
    std::vector<OpenBlock> Kept;
    Kept.reserve(Open.size());
    for (OpenBlock &B : Open) {
      bool Touches = Qs == nullptr;
      if (Qs)
        for (unsigned Q : *Qs)
          if (std::find(B.Qubits.begin(), B.Qubits.end(), Q) !=
              B.Qubits.end()) {
            Touches = true;
            break;
          }
      if (Touches)
        flushBlock(B);
      else
        Kept.push_back(std::move(B));
    }
    Open = std::move(Kept);
  };
  auto flushAll = [&] { flushTouching(nullptr); };

  for (size_t Idx = 0; Idx < C.Instrs.size(); ++Idx) {
    const CircuitInstr &I = C.Instrs[Idx];

    // Measurement, reset, and feed-forward are full barriers: randomness
    // and classical control must see exactly the state the unfused program
    // would have at this point. They also close the shared prefix.
    if (isFusionBarrier(I)) {
      flushAll();
      if (PrefixOpen) {
        FC.UnconditionalPrefixOps = FC.Ops.size();
        recordPrefix();
        PrefixOpen = false;
      }
      if (I.TheKind == CircuitInstr::Kind::Gate)
        ++FC.GatesIn;
      emitInstr(Idx);
      continue;
    }

    ++FC.GatesIn;

    // Channel barrier: trajectory sampling right after a noisy gate must
    // see the exact unfused state in program order, and it consumes
    // per-shot randomness — so the gate passes through unfused and closes
    // the shared prefix.
    if (Noise && Noise->affectsGate(I)) {
      flushAll();
      if (PrefixOpen) {
        FC.UnconditionalPrefixOps = FC.Ops.size();
        recordPrefix();
        PrefixOpen = false;
      }
      emitInstr(Idx);
      continue;
    }

    // The gate's support: targets plus controls, sorted and deduplicated
    // (duplicate controls OR into one mask bit in the engines, and they
    // collapse the same way in a block matrix — only a control landing ON
    // a target is special).
    std::vector<unsigned> S = I.Targets;
    S.insert(S.end(), I.Controls.begin(), I.Controls.end());
    std::sort(S.begin(), S.end());
    S.erase(std::unique(S.begin(), S.end()), S.end());

    bool CtlOnTarget = false;
    for (unsigned T : I.Targets)
      for (unsigned Ctl : I.Controls)
        if (Ctl == T)
          CtlOnTarget = true;
    if (I.Gate != GateKind::Swap && CtlOnTarget) {
      // Degenerate control == target has always been a no-op in the
      // engines; the plan drops it outright.
      ++FC.GatesFused;
      continue;
    }
    if (I.Gate == GateKind::Swap &&
        (CtlOnTarget || I.Targets[0] == I.Targets[1])) {
      // A swap sharing a control with a target (or swapping a qubit with
      // itself) has engine-specific semantics; pass it through rather
      // than modeling it as a matrix.
      flushTouching(&S);
      emitInstr(Idx);
      continue;
    }

    Cplx P0, P1;
    bool IsDiag = I.Targets.size() == 1 &&
                  diagonalPhases(I.Gate, I.Param, P0, P1);

    // Which open blocks does this gate touch, and how wide would the
    // merged support be?
    std::vector<unsigned> Union = S;
    bool AnyOverlap = false;
    for (const OpenBlock &B : Open) {
      bool Touches = false;
      for (unsigned Q : B.Qubits)
        if (std::find(S.begin(), S.end(), Q) != S.end()) {
          Touches = true;
          break;
        }
      if (!Touches)
        continue;
      AnyOverlap = true;
      for (unsigned Q : B.Qubits)
        if (std::find(Union.begin(), Union.end(), Q) == Union.end())
          Union.push_back(Q);
    }
    std::sort(Union.begin(), Union.end());

    // A controlled diagonal landing on untouched wires is cheapest as a
    // coalesced sweep entry — no gather/scatter, any control count.
    if (IsDiag && !I.Controls.empty() && !AnyOverlap) {
      uint64_t CtlMask = 0;
      for (unsigned Ctl : I.Controls)
        CtlMask |= QubitBit(Ctl);
      ++FC.GatesFused;
      recordEvent({FusionRecipe::Event::Kind::DiagGate, Idx, -1, CtlMask,
                   QubitBit(I.Targets[0])});
      emitDiagEntry({CtlMask, QubitBit(I.Targets[0]), P0, P1});
      continue;
    }

    if (Union.size() > MaxBlockQubits) {
      // Merging would blow the block budget: flush what it touches, then
      // place the gate on its own.
      flushTouching(&S);
      if (S.size() > MaxBlockQubits) {
        // Support too wide for any block. Wide diagonals still coalesce
        // into a sweep entry; everything else passes through.
        if (IsDiag) {
          uint64_t CtlMask = 0;
          for (unsigned Ctl : I.Controls)
            CtlMask |= QubitBit(Ctl);
          ++FC.GatesFused;
          recordEvent({FusionRecipe::Event::Kind::DiagGate, Idx, -1, CtlMask,
                       QubitBit(I.Targets[0])});
          emitDiagEntry({CtlMask, QubitBit(I.Targets[0]), P0, P1});
        } else {
          emitInstr(Idx);
        }
        continue;
      }
      OpenBlock B;
      B.Qubits = S;
      B.U = gateBlockMatrix(I, S);
      B.Count = 1;
      B.OnlyInstr = Idx;
      B.Node = recordNode(Idx, S, {}, /*Direct=*/true, B.U);
      Open.push_back(std::move(B));
      continue;
    }

    // Merge the touched blocks (disjoint supports commute, so any
    // multiplication order is exact) and fold the gate in on top.
    OpenBlock Merged;
    Merged.Qubits = Union;
    const unsigned Dim = 1u << Union.size();
    Merged.U.assign(size_t(Dim) * Dim, Cplx(0.0, 0.0));
    for (unsigned D = 0; D < Dim; ++D)
      Merged.U[size_t(D) * Dim + D] = Cplx(1.0, 0.0);
    std::vector<OpenBlock> Kept;
    std::vector<int> FoldedNodes;
    Kept.reserve(Open.size());
    for (OpenBlock &B : Open) {
      bool Touches = false;
      for (unsigned Q : B.Qubits)
        if (std::find(S.begin(), S.end(), Q) != S.end()) {
          Touches = true;
          break;
        }
      if (!Touches) {
        Kept.push_back(std::move(B));
        continue;
      }
      Merged.U = blockMatmul(embedBlockMatrix(B.U, B.Qubits, Union),
                             Merged.U, Dim);
      Merged.Count += B.Count;
      FoldedNodes.push_back(B.Node);
    }
    Merged.U = blockMatmul(gateBlockMatrix(I, Union), Merged.U, Dim);
    if (++Merged.Count == 1)
      Merged.OnlyInstr = Idx;
    Merged.Node = recordNode(Idx, Union, std::move(FoldedNodes),
                             /*Direct=*/false, Merged.U);
    Open = std::move(Kept);
    Open.push_back(std::move(Merged));
  }

  flushAll();
  if (PrefixOpen) {
    FC.UnconditionalPrefixOps = FC.Ops.size();
    recordPrefix();
  }
  if (Recipe) {
    Recipe->GatesIn = FC.GatesIn;
    Recipe->GatesFused = FC.GatesFused;
    Recipe->BlocksFormed = FC.BlocksFormed;
    Recipe->WidestBlock = FC.WidestBlock;
    Recipe->Valid = true;
  }
  return FC;
}

FusedCircuit asdf::rebindFusedCircuit(const FusionRecipe &R,
                                      const Circuit &Bound) {
  obs::Span Sp("rebind", "fusion");
  assert(R.Valid && "recipe was never recorded");
  assert(R.NumInstrs == Bound.Instrs.size() &&
         "recipe recorded from a different circuit");
  FusedCircuit FC;
  FC.Source = &Bound;
  FC.GatesIn = R.GatesIn;
  FC.GatesFused = R.GatesFused;
  FC.BlocksFormed = R.BlocksFormed;
  FC.WidestBlock = R.WidestBlock;
  const unsigned N = Bound.NumQubits;
  auto QubitBit = [&](unsigned Q) { return uint64_t(1) << (N - 1 - Q); };

  // Re-materialize the block matrices bottom-up (children always precede
  // parents in the node list). Non-symbolic subtrees keep the recorded
  // matrix: their gates' angles are the same on every bind, so the
  // recording run already computed the exact value. Symbolic subtrees
  // replay the identical construction fuseCircuit used — identity seed,
  // children in fold order, gate on top — so every entry rounds exactly
  // as a fresh fuse of the bound circuit would.
  std::vector<std::vector<Cplx>> Computed(R.Nodes.size());
  std::vector<const std::vector<Cplx> *> NodeU(R.Nodes.size());
  for (size_t Ni = 0; Ni < R.Nodes.size(); ++Ni) {
    const FusionRecipe::Node &Nd = R.Nodes[Ni];
    if (!Nd.Symbolic) {
      NodeU[Ni] = &Nd.CachedU;
      continue;
    }
    const CircuitInstr &Gate = Bound.Instrs[Nd.InstrIndex];
    if (Nd.Direct) {
      Computed[Ni] = gateBlockMatrix(Gate, Nd.Qubits);
    } else {
      const unsigned Dim = 1u << Nd.Qubits.size();
      std::vector<Cplx> U(size_t(Dim) * Dim, Cplx(0.0, 0.0));
      for (unsigned D = 0; D < Dim; ++D)
        U[size_t(D) * Dim + D] = Cplx(1.0, 0.0);
      for (int Ch : Nd.Children)
        U = blockMatmul(
            embedBlockMatrix(*NodeU[Ch], R.Nodes[Ch].Qubits, Nd.Qubits), U,
            Dim);
      U = blockMatmul(gateBlockMatrix(Gate, Nd.Qubits), U, Dim);
      Computed[Ni] = std::move(U);
    }
    NodeU[Ni] = &Computed[Ni];
  }

  // Replay the emission log with the same coalescing rules fuseCircuit
  // applies, re-deciding the angle-dependent Diag-vs-Unitary flushes from
  // the rebuilt matrices.
  auto emitDiagEntry = [&](DiagEntry E) {
    if (!FC.Ops.empty() && FC.Ops.back().TheKind == FusedOp::Kind::Diag) {
      FC.Ops.back().Diag.push_back(E);
      ++FC.SweepsCoalesced;
      return;
    }
    FusedOp Op;
    Op.TheKind = FusedOp::Kind::Diag;
    Op.Diag.push_back(E);
    FC.Ops.push_back(std::move(Op));
  };
  for (size_t Ei = 0; Ei < R.Events.size(); ++Ei) {
    if (Ei == R.PrefixEvents)
      FC.UnconditionalPrefixOps = FC.Ops.size();
    const FusionRecipe::Event &E = R.Events[Ei];
    switch (E.TheKind) {
    case FusionRecipe::Event::Kind::Instr: {
      FusedOp Op;
      Op.TheKind = FusedOp::Kind::Instr;
      Op.InstrIndex = E.InstrIndex;
      FC.Ops.push_back(std::move(Op));
      break;
    }
    case FusionRecipe::Event::Kind::DiagGate: {
      const CircuitInstr &I = Bound.Instrs[E.InstrIndex];
      Cplx P0, P1;
      bool IsDiag = diagonalPhases(I.Gate, I.Param, P0, P1);
      assert(IsDiag && "recorded diagonal gate is not diagonal");
      (void)IsDiag;
      emitDiagEntry({E.CtlMask, E.TargetBit, P0, P1});
      break;
    }
    case FusionRecipe::Event::Kind::Run: {
      const FusionRecipe::Node &Nd = R.Nodes[E.Node];
      const std::vector<Cplx> &U = *NodeU[E.Node];
      if (Nd.Qubits.size() == 1) {
        Mat2 U2{{{U[0], U[1]}, {U[2], U[3]}}};
        if (U2.isDiagonal()) {
          emitDiagEntry({0, QubitBit(Nd.Qubits[0]), U2.M[0][0], U2.M[1][1]});
          break;
        }
        FusedOp Op;
        Op.TheKind = FusedOp::Kind::Unitary;
        Op.Target = Nd.Qubits[0];
        Op.U = U2;
        FC.Ops.push_back(std::move(Op));
        break;
      }
      FusedOp Op;
      Op.TheKind = FusedOp::Kind::Block;
      Op.Qubits = Nd.Qubits;
      Op.BlockU = U;
      FC.Ops.push_back(std::move(Op));
      break;
    }
    }
  }
  if (R.PrefixEvents == R.Events.size())
    FC.UnconditionalPrefixOps = FC.Ops.size();
  return FC;
}
