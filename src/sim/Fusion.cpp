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

bool asdf::diagonalPhases(GateKind G, double Theta, Cplx &P0, Cplx &P1) {
  if (!isDiagonalGate(G))
    return false;
  Mat2 U = gateMatrix2(G, Theta);
  P0 = U.M[0][0];
  P1 = U.M[1][1];
  return true;
}

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

/// True if every off-diagonal entry is exactly zero, as it is in any
/// product of diagonal factors (0*x + y*0 stays 0 in IEEE arithmetic).
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

FusionPlan asdf::planFusion(const Circuit &C, const NoiseModel *Noise) {
  using Event = FusionPlan::Event;
  FusionPlan Plan;
  Plan.NumInstrs = C.Instrs.size();
  const unsigned N = C.NumQubits;
  auto QubitBit = [&](unsigned Q) { return uint64_t(1) << (N - 1 - Q); };

  /// An open accumulation of adjacent gates over one (disjoint) support.
  struct OpenBlock {
    std::vector<unsigned> Qubits; ///< Sorted ascending.
    unsigned Count = 0;           ///< Gates absorbed.
    size_t OnlyInstr = 0;         ///< Source index, meaningful at Count 1.
    int Node = -1;                ///< How its matrix is built.
  };
  std::vector<OpenBlock> Open;
  bool PrefixOpen = true;

  auto addNode = [&](size_t Idx, const std::vector<unsigned> &Qubits,
                     std::vector<int> Children, bool Direct) {
    Plan.Nodes.push_back({Idx, Qubits, std::move(Children), Direct});
    return static_cast<int>(Plan.Nodes.size() - 1);
  };
  auto emitInstr = [&](size_t Idx) {
    Plan.Events.push_back({Event::Kind::Instr, Idx, -1, 0, 0});
  };
  auto emitDiagGate = [&](size_t Idx) {
    const CircuitInstr &I = C.Instrs[Idx];
    uint64_t CtlMask = 0;
    for (unsigned Ctl : I.Controls)
      CtlMask |= QubitBit(Ctl);
    ++Plan.GatesFused;
    Plan.Events.push_back({Event::Kind::DiagGate, Idx, -1, CtlMask,
                           QubitBit(I.Targets[0])});
  };
  auto closePrefix = [&] {
    if (PrefixOpen)
      Plan.PrefixEvents = Plan.Events.size();
    PrefixOpen = false;
  };

  auto flushBlock = [&](const OpenBlock &B) {
    if (B.Count == 1) {
      // A lone gate passes through: the engine picks its kernel from the
      // gate kind (a pair swap for X, a phase sweep for a phase on |1>).
      emitInstr(B.OnlyInstr);
      return;
    }
    Plan.GatesFused += B.Count;
    Plan.Events.push_back({Event::Kind::Run, 0, B.Node, 0, 0});
  };
  auto touches = [](const OpenBlock &B, const std::vector<unsigned> &Qs) {
    for (unsigned Q : B.Qubits)
      if (std::find(Qs.begin(), Qs.end(), Q) != Qs.end())
        return true;
    return false;
  };
  // Flushes (in creation order — open supports are pairwise disjoint, so
  // any order is exact) every open block whose support intersects \p Qs,
  // or every block when \p Qs is null.
  auto flushTouching = [&](const std::vector<unsigned> *Qs) {
    std::vector<OpenBlock> Kept;
    Kept.reserve(Open.size());
    for (OpenBlock &B : Open) {
      if (!Qs || touches(B, *Qs))
        flushBlock(B);
      else
        Kept.push_back(std::move(B));
    }
    Open = std::move(Kept);
  };

  for (size_t Idx = 0; Idx < C.Instrs.size(); ++Idx) {
    const CircuitInstr &I = C.Instrs[Idx];

    // Measurement, reset, and feed-forward are full barriers: randomness
    // and classical control must see exactly the state the unfused program
    // would have at this point. They also close the shared prefix.
    if (isFusionBarrier(I)) {
      flushTouching(nullptr);
      closePrefix();
      if (I.TheKind == CircuitInstr::Kind::Gate)
        ++Plan.GatesIn;
      emitInstr(Idx);
      continue;
    }

    ++Plan.GatesIn;

    // Channel barrier: trajectory sampling right after a noisy gate must
    // see the exact unfused state in program order, and it consumes
    // per-shot randomness — so the gate passes through unfused and closes
    // the shared prefix.
    if (Noise && Noise->affectsGate(I)) {
      flushTouching(nullptr);
      closePrefix();
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
      ++Plan.GatesFused;
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

    bool IsDiag = I.Targets.size() == 1 && isDiagonalGate(I.Gate);

    // Which open blocks does this gate touch, and how wide would the
    // merged support be?
    std::vector<unsigned> Union = S;
    bool AnyOverlap = false;
    for (const OpenBlock &B : Open) {
      if (!touches(B, S))
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
      emitDiagGate(Idx);
      continue;
    }

    if (Union.size() > MaxBlockQubits) {
      // Merging would blow the block budget: flush what it touches, then
      // place the gate on its own.
      flushTouching(&S);
      if (S.size() > MaxBlockQubits) {
        // Support too wide for any block. Wide diagonals still coalesce
        // into a sweep entry; everything else passes through.
        if (IsDiag)
          emitDiagGate(Idx);
        else
          emitInstr(Idx);
        continue;
      }
      Open.push_back({S, 1, Idx, addNode(Idx, S, {}, /*Direct=*/true)});
      continue;
    }

    // Merge the touched blocks (disjoint supports commute, so any
    // multiplication order is exact) and fold the gate in on top.
    OpenBlock Merged;
    Merged.Qubits = Union;
    std::vector<OpenBlock> Kept;
    std::vector<int> Folded;
    Kept.reserve(Open.size());
    for (OpenBlock &B : Open) {
      if (!touches(B, S)) {
        Kept.push_back(std::move(B));
        continue;
      }
      Merged.Count += B.Count;
      Folded.push_back(B.Node);
    }
    if (++Merged.Count == 1)
      Merged.OnlyInstr = Idx;
    Merged.Node = addNode(Idx, Union, std::move(Folded), /*Direct=*/false);
    Open = std::move(Kept);
    Open.push_back(std::move(Merged));
  }

  flushTouching(nullptr);
  closePrefix();
  return Plan;
}

FusedCircuit asdf::buildFusedCircuit(const FusionPlan &Plan,
                                     const Circuit &C) {
  using Event = FusionPlan::Event;
  assert(Plan.NumInstrs == C.Instrs.size() &&
         "plan made from a different circuit");
  FusedCircuit FC;
  FC.Source = &C;
  FC.GatesIn = Plan.GatesIn;
  FC.GatesFused = Plan.GatesFused;
  const unsigned N = C.NumQubits;
  auto QubitBit = [&](unsigned Q) { return uint64_t(1) << (N - 1 - Q); };

  // The matrices, children before parents. A child folds into one parent
  // only, so its matrix is released once folded.
  std::vector<std::vector<Cplx>> U(Plan.Nodes.size());
  for (size_t Ni = 0; Ni < Plan.Nodes.size(); ++Ni) {
    const FusionPlan::Node &Nd = Plan.Nodes[Ni];
    const CircuitInstr &Gate = C.Instrs[Nd.InstrIndex];
    if (Nd.Direct) {
      U[Ni] = gateBlockMatrix(Gate, Nd.Qubits);
      continue;
    }
    const unsigned Dim = 1u << Nd.Qubits.size();
    std::vector<Cplx> M(size_t(Dim) * Dim, Cplx(0.0, 0.0));
    for (unsigned D = 0; D < Dim; ++D)
      M[size_t(D) * Dim + D] = Cplx(1.0, 0.0);
    for (int Ch : Nd.Children) {
      M = blockMatmul(
          embedBlockMatrix(U[Ch], Plan.Nodes[Ch].Qubits, Nd.Qubits), M, Dim);
      U[Ch] = {};
    }
    U[Ni] = blockMatmul(gateBlockMatrix(Gate, Nd.Qubits), M, Dim);
  }

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

  for (size_t Ei = 0; Ei < Plan.Events.size(); ++Ei) {
    if (Ei == Plan.PrefixEvents)
      FC.UnconditionalPrefixOps = FC.Ops.size();
    const Event &E = Plan.Events[Ei];
    FusedOp Op;
    switch (E.TheKind) {
    case Event::Kind::Instr:
      Op.TheKind = FusedOp::Kind::Instr;
      Op.InstrIndex = E.InstrIndex;
      break;
    case Event::Kind::DiagGate: {
      const CircuitInstr &I = C.Instrs[E.InstrIndex];
      Cplx P0, P1;
      bool IsDiag = diagonalPhases(I.Gate, I.Param, P0, P1);
      assert(IsDiag && "planned diagonal gate is not diagonal");
      (void)IsDiag;
      emitDiagEntry({E.CtlMask, E.TargetBit, P0, P1});
      continue;
    }
    case Event::Kind::Run: {
      const std::vector<unsigned> &Qubits = Plan.Nodes[E.Node].Qubits;
      std::vector<Cplx> &M = U[E.Node];
      if (Qubits.size() == 1 && isDiagonalBlock(M, 2)) {
        // A run that never grew past one wire and stayed diagonal joins a
        // diagonal sweep.
        emitDiagEntry({0, QubitBit(Qubits[0]), M[0], M[3]});
        continue;
      }
      if (Qubits.size() >= 2) {
        ++FC.BlocksFormed;
        FC.WidestBlock = std::max(FC.WidestBlock, Qubits.size());
      }
      Op.TheKind = FusedOp::Kind::Block;
      Op.Qubits = Qubits;
      Op.BlockU = std::move(M);
      break;
    }
    }
    FC.Ops.push_back(std::move(Op));
  }
  if (Plan.PrefixEvents == Plan.Events.size())
    FC.UnconditionalPrefixOps = FC.Ops.size();
  return FC;
}

FusedCircuit asdf::fuseCircuit(const Circuit &C, const NoiseModel *Noise) {
  obs::Span Sp("fuse", "fusion");
  return buildFusedCircuit(planFusion(C, Noise), C);
}
