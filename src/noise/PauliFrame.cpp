//===- PauliFrame.cpp - Pauli-frame shot sampling for Clifford circuits ---===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "noise/PauliFrame.h"

#include "sim/CircuitAnalysis.h"
#include "sim/StabilizerBackend.h"

#include <cassert>

using namespace asdf;

namespace {

/// One Pauli frame: x and z bit per qubit, packed 64 per word. Phases are
/// irrelevant — only measurement flips (x bits) are ever observed.
struct Frame {
  std::vector<uint64_t> X, Z;

  explicit Frame(unsigned Words) : X(Words, 0), Z(Words, 0) {}

  bool x(unsigned Q) const { return (X[Q >> 6] >> (Q & 63)) & 1; }
  bool z(unsigned Q) const { return (Z[Q >> 6] >> (Q & 63)) & 1; }
  void flipX(unsigned Q) { X[Q >> 6] ^= uint64_t(1) << (Q & 63); }
  void flipZ(unsigned Q) { Z[Q >> 6] ^= uint64_t(1) << (Q & 63); }
  void clear(unsigned Q) {
    uint64_t Mask = ~(uint64_t(1) << (Q & 63));
    X[Q >> 6] &= Mask;
    Z[Q >> 6] &= Mask;
  }
  void mulIn(const std::vector<uint64_t> &Ax, const std::vector<uint64_t> &Az) {
    for (size_t W = 0; W < X.size(); ++W) {
      X[W] ^= Ax[W];
      Z[W] ^= Az[W];
    }
  }

  // Clifford conjugations of the frame, O(1) bit operations each.
  void h(unsigned Q) {
    bool Xb = x(Q), Zb = z(Q);
    if (Xb != Zb) {
      flipX(Q);
      flipZ(Q);
    }
  }
  void s(unsigned Q) { // Sdg conjugates frames identically (phase-free).
    if (x(Q))
      flipZ(Q);
  }
  void cx(unsigned Ctl, unsigned Tgt) {
    if (Ctl == Tgt)
      return; // Degenerate no-op, matching the engines.
    if (x(Ctl))
      flipX(Tgt);
    if (z(Tgt))
      flipZ(Ctl);
  }
  void cz(unsigned A, unsigned B) {
    if (A == B)
      return;
    if (x(A))
      flipZ(B);
    if (x(B))
      flipZ(A);
  }
  void cy(unsigned Ctl, unsigned Tgt) { // CY = S_t CX S_t^dagger.
    s(Tgt);
    cx(Ctl, Tgt);
    s(Tgt);
  }
  void swapQubits(unsigned A, unsigned B) {
    if (A == B)
      return;
    bool Xa = x(A), Za = z(A), Xb = x(B), Zb = z(B);
    if (Xa != Xb) {
      flipX(A);
      flipX(B);
    }
    if (Za != Zb) {
      flipZ(A);
      flipZ(B);
    }
  }
};

/// Conjugates the frame through one (validated Clifford) gate, mirroring
/// applyCliffordInstr's gate set. Uncontrolled Paulis commute with every
/// Pauli up to phase: no-ops on the frame.
void propagate(Frame &F, const CircuitInstr &I) {
  unsigned Tgt = I.Targets.empty() ? 0 : I.Targets[0];
  bool Controlled = !I.Controls.empty();
  unsigned Ctl = Controlled ? I.Controls[0] : 0;
  unsigned Quarters = 0;
  switch (I.Gate) {
  case GateKind::X:
    if (Controlled)
      F.cx(Ctl, Tgt);
    return;
  case GateKind::Y:
    if (Controlled)
      F.cy(Ctl, Tgt);
    return;
  case GateKind::Z:
    if (Controlled)
      F.cz(Ctl, Tgt);
    return;
  case GateKind::H:
    F.h(Tgt);
    return;
  case GateKind::S:
  case GateKind::Sdg:
    F.s(Tgt);
    return;
  case GateKind::Swap:
    F.swapQubits(I.Targets[0], I.Targets[1]);
    return;
  case GateKind::P:
  case GateKind::RZ: {
    bool Ok = quarterTurns(I.Param, Quarters);
    assert(Ok && "non-Clifford phase reached the frame sampler");
    (void)Ok;
    if (Quarters == 0)
      return;
    if (Quarters == 2) {
      if (Controlled)
        F.cz(Ctl, Tgt);
      return; // Uncontrolled Z: frame no-op.
    }
    F.s(Tgt); // S and Sdg conjugate identically.
    return;
  }
  case GateKind::T:
  case GateKind::Tdg:
  case GateKind::RX:
  case GateKind::RY:
    break;
  }
  assert(false && "non-Clifford gate reached the frame sampler");
}

} // namespace

FrameReference::FrameReference(const Circuit &Circ)
    : C(&Circ), Words((Circ.NumQubits + 63) / 64) {
  if (Words == 0)
    Words = 1;
  Tableau T(Circ.NumQubits);
  std::mt19937_64 Rng; // Any stream will do: shots never read its draws.
  for (const CircuitInstr &I : Circ.Instrs) {
    assert(I.CondBit < 0 && "frame sampling cannot replay feed-forward");
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate:
      applyCliffordInstr(T, I);
      break;
    case CircuitInstr::Kind::Measure:
    case CircuitInstr::Kind::Reset: {
      MeasureRecord Rec;
      bool Outcome = T.measure(I.Targets[0], Rng, &Rec);
      if (I.TheKind == CircuitInstr::Kind::Reset && Outcome)
        T.x(I.Targets[0]);
      Event E;
      E.Random = Rec.Random;
      E.RefOutcome = Outcome;
      E.AntiX = std::move(Rec.AntiX);
      E.AntiZ = std::move(Rec.AntiZ);
      Events.push_back(std::move(E));
      break;
    }
    }
  }
}

ShotResult FrameReference::sampleShot(uint64_t ShotSeed,
                                      const PauliNoisePlan *Plan,
                                      const NoiseModel *Noise,
                                      SimStats *Stats) const {
  std::mt19937_64 Rng = shotRng(ShotSeed);
  Frame F(Words);
  ShotResult R;
  R.Bits.assign(C->NumBits, false);
  size_t EventIdx = 0;
  for (size_t Idx = 0; Idx < C->Instrs.size(); ++Idx) {
    const CircuitInstr &I = C->Instrs[Idx];
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate: {
      propagate(F, I);
      if (Plan)
        for (const PauliNoiseOp &Op : Plan->PerInstr[Idx]) {
          unsigned P = samplePauli(Op, Rng, Stats);
          if (P == 1 || P == 2)
            F.flipX(Op.Qubit);
          if (P == 2 || P == 3)
            F.flipZ(Op.Qubit);
        }
      break;
    }
    case CircuitInstr::Kind::Measure:
    case CircuitInstr::Kind::Reset: {
      const Event &E = Events[EventIdx++];
      unsigned Q = I.Targets[0];
      // A collapse that was random in the reference is random in every
      // shot. Draw its outcome where Tableau::measure would, and move the
      // shot onto that branch: the recorded anticommuting stabilizer maps
      // one branch onto the other, and it flips F.x(Q).
      if (E.Random && ((Rng() & 1) ^ E.RefOutcome ^ F.x(Q)))
        F.mulIn(E.AntiX, E.AntiZ);
      if (I.TheKind == CircuitInstr::Kind::Measure) {
        bool Outcome = E.RefOutcome ^ F.x(Q);
        if (Noise)
          Outcome = applyReadoutError(Noise->readoutFor(Q), Outcome, Rng,
                                      Stats);
        R.Bits[static_cast<unsigned>(I.Cbit)] = Outcome;
      } else {
        // Reset forces |0> for every shot: the frame on Q dies with the
        // discarded state.
        F.clear(Q);
      }
      break;
    }
    }
  }
  return R;
}
