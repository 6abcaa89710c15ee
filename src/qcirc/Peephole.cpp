//===- Peephole.cpp - QCircuit IR optimizations (§6.5) --------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "qcirc/Peephole.h"

#include "synth/GateEmitter.h"

#include <array>
#include <cmath>
#include <functional>

using namespace asdf;

namespace {

/// True if applying \p B right after \p A yields the identity.
bool gatesCancel(const Op *A, const Op *B) {
  if (A->Kind != OpKind::Gate || B->Kind != OpKind::Gate)
    return false;
  if (A->NumControls != B->NumControls ||
      A->numOperands() != B->numOperands())
    return false;
  // B's operand i must be A's result i (same wires, same roles).
  for (unsigned I = 0; I < B->numOperands(); ++I)
    if (B->operand(I) != const_cast<Op *>(A)->result(I))
      return false;
  if (adjointGateKind(A->GateAttr) != B->GateAttr)
    return false;
  if (!isParamGate(A->GateAttr))
    return true;
  const GateParam &PA = A->ParamAttr, &PB = B->ParamAttr;
  if (PA.isSymbolic() != PB.isSymbolic())
    return false;
  if (PA.isSymbolic())
    // Symbolic angles cancel only when they sum to zero for *every*
    // binding: same parameter, exactly opposite scales, near-zero
    // constant term.
    return PA.Index == PB.Index && PA.Scale + PB.Scale == 0.0 &&
           std::abs(PA.Offset + PB.Offset) < 1e-12;
  return std::abs(PA.concrete() + PB.concrete()) < 1e-12;
}

/// Erases the pair (A, B) where B consumes all of A's results, rewiring
/// B's results to A's operands.
void erasePair(Op *A, Op *B) {
  for (unsigned I = 0; I < B->numResults(); ++I)
    B->result(I)->replaceAllUsesWith(A->operand(I));
  B->erase();
  A->erase();
}

/// Matches an uncontrolled single-target gate of kind \p K.
bool isPlainGate(const Op *O, GateKind K) {
  return O->Kind == OpKind::Gate && O->GateAttr == K &&
         O->NumControls == 0 && O->numOperands() == 1;
}

/// One peephole step over a block; returns true if a rewrite fired.
bool peepholeBlockOnce(Block &B) {
  for (auto &OPtr : B.Ops) {
    Op *O = OPtr.get();
    // Recurse into regions first.
    for (auto &R : O->Regions)
      if (R && peepholeBlockOnce(*R))
        return true;
    if (O->Kind != OpKind::Gate)
      continue;

    // (1) Adjacent inverse pairs: find a user of result 0 that is a gate
    // consuming all results in order.
    Value *R0 = O->result(0);
    if (R0->hasOneUse()) {
      Op *Next = R0->singleUser();
      if (gatesCancel(O, Next)) {
        erasePair(O, Next);
        return true;
      }
    }

    // (2) H X H -> Z and H Z H -> X.
    if (isPlainGate(O, GateKind::H) && O->result(0)->hasOneUse()) {
      Op *Mid = O->result(0)->singleUser();
      if ((isPlainGate(Mid, GateKind::X) || isPlainGate(Mid, GateKind::Z)) &&
          Mid->result(0)->hasOneUse()) {
        Op *Last = Mid->result(0)->singleUser();
        if (isPlainGate(Last, GateKind::H)) {
          GateKind NewKind = Mid->GateAttr == GateKind::X ? GateKind::Z
                                                          : GateKind::X;
          Builder Bld(O->ParentBlock, O);
          std::vector<Value *> New =
              Bld.gate(NewKind, {}, {O->operand(0)});
          Last->result(0)->replaceAllUsesWith(New.front());
          Last->erase();
          Mid->erase();
          O->erase();
          return true;
        }
      }
    }

    // (3) Relaxed peephole (Fig. 10): multi-controlled X whose target is a
    // freshly prepared |-> that is immediately unprepared and freed becomes
    // a multi-controlled Z on the controls.
    if (O->GateAttr == GateKind::X && O->NumControls >= 1) {
      unsigned TargetIdx = O->NumControls;
      Op *HPrep = O->operand(TargetIdx)->DefOp;
      if (HPrep && isPlainGate(HPrep, GateKind::H)) {
        Op *XPrep = HPrep->operand(0)->DefOp;
        if (XPrep && isPlainGate(XPrep, GateKind::X)) {
          Op *Alloc = XPrep->operand(0)->DefOp;
          Value *TOut = O->result(TargetIdx);
          if (Alloc && Alloc->Kind == OpKind::QAlloc && TOut->hasOneUse()) {
            Op *HPost = TOut->singleUser();
            if (isPlainGate(HPost, GateKind::H) &&
                HPost->result(0)->hasOneUse()) {
              Op *XPost = HPost->result(0)->singleUser();
              if (isPlainGate(XPost, GateKind::X) &&
                  XPost->result(0)->hasOneUse()) {
                Op *Free = XPost->result(0)->singleUser();
                if (Free->Kind == OpKind::QFreeZ) {
                  // Rebuild as MCZ: the last control becomes the target.
                  std::vector<Value *> Controls, Targets;
                  for (unsigned I = 0; I + 1 < O->NumControls; ++I)
                    Controls.push_back(O->operand(I));
                  Targets.push_back(O->operand(O->NumControls - 1));
                  Builder Bld(O->ParentBlock, O);
                  std::vector<Value *> New =
                      Bld.gate(GateKind::Z, Controls, Targets);
                  for (unsigned I = 0; I < O->NumControls; ++I)
                    O->result(I)->replaceAllUsesWith(New[I]);
                  Free->erase();
                  XPost->erase();
                  HPost->erase();
                  O->erase();
                  HPrep->erase();
                  XPrep->erase();
                  Alloc->erase();
                  return true;
                }
              }
            }
          }
        }
      }
    }
  }
  return false;
}

} // namespace

bool asdf::peepholeOptimize(Module &M) {
  bool Changed = false;
  bool Fired = true;
  while (Fired) {
    Fired = false;
    for (auto &F : M.Functions)
      if (peepholeBlockOnce(F->Body)) {
        Fired = true;
        Changed = true;
        break;
      }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Multi-control decomposition (§6.5)
//===----------------------------------------------------------------------===//

namespace {

/// Emits a textbook 7-T Toffoli (CCX) on wires (C1, C2, T).
void emitCCX(GateEmitter &E, unsigned C1, unsigned C2, unsigned T) {
  E.gate(GateKind::H, {}, {T});
  E.gate(GateKind::X, {C2}, {T});
  E.gate(GateKind::Tdg, {}, {T});
  E.gate(GateKind::X, {C1}, {T});
  E.gate(GateKind::T, {}, {T});
  E.gate(GateKind::X, {C2}, {T});
  E.gate(GateKind::Tdg, {}, {T});
  E.gate(GateKind::X, {C1}, {T});
  E.gate(GateKind::T, {}, {C2});
  E.gate(GateKind::T, {}, {T});
  E.gate(GateKind::H, {}, {T});
  E.gate(GateKind::X, {C1}, {C2});
  E.gate(GateKind::T, {}, {C1});
  E.gate(GateKind::Tdg, {}, {C2});
  E.gate(GateKind::X, {C1}, {C2});
}

/// Emits the Margolus relative-phase Toffoli (RCCX, 4 T gates). The gate
/// list is its own adjoint, so it both computes and uncomputes. Safe when
/// compute/uncompute pairs enclose uses, as in Selinger's controlled-iX
/// scheme.
void emitRCCX(GateEmitter &E, unsigned C1, unsigned C2, unsigned T) {
  E.gate(GateKind::H, {}, {T});
  E.gate(GateKind::T, {}, {T});
  E.gate(GateKind::X, {C2}, {T});
  E.gate(GateKind::Tdg, {}, {T});
  E.gate(GateKind::X, {C1}, {T});
  E.gate(GateKind::T, {}, {T});
  E.gate(GateKind::X, {C2}, {T});
  E.gate(GateKind::Tdg, {}, {T});
  E.gate(GateKind::H, {}, {T});
}

/// Emits an n-controlled X via a compute/uncompute AND-ancilla chain.
/// Selinger mode uses RCCX blocks (relative phases cancel); naive mode uses
/// full Toffolis everywhere.
void emitMCX(GateEmitter &E, const std::vector<unsigned> &Controls,
             unsigned Target, McDecompose Mode) {
  unsigned N = Controls.size();
  if (N == 0) {
    E.gate(GateKind::X, {}, {Target});
    return;
  }
  if (N == 1) {
    E.gate(GateKind::X, {Controls[0]}, {Target});
    return;
  }
  if (N == 2) {
    emitCCX(E, Controls[0], Controls[1], Target);
    return;
  }
  // Chain: a1 = c1 & c2; a_i = a_{i-1} & c_{i+1}; final CCX onto target.
  std::vector<unsigned> Ancillas;
  std::vector<std::array<unsigned, 3>> ChainSteps;
  unsigned Prev = Controls[0];
  for (unsigned I = 1; I + 1 < N; ++I) {
    unsigned Anc = E.allocAncilla();
    Ancillas.push_back(Anc);
    ChainSteps.push_back({Prev, Controls[I], Anc});
    if (Mode == McDecompose::Selinger)
      emitRCCX(E, Prev, Controls[I], Anc);
    else
      emitCCX(E, Prev, Controls[I], Anc);
    Prev = Anc;
  }
  emitCCX(E, Prev, Controls[N - 1], Target);
  for (auto It = ChainSteps.rbegin(); It != ChainSteps.rend(); ++It) {
    if (Mode == McDecompose::Selinger)
      emitRCCX(E, (*It)[0], (*It)[1], (*It)[2]);
    else
      emitCCX(E, (*It)[0], (*It)[1], (*It)[2]);
  }
  for (auto It = Ancillas.rbegin(); It != Ancillas.rend(); ++It)
    E.freeAncillaZ(*It);
}

/// Reduces an n-controlled U (n >= 2) to a single-controlled U by
/// computing the AND of the controls into one ancilla.
void withControlAncilla(GateEmitter &E, const std::vector<unsigned> &Controls,
                        McDecompose Mode,
                        const std::function<void(unsigned)> &Fn) {
  unsigned Anc = E.allocAncilla();
  emitMCX(E, Controls, Anc, Mode);
  Fn(Anc);
  emitMCX(E, Controls, Anc, Mode);
  E.freeAncillaZ(Anc);
}

/// Decomposes one multi-controlled gate op in place; returns true if it
/// rewrote something.
bool decomposeOp(Op *O, McDecompose Mode) {
  if (O->Kind != OpKind::Gate)
    return false;
  unsigned NC = O->NumControls;
  GateKind K = O->GateAttr;
  // A controlled SWAP and any gate with two or more controls decompose.
  if (NC < (K == GateKind::Swap ? 1u : 2u))
    return false;

  Builder B(O->ParentBlock, O);
  std::vector<Value *> Operand;
  for (Value *V : O->Operands)
    Operand.push_back(V);
  GateEmitter E(B, Operand);
  std::vector<unsigned> Controls, Targets;
  for (unsigned I = 0; I < O->numOperands(); ++I)
    (I < NC ? Controls : Targets).push_back(I);

  if (K == GateKind::Swap) {
    // ctl-SWAP(a, b) = CX(b,a) MCX(ctls+a -> b) CX(b,a).
    unsigned A = Targets[0], T = Targets[1];
    E.gate(GateKind::X, {T}, {A});
    std::vector<unsigned> C2 = Controls;
    C2.push_back(A);
    emitMCX(E, C2, T, Mode);
    E.gate(GateKind::X, {T}, {A});
  } else if (K == GateKind::X) {
    emitMCX(E, Controls, Targets[0], Mode);
  } else if (K == GateKind::Z) {
    // MCZ = H-conjugated MCX.
    E.gate(GateKind::H, {}, {Targets[0]});
    emitMCX(E, Controls, Targets[0], Mode);
    E.gate(GateKind::H, {}, {Targets[0]});
  } else {
    // Generic controlled-U: collapse controls into one ancilla.
    GateKind Kind = K;
    GateParam Param = O->ParamAttr;
    unsigned T = Targets[0];
    withControlAncilla(E, Controls, Mode, [&](unsigned Anc) {
      E.gate(Kind, {Anc}, {T}, Param);
    });
  }

  for (unsigned I = 0; I < O->numResults(); ++I)
    O->result(I)->replaceAllUsesWith(E.wire(I));
  O->erase();
  return true;
}

void decomposeBlock(Block &B, McDecompose Mode) {
  std::vector<Op *> Ops;
  for (auto &O : B.Ops)
    Ops.push_back(O.get());
  for (Op *O : Ops) {
    for (auto &R : O->Regions)
      if (R)
        decomposeBlock(*R, Mode);
    decomposeOp(O, Mode);
  }
}

} // namespace

void asdf::decomposeMultiControls(Module &M, McDecompose Mode) {
  for (auto &F : M.Functions)
    decomposeBlock(F.get()->Body, Mode);
}
