//===- AdjointPred.cpp - Adjoint and predication of basic blocks ----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/AdjointPred.h"

#include <algorithm>
#include <map>

using namespace asdf;

namespace {

/// Looks a value up in the map, defaulting to itself (for values defined
/// outside the block being transformed).
Value *lookup(ValueMap &Map, Value *V) {
  auto It = Map.find(V);
  return It != Map.end() ? It->second : V;
}

/// The two-vector swap basis {'01','10'} (std).
BasisLiteral swapLiteral(bool Reversed) {
  BasisVector V01(PrimitiveBasis::Std, 2, 0b01);
  BasisVector V10(PrimitiveBasis::Std, 2, 0b10);
  if (Reversed)
    return BasisLiteral({V10, V01});
  return BasisLiteral({V01, V10});
}

} // namespace

//===----------------------------------------------------------------------===//
// Adjoint (§5.2)
//===----------------------------------------------------------------------===//

/// Emits the adjoint of \p O into \p B. Values in \p Map are "reversed
/// wires": Map[result] is the adjoint op's *input* and Map[operand] becomes
/// its *output*. Returns false for non-adjointable ops.
static bool buildAdjointOp(Builder &B, Op *O, ValueMap &Map) {
  switch (O->Kind) {
  case OpKind::QbTrans: {
    // ~(b1 >> b2) = b2 >> b1; vector phases travel with their vectors.
    Value *In = lookup(Map, O->result(0));
    Value *Out = B.qbtrans(In, O->BasisAttr2, O->BasisAttr);
    Map[O->operand(0)] = Out;
    return true;
  }
  case OpKind::QbId: {
    Map[O->operand(0)] = B.qbid(lookup(Map, O->result(0)));
    return true;
  }
  case OpKind::EmbedClassical: {
    // Both U_f (XOR target) and the sign oracle are self-adjoint.
    Value *In = lookup(Map, O->result(0));
    Value *Out = B.embedClassical(In, O->SymbolAttr, O->EmbedAttr);
    Out->DefOp->BasisAttr = O->BasisAttr;
    Map[O->operand(0)] = Out;
    return true;
  }
  case OpKind::QbPack: {
    // Adjoint of packing is unpacking.
    std::vector<Value *> Qs = B.qbunpack(lookup(Map, O->result(0)));
    for (unsigned I = 0; I < O->numOperands(); ++I)
      Map[O->operand(I)] = Qs[I];
    return true;
  }
  case OpKind::QbUnpack: {
    std::vector<Value *> Qs;
    for (unsigned I = 0; I < O->numResults(); ++I)
      Qs.push_back(lookup(Map, O->result(I)));
    Map[O->operand(0)] = B.qbpack(Qs);
    return true;
  }
  case OpKind::Call: {
    // call @f -> call adj @f (§5): the Adjointable interface of calls.
    std::vector<Value *> Ins;
    for (unsigned I = 0; I < O->numResults(); ++I)
      Ins.push_back(lookup(Map, O->result(I)));
    std::vector<IRType> ResultTypes;
    for (Value *V : O->Operands)
      ResultTypes.push_back(V->Ty);
    Op *New = B.createOp(OpKind::Call, Ins, ResultTypes);
    New->SymbolAttr = O->SymbolAttr;
    New->AdjFlag = !O->AdjFlag;
    New->BasisAttr = O->BasisAttr;
    for (unsigned I = 0; I < O->numOperands(); ++I)
      Map[O->operand(I)] = New->result(I);
    return true;
  }
  case OpKind::CallIndirect: {
    // The function value is stationary; wrap it in func_adj.
    Value *Func = B.funcAdj(lookup(Map, O->operand(0)));
    std::vector<Value *> Ins;
    for (unsigned I = 0; I < O->numResults(); ++I)
      Ins.push_back(lookup(Map, O->result(I)));
    std::vector<Value *> Results = B.callIndirect(Func, Ins);
    for (unsigned I = 1; I < O->numOperands(); ++I)
      Map[O->operand(I)] = Results[I - 1];
    return true;
  }
  case OpKind::Gate: {
    std::vector<Value *> Controls, Targets;
    for (unsigned I = 0; I < O->numResults(); ++I) {
      Value *V = lookup(Map, O->result(I));
      if (I < O->NumControls)
        Controls.push_back(V);
      else
        Targets.push_back(V);
    }
    GateKind Adj = adjointGateKind(O->GateAttr);
    GateParam Param = O->ParamAttr;
    if (isParamGate(O->GateAttr))
      Param = Param.negated();
    std::vector<Value *> Results = B.gate(Adj, Controls, Targets, Param);
    for (unsigned I = 0; I < O->numOperands(); ++I)
      Map[O->operand(I)] = Results[I];
    return true;
  }
  case OpKind::QAlloc: {
    // Adjoint of allocating |0> is freeing a qubit known to be |0>.
    B.qfreez(lookup(Map, O->result(0)));
    return true;
  }
  case OpKind::QFreeZ: {
    Map[O->operand(0)] = B.qalloc();
    return true;
  }
  default:
    // qbprep/qbmeas/qbdiscard/measure/if are irreversible; call sites should
    // have been rejected by the type checker.
    return false;
  }
}

std::unique_ptr<Block> asdf::adjointBlock(const Block &Source) {
  assert(!Source.Ops.empty());
  Op *Term = Source.Ops.back().get();
  assert((Term->Kind == OpKind::Ret || Term->Kind == OpKind::Yield) &&
         "adjointBlock requires a terminated block");

  auto NB = std::make_unique<Block>();
  Builder B(NB.get());
  ValueMap Map;

  // Stationary ops stay in place: clone them in forward order first so
  // function values and constants are available (Fig. 4).
  for (const auto &O : Source.Ops)
    if (O->isStationary())
      cloneOp(B, O.get(), Map);

  // The original outputs become the new inputs.
  for (Value *V : Term->Operands)
    Map[V] = NB->addArg(V->Ty);

  // Traverse the def-use DAG backwards, building adjoints top-down.
  for (auto It = Source.Ops.rbegin(); It != Source.Ops.rend(); ++It) {
    Op *O = It->get();
    if (O == Term || O->isStationary())
      continue;
    if (!buildAdjointOp(B, O, Map))
      return nullptr;
  }

  // The original inputs become the new outputs.
  std::vector<Value *> Outs;
  for (Value &Arg : const_cast<Block &>(Source).Args)
    Outs.push_back(lookup(Map, &Arg));
  B.yield(Outs);
  return NB;
}

//===----------------------------------------------------------------------===//
// Renaming-permutation dataflow analysis (§5.3)
//===----------------------------------------------------------------------===//

std::optional<std::vector<unsigned>>
asdf::computeRenamingPermutation(const Block &Source) {
  // Maps each qubit-carrying value to the argument indices it represents.
  std::map<const Value *, std::vector<unsigned>> Indices;
  unsigned Next = 0;
  for (const Value &Arg : Source.Args) {
    if (!Arg.Ty.isLinear())
      continue;
    std::vector<unsigned> Ix;
    unsigned N = Arg.Ty.isQubit() ? 1 : Arg.Ty.dim();
    for (unsigned I = 0; I < N; ++I)
      Ix.push_back(Next++);
    Indices[&Arg] = std::move(Ix);
  }

  Op *Term = const_cast<Block &>(Source).Ops.back().get();
  for (const auto &OPtr : Source.Ops) {
    Op *O = OPtr.get();
    if (O == Term || O->isStationary())
      continue;
    switch (O->Kind) {
    case OpKind::QbUnpack: {
      const auto &In = Indices.at(O->operand(0));
      for (unsigned I = 0; I < O->numResults(); ++I)
        Indices[O->result(I)] = {In[I]};
      break;
    }
    case OpKind::QbPack: {
      std::vector<unsigned> Out;
      for (Value *V : O->Operands) {
        const auto &In = Indices.at(V);
        Out.insert(Out.end(), In.begin(), In.end());
      }
      Indices[O->result(0)] = std::move(Out);
      break;
    }
    case OpKind::QbTrans:
    case OpKind::QbId:
    case OpKind::EmbedClassical: {
      // These ops act on qubits without renumbering positions.
      Indices[O->result(0)] = Indices.at(O->operand(0));
      break;
    }
    case OpKind::Call: {
      unsigned R = 0;
      for (Value *V : O->Operands) {
        if (!V->Ty.isLinear())
          continue;
        Indices[O->result(R)] = Indices.at(V);
        ++R;
      }
      break;
    }
    case OpKind::CallIndirect: {
      // Operand 0 is the function value.
      if (O->numResults() == 1 && O->numOperands() == 2)
        Indices[O->result(0)] = Indices.at(O->operand(1));
      else
        return std::nullopt;
      break;
    }
    case OpKind::Gate: {
      for (unsigned I = 0; I < O->numOperands(); ++I)
        Indices[O->result(I)] = Indices.at(O->operand(I));
      break;
    }
    case OpKind::QAlloc:
      // Fresh ancilla: give it fresh indices.
      Indices[O->result(0)] = {Next++};
      break;
    case OpKind::QFreeZ:
    case OpKind::QFree:
      break;
    default:
      return std::nullopt;
    }
  }

  std::vector<unsigned> Final;
  for (Value *V : Term->Operands) {
    auto It = Indices.find(V);
    if (It == Indices.end())
      return std::nullopt;
    Final.insert(Final.end(), It->second.begin(), It->second.end());
  }
  return Final;
}

//===----------------------------------------------------------------------===//
// Predication (§5.3)
//===----------------------------------------------------------------------===//

namespace {

/// State threaded through predication: the predicate qubits (updated by each
/// predicated op).
struct PredState {
  std::vector<Value *> PredQs;
  const Basis &Pred;
};

/// Widens \p Bundle by prefixing the predicate qubits; returns the widened
/// bundle value.
Value *widen(Builder &B, PredState &PS, Value *Bundle) {
  std::vector<Value *> Qs = PS.PredQs;
  std::vector<Value *> Rest = B.qbunpack(Bundle);
  Qs.insert(Qs.end(), Rest.begin(), Rest.end());
  return B.qbpack(Qs);
}

/// Splits a widened bundle back into refreshed predicate qubits and the
/// narrow bundle.
Value *narrow(Builder &B, PredState &PS, Value *Wide, unsigned RestDim) {
  std::vector<Value *> Qs = B.qbunpack(Wide);
  unsigned M = PS.PredQs.size();
  PS.PredQs.assign(Qs.begin(), Qs.begin() + M);
  std::vector<Value *> Rest(Qs.begin() + M, Qs.end());
  (void)RestDim;
  return B.qbpack(Rest);
}

bool buildPredicatedOp(Builder &B, Op *O, ValueMap &Map, PredState &PS) {
  switch (O->Kind) {
  case OpKind::QbPack: {
    std::vector<Value *> Ins;
    for (Value *V : O->Operands)
      Ins.push_back(lookup(Map, V));
    Map[O->result(0)] = B.qbpack(Ins);
    return true;
  }
  case OpKind::QbUnpack: {
    std::vector<Value *> Outs = B.qbunpack(lookup(Map, O->operand(0)));
    for (unsigned I = 0; I < O->numResults(); ++I)
      Map[O->result(I)] = Outs[I];
    return true;
  }
  case OpKind::QbId: {
    Map[O->result(0)] = B.qbid(lookup(Map, O->operand(0)));
    return true;
  }
  case OpKind::QbTrans: {
    // Add the predicate to both sides: b & (b1 >> b2) = b+b1 >> b+b2.
    unsigned RestDim = O->operand(0)->Ty.dim();
    Value *Wide = widen(B, PS, lookup(Map, O->operand(0)));
    Value *NewWide = B.qbtrans(Wide, PS.Pred.tensor(O->BasisAttr),
                               PS.Pred.tensor(O->BasisAttr2));
    Map[O->result(0)] = narrow(B, PS, NewWide, RestDim);
    return true;
  }
  case OpKind::EmbedClassical: {
    unsigned RestDim = O->operand(0)->Ty.dim();
    Value *Wide = widen(B, PS, lookup(Map, O->operand(0)));
    Value *NewWide =
        B.embedClassical(Wide, O->SymbolAttr, O->EmbedAttr);
    NewWide->DefOp->BasisAttr = PS.Pred.tensor(O->BasisAttr);
    Map[O->result(0)] = narrow(B, PS, NewWide, RestDim);
    return true;
  }
  case OpKind::Call: {
    assert(O->numOperands() == 1 && O->numResults() == 1 &&
           "predicating a call with a non-qbundle signature");
    unsigned RestDim = O->operand(0)->Ty.dim();
    Value *Wide = widen(B, PS, lookup(Map, O->operand(0)));
    Op *New = B.createOp(OpKind::Call, {Wide}, {Wide->Ty});
    New->SymbolAttr = O->SymbolAttr;
    New->AdjFlag = O->AdjFlag;
    New->BasisAttr = PS.Pred.tensor(O->BasisAttr);
    Map[O->result(0)] = narrow(B, PS, New->result(0), RestDim);
    return true;
  }
  case OpKind::CallIndirect: {
    assert(O->numOperands() == 2 && O->numResults() == 1);
    Value *Func = B.funcPred(lookup(Map, O->operand(0)), PS.Pred);
    unsigned RestDim = O->operand(1)->Ty.dim();
    Value *Wide = widen(B, PS, lookup(Map, O->operand(1)));
    std::vector<Value *> Results = B.callIndirect(Func, {Wide});
    Map[O->result(0)] = narrow(B, PS, Results.front(), RestDim);
    return true;
  }
  case OpKind::Gate: {
    // QCircuit-level predication: add predicate qubits as controls. Only
    // all-ones std predicates are supported here (QIR callable controls);
    // general bases are handled at the Qwerty level via qbtrans attributes.
    std::vector<Value *> Controls = PS.PredQs;
    std::vector<Value *> Targets;
    for (unsigned I = 0; I < O->numOperands(); ++I) {
      Value *V = lookup(Map, O->operand(I));
      if (I < O->NumControls)
        Controls.push_back(V);
      else
        Targets.push_back(V);
    }
    std::vector<Value *> Results =
        B.gate(O->GateAttr, Controls, Targets, O->ParamAttr);
    unsigned M = PS.PredQs.size();
    for (unsigned I = 0; I < M; ++I)
      PS.PredQs[I] = Results[I];
    for (unsigned I = 0; I < O->numResults(); ++I)
      Map[O->result(I)] = Results[M + I];
    return true;
  }
  case OpKind::QAlloc: {
    // Ancillas are allocated unconditionally in both spaces.
    Map[O->result(0)] = B.qalloc();
    return true;
  }
  case OpKind::QFreeZ: {
    B.qfreez(lookup(Map, O->operand(0)));
    return true;
  }
  default:
    return false;
  }
}

} // namespace

std::unique_ptr<Block> asdf::predicateBlock(const Block &Source,
                                            const Basis &Pred) {
  assert(!Source.Ops.empty());
  Op *Term = const_cast<Block &>(Source).Ops.back().get();
  assert((Term->Kind == OpKind::Ret || Term->Kind == OpKind::Yield) &&
         "predicateBlock requires a terminated block");
  assert(Source.Args.size() == 1 && Term->numOperands() == 1 &&
         "predicateBlock requires a single-qbundle signature");

  // Run the renaming analysis on the *unpredicated* block first (Fig. 5).
  std::optional<std::vector<unsigned>> Perm =
      computeRenamingPermutation(Source);
  if (!Perm)
    return nullptr;

  unsigned M = Pred.dim();
  unsigned N = const_cast<Block &>(Source).Args.front().Ty.dim();

  auto NB = std::make_unique<Block>();
  Builder B(NB.get());
  Value *WideArg = NB->addArg(IRType::qbundle(M + N));
  std::vector<Value *> Qs = B.qbunpack(WideArg);
  PredState PS{{Qs.begin(), Qs.begin() + M}, Pred};
  Value *Rest = B.qbpack({Qs.begin() + M, Qs.end()});

  ValueMap Map;
  Map[&const_cast<Block &>(Source).Args.front()] = Rest;

  for (const auto &OPtr : Source.Ops) {
    Op *O = OPtr.get();
    if (O == Term)
      continue;
    if (O->isStationary()) {
      cloneOp(B, O, Map);
      continue;
    }
    if (!buildPredicatedOp(B, O, Map, PS))
      return nullptr;
  }

  Value *Out = lookup(Map, Term->operand(0));

  // Undo renaming-based swaps outside the predicated space (§5.3): for each
  // transposition that sorts the permutation, emit an unconditional SWAP
  // (undo everywhere) followed by a predicated SWAP (redo inside the
  // predicate span). Ancilla indices cannot appear in outputs of a
  // well-formed reversible block, so every entry is < N.
  std::vector<unsigned> P = *Perm;
  bool Identity = true;
  for (unsigned I = 0; I < P.size(); ++I)
    Identity = Identity && P[I] == I;
  std::vector<Value *> OutQs;
  if (!Identity) {
    OutQs = B.qbunpack(Out);
    for (unsigned Pos = 0; Pos < P.size(); ++Pos) {
      while (P[Pos] != Pos) {
        // Find the position currently holding wire `Pos`.
        unsigned Other = Pos;
        for (unsigned J = Pos + 1; J < P.size(); ++J)
          if (P[J] == Pos) {
            Other = J;
            break;
          }
        assert(Other != Pos && "malformed permutation");
        // Unconditional SWAP undoing the logical swap everywhere.
        Value *Pair = B.qbpack({OutQs[Pos], OutQs[Other]});
        Value *Swapped =
            B.qbtrans(Pair, Basis::literal(swapLiteral(false)),
                      Basis::literal(swapLiteral(true)));
        std::vector<Value *> Un = B.qbunpack(Swapped);
        // Predicated SWAP redoing it inside span(Pred).
        std::vector<Value *> WideQs = PS.PredQs;
        WideQs.push_back(Un[0]);
        WideQs.push_back(Un[1]);
        Value *WidePair = B.qbpack(WideQs);
        Value *CtlSwapped = B.qbtrans(
            WidePair, Pred.tensor(Basis::literal(swapLiteral(false))),
            Pred.tensor(Basis::literal(swapLiteral(true))));
        std::vector<Value *> Un2 = B.qbunpack(CtlSwapped);
        PS.PredQs.assign(Un2.begin(), Un2.begin() + M);
        OutQs[Pos] = Un2[M];
        OutQs[Other] = Un2[M + 1];
        std::swap(P[Pos], P[Other]);
      }
    }
  } else {
    OutQs = B.qbunpack(Out);
  }

  // Yield the widened bundle: predicate qubits first.
  std::vector<Value *> FinalQs = PS.PredQs;
  FinalQs.insert(FinalQs.end(), OutQs.begin(), OutQs.end());
  B.yield({B.qbpack(FinalQs)});
  return NB;
}
