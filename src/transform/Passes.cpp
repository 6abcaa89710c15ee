//===- Passes.cpp - Qwerty IR transformation passes (§5.4, §6.2) ----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Passes.h"

#include "transform/AdjointPred.h"

#include <functional>
#include <map>

using namespace asdf;

namespace {

/// Moves the contents of \p Src into \p Dst's body, converting a trailing
/// Yield into Ret and recording result types.
void moveBlockIntoFunction(Block &Src, IRFunction &Dst) {
  Dst.Body.Args = std::move(Src.Args);
  for (Value &A : Dst.Body.Args)
    A.DefBlock = &Dst.Body;
  Dst.Body.Ops = std::move(Src.Ops);
  for (auto &O : Dst.Body.Ops)
    O->ParentBlock = &Dst.Body;
  Op *Term = Dst.Body.terminator();
  assert(Term->Kind == OpKind::Yield || Term->Kind == OpKind::Ret);
  Dst.ResultTypes.clear();
  for (Value *V : Term->Operands)
    Dst.ResultTypes.push_back(V->Ty);
  if (Term->Kind == OpKind::Yield) {
    Builder B(&Dst.Body, Term);
    B.ret(Term->Operands);
    Term->erase();
  }
}

/// Clones \p Src into a fresh standalone block ending in Yield.
std::unique_ptr<Block> cloneToStandalone(const Block &Src) {
  auto NB = std::make_unique<Block>();
  ValueMap Map;
  for (Value &A : const_cast<Block &>(Src).Args)
    Map[&A] = NB->addArg(A.Ty);
  Builder B(NB.get());
  cloneBlockBody(B, const_cast<Block &>(Src), Map, /*SkipTerminator=*/true);
  Op *Term = const_cast<Block &>(Src).Ops.back().get();
  std::vector<Value *> Outs;
  for (Value *V : Term->Operands) {
    auto It = Map.find(V);
    Outs.push_back(It != Map.end() ? It->second : V);
  }
  B.yield(Outs);
  return NB;
}

/// Builds the (possibly adjointed/predicated) body for a callee (§6.2).
std::unique_ptr<Block> buildSpecializedBlock(const Block &Source, bool Adj,
                                             const Basis &Pred) {
  std::unique_ptr<Block> Work = cloneToStandalone(Source);
  if (Adj) {
    Work = adjointBlock(*Work);
    if (!Work)
      return nullptr;
  }
  if (!Pred.empty()) {
    Work = predicateBlock(*Work, Pred);
    if (!Work)
      return nullptr;
  }
  return Work;
}

/// All-ones std predicate basis of width \p N (QIR callable controls).
Basis allOnesPred(unsigned N) {
  assert(N > 0 && N <= MaxLiteralDim);
  uint64_t Ones = N == 64 ? ~uint64_t(0) : ((uint64_t(1) << N) - 1);
  return Basis::literal(
      BasisLiteral({BasisVector(PrimitiveBasis::Std, N, Ones)}));
}

} // namespace

//===----------------------------------------------------------------------===//
// Lambda lifting
//===----------------------------------------------------------------------===//

void asdf::liftLambdas(Module &M) {
  bool Changed = true;
  unsigned Counter = 0;
  while (Changed) {
    Changed = false;
    for (auto &F : M.Functions) {
      // Find a lambda op anywhere in this function.
      Op *Lambda = nullptr;
      std::function<void(Block &)> Find = [&](Block &B) {
        for (auto &O : B.Ops) {
          if (Lambda)
            return;
          if (O->Kind == OpKind::Lambda) {
            Lambda = O.get();
            return;
          }
          for (auto &R : O->Regions)
            if (R)
              Find(*R);
        }
      };
      Find(F->Body);
      if (!Lambda)
        continue;

      // createUnique may reallocate M.Functions, invalidating F — read
      // everything needed from F first.
      SourceLoc ParentLoc = F->Loc;
      IRFunction *Lifted =
          M.createUnique(F->Name + "__lambda" + std::to_string(Counter++));
      Lifted->IsLambdaLifted = true;
      Lifted->Loc = ParentLoc;
      moveBlockIntoFunction(*Lambda->Regions[0], *Lifted);
      Lambda->Regions.clear();

      Builder B(Lambda->ParentBlock, Lambda);
      Value *Const = B.funcConst(Lifted->Name, Lambda->result(0)->Ty);
      Lambda->result(0)->replaceAllUsesWith(Const);
      Lambda->erase();
      Changed = true;
      break; // Module functions vector may have reallocated; restart.
    }
  }
}

//===----------------------------------------------------------------------===//
// Canonicalization patterns
//===----------------------------------------------------------------------===//

namespace {

/// Resolves a function value back to (symbol, adj, predBasis); returns false
/// if the chain does not bottom out at a func_const.
bool resolveFuncChain(Value *Callee, std::string &Symbol, bool &Adj,
                      Basis &Pred) {
  Adj = false;
  Pred = Basis();
  std::vector<Basis> Preds;
  while (true) {
    Op *Def = Callee->DefOp;
    if (!Def)
      return false;
    switch (Def->Kind) {
    case OpKind::FuncConst:
      Symbol = Def->SymbolAttr;
      // Outermost predicate qubits come first.
      for (const Basis &P : Preds)
        Pred = Pred.tensor(P);
      return true;
    case OpKind::FuncAdj:
      Adj = !Adj;
      Callee = Def->operand(0);
      continue;
    case OpKind::FuncPred:
      Preds.push_back(Def->BasisAttr);
      Callee = Def->operand(0);
      continue;
    default:
      return false;
    }
  }
}

/// Erases a pure op if all its results are dead; recursively erases newly
/// dead defs. Returns true if anything was erased.
bool eraseIfDead(Op *O) {
  if (!O->isPure())
    return false;
  for (Value &R : O->Results)
    if (!R.Uses.empty())
      return false;
  std::vector<Value *> Operands = O->Operands;
  O->erase();
  for (Value *V : Operands)
    if (V->DefOp && V->Uses.empty())
      eraseIfDead(V->DefOp);
  return true;
}

/// One canonicalization step on a block; returns true if a rewrite fired.
bool canonicalizeBlockOnce(Block &B, Module &M) {
  for (auto It = B.Ops.begin(); It != B.Ops.end(); ++It) {
    Op *O = It->get();

    // qbid %x -> %x.
    if (O->Kind == OpKind::QbId) {
      O->result(0)->replaceAllUsesWith(O->operand(0));
      O->erase();
      return true;
    }

    // func_adj(func_adj(x)) -> x.
    if (O->Kind == OpKind::FuncAdj) {
      Op *Inner = O->operand(0)->DefOp;
      if (Inner && Inner->Kind == OpKind::FuncAdj) {
        O->result(0)->replaceAllUsesWith(Inner->operand(0));
        O->erase();
        eraseIfDead(Inner);
        return true;
      }
    }

    // qbunpack(qbpack(xs)) -> xs.
    if (O->Kind == OpKind::QbUnpack || O->Kind == OpKind::BitUnpack) {
      Op *Pack = O->operand(0)->DefOp;
      OpKind PackKind =
          O->Kind == OpKind::QbUnpack ? OpKind::QbPack : OpKind::BitPack;
      if (Pack && Pack->Kind == PackKind) {
        for (unsigned I = 0; I < O->numResults(); ++I)
          O->result(I)->replaceAllUsesWith(Pack->operand(I));
        O->erase();
        // The pack's result is now unused (it was linear with one use).
        if (Pack->Results[0].Uses.empty()) {
          Pack->erase();
        }
        return true;
      }
    }

    // qbpack(qbunpack(x)) -> x when complete and in order.
    if (O->Kind == OpKind::QbPack || O->Kind == OpKind::BitPack) {
      if (O->numOperands() > 0) {
        Op *Unpack = O->operand(0)->DefOp;
        OpKind UnpackKind = O->Kind == OpKind::QbPack ? OpKind::QbUnpack
                                                      : OpKind::BitUnpack;
        if (Unpack && Unpack->Kind == UnpackKind &&
            Unpack->numResults() == O->numOperands()) {
          bool InOrder = true;
          for (unsigned I = 0; I < O->numOperands(); ++I)
            InOrder = InOrder && O->operand(I) == Unpack->result(I);
          if (InOrder) {
            O->result(0)->replaceAllUsesWith(Unpack->operand(0));
            O->erase();
            if (std::all_of(Unpack->Results.begin(), Unpack->Results.end(),
                            [](Value &R) { return R.Uses.empty(); }))
              Unpack->erase();
            return true;
          }
        }
      }
    }

    // call_indirect(func chain bottoming at func_const @f) -> call @f.
    if (O->Kind == OpKind::CallIndirect) {
      std::string Symbol;
      bool Adj = false;
      Basis Pred;
      if (resolveFuncChain(O->operand(0), Symbol, Adj, Pred)) {
        std::vector<Value *> Args(O->Operands.begin() + 1,
                                  O->Operands.end());
        std::vector<IRType> ResultTypes;
        for (Value &R : O->Results)
          ResultTypes.push_back(R.Ty);
        Builder Bld(&B, O);
        Op *NewCall = Bld.createOp(OpKind::Call, Args, ResultTypes);
        NewCall->SymbolAttr = Symbol;
        NewCall->AdjFlag = Adj;
        NewCall->BasisAttr = Pred;
        Value *Chain = O->operand(0);
        for (unsigned I = 0; I < O->numResults(); ++I)
          O->result(I)->replaceAllUsesWith(NewCall->result(I));
        O->erase();
        if (Chain->DefOp)
          eraseIfDead(Chain->DefOp);
        return true;
      }
    }

    // Appendix C: push call_indirect/func_adj/func_pred whose function
    // operand is an scf.if result into both forks.
    if (O->Kind == OpKind::CallIndirect || O->Kind == OpKind::FuncAdj ||
        O->Kind == OpKind::FuncPred) {
      Value *FuncVal = O->operand(0);
      Op *IfDef = FuncVal->DefOp;
      if (IfDef && IfDef->Kind == OpKind::If && FuncVal->hasOneUse() &&
          IfDef->numResults() == 1 && IfDef->ParentBlock == &B) {
        std::vector<IRType> NewTypes;
        for (Value &R : O->Results)
          NewTypes.push_back(R.Ty);
        Builder Bld(&B, O);
        Op *NewIf = Bld.createOp(OpKind::If, {IfDef->operand(0)}, NewTypes);
        NewIf->Regions = std::move(IfDef->Regions);
        IfDef->Regions.clear();
        for (auto &R : NewIf->Regions)
          R->ParentOp = NewIf;
        for (auto &R : NewIf->Regions) {
          Op *Yield = R->terminator();
          assert(Yield->Kind == OpKind::Yield);
          Value *BranchFunc = Yield->operand(0);
          Builder RB(R.get(), Yield);
          std::vector<Value *> NewOuts;
          switch (O->Kind) {
          case OpKind::CallIndirect: {
            std::vector<Value *> Args(O->Operands.begin() + 1,
                                      O->Operands.end());
            NewOuts = RB.callIndirect(BranchFunc, Args);
            break;
          }
          case OpKind::FuncAdj:
            NewOuts = {RB.funcAdj(BranchFunc)};
            break;
          case OpKind::FuncPred:
            NewOuts = {RB.funcPred(BranchFunc, O->BasisAttr)};
            break;
          default:
            break;
          }
          Yield->dropOperands();
          for (Value *V : NewOuts)
            Yield->addOperand(V);
        }
        // O's operands other than the function value are now consumed
        // inside the regions; drop O.
        for (unsigned I = 0; I < O->numResults(); ++I)
          O->result(I)->replaceAllUsesWith(NewIf->result(I));
        O->erase();
        IfDef->erase();
        return true;
      }
    }

    // DCE for pure ops.
    if (eraseIfDead(O))
      return true;

    // Recurse into regions.
    for (auto &R : O->Regions)
      if (R && canonicalizeBlockOnce(*R, M))
        return true;
  }
  return false;
}

} // namespace

bool asdf::canonicalizeIR(Module &M) {
  bool Changed = false;
  bool Fired = true;
  while (Fired) {
    Fired = false;
    for (auto &F : M.Functions)
      if (canonicalizeBlockOnce(F->Body, M)) {
        Fired = true;
        Changed = true;
        break;
      }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Inlining
//===----------------------------------------------------------------------===//

bool asdf::inlineOneCall(Module &M) {
  for (auto &F : M.Functions) {
    Op *Call = nullptr;
    std::function<void(Block &)> Find = [&](Block &B) {
      for (auto &O : B.Ops) {
        if (Call)
          return;
        if (O->Kind == OpKind::Call && M.lookup(O->SymbolAttr) &&
            M.lookup(O->SymbolAttr) != F.get()) {
          Call = O.get();
          return;
        }
        for (auto &R : O->Regions)
          if (R)
            Find(*R);
      }
    };
    Find(F->Body);
    if (!Call)
      continue;

    IRFunction *Callee = M.lookup(Call->SymbolAttr);
    std::unique_ptr<Block> Body = buildSpecializedBlock(
        Callee->Body, Call->AdjFlag, Call->BasisAttr);
    if (!Body)
      return false;

    ValueMap Map;
    assert(Body->numArgs() == Call->numOperands() &&
           "inline argument count mismatch");
    for (unsigned I = 0; I < Body->numArgs(); ++I)
      Map[Body->arg(I)] = Call->operand(I);
    Builder B(Call->ParentBlock, Call);
    cloneBlockBody(B, *Body, Map, /*SkipTerminator=*/true);
    Op *Term = Body->terminator();
    for (unsigned I = 0; I < Call->numResults(); ++I) {
      Value *Mapped = Term->operand(I);
      auto It = Map.find(Mapped);
      Call->result(I)->replaceAllUsesWith(It != Map.end() ? It->second
                                                          : Mapped);
    }
    // Tear down the temporary body before erasing the call.
    while (!Body->Ops.empty()) {
      Op *Last = Body->Ops.back().get();
      Last->dropOperands();
      Last->Regions.clear();
      Body->Ops.pop_back();
    }
    Call->erase();
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Dead function elimination and pipelines
//===----------------------------------------------------------------------===//

void asdf::removeDeadFunctions(Module &M, const std::set<std::string> &Keep) {
  std::set<std::string> Live = Keep;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &F : M.Functions) {
      if (!Live.count(F->Name))
        continue;
      std::function<void(Block &)> Walk = [&](Block &B) {
        for (auto &O : B.Ops) {
          if ((O->Kind == OpKind::FuncConst ||
               O->Kind == OpKind::Call ||
               O->Kind == OpKind::CallableCreate) &&
              !O->SymbolAttr.empty() && !Live.count(O->SymbolAttr)) {
            Live.insert(O->SymbolAttr);
            Changed = true;
          }
          for (auto &R : O->Regions)
            if (R)
              Walk(*R);
        }
      };
      Walk(F->Body);
    }
  }
  for (auto It = M.Functions.begin(); It != M.Functions.end();) {
    if (!Live.count((*It)->Name)) {
      // Drop the body cleanly before destruction.
      Block &B = (*It)->Body;
      while (!B.Ops.empty()) {
        Op *Last = B.Ops.back().get();
        Last->dropOperands();
        Last->Regions.clear();
        B.Ops.pop_back();
      }
      It = M.Functions.erase(It);
    } else {
      ++It;
    }
  }
}

//===----------------------------------------------------------------------===//
// Function specialization analysis (§6.2, Algorithm D5)
//===----------------------------------------------------------------------===//

std::string asdf::specSymbol(const SpecKey &Key) {
  const auto &[Name, Adj, Ctrls] = Key;
  std::string S = Name;
  if (Adj)
    S += "__adj";
  if (Ctrls)
    S += "__ctl" + std::to_string(Ctrls);
  return S;
}

std::set<SpecKey> asdf::analyzeSpecializations(Module &M,
                                               const std::string &EntryName) {
  // Collect direct specialization requirements of a *forward* invocation of
  // each function (the callable-value labeling analysis of §6.2).
  std::map<std::string, std::set<SpecKey>> DirectCallees;
  for (auto &F : M.Functions) {
    std::set<SpecKey> &Callees = DirectCallees[F->Name];
    std::function<void(Block &)> Walk = [&](Block &B) {
      for (auto &O : B.Ops) {
        if (O->Kind == OpKind::Call)
          Callees.insert(
              {O->SymbolAttr, O->AdjFlag, O->BasisAttr.dim()});
        else if (O->Kind == OpKind::CallIndirect) {
          std::string Symbol;
          bool Adj = false;
          Basis Pred;
          if (resolveFuncChain(O->operand(0), Symbol, Adj, Pred))
            Callees.insert({Symbol, Adj, Pred.dim()});
        }
        for (auto &R : O->Regions)
          if (R)
            Walk(*R);
      }
    };
    Walk(F->Body);
  }

  // Algorithm D5: iterate to a fixpoint over transitive specializations.
  std::set<SpecKey> V;
  std::set<std::pair<SpecKey, SpecKey>> E;
  for (auto &F : M.Functions)
    V.insert({F->Name, false, 0});
  for (auto &[Name, Callees] : DirectCallees)
    for (const SpecKey &Callee : Callees) {
      V.insert(Callee);
      E.insert({{Name, false, 0}, Callee});
    }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::set<SpecKey> NewV = V;
    std::set<std::pair<SpecKey, SpecKey>> NewE = E;
    for (auto &F : M.Functions) {
      SpecKey Fwd{F->Name, false, 0};
      for (const auto &[From, To] : E) {
        if (From != Fwd)
          continue;
        const auto &[CalleeName, CalleeAdj, CalleeCtrls] = To;
        for (const SpecKey &U : V) {
          if (std::get<0>(U) != F->Name)
            continue;
          SpecKey Trans{CalleeName, std::get<1>(U) ^ CalleeAdj,
                        std::get<2>(U) + CalleeCtrls};
          if (NewV.insert(Trans).second)
            Changed = true;
          if (NewE.insert({U, Trans}).second)
            Changed = true;
        }
      }
    }
    V = std::move(NewV);
    E = std::move(NewE);
  }

  // DFS from the entry point; drop unreachable nodes.
  std::set<SpecKey> Reached;
  std::vector<SpecKey> Stack{{EntryName, false, 0}};
  while (!Stack.empty()) {
    SpecKey Cur = Stack.back();
    Stack.pop_back();
    if (!Reached.insert(Cur).second)
      continue;
    for (const auto &[From, To] : E)
      if (From == Cur)
        Stack.push_back(To);
  }
  // Keep only specializations of functions that actually exist in the
  // module (embed symbols etc. are external).
  std::set<SpecKey> Out;
  for (const SpecKey &K : Reached)
    if (M.lookup(std::get<0>(K)))
      Out.insert(K);
  return Out;
}

bool asdf::generateSpecializations(Module &M, const std::set<SpecKey> &Specs) {
  for (const SpecKey &Key : Specs) {
    const auto &[Name, Adj, Ctrls] = Key;
    if (!Adj && Ctrls == 0)
      continue; // Forward form already exists.
    IRFunction *Orig = M.lookup(Name);
    if (!Orig)
      return false;
    if (M.lookup(specSymbol(Key)))
      continue;
    Basis Pred = Ctrls ? allOnesPred(Ctrls) : Basis();
    std::unique_ptr<Block> Body =
        buildSpecializedBlock(Orig->Body, Adj, Pred);
    if (!Body)
      return false;
    IRFunction *Spec = M.create(specSymbol(Key));
    Spec->IsSpecialization = true;
    Spec->Loc = Orig->Loc;
    moveBlockIntoFunction(*Body, *Spec);
  }
  return true;
}
