//===- IRTest.cpp - IR infrastructure and transform tests -----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "transform/AdjointPred.h"
#include "transform/Passes.h"

#include <gtest/gtest.h>

using namespace asdf;

namespace {

Basis swapBasis(bool Rev) {
  BasisVector V01(PrimitiveBasis::Std, 2, 0b01);
  BasisVector V10(PrimitiveBasis::Std, 2, 0b10);
  return Basis::literal(Rev ? BasisLiteral({V10, V01})
                            : BasisLiteral({V01, V10}));
}

TEST(IRTest, BuildAndPrint) {
  Module M;
  IRFunction *F = M.create("f");
  Value *Arg = F->Body.addArg(IRType::qbundle(2));
  F->ResultTypes = {IRType::qbundle(2)};
  Builder B(&F->Body);
  Value *Out = B.qbtrans(Arg, Basis::builtin(PrimitiveBasis::Pm, 2),
                         Basis::builtin(PrimitiveBasis::Std, 2));
  B.ret({Out});
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyFunction(*F, Diags)) << Diags.str();
  EXPECT_NE(F->str().find("qbtrans"), std::string::npos);
  EXPECT_NE(F->str().find("pm[2] >> std[2]"), std::string::npos);
}

TEST(IRTest, UseListsMaintained) {
  Module M;
  IRFunction *F = M.create("f");
  Value *Arg = F->Body.addArg(IRType::qbundle(1));
  Builder B(&F->Body);
  Value *T1 = B.qbid(Arg);
  Value *T2 = B.qbid(T1);
  B.ret({T2});
  EXPECT_EQ(Arg->numUses(), 1u);
  EXPECT_EQ(T1->numUses(), 1u);
  // Replace T1's use of Arg... rather, RAUW T1 with Arg after detaching.
  Op *Id1 = T1->DefOp;
  T1->replaceAllUsesWith(Arg);
  EXPECT_EQ(Arg->numUses(), 2u);
  Id1->erase();
  EXPECT_EQ(Arg->numUses(), 1u);
}

TEST(IRTest, DestroyingABlockDropsItsUses) {
  // A block frees its users before their definers, and its uses of
  // values from outside go with it.
  Module M;
  IRFunction *F = M.create("f");
  Value *Arg = F->Body.addArg(IRType::qbundle(1));
  {
    Block Region;
    Builder B(&Region);
    B.qbid(B.qbid(Arg));
    EXPECT_EQ(Arg->numUses(), 1u);
  }
  EXPECT_EQ(Arg->numUses(), 0u);
}

TEST(IRTest, VerifierCatchesDoubleUse) {
  Module M;
  IRFunction *F = M.create("f");
  Value *Arg = F->Body.addArg(IRType::qbundle(1));
  Builder B(&F->Body);
  Value *A = B.qbid(Arg);
  Value *Bv = B.qbid(Arg); // Second use of Arg: linearity violation.
  Value *P = B.qbpack({});
  (void)P;
  B.ret({A});
  B.qbdiscard(Bv); // Consume Bv so only Arg is doubly used.
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyFunction(*F, Diags));
}

TEST(AdjointTest, ReversesTranslation) {
  // Block: arg -> qbtrans(pm>>std) -> yield. Adjoint: qbtrans(std>>pm).
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(2));
  Builder B(&Src);
  Value *Out = B.qbtrans(Arg, Basis::builtin(PrimitiveBasis::Pm, 2),
                         Basis::builtin(PrimitiveBasis::Std, 2));
  B.yield({Out});

  std::unique_ptr<Block> Adj = adjointBlock(Src);
  ASSERT_TRUE(Adj);
  // Find the qbtrans in the adjoint.
  Op *Trans = nullptr;
  for (auto &O : Adj->Ops)
    if (O->Kind == OpKind::QbTrans)
      Trans = O.get();
  ASSERT_TRUE(Trans);
  EXPECT_EQ(Trans->BasisAttr.elements().front().prim(),
            PrimitiveBasis::Std);
  EXPECT_EQ(Trans->BasisAttr2.elements().front().prim(), PrimitiveBasis::Pm);
}

TEST(AdjointTest, ReversesGateSequenceWithAdjointKinds) {
  Block Src;
  Value *Arg = Src.addArg(IRType::qubit());
  Builder B(&Src);
  Value *Q = B.gate(GateKind::H, {}, {Arg}).front();
  Q = B.gate(GateKind::S, {}, {Q}).front();
  Q = B.gate(GateKind::P, {}, {Q}, 0.5).front();
  B.yield({Q});

  std::unique_ptr<Block> Adj = adjointBlock(Src);
  ASSERT_TRUE(Adj);
  std::vector<GateKind> Kinds;
  std::vector<double> Params;
  for (auto &O : Adj->Ops)
    if (O->Kind == OpKind::Gate) {
      Kinds.push_back(O->GateAttr);
      Params.push_back(O->ParamAttr.Offset);
    }
  // Reverse order with adjoint kinds: P(-0.5), Sdg, H.
  ASSERT_EQ(Kinds.size(), 3u);
  EXPECT_EQ(Kinds[0], GateKind::P);
  EXPECT_DOUBLE_EQ(Params[0], -0.5);
  EXPECT_EQ(Kinds[1], GateKind::Sdg);
  EXPECT_EQ(Kinds[2], GateKind::H);
}

TEST(AdjointTest, StationaryOpsStayForward) {
  // Fig. 4: classical constants are not adjointed.
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(1));
  Builder B(&Src);
  Value *C = B.constf(3.14);
  (void)C;
  Value *Out = B.qbid(Arg);
  B.yield({Out});
  std::unique_ptr<Block> Adj = adjointBlock(Src);
  ASSERT_TRUE(Adj);
  // The constf must still be present, unreversed.
  bool FoundConst = false;
  for (auto &O : Adj->Ops)
    if (O->Kind == OpKind::ConstF && O->FloatAttr == 3.14)
      FoundConst = true;
  EXPECT_TRUE(FoundConst);
}

TEST(AdjointTest, AllocBecomesFreeZ) {
  Block Src;
  Value *Arg = Src.addArg(IRType::qubit());
  Builder B(&Src);
  Value *Anc = B.qalloc();
  std::vector<Value *> Gs = B.gate(GateKind::X, {Arg}, {Anc});
  B.qfreez(Gs[1]);
  B.yield({Gs[0]});
  std::unique_ptr<Block> Adj = adjointBlock(Src);
  ASSERT_TRUE(Adj);
  unsigned Allocs = 0, Freezs = 0;
  for (auto &O : Adj->Ops) {
    if (O->Kind == OpKind::QAlloc)
      ++Allocs;
    if (O->Kind == OpKind::QFreeZ)
      ++Freezs;
  }
  EXPECT_EQ(Allocs, 1u);
  EXPECT_EQ(Freezs, 1u);
}

TEST(AdjointTest, IrreversibleOpFails) {
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(1));
  Builder B(&Src);
  Value *Bits = B.qbmeas(Arg, Basis::builtin(PrimitiveBasis::Std, 1));
  B.yield({Bits});
  EXPECT_EQ(adjointBlock(Src), nullptr);
}

TEST(RenamingTest, IdentityPermutation) {
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(3));
  Builder B(&Src);
  Value *Out = B.qbid(Arg);
  B.yield({Out});
  auto Perm = computeRenamingPermutation(Src);
  ASSERT_TRUE(Perm.has_value());
  EXPECT_EQ(*Perm, (std::vector<unsigned>{0, 1, 2}));
}

TEST(RenamingTest, SwapByRenamingDetected) {
  // Fig. 5: unpack, repack in swapped order.
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(2));
  Builder B(&Src);
  std::vector<Value *> Qs = B.qbunpack(Arg);
  Value *Out = B.qbpack({Qs[1], Qs[0]});
  B.yield({Out});
  auto Perm = computeRenamingPermutation(Src);
  ASSERT_TRUE(Perm.has_value());
  EXPECT_EQ(*Perm, (std::vector<unsigned>{1, 0}));
}

TEST(PredicateTest, EmitsSwapUndoPair) {
  // Predicating a renaming-swap block must add an uncontrolled SWAP and a
  // predicated SWAP (Fig. 5).
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(2));
  Builder B(&Src);
  std::vector<Value *> Qs = B.qbunpack(Arg);
  Value *Out = B.qbpack({Qs[1], Qs[0]});
  B.yield({Out});

  Basis Pred = Basis::literal(
      BasisLiteral({BasisVector(PrimitiveBasis::Std, 3, 0b111)}));
  std::unique_ptr<Block> P = predicateBlock(Src, Pred);
  ASSERT_TRUE(P);
  // Expect two qbtrans ops: the uncontrolled swap (dim 2) and the
  // predicated swap (dim 5).
  std::vector<unsigned> TransDims;
  for (auto &O : P->Ops)
    if (O->Kind == OpKind::QbTrans)
      TransDims.push_back(O->BasisAttr.dim());
  ASSERT_EQ(TransDims.size(), 2u);
  EXPECT_EQ(TransDims[0], 2u);
  EXPECT_EQ(TransDims[1], 5u);
  // Widened signature.
  EXPECT_EQ(P->Args.front().Ty.dim(), 5u);
}

TEST(PredicateTest, PredicatesTranslation) {
  Block Src;
  Value *Arg = Src.addArg(IRType::qbundle(2));
  Builder B(&Src);
  Value *Out = B.qbtrans(Arg, swapBasis(false), swapBasis(true));
  B.yield({Out});

  Basis Pred = Basis::literal(
      BasisLiteral({BasisVector(PrimitiveBasis::Std, 1, 1)}));
  std::unique_ptr<Block> P = predicateBlock(Src, Pred);
  ASSERT_TRUE(P);
  Op *Trans = nullptr;
  for (auto &O : P->Ops)
    if (O->Kind == OpKind::QbTrans)
      Trans = O.get();
  ASSERT_TRUE(Trans);
  // b & (b1 >> b2) = b + b1 >> b + b2.
  EXPECT_EQ(Trans->BasisAttr.dim(), 3u);
  EXPECT_EQ(Trans->BasisAttr.size(), 2u);
}

TEST(SpecializeTest, TransitiveSpecializations) {
  // Algorithm D5's motivating example: f calls adj g; g calls h. An adjoint
  // specialization of h is needed.
  Module M;
  IRFunction *H = M.create("h");
  {
    Value *Arg = H->Body.addArg(IRType::qbundle(1));
    H->ResultTypes = {IRType::qbundle(1)};
    Builder B(&H->Body);
    B.ret({B.qbtrans(Arg, Basis::builtin(PrimitiveBasis::Pm, 1),
                     Basis::builtin(PrimitiveBasis::Std, 1))});
  }
  IRFunction *G = M.create("g");
  {
    Value *Arg = G->Body.addArg(IRType::qbundle(1));
    G->ResultTypes = {IRType::qbundle(1)};
    Builder B(&G->Body);
    B.ret({B.call(H, {Arg}).front()});
  }
  IRFunction *F = M.create("f");
  {
    Value *Arg = F->Body.addArg(IRType::qbundle(1));
    F->ResultTypes = {IRType::qbundle(1)};
    Builder B(&F->Body);
    B.ret({B.call(G, {Arg}, /*Adj=*/true).front()});
  }
  std::set<SpecKey> Specs = analyzeSpecializations(M, "f");
  EXPECT_TRUE(Specs.count({"g", true, 0}));
  EXPECT_TRUE(Specs.count({"h", true, 0}));
  EXPECT_TRUE(generateSpecializations(M, Specs));
  EXPECT_TRUE(M.lookup("g__adj"));
  EXPECT_TRUE(M.lookup("h__adj"));
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyModule(M, Diags)) << Diags.str();
}

TEST(InlineTest, InlinesDirectCall) {
  Module M;
  IRFunction *Callee = M.create("callee");
  {
    Value *Arg = Callee->Body.addArg(IRType::qbundle(1));
    Callee->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Callee->Body);
    B.ret({B.qbtrans(Arg, Basis::builtin(PrimitiveBasis::Pm, 1),
                     Basis::builtin(PrimitiveBasis::Std, 1))});
  }
  IRFunction *Caller = M.create("caller");
  {
    Value *Arg = Caller->Body.addArg(IRType::qbundle(1));
    Caller->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Caller->Body);
    B.ret({B.call(Callee, {Arg}).front()});
  }
  EXPECT_TRUE(inlineOneCall(M));
  // No calls left; qbtrans inlined into caller.
  bool HasCall = false, HasTrans = false;
  for (auto &O : Caller->Body.Ops) {
    HasCall |= O->Kind == OpKind::Call;
    HasTrans |= O->Kind == OpKind::QbTrans;
  }
  EXPECT_FALSE(HasCall);
  EXPECT_TRUE(HasTrans);
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyFunction(*Caller, Diags)) << Diags.str();
}

TEST(InlineTest, AdjointCallInlinesReversed) {
  Module M;
  IRFunction *Callee = M.create("callee");
  {
    Value *Arg = Callee->Body.addArg(IRType::qbundle(1));
    Callee->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Callee->Body);
    B.ret({B.qbtrans(Arg, Basis::builtin(PrimitiveBasis::Pm, 1),
                     Basis::builtin(PrimitiveBasis::Std, 1))});
  }
  IRFunction *Caller = M.create("caller");
  {
    Value *Arg = Caller->Body.addArg(IRType::qbundle(1));
    Caller->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Caller->Body);
    B.ret({B.call(Callee, {Arg}, /*Adj=*/true).front()});
  }
  EXPECT_TRUE(inlineOneCall(M));
  Op *Trans = nullptr;
  for (auto &O : Caller->Body.Ops)
    if (O->Kind == OpKind::QbTrans)
      Trans = O.get();
  ASSERT_TRUE(Trans);
  // Adjoint: sides swapped.
  EXPECT_EQ(Trans->BasisAttr.elements().front().prim(),
            PrimitiveBasis::Std);
}

TEST(CanonTest, CallIndirectOfFuncConstBecomesCall) {
  Module M;
  IRFunction *Callee = M.create("callee");
  {
    Value *Arg = Callee->Body.addArg(IRType::qbundle(1));
    Callee->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Callee->Body);
    B.ret({B.qbid(Arg)});
  }
  IRFunction *Caller = M.create("caller");
  {
    Value *Arg = Caller->Body.addArg(IRType::qbundle(1));
    Caller->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Caller->Body);
    Value *FC = B.funcConst("callee", IRType::revFunc(1));
    Value *Adj = B.funcAdj(FC);
    Value *Adj2 = B.funcAdj(Adj); // double adjoint folds away
    B.ret({B.callIndirect(Adj2, {Arg}).front()});
  }
  canonicalizeIR(M);
  Op *Call = nullptr;
  for (auto &O : Caller->Body.Ops)
    if (O->Kind == OpKind::Call)
      Call = O.get();
  ASSERT_TRUE(Call);
  EXPECT_EQ(Call->SymbolAttr, "callee");
  EXPECT_FALSE(Call->AdjFlag); // ~~f == f
}

TEST(CanonTest, PredChainAccumulatesBases) {
  Module M;
  IRFunction *Callee = M.create("callee");
  {
    Value *Arg = Callee->Body.addArg(IRType::qbundle(1));
    Callee->ResultTypes = {IRType::qbundle(1)};
    Builder B(&Callee->Body);
    B.ret({B.qbid(Arg)});
  }
  IRFunction *Caller = M.create("caller");
  {
    Value *Arg = Caller->Body.addArg(IRType::qbundle(3));
    Caller->ResultTypes = {IRType::qbundle(3)};
    Builder B(&Caller->Body);
    Value *FC = B.funcConst("callee", IRType::revFunc(1));
    Basis P1 = Basis::literal(
        BasisLiteral({BasisVector(PrimitiveBasis::Std, 1, 1)}));
    Basis P2 = Basis::literal(
        BasisLiteral({BasisVector(PrimitiveBasis::Pm, 1, 0)}));
    Value *Pred1 = B.funcPred(FC, P1);
    Value *Pred2 = B.funcPred(Pred1, P2);
    B.ret({B.callIndirect(Pred2, {Arg}).front()});
  }
  canonicalizeIR(M);
  Op *Call = nullptr;
  for (auto &O : Caller->Body.Ops)
    if (O->Kind == OpKind::Call)
      Call = O.get();
  ASSERT_TRUE(Call);
  // Outermost predicate first: pm then std.
  ASSERT_EQ(Call->BasisAttr.size(), 2u);
  EXPECT_EQ(Call->BasisAttr.elements()[0].prim(), PrimitiveBasis::Pm);
  EXPECT_EQ(Call->BasisAttr.elements()[1].prim(), PrimitiveBasis::Std);
}

TEST(LambdaLiftTest, LiftsToModuleFunction) {
  Module M;
  IRFunction *F = M.create("f");
  Value *Arg = F->Body.addArg(IRType::qbundle(1));
  F->ResultTypes = {IRType::qbundle(1)};
  Builder B(&F->Body);
  Op *L = B.lambda(IRType::revFunc(1));
  {
    Block *Body = L->Regions[0].get();
    Value *A = Body->addArg(IRType::qbundle(1));
    Builder Inner(Body);
    Inner.yield({Inner.qbtrans(A, Basis::builtin(PrimitiveBasis::Pm, 1),
                               Basis::builtin(PrimitiveBasis::Std, 1))});
  }
  B.ret({B.callIndirect(L->result(0), {Arg}).front()});
  liftLambdas(M);
  EXPECT_EQ(M.Functions.size(), 2u);
  bool HasLambdaOp = false;
  for (auto &O : F->Body.Ops)
    HasLambdaOp |= O->Kind == OpKind::Lambda;
  EXPECT_FALSE(HasLambdaOp);
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyModule(M, Diags)) << Diags.str();
}

} // namespace
