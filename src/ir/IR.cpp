//===- IR.cpp - SSA IR infrastructure -------------------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>
#include <sstream>

using namespace asdf;

//===----------------------------------------------------------------------===//
// Types and attribute helpers
//===----------------------------------------------------------------------===//

std::string IRType::str() const {
  std::ostringstream OS;
  switch (TheKind) {
  case Kind::Invalid:
    return "<invalid>";
  case Kind::QBundle:
    OS << "qbundle[" << Dim << ']';
    return OS.str();
  case Kind::BitBundle:
    OS << "bitbundle[" << Dim << ']';
    return OS.str();
  case Kind::Qubit:
    return "qubit";
  case Kind::I1:
    return "i1";
  case Kind::F64:
    return "f64";
  case Kind::Func: {
    auto Part = [&](Data D, unsigned N) {
      switch (D) {
      case Data::Unit:
        OS << "()";
        break;
      case Data::QBundle:
        OS << "qbundle[" << N << ']';
        break;
      case Data::BitBundle:
        OS << "bitbundle[" << N << ']';
        break;
      }
    };
    Part(In, InDim);
    OS << (Rev ? " rev-> " : " -> ");
    Part(Out, OutDim);
    return OS.str();
  }
  }
  return "<invalid>";
}

const char *asdf::gateKindName(GateKind K) {
  switch (K) {
  case GateKind::X:
    return "X";
  case GateKind::Y:
    return "Y";
  case GateKind::Z:
    return "Z";
  case GateKind::H:
    return "H";
  case GateKind::S:
    return "S";
  case GateKind::Sdg:
    return "Sdg";
  case GateKind::T:
    return "T";
  case GateKind::Tdg:
    return "Tdg";
  case GateKind::P:
    return "P";
  case GateKind::RX:
    return "RX";
  case GateKind::RY:
    return "RY";
  case GateKind::RZ:
    return "RZ";
  case GateKind::Swap:
    return "SWAP";
  }
  return "?";
}

GateKind asdf::adjointGateKind(GateKind K) {
  switch (K) {
  case GateKind::S:
    return GateKind::Sdg;
  case GateKind::Sdg:
    return GateKind::S;
  case GateKind::T:
    return GateKind::Tdg;
  case GateKind::Tdg:
    return GateKind::T;
  default:
    // X/Y/Z/H/Swap are Hermitian; P/RX/RY/RZ negate their parameter, which
    // the caller handles.
    return K;
  }
}

bool asdf::isParamGate(GateKind K) {
  return K == GateKind::P || K == GateKind::RX || K == GateKind::RY ||
         K == GateKind::RZ;
}

bool asdf::isDiagonalGate(GateKind K) {
  return K == GateKind::Z || K == GateKind::S || K == GateKind::Sdg ||
         K == GateKind::T || K == GateKind::Tdg || K == GateKind::P ||
         K == GateKind::RZ;
}

const char *asdf::opKindName(OpKind K) {
  switch (K) {
  case OpKind::QbPrep:
    return "qbprep";
  case OpKind::QbPack:
    return "qbpack";
  case OpKind::QbUnpack:
    return "qbunpack";
  case OpKind::QbTrans:
    return "qbtrans";
  case OpKind::QbMeas:
    return "qbmeas";
  case OpKind::QbDiscard:
    return "qbdiscard";
  case OpKind::QbDiscardZ:
    return "qbdiscardz";
  case OpKind::QbId:
    return "qbid";
  case OpKind::BitPack:
    return "bitpack";
  case OpKind::BitUnpack:
    return "bitunpack";
  case OpKind::BitConst:
    return "bitconst";
  case OpKind::ConstF:
    return "constf";
  case OpKind::EmbedClassical:
    return "embed_classical";
  case OpKind::FuncConst:
    return "func_const";
  case OpKind::FuncAdj:
    return "func_adj";
  case OpKind::FuncPred:
    return "func_pred";
  case OpKind::Call:
    return "call";
  case OpKind::CallIndirect:
    return "call_indirect";
  case OpKind::Lambda:
    return "lambda";
  case OpKind::If:
    return "if";
  case OpKind::Ret:
    return "return";
  case OpKind::Yield:
    return "yield";
  case OpKind::QAlloc:
    return "qalloc";
  case OpKind::QFree:
    return "qfree";
  case OpKind::QFreeZ:
    return "qfreez";
  case OpKind::Gate:
    return "gate";
  case OpKind::Measure1:
    return "measure";
  case OpKind::CallableCreate:
    return "callable_create";
  case OpKind::CallableAdj:
    return "callable_adj";
  case OpKind::CallableCtl:
    return "callable_ctl";
  case OpKind::CallableInvoke:
    return "callable_invoke";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Values and ops
//===----------------------------------------------------------------------===//

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "replacing a value with itself");
  // setOperand mutates Uses; iterate over a copy.
  std::vector<std::pair<Op *, unsigned>> Copy = Uses;
  for (auto [User, Idx] : Copy)
    User->setOperand(Idx, New);
}

Op::~Op() { assert(Operands.empty() && "op destroyed with live operands"); }

std::unique_ptr<Op> Op::create(OpKind Kind,
                               const std::vector<Value *> &Operands,
                               const std::vector<IRType> &ResultTypes) {
  std::unique_ptr<Op> NewOp(new Op());
  NewOp->Kind = Kind;
  for (Value *V : Operands)
    NewOp->addOperand(V);
  for (unsigned I = 0; I < ResultTypes.size(); ++I) {
    NewOp->Results.emplace_back();
    Value &R = NewOp->Results.back();
    R.Ty = ResultTypes[I];
    R.DefOp = NewOp.get();
    R.Index = I;
  }
  return NewOp;
}

void Op::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size());
  Value *Old = Operands[I];
  if (Old == V)
    return;
  auto &Uses = Old->Uses;
  auto It = std::find(Uses.begin(), Uses.end(),
                      std::make_pair(this, I));
  assert(It != Uses.end() && "use list out of sync");
  Uses.erase(It);
  Operands[I] = V;
  V->Uses.push_back({this, I});
}

void Op::addOperand(Value *V) {
  Operands.push_back(V);
  V->Uses.push_back({this, static_cast<unsigned>(Operands.size() - 1)});
}

void Op::dropOperands() {
  for (unsigned I = 0; I < Operands.size(); ++I) {
    auto &Uses = Operands[I]->Uses;
    // Searched from the back: ~Block drops the newest users first.
    auto It = std::find(Uses.rbegin(), Uses.rend(), std::make_pair(this, I));
    assert(It != Uses.rend() && "use list out of sync");
    Uses.erase(std::next(It).base());
  }
  Operands.clear();
}

void Op::erase() {
#ifndef NDEBUG
  for (Value &R : Results)
    assert(R.Uses.empty() && "erasing op with live uses");
#endif
  dropOperands();
  assert(ParentBlock && "erasing detached op");
  ParentBlock->Ops.erase(Iter);
}

bool Op::isPure() const {
  switch (Kind) {
  case OpKind::ConstF:
  case OpKind::BitConst:
  case OpKind::FuncConst:
  case OpKind::FuncAdj:
  case OpKind::FuncPred:
  case OpKind::Lambda:
  case OpKind::BitPack:
  case OpKind::BitUnpack:
  case OpKind::CallableCreate:
  case OpKind::CallableAdj:
  case OpKind::CallableCtl:
    return true;
  default:
    return false;
  }
}

bool Op::isStationary() const {
  // §5.2/§5.3: classical ops stay in place when the quantum portion of the
  // DAG is inverted or predicated around them.
  switch (Kind) {
  case OpKind::ConstF:
  case OpKind::BitConst:
  case OpKind::BitPack:
  case OpKind::BitUnpack:
  case OpKind::FuncConst:
  case OpKind::FuncAdj:
  case OpKind::FuncPred:
  case OpKind::CallableCreate:
  case OpKind::CallableAdj:
  case OpKind::CallableCtl:
    return true;
  default:
    return false;
  }
}

Block::~Block() {
  while (!Ops.empty()) {
    Ops.back()->dropOperands();
    Ops.pop_back();
  }
}

Op *Block::insert(std::unique_ptr<Op> NewOp, Op *Before) {
  Op *Raw = NewOp.get();
  Raw->ParentBlock = this;
  auto Pos = Before ? Before->Iter : Ops.end();
  Raw->Iter = Ops.insert(Pos, std::move(NewOp));
  return Raw;
}

//===----------------------------------------------------------------------===//
// Functions and modules
//===----------------------------------------------------------------------===//

IRType IRFunction::type() const {
  auto DataOf = [](const IRType &T, unsigned &Dim) {
    if (T.isQBundle()) {
      Dim = T.dim();
      return IRType::Data::QBundle;
    }
    if (T.isBitBundle()) {
      Dim = T.dim();
      return IRType::Data::BitBundle;
    }
    Dim = 0;
    return IRType::Data::Unit;
  };
  unsigned InDim = 0, OutDim = 0;
  IRType::Data In = IRType::Data::Unit, Out = IRType::Data::Unit;
  if (!Body.Args.empty())
    In = DataOf(Body.Args.front().Ty, InDim);
  if (!ResultTypes.empty())
    Out = DataOf(ResultTypes.front(), OutDim);
  // Reversibility of the signature is refined by analysis; default false.
  return IRType::func(In, InDim, Out, OutDim, /*Rev=*/false);
}

IRFunction *Module::createUnique(const std::string &Base) {
  std::string Name = Base;
  unsigned Suffix = 0;
  while (lookup(Name))
    Name = Base + "_" + std::to_string(Suffix++);
  return create(Name);
}

//===----------------------------------------------------------------------===//
// Builder helpers
//===----------------------------------------------------------------------===//

Value *Builder::qbprep(PrimitiveBasis Prim, bool Minus, unsigned Dim) {
  Op *O = createOp(OpKind::QbPrep, {}, {IRType::qbundle(Dim)});
  O->PrimAttr = Prim;
  O->MinusAttr = Minus;
  O->DimAttr = Dim;
  return O->result();
}

Value *Builder::qbpack(const std::vector<Value *> &Qubits) {
  Op *O = createOp(OpKind::QbPack, Qubits,
                   {IRType::qbundle(Qubits.size())});
  return O->result();
}

std::vector<Value *> Builder::qbunpack(Value *Bundle) {
  unsigned N = Bundle->Ty.dim();
  std::vector<IRType> Types(N, IRType::qubit());
  Op *O = createOp(OpKind::QbUnpack, {Bundle}, Types);
  std::vector<Value *> Out;
  for (unsigned I = 0; I < N; ++I)
    Out.push_back(O->result(I));
  return Out;
}

Value *Builder::qbtrans(Value *Bundle, Basis In, Basis Out) {
  Op *O = createOp(OpKind::QbTrans, {Bundle}, {Bundle->Ty});
  O->BasisAttr = std::move(In);
  O->BasisAttr2 = std::move(Out);
  return O->result();
}

Value *Builder::qbmeas(Value *Bundle, Basis B) {
  Op *O = createOp(OpKind::QbMeas, {Bundle},
                   {IRType::bitbundle(Bundle->Ty.dim())});
  O->BasisAttr = std::move(B);
  return O->result();
}

void Builder::qbdiscard(Value *Bundle) {
  createOp(OpKind::QbDiscard, {Bundle}, {});
}

void Builder::qbdiscardz(Value *Bundle) {
  createOp(OpKind::QbDiscardZ, {Bundle}, {});
}

Value *Builder::qbid(Value *Bundle) {
  Op *O = createOp(OpKind::QbId, {Bundle}, {Bundle->Ty});
  O->DimAttr = Bundle->Ty.dim();
  return O->result();
}

Value *Builder::bitpack(const std::vector<Value *> &Bits) {
  Op *O = createOp(OpKind::BitPack, Bits,
                   {IRType::bitbundle(Bits.size())});
  return O->result();
}

std::vector<Value *> Builder::bitunpack(Value *Bundle) {
  unsigned N = Bundle->Ty.dim();
  std::vector<IRType> Types(N, IRType::i1());
  Op *O = createOp(OpKind::BitUnpack, {Bundle}, Types);
  std::vector<Value *> Out;
  for (unsigned I = 0; I < N; ++I)
    Out.push_back(O->result(I));
  return Out;
}

Value *Builder::bitconst(const std::vector<bool> &Bits) {
  Op *O = createOp(OpKind::BitConst, {},
                   {IRType::bitbundle(Bits.size())});
  O->BitsAttr = Bits;
  return O->result();
}

Value *Builder::constf(double V) {
  Op *O = createOp(OpKind::ConstF, {}, {IRType::f64()});
  O->FloatAttr = V;
  return O->result();
}

Value *Builder::embedClassical(Value *Bundle, const std::string &Func,
                               EmbedKind Kind) {
  Op *O = createOp(OpKind::EmbedClassical, {Bundle}, {Bundle->Ty});
  O->SymbolAttr = Func;
  O->EmbedAttr = Kind;
  return O->result();
}

Value *Builder::funcConst(const std::string &Symbol, IRType FuncTy) {
  Op *O = createOp(OpKind::FuncConst, {}, {FuncTy});
  O->SymbolAttr = Symbol;
  return O->result();
}

Value *Builder::funcAdj(Value *Func) {
  Op *O = createOp(OpKind::FuncAdj, {Func}, {Func->Ty});
  return O->result();
}

Value *Builder::funcPred(Value *Func, Basis Pred) {
  IRType FT = Func->Ty;
  unsigned M = Pred.dim();
  IRType NewTy = IRType::func(FT.funcIn(), FT.funcInDim() + M, FT.funcOut(),
                              FT.funcOutDim() + M, FT.isRevFunc());
  Op *O = createOp(OpKind::FuncPred, {Func}, {NewTy});
  O->BasisAttr = std::move(Pred);
  return O->result();
}

std::vector<Value *> Builder::call(IRFunction *Callee,
                                   const std::vector<Value *> &Args,
                                   bool Adj, Basis Pred) {
  std::vector<IRType> ResultTypes = Callee->ResultTypes;
  unsigned M = Pred.dim();
  if (M) {
    // Predicated call: argument and result bundles widen by dim(Pred).
    for (IRType &T : ResultTypes)
      if (T.isQBundle())
        T = IRType::qbundle(T.dim() + M);
  }
  Op *O = createOp(OpKind::Call, Args, ResultTypes);
  O->SymbolAttr = Callee->Name;
  O->AdjFlag = Adj;
  O->BasisAttr = std::move(Pred);
  std::vector<Value *> Out;
  for (unsigned I = 0; I < O->numResults(); ++I)
    Out.push_back(O->result(I));
  return Out;
}

std::vector<Value *> Builder::callIndirect(Value *Func,
                                           const std::vector<Value *> &Args) {
  IRType FT = Func->Ty;
  std::vector<IRType> ResultTypes;
  switch (FT.funcOut()) {
  case IRType::Data::Unit:
    break;
  case IRType::Data::QBundle:
    ResultTypes.push_back(IRType::qbundle(FT.funcOutDim()));
    break;
  case IRType::Data::BitBundle:
    ResultTypes.push_back(IRType::bitbundle(FT.funcOutDim()));
    break;
  }
  std::vector<Value *> Operands = {Func};
  Operands.insert(Operands.end(), Args.begin(), Args.end());
  Op *O = createOp(OpKind::CallIndirect, Operands, ResultTypes);
  std::vector<Value *> Out;
  for (unsigned I = 0; I < O->numResults(); ++I)
    Out.push_back(O->result(I));
  return Out;
}

Op *Builder::lambda(IRType FuncTy) {
  Op *O = createOp(OpKind::Lambda, {}, {FuncTy});
  O->Regions.push_back(std::make_unique<Block>());
  O->Regions[0]->ParentOp = O;
  return O;
}

Op *Builder::ifOp(Value *Cond, const std::vector<IRType> &ResultTypes) {
  Op *O = createOp(OpKind::If, {Cond}, ResultTypes);
  O->Regions.push_back(std::make_unique<Block>());
  O->Regions.push_back(std::make_unique<Block>());
  O->Regions[0]->ParentOp = O;
  O->Regions[1]->ParentOp = O;
  return O;
}

void Builder::ret(const std::vector<Value *> &Values) {
  createOp(OpKind::Ret, Values, {});
}

void Builder::yield(const std::vector<Value *> &Values) {
  createOp(OpKind::Yield, Values, {});
}

Value *Builder::qalloc() {
  return createOp(OpKind::QAlloc, {}, {IRType::qubit()})->result();
}

void Builder::qfree(Value *Q) { createOp(OpKind::QFree, {Q}, {}); }

void Builder::qfreez(Value *Q) { createOp(OpKind::QFreeZ, {Q}, {}); }

std::vector<Value *> Builder::gate(GateKind G,
                                   const std::vector<Value *> &Controls,
                                   const std::vector<Value *> &Targets,
                                   GateParam Param) {
  std::vector<Value *> Operands = Controls;
  Operands.insert(Operands.end(), Targets.begin(), Targets.end());
  std::vector<IRType> Types(Operands.size(), IRType::qubit());
  Op *O = createOp(OpKind::Gate, Operands, Types);
  O->GateAttr = G;
  O->ParamAttr = Param;
  O->NumControls = Controls.size();
  std::vector<Value *> Out;
  for (unsigned I = 0; I < O->numResults(); ++I)
    Out.push_back(O->result(I));
  return Out;
}

std::pair<Value *, Value *> Builder::measure1(Value *Q) {
  Op *O = createOp(OpKind::Measure1, {Q}, {IRType::qubit(), IRType::i1()});
  return {O->result(0), O->result(1)};
}

Value *Builder::callableCreate(const std::string &Symbol, IRType FuncTy) {
  Op *O = createOp(OpKind::CallableCreate, {}, {FuncTy});
  O->SymbolAttr = Symbol;
  return O->result();
}

Value *Builder::callableAdj(Value *C) {
  return createOp(OpKind::CallableAdj, {C}, {C->Ty})->result();
}

Value *Builder::callableCtl(Value *C, Basis Pred) {
  IRType FT = C->Ty;
  unsigned M = Pred.dim();
  IRType NewTy = IRType::func(FT.funcIn(), FT.funcInDim() + M, FT.funcOut(),
                              FT.funcOutDim() + M, FT.isRevFunc());
  Op *O = createOp(OpKind::CallableCtl, {C}, {NewTy});
  O->BasisAttr = std::move(Pred);
  O->NumControls = M;
  return O->result();
}

std::vector<Value *> Builder::callableInvoke(
    Value *C, const std::vector<Value *> &Args) {
  IRType FT = C->Ty;
  std::vector<IRType> ResultTypes;
  switch (FT.funcOut()) {
  case IRType::Data::Unit:
    break;
  case IRType::Data::QBundle:
    ResultTypes.push_back(IRType::qbundle(FT.funcOutDim()));
    break;
  case IRType::Data::BitBundle:
    ResultTypes.push_back(IRType::bitbundle(FT.funcOutDim()));
    break;
  }
  std::vector<Value *> Operands = {C};
  Operands.insert(Operands.end(), Args.begin(), Args.end());
  Op *O = createOp(OpKind::CallableInvoke, Operands, ResultTypes);
  std::vector<Value *> Out;
  for (unsigned I = 0; I < O->numResults(); ++I)
    Out.push_back(O->result(I));
  return Out;
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

Op *asdf::cloneOp(Builder &B, Op *Source, ValueMap &Map) {
  std::vector<Value *> NewOperands;
  NewOperands.reserve(Source->numOperands());
  for (Value *V : Source->Operands) {
    auto It = Map.find(V);
    NewOperands.push_back(It != Map.end() ? It->second : V);
  }
  std::vector<IRType> ResultTypes;
  for (Value &R : Source->Results)
    ResultTypes.push_back(R.Ty);
  Op *NewOp = B.createOp(Source->Kind, NewOperands, ResultTypes);
  // Copy attributes wholesale.
  NewOp->BasisAttr = Source->BasisAttr;
  NewOp->BasisAttr2 = Source->BasisAttr2;
  NewOp->PrimAttr = Source->PrimAttr;
  NewOp->MinusAttr = Source->MinusAttr;
  NewOp->DimAttr = Source->DimAttr;
  NewOp->GateAttr = Source->GateAttr;
  NewOp->FloatAttr = Source->FloatAttr;
  NewOp->ParamAttr = Source->ParamAttr;
  NewOp->NumControls = Source->NumControls;
  NewOp->SymbolAttr = Source->SymbolAttr;
  NewOp->AdjFlag = Source->AdjFlag;
  NewOp->EmbedAttr = Source->EmbedAttr;
  NewOp->BitsAttr = Source->BitsAttr;
  // Clone regions.
  for (auto &R : Source->Regions) {
    auto NewBlock = std::make_unique<Block>();
    NewBlock->ParentOp = NewOp;
    for (Value &Arg : R->Args)
      Map[&Arg] = NewBlock->addArg(Arg.Ty);
    Builder Inner(NewBlock.get());
    cloneBlockBody(Inner, *R, Map, /*SkipTerminator=*/false);
    NewOp->Regions.push_back(std::move(NewBlock));
  }
  for (unsigned I = 0; I < Source->numResults(); ++I)
    Map[Source->result(I)] = NewOp->result(I);
  return NewOp;
}

void asdf::cloneBlockBody(Builder &B, Block &Source, ValueMap &Map,
                          bool SkipTerminator) {
  for (auto &OpPtr : Source.Ops) {
    if (SkipTerminator && OpPtr.get() == Source.Ops.back().get() &&
        (OpPtr->Kind == OpKind::Ret || OpPtr->Kind == OpKind::Yield))
      break;
    cloneOp(B, OpPtr.get(), Map);
  }
}

std::unique_ptr<Module> asdf::cloneModule(const Module &M) {
  auto Out = std::make_unique<Module>();
  Out->FloatParams = M.FloatParams;
  for (const auto &F : M.Functions) {
    IRFunction *NF = Out->create(F->Name);
    NF->ResultTypes = F->ResultTypes;
    NF->IsLambdaLifted = F->IsLambdaLifted;
    NF->IsSpecialization = F->IsSpecialization;
    NF->Loc = F->Loc;
    ValueMap Map;
    Block &Body = const_cast<IRFunction &>(*F).Body;
    for (Value &A : Body.Args)
      Map[&A] = NF->Body.addArg(A.Ty);
    Builder B(&NF->Body);
    cloneBlockBody(B, Body, Map, /*SkipTerminator=*/false);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

class Printer {
public:
  std::ostringstream OS;
  std::map<const Value *, unsigned> Ids;
  unsigned NextId = 0;

  std::string name(const Value *V) {
    auto [It, Inserted] = Ids.insert({V, NextId});
    if (Inserted)
      ++NextId;
    return "%" + std::to_string(It->second);
  }

  void printBlock(const Block &B, unsigned Indent);
  void printOp(const Op &O, unsigned Indent);
};

void Printer::printOp(const Op &O, unsigned Indent) {
  OS << std::string(Indent, ' ');
  if (!O.Results.empty()) {
    for (unsigned I = 0; I < O.Results.size(); ++I) {
      if (I)
        OS << ", ";
      OS << name(&O.Results[I]);
    }
    OS << " = ";
  }
  OS << opKindName(O.Kind);
  switch (O.Kind) {
  case OpKind::QbPrep:
    OS << ' ' << primitiveBasisName(O.PrimAttr) << '<'
       << (O.MinusAttr ? "MINUS" : "PLUS") << ">[" << O.DimAttr << ']';
    break;
  case OpKind::QbTrans:
    OS << " by " << O.BasisAttr.str() << " >> " << O.BasisAttr2.str();
    break;
  case OpKind::QbMeas:
    OS << " in " << O.BasisAttr.str();
    break;
  case OpKind::Gate:
    OS << ' ' << gateKindName(O.GateAttr);
    if (isParamGate(O.GateAttr)) {
      if (O.ParamAttr.isSymbolic())
        OS << "($" << O.ParamAttr.Index << " * " << O.ParamAttr.Scale
           << " + " << O.ParamAttr.Offset << " deg)";
      else
        OS << '(' << O.ParamAttr.concrete() << ')';
    }
    break;
  case OpKind::ConstF:
    OS << ' ' << O.FloatAttr;
    break;
  case OpKind::BitConst: {
    OS << " 0b";
    for (bool Bit : O.BitsAttr)
      OS << (Bit ? '1' : '0');
    break;
  }
  case OpKind::FuncConst:
  case OpKind::CallableCreate:
    OS << " @" << O.SymbolAttr;
    break;
  case OpKind::EmbedClassical:
    OS << " @" << O.SymbolAttr
       << (O.EmbedAttr == EmbedKind::Xor ? ".xor" : ".sign");
    break;
  case OpKind::Call:
    if (O.AdjFlag)
      OS << " adj";
    if (!O.BasisAttr.empty())
      OS << " pred(" << O.BasisAttr.str() << ')';
    OS << " @" << O.SymbolAttr;
    break;
  case OpKind::FuncPred:
  case OpKind::CallableCtl:
    OS << " pred(" << O.BasisAttr.str() << ')';
    break;
  default:
    break;
  }
  if (!O.Operands.empty()) {
    OS << '(';
    for (unsigned I = 0; I < O.Operands.size(); ++I) {
      if (I)
        OS << ", ";
      if (O.Kind == OpKind::Gate && I == O.NumControls && O.NumControls)
        OS << "| ";
      OS << name(O.Operands[I]);
    }
    OS << ')';
  }
  if (!O.Results.empty()) {
    OS << " : ";
    for (unsigned I = 0; I < O.Results.size(); ++I) {
      if (I)
        OS << ", ";
      OS << O.Results[I].Ty.str();
    }
  }
  OS << '\n';
  for (const auto &R : O.Regions)
    printBlock(*R, Indent + 2);
}

void Printer::printBlock(const Block &B, unsigned Indent) {
  OS << std::string(Indent, ' ') << '(';
  for (unsigned I = 0; I < B.Args.size(); ++I) {
    if (I)
      OS << ", ";
    OS << name(&B.Args[I]) << ": " << B.Args[I].Ty.str();
  }
  OS << ") {\n";
  for (const auto &O : B.Ops)
    printOp(*O, Indent + 2);
  OS << std::string(Indent, ' ') << "}\n";
}

} // namespace

std::string Op::str() const {
  Printer P;
  P.printOp(*this, 0);
  return P.OS.str();
}

std::string IRFunction::str() const {
  Printer P;
  P.OS << "func @" << Name << " ";
  P.printBlock(Body, 0);
  return P.OS.str();
}

std::string Module::str() const {
  std::string S;
  for (const auto &F : Functions)
    S += F->str() + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

namespace {

class Verifier {
public:
  Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}

  bool verify(const IRFunction &F) {
    FuncName = F.Name;
    FuncLoc = F.Loc;
    return verifyBlock(F.Body, OpKind::Ret);
  }

private:
  DiagnosticEngine &Diags;
  std::string FuncName;
  SourceLoc FuncLoc;

  bool fail(const std::string &Msg) {
    Diags.error(FuncLoc, "in function '" + FuncName + "': " + Msg);
    return false;
  }

  bool verifyBlock(const Block &B, OpKind ExpectedTerm) {
    if (B.Ops.empty())
      return fail("empty block");
    bool Ok = true;
    for (const auto &O : B.Ops) {
      bool IsLast = O.get() == B.Ops.back().get();
      bool IsTerm = O->Kind == OpKind::Ret || O->Kind == OpKind::Yield;
      if (IsTerm && !IsLast)
        Ok = fail("terminator in the middle of a block") && Ok;
      if (IsLast && O->Kind != ExpectedTerm)
        Ok = fail(std::string("expected block to end with ") +
                  opKindName(ExpectedTerm)) &&
             Ok;
      Ok = verifyOp(*O) && Ok;
    }
    // Linearity: every qubit-typed value defined in this block (or its args)
    // must be used exactly once *per execution path*. Uses inside different
    // regions of one scf.if are mutually exclusive and together count as a
    // single use (this arises from the Appendix C push-down pattern).
    auto RegionPath = [&](Op *User) {
      // Rebundling ops (qbpack/qbid) forward their operand without quantum
      // effect; when such an op's single bundle is consumed exactly once,
      // the *consumer's* region decides exclusivity. (The canonicalizer
      // hoists packs above scf.if forks, leaving the pack at top level
      // while each branch consumes the bundle — Appendix C.)
      unsigned Hops = 0;
      while ((User->Kind == OpKind::QbPack || User->Kind == OpKind::QbId) &&
             User->numResults() == 1 && User->result(0)->hasOneUse() &&
             Hops++ < 1000)
        User = User->result(0)->singleUser();
      // Chain of (region-op, region index) from outermost to the user.
      std::vector<std::pair<const Op *, unsigned>> Path;
      Block *Cur = User->ParentBlock;
      while (Cur && Cur->ParentOp) {
        Op *Parent = Cur->ParentOp;
        unsigned Idx = 0;
        for (unsigned I = 0; I < Parent->Regions.size(); ++I)
          if (Parent->Regions[I].get() == Cur)
            Idx = I;
        Path.push_back({Parent, Idx});
        Cur = Parent->ParentBlock;
      }
      std::reverse(Path.begin(), Path.end());
      return Path;
    };
    auto CheckLinear = [&](const Value &V) {
      if (!V.Ty.isLinear())
        return true;
      if (V.Uses.size() == 1)
        return true;
      if (V.Uses.empty())
        return fail("linear value is never used");
      // Multiple uses: every pair must diverge at different regions of a
      // common ancestor op (exclusive branches).
      std::vector<std::vector<std::pair<const Op *, unsigned>>> Paths;
      for (auto [User, Idx] : V.Uses) {
        (void)Idx;
        Paths.push_back(RegionPath(User));
      }
      for (unsigned A = 0; A < Paths.size(); ++A)
        for (unsigned C = A + 1; C < Paths.size(); ++C) {
          const auto &PA = Paths[A];
          const auto &PC = Paths[C];
          bool Exclusive = false;
          for (unsigned D = 0; D < std::min(PA.size(), PC.size()); ++D) {
            if (PA[D].first != PC[D].first)
              break;
            if (PA[D].second != PC[D].second) {
              Exclusive = true;
              break;
            }
          }
          if (!Exclusive)
            return fail("linear value has multiple non-exclusive uses");
        }
      return true;
    };
    for (const Value &Arg : B.Args)
      Ok = CheckLinear(Arg) && Ok;
    for (const auto &O : B.Ops)
      for (const Value &R : O->Results)
        Ok = CheckLinear(R) && Ok;
    return Ok;
  }

  bool verifyOp(const Op &O) {
    bool Ok = true;
    switch (O.Kind) {
    case OpKind::QbTrans: {
      const Value *In = O.Operands.at(0);
      if (!In->Ty.isQBundle())
        return fail("qbtrans operand must be a qbundle");
      if (O.BasisAttr.dim() != In->Ty.dim() ||
          O.BasisAttr2.dim() != In->Ty.dim())
        return fail("qbtrans basis dimension mismatch");
      break;
    }
    case OpKind::QbMeas:
      if (O.BasisAttr.dim() != O.Operands.at(0)->Ty.dim())
        return fail("qbmeas basis dimension mismatch");
      break;
    case OpKind::QbPack:
      for (const Value *V : O.Operands)
        if (!V->Ty.isQubit())
          Ok = fail("qbpack operands must be qubits") && Ok;
      break;
    case OpKind::Gate: {
      for (const Value *V : O.Operands)
        if (!V->Ty.isQubit())
          Ok = fail("gate operands must be qubits") && Ok;
      unsigned Targets = O.Operands.size() - O.NumControls;
      unsigned Expected = O.GateAttr == GateKind::Swap ? 2 : 1;
      if (Targets != Expected)
        Ok = fail("gate has wrong target count") && Ok;
      break;
    }
    case OpKind::Lambda:
      if (O.Regions.size() != 1)
        return fail("lambda must have one region");
      Ok = verifyBlock(*O.Regions[0], OpKind::Yield) && Ok;
      break;
    case OpKind::If:
      if (O.Regions.size() != 2)
        return fail("if must have two regions");
      if (!O.Operands.at(0)->Ty.isI1())
        Ok = fail("if condition must be i1") && Ok;
      Ok = verifyBlock(*O.Regions[0], OpKind::Yield) && Ok;
      Ok = verifyBlock(*O.Regions[1], OpKind::Yield) && Ok;
      break;
    default:
      break;
    }
    return Ok;
  }
};

} // namespace

bool asdf::verifyFunction(const IRFunction &F, DiagnosticEngine &Diags) {
  Verifier V(Diags);
  return V.verify(F);
}

bool asdf::verifyModule(const Module &M, DiagnosticEngine &Diags) {
  bool Ok = true;
  for (const auto &F : M.Functions)
    Ok = verifyFunction(*F, Diags) && Ok;
  return Ok;
}
