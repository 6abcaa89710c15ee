//===- IR.h - SSA IR infrastructure for Qwerty IR and QCircuit IR ---------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact MLIR-like SSA IR shared by the two dialects of the paper:
///
///  - **Qwerty IR** (§5): qbundle/bitbundle types; qbprep, qbtrans, qbmeas,
///    qbdiscard[z], qb(un)pack, bit(un)pack ops; func_const/func_adj/
///    func_pred/call/call_indirect/lambda for the functional structure; and
///    an scf.if analog for classically-conditioned function values.
///
///  - **QCircuit IR** (§6): qubit type; qalloc/qfree/qfreez/gate/measure
///    ops; callable ops mirroring QIR's callable intrinsics.
///
/// Quantum instructions have no side effects: qubits flow through ops, so
/// dependencies are explicit and passes are DAG-to-DAG rewrites, exactly as
/// the paper describes. Values of qubit/qbundle type are linear (exactly one
/// use); the verifier enforces this.
///
/// For pragmatism, ops are a single class with an OpKind discriminator and a
/// union-of-attributes, rather than one subclass per op: the adjoint,
/// predication, cloning, and printing machinery all want uniform access.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_IR_IR_H
#define ASDF_IR_IR_H

#include "basis/Basis.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace asdf {

class Op;
class Block;
class IRFunction;
class Module;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// A type in either dialect, encoded flat.
class IRType {
public:
  enum class Kind {
    Invalid,
    QBundle,   ///< Tuple of N qubits (Qwerty IR).
    BitBundle, ///< Tuple of N bits (Qwerty IR).
    Qubit,     ///< A single qubit (QCircuit IR).
    I1,        ///< A single classical bit (QCircuit / MLIR builtin).
    F64,       ///< Phase angle.
    Func,      ///< Function value (reversible or not).
  };
  /// Data kind of a Func's input/output.
  enum class Data { Unit, QBundle, BitBundle };

  IRType() = default;

  static IRType qbundle(unsigned Dim) { return IRType(Kind::QBundle, Dim); }
  static IRType bitbundle(unsigned Dim) {
    return IRType(Kind::BitBundle, Dim);
  }
  static IRType qubit() { return IRType(Kind::Qubit, 1); }
  static IRType i1() { return IRType(Kind::I1, 1); }
  static IRType f64() { return IRType(Kind::F64, 0); }
  static IRType func(Data In, unsigned InDim, Data Out, unsigned OutDim,
                     bool Rev) {
    IRType T(Kind::Func, 0);
    T.In = In;
    T.InDim = InDim;
    T.Out = Out;
    T.OutDim = OutDim;
    T.Rev = Rev;
    return T;
  }
  static IRType revFunc(unsigned Dim) {
    return func(Data::QBundle, Dim, Data::QBundle, Dim, /*Rev=*/true);
  }

  Kind kind() const { return TheKind; }
  bool isInvalid() const { return TheKind == Kind::Invalid; }
  bool isQBundle() const { return TheKind == Kind::QBundle; }
  bool isBitBundle() const { return TheKind == Kind::BitBundle; }
  bool isQubit() const { return TheKind == Kind::Qubit; }
  bool isI1() const { return TheKind == Kind::I1; }
  bool isF64() const { return TheKind == Kind::F64; }
  bool isFunc() const { return TheKind == Kind::Func; }

  /// Linear values must be consumed exactly once (qubits and qbundles).
  bool isLinear() const { return isQBundle() || isQubit(); }

  unsigned dim() const {
    assert((isQBundle() || isBitBundle()) && "type has no dimension");
    return Dim;
  }

  Data funcIn() const {
    assert(isFunc());
    return In;
  }
  Data funcOut() const {
    assert(isFunc());
    return Out;
  }
  unsigned funcInDim() const {
    assert(isFunc());
    return InDim;
  }
  unsigned funcOutDim() const {
    assert(isFunc());
    return OutDim;
  }
  bool isRevFunc() const { return isFunc() && Rev; }

  bool operator==(const IRType &O) const {
    if (TheKind != O.TheKind)
      return false;
    if (TheKind == Kind::Func)
      return In == O.In && InDim == O.InDim && Out == O.Out &&
             OutDim == O.OutDim && Rev == O.Rev;
    return Dim == O.Dim;
  }
  bool operator!=(const IRType &O) const { return !(*this == O); }

  std::string str() const;

private:
  IRType(Kind K, unsigned Dim) : TheKind(K), Dim(Dim) {}

  Kind TheKind = Kind::Invalid;
  unsigned Dim = 0;
  Data In = Data::Unit, Out = Data::Unit;
  unsigned InDim = 0, OutDim = 0;
  bool Rev = false;
};

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

/// An SSA value: either an op result or a block argument. Values have stable
/// addresses (owned in deques) so Value* is used everywhere.
class Value {
public:
  IRType Ty;
  Op *DefOp = nullptr;       ///< Defining op; null for block arguments.
  Block *DefBlock = nullptr; ///< Owning block for block arguments.
  unsigned Index = 0;        ///< Result/argument index.
  /// Uses of this value as (user op, operand index).
  std::vector<std::pair<Op *, unsigned>> Uses;

  bool isBlockArg() const { return DefOp == nullptr; }
  bool hasOneUse() const { return Uses.size() == 1; }
  unsigned numUses() const { return Uses.size(); }
  Op *singleUser() const {
    assert(hasOneUse());
    return Uses.front().first;
  }

  /// Rewrites every use of this value to use \p New instead.
  void replaceAllUsesWith(Value *New);
};

//===----------------------------------------------------------------------===//
// Attributes
//===----------------------------------------------------------------------===//

/// Quantum gate kinds in QCircuit IR. Controls are expressed by the op's
/// NumControls operand split, not by separate gate kinds, matching
/// `gate G [%c...] %t...` in the paper.
enum class GateKind {
  X,
  Y,
  Z,
  H,
  S,
  Sdg,
  T,
  Tdg,
  P,  ///< Relative phase shift P(theta) = diag(1, e^{i theta}).
  RX, ///< Rotation gates (parameterized).
  RY,
  RZ,
  Swap, ///< Two targets.
};

const char *gateKindName(GateKind K);

/// Returns the adjoint gate kind; P/R gates also negate their parameter.
/// Two gates on the same wires invert each other exactly when the second's
/// kind is the adjoint of the first's (and, for P/R, the angles sum to 0).
GateKind adjointGateKind(GateKind K);

/// True for the kinds that carry an angle: P, RX, RY and RZ.
bool isParamGate(GateKind K);

/// True for the kinds whose matrix is diagonal: Z, S, Sdg, T, Tdg, P and
/// RZ.
bool isDiagonalGate(GateKind K);

/// Degrees -> radians for gate angles. Every path that converts a rotation
/// angle (literal lowering and symbolic bind alike) goes through this one
/// function, so bound results match recompiled results bitwise.
inline double degreesToRadians(double Deg) {
  return Deg * (M_PI / 180.0);
}

/// A gate rotation angle: either a concrete value in radians or a linear
/// function of one named module parameter (`Scale * param + Offset`).
///
/// Symbolic coefficients are kept in the *source* unit (degrees) and the
/// degrees->radians conversion happens as the final step of eval(). This
/// ordering exactly mirrors the non-parametric path — which folds the
/// linear expression over a literal angle in degrees and then converts —
/// so binding a parameter produces bit-identical doubles to recompiling
/// with the literal substituted.
struct GateParam {
  /// Concrete: the angle in radians. Symbolic: additive term in degrees.
  double Offset = 0.0;
  /// Symbolic: multiplier of the parameter value (degrees per unit).
  double Scale = 1.0;
  /// Parameter index into Module::FloatParams, or -1 for concrete.
  int Index = -1;

  GateParam() = default;
  /// Implicit from a concrete radians value (keeps `gate(..., theta)`
  /// call sites working unchanged).
  GateParam(double Radians) : Offset(Radians) {}
  static GateParam symbolic(int Index, double ScaleDeg, double OffsetDeg) {
    GateParam P;
    P.Index = Index;
    P.Scale = ScaleDeg;
    P.Offset = OffsetDeg;
    return P;
  }

  bool isSymbolic() const { return Index >= 0; }

  /// The concrete radians value; symbolic params must be bound first.
  double concrete() const {
    assert(!isSymbolic() && "unbound symbolic gate parameter");
    return Offset;
  }

  /// Evaluates against parameter values (degrees), returning radians.
  double eval(const std::vector<double> &Vals) const {
    if (!isSymbolic())
      return Offset;
    assert(static_cast<size_t>(Index) < Vals.size());
    return degreesToRadians(Scale * Vals[Index] + Offset);
  }

  /// The adjoint parameter. Negating both coefficients is exact in IEEE
  /// arithmetic, so adjoint-then-bind equals bind-then-negate bitwise.
  GateParam negated() const {
    GateParam P = *this;
    P.Offset = -P.Offset;
    P.Scale = -P.Scale;
    return P;
  }
};

/// Kind of classical-function embedding (§6.4).
enum class EmbedKind {
  Xor, ///< Bennett embedding U_f|x>|y> = |x>|y ^ f(x)>.
  Sign ///< Phase oracle U'_f|x> = (-1)^{f(x)}|x>.
};

//===----------------------------------------------------------------------===//
// Ops
//===----------------------------------------------------------------------===//

/// Every operation of both dialects.
enum class OpKind {
  // Qwerty IR (§5).
  QbPrep,     ///< Prepare a qbundle in a primitive-basis eigenstate.
  QbPack,     ///< N qubits -> qbundle[N].
  QbUnpack,   ///< qbundle[N] -> N qubits.
  QbTrans,    ///< Basis translation on a qbundle.
  QbMeas,     ///< Measure a qbundle in a basis.
  QbDiscard,  ///< Reset and free a qbundle.
  QbDiscardZ, ///< Free a qbundle assumed |0...0>.
  QbId,       ///< Identity on a qbundle (lowered away; kept for lambdas).
  BitPack,    ///< N i1 -> bitbundle[N].
  BitUnpack,  ///< bitbundle[N] -> N i1.
  BitConst,   ///< Constant bitbundle.
  ConstF,     ///< Constant f64 (stationary classical op, Fig. 4).
  EmbedClassical, ///< f.xor / f.sign placeholder until synthesis (§6.4).
  FuncConst,  ///< Reference to a symbol as a function value.
  FuncAdj,    ///< Adjointed function value.
  FuncPred,   ///< Predicated function value.
  Call,       ///< Direct call; may be marked adj and/or pred (§5).
  CallIndirect, ///< Call of a function value.
  Lambda,     ///< Anonymous function (region); lifted to a func (§5.4).
  If,         ///< scf.if analog: i1 cond, two regions yielding values.
  Ret,        ///< Function terminator.
  Yield,      ///< Region terminator.
  // QCircuit IR (§6).
  QAlloc,   ///< Allocate a qubit.
  QFree,    ///< Reset and free.
  QFreeZ,   ///< Free, assuming |0>.
  Gate,     ///< gate G [controls] targets.
  Measure1, ///< Measure one qubit: (qubit) -> (qubit, i1).
  // QIR callable support (§6, §7).
  CallableCreate, ///< Make a callable value from a symbol.
  CallableAdj,    ///< Callable with adjoint flag toggled.
  CallableCtl,    ///< Callable with controls added.
  CallableInvoke, ///< Invoke a callable value.
};

const char *opKindName(OpKind K);

/// One operation. Operands refer to Values; results are owned here.
class Op {
public:
  OpKind Kind;

  //===--- Attributes (meaning depends on Kind) ---===//
  Basis BasisAttr;   ///< QbTrans in-basis; QbMeas/FuncPred/Call pred basis.
  Basis BasisAttr2;  ///< QbTrans out-basis.
  PrimitiveBasis PrimAttr = PrimitiveBasis::Std; ///< QbPrep.
  bool MinusAttr = false;                        ///< QbPrep eigenstate.
  unsigned DimAttr = 0;      ///< QbPrep/QbId dim.
  GateKind GateAttr = GateKind::X;
  double FloatAttr = 0.0;    ///< ConstF value.
  GateParam ParamAttr;       ///< Gate parameter (concrete or symbolic).
  unsigned NumControls = 0;  ///< Gate/CallableCtl control count.
  std::string SymbolAttr;    ///< FuncConst/Call/CallableCreate symbol;
                             ///< EmbedClassical classical function name.
  bool AdjFlag = false;      ///< Call: adjoint call; EmbedClassical unused.
  EmbedKind EmbedAttr = EmbedKind::Xor;
  std::vector<bool> BitsAttr; ///< BitConst bits.

  //===--- Structure ---===//
  std::vector<Value *> Operands;
  std::deque<Value> Results;
  std::vector<std::unique_ptr<Block>> Regions; ///< Lambda: 1; If: 2.

  Block *ParentBlock = nullptr;
  std::list<std::unique_ptr<Op>>::iterator Iter; ///< Position in parent.

  ~Op();

  /// Creates a detached op (no parent); the builder inserts it.
  static std::unique_ptr<Op> create(OpKind Kind,
                                    const std::vector<Value *> &Operands,
                                    const std::vector<IRType> &ResultTypes);

  Value *result(unsigned I = 0) {
    assert(I < Results.size());
    return &Results[I];
  }
  unsigned numResults() const { return Results.size(); }
  Value *operand(unsigned I) const {
    assert(I < Operands.size());
    return Operands[I];
  }
  unsigned numOperands() const { return Operands.size(); }

  /// Replaces operand \p I, maintaining use lists.
  void setOperand(unsigned I, Value *V);
  /// Appends an operand, maintaining use lists.
  void addOperand(Value *V);
  /// Drops all operands (removing this op from their use lists).
  void dropOperands();

  /// Unlinks and destroys this op. All results must be unused.
  void erase();

  /// True for ops with no quantum or external effect whose results can be
  /// dead-code-eliminated when unused.
  bool isPure() const;

  /// True for "stationary" classical ops that stay in place when a block is
  /// adjointed or predicated (§5.2, §5.3).
  bool isStationary() const;

  std::string str() const;

private:
  Op() = default;
};

//===----------------------------------------------------------------------===//
// Blocks, functions, modules
//===----------------------------------------------------------------------===//

/// A single basic block (function bodies and op regions are single-block,
/// which Qwerty guarantees after AST lowering).
class Block {
public:
  std::deque<Value> Args;
  std::list<std::unique_ptr<Op>> Ops;
  Op *ParentOp = nullptr;           ///< For lambda/if regions.
  IRFunction *ParentFunc = nullptr; ///< For function bodies.

  /// Frees the ops back to front, users before definers, each after it
  /// drops its operand links, so no op dies holding a use and no use
  /// outlives its value. Nested regions go the same way.
  ~Block();

  Value *addArg(IRType Ty) {
    Args.emplace_back();
    Value &V = Args.back();
    V.Ty = Ty;
    V.DefBlock = this;
    V.Index = Args.size() - 1;
    return &V;
  }
  Value *arg(unsigned I) {
    assert(I < Args.size());
    return &Args[I];
  }
  unsigned numArgs() const { return Args.size(); }

  bool empty() const { return Ops.empty(); }
  Op *terminator() {
    assert(!Ops.empty() && "block has no terminator");
    return Ops.back().get();
  }

  /// Inserts \p NewOp before \p Before (or at the end if null).
  Op *insert(std::unique_ptr<Op> NewOp, Op *Before = nullptr);
};

/// A function in the module: a name, a signature, and a single-block body.
class IRFunction {
public:
  std::string Name;
  Block Body;
  std::vector<IRType> ResultTypes;
  /// True if the body contains only reversible ops (computed on demand).
  bool IsLambdaLifted = false;
  /// Classical-function defs referenced by EmbedClassical are not IR
  /// functions; this marks compiler-generated specializations (§6.2).
  bool IsSpecialization = false;
  /// Source location of the kernel this function was lowered from (or of
  /// the kernel a lifted lambda / generated specialization derives from),
  /// so mid-pipeline failures can point back at the offending source.
  SourceLoc Loc;

  IRFunction(std::string Name) : Name(std::move(Name)) {
    Body.ParentFunc = this;
  }

  IRType type() const;
  std::string str() const;
};

/// A module: an ordered list of functions plus a symbol table.
class Module {
public:
  std::vector<std::unique_ptr<IRFunction>> Functions;

  /// Names of the module's float parameters (`$name` placeholders), in
  /// first-occurrence order. Symbolic GateParam::Index values index here.
  /// Empty for non-parametric programs.
  std::vector<std::string> FloatParams;

  IRFunction *lookup(const std::string &Name) const {
    for (const auto &F : Functions)
      if (F->Name == Name)
        return F.get();
    return nullptr;
  }
  IRFunction *create(const std::string &Name) {
    Functions.push_back(std::make_unique<IRFunction>(Name));
    return Functions.back().get();
  }
  /// Creates a function with a fresh name derived from \p Base.
  IRFunction *createUnique(const std::string &Base);

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

/// Creates ops at an insertion point, like mlir::OpBuilder.
class Builder {
public:
  explicit Builder(Block *B) : InsertBlock(B) {}
  Builder(Block *B, Op *Before) : InsertBlock(B), InsertBefore(Before) {}

  Block *block() const { return InsertBlock; }
  void setInsertionPoint(Block *B, Op *Before = nullptr) {
    InsertBlock = B;
    InsertBefore = Before;
  }

  Op *insert(std::unique_ptr<Op> NewOp) {
    return InsertBlock->insert(std::move(NewOp), InsertBefore);
  }
  Op *createOp(OpKind Kind, const std::vector<Value *> &Operands,
               const std::vector<IRType> &ResultTypes) {
    return insert(Op::create(Kind, Operands, ResultTypes));
  }

  //===--- Qwerty dialect helpers ---===//
  Value *qbprep(PrimitiveBasis Prim, bool Minus, unsigned Dim);
  Value *qbpack(const std::vector<Value *> &Qubits);
  std::vector<Value *> qbunpack(Value *Bundle);
  Value *qbtrans(Value *Bundle, Basis In, Basis Out);
  Value *qbmeas(Value *Bundle, Basis B);
  void qbdiscard(Value *Bundle);
  void qbdiscardz(Value *Bundle);
  Value *qbid(Value *Bundle);
  Value *bitpack(const std::vector<Value *> &Bits);
  std::vector<Value *> bitunpack(Value *Bundle);
  Value *bitconst(const std::vector<bool> &Bits);
  Value *constf(double V);
  Value *embedClassical(Value *Bundle, const std::string &Func,
                        EmbedKind Kind);
  Value *funcConst(const std::string &Symbol, IRType FuncTy);
  Value *funcAdj(Value *Func);
  Value *funcPred(Value *Func, Basis Pred);
  /// Direct call, optionally adjoint and/or predicated.
  std::vector<Value *> call(IRFunction *Callee, const std::vector<Value *> &
                                                    Args,
                            bool Adj = false, Basis Pred = Basis());
  std::vector<Value *> callIndirect(Value *Func,
                                    const std::vector<Value *> &Args);
  /// Creates a lambda op; the caller populates op->Regions[0].
  Op *lambda(IRType FuncTy);
  /// Creates an if op; the caller populates both regions.
  Op *ifOp(Value *Cond, const std::vector<IRType> &ResultTypes);
  void ret(const std::vector<Value *> &Values);
  void yield(const std::vector<Value *> &Values);

  //===--- QCircuit dialect helpers ---===//
  Value *qalloc();
  void qfree(Value *Q);
  void qfreez(Value *Q);
  /// gate G [controls] targets; returns new control+target values in order.
  std::vector<Value *> gate(GateKind G, const std::vector<Value *> &Controls,
                            const std::vector<Value *> &Targets,
                            GateParam Param = GateParam());
  /// Measure one qubit: returns (new qubit, i1 result).
  std::pair<Value *, Value *> measure1(Value *Q);
  Value *callableCreate(const std::string &Symbol, IRType FuncTy);
  Value *callableAdj(Value *C);
  Value *callableCtl(Value *C, Basis Pred);
  std::vector<Value *> callableInvoke(Value *C,
                                      const std::vector<Value *> &Args);

private:
  Block *InsertBlock;
  Op *InsertBefore = nullptr;
};

//===----------------------------------------------------------------------===//
// Cloning and verification
//===----------------------------------------------------------------------===//

/// Maps original values to replacement values while cloning.
using ValueMap = std::map<Value *, Value *>;

/// Clones \p Source (attributes and regions included), remapping operands
/// through \p Map, inserting via \p B. Results of the clone are recorded in
/// \p Map.
Op *cloneOp(Builder &B, Op *Source, ValueMap &Map);

/// Clones every op of \p Source into the insertion point of \p B, remapping
/// through \p Map (seed it with arg mappings). Stops before the terminator
/// if \p SkipTerminator.
void cloneBlockBody(Builder &B, Block &Source, ValueMap &Map,
                    bool SkipTerminator = true);

/// Deep-copies an entire module: functions, signatures, flags, bodies. The
/// artifact cache uses this to preserve the Qwerty IR while the destructive
/// QCircuit conversion runs on the copy.
std::unique_ptr<Module> cloneModule(const Module &M);

/// Verifies structural invariants: operand/result types, linear use of
/// qubit-typed values, terminator placement. Reports problems to \p Diags.
bool verifyModule(const Module &M, DiagnosticEngine &Diags);
bool verifyFunction(const IRFunction &F, DiagnosticEngine &Diags);

} // namespace asdf

#endif // ASDF_IR_IR_H
