//===- QirEmitter.cpp - QIR (LLVM IR) code generation (§7) ----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/QirEmitter.h"

#include <functional>
#include <map>
#include <set>
#include <sstream>

using namespace asdf;

namespace {

/// QIS intrinsic base name for a gate.
std::string qisName(GateKind K, unsigned NumControls) {
  std::string Base;
  switch (K) {
  case GateKind::X:
    Base = "x";
    break;
  case GateKind::Y:
    Base = "y";
    break;
  case GateKind::Z:
    Base = "z";
    break;
  case GateKind::H:
    Base = "h";
    break;
  case GateKind::S:
    Base = "s";
    break;
  case GateKind::Sdg:
    Base = "s__adj";
    break;
  case GateKind::T:
    Base = "t";
    break;
  case GateKind::Tdg:
    Base = "t__adj";
    break;
  case GateKind::P:
    Base = "rz"; // P differs from RZ by global phase; QIR exposes rz.
    break;
  case GateKind::RX:
    Base = "rx";
    break;
  case GateKind::RY:
    Base = "ry";
    break;
  case GateKind::RZ:
    Base = "rz";
    break;
  case GateKind::Swap:
    Base = "swap";
    break;
  }
  if (NumControls == 1 && (K == GateKind::X || K == GateKind::Z ||
                           K == GateKind::Y))
    return "c" + Base;
  if (NumControls == 2 && K == GateKind::X)
    return "ccx";
  return Base;
}

} // namespace

//===----------------------------------------------------------------------===//
// Base profile
//===----------------------------------------------------------------------===//

std::optional<std::string> asdf::emitQirBaseProfile(const Circuit &C) {
  if (C.isParametric())
    return std::nullopt; // No symbolic angles in the Base Profile.
  std::ostringstream OS;
  std::set<std::string> Decls;
  std::ostringstream Body;

  auto Qubit = [](unsigned Q) {
    return "%Qubit* inttoptr (i64 " + std::to_string(Q) + " to %Qubit*)";
  };
  auto Result = [](unsigned R) {
    return "%Result* inttoptr (i64 " + std::to_string(R) +
           " to %Result*)";
  };

  for (const CircuitInstr &I : C.Instrs) {
    if (I.CondBit >= 0)
      return std::nullopt; // Forward unconditional branching only.
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate: {
      if (I.Controls.size() > 2 ||
          (I.Controls.size() >= 1 &&
           !(I.Gate == GateKind::X || I.Gate == GateKind::Z ||
             I.Gate == GateKind::Y)))
        return std::nullopt; // Decompose multi-controls first.
      std::string Name =
          "__quantum__qis__" + qisName(I.Gate, I.Controls.size()) +
          "__body";
      std::ostringstream Args;
      bool First = true;
      if (isParamGate(I.Gate)) {
        Args << "double " << I.Param;
        First = false;
      }
      for (unsigned Q : I.Controls) {
        Args << (First ? "" : ", ") << Qubit(Q);
        First = false;
      }
      for (unsigned Q : I.Targets) {
        Args << (First ? "" : ", ") << Qubit(Q);
        First = false;
      }
      Body << "  call void @" << Name << '(' << Args.str() << ")\n";
      std::ostringstream ProtoArgs;
      First = true;
      if (isParamGate(I.Gate)) {
        ProtoArgs << "double";
        First = false;
      }
      for (unsigned K = 0; K < I.Controls.size() + I.Targets.size(); ++K) {
        ProtoArgs << (First ? "" : ", ") << "%Qubit*";
        First = false;
      }
      Decls.insert("declare void @" + Name + "(" + ProtoArgs.str() + ")");
      break;
    }
    case CircuitInstr::Kind::Measure:
      Body << "  call void @__quantum__qis__mz__body(" << Qubit(I.Targets[0])
           << ", " << Result(static_cast<unsigned>(I.Cbit)) << ")\n";
      Decls.insert("declare void @__quantum__qis__mz__body(%Qubit*, "
                   "%Result*)");
      break;
    case CircuitInstr::Kind::Reset:
      Body << "  call void @__quantum__qis__reset__body("
           << Qubit(I.Targets[0]) << ")\n";
      Decls.insert("declare void @__quantum__qis__reset__body(%Qubit*)");
      break;
    }
  }
  for (int Bit : C.OutputBits)
    if (Bit >= 0) {
      Body << "  call void @__quantum__rt__result_record_output("
           << Result(static_cast<unsigned>(Bit)) << ", i8* null)\n";
      Decls.insert("declare void @__quantum__rt__result_record_output("
                   "%Result*, i8*)");
    }

  OS << "; Asdf reproduction: QIR Base Profile\n";
  OS << "%Qubit = type opaque\n%Result = type opaque\n\n";
  OS << "define void @main() #0 {\nentry:\n"
     << Body.str() << "  ret void\n}\n\n";
  for (const std::string &D : Decls)
    OS << D << '\n';
  OS << "\nattributes #0 = { \"entry_point\" \"qir_profiles\"=\"base_"
        "profile\" \"required_num_qubits\"=\""
     << C.NumQubits << "\" \"required_num_results\"=\"" << C.NumBits
     << "\" }\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Unrestricted profile
//===----------------------------------------------------------------------===//

namespace {

class UnrestrictedEmitter {
public:
  UnrestrictedEmitter(const Module &M, QirCallableStats *Stats)
      : M(M), Stats(Stats) {}

  std::string run();

private:
  const Module &M;
  QirCallableStats *Stats;
  std::ostringstream OS;
  std::set<std::string> Decls;
  std::map<const Value *, std::string> Names;
  unsigned NextId = 0;

  std::string typeOf(const IRType &T) {
    switch (T.kind()) {
    case IRType::Kind::Qubit:
      return "%Qubit*";
    case IRType::Kind::QBundle:
    case IRType::Kind::BitBundle:
      return "%Array*";
    case IRType::Kind::I1:
      return "%Result*";
    case IRType::Kind::F64:
      return "double";
    case IRType::Kind::Func:
      return "%Callable*";
    case IRType::Kind::Invalid:
      break;
    }
    return "i8*";
  }

  std::string name(const Value *V) {
    auto [It, Inserted] = Names.insert({V, "%v" + std::to_string(NextId)});
    if (Inserted)
      ++NextId;
    return It->second;
  }

  void declare(const std::string &Proto) { Decls.insert(Proto); }
  void emitFunction(const IRFunction &F);
  void emitOp(const Op &O);
};

void UnrestrictedEmitter::emitOp(const Op &O) {
  auto Call = [&](const std::string &Ret, const std::string &Fn,
                  const std::string &Args, const std::string &Proto,
                  const Value *ResultVal) {
    if (ResultVal)
      OS << "  " << name(ResultVal) << " = call " << Ret << " @" << Fn
         << '(' << Args << ")\n";
    else
      OS << "  call " << Ret << " @" << Fn << '(' << Args << ")\n";
    declare("declare " + Ret + " @" + Fn + "(" + Proto + ")");
  };

  switch (O.Kind) {
  case OpKind::QAlloc:
    Call("%Qubit*", "__quantum__rt__qubit_allocate", "", "",
         &O.Results[0]);
    return;
  case OpKind::QFree:
  case OpKind::QFreeZ:
    Call("void", "__quantum__rt__qubit_release",
         "%Qubit* " + name(O.Operands[0]), "%Qubit*", nullptr);
    return;
  case OpKind::Gate: {
    std::string Fn =
        "__quantum__qis__" + qisName(O.GateAttr, O.NumControls) + "__body";
    std::ostringstream Args, Proto;
    bool First = true;
    if (isParamGate(O.GateAttr)) {
      Args << "double " << O.ParamAttr.concrete();
      Proto << "double";
      First = false;
    }
    for (const Value *V : O.Operands) {
      Args << (First ? "" : ", ") << "%Qubit* " << name(V);
      Proto << (First ? "" : ", ") << "%Qubit*";
      First = false;
    }
    OS << "  call void @" << Fn << '(' << Args.str() << ")\n";
    declare("declare void @" + Fn + "(" + Proto.str() + ")");
    // Results are the same qubits; alias names.
    for (unsigned I = 0; I < O.Results.size(); ++I)
      Names[&O.Results[I]] = name(O.Operands[I]);
    return;
  }
  case OpKind::Measure1: {
    Call("%Result*", "__quantum__qis__m__body",
         "%Qubit* " + name(O.Operands[0]), "%Qubit*", &O.Results[1]);
    Names[&O.Results[0]] = name(O.Operands[0]);
    return;
  }
  case OpKind::QbPack:
  case OpKind::BitPack: {
    // Arrays are modeled with __quantum__rt__array_create_1d plus stores;
    // we compress this into one synthetic call for readability.
    std::ostringstream Args, Proto;
    Args << "i64 " << O.Operands.size();
    Proto << "i64";
    for (const Value *V : O.Operands) {
      Args << ", " << typeOf(V->Ty) << ' ' << name(V);
      Proto << ", " << typeOf(V->Ty);
    }
    Call("%Array*", "__quantum__rt__array_create_1d", Args.str(),
         Proto.str(), &O.Results[0]);
    return;
  }
  case OpKind::QbUnpack:
  case OpKind::BitUnpack: {
    for (unsigned I = 0; I < O.Results.size(); ++I) {
      Call(typeOf(O.Results[I].Ty),
           "__quantum__rt__array_get_element_ptr_1d",
           "%Array* " + name(O.Operands[0]) + ", i64 " + std::to_string(I),
           "%Array*, i64", &O.Results[I]);
    }
    return;
  }
  case OpKind::BitConst: {
    std::string Bits;
    for (bool B : O.BitsAttr)
      Bits += B ? '1' : '0';
    Call("%Array*", "__quantum__rt__array_from_bits",
         "i64 " + std::to_string(O.BitsAttr.size()), "i64",
         &O.Results[0]);
    OS << "  ; constant bits " << Bits << '\n';
    return;
  }
  case OpKind::ConstF:
    OS << "  " << name(&O.Results[0]) << " = fadd double 0.0, "
       << O.FloatAttr << '\n';
    return;
  case OpKind::CallableCreate: {
    if (Stats)
      ++Stats->Creates;
    Call("%Callable*", "__quantum__rt__callable_create",
         "[4 x void (%Tuple*, %Tuple*, %Tuple*)*]* @" + O.SymbolAttr +
             "__FunctionTable, [2 x void (%Tuple*, i32)*]* null, %Tuple* "
             "null",
         "[4 x void (%Tuple*, %Tuple*, %Tuple*)*]*, [2 x void (%Tuple*, "
         "i32)*]*, %Tuple*",
         &O.Results[0]);
    return;
  }
  case OpKind::CallableAdj: {
    Call("%Callable*", "__quantum__rt__callable_copy",
         "%Callable* " + name(O.Operands[0]) + ", i1 true",
         "%Callable*, i1", &O.Results[0]);
    OS << "  call void @__quantum__rt__callable_make_adjoint(%Callable* "
       << name(&O.Results[0]) << ")\n";
    declare("declare void @__quantum__rt__callable_make_adjoint("
            "%Callable*)");
    return;
  }
  case OpKind::CallableCtl: {
    Call("%Callable*", "__quantum__rt__callable_copy",
         "%Callable* " + name(O.Operands[0]) + ", i1 true",
         "%Callable*, i1", &O.Results[0]);
    OS << "  call void @__quantum__rt__callable_make_controlled("
          "%Callable* "
       << name(&O.Results[0]) << ")\n";
    declare("declare void @__quantum__rt__callable_make_controlled("
            "%Callable*)");
    return;
  }
  case OpKind::CallableInvoke: {
    if (Stats)
      ++Stats->Invokes;
    std::ostringstream Args;
    Args << "%Callable* " << name(O.Operands[0]);
    for (unsigned I = 1; I < O.Operands.size(); ++I)
      Args << ", " << typeOf(O.Operands[I]->Ty) << ' '
           << name(O.Operands[I]);
    // Arguments and results travel in tuples; this emitter passes them
    // directly (the runtime tweak of Appendix G: no argument mangling).
    std::string ResultName;
    if (!O.Results.empty()) {
      OS << "  " << name(&O.Results[0])
         << " = call %Array* @__quantum__rt__callable_invoke("
         << Args.str() << ")\n";
    } else {
      OS << "  call %Array* @__quantum__rt__callable_invoke(" << Args.str()
         << ")\n";
    }
    declare("declare %Array* @__quantum__rt__callable_invoke(...)");
    return;
  }
  case OpKind::Call: {
    std::ostringstream Args;
    bool First = true;
    for (const Value *V : O.Operands) {
      Args << (First ? "" : ", ") << typeOf(V->Ty) << ' ' << name(V);
      First = false;
    }
    if (!O.Results.empty())
      OS << "  " << name(&O.Results[0]) << " = call "
         << typeOf(O.Results[0].Ty) << " @" << O.SymbolAttr << '('
         << Args.str() << ")\n";
    else
      OS << "  call void @" << O.SymbolAttr << '(' << Args.str() << ")\n";
    return;
  }
  case OpKind::If: {
    // Unrestricted profile permits full control flow; emit a compact
    // select-style comment plus both region bodies guarded by branches.
    OS << "  ; if " << name(O.Operands[0]) << " (structured control flow "
          "lowered to br in full LLVM)\n";
    for (const auto &R : O.Regions)
      for (const auto &Inner : R->Ops)
        emitOp(*Inner);
    if (!O.Results.empty() && !O.Regions.empty()) {
      Op *Yield = O.Regions[0]->Ops.back().get();
      for (unsigned I = 0;
           I < O.Results.size() && I < Yield->Operands.size(); ++I)
        Names[&O.Results[I]] = name(Yield->Operands[I]);
    }
    return;
  }
  case OpKind::Yield:
    return;
  case OpKind::Ret: {
    if (O.Operands.empty())
      OS << "  ret void\n";
    else
      OS << "  ret " << typeOf(O.Operands[0]->Ty) << ' '
         << name(O.Operands[0]) << '\n';
    return;
  }
  default:
    OS << "  ; unhandled op " << opKindName(O.Kind) << '\n';
    return;
  }
}

void UnrestrictedEmitter::emitFunction(const IRFunction &F) {
  std::string RetTy =
      F.ResultTypes.empty() ? "void" : typeOf(F.ResultTypes[0]);
  OS << "define " << RetTy << " @" << F.Name << '(';
  for (unsigned I = 0; I < F.Body.Args.size(); ++I) {
    if (I)
      OS << ", ";
    OS << typeOf(F.Body.Args[I].Ty) << ' '
       << name(&const_cast<IRFunction &>(F).Body.Args[I]);
  }
  OS << ") {\nentry:\n";
  for (const auto &O : F.Body.Ops)
    emitOp(*O);
  if (F.Body.Ops.empty() || F.Body.Ops.back()->Kind != OpKind::Ret)
    OS << "  ret void\n";
  OS << "}\n\n";
}

std::string UnrestrictedEmitter::run() {
  OS << "; Asdf reproduction: QIR Unrestricted Profile\n";
  OS << "%Qubit = type opaque\n%Result = type opaque\n%Array = type "
        "opaque\n%Callable = type opaque\n%Tuple = type opaque\n\n";
  // Callable function tables (one per function referenced by a
  // callable_create): [body, adj, ctl, adj_ctl], with null entries when the
  // specialization was not generated (§6.2).
  std::set<std::string> Tables;
  for (const auto &F : M.Functions) {
    std::function<void(const Block &)> Walk = [&](const Block &B) {
      for (const auto &O : B.Ops) {
        if (O->Kind == OpKind::CallableCreate)
          Tables.insert(O->SymbolAttr);
        for (const auto &R : O->Regions)
          if (R)
            Walk(*R);
      }
    };
    Walk(F->Body);
  }
  for (const std::string &T : Tables) {
    auto Entry = [&](const std::string &Suffix) {
      return M.lookup(T + Suffix)
                 ? "void (%Tuple*, %Tuple*, %Tuple*)* @" + T + Suffix +
                       "__wrapper"
                 : std::string(
                       "void (%Tuple*, %Tuple*, %Tuple*)* null");
    };
    OS << "@" << T
       << "__FunctionTable = internal constant [4 x void (%Tuple*, "
          "%Tuple*, %Tuple*)*] ["
       << "void (%Tuple*, %Tuple*, %Tuple*)* @" << T << "__wrapper, "
       << Entry("__adj") << ", " << Entry("__ctl1") << ", "
       << Entry("__adj__ctl1") << "]\n";
  }
  OS << '\n';
  for (const auto &F : M.Functions)
    emitFunction(*F);
  for (const std::string &D : Decls)
    OS << D << '\n';
  return OS.str();
}

} // namespace

std::string asdf::emitQirUnrestricted(const Module &M,
                                      QirCallableStats *Stats) {
  UnrestrictedEmitter E(M, Stats);
  return E.run();
}
