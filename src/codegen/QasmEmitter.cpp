//===- QasmEmitter.cpp - OpenQASM 3 code generation (§7) ------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/QasmEmitter.h"

#include <sstream>

using namespace asdf;

namespace {

const char *qasmGateName(GateKind K) {
  switch (K) {
  case GateKind::X:
    return "x";
  case GateKind::Y:
    return "y";
  case GateKind::Z:
    return "z";
  case GateKind::H:
    return "h";
  case GateKind::S:
    return "s";
  case GateKind::Sdg:
    return "sdg";
  case GateKind::T:
    return "t";
  case GateKind::Tdg:
    return "tdg";
  case GateKind::P:
    return "p";
  case GateKind::RX:
    return "rx";
  case GateKind::RY:
    return "ry";
  case GateKind::RZ:
    return "rz";
  case GateKind::Swap:
    return "swap";
  }
  return "id";
}

void emitGate(std::ostringstream &OS, const CircuitInstr &I,
              const Circuit &C) {
  unsigned NC = I.Controls.size();
  std::string Name = qasmGateName(I.Gate);
  // Prefer the named controlled forms of stdgates.inc, falling back to the
  // ctrl @ modifier for higher control counts.
  if (NC == 1 && I.Gate == GateKind::X)
    Name = "cx";
  else if (NC == 1 && I.Gate == GateKind::Z)
    Name = "cz";
  else if (NC == 1 && I.Gate == GateKind::Y)
    Name = "cy";
  else if (NC == 1 && I.Gate == GateKind::H)
    Name = "ch";
  else if (NC == 1 && I.Gate == GateKind::P)
    Name = "cp";
  else if (NC == 1 && I.Gate == GateKind::Swap)
    Name = "cswap";
  else if (NC == 2 && I.Gate == GateKind::X)
    Name = "ccx";
  else if (NC >= 1)
    Name = "ctrl(" + std::to_string(NC) + ") @ " + Name;
  OS << Name;
  if (isParamGate(I.Gate)) {
    if (I.isSymbolic())
      // Symbolic angle over an `input` parameter (declared in degrees).
      OS << "((" << I.ParamScale << " * " << C.ParamNames[I.ParamIdx]
         << " + " << I.ParamOfs << ") * pi / 180)";
    else
      OS << '(' << I.Param << ')';
  }
  OS << ' ';
  bool First = true;
  for (unsigned Q : I.Controls) {
    OS << (First ? "" : ", ") << "q[" << Q << ']';
    First = false;
  }
  for (unsigned Q : I.Targets) {
    OS << (First ? "" : ", ") << "q[" << Q << ']';
    First = false;
  }
  OS << ';';
}

} // namespace

std::string asdf::emitOpenQasm3(const Circuit &C) {
  std::ostringstream OS;
  OS << "OPENQASM 3.0;\n";
  OS << "include \"stdgates.inc\";\n";
  if (C.NumQubits)
    OS << "qubit[" << C.NumQubits << "] q;\n";
  if (C.NumBits)
    OS << "bit[" << C.NumBits << "] c;\n";
  for (const std::string &P : C.ParamNames)
    OS << "input float[64] " << P << ";\n";
  for (const CircuitInstr &I : C.Instrs) {
    if (I.CondBit >= 0)
      OS << "if (c[" << I.CondBit << "] == " << (I.CondVal ? 1 : 0)
         << ") { ";
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate:
      emitGate(OS, I, C);
      break;
    case CircuitInstr::Kind::Measure:
      OS << "c[" << I.Cbit << "] = measure q[" << I.Targets[0] << "];";
      break;
    case CircuitInstr::Kind::Reset:
      OS << "reset q[" << I.Targets[0] << "];";
      break;
    }
    if (I.CondBit >= 0)
      OS << " }";
    OS << '\n';
  }
  return OS.str();
}
