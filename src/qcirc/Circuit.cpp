//===- Circuit.cpp - Flat quantum circuit representation ------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "qcirc/Circuit.h"

#include <cmath>
#include <sstream>

using namespace asdf;

std::string CircuitInstr::str() const {
  std::ostringstream OS;
  if (CondBit >= 0)
    OS << "if c" << CondBit << "==" << (CondVal ? 1 : 0) << ": ";
  switch (TheKind) {
  case Kind::Gate: {
    OS << gateKindName(Gate);
    if (isParamGate(Gate)) {
      if (isSymbolic())
        OS << "($" << ParamIdx << " * " << ParamScale << " + " << ParamOfs
           << " deg)";
      else
        OS << '(' << Param << ')';
    }
    if (!Controls.empty()) {
      OS << " ctrl[";
      for (unsigned I = 0; I < Controls.size(); ++I)
        OS << (I ? "," : "") << Controls[I];
      OS << ']';
    }
    OS << ' ';
    for (unsigned I = 0; I < Targets.size(); ++I)
      OS << (I ? "," : "") << 'q' << Targets[I];
    return OS.str();
  }
  case Kind::Measure:
    OS << "measure q" << Targets[0] << " -> c" << Cbit;
    return OS.str();
  case Kind::Reset:
    OS << "reset q" << Targets[0];
    return OS.str();
  }
  return OS.str();
}

/// True if a parameterized rotation angle is (a multiple of) pi/2, i.e.
/// still Clifford.
static bool isCliffordAngle(double Theta) {
  double Ratio = Theta / (M_PI / 2.0);
  return std::abs(Ratio - std::round(Ratio)) < 1e-9;
}

/// True if the angle is an odd multiple of pi/4 (exactly one T-equivalent).
static bool isTAngle(double Theta) {
  double Ratio = Theta / (M_PI / 4.0);
  return std::abs(Ratio - std::round(Ratio)) < 1e-9 &&
         !isCliffordAngle(Theta);
}

CircuitStats Circuit::stats() const {
  CircuitStats S;
  std::vector<uint64_t> QubitDepth(NumQubits, 0);
  std::vector<uint64_t> QubitTDepth(NumQubits, 0);

  for (const CircuitInstr &I : Instrs) {
    if (I.TheKind == CircuitInstr::Kind::Measure) {
      ++S.MeasureCount;
      continue;
    }
    if (I.TheKind == CircuitInstr::Kind::Reset)
      continue;
    ++S.Total;
    bool IsT = false;
    switch (I.Gate) {
    case GateKind::T:
    case GateKind::Tdg:
      IsT = I.Controls.empty();
      break;
    case GateKind::P:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
      // Non-Clifford rotations cost magic states; count pi/4-family angles
      // as one T, and arbitrary angles as one T-equivalent layer as well
      // (the Azure estimator similarly charges rotations one synthesis
      // round; absolute constants don't change the comparison shape).
      // Symbolic angles are non-Clifford for any generic binding.
      IsT = I.isSymbolic() || !isCliffordAngle(I.Param) ||
            !I.Controls.empty();
      (void)isTAngle(I.Param);
      break;
    default:
      break;
    }
    if (!I.Controls.empty() &&
        !(I.Gate == GateKind::X && I.Controls.size() == 1) &&
        !(I.Gate == GateKind::Z && I.Controls.size() == 1) &&
        !(I.Gate == GateKind::Y && I.Controls.size() == 1))
      IsT = true; // Controlled non-Pauli / multi-controls are non-Clifford.
    if (I.Controls.size() >= 2)
      ++S.MultiControlled;
    if (I.Controls.size() + I.Targets.size() >= 2)
      ++S.TwoQubitCount;
    if (I.Gate == GateKind::X && I.Controls.size() == 1)
      ++S.CxCount;
    if (IsT)
      ++S.TCount;
    else
      ++S.CliffordCount;

    // Depth layering: the instruction lands one past the max depth of the
    // qubits it touches.
    uint64_t MaxD = 0, MaxTD = 0;
    auto Touch = [&](unsigned Q) {
      if (Q < NumQubits) {
        MaxD = std::max(MaxD, QubitDepth[Q]);
        MaxTD = std::max(MaxTD, QubitTDepth[Q]);
      }
    };
    for (unsigned Q : I.Controls)
      Touch(Q);
    for (unsigned Q : I.Targets)
      Touch(Q);
    uint64_t NewD = MaxD + 1;
    uint64_t NewTD = MaxTD + (IsT ? 1 : 0);
    auto Set = [&](unsigned Q) {
      if (Q < NumQubits) {
        QubitDepth[Q] = NewD;
        QubitTDepth[Q] = NewTD;
      }
    };
    for (unsigned Q : I.Controls)
      Set(Q);
    for (unsigned Q : I.Targets)
      Set(Q);
    S.Depth = std::max(S.Depth, NewD);
    S.TDepth = std::max(S.TDepth, NewTD);
  }
  return S;
}

std::string Circuit::paramList() const {
  std::string S;
  for (size_t I = 0; I < ParamNames.size(); ++I)
    S += (I ? ", $" : "$") + ParamNames[I];
  return S;
}

std::string Circuit::str() const {
  std::ostringstream OS;
  OS << "circuit(" << NumQubits << " qubits, " << NumBits << " bits";
  for (const std::string &P : ParamNames)
    OS << ", $" << P;
  OS << ") {\n";
  for (const CircuitInstr &I : Instrs)
    OS << "  " << I.str() << '\n';
  OS << "}\n";
  return OS.str();
}

Circuit asdf::bindCircuit(const Circuit &C, const std::vector<double> &Vals) {
  assert(Vals.size() == C.ParamNames.size() &&
         "bindCircuit: wrong number of parameter values");
  Circuit Out = C;
  Out.ParamNames.clear();
  for (CircuitInstr &I : Out.Instrs) {
    if (I.TheKind != CircuitInstr::Kind::Gate || !I.isSymbolic())
      continue;
    I.Param = I.boundParam(Vals);
    I.ParamIdx = -1;
    I.ParamScale = 1.0;
    I.ParamOfs = 0.0;
  }
  return Out;
}
