//===- Circuit.h - Flat quantum circuit representation (§7) ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, imperative circuit produced by the reg2mem-style conversion of
/// QCircuit IR (§7): SSA qubit values become register indices. This is the
/// common currency of the backends (OpenQASM 3, QIR Base Profile), the
/// state-vector simulator, the resource estimator, and the baseline
/// circuit-oriented compilers.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_QCIRC_CIRCUIT_H
#define ASDF_QCIRC_CIRCUIT_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asdf {

/// One flat circuit instruction.
struct CircuitInstr {
  enum class Kind {
    Gate,    ///< Apply GateAttr with controls/targets.
    Measure, ///< Measure Targets[0] into classical bit Cbit.
    Reset,   ///< Reset Targets[0] to |0>.
  };

  Kind TheKind = Kind::Gate;
  GateKind Gate = GateKind::X;
  /// Concrete gate angle in radians. Meaningless when ParamIdx >= 0 (the
  /// instruction is symbolic and must be bound before execution).
  double Param = 0.0;
  /// Symbolic angle: index into Circuit::ParamNames, or -1 for concrete.
  /// When set, the bound angle is (ParamScale * value + ParamOfs) degrees,
  /// converted to radians — see GateParam.
  int ParamIdx = -1;
  double ParamScale = 1.0;
  double ParamOfs = 0.0;
  std::vector<unsigned> Controls;
  std::vector<unsigned> Targets;
  int Cbit = -1; ///< Measure destination.
  /// Classical condition: execute only if classical bit CondBit == CondVal
  /// (teleportation-style feed-forward). -1 means unconditional.
  int CondBit = -1;
  bool CondVal = true;

  bool isSymbolic() const { return ParamIdx >= 0; }

  /// The concrete radians angle under parameter values \p Vals (degrees).
  double boundParam(const std::vector<double> &Vals) const {
    if (ParamIdx < 0)
      return Param;
    return degreesToRadians(ParamScale * Vals[ParamIdx] + ParamOfs);
  }

  static CircuitInstr gate(GateKind G, std::vector<unsigned> Controls,
                           std::vector<unsigned> Targets,
                           GateParam Param = GateParam()) {
    CircuitInstr I;
    I.TheKind = Kind::Gate;
    I.Gate = G;
    I.Controls = std::move(Controls);
    I.Targets = std::move(Targets);
    if (Param.isSymbolic()) {
      I.ParamIdx = Param.Index;
      I.ParamScale = Param.Scale;
      I.ParamOfs = Param.Offset;
    } else {
      I.Param = Param.concrete();
    }
    return I;
  }
  static CircuitInstr measure(unsigned Qubit, unsigned Cbit) {
    CircuitInstr I;
    I.TheKind = Kind::Measure;
    I.Targets = {Qubit};
    I.Cbit = static_cast<int>(Cbit);
    return I;
  }
  static CircuitInstr reset(unsigned Qubit) {
    CircuitInstr I;
    I.TheKind = Kind::Reset;
    I.Targets = {Qubit};
    return I;
  }

  std::string str() const;
};

/// Aggregate gate statistics used by the evaluation (§8.3).
struct CircuitStats {
  uint64_t Total = 0;
  uint64_t TCount = 0;        ///< T and Tdg gates.
  uint64_t CxCount = 0;       ///< Singly-controlled X.
  uint64_t CliffordCount = 0; ///< Non-T gates.
  uint64_t MeasureCount = 0;
  uint64_t MultiControlled = 0; ///< Gates with >= 2 controls (undecomposed).
  uint64_t TwoQubitCount = 0;   ///< Gates touching >= 2 qubits.
  uint64_t Depth = 0;           ///< Gate depth (qubit-conflict layering).
  uint64_t TDepth = 0;          ///< T-layer depth.
};

/// A flat quantum circuit over indexed qubits and classical bits.
struct Circuit {
  unsigned NumQubits = 0;
  unsigned NumBits = 0;
  std::vector<CircuitInstr> Instrs;
  /// Registers returned by the entry function (filled by flattening): qubit
  /// registers if it returns qubits, classical bits if it returns bits.
  std::vector<unsigned> OutputQubits;
  std::vector<int> OutputBits;
  /// Float-parameter names ($name placeholders) in declaration order;
  /// CircuitInstr::ParamIdx indexes here. Empty => fully concrete.
  std::vector<std::string> ParamNames;

  void append(CircuitInstr I) { Instrs.push_back(std::move(I)); }

  unsigned numParams() const { return ParamNames.size(); }
  bool isParametric() const { return !ParamNames.empty(); }
  /// The parameters as diagnostics name them: "$a, $b".
  std::string paramList() const;

  /// Computes gate statistics; rotation-style gates (P/RX/RY/RZ with
  /// non-Clifford angles) are counted as T-equivalents per the standard
  /// resource-estimation convention (each costs ~one magic-state layer).
  CircuitStats stats() const;

  /// Maximum number of qubits simultaneously alive (== NumQubits here;
  /// provided for API symmetry with the estimator).
  unsigned width() const { return NumQubits; }

  std::string str() const;
};

/// Returns a fully concrete copy of \p C with every symbolic angle bound to
/// \p Vals (parameter values in degrees, one per ParamNames entry). The
/// result has empty ParamNames and bitwise-matches the circuit that a
/// recompile with the literals substituted would produce.
Circuit bindCircuit(const Circuit &C, const std::vector<double> &Vals);

} // namespace asdf

#endif // ASDF_QCIRC_CIRCUIT_H
