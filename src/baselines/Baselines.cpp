//===- Baselines.cpp - Circuit-oriented baseline compilers (§8) -----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"

#include <array>
#include <cmath>
#include <set>

using namespace asdf;

const char *asdf::benchAlgorithmName(BenchAlgorithm A) {
  switch (A) {
  case BenchAlgorithm::BV:
    return "bv";
  case BenchAlgorithm::DJ:
    return "dj";
  case BenchAlgorithm::Grover:
    return "grover";
  case BenchAlgorithm::Simon:
    return "simon";
  case BenchAlgorithm::PeriodFinding:
    return "period";
  }
  return "?";
}

const char *asdf::baselineStyleName(BaselineStyle S) {
  switch (S) {
  case BaselineStyle::Qiskit:
    return "Qiskit";
  case BaselineStyle::Quipper:
    return "Quipper";
  case BaselineStyle::QSharp:
    return "Q#";
  }
  return "?";
}

unsigned asdf::groverIterations(unsigned N) {
  double Optimal = std::floor(M_PI / 4.0 * std::sqrt(std::pow(2.0, N)));
  return static_cast<unsigned>(std::min(Optimal, 12.0));
}

namespace {

/// Imperative circuit construction helper.
class CB {
public:
  Circuit C;

  unsigned alloc() { return C.NumQubits++; }
  /// Ancilla pool: `using` blocks in Q#/Qiskit reuse scratch registers.
  std::vector<unsigned> Pool;
  unsigned allocAncilla() {
    if (!Pool.empty()) {
      unsigned Q = Pool.back();
      Pool.pop_back();
      return Q;
    }
    return alloc();
  }
  void freeAncilla(unsigned Q) { Pool.push_back(Q); }
  std::vector<unsigned> allocN(unsigned N) {
    std::vector<unsigned> Qs;
    for (unsigned I = 0; I < N; ++I)
      Qs.push_back(alloc());
    return Qs;
  }
  unsigned measure(unsigned Q) {
    unsigned Bit = C.NumBits++;
    C.append(CircuitInstr::measure(Q, Bit));
    return Bit;
  }
  void g(GateKind K, std::vector<unsigned> Controls,
         std::vector<unsigned> Targets, double Param = 0.0) {
    C.append(CircuitInstr::gate(K, std::move(Controls), std::move(Targets),
                                Param));
  }
  void h(unsigned Q) { g(GateKind::H, {}, {Q}); }
  void x(unsigned Q) { g(GateKind::X, {}, {Q}); }
  void cx(unsigned Ctl, unsigned Tgt) { g(GateKind::X, {Ctl}, {Tgt}); }

  /// Full 7-T Toffoli.
  void ccx(unsigned C1, unsigned C2, unsigned T) {
    h(T);
    cx(C2, T);
    g(GateKind::Tdg, {}, {T});
    cx(C1, T);
    g(GateKind::T, {}, {T});
    cx(C2, T);
    g(GateKind::Tdg, {}, {T});
    cx(C1, T);
    g(GateKind::T, {}, {C2});
    g(GateKind::T, {}, {T});
    h(T);
    cx(C1, C2);
    g(GateKind::T, {}, {C1});
    g(GateKind::Tdg, {}, {C2});
    cx(C1, C2);
  }

  /// Margolus relative-phase Toffoli (4 T); self-adjoint gate list.
  void rccx(unsigned C1, unsigned C2, unsigned T) {
    h(T);
    g(GateKind::T, {}, {T});
    cx(C2, T);
    g(GateKind::Tdg, {}, {T});
    cx(C1, T);
    g(GateKind::T, {}, {T});
    cx(C2, T);
    g(GateKind::Tdg, {}, {T});
    h(T);
  }

  /// Multi-controlled X via an AND-ancilla chain. Selinger (Q#/Asdf) uses
  /// RCCX blocks; the others full Toffolis.
  void mcx(const std::vector<unsigned> &Controls, unsigned T,
           bool Selinger) {
    unsigned N = Controls.size();
    if (N == 0) {
      x(T);
      return;
    }
    if (N == 1) {
      cx(Controls[0], T);
      return;
    }
    if (N == 2) {
      ccx(Controls[0], Controls[1], T);
      return;
    }
    std::vector<unsigned> Ancillas;
    std::vector<std::array<unsigned, 3>> Steps;
    unsigned Prev = Controls[0];
    for (unsigned I = 1; I + 1 < N; ++I) {
      unsigned A = allocAncilla();
      Ancillas.push_back(A);
      Steps.push_back({Prev, Controls[I], A});
      if (Selinger)
        rccx(Prev, Controls[I], A);
      else
        ccx(Prev, Controls[I], A);
      Prev = A;
    }
    ccx(Prev, Controls[N - 1], T);
    for (auto It = Steps.rbegin(); It != Steps.rend(); ++It) {
      if (Selinger)
        rccx((*It)[0], (*It)[1], (*It)[2]);
      else
        ccx((*It)[0], (*It)[1], (*It)[2]);
    }
    for (unsigned A : Ancillas)
      freeAncilla(A);
  }

  /// Multi-controlled Z: H-conjugated MCX.
  void mcz(const std::vector<unsigned> &Controls, unsigned T,
           bool Selinger) {
    h(T);
    mcx(Controls, T, Selinger);
    h(T);
  }

  /// Inverse QFT on \p Qs. \p RenamingSwaps follows Quipper: omit SWAP
  /// gates and leave the bit-reversal to relabeling (the measurement order
  /// is permuted by the caller).
  void iqft(const std::vector<unsigned> &Qs, bool RenamingSwaps) {
    unsigned N = Qs.size();
    if (!RenamingSwaps)
      for (unsigned I = 0; I < N / 2; ++I)
        g(GateKind::Swap, {}, {Qs[I], Qs[N - 1 - I]});
    for (unsigned J = N; J-- > 0;) {
      // -pi / 2^(K-J); K - J reaches N - 1, past what a 64-bit shift holds.
      for (unsigned K = N; K-- > J + 1;)
        g(GateKind::P, {Qs[K]}, {Qs[J]}, -std::ldexp(M_PI, -int(K - J)));
      h(Qs[J]);
    }
  }
};

/// Oracle target preparation: |-> for phase kickback.
unsigned prepMinus(CB &B) {
  unsigned T = B.alloc();
  B.x(T);
  B.h(T);
  return T;
}

/// Quipper-style xor_reduce cone: an ancilla per intermediate XOR (§8.3).
/// Returns the wire carrying the XOR of \p Terms; ancillas are uncomputed
/// by \p Uncompute at the end.
unsigned quipperXorChain(CB &B, const std::vector<unsigned> &Terms,
                         std::vector<std::pair<unsigned, unsigned>> &Log) {
  unsigned Prev = Terms[0];
  for (unsigned I = 1; I < Terms.size(); ++I) {
    unsigned A = B.allocAncilla();
    B.cx(Prev, A);
    B.cx(Terms[I], A);
    Log.push_back({Prev, A});
    Log.push_back({Terms[I], A});
    Prev = A;
  }
  return Prev;
}

void uncomputeLog(CB &B,
                  const std::vector<std::pair<unsigned, unsigned>> &Log) {
  for (auto It = Log.rbegin(); It != Log.rend(); ++It)
    B.cx(It->first, It->second);
  // Each chain ancilla appears twice in the log; free each once.
  std::set<unsigned> Freed;
  for (const auto &[Src, Anc] : Log)
    if (Freed.insert(Anc).second)
      B.freeAncilla(Anc);
}

/// B-V / D-J: phase oracle for the inner product with \p Secret.
void innerProductOracle(CB &B, const std::vector<unsigned> &X,
                        const std::vector<bool> &Secret, unsigned Target,
                        BaselineStyle Style) {
  std::vector<unsigned> Terms;
  for (unsigned I = 0; I < X.size(); ++I)
    if (Secret[I])
      Terms.push_back(X[I]);
  if (Terms.empty())
    return;
  if (Style == BaselineStyle::Quipper) {
    std::vector<std::pair<unsigned, unsigned>> Log;
    unsigned Result = quipperXorChain(B, Terms, Log);
    B.cx(Result, Target);
    uncomputeLog(B, Log);
    return;
  }
  for (unsigned Q : Terms)
    B.cx(Q, Target);
}

Circuit buildBVLike(unsigned N, BaselineStyle Style,
                    const std::vector<bool> &Secret) {
  CB B;
  std::vector<unsigned> X = B.allocN(N);
  unsigned Target = prepMinus(B);
  for (unsigned Q : X)
    B.h(Q);
  innerProductOracle(B, X, Secret, Target, Style);
  for (unsigned Q : X)
    B.h(Q);
  // Unprepare the |-> ancilla.
  B.h(Target);
  B.x(Target);
  for (unsigned Q : X)
    B.measure(Q);
  return B.C;
}

Circuit buildGrover(unsigned N, BaselineStyle Style) {
  bool Selinger = Style == BaselineStyle::QSharp;
  CB B;
  std::vector<unsigned> X = B.allocN(N);
  for (unsigned Q : X)
    B.h(Q);
  unsigned Iters = groverIterations(N);
  for (unsigned It = 0; It < Iters; ++It) {
    // Oracle: flip the phase of |1...1> (MCZ on the register).
    std::vector<unsigned> Controls(X.begin(), X.end() - 1);
    B.mcz(Controls, X.back(), Selinger);
    // Diffuser.
    for (unsigned Q : X)
      B.h(Q);
    for (unsigned Q : X)
      B.x(Q);
    B.mcz(Controls, X.back(), Selinger);
    for (unsigned Q : X)
      B.x(Q);
    for (unsigned Q : X)
      B.h(Q);
  }
  for (unsigned Q : X)
    B.measure(Q);
  return B.C;
}

Circuit buildSimon(unsigned N, BaselineStyle Style) {
  // f(x) = x & mask with mask = 1...10 (secret s = 0...01).
  CB B;
  std::vector<unsigned> X = B.allocN(N);
  std::vector<unsigned> Y = B.allocN(N);
  for (unsigned Q : X)
    B.h(Q);
  if (Style == BaselineStyle::Quipper) {
    // Quipper routes each copied bit through an ancilla.
    for (unsigned I = 0; I + 1 < N; ++I) {
      unsigned A = B.allocAncilla();
      B.cx(X[I], A);
      B.cx(A, Y[I]);
      B.cx(X[I], A);
      B.freeAncilla(A);
    }
  } else {
    for (unsigned I = 0; I + 1 < N; ++I)
      B.cx(X[I], Y[I]);
  }
  for (unsigned Q : X)
    B.h(Q);
  for (unsigned Q : X)
    B.measure(Q);
  return B.C;
}

Circuit buildPeriod(unsigned N, BaselineStyle Style) {
  // QFT-based period finding with a bitmask oracle f(x) = x & mask.
  CB B;
  std::vector<unsigned> X = B.allocN(N);
  std::vector<unsigned> Y = B.allocN(N);
  for (unsigned Q : X)
    B.h(Q);
  if (Style == BaselineStyle::Quipper) {
    for (unsigned I = 0; I + 1 < N; ++I) {
      unsigned A = B.allocAncilla();
      B.cx(X[I], A);
      B.cx(A, Y[I]);
      B.cx(X[I], A);
      B.freeAncilla(A);
    }
  } else {
    for (unsigned I = 0; I + 1 < N; ++I)
      B.cx(X[I], Y[I]);
  }
  B.iqft(X, /*RenamingSwaps=*/Style == BaselineStyle::Quipper);
  if (Style == BaselineStyle::Quipper)
    for (auto It = X.rbegin(); It != X.rend(); ++It)
      B.measure(*It);
  else
    for (unsigned Q : X)
      B.measure(Q);
  return B.C;
}

} // namespace

Circuit asdf::buildBaselineCircuit(BenchAlgorithm Alg, BaselineStyle Style,
                                   unsigned N) {
  switch (Alg) {
  case BenchAlgorithm::BV: {
    std::vector<bool> Secret;
    for (unsigned I = 0; I < N; ++I)
      Secret.push_back(I % 2 == 0); // 1010...
    return buildBVLike(N, Style, Secret);
  }
  case BenchAlgorithm::DJ: {
    std::vector<bool> Secret(N, true); // Balanced: XOR of all bits.
    return buildBVLike(N, Style, Secret);
  }
  case BenchAlgorithm::Grover:
    return buildGrover(N, Style);
  case BenchAlgorithm::Simon:
    return buildSimon(N, Style);
  case BenchAlgorithm::PeriodFinding:
    return buildPeriod(N, Style);
  }
  return Circuit();
}

//===----------------------------------------------------------------------===//
// The common -O3-style transpiler pass
//===----------------------------------------------------------------------===//

namespace {

/// P(2πk) is the identity. RX/RY/RZ(2πk) is -I: a global phase when
/// uncontrolled, but a Z on the controls when controlled, so a controlled
/// rotation is the identity only at 4πk.
bool isIdentityRotation(const CircuitInstr &I) {
  if (I.TheKind != CircuitInstr::Kind::Gate || !isParamGate(I.Gate) ||
      I.isSymbolic())
    return false;
  double Period =
      I.Gate == GateKind::P || I.Controls.empty() ? 2 * M_PI : 4 * M_PI;
  return std::abs(std::remainder(I.Param, Period)) < 1e-12;
}

} // namespace

Circuit asdf::transpileO3(const Circuit &C) {
  using Kind = CircuitInstr::Kind;
  Circuit Out = C;
  std::vector<CircuitInstr> &Is = Out.Instrs;
  std::vector<bool> Dead(Is.size(), false);
  // Each qubit's live instructions, latest on top.
  std::vector<std::vector<unsigned>> Live(C.NumQubits);
  // Position of the latest measurement into each classical bit.
  std::vector<int> LastWrite(C.NumBits, -1);
  auto Wires = [&](unsigned I) {
    std::vector<unsigned> W = Is[I].Controls;
    W.insert(W.end(), Is[I].Targets.begin(), Is[I].Targets.end());
    return W;
  };
  // Drops live instruction I, exposing the one beneath it on each wire.
  auto Pop = [&](unsigned I) {
    Dead[I] = true;
    for (unsigned Q : Wires(I))
      Live[Q].pop_back();
  };
  for (unsigned J = 0; J < Is.size(); ++J) {
    CircuitInstr &B = Is[J];
    if (isIdentityRotation(B)) {
      Dead[J] = true;
      continue;
    }
    if (B.TheKind == Kind::Measure)
      LastWrite[B.Cbit] = static_cast<int>(J);
    // B's partner is the instruction on top of every one of its wires (J
    // means none). It must be a gate on the same wires under the same
    // condition, with no measurement into the condition bit in between.
    std::vector<unsigned> W = Wires(J);
    unsigned P = Live[W[0]].empty() ? J : Live[W[0]].back();
    for (unsigned Q : W)
      if (Live[Q].empty() || Live[Q].back() != P)
        P = J;
    CircuitInstr &A = Is[P];
    bool Paired = P != J && A.TheKind == Kind::Gate &&
                  B.TheKind == Kind::Gate && A.Controls == B.Controls &&
                  A.Targets == B.Targets && A.CondBit == B.CondBit &&
                  A.CondVal == B.CondVal &&
                  (B.CondBit < 0 || LastWrite[B.CondBit] < int(P));
    bool Concrete = !A.isSymbolic() && !B.isSymbolic();
    if (Paired && adjointGateKind(A.Gate) == B.Gate &&
        (!isParamGate(A.Gate) ||
         (Concrete && std::abs(A.Param + B.Param) < 1e-12))) {
      Dead[J] = true;
      Pop(P);
      continue;
    }
    if (Paired && isParamGate(A.Gate) && A.Gate == B.Gate && Concrete) {
      A.Param += B.Param;
      Dead[J] = true;
      if (isIdentityRotation(A))
        Pop(P);
      continue;
    }
    for (unsigned Q : W)
      Live[Q].push_back(J);
  }
  std::vector<CircuitInstr> Kept;
  for (unsigned I = 0; I < Is.size(); ++I)
    if (!Dead[I])
      Kept.push_back(std::move(Is[I]));
  Is = std::move(Kept);
  return Out;
}
