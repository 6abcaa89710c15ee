//===- BasisSynth.cpp - Basis translation circuit synthesis (§6.3) --------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/BasisSynth.h"

#include "basis/SpanCheck.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

using namespace asdf;

//===----------------------------------------------------------------------===//
// Algorithm E6: standardization determination
//===----------------------------------------------------------------------===//

namespace {

/// Deque entry for Algorithm E6: a (possibly padding) primitive-basis run.
struct E6Elt {
  bool Padding = false;
  PrimitiveBasis Prim = PrimitiveBasis::Std;
  unsigned Dim = 0;
};

std::deque<E6Elt> e6Deque(const Basis &B) {
  std::deque<E6Elt> D;
  for (const BasisElement &El : B.elements()) {
    E6Elt E;
    E.Padding = El.isPadding();
    if (!E.Padding)
      E.Prim = El.prim();
    E.Dim = El.dim();
    D.push_back(E);
  }
  return D;
}

} // namespace

void asdf::determineStandardizations(const Basis &BIn, const Basis &BOut,
                                     std::vector<Standardization> &LStd,
                                     std::vector<Standardization> &RStd) {
  LStd.clear();
  RStd.clear();
  std::deque<E6Elt> LDeque = e6Deque(BIn);
  std::deque<E6Elt> RDeque = e6Deque(BOut);
  unsigned LOff = 0, ROff = 0;

  auto Append = [](std::vector<Standardization> &List, unsigned &Off,
                   PrimitiveBasis Prim, unsigned Dim, bool Cond) {
    List.push_back({Prim, Off, Dim, Cond});
    Off += Dim;
  };

  while (!LDeque.empty() && !RDeque.empty()) {
    E6Elt L = LDeque.front();
    LDeque.pop_front();
    E6Elt R = RDeque.front();
    RDeque.pop_front();

    // Lines 7-10: conditionality.
    bool Cond = L.Padding || R.Padding || L.Prim != R.Prim;

    if (L.Dim == R.Dim) {
      // Lines 11-15.
      if (!L.Padding)
        Append(LStd, LOff, L.Prim, L.Dim, Cond);
      if (!R.Padding)
        Append(RStd, ROff, R.Prim, R.Dim, Cond);
      continue;
    }

    // Lines 16-30: split the bigger element.
    bool LeftIsBig = L.Dim > R.Dim;
    E6Elt &Big = LeftIsBig ? L : R;
    E6Elt &Small = LeftIsBig ? R : L;
    std::vector<Standardization> &BigStd = LeftIsBig ? LStd : RStd;
    std::vector<Standardization> &SmallStd = LeftIsBig ? RStd : LStd;
    unsigned &BigOff = LeftIsBig ? LOff : ROff;
    unsigned &SmallOff = LeftIsBig ? ROff : LOff;
    std::deque<E6Elt> &BigDeque = LeftIsBig ? LDeque : RDeque;
    unsigned Delta = Big.Dim - Small.Dim;

    bool BigSeparable =
        !Big.Padding && Big.Prim != PrimitiveBasis::Fourier;
    if (BigSeparable || Big.Padding) {
      // Lines 20-24 (padding splits freely too).
      if (!Small.Padding)
        Append(SmallStd, SmallOff, Small.Prim, Small.Dim, Cond);
      if (!Big.Padding)
        Append(BigStd, BigOff, Big.Prim, Small.Dim, Cond);
      E6Elt Rest = Big;
      Rest.Dim = Delta;
      BigDeque.push_front(Rest);
      continue;
    }
    // Lines 25-30: the bigger element is an inseparable fourier basis.
    if (!Small.Padding)
      Append(SmallStd, SmallOff, Small.Prim, Small.Dim,
             /*Cond=*/true);
    Append(BigStd, BigOff, Big.Prim, Big.Dim, /*Cond=*/true);
    E6Elt Pad;
    Pad.Padding = true;
    Pad.Dim = Delta;
    BigDeque.push_front(Pad);
  }
  assert(LDeque.empty() && RDeque.empty() &&
         "dimension mismatch in well-typed translation");
}

//===----------------------------------------------------------------------===//
// Alignment (Appendix F)
//===----------------------------------------------------------------------===//

Basis asdf::standardizedBasis(const Basis &B) {
  std::vector<BasisElement> Out;
  for (const BasisElement &El : B.elements()) {
    if (El.isBuiltin()) {
      Out.push_back(BasisElement::builtin(PrimitiveBasis::Std, El.dim()));
      continue;
    }
    BasisLiteral Lit = El.literalValue();
    Lit.Prim = PrimitiveBasis::Std;
    for (BasisVector &V : Lit.Vectors) {
      V.Prim = PrimitiveBasis::Std;
      V = V.withoutPhase();
    }
    Out.push_back(BasisElement::literal(std::move(Lit)));
  }
  return Basis(std::move(Out));
}

namespace {

/// Converts a std builtin element to its literal with vectors in canonical
/// ascending order (the order convention for built-in bases).
BasisLiteral orderedLiteral(const BasisElement &El) {
  if (El.isLiteral())
    return El.literalValue();
  return builtinToLiteral(PrimitiveBasis::Std, El.dim());
}

/// Pairing-preserving factoring: tries to split \p Lit into Prefix (x)
/// Suffix with |Prefix| vectors of PrefixDim qubits such that
/// Lit[i] == Prefix[i / |Suffix|] + Suffix[i % |Suffix|] (vector order
/// respected, unlike the span-only factorLiteralAt).
std::optional<std::pair<BasisLiteral, BasisLiteral>>
factorOrdered(const BasisLiteral &Lit, unsigned PrefixDim) {
  unsigned SuffixDim = Lit.Dim - PrefixDim;
  // Discover prefix order (first appearance) and suffix order (within the
  // first prefix group).
  std::vector<EigenBits> Prefixes, Suffixes;
  for (const BasisVector &V : Lit.Vectors) {
    EigenBits P = bitPrefix(V.Eigenbits, Lit.Dim, PrefixDim);
    if (Prefixes.empty() || Prefixes.back() != P) {
      if (std::find(Prefixes.begin(), Prefixes.end(), P) != Prefixes.end())
        return std::nullopt; // Prefix groups must be contiguous.
      Prefixes.push_back(P);
    }
    if (Prefixes.size() == 1)
      Suffixes.push_back(bitSuffix(V.Eigenbits, SuffixDim));
  }
  uint64_t S = Suffixes.size();
  if (S == 0 || Prefixes.size() * S != Lit.Vectors.size())
    return std::nullopt;
  for (unsigned I = 0; I < Lit.Vectors.size(); ++I) {
    EigenBits Expect =
        bitConcat(Prefixes[I / S], Suffixes[I % S], SuffixDim);
    if (Lit.Vectors[I].Eigenbits != Expect)
      return std::nullopt;
  }
  std::vector<BasisVector> PV, SV;
  for (EigenBits P : Prefixes)
    PV.push_back(BasisVector(Lit.Prim, PrefixDim, P));
  for (EigenBits SBits : Suffixes)
    SV.push_back(BasisVector(Lit.Prim, SuffixDim, SBits));
  return std::make_pair(BasisLiteral(std::move(PV)),
                        BasisLiteral(std::move(SV)));
}

} // namespace

std::vector<AlignedPair> asdf::alignTranslation(const Basis &In,
                                                const Basis &Out) {
  std::deque<BasisElement> LDeque(In.elements().begin(), In.elements().end());
  std::deque<BasisElement> RDeque(Out.elements().begin(),
                                  Out.elements().end());
  std::vector<AlignedPair> Pairs;
  unsigned Offset = 0;

  while (!LDeque.empty() && !RDeque.empty()) {
    BasisElement L = LDeque.front();
    LDeque.pop_front();
    BasisElement R = RDeque.front();
    RDeque.pop_front();

    if (L.dim() == R.dim()) {
      // Lines 7-13 of Algorithm E7.
      if (L.isBuiltin() && R.isBuiltin()) {
        // std[N] >> std[N]: identity; skip.
        Offset += L.dim();
        continue;
      }
      AlignedPair P;
      P.Offset = Offset;
      P.In = orderedLiteral(L);
      P.Out = orderedLiteral(R);
      P.Identical = P.In == P.Out;
      if (!(P.Identical && P.In.fullySpans()))
        Pairs.push_back(std::move(P));
      Offset += L.dim();
      continue;
    }

    bool LeftIsBig = L.dim() > R.dim();
    BasisElement &Big = LeftIsBig ? L : R;
    BasisElement &Small = LeftIsBig ? R : L;
    std::deque<BasisElement> &BigDeque = LeftIsBig ? LDeque : RDeque;
    std::deque<BasisElement> &SmallDeque = LeftIsBig ? RDeque : LDeque;
    unsigned Delta = Big.dim() - Small.dim();

    if (Big.isBuiltin()) {
      // Lines 17-24: peel std[dim small] off the builtin (the product
      // order of a builtin makes this pairing-safe).
      BasisElement Factor =
          BasisElement::builtin(PrimitiveBasis::Std, Small.dim());
      BigDeque.push_front(
          BasisElement::builtin(PrimitiveBasis::Std, Delta));
      AlignedPair P;
      P.Offset = Offset;
      P.In = orderedLiteral(LeftIsBig ? Factor : Small);
      P.Out = orderedLiteral(LeftIsBig ? Small : Factor);
      P.Identical = P.In == P.Out;
      if (!(P.Identical && P.In.fullySpans()))
        Pairs.push_back(std::move(P));
      Offset += Small.dim();
      continue;
    }

    // Lines 25-30: try to factor a small-dim prefix off the big literal,
    // preserving the vector pairing.
    std::optional<std::pair<BasisLiteral, BasisLiteral>> Fac =
        factorOrdered(Big.literalValue(), Small.dim());
    if (Fac) {
      BigDeque.push_front(BasisElement::literal(Fac->second));
      AlignedPair P;
      P.Offset = Offset;
      BasisLiteral SmallLit = orderedLiteral(Small);
      P.In = LeftIsBig ? Fac->first : SmallLit;
      P.Out = LeftIsBig ? SmallLit : Fac->first;
      P.Identical = P.In == P.Out;
      if (!(P.Identical && P.In.fullySpans()))
        Pairs.push_back(std::move(P));
      Offset += Small.dim();
      continue;
    }

    // Lines 31-34: merge until dimensions line up (merging preserves the
    // written tensor-product vector order).
    assert(!SmallDeque.empty() && "translation dims disagree");
    BasisElement Next = SmallDeque.front();
    SmallDeque.pop_front();
    BasisElement Merged = BasisElement::literal(mergeElements(Small, Next));
    SmallDeque.push_front(Merged);
    BigDeque.push_front(Big);
  }
  assert(LDeque.empty() && RDeque.empty());
  return Pairs;
}

//===----------------------------------------------------------------------===//
// Transformation-based synthesis (Miller–Maslov–Dueck)
//===----------------------------------------------------------------------===//

std::vector<McxGate> asdf::synthesizePermutation(
    const std::vector<uint64_t> &Perm, unsigned NumBits) {
  assert(NumBits <= 24 && "permutation synthesis width limit");
  uint64_t Size = uint64_t(1) << NumBits;
  assert(Perm.size() == Size && "permutation table size mismatch");
  std::vector<uint64_t> F = Perm;
  std::vector<McxGate> Collected;

  // Applies an MCX to the *output* side of F.
  auto Apply = [&](uint64_t ControlMask, unsigned TargetBit) {
    Collected.push_back({ControlMask, TargetBit});
    uint64_t Bit = uint64_t(1) << TargetBit;
    for (uint64_t X = 0; X < Size; ++X)
      if ((F[X] & ControlMask) == ControlMask)
        F[X] ^= Bit;
  };

  for (uint64_t I = 0; I < Size; ++I) {
    uint64_t Y = F[I];
    if (Y == I)
      continue;
    // (a) Set the bits of I missing from Y; controls are the 1-bits of the
    // current image (all >= I, so earlier rows are untouched).
    uint64_t P = I & ~Y;
    for (unsigned K = 0; K < NumBits; ++K)
      if (P & (uint64_t(1) << K)) {
        Apply(F[I], K);
      }
    // (b) Clear the bits of the image not present in I; controls are the
    // 1-bits of I.
    uint64_t Q = F[I] & ~I;
    for (unsigned K = 0; K < NumBits; ++K)
      if (Q & (uint64_t(1) << K))
        Apply(I, K);
    assert(F[I] == I && "MMD row not fixed");
  }

  // F = g_1 o g_2 o ... o g_m, so the circuit applies them in reverse
  // collection order.
  std::reverse(Collected.begin(), Collected.end());
  return Collected;
}

//===----------------------------------------------------------------------===//
// Gate-level emission
//===----------------------------------------------------------------------===//

void asdf::emitQFT(GateEmitter &E, unsigned Offset, unsigned Dim,
                   bool Inverse, const std::vector<ControlSpec> &Controls) {
  // Forward QFT gate list (applied in order); inverse reverses it with
  // negated angles.
  struct Step {
    enum class K { H, CP, Swap } Kind;
    unsigned A = 0, B = 0;
    double Theta = 0.0;
  };
  std::vector<Step> Steps;
  for (unsigned J = 0; J < Dim; ++J) {
    Steps.push_back({Step::K::H, Offset + J, 0, 0.0});
    // pi / 2^(K-J); K - J reaches Dim - 1, past what a 64-bit shift holds.
    for (unsigned K = J + 1; K < Dim; ++K)
      Steps.push_back({Step::K::CP, Offset + K, Offset + J,
                       std::ldexp(M_PI, -int(K - J))});
  }
  for (unsigned I = 0; I < Dim / 2; ++I)
    Steps.push_back({Step::K::Swap, Offset + I, Offset + Dim - 1 - I, 0.0});

  if (Inverse)
    std::reverse(Steps.begin(), Steps.end());
  for (const Step &S : Steps) {
    switch (S.Kind) {
    case Step::K::H:
      E.gateCtl(GateKind::H, Controls, {S.A});
      break;
    case Step::K::CP: {
      std::vector<ControlSpec> C = Controls;
      C.push_back(ControlSpec(S.A));
      E.gateCtl(GateKind::P, C, {S.B}, Inverse ? -S.Theta : S.Theta);
      break;
    }
    case Step::K::Swap:
      E.gateCtl(GateKind::Swap, Controls, {S.A, S.B});
      break;
    }
  }
}

void asdf::emitStandardizePrim(GateEmitter &E, PrimitiveBasis Prim,
                               unsigned Offset, unsigned Dim, bool ToStd,
                               const std::vector<ControlSpec> &Controls) {
  switch (Prim) {
  case PrimitiveBasis::Std:
    return;
  case PrimitiveBasis::Pm:
    // |+>/|-> <-> |0>/|1> via H.
    for (unsigned I = 0; I < Dim; ++I)
      E.gateCtl(GateKind::H, Controls, {Offset + I});
    return;
  case PrimitiveBasis::Ij:
    // |i> = S H |0>, so ij->std is H Sdg (Sdg first), std->ij is H then S.
    for (unsigned I = 0; I < Dim; ++I) {
      if (ToStd) {
        E.gateCtl(GateKind::Sdg, Controls, {Offset + I});
        E.gateCtl(GateKind::H, Controls, {Offset + I});
      } else {
        E.gateCtl(GateKind::H, Controls, {Offset + I});
        E.gateCtl(GateKind::S, Controls, {Offset + I});
      }
    }
    return;
  case PrimitiveBasis::Fourier:
    // fourier->std is the inverse QFT (§6.3).
    emitQFT(E, Offset, Dim, /*Inverse=*/ToStd, Controls);
    return;
  }
}

void asdf::emitPhaseOnPattern(GateEmitter &E, unsigned Offset, unsigned Dim,
                              EigenBits Eigenbits, double Theta,
                              const std::vector<ControlSpec> &Controls) {
  if (std::abs(Theta) < 1e-12)
    return;
  // The last qubit of the pattern is the P target; the rest are controls
  // with polarity from the eigenbits. A 0-bit target is X-conjugated.
  std::vector<ControlSpec> C = Controls;
  for (unsigned I = 0; I + 1 < Dim; ++I)
    C.push_back(ControlSpec(Offset + I, !bitAt(Eigenbits, Dim, I)));
  unsigned Target = Offset + Dim - 1;
  bool TargetOne = bitAt(Eigenbits, Dim, Dim - 1);
  if (!TargetOne)
    E.gate(GateKind::X, {}, {Target});
  E.gateCtl(GateKind::P, C, {Target}, Theta);
  if (!TargetOne)
    E.gate(GateKind::X, {}, {Target});
}

//===----------------------------------------------------------------------===//
// Full translation synthesis (Fig. 6)
//===----------------------------------------------------------------------===//

namespace {

/// A vector phase occurrence: (element index, offset, dim, eigenbits, theta).
struct PhaseEntry {
  unsigned ElementIndex;
  unsigned Offset;
  unsigned Dim;
  EigenBits Eigenbits;
  double Theta;
};

std::vector<PhaseEntry> collectPhases(const Basis &B) {
  std::vector<PhaseEntry> Out;
  unsigned Offset = 0;
  for (unsigned EI = 0; EI < B.elements().size(); ++EI) {
    const BasisElement &El = B.elements()[EI];
    if (El.isLiteral())
      for (const BasisVector &V : El.literalValue().Vectors)
        if (V.HasPhase && std::abs(V.Phase) > 1e-12)
          Out.push_back({EI, Offset, El.dim(), V.Eigenbits, V.Phase});
    Offset += El.dim();
  }
  return Out;
}

/// A predicate control group derived from one identical aligned pair.
struct PredGroup {
  unsigned Offset;
  unsigned Dim;
  std::vector<ControlSpec> Controls;
  /// Indicator ancilla bookkeeping for multi-vector predicates.
  bool HasIndicator = false;
  unsigned IndicatorWire = 0;
  BasisLiteral Literal;
};

} // namespace

bool asdf::synthesizeTranslation(GateEmitter &E, const Basis &In,
                                 const Basis &Out) {
  assert(In.dim() == Out.dim() && "translation dimension mismatch");

  // Nothing to do for a literally identical translation.
  if (In == Out)
    return true;

  // Algorithm E6: which qubits need (de)standardization, and whether each
  // run must be conditioned on the predicates.
  std::vector<Standardization> LStd, RStd;
  determineStandardizations(In, Out, LStd, RStd);

  // Appendix F: align the standardized bases into literal pairs.
  std::vector<AlignedPair> Pairs =
      alignTranslation(standardizedBasis(In), standardizedBasis(Out));

  std::vector<PhaseEntry> LeftPhases = collectPhases(In);
  std::vector<PhaseEntry> RightPhases = collectPhases(Out);

  bool AnyCondStd =
      std::any_of(LStd.begin(), LStd.end(),
                  [](const Standardization &S) {
                    return S.Conditional && S.Prim != PrimitiveBasis::Std;
                  }) ||
      std::any_of(RStd.begin(), RStd.end(), [](const Standardization &S) {
        return S.Conditional && S.Prim != PrimitiveBasis::Std;
      });
  bool AnyActive = std::any_of(
      Pairs.begin(), Pairs.end(),
      [](const AlignedPair &P) { return !P.Identical; });
  bool NeedPredicates =
      AnyCondStd || AnyActive || !LeftPhases.empty() || !RightPhases.empty();

  // 1. Unconditional standardizations.
  for (const Standardization &S : LStd)
    if (!S.Conditional)
      emitStandardizePrim(E, S.Prim, S.Offset, S.Dim, /*ToStd=*/true, {});

  // 2. Predicate controls (identical aligned pairs). Singleton predicates
  // control directly on their qubits; multi-vector predicates compute a
  // span-membership indicator ancilla.
  std::vector<PredGroup> Preds;
  std::vector<ControlSpec> AllPredControls;
  std::map<unsigned, unsigned> PredOffsets; // offset -> index in Preds
  if (NeedPredicates) {
    for (const AlignedPair &P : Pairs) {
      if (!P.Identical)
        continue;
      PredGroup G;
      G.Offset = P.Offset;
      G.Dim = P.In.Dim;
      G.Literal = P.In;
      if (P.In.Vectors.size() == 1) {
        EigenBits Bits = P.In.Vectors.front().Eigenbits;
        for (unsigned I = 0; I < P.In.Dim; ++I)
          G.Controls.push_back(
              ControlSpec(P.Offset + I, !bitAt(Bits, P.In.Dim, I)));
      } else {
        // Indicator = OR over orthogonal vector patterns (at most one can
        // match, so XOR accumulation is exact).
        G.HasIndicator = true;
        G.IndicatorWire = E.allocAncilla();
        for (const BasisVector &V : P.In.Vectors) {
          std::vector<ControlSpec> C;
          for (unsigned I = 0; I < P.In.Dim; ++I)
            C.push_back(
                ControlSpec(P.Offset + I, !bitAt(V.Eigenbits, P.In.Dim, I)));
          E.gateCtl(GateKind::X, C, {G.IndicatorWire});
        }
        G.Controls.push_back(ControlSpec(G.IndicatorWire));
      }
      AllPredControls.insert(AllPredControls.end(), G.Controls.begin(),
                             G.Controls.end());
      PredOffsets[G.Offset] = Preds.size();
      Preds.push_back(std::move(G));
    }
  }

  /// Controls for an emission belonging to element range [Offset,
  /// Offset+Dim): all predicate controls except a predicate group covering
  /// that very range (a predicate's own phases are not self-controlled).
  auto ControlsExcluding = [&](unsigned Offset) {
    std::vector<ControlSpec> C;
    for (const PredGroup &G : Preds)
      if (G.Offset != Offset)
        C.insert(C.end(), G.Controls.begin(), G.Controls.end());
    return C;
  };

  // 3. Conditional standardizations, controlled on the predicates.
  for (const Standardization &S : LStd)
    if (S.Conditional)
      emitStandardizePrim(E, S.Prim, S.Offset, S.Dim, /*ToStd=*/true,
                          AllPredControls);

  // 4. Left vector phases: translate std-with-phases to plain std.
  for (const PhaseEntry &P : LeftPhases)
    emitPhaseOnPattern(E, P.Offset, P.Dim, P.Eigenbits, -P.Theta,
                       ControlsExcluding(P.Offset));

  // 5. Permutation of std basis vectors, per aligned pair (Fig. 9).
  //
  // Element-wise synthesis is only faithful to the §2.2 semantics (identity
  // on the orthogonal complement of span(b_in)) when at most one active
  // pair is partial-span, or every active pair fully spans. Otherwise the
  // active pairs are synthesized *jointly* over the union of their qubits.
  // (The paper's Fig. 9 synthesizes element-wise regardless, which acts
  // nontrivially on the complement; we keep the stricter semantics.)
  std::vector<const AlignedPair *> Active;
  unsigned PartialActive = 0;
  for (const AlignedPair &P : Pairs) {
    if (P.Identical)
      continue;
    Active.push_back(&P);
    if (!P.In.fullySpans())
      ++PartialActive;
  }

  // Emits one permutation over an explicit wire list (wire 0 = leftmost).
  auto EmitPerm = [&](const std::vector<uint64_t> &Perm,
                      const std::vector<unsigned> &Wires,
                      const std::vector<ControlSpec> &Extra) {
    unsigned D = Wires.size();
    std::vector<McxGate> Gates = synthesizePermutation(Perm, D);
    for (const McxGate &G : Gates) {
      std::vector<ControlSpec> C = Extra;
      for (unsigned K = 0; K < D; ++K)
        if (G.ControlMask & (uint64_t(1) << K))
          C.push_back(ControlSpec(Wires[D - 1 - K]));
      E.gateCtl(GateKind::X, C, {Wires[D - 1 - G.Target]});
    }
  };

  if (Active.size() <= 1 || PartialActive == 0) {
    for (const AlignedPair *P : Active) {
      unsigned D = P->In.Dim;
      if (D > 24)
        return false;
      uint64_t Size = uint64_t(1) << D;
      std::vector<uint64_t> Perm(Size);
      for (uint64_t X = 0; X < Size; ++X)
        Perm[X] = X;
      for (unsigned I = 0; I < P->In.Vectors.size(); ++I)
        Perm[uint64_t(P->In.Vectors[I].Eigenbits)] =
            uint64_t(P->Out.Vectors[I].Eigenbits);
      std::vector<unsigned> Wires;
      for (unsigned I = 0; I < D; ++I)
        Wires.push_back(P->Offset + I);
      EmitPerm(Perm, Wires, ControlsExcluding(P->Offset));
    }
  } else {
    // Joint synthesis: enumerate the product of the active pairs' vector
    // lists (element-major) over the concatenation of their qubit ranges.
    unsigned TotalDim = 0;
    uint64_t Count = 1;
    std::vector<unsigned> Wires;
    for (const AlignedPair *P : Active) {
      TotalDim += P->In.Dim;
      Count *= P->In.Vectors.size();
      for (unsigned I = 0; I < P->In.Dim; ++I)
        Wires.push_back(P->Offset + I);
    }
    if (TotalDim > 24)
      return false;
    uint64_t Size = uint64_t(1) << TotalDim;
    std::vector<uint64_t> Perm(Size);
    for (uint64_t X = 0; X < Size; ++X)
      Perm[X] = X;
    // Strides for element-major enumeration (first pair varies slowest) and
    // left-to-right bit placement.
    std::vector<uint64_t> Stride(Active.size(), 1);
    std::vector<unsigned> Shift(Active.size(), 0);
    {
      uint64_t S = 1;
      for (unsigned K = Active.size(); K-- > 0;) {
        Stride[K] = S;
        S *= Active[K]->In.Vectors.size();
      }
      unsigned Used = 0;
      for (unsigned K = 0; K < Active.size(); ++K) {
        Used += Active[K]->In.Dim;
        Shift[K] = TotalDim - Used;
      }
    }
    for (uint64_t J = 0; J < Count; ++J) {
      uint64_t InBits = 0, OutBits = 0;
      for (unsigned K = 0; K < Active.size(); ++K) {
        uint64_t Idx = (J / Stride[K]) % Active[K]->In.Vectors.size();
        InBits |= uint64_t(Active[K]->In.Vectors[Idx].Eigenbits) << Shift[K];
        OutBits |= uint64_t(Active[K]->Out.Vectors[Idx].Eigenbits) << Shift[K];
      }
      Perm[InBits] = OutBits;
    }
    EmitPerm(Perm, Wires, {});
  }

  // 6. Right vector phases: reintroduce the output phases.
  for (const PhaseEntry &P : RightPhases)
    emitPhaseOnPattern(E, P.Offset, P.Dim, P.Eigenbits, P.Theta,
                       ControlsExcluding(P.Offset));

  // 7. Conditional destandardizations.
  for (const Standardization &S : RStd)
    if (S.Conditional)
      emitStandardizePrim(E, S.Prim, S.Offset, S.Dim, /*ToStd=*/false,
                          AllPredControls);

  // 8. Uncompute predicate indicator ancillas (reverse order).
  for (auto It = Preds.rbegin(); It != Preds.rend(); ++It) {
    if (!It->HasIndicator)
      continue;
    for (const BasisVector &V : It->Literal.Vectors) {
      std::vector<ControlSpec> C;
      for (unsigned I = 0; I < It->Dim; ++I)
        C.push_back(
            ControlSpec(It->Offset + I, !bitAt(V.Eigenbits, It->Dim, I)));
      E.gateCtl(GateKind::X, C, {It->IndicatorWire});
    }
    E.freeAncillaZ(It->IndicatorWire);
  }

  // 9. Unconditional destandardizations.
  for (const Standardization &S : RStd)
    if (!S.Conditional)
      emitStandardizePrim(E, S.Prim, S.Offset, S.Dim, /*ToStd=*/false, {});

  return true;
}
