//===- StabilizerBackend.cpp - CHP tableau engine -------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StabilizerBackend.h"

#include "noise/NoiseModel.h"
#include "noise/PauliFrame.h"
#include "sim/CircuitAnalysis.h"

#include <cassert>
#include <optional>

using namespace asdf;

Tableau::Tableau(unsigned NumQubits)
    : N(NumQubits), Words((NumQubits + 63) / 64) {
  if (Words == 0)
    Words = 1;
  size_t Rows = 2 * size_t(N);
  X.assign(Rows * Words, 0);
  Z.assign(Rows * Words, 0);
  R.assign(Rows, 0);
  // |0...0> is stabilized by {Z_i}; the matching destabilizers are {X_i}.
  for (unsigned I = 0; I < N; ++I) {
    xRow(I)[I >> 6] |= uint64_t(1) << (I & 63);
    zRow(N + I)[I >> 6] |= uint64_t(1) << (I & 63);
  }
}

//===----------------------------------------------------------------------===//
// Row algebra
//===----------------------------------------------------------------------===//

namespace {

/// Power-of-i exponent (signed) of the qubit-wise sign corrections in the
/// Pauli product rowH * rowI, computed word-parallel. Encoding per qubit:
/// X=(x=1,z=0), Y=(1,1), Z=(0,1). The cyclic products XY=iZ, YZ=iX, ZX=iY
/// contribute +1; their transposes contribute -1.
int productPhase(const uint64_t *Xh, const uint64_t *Zh, const uint64_t *Xi,
                 const uint64_t *Zi, unsigned Words) {
  int E = 0;
  for (unsigned W = 0; W < Words; ++W) {
    uint64_t Xa = Xh[W], Za = Zh[W], Xb = Xi[W], Zb = Zi[W];
    uint64_t Plus = (Xa & ~Za & Xb & Zb)    // X * Y = iZ
                    | (Xa & Za & ~Xb & Zb)  // Y * Z = iX
                    | (~Xa & Za & Xb & ~Zb); // Z * X = iY
    uint64_t Minus = (Xa & ~Za & ~Xb & Zb)  // X * Z = -iY
                     | (Xa & Za & Xb & ~Zb) // Y * X = -iZ
                     | (~Xa & Za & Xb & Zb); // Z * Y = -iX
    E += __builtin_popcountll(Plus) - __builtin_popcountll(Minus);
  }
  return E;
}

} // namespace

void Tableau::rowMult(unsigned H, unsigned I) {
  int Total =
      productPhase(xRow(H), zRow(H), xRow(I), zRow(I), Words) + 2 * R[H] +
      2 * R[I];
  Total %= 4;
  if (Total < 0)
    Total += 4;
  // Stabilizer-row products always land on 0 or 2 (commuting rows).
  // Destabilizer rows may anticommute with the multiplier (odd Total);
  // their signs are never observed, so rounding down is safe (AG §III).
  R[H] = Total >> 1;
  uint64_t *XhW = xRow(H), *ZhW = zRow(H);
  const uint64_t *XiW = xRow(I), *ZiW = zRow(I);
  for (unsigned W = 0; W < Words; ++W) {
    XhW[W] ^= XiW[W];
    ZhW[W] ^= ZiW[W];
  }
}

void Tableau::rowCopy(unsigned H, unsigned I) {
  std::copy(xRow(I), xRow(I) + Words, xRow(H));
  std::copy(zRow(I), zRow(I) + Words, zRow(H));
  R[H] = R[I];
}

void Tableau::rowSetZ(unsigned H, unsigned Q) {
  std::fill(xRow(H), xRow(H) + Words, 0);
  std::fill(zRow(H), zRow(H) + Words, 0);
  zRow(H)[Q >> 6] |= uint64_t(1) << (Q & 63);
  R[H] = 0;
}

//===----------------------------------------------------------------------===//
// Clifford gates (column updates over all generator rows)
//===----------------------------------------------------------------------===//

void Tableau::h(unsigned Q) {
  unsigned W = Q >> 6, Sh = Q & 63;
  uint64_t B = uint64_t(1) << Sh;
  for (unsigned I = 0; I < 2 * N; ++I) {
    uint64_t &Xw = xRow(I)[W], &Zw = zRow(I)[W];
    R[I] ^= ((Xw & Zw) >> Sh) & 1;
    uint64_t Xb = Xw & B, Zb = Zw & B;
    Xw = (Xw & ~B) | Zb;
    Zw = (Zw & ~B) | Xb;
  }
}

void Tableau::s(unsigned Q) {
  unsigned W = Q >> 6, Sh = Q & 63;
  uint64_t B = uint64_t(1) << Sh;
  for (unsigned I = 0; I < 2 * N; ++I) {
    uint64_t &Xw = xRow(I)[W], &Zw = zRow(I)[W];
    R[I] ^= ((Xw & Zw) >> Sh) & 1;
    Zw ^= Xw & B;
  }
}

void Tableau::cx(unsigned Ctl, unsigned Tgt) {
  if (Ctl == Tgt)
    return; // Degenerate: matches the dense engine's no-op on ill-formed
            // control == target input.
  unsigned Wc = Ctl >> 6, Sc = Ctl & 63, Wt = Tgt >> 6, St = Tgt & 63;
  for (unsigned I = 0; I < 2 * N; ++I) {
    uint64_t Xc = (xRow(I)[Wc] >> Sc) & 1, Zc = (zRow(I)[Wc] >> Sc) & 1;
    uint64_t Xt = (xRow(I)[Wt] >> St) & 1, Zt = (zRow(I)[Wt] >> St) & 1;
    R[I] ^= Xc & Zt & (Xt ^ Zc ^ 1);
    xRow(I)[Wt] ^= Xc << St;
    zRow(I)[Wc] ^= Zt << Sc;
  }
}

void Tableau::sdg(unsigned Q) {
  // S-dagger == Z * S as diagonal operators.
  s(Q);
  z(Q);
}

void Tableau::x(unsigned Q) {
  // Conjugation by X flips the sign of rows containing Z or Y on Q.
  unsigned W = Q >> 6, Sh = Q & 63;
  for (unsigned I = 0; I < 2 * N; ++I)
    R[I] ^= (zRow(I)[W] >> Sh) & 1;
}

void Tableau::z(unsigned Q) {
  unsigned W = Q >> 6, Sh = Q & 63;
  for (unsigned I = 0; I < 2 * N; ++I)
    R[I] ^= (xRow(I)[W] >> Sh) & 1;
}

void Tableau::y(unsigned Q) {
  // Y flips the sign of rows with exactly one of X/Z on Q (Y = iXZ commutes
  // with itself).
  unsigned W = Q >> 6, Sh = Q & 63;
  for (unsigned I = 0; I < 2 * N; ++I)
    R[I] ^= ((xRow(I)[W] ^ zRow(I)[W]) >> Sh) & 1;
}

void Tableau::cy(unsigned Ctl, unsigned Tgt) {
  // CY = S_t CX S_t^dagger.
  sdg(Tgt);
  cx(Ctl, Tgt);
  s(Tgt);
}

void Tableau::cz(unsigned A, unsigned B) {
  h(B);
  cx(A, B);
  h(B);
}

void Tableau::swapQubits(unsigned A, unsigned B) {
  if (A == B)
    return;
  cx(A, B);
  cx(B, A);
  cx(A, B);
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

bool Tableau::isDeterministic(unsigned Q, bool &Outcome) const {
  for (unsigned P = N; P < 2 * N; ++P)
    if (xBit(P, Q))
      return false;
  // Z_Q commutes with every stabilizer, so it is (up to sign) a product of
  // stabilizer generators — exactly those whose destabilizer partner
  // anticommutes with Z_Q. Accumulate the product's sign in local scratch.
  std::vector<uint64_t> Xs(Words, 0), Zs(Words, 0);
  int Sign = 0;
  for (unsigned I = 0; I < N; ++I) {
    if (!xBit(I, Q))
      continue;
    int Total = productPhase(Xs.data(), Zs.data(), xRow(N + I), zRow(N + I),
                             Words) +
                2 * Sign + 2 * R[N + I];
    Total %= 4;
    if (Total < 0)
      Total += 4;
    Sign = Total == 2;
    for (unsigned W = 0; W < Words; ++W) {
      Xs[W] ^= xRow(N + I)[W];
      Zs[W] ^= zRow(N + I)[W];
    }
  }
  Outcome = Sign;
  return true;
}

bool Tableau::measure(unsigned Q, std::mt19937_64 &Rng, MeasureRecord *Rec) {
  bool Outcome;
  if (isDeterministic(Q, Outcome)) {
    if (Rec)
      Rec->Random = false;
    return Outcome;
  }

  // Random outcome: some stabilizer generator P anticommutes with Z_Q.
  // Every other generator anticommuting with Z_Q is repaired by
  // multiplying in row P; row P's destabilizer becomes the old row P, and
  // row P becomes +-Z_Q.
  unsigned P = N;
  while (!xBit(P, Q))
    ++P;
  if (Rec) {
    // Row P is the Pauli mapping one collapse branch's post-measurement
    // state onto the other's: exactly what the frame sampler replays.
    Rec->Random = true;
    Rec->AntiX.assign(xRow(P), xRow(P) + Words);
    Rec->AntiZ.assign(zRow(P), zRow(P) + Words);
  }
  for (unsigned I = 0; I < 2 * N; ++I)
    if (I != P && xBit(I, Q))
      rowMult(I, P);
  rowCopy(P - N, P);
  Outcome = Rng() & 1;
  rowSetZ(P, Q);
  R[P] = Outcome;
  return Outcome;
}

void Tableau::reset(unsigned Q, std::mt19937_64 &Rng) {
  if (measure(Q, Rng))
    x(Q);
}

//===----------------------------------------------------------------------===//
// Backend
//===----------------------------------------------------------------------===//

bool StabilizerBackend::supports(const Circuit &,
                                 const CircuitProfile &P) const {
  return P.CliffordOnly;
}

void asdf::applyCliffordInstr(Tableau &T, const CircuitInstr &I) {
  unsigned Tgt = I.Targets.empty() ? 0 : I.Targets[0];
  bool Controlled = !I.Controls.empty();
  unsigned Ctl = Controlled ? I.Controls[0] : 0;
  unsigned Quarters = 0;
  switch (I.Gate) {
  case GateKind::X:
    Controlled ? T.cx(Ctl, Tgt) : T.x(Tgt);
    return;
  case GateKind::Y:
    Controlled ? T.cy(Ctl, Tgt) : T.y(Tgt);
    return;
  case GateKind::Z:
    Controlled ? T.cz(Ctl, Tgt) : T.z(Tgt);
    return;
  case GateKind::H:
    T.h(Tgt);
    return;
  case GateKind::S:
    T.s(Tgt);
    return;
  case GateKind::Sdg:
    T.sdg(Tgt);
    return;
  case GateKind::Swap:
    T.swapQubits(I.Targets[0], I.Targets[1]);
    return;
  case GateKind::P:
  case GateKind::RZ: {
    // Quarter-turn phases map onto I/S/Z/Sdg (RZ differs from P only by a
    // global phase, unobservable uncontrolled).
    bool Ok = quarterTurns(I.Param, Quarters);
    assert(Ok && "non-Clifford phase reached the tableau engine");
    (void)Ok;
    switch (Quarters) {
    case 0:
      return;
    case 1:
      T.s(Tgt);
      return;
    case 2:
      Controlled ? T.cz(Ctl, Tgt) : T.z(Tgt);
      return;
    default:
      T.sdg(Tgt);
      return;
    }
  }
  case GateKind::T:
  case GateKind::Tdg:
  case GateKind::RX:
  case GateKind::RY:
    break;
  }
  assert(false && "non-Clifford gate reached the tableau engine");
}

namespace {

/// One tableau execution of \p C, optionally a noisy one: with \p Plan,
/// every executed gate is followed by sampled Paulis (O(n) sign updates
/// each) and every measurement by readout error on the recorded bit, the
/// draws counted into \p Stats if given.
/// Shared by run(), runNoisy() and feed-forward batches so semantics can
/// never diverge; FrameReference::sampleShot replays it bit for bit.
ShotResult runTableau(const Circuit &C, uint64_t Seed,
                      const PauliNoisePlan *Plan, const NoiseModel *Noise,
                      SimStats *Stats) {
  Tableau T(C.NumQubits);
  std::mt19937_64 Rng = shotRng(Seed);
  ShotResult R;
  R.Bits.assign(C.NumBits, false);
  for (size_t Idx = 0; Idx < C.Instrs.size(); ++Idx) {
    const CircuitInstr &I = C.Instrs[Idx];
    if (I.CondBit >= 0 &&
        R.Bits[static_cast<unsigned>(I.CondBit)] != I.CondVal)
      continue;
    switch (I.TheKind) {
    case CircuitInstr::Kind::Gate:
      applyCliffordInstr(T, I);
      if (Plan)
        for (const PauliNoiseOp &Op : Plan->PerInstr[Idx]) {
          unsigned P = samplePauli(Op, Rng, Stats);
          if (P == 1)
            T.x(Op.Qubit);
          else if (P == 2)
            T.y(Op.Qubit);
          else if (P == 3)
            T.z(Op.Qubit);
        }
      break;
    case CircuitInstr::Kind::Measure: {
      bool Outcome = T.measure(I.Targets[0], Rng);
      if (Noise)
        Outcome = applyReadoutError(Noise->readoutFor(I.Targets[0]), Outcome,
                                    Rng, Stats);
      R.Bits[static_cast<unsigned>(I.Cbit)] = Outcome;
      break;
    }
    case CircuitInstr::Kind::Reset:
      T.reset(I.Targets[0], Rng);
      break;
    }
  }
  return R;
}

} // namespace

ShotResult StabilizerBackend::run(const Circuit &C, uint64_t Seed) const {
  assert(!C.isParametric() && "bind parameters before running");
  return runTableau(C, Seed, nullptr, nullptr, nullptr);
}

bool StabilizerBackend::supportsNoise(const NoiseModel &Noise) const {
  return Noise.isPauliOnly();
}

ShotResult StabilizerBackend::runNoisy(const Circuit &C, uint64_t Seed,
                                       const NoiseModel &Noise) const {
  assert(Noise.isPauliOnly() &&
         "non-Pauli noise model reached the tableau engine");
  PauliNoisePlan Plan = planPauliNoise(Noise, C);
  return runTableau(C, Seed, &Plan, &Noise, nullptr);
}

std::vector<ShotResult>
StabilizerBackend::runBatch(const Circuit &C, unsigned Shots, uint64_t Seed,
                            const RunOptions &Opts) const {
  const NoiseModel *Noise =
      Opts.Noise && !Opts.Noise->empty() ? Opts.Noise : nullptr;
  assert((!Noise || Noise->isPauliOnly()) &&
         "non-Pauli noise model reached the tableau engine");
  std::vector<ShotResult> Results(Shots);
  if (Shots == 0)
    return Results;
  PauliNoisePlan Plan;
  if (Noise)
    Plan = planPauliNoise(*Noise, C);
  const PauliNoisePlan *PlanPtr = Noise ? &Plan : nullptr;
  // Without feed-forward every shot is a Pauli frame on one shared
  // reference run. Feed-forward makes the instruction sequence itself
  // depend on per-shot bits, which frames cannot replay: those shots run
  // on their own tableaus.
  std::optional<FrameReference> Ref;
  if (!analyzeCircuit(C).HasFeedForward)
    Ref.emplace(C);
  parallelShotLoop(resolveJobCount(Opts.Jobs, Shots), Shots,
                   Opts.SimCounters,
                   [&](unsigned, unsigned S, SimStats *Stats) {
                     if (Opts.deadlineExpired())
                       throw DeadlineExceeded();
                     uint64_t ShotSeed = deriveShotSeed(Seed, S);
                     Results[S] =
                         Ref ? Ref->sampleShot(ShotSeed, PlanPtr, Noise, Stats)
                             : runTableau(C, ShotSeed, PlanPtr, Noise, Stats);
                   });
  return Results;
}
