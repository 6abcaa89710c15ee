//===- NoiseModel.cpp - Kraus channels and noise-model subsystem ----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "noise/NoiseModel.h"

#include "sim/Backend.h"

#include <cassert>
#include <cmath>

using namespace asdf;

using Cplx = std::complex<double>;

//===----------------------------------------------------------------------===//
// KrausChannel
//===----------------------------------------------------------------------===//

bool KrausChannel::isCPTP(double Tol) const {
  // Sum K' K over all operators and compare to the identity entrywise.
  Cplx Sum[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (const Mat2 &K : Ops)
    for (int I = 0; I < 2; ++I)
      for (int J = 0; J < 2; ++J)
        for (int L = 0; L < 2; ++L)
          Sum[I][J] += std::conj(K.M[L][I]) * K.M[L][J];
  return std::abs(Sum[0][0] - 1.0) <= Tol && std::abs(Sum[1][1] - 1.0) <= Tol &&
         std::abs(Sum[0][1]) <= Tol && std::abs(Sum[1][0]) <= Tol;
}

bool KrausChannel::pauliProbs(PauliProbs &P, double Tol) const {
  P = PauliProbs();
  P.PI = 0.0;
  for (const Mat2 &K : Ops) {
    double OffNorm = std::abs(K.M[0][1]) + std::abs(K.M[1][0]);
    double DiagNorm = std::abs(K.M[0][0]) + std::abs(K.M[1][1]);
    if (OffNorm <= Tol && DiagNorm <= Tol)
      continue; // Zero operator (e.g. bitFlip(0)): dead branch.
    if (OffNorm <= Tol) {
      // Diagonal: c*I (equal entries) or c*Z (opposite entries).
      if (std::abs(K.M[0][0] - K.M[1][1]) <= Tol)
        P.PI += std::norm(K.M[0][0]);
      else if (std::abs(K.M[0][0] + K.M[1][1]) <= Tol)
        P.PZ += std::norm(K.M[0][0]);
      else
        return false; // e.g. amplitude damping's diag(1, sqrt(1-g)).
      continue;
    }
    if (DiagNorm <= Tol) {
      // Antidiagonal: c*X (equal entries) or c*Y (M10 == -M01).
      if (std::abs(K.M[0][1] - K.M[1][0]) <= Tol)
        P.PX += std::norm(K.M[0][1]);
      else if (std::abs(K.M[0][1] + K.M[1][0]) <= Tol)
        P.PY += std::norm(K.M[0][1]);
      else
        return false;
      continue;
    }
    return false; // Mixed diagonal/antidiagonal support: not a Pauli.
  }
  return true;
}

namespace {

Mat2 scaled(double S, const Mat2 &U) {
  Mat2 R = U;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      R.M[I][J] *= S;
  return R;
}

std::string withParam(const char *Name, double P) {
  return std::string(Name) + "(" + std::to_string(P) + ")";
}

} // namespace

KrausChannel KrausChannel::depolarizing(double P) {
  assert(P >= 0.0 && P <= 1.0 && "depolarizing probability out of range");
  KrausChannel Ch;
  Ch.Name = withParam("depolarizing", P);
  Ch.Ops = {scaled(std::sqrt(1.0 - P), Mat2::identity()),
            scaled(std::sqrt(P / 3.0), gateMatrix2(GateKind::X, 0.0)),
            scaled(std::sqrt(P / 3.0), gateMatrix2(GateKind::Y, 0.0)),
            scaled(std::sqrt(P / 3.0), gateMatrix2(GateKind::Z, 0.0))};
  return Ch;
}

KrausChannel KrausChannel::bitFlip(double P) {
  assert(P >= 0.0 && P <= 1.0 && "bit-flip probability out of range");
  KrausChannel Ch;
  Ch.Name = withParam("bit_flip", P);
  Ch.Ops = {scaled(std::sqrt(1.0 - P), Mat2::identity()),
            scaled(std::sqrt(P), gateMatrix2(GateKind::X, 0.0))};
  return Ch;
}

KrausChannel KrausChannel::phaseFlip(double P) {
  assert(P >= 0.0 && P <= 1.0 && "phase-flip probability out of range");
  KrausChannel Ch;
  Ch.Name = withParam("phase_flip", P);
  Ch.Ops = {scaled(std::sqrt(1.0 - P), Mat2::identity()),
            scaled(std::sqrt(P), gateMatrix2(GateKind::Z, 0.0))};
  return Ch;
}

KrausChannel KrausChannel::amplitudeDamping(double Gamma) {
  assert(Gamma >= 0.0 && Gamma <= 1.0 && "damping rate out of range");
  KrausChannel Ch;
  Ch.Name = withParam("amplitude_damping", Gamma);
  Mat2 K0 = {{{1.0, 0.0}, {0.0, std::sqrt(1.0 - Gamma)}}};
  Mat2 K1 = {{{0.0, std::sqrt(Gamma)}, {0.0, 0.0}}};
  Ch.Ops = {K0, K1};
  return Ch;
}

KrausChannel KrausChannel::phaseDamping(double Lambda) {
  assert(Lambda >= 0.0 && Lambda <= 1.0 && "damping rate out of range");
  KrausChannel Ch;
  Ch.Name = withParam("phase_damping", Lambda);
  Mat2 K0 = {{{1.0, 0.0}, {0.0, std::sqrt(1.0 - Lambda)}}};
  Mat2 K1 = {{{0.0, 0.0}, {0.0, std::sqrt(Lambda)}}};
  Ch.Ops = {K0, K1};
  return Ch;
}

KrausChannel KrausChannel::kraus(std::vector<Mat2> Ops, std::string Name) {
  KrausChannel Ch;
  Ch.Name = std::move(Name);
  Ch.Ops = std::move(Ops);
  return Ch;
}

//===----------------------------------------------------------------------===//
// NoiseModel
//===----------------------------------------------------------------------===//

void NoiseModel::addGateChannel(GateKind G, KrausChannel Ch) {
  GateChannels[G].push_back(std::move(Ch));
}

void NoiseModel::addDefaultChannel(KrausChannel Ch) {
  DefaultChannels.push_back(std::move(Ch));
}

void NoiseModel::addQubitChannel(unsigned Q, KrausChannel Ch) {
  QubitChannels[Q].push_back(std::move(Ch));
}

void NoiseModel::setReadoutError(double P0to1, double P1to0) {
  GlobalReadout = {P0to1, P1to0};
}

void NoiseModel::setQubitReadoutError(unsigned Q, double P0to1,
                                      double P1to0) {
  QubitReadout[Q] = {P0to1, P1to0};
}

bool NoiseModel::hasGateNoise() const {
  return !GateChannels.empty() || !DefaultChannels.empty() ||
         !QubitChannels.empty();
}

bool NoiseModel::empty() const {
  if (hasGateNoise() || !GlobalReadout.trivial())
    return false;
  for (const auto &KV : QubitReadout)
    if (!KV.second.trivial())
      return false;
  return true;
}

bool NoiseModel::isPauliOnly() const {
  PauliProbs P;
  for (const auto &KV : GateChannels)
    for (const KrausChannel &Ch : KV.second)
      if (!Ch.pauliProbs(P))
        return false;
  for (const KrausChannel &Ch : DefaultChannels)
    if (!Ch.pauliProbs(P))
      return false;
  for (const auto &KV : QubitChannels)
    for (const KrausChannel &Ch : KV.second)
      if (!Ch.pauliProbs(P))
        return false;
  return true;
}

bool NoiseModel::affectsGate(const CircuitInstr &I) const {
  if (I.TheKind != CircuitInstr::Kind::Gate)
    return false;
  if (GateChannels.count(I.Gate) || !DefaultChannels.empty())
    return true;
  for (unsigned Q : I.Targets)
    if (QubitChannels.count(Q))
      return true;
  for (unsigned Q : I.Controls)
    if (QubitChannels.count(Q))
      return true;
  return false;
}

std::vector<NoiseOp> NoiseModel::noiseFor(const CircuitInstr &I) const {
  std::vector<NoiseOp> Ops;
  if (I.TheKind != CircuitInstr::Kind::Gate)
    return Ops;
  auto GateIt = GateChannels.find(I.Gate);
  const std::vector<KrausChannel> *Kind =
      GateIt != GateChannels.end() ? &GateIt->second : &DefaultChannels;
  auto AddQubit = [&](unsigned Q) {
    for (const KrausChannel &Ch : *Kind)
      Ops.push_back({Q, &Ch});
    auto QubitIt = QubitChannels.find(Q);
    if (QubitIt != QubitChannels.end())
      for (const KrausChannel &Ch : QubitIt->second)
        Ops.push_back({Q, &Ch});
  };
  for (unsigned Q : I.Targets)
    AddQubit(Q);
  for (unsigned Q : I.Controls)
    AddQubit(Q);
  return Ops;
}

const ReadoutError &NoiseModel::readoutFor(unsigned Q) const {
  auto It = QubitReadout.find(Q);
  return It != QubitReadout.end() ? It->second : GlobalReadout;
}

const ReadoutError *NoiseModel::qubitReadoutOverride(unsigned Q) const {
  auto It = QubitReadout.find(Q);
  return It != QubitReadout.end() ? &It->second : nullptr;
}

bool NoiseModel::validate(std::string &Error) const {
  auto CheckChannel = [&](const KrausChannel &Ch) {
    if (Ch.Ops.empty()) {
      Error = "channel '" + Ch.Name + "' has no Kraus operators";
      return false;
    }
    if (!Ch.isCPTP()) {
      Error = "channel '" + Ch.Name +
              "' is not trace-preserving (sum K'K != I)";
      return false;
    }
    return true;
  };
  for (const auto &KV : GateChannels)
    for (const KrausChannel &Ch : KV.second)
      if (!CheckChannel(Ch))
        return false;
  for (const KrausChannel &Ch : DefaultChannels)
    if (!CheckChannel(Ch))
      return false;
  for (const auto &KV : QubitChannels)
    for (const KrausChannel &Ch : KV.second)
      if (!CheckChannel(Ch))
        return false;
  auto CheckReadout = [&](const ReadoutError &E) {
    if (E.P0to1 < 0.0 || E.P0to1 > 1.0 || E.P1to0 < 0.0 || E.P1to0 > 1.0) {
      Error = "readout-error probabilities must lie in [0, 1]";
      return false;
    }
    return true;
  };
  if (!CheckReadout(GlobalReadout))
    return false;
  for (const auto &KV : QubitReadout)
    if (!CheckReadout(KV.second))
      return false;
  return true;
}

std::string NoiseModel::summary() const {
  size_t GateCount = 0;
  for (const auto &KV : GateChannels)
    GateCount += KV.second.size();
  size_t QubitCount = 0;
  for (const auto &KV : QubitChannels)
    QubitCount += KV.second.size();
  std::string S = std::to_string(GateCount) + " gate channel(s), " +
                  std::to_string(QubitCount) + " qubit channel(s), " +
                  std::to_string(DefaultChannels.size()) + " default, readout: ";
  if (!GlobalReadout.trivial())
    S += "global";
  else
    S += "none";
  if (!QubitReadout.empty())
    S += " + " + std::to_string(QubitReadout.size()) + " per-qubit";
  S += isPauliOnly() ? "; pauli-only" : "; general (Kraus)";
  return S;
}

//===----------------------------------------------------------------------===//
// Plans and sampling helpers
//===----------------------------------------------------------------------===//

NoisePlan asdf::planNoise(const NoiseModel &M, const Circuit &C) {
  NoisePlan Plan;
  Plan.PerInstr.resize(C.Instrs.size());
  for (size_t Idx = 0; Idx < C.Instrs.size(); ++Idx)
    Plan.PerInstr[Idx] = M.noiseFor(C.Instrs[Idx]);
  return Plan;
}

PauliNoisePlan asdf::planPauliNoise(const NoiseModel &M, const Circuit &C) {
  assert(M.isPauliOnly() && "Pauli plan of a non-Pauli model");
  PauliNoisePlan Plan;
  Plan.PerInstr.resize(C.Instrs.size());
  for (size_t Idx = 0; Idx < C.Instrs.size(); ++Idx) {
    for (const NoiseOp &Op : M.noiseFor(C.Instrs[Idx])) {
      PauliProbs P;
      bool IsPauli = Op.Channel->pauliProbs(P);
      assert(IsPauli);
      (void)IsPauli;
      PauliNoiseOp S;
      S.Qubit = Op.Qubit;
      S.CumX = P.PX;
      S.CumXY = P.PX + P.PY;
      S.CumXYZ = P.PX + P.PY + P.PZ;
      Plan.PerInstr[Idx].push_back(S);
    }
  }
  return Plan;
}

unsigned asdf::samplePauli(const PauliNoiseOp &Op, std::mt19937_64 &Rng,
                           SimStats *Stats) {
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  double U = Dist(Rng);
  unsigned P = U < Op.CumX ? 1 : U < Op.CumXY ? 2 : U < Op.CumXYZ ? 3 : 0;
  if (Stats) {
    ++Stats->ChannelApps;
    Stats->ErrorBranches += P != 0;
  }
  return P;
}

bool asdf::applyReadoutError(const ReadoutError &E, bool Bit,
                             std::mt19937_64 &Rng, SimStats *Stats) {
  if (E.trivial())
    return Bit; // Consumes no randomness: jobs invariance is free.
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  bool Flip = Dist(Rng) < (Bit ? E.P1to0 : E.P0to1);
  if (Stats)
    Stats->ReadoutFlips += Flip;
  return Bit ^ Flip;
}
