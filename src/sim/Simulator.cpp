//===- Simulator.cpp - Circuit execution facade ----------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <cassert>
#include <charconv>
#include <cmath>

using namespace asdf;

ShotResult asdf::simulate(const Circuit &C, uint64_t Seed,
                          BackendKind Backend) {
  return BackendRegistry::instance().select(C, Backend).run(C, Seed);
}

std::map<std::string, unsigned> asdf::runShots(const Circuit &C,
                                               unsigned Shots, uint64_t Seed,
                                               BackendKind Backend,
                                               const RunOptions &Opts) {
  return BackendRegistry::instance()
      .select(C, Backend, nullptr, Opts.Noise)
      .runShots(C, Shots, Seed, Opts);
}

std::string asdf::formatShotBits(const Circuit &C, const ShotResult &Shot) {
  std::string Out;
  Out.reserve(C.OutputBits.size());
  for (int Bit : C.OutputBits)
    Out.push_back(Bit == -2                ? '1'
                  : Bit == -3              ? '0'
                  : Shot.Bits[static_cast<unsigned>(Bit)] ? '1'
                                                          : '0');
  return Out;
}

std::string asdf::formatPointHeader(size_t P,
                                    const std::vector<std::string> &Names,
                                    const std::vector<double> &Values) {
  std::string Header = "# point " + std::to_string(P);
  for (size_t K = 0; K < Names.size(); ++K) {
    char Buf[64];
    std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), Values[K]);
    Header += (K ? ", " : ": ") + Names[K] + "=" + std::string(Buf, R.ptr);
  }
  return Header;
}

RunReport asdf::runCircuit(const Circuit &C, const RunSpec &Spec,
                           const std::function<bool(const RunReport &)> &Gate) {
  RunReport R;
  if (Spec.Points.empty() && C.isParametric()) {
    R.Refusal = "cannot run with " + std::to_string(C.numParams()) +
                " unbound parameter(s) (" + C.paramList() + ")";
    return R;
  }
  R.Profile = analyzeCircuit(C);
  R.Selection = BackendRegistry::instance().selectWithReasons(
      C, Spec.Backend, Spec.Opts, &R.Profile, Spec.Opts.Noise);
  if (!R.Selection.Supported) {
    R.Result = RunReport::Outcome::Unsupported;
    return R;
  }
  if (Gate && !Gate(R)) {
    R.Result = RunReport::Outcome::Declined;
    return R;
  }
  auto Format = [&](const std::vector<ShotResult> &Shots) {
    std::vector<std::string> &Bits = R.Bits.emplace_back();
    Bits.reserve(Shots.size());
    for (const ShotResult &Shot : Shots)
      Bits.push_back(formatShotBits(C, Shot));
  };
  const SimBackend &B = *R.Selection.Chosen;
  if (Spec.Points.empty())
    Format(B.runBatch(C, Spec.Shots, Spec.Seed, Spec.Opts));
  else
    for (const std::vector<ShotResult> &Shots :
         B.runSweep(C, Spec.Points, Spec.Shots, Spec.Seed, Spec.Opts))
      Format(Shots);
  R.Result = RunReport::Outcome::Ran;
  return R;
}

double asdf::tvDistance(const std::map<std::string, unsigned> &A,
                        const std::map<std::string, unsigned> &B,
                        unsigned Shots) {
  std::map<std::string, char> Union;
  for (const auto &KV : A)
    Union[KV.first] = 0;
  for (const auto &KV : B)
    Union[KV.first] = 0;
  double Tv = 0.0;
  for (const auto &KV : Union) {
    auto Ia = A.find(KV.first), Ib = B.find(KV.first);
    double Fa = Ia == A.end() ? 0.0 : double(Ia->second) / Shots;
    double Fb = Ib == B.end() ? 0.0 : double(Ib->second) / Shots;
    Tv += std::abs(Fa - Fb);
  }
  return Tv / 2.0;
}

std::vector<std::vector<Amplitude>> asdf::circuitUnitary(const Circuit &C) {
  assert(C.NumQubits <= 10 && "unitary extraction limited to 10 qubits");
  uint64_t Dim = uint64_t(1) << C.NumQubits;
  std::vector<std::vector<Amplitude>> U(Dim, std::vector<Amplitude>(Dim));
  for (uint64_t K = 0; K < Dim; ++K) {
    StateVector SV(C.NumQubits);
    SV.setBasisState(K);
    for (const CircuitInstr &I : C.Instrs) {
      assert(I.TheKind == CircuitInstr::Kind::Gate && I.CondBit < 0 &&
             "unitary extraction requires a measurement-free circuit");
      SV.apply(I.Gate, I.Controls, I.Targets, I.Param);
    }
    for (uint64_t R = 0; R < Dim; ++R)
      U[R][K] = SV.amplitudes()[R];
  }
  return U;
}

bool asdf::unitariesEquivalent(const std::vector<std::vector<Amplitude>> &A,
                               const std::vector<std::vector<Amplitude>> &B,
                               double Tol) {
  if (A.size() != B.size())
    return false;
  uint64_t Dim = A.size();
  // Fix the global phase at B's largest-magnitude entry (where A is
  // nonzero too). No fixed threshold: every entry of H (x) H is 0.5.
  Amplitude Phase(1.0, 0.0);
  double Largest = 0.0;
  for (uint64_t R = 0; R < Dim; ++R)
    for (uint64_t C = 0; C < Dim; ++C)
      if (std::abs(B[R][C]) > Largest && std::abs(A[R][C]) > 1e-12) {
        Largest = std::abs(B[R][C]);
        Phase = A[R][C] / B[R][C];
      }
  Phase /= std::abs(Phase);
  for (uint64_t R = 0; R < Dim; ++R)
    for (uint64_t C = 0; C < Dim; ++C)
      if (std::abs(A[R][C] - Phase * B[R][C]) > Tol)
        return false;
  return true;
}
