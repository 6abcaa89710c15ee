//===- NoiseSpec.cpp - INI-style noise-model spec parser ------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "noise/NoiseSpec.h"
#include "support/ParseNumber.h"

#include <cctype>
#include <fstream>
#include <sstream>

using namespace asdf;

namespace {

std::string trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

std::string stripComment(const std::string &S) {
  size_t Pos = S.find_first_of("#;");
  return Pos == std::string::npos ? S : S.substr(0, Pos);
}

bool parseGateName(const std::string &Name, GateKind &G) {
  static const struct {
    const char *Name;
    GateKind Kind;
  } Table[] = {
      {"x", GateKind::X},   {"y", GateKind::Y},     {"z", GateKind::Z},
      {"h", GateKind::H},   {"s", GateKind::S},     {"sdg", GateKind::Sdg},
      {"t", GateKind::T},   {"tdg", GateKind::Tdg}, {"p", GateKind::P},
      {"rx", GateKind::RX}, {"ry", GateKind::RY},   {"rz", GateKind::RZ},
      {"swap", GateKind::Swap},
  };
  for (const auto &Entry : Table)
    if (Name == Entry.Name) {
      G = Entry.Kind;
      return true;
    }
  return false;
}

bool parseProb(const std::string &Value, double &P) {
  return parseWhole(Value, P) && P >= 0.0 && P <= 1.0;
}

bool makeChannel(const std::string &Key, double P, KrausChannel &Ch) {
  if (Key == "depolarizing")
    Ch = KrausChannel::depolarizing(P);
  else if (Key == "bit_flip")
    Ch = KrausChannel::bitFlip(P);
  else if (Key == "phase_flip")
    Ch = KrausChannel::phaseFlip(P);
  else if (Key == "amplitude_damping")
    Ch = KrausChannel::amplitudeDamping(P);
  else if (Key == "phase_damping")
    Ch = KrausChannel::phaseDamping(P);
  else
    return false;
  return true;
}

/// Where key=value lines of the current section land.
struct Section {
  enum class Kind { None, Gate, DefaultGate, Qubit, Readout, QubitReadout };
  Kind TheKind = Kind::None;
  GateKind Gate = GateKind::X;
  unsigned Qubit = 0;
};

} // namespace

bool asdf::parseNoiseSpec(const std::string &Text, NoiseModel &M,
                          std::string &Error) {
  std::istringstream In(Text);
  std::string Raw;
  Section Sec;
  unsigned LineNo = 0;
  auto Fail = [&](const std::string &Msg) {
    Error = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  };
  // Readout sections accumulate both probabilities before committing.
  // They are seeded from whatever the model already holds, so re-opening
  // a section (or an empty one) merges instead of silently zeroing the
  // other probability.
  double P0to1 = 0.0, P1to0 = 0.0;
  auto CommitReadout = [&] {
    if (Sec.TheKind == Section::Kind::Readout)
      M.setReadoutError(P0to1, P1to0);
    else if (Sec.TheKind == Section::Kind::QubitReadout)
      M.setQubitReadoutError(Sec.Qubit, P0to1, P1to0);
  };
  auto OpenReadout = [&](const ReadoutError *Existing) {
    P0to1 = Existing ? Existing->P0to1 : 0.0;
    P1to0 = Existing ? Existing->P1to0 : 0.0;
  };

  while (std::getline(In, Raw)) {
    ++LineNo;
    std::string Line = trim(stripComment(Raw));
    if (Line.empty())
      continue;

    if (Line.front() == '[') {
      if (Line.back() != ']')
        return Fail("unterminated section header");
      CommitReadout();
      std::string Header = trim(Line.substr(1, Line.size() - 2));
      size_t Colon = Header.find(':');
      std::string Kind = trim(Header.substr(0, Colon));
      std::string Arg =
          Colon == std::string::npos ? "" : trim(Header.substr(Colon + 1));
      if (Kind == "gate") {
        if (Arg == "*") {
          Sec.TheKind = Section::Kind::DefaultGate;
        } else if (parseGateName(Arg, Sec.Gate)) {
          Sec.TheKind = Section::Kind::Gate;
        } else {
          return Fail("unknown gate '" + Arg +
                      "' (expect x, y, z, h, s, sdg, t, tdg, p, rx, ry, rz, "
                      "swap, or *)");
        }
      } else if (Kind == "qubit") {
        if (!parseWhole(Arg, Sec.Qubit))
          return Fail("bad qubit index '" + Arg + "'");
        Sec.TheKind = Section::Kind::Qubit;
      } else if (Kind == "readout") {
        if (Arg.empty()) {
          Sec.TheKind = Section::Kind::Readout;
          OpenReadout(&M.globalReadoutError());
        } else {
          if (!parseWhole(Arg, Sec.Qubit))
            return Fail("bad qubit index '" + Arg + "'");
          Sec.TheKind = Section::Kind::QubitReadout;
          OpenReadout(M.qubitReadoutOverride(Sec.Qubit));
        }
      } else {
        return Fail("unknown section '" + Kind +
                    "' (expect gate, qubit, or readout)");
      }
      continue;
    }

    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return Fail("expected 'key = value'");
    std::string Key = trim(Line.substr(0, Eq));
    std::string Value = trim(Line.substr(Eq + 1));
    double P;
    if (!parseProb(Value, P))
      return Fail("'" + Value + "' is not a probability in [0, 1]");

    switch (Sec.TheKind) {
    case Section::Kind::None:
      return Fail("'" + Key + "' outside any section");
    case Section::Kind::Gate:
    case Section::Kind::DefaultGate:
    case Section::Kind::Qubit: {
      KrausChannel Ch;
      if (!makeChannel(Key, P, Ch))
        return Fail("unknown channel '" + Key +
                    "' (expect depolarizing, bit_flip, phase_flip, "
                    "amplitude_damping, or phase_damping)");
      if (Sec.TheKind == Section::Kind::Gate)
        M.addGateChannel(Sec.Gate, std::move(Ch));
      else if (Sec.TheKind == Section::Kind::DefaultGate)
        M.addDefaultChannel(std::move(Ch));
      else
        M.addQubitChannel(Sec.Qubit, std::move(Ch));
      break;
    }
    case Section::Kind::Readout:
    case Section::Kind::QubitReadout:
      if (Key == "p0to1")
        P0to1 = P;
      else if (Key == "p1to0")
        P1to0 = P;
      else
        return Fail("unknown readout key '" + Key +
                    "' (expect p0to1 or p1to0)");
      break;
    }
  }
  CommitReadout();
  return true;
}

bool asdf::loadNoiseSpec(const std::string &Path, NoiseModel &M,
                         std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (!parseNoiseSpec(Buf.str(), M, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}
