//===- CommandLine.cpp - Option-value parsers shared by the tools ---------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compiler/CommandLine.h"
#include "support/ParseNumber.h"

#include <cctype>
#include <string_view>

using namespace asdf;

bool asdf::splitEq(const std::string &Arg, std::string &Key,
                   std::string &Value) {
  size_t Eq = Arg.find('=');
  if (Eq == std::string::npos)
    return false;
  Key = Arg.substr(0, Eq);
  Value = Arg.substr(Eq + 1);
  return true;
}

std::vector<std::string> asdf::splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (true) {
    size_t Next = S.find(Sep, Pos);
    Parts.push_back(S.substr(
        Pos, Next == std::string::npos ? std::string::npos : Next - Pos));
    if (Next == std::string::npos)
      return Parts;
    Pos = Next + 1;
  }
}

bool asdf::parseDoubleArg(const std::string &S, double &Out) {
  return parseWhole(S, Out);
}

bool asdf::parseUnsignedArg(const std::string &Flag, const std::string &Value,
                            uint64_t Max, uint64_t &Out,
                            std::string &Error) {
  std::string_view Digits = Value;
  while (!Digits.empty() &&
         std::isspace(static_cast<unsigned char>(Digits.front())))
    Digits.remove_prefix(1);
  int Base = 10;
  if (Digits.size() > 2 && Digits[0] == '0' &&
      (Digits[1] == 'x' || Digits[1] == 'X') &&
      std::isxdigit(static_cast<unsigned char>(Digits[2]))) {
    Digits.remove_prefix(2);
    Base = 16;
  }
  uint64_t N = 0;
  if (!parseWhole(Digits, N, Base) || N > Max) {
    Error = Flag + " value '" + Value + "' is not a whole number from 0 to " +
            std::to_string(Max);
    return false;
  }
  Out = N;
  return true;
}

bool asdf::parseBindArg(const std::string &Arg, ProgramBindings &B,
                        std::string &Error) {
  std::string Key, Value;
  int64_t N = 0;
  if (!splitEq(Arg, Key, Value))
    Error = "--bind expects <Var>=<int>";
  else if (!parseWhole(Value, N))
    Error = "--bind value '" + Value + "' for '" + Key +
            "' is not an integer";
  else if (!B.DimVars.emplace(Key, N).second)
    Error = "duplicate --bind for dimension variable '" + Key +
            "' (each variable can be bound once)";
  else
    return true;
  return false;
}

bool asdf::parseCaptureArg(const std::string &Arg, ProgramBindings &B,
                           std::string &Error) {
  std::string Key, Value;
  if (!splitEq(Arg, Key, Value)) {
    Error = "--capture expects <function>.<param>=<value>";
    return false;
  }
  size_t Dot = Key.find('.');
  if (Dot == std::string::npos) {
    Error = "capture key '" + Key + "' must be <function>.<param>";
    return false;
  }
  std::map<std::string, CaptureValue> &Params =
      B.Captures[Key.substr(0, Dot)];
  std::string Param = Key.substr(Dot + 1);
  if (Params.count(Param)) {
    Error = "duplicate --capture for '" + Key +
            "' (each parameter can be captured once)";
    return false;
  }
  Params[Param] = !Value.empty() && Value[0] == '@'
                      ? CaptureValue::classicalFunc(Value.substr(1))
                      : CaptureValue::bitsFromString(Value);
  return true;
}

bool asdf::parseSweepSpec(const std::string &Spec,
                          std::vector<std::vector<double>> &Points,
                          std::string &Error) {
  Points.clear();
  for (const std::string &PointSpec : splitOn(Spec, ';')) {
    std::vector<double> &Point = Points.emplace_back();
    if (PointSpec.empty())
      continue;
    for (const std::string &Val : splitOn(PointSpec, ',')) {
      if (!parseDoubleArg(Val, Point.emplace_back())) {
        Error = "--sweep value '" + Val + "' is not a number";
        return false;
      }
    }
  }
  return true;
}
