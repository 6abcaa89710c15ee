//===- CommandLine.h - Option-value parsers shared by the tools -----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option-value parsers asdfc and asdf-cli share, so a bad value fails
/// in both with the same one-line diagnosis in \p Error (each tool prints
/// it after its own name and exits 2).
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_COMPILER_COMMANDLINE_H
#define ASDF_COMPILER_COMMANDLINE_H

#include "ast/Expand.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace asdf {

/// Splits "key=value" at the first '='; false if there is none.
bool splitEq(const std::string &Arg, std::string &Key, std::string &Value);

/// Splits \p S on \p Sep, keeping empty pieces (so a malformed spec fails
/// loudly downstream instead of silently shrinking).
std::vector<std::string> splitOn(const std::string &S, char Sep);

/// Locale-independent double parse of the whole string, surrounding
/// whitespace allowed (strtod honors LC_NUMERIC, which would silently
/// truncate "30.5" under a comma-decimal locale).
bool parseDoubleArg(const std::string &S, double &Out);

/// Parses \p Value, the value of option \p Flag, as a whole number in
/// [0, \p Max]: decimal digits, or hexadecimal digits after "0x", with
/// nothing else but surrounding whitespace — no sign, no trailing junk.
bool parseUnsignedArg(const std::string &Flag, const std::string &Value,
                      uint64_t Max, uint64_t &Out, std::string &Error);

/// As above, in the range of \p Out's unsigned type.
template <typename T>
bool parseUnsignedArg(const std::string &Flag, const std::string &Value,
                      T &Out, std::string &Error) {
  uint64_t N;
  if (!parseUnsignedArg(Flag, Value, std::numeric_limits<T>::max(), N, Error))
    return false;
  Out = static_cast<T>(N);
  return true;
}

/// Adds one `--bind <Var>=<int>` value to \p B. The whole value must be an
/// integer, and each variable can be bound once.
bool parseBindArg(const std::string &Arg, ProgramBindings &B,
                  std::string &Error);

/// Adds one `--capture <fn>.<param>=<bits|@name>` value to \p B. Each
/// parameter can be captured once.
bool parseCaptureArg(const std::string &Arg, ProgramBindings &B,
                     std::string &Error);

/// Parses a `--sweep` spec: semicolon-separated points, each a
/// comma-separated value list ("0,90;45,90"); an empty point is an empty
/// list. Checking each point's arity is the caller's job.
bool parseSweepSpec(const std::string &Spec,
                    std::vector<std::vector<double>> &Points,
                    std::string &Error);

} // namespace asdf

#endif // ASDF_COMPILER_COMMANDLINE_H
