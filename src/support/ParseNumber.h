//===- ParseNumber.h - Whole-string number parsing ------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one number parser of the text surfaces: command-line values and
/// noise INI files read numbers by the same rules.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SUPPORT_PARSENUMBER_H
#define ASDF_SUPPORT_PARSENUMBER_H

#include <cctype>
#include <charconv>
#include <string_view>

namespace asdf {

/// Parses all of \p S but its surrounding whitespace (sweep specs read
/// naturally as "0; 45.5; 90"); from_chars is locale-independent and exact.
/// It takes no '+' sign, and no '-' for an unsigned \p T; a value outside
/// \p T's range fails. \p Fmt is from_chars' base or format, if any.
template <typename T, typename... FmtT>
bool parseWhole(std::string_view S, T &Out, FmtT... Fmt) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  if (S.empty())
    return false;
  const char *E = S.data() + S.size();
  std::from_chars_result R = std::from_chars(S.data(), E, Out, Fmt...);
  return R.ec == std::errc() && R.ptr == E;
}

} // namespace asdf

#endif // ASDF_SUPPORT_PARSENUMBER_H
