//===- JsonTest.cpp - JSON number formatting and locale independence ------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the numeric layer of the NDJSON wire format:
///
///   - doubles round-trip exactly through write() + parse() (shortest
///     round-trip form via <charconv>, not printf);
///   - the writer and parser are immune to LC_NUMERIC. The old
///     snprintf("%.17g")/strtod implementation obeyed the process locale:
///     under a comma-decimal locale (de_DE, fr_FR, ...) it *wrote* "3,5"
///     — invalid JSON — and *read* "3.5" as 3.0 by stopping at the '.'.
///     A daemon embedded in a localized host process would corrupt every
///     float on the wire. The regression test flips LC_NUMERIC to a
///     comma-decimal locale (skipping if none is installed) and requires
///     byte-identical behavior;
///   - the lexer's float literals share the fix: "45.5" in a Qwerty
///     program must lex to 45.5 under any locale;
///   - nesting is capped, so one line of a million '[' is a parse error
///     rather than a stack overflow in the recursive parser.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "ast/Lexer.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cstring>
#include <string>

using namespace asdf;

namespace {

double writeParseRoundTrip(double D) {
  std::string Wire = "{\"x\": " + json::Value::number(D).write() + "}";
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Wire, V, Error)) << Wire << ": " << Error;
  const json::Value *X = V.get("x");
  EXPECT_NE(X, nullptr) << Wire;
  return X ? X->asDouble() : 0.0;
}

TEST(JsonNumberTest, DoublesRoundTripExactly) {
  const double Cases[] = {3.25,
                          0.1,
                          -0.30000000000000004,
                          45.5,
                          1.0 / 3.0,
                          6.02214076e23,
                          2.2250738585072014e-308, // Smallest normal.
                          1.7976931348623157e308,  // Largest finite.
                          5e-324,                  // Smallest subnormal.
                          -12345.678901234567};
  for (double D : Cases) {
    double Back = writeParseRoundTrip(D);
    EXPECT_EQ(std::memcmp(&Back, &D, sizeof D), 0)
        << D << " round-tripped to " << Back;
  }
}

TEST(JsonNumberTest, ShortestFormIsWritten) {
  // Shortest round-trip form, not 17 significant digits: 3.25 is "3.25",
  // not "3.2500000000000000".
  EXPECT_EQ(json::Value::number(3.25).write(), "3.25");
  EXPECT_EQ(json::Value::number(0.1).write(), "0.1");
}

/// Switches LC_NUMERIC to a comma-decimal locale for the enclosing scope.
/// Valid (bool conversion) only if one was installed and printf actually
/// produces a comma — otherwise the test skips rather than vacuously pass.
class CommaLocale {
public:
  CommaLocale() {
    Saved = std::setlocale(LC_NUMERIC, nullptr);
    for (const char *Name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                             "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"}) {
      if (std::setlocale(LC_NUMERIC, Name)) {
        char Buf[32];
        std::snprintf(Buf, sizeof Buf, "%.1f", 3.5);
        if (std::strcmp(Buf, "3,5") == 0) {
          Active = true;
          return;
        }
      }
    }
    std::setlocale(LC_NUMERIC, Saved.c_str());
  }
  ~CommaLocale() {
    if (Active)
      std::setlocale(LC_NUMERIC, Saved.c_str());
  }
  explicit operator bool() const { return Active; }

private:
  std::string Saved;
  bool Active = false;
};

TEST(JsonNumberTest, WriterAndParserIgnoreLocale) {
  CommaLocale Locale;
  if (!Locale)
    GTEST_SKIP() << "no comma-decimal locale installed";

  // The writer must emit '.' (valid JSON), never the locale's ','.
  EXPECT_EQ(json::Value::number(3.5).write(), "3.5");

  // The parser must consume the full "45.5", not stop at the '.' the way
  // strtod does under this locale (which yielded 45.0).
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse("{\"x\": 45.5}", V, Error)) << Error;
  EXPECT_EQ(V.get("x")->asDouble(), 45.5);

  // And full round-trips still reproduce the bits.
  double Back = writeParseRoundTrip(-0.30000000000000004);
  EXPECT_EQ(Back, -0.30000000000000004);
}

TEST(JsonNumberTest, LexerFloatLiteralsIgnoreLocale) {
  CommaLocale Locale;
  if (!Locale)
    GTEST_SKIP() << "no comma-decimal locale installed";

  DiagnosticEngine Diags;
  Lexer Lex("45.5", Diags);
  ASSERT_FALSE(Diags.hadError());
  const std::vector<Token> &Toks = Lex.tokens();
  ASSERT_FALSE(Toks.empty());
  ASSERT_TRUE(Toks[0].is(Token::Kind::Float));
  EXPECT_EQ(Toks[0].FloatValue, 45.5)
      << "float literal truncated at the '.' under a comma-decimal locale";
}

TEST(JsonParseTest, DeepNestingIsAnErrorNotAStackOverflow) {
  json::Value V;
  std::string Error;
  std::string AtCap = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(json::parse(AtCap, V, Error)) << Error;
  std::string OverCap = "{\"a\": " + AtCap + "}";
  EXPECT_FALSE(json::parse(OverCap, V, Error));
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos) << Error;
  EXPECT_FALSE(json::parse(std::string(1000000, '['), V, Error));
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos) << Error;
}

} // namespace
