//===- Json.cpp - Minimal JSON value, parser, and writer ------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace asdf {
namespace json {

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

const std::string &Value::emptyString() {
  static const std::string Empty;
  return Empty;
}

Value Value::boolean(bool B) {
  Value V;
  V.TheKind = Kind::Bool;
  V.BoolVal = B;
  return V;
}

Value Value::number(double D) {
  Value V;
  V.TheKind = Kind::Number;
  // Locale-independent shortest round-trip formatting. The snprintf
  // "%.17g" this replaces obeyed LC_NUMERIC, so a comma-decimal locale
  // (e.g. de_DE) wrote "3,5" — corrupting every angle and timing field on
  // the wire. to_chars always writes '.' and parses back bit-exactly.
  char Buf[32];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), D);
  V.NumText.assign(Buf, R.ptr);
  return V;
}

Value Value::integer(uint64_t U) {
  Value V;
  V.TheKind = Kind::Number;
  V.NumText = std::to_string(U);
  return V;
}

Value Value::integer(int64_t I) {
  Value V;
  V.TheKind = Kind::Number;
  V.NumText = std::to_string(I);
  return V;
}

Value Value::str(std::string S) {
  Value V;
  V.TheKind = Kind::String;
  V.StrVal = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.TheKind = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.TheKind = Kind::Object;
  return V;
}

bool Value::asBool(bool Default) const {
  return TheKind == Kind::Bool ? BoolVal : Default;
}

double Value::asDouble(double Default) const {
  if (TheKind != Kind::Number)
    return Default;
  // Locale-independent: strtod under a comma-decimal locale stops at the
  // '.' of "3.5" and returns 3.0, silently truncating every fractional
  // number read off the wire.
  double D = 0.0;
  const char *B = NumText.c_str();
  std::from_chars_result R = std::from_chars(B, B + NumText.size(), D);
  if (R.ec != std::errc())
    return Default;
  return D;
}

uint64_t Value::asU64(uint64_t Default) const {
  if (TheKind != Kind::Number || NumText.empty() || NumText[0] == '-')
    return Default;
  return std::strtoull(NumText.c_str(), nullptr, 10);
}

int64_t Value::asI64(int64_t Default) const {
  if (TheKind != Kind::Number)
    return Default;
  return std::strtoll(NumText.c_str(), nullptr, 10);
}

namespace {

template <typename T> bool wholeNumber(const std::string &Text, T &Out) {
  const char *E = Text.data() + Text.size();
  T N;
  std::from_chars_result R = std::from_chars(Text.data(), E, N);
  if (R.ec != std::errc() || R.ptr != E)
    return false;
  Out = N;
  return true;
}

} // namespace

bool Value::toU64(uint64_t &Out) const {
  return TheKind == Kind::Number && wholeNumber(NumText, Out);
}

bool Value::toI64(int64_t &Out) const {
  return TheKind == Kind::Number && wholeNumber(NumText, Out);
}

const std::string &Value::asString(const std::string &Default) const {
  return TheKind == Kind::String ? StrVal : Default;
}

const Value *Value::get(const std::string &Key) const {
  if (TheKind != Kind::Object)
    return nullptr;
  // Scan from the back: on duplicate keys the last occurrence wins, the
  // usual JSON-in-practice convention.
  for (auto It = Members.rbegin(); It != Members.rend(); ++It)
    if (It->first == Key)
      return &It->second;
  return nullptr;
}

void Value::set(const std::string &Key, Value V) {
  if (TheKind != Kind::Object)
    return;
  for (auto &[K, Existing] : Members)
    if (K == Key) {
      Existing = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

void Value::push(Value V) {
  if (TheKind == Kind::Array)
    Elements.push_back(std::move(V));
}

static void writeEscaped(const std::string &S, std::string &Out) {
  Out.push_back('"');
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
}

static void writeValue(const Value &V, std::string &Out) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    break;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case Value::Kind::Number:
    // NumText is either parser-validated JSON number syntax or produced by
    // our own formatters; Value::write() returns it verbatim.
    Out += V.write();
    break;
  case Value::Kind::String:
    writeEscaped(V.asString(), Out);
    break;
  case Value::Kind::Array: {
    Out.push_back('[');
    bool First = true;
    for (const Value &E : V.elements()) {
      if (!First)
        Out.push_back(',');
      First = false;
      writeValue(E, Out);
    }
    Out.push_back(']');
    break;
  }
  case Value::Kind::Object: {
    Out.push_back('{');
    bool First = true;
    for (const auto &[K, M] : V.members()) {
      if (!First)
        Out.push_back(',');
      First = false;
      writeEscaped(K, Out);
      Out.push_back(':');
      writeValue(M, Out);
    }
    Out.push_back('}');
    break;
  }
  }
}

std::string Value::write() const {
  if (TheKind == Kind::Number)
    return NumText;
  std::string Out;
  writeValue(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(const std::string &Text) : Text(Text) {}

  bool run(Value &Out, std::string &Error) {
    skipWs();
    if (!parseValue(Out))
      return fail(Error);
    skipWs();
    if (Pos != Text.size()) {
      Err = "trailing characters after JSON value";
      return fail(Error);
    }
    return true;
  }

private:
  bool fail(std::string &Error) {
    if (Err.empty())
      return true;
    Error = Err + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool error(const char *Message) {
    if (Err.empty())
      Err = Message;
    return false;
  }

  bool literal(const char *Lit) {
    size_t N = std::char_traits<char>::length(Lit);
    if (Text.compare(Pos, N, Lit) != 0)
      return error("invalid literal");
    Pos += N;
    return true;
  }

  bool parseValue(Value &Out) {
    if (Pos >= Text.size())
      return error("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
    case '[': {
      // The parser recurses per level; cap it so no line overflows the
      // stack.
      if (Depth == MaxDepth)
        return error("nesting too deep");
      ++Depth;
      bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::str(std::move(S));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = Value::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value::boolean(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value::null();
      return true;
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(Value &Out) {
    ++Pos; // '{'
    Out = Value::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return error("expected object key string");
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return error("expected ':' after object key");
      ++Pos;
      skipWs();
      Value Member;
      if (!parseValue(Member))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (Pos >= Text.size())
        return error("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return error("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &Out) {
    ++Pos; // '['
    Out = Value::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      Value Element;
      if (!parseValue(Element))
        return false;
      Out.Elements.push_back(std::move(Element));
      skipWs();
      if (Pos >= Text.size())
        return error("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return error("expected ',' or ']' in array");
    }
  }

  static void appendUtf8(unsigned Code, std::string &Out) {
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
    } else if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else if (Code < 0x10000) {
      Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else {
      Out.push_back(static_cast<char>(0xF0 | (Code >> 18)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 12) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    }
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return error("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return error("invalid \\u escape digit");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    while (true) {
      if (Pos >= Text.size())
        return error("unterminated string");
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return error("raw control character in string");
      if (C != '\\') {
        Out.push_back(static_cast<char>(C));
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return error("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        unsigned Code;
        if (!parseHex4(Code))
          return false;
        // Combine surrogate pairs; a lone surrogate becomes U+FFFD.
        if (Code >= 0xD800 && Code <= 0xDBFF &&
            Text.compare(Pos, 2, "\\u") == 0) {
          size_t Save = Pos;
          Pos += 2;
          unsigned Low;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          else
            Pos = Save, Code = 0xFFFD;
        } else if (Code >= 0xD800 && Code <= 0xDFFF) {
          Code = 0xFFFD;
        }
        appendUtf8(Code, Out);
        break;
      }
      default:
        return error("unknown escape character");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || !std::isdigit(static_cast<unsigned char>(
                                  Text[Pos])))
      return error("invalid number");
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || !std::isdigit(static_cast<unsigned char>(
                                    Text[Pos])))
        return error("invalid number fraction");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || !std::isdigit(static_cast<unsigned char>(
                                    Text[Pos])))
        return error("invalid number exponent");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    Value V;
    V.TheKind = Value::Kind::Number;
    V.NumText = Text.substr(Start, Pos - Start);
    Out = std::move(V);
    return true;
  }

  static constexpr unsigned MaxDepth = 512;
  const std::string &Text;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Err;
};

bool parse(const std::string &Text, Value &Out, std::string &Error) {
  return Parser(Text).run(Out, Error);
}

} // namespace json
} // namespace asdf
