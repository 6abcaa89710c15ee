//===- Json.h - Minimal JSON value, parser, and writer --------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON layer of the asdfd wire protocol (docs/protocol.md): a small
/// value type plus a strict parser and a compact single-line writer. Two
/// properties matter for the service and are guaranteed here:
///
///   - Numbers keep their source text. A JSON double cannot represent a
///     64-bit seed exactly, so `asU64` re-parses the original digits and
///     `Value::integer` writes them back verbatim — seeds round-trip
///     bit-exactly through the protocol.
///   - The writer emits no raw newlines (control characters are escaped),
///     so any serialized value is a valid NDJSON line.
///
/// Object keys preserve insertion order; duplicate keys in parsed input
/// keep the last occurrence (lookup scans from the back).
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SUPPORT_JSON_H
#define ASDF_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace asdf {
namespace json {

class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double D);
  /// Integer-valued numbers written (and kept) as exact digit strings.
  static Value integer(uint64_t V);
  static Value integer(int64_t V);
  static Value str(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isObject() const { return TheKind == Kind::Object; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isString() const { return TheKind == Kind::String; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isBool() const { return TheKind == Kind::Bool; }

  //===--- Typed accessors (return the default on kind mismatch) ---===//

  bool asBool(bool Default = false) const;
  double asDouble(double Default = 0.0) const;
  /// Exact for any uint64 the peer wrote with Value::integer; parses the
  /// preserved digit text, not the double.
  uint64_t asU64(uint64_t Default = 0) const;
  int64_t asI64(int64_t Default = 0) const;
  /// Exact reads for fields that must be whole numbers: true, with \p Out
  /// set, if this is a number written as an integer (no fraction, no
  /// exponent) that fits the type; false, with \p Out untouched, for
  /// anything else — where asU64/asI64 would stop at the first non-digit
  /// or wrap.
  bool toU64(uint64_t &Out) const;
  bool toI64(int64_t &Out) const;
  const std::string &asString(const std::string &Default = emptyString())
      const;

  //===--- Object/array access ---===//

  /// Object member lookup; null if absent or not an object.
  const Value *get(const std::string &Key) const;
  Value *get(const std::string &Key) {
    return const_cast<Value *>(std::as_const(*this).get(Key));
  }
  /// Sets (or replaces) an object member. No-op unless isObject().
  void set(const std::string &Key, Value V);
  /// Appends an array element. No-op unless isArray().
  void push(Value V);

  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  const std::vector<Value> &elements() const { return Elements; }

  /// Serializes compactly on one line (NDJSON-safe: all control characters
  /// escaped).
  std::string write() const;

private:
  static const std::string &emptyString();

  Kind TheKind = Kind::Null;
  bool BoolVal = false;
  /// Number payload: the exact source/emitted text.
  std::string NumText;
  std::string StrVal;
  std::vector<Value> Elements;
  std::vector<std::pair<std::string, Value>> Members;

  friend class Parser;
};

/// Parses \p Text (one complete JSON value, surrounding whitespace OK).
/// Returns false and fills \p Error (with a byte offset) on malformed
/// input, including trailing garbage.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace json
} // namespace asdf

#endif // ASDF_SUPPORT_JSON_H
