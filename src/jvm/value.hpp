// Runtime value model for the MiniJava VM.
//
// Values are a small tagged union: Java's primitive widths are tracked
// exactly (int wraps at 32 bits, long at 64) because JEPO's long→int and
// double→float refactorings are only legal when the observable behaviour is
// preserved — the semantic-preservation tests depend on faithful widths.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace jepo::jvm {

enum class ValKind : std::uint8_t {
  kNull,
  kBool,
  kByte,
  kShort,
  kInt,
  kLong,
  kChar,
  kFloat,
  kDouble,
  kRef,  // index into the Heap (string, builder, array, object, boxed)
};

using Ref = std::uint32_t;

/// Sentinel for "no object": used by lazy literal pools, the row-load
/// cache, and the GC forwarding table for objects that did not survive a
/// collection. Never a valid heap index (the heap caps out well below 2^32).
inline constexpr Ref kInvalidRef = 0xFFFFFFFFu;

struct Value {
  ValKind kind = ValKind::kNull;
  union {
    std::int64_t i;
    double d;
    Ref ref;
  };

  Value() : i(0) {}

  static Value null() { return Value{}; }
  static Value ofBool(bool b) { return make(ValKind::kBool, b ? 1 : 0); }
  static Value ofByte(std::int64_t v) {
    return make(ValKind::kByte, static_cast<std::int8_t>(v));
  }
  static Value ofShort(std::int64_t v) {
    return make(ValKind::kShort, static_cast<std::int16_t>(v));
  }
  static Value ofInt(std::int64_t v) {
    return make(ValKind::kInt, static_cast<std::int32_t>(v));
  }
  static Value ofLong(std::int64_t v) { return make(ValKind::kLong, v); }
  static Value ofChar(std::int64_t v) {
    return make(ValKind::kChar, static_cast<std::uint16_t>(v));
  }
  static Value ofFloat(double v) {
    Value out;
    out.kind = ValKind::kFloat;
    out.d = static_cast<float>(v);  // round through binary32
    return out;
  }
  static Value ofDouble(double v) {
    Value out;
    out.kind = ValKind::kDouble;
    out.d = v;
    return out;
  }
  static Value ofRef(Ref r) {
    Value out;
    out.kind = ValKind::kRef;
    out.ref = r;
    return out;
  }

  bool isNull() const noexcept { return kind == ValKind::kNull; }
  bool isRef() const noexcept { return kind == ValKind::kRef; }
  bool isIntegral() const noexcept {
    return kind == ValKind::kByte || kind == ValKind::kShort ||
           kind == ValKind::kInt || kind == ValKind::kLong ||
           kind == ValKind::kChar;
  }
  bool isFloating() const noexcept {
    return kind == ValKind::kFloat || kind == ValKind::kDouble;
  }
  bool isNumeric() const noexcept { return isIntegral() || isFloating(); }

  // Typed accessors. A program that uses a value as the wrong type (say
  // `int x = 5; if (x) {}`) raises a VmError naming both types.
  std::int64_t asInt() const {
    if (!isIntegral() && kind != ValKind::kBool) {
      raiseTypeError(kind, "an integral value");
    }
    return i;
  }
  double asDouble() const {
    if (isFloating()) return d;
    if (!isIntegral()) raiseTypeError(kind, "a numeric value");
    return static_cast<double>(i);
  }
  bool asBool() const {
    if (kind != ValKind::kBool) raiseTypeError(kind, "a boolean");
    return i != 0;
  }
  Ref asRef() const {
    if (kind != ValKind::kRef) raiseTypeError(kind, "a reference");
    return ref;
  }

 private:
  /// Out of line and cold, so the accessors above stay one compare; takes
  /// the kind by value so no accessor's Value has to live in memory.
  [[noreturn, gnu::cold]] static void raiseTypeError(ValKind actual,
                                                     const char* expected);

  static Value make(ValKind k, std::int64_t v) {
    Value out;
    out.kind = k;
    out.i = v;
    return out;
  }
};

std::string_view valKindName(ValKind k) noexcept;

}  // namespace jepo::jvm
