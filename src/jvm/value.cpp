#include "jvm/value.hpp"

#include "support/error.hpp"

namespace jepo::jvm {

std::string_view valKindName(ValKind k) noexcept {
  switch (k) {
    case ValKind::kNull: return "null";
    case ValKind::kBool: return "boolean";
    case ValKind::kByte: return "byte";
    case ValKind::kShort: return "short";
    case ValKind::kInt: return "int";
    case ValKind::kLong: return "long";
    case ValKind::kChar: return "char";
    case ValKind::kFloat: return "float";
    case ValKind::kDouble: return "double";
    case ValKind::kRef: return "reference";
  }
  return "?";
}

void Value::raiseTypeError(ValKind actual, const char* expected) {
  throw VmError("type error: " + std::string(valKindName(actual)) +
                " value used where " + expected + " is required");
}

}  // namespace jepo::jvm
