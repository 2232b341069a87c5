#include "jvm/ops.hpp"

#include <cmath>

#include "jvm/engine.hpp"  // Thrown

namespace jepo::jvm {

using energy::Op;
using jlang::BinOp;
using jlang::Prim;

ValKind promoteKinds(ValKind a, ValKind b) noexcept {
  if (a == ValKind::kDouble || b == ValKind::kDouble) return ValKind::kDouble;
  if (a == ValKind::kFloat || b == ValKind::kFloat) return ValKind::kFloat;
  if (a == ValKind::kLong || b == ValKind::kLong) return ValKind::kLong;
  return ValKind::kInt;
}

std::int64_t wrapToKind(std::int64_t v, ValKind k) noexcept {
  switch (k) {
    case ValKind::kByte: return static_cast<std::int8_t>(v);
    case ValKind::kShort: return static_cast<std::int16_t>(v);
    case ValKind::kInt: return static_cast<std::int32_t>(v);
    case ValKind::kChar: return static_cast<std::uint16_t>(v);
    default: return v;
  }
}

ValKind kindOfType(const jlang::TypeRef& t) noexcept {
  if (t.arrayDims > 0) return ValKind::kRef;
  switch (t.prim) {
    case Prim::kByte: return ValKind::kByte;
    case Prim::kShort: return ValKind::kShort;
    case Prim::kInt: return ValKind::kInt;
    case Prim::kLong: return ValKind::kLong;
    case Prim::kFloat: return ValKind::kFloat;
    case Prim::kDouble: return ValKind::kDouble;
    case Prim::kChar: return ValKind::kChar;
    case Prim::kBoolean: return ValKind::kBool;
    case Prim::kVoid:
    case Prim::kClass: return ValKind::kRef;
  }
  return ValKind::kRef;
}

Value coerceToKind(Value v, ValKind k, BuiltinLibrary& lib, int line) {
  if (v.kind == k) return v;
  if (k == ValKind::kRef) return v;  // refs/null pass; boxing is explicit
  v = lib.unboxIfNeeded(v);
  if (v.kind == k) return v;
  if (k == ValKind::kBool) {
    JEPO_REQUIRE(v.kind == ValKind::kBool,
                 "cannot convert to boolean at line " + std::to_string(line));
    return v;
  }
  JEPO_REQUIRE(v.isNumeric(), "cannot convert non-numeric value at line " +
                                  std::to_string(line));
  const std::int64_t asI =
      v.isFloating() ? static_cast<std::int64_t>(v.asDouble()) : v.asInt();
  switch (k) {
    case ValKind::kByte: return Value::ofByte(asI);
    case ValKind::kShort: return Value::ofShort(asI);
    case ValKind::kInt: return Value::ofInt(asI);
    case ValKind::kLong: return Value::ofLong(asI);
    case ValKind::kChar: return Value::ofChar(asI);
    case ValKind::kFloat: return Value::ofFloat(v.asDouble());
    case ValKind::kDouble: return Value::ofDouble(v.asDouble());
    default:
      throw VmError("bad conversion at line " + std::to_string(line));
  }
}

namespace {

bool isSubIntWidth(ValKind k) {
  return k == ValKind::kByte || k == ValKind::kShort;
}

bool isComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt:
    case BinOp::kGt:
    case BinOp::kLe:
    case BinOp::kGe:
    case BinOp::kEq:
    case BinOp::kNe:
      return true;
    default:
      return false;
  }
}

Value arith(BinOp op, Value a, Value b, BuiltinLibrary& lib,
            energy::SimMachine& machine, int line) {
  a = lib.unboxIfNeeded(a);
  b = lib.unboxIfNeeded(b);
  JEPO_REQUIRE(a.isNumeric() && b.isNumeric(),
               "arithmetic on non-numeric values at line " +
                   std::to_string(line));
  if (isSubIntWidth(a.kind) || isSubIntWidth(b.kind)) {
    machine.charge(Op::kByteShortAlu);  // widening of sub-int operands
  }
  const ValKind pk = promoteKinds(a.kind, b.kind);
  const bool isDiv = op == BinOp::kDiv;
  const bool isMod = op == BinOp::kMod;
  switch (pk) {
    case ValKind::kInt:
      machine.charge(isMod ? Op::kIntMod : isDiv ? Op::kIntDiv : Op::kIntAlu);
      break;
    case ValKind::kLong:
      machine.charge(isMod ? Op::kLongMod
                           : isDiv ? Op::kLongDiv : Op::kLongAlu);
      break;
    case ValKind::kFloat:
      machine.charge(isDiv || isMod ? Op::kFloatDiv : Op::kFloatAlu);
      break;
    case ValKind::kDouble:
      machine.charge(isDiv || isMod ? Op::kDoubleDiv : Op::kDoubleAlu);
      break;
    default:
      JEPO_ASSERT(false);
  }

  if (pk == ValKind::kInt || pk == ValKind::kLong) {
    const std::int64_t x = a.asInt();
    const std::int64_t y = b.asInt();
    std::int64_t r = 0;
    switch (op) {
      case BinOp::kAdd:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                      static_cast<std::uint64_t>(y));
        break;
      case BinOp::kSub:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                      static_cast<std::uint64_t>(y));
        break;
      case BinOp::kMul:
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                      static_cast<std::uint64_t>(y));
        break;
      case BinOp::kDiv:
        if (y == 0) lib.throwJava("ArithmeticException", "/ by zero");
        r = x / y;
        break;
      case BinOp::kMod:
        if (y == 0) lib.throwJava("ArithmeticException", "% by zero");
        r = x % y;
        break;
      case BinOp::kBitAnd: r = x & y; break;
      case BinOp::kBitOr: r = x | y; break;
      case BinOp::kBitXor: r = x ^ y; break;
      case BinOp::kShl:
        r = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(x)
            << (y & (pk == ValKind::kInt ? 31 : 63)));
        break;
      case BinOp::kShr:
        r = x >> (y & (pk == ValKind::kInt ? 31 : 63));
        break;
      default:
        throw Error("not an arithmetic operator");
    }
    return pk == ValKind::kInt ? Value::ofInt(wrapToKind(r, ValKind::kInt))
                               : Value::ofLong(r);
  }

  const double x = a.asDouble();
  const double y = b.asDouble();
  double r = 0.0;
  switch (op) {
    case BinOp::kAdd: r = x + y; break;
    case BinOp::kSub: r = x - y; break;
    case BinOp::kMul: r = x * y; break;
    case BinOp::kDiv: r = x / y; break;
    case BinOp::kMod: r = std::fmod(x, y); break;
    default:
      throw Error("bitwise operator on floating-point operands");
  }
  return pk == ValKind::kFloat ? Value::ofFloat(r) : Value::ofDouble(r);
}

Value compare(BinOp op, Value a, Value b, BuiltinLibrary& lib,
              energy::SimMachine& machine) {
  a = lib.unboxIfNeeded(a);
  b = lib.unboxIfNeeded(b);
  JEPO_REQUIRE(a.isNumeric() && b.isNumeric(), "comparison on non-numerics");
  const ValKind pk = promoteKinds(a.kind, b.kind);
  switch (pk) {
    case ValKind::kInt: machine.charge(Op::kIntAlu); break;
    case ValKind::kLong: machine.charge(Op::kLongAlu); break;
    case ValKind::kFloat: machine.charge(Op::kFloatAlu); break;
    default: machine.charge(Op::kDoubleAlu); break;
  }
  bool r = false;
  if (pk == ValKind::kInt || pk == ValKind::kLong) {
    const std::int64_t x = a.asInt();
    const std::int64_t y = b.asInt();
    switch (op) {
      case BinOp::kLt: r = x < y; break;
      case BinOp::kGt: r = x > y; break;
      case BinOp::kLe: r = x <= y; break;
      case BinOp::kGe: r = x >= y; break;
      case BinOp::kEq: r = x == y; break;
      case BinOp::kNe: r = x != y; break;
      default: throw Error("not a comparison operator");
    }
  } else {
    const double x = a.asDouble();
    const double y = b.asDouble();
    switch (op) {
      case BinOp::kLt: r = x < y; break;
      case BinOp::kGt: r = x > y; break;
      case BinOp::kLe: r = x <= y; break;
      case BinOp::kGe: r = x >= y; break;
      case BinOp::kEq: r = x == y; break;
      case BinOp::kNe: r = x != y; break;
      default: throw Error("not a comparison operator");
    }
  }
  return Value::ofBool(r);
}

}  // namespace

Value applyBinary(BinOp op, Value a, Value b, Heap& heap, BuiltinLibrary& lib,
                  energy::SimMachine& machine, int line) {
  // String concatenation.
  const bool aIsString =
      a.isRef() && heap.get(a.asRef()).kind == ObjKind::kString;
  const bool bIsString =
      b.isRef() && heap.get(b.asRef()).kind == ObjKind::kString;
  if (op == BinOp::kAdd && (aIsString || bIsString)) {
    std::string lhs = aIsString ? heap.get(a.asRef()).text : lib.display(a);
    std::string rhs = bIsString ? heap.get(b.asRef()).text : lib.display(b);
    machine.charge(Op::kStringAlloc);
    machine.charge(Op::kStringCharCopy, lhs.size() + rhs.size());
    return Value::ofRef(heap.allocString(lhs + rhs));
  }

  // Reference / null (in)equality.
  if ((op == BinOp::kEq || op == BinOp::kNe) &&
      (a.isRef() || a.isNull() || b.isRef() || b.isNull()) &&
      !(a.isNumeric() && b.isNumeric())) {
    machine.charge(Op::kIntAlu);
    bool same = false;
    if (a.isNull() && b.isNull()) {
      same = true;
    } else if (a.isRef() && b.isRef()) {
      same = a.asRef() == b.asRef();
    } else if (a.kind == ValKind::kBool && b.kind == ValKind::kBool) {
      same = a.asBool() == b.asBool();
    }
    return Value::ofBool(op == BinOp::kEq ? same : !same);
  }

  // Boolean == / != and bitwise on booleans.
  if (a.kind == ValKind::kBool && b.kind == ValKind::kBool) {
    machine.charge(Op::kIntAlu);
    const bool x = a.asBool();
    const bool y = b.asBool();
    switch (op) {
      case BinOp::kEq: return Value::ofBool(x == y);
      case BinOp::kNe: return Value::ofBool(x != y);
      case BinOp::kBitAnd: return Value::ofBool(x && y);
      case BinOp::kBitOr: return Value::ofBool(x || y);
      case BinOp::kBitXor: return Value::ofBool(x != y);
      default:
        throw VmError("bad boolean operator at line " + std::to_string(line));
    }
  }

  if (isComparison(op)) return compare(op, a, b, lib, machine);
  return arith(op, a, b, lib, machine, line);
}

Value applyUnaryNeg(Value v, BuiltinLibrary& lib,
                    energy::SimMachine& machine) {
  v = lib.unboxIfNeeded(v);
  JEPO_REQUIRE(v.isNumeric(), "negating a non-numeric value");
  switch (promoteKinds(v.kind, ValKind::kInt)) {
    case ValKind::kInt:
      machine.charge(Op::kIntAlu);
      return Value::ofInt(wrapToKind(-v.asInt(), ValKind::kInt));
    case ValKind::kLong:
      machine.charge(Op::kLongAlu);
      return Value::ofLong(-v.asInt());
    case ValKind::kFloat:
      machine.charge(Op::kFloatAlu);
      return Value::ofFloat(-v.asDouble());
    default:
      machine.charge(Op::kDoubleAlu);
      return Value::ofDouble(-v.asDouble());
  }
}

Value applyUnaryNot(Value v, energy::SimMachine& machine) {
  machine.charge(Op::kIntAlu);
  return Value::ofBool(!v.asBool());
}

Value applyUnaryBitNot(Value v, BuiltinLibrary& lib,
                       energy::SimMachine& machine) {
  v = lib.unboxIfNeeded(v);
  if (v.kind == ValKind::kLong) {
    machine.charge(Op::kLongAlu);
    return Value::ofLong(~v.asInt());
  }
  machine.charge(Op::kIntAlu);
  return Value::ofInt(wrapToKind(~v.asInt(), ValKind::kInt));
}

}  // namespace jepo::jvm
