// BuiltinLibrary implementation. Each builtin charges the ops a JIT-compiled
// Java implementation would execute, so Table I's String / Arrays / wrapper
// suggestions are measurable on either engine.
#include "jvm/builtins.hpp"

#include <cmath>
#include <cstdio>

#include "jlang/resolve.hpp"
#include "jvm/engine.hpp"  // Thrown
#include "support/strings.hpp"

namespace jepo::jvm {

using energy::Op;

namespace {

/// Java-flavored float/double rendering: always shows a decimal point.
std::string renderFloating(double v, bool isFloat) {
  char buf[64];
  std::snprintf(buf, sizeof buf, isFloat ? "%.7g" : "%.10g", v);
  std::string s = buf;
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

}  // namespace

BuiltinLibrary::BuiltinLibrary(
    Heap& heap, energy::SimMachine& machine, std::string& out,
    std::function<bool(const std::string&)> isProgramClass)
    : heap_(&heap),
      machine_(&machine),
      out_(&out),
      isProgramClass_(std::move(isProgramClass)) {}

// The class-name predicates live in jlang (the resolver classifies names
// with them); these wrappers keep the historical call sites working.
bool BuiltinLibrary::isBuiltinClassName(const std::string& name) {
  return jlang::isBuiltinClassName(name);
}

bool BuiltinLibrary::isWrapperClassName(const std::string& name) {
  return jlang::isWrapperClassName(name);
}

bool BuiltinLibrary::looksLikeExceptionClass(const std::string& name) {
  return jlang::looksLikeExceptionClass(name);
}

Value BuiltinLibrary::makeString(std::string s) {
  return Value::ofRef(heap_->allocString(std::move(s)));
}

const std::string& BuiltinLibrary::stringAt(Ref r) const {
  const HeapObject& o = heap_->get(r);
  JEPO_REQUIRE(o.kind == ObjKind::kString || o.kind == ObjKind::kBuilder,
               "reference is not a string");
  return o.text;
}

void BuiltinLibrary::throwJava(const std::string& className,
                               const std::string& message) {
  charge(Op::kThrow);
  const Ref r =
      heap_->allocObject(className, jlang::builtinExceptionLayout());
  heap_->get(r).fields[0] = makeString(message);  // "message" at offset 0
  throw Thrown{Value::ofRef(r)};
}

Value BuiltinLibrary::box(const std::string& wrapper, Value inner) {
  charge(wrapper == "Integer" ? Op::kBoxInteger : Op::kBoxOther);
  return Value::ofRef(heap_->allocBoxed(wrapper, inner));
}

Value BuiltinLibrary::unboxIfNeeded(Value v) {
  if (v.isRef()) {
    const HeapObject& ho = heap_->get(v.asRef());
    if (ho.kind == ObjKind::kBoxed) {
      charge(Op::kUnbox);
      return ho.boxed;
    }
  }
  return v;
}

std::string BuiltinLibrary::display(const Value& v) const {
  switch (v.kind) {
    case ValKind::kNull: return "null";
    case ValKind::kBool: return v.i != 0 ? "true" : "false";
    case ValKind::kByte:
    case ValKind::kShort:
    case ValKind::kInt:
    case ValKind::kLong: return std::to_string(v.i);
    case ValKind::kChar: return std::string(1, static_cast<char>(v.i));
    case ValKind::kFloat: return renderFloating(v.d, true);
    case ValKind::kDouble: return renderFloating(v.d, false);
    case ValKind::kRef: {
      const HeapObject& o = heap_->get(v.ref);
      switch (o.kind) {
        case ObjKind::kString:
        case ObjKind::kBuilder: return o.text;
        case ObjKind::kBoxed: return display(o.boxed);
        case ObjKind::kArray:
          return "[array of " + std::to_string(o.elems.size()) + "]";
        case ObjKind::kObject: {
          const int msgIdx =
              o.layout != nullptr ? o.layout->indexOfName("message") : -1;
          if (msgIdx >= 0) {
            return o.className + ": " +
                   display(o.fields[static_cast<std::size_t>(msgIdx)]);
          }
          // Identity rendering uses the stable allocation ordinal, not the
          // (GC-relocatable) Ref, so output is compaction-invariant.
          return o.className + "@" + std::to_string(o.id);
        }
      }
      return "?";
    }
  }
  return "?";
}

void BuiltinLibrary::print(const Value* v, bool newline) {
  std::string text;
  if (v != nullptr) {
    text = v->isRef() && heap_->get(v->asRef()).kind == ObjKind::kString
               ? stringAt(v->asRef())
               : display(*v);
  }
  if (newline) text += '\n';
  charge(Op::kPrintChar, text.size());
  *out_ += text;
}

bool BuiltinLibrary::staticField(const std::string& className,
                                 const std::string& field, Value* out) {
  auto hit = [&](Value v) {
    charge(Op::kStaticAccess);
    *out = v;
    return true;
  };
  if (className == "Integer") {
    if (field == "MAX_VALUE") return hit(Value::ofInt(2147483647));
    if (field == "MIN_VALUE") return hit(Value::ofInt(-2147483648LL));
  } else if (className == "Long") {
    if (field == "MAX_VALUE") {
      return hit(Value::ofLong(9223372036854775807LL));
    }
    if (field == "MIN_VALUE") {
      return hit(Value::ofLong(static_cast<std::int64_t>(1) << 63));
    }
  } else if (className == "Short") {
    if (field == "MAX_VALUE") return hit(Value::ofShort(32767));
    if (field == "MIN_VALUE") return hit(Value::ofShort(-32768));
  } else if (className == "Byte") {
    if (field == "MAX_VALUE") return hit(Value::ofByte(127));
    if (field == "MIN_VALUE") return hit(Value::ofByte(-128));
  } else if (className == "Double") {
    if (field == "MAX_VALUE") {
      return hit(Value::ofDouble(1.7976931348623157e308));
    }
    if (field == "MIN_VALUE") return hit(Value::ofDouble(4.9e-324));
  } else if (className == "Float") {
    if (field == "MAX_VALUE") return hit(Value::ofFloat(3.4028235e38));
  } else if (className == "Math") {
    if (field == "PI") return hit(Value::ofDouble(3.141592653589793));
    if (field == "E") return hit(Value::ofDouble(2.718281828459045));
  }
  return false;
}

bool BuiltinLibrary::staticCall(const std::string& className,
                                const std::string& name,
                                std::vector<Value>& args, Value* out) {
  if (className == "Math") {
    for (auto& a : args) a = unboxIfNeeded(a);
    auto oneD = [&] { return args.at(0).asDouble(); };
    const bool allIntegral = [&] {
      for (const auto& a : args) {
        if (!a.isIntegral()) return false;
      }
      return !args.empty();
    }();
    if (name == "min" || name == "max") {
      JEPO_REQUIRE(args.size() == 2, "Math.min/max take two arguments");
      if (allIntegral) {
        charge(Op::kIntAlu, 2);
        const std::int64_t x = args[0].asInt();
        const std::int64_t y = args[1].asInt();
        const std::int64_t r = name == "min" ? std::min(x, y) : std::max(x, y);
        const ValKind pk = args[0].kind == ValKind::kLong ||
                                   args[1].kind == ValKind::kLong
                               ? ValKind::kLong
                               : ValKind::kInt;
        *out = pk == ValKind::kLong ? Value::ofLong(r) : Value::ofInt(r);
        return true;
      }
      charge(Op::kDoubleAlu, 2);
      const double x = args[0].asDouble();
      const double y = args[1].asDouble();
      *out = Value::ofDouble(name == "min" ? std::fmin(x, y)
                                           : std::fmax(x, y));
      return true;
    }
    if (name == "abs") {
      JEPO_REQUIRE(args.size() == 1, "Math.abs takes one argument");
      if (allIntegral) {
        charge(Op::kIntAlu, 2);
        const std::int64_t x = args[0].asInt();
        *out = args[0].kind == ValKind::kLong ? Value::ofLong(x < 0 ? -x : x)
                                              : Value::ofInt(x < 0 ? -x : x);
        return true;
      }
      charge(Op::kDoubleAlu);
      *out = Value::ofDouble(std::fabs(oneD()));
      return true;
    }
    charge(Op::kDoubleMath);
    if (name == "sqrt") { *out = Value::ofDouble(std::sqrt(oneD())); return true; }
    if (name == "exp") { *out = Value::ofDouble(std::exp(oneD())); return true; }
    if (name == "log") { *out = Value::ofDouble(std::log(oneD())); return true; }
    if (name == "pow") {
      *out = Value::ofDouble(std::pow(oneD(), args.at(1).asDouble()));
      return true;
    }
    if (name == "floor") { *out = Value::ofDouble(std::floor(oneD())); return true; }
    if (name == "ceil") { *out = Value::ofDouble(std::ceil(oneD())); return true; }
    if (name == "round") {
      *out = Value::ofLong(std::llround(oneD()));
      return true;
    }
    throw VmError("unknown Math method " + name);
  }

  if (className == "System") {
    if (name == "arraycopy") {
      JEPO_REQUIRE(args.size() == 5, "System.arraycopy takes five arguments");
      if (args[0].isNull() || args[2].isNull()) {
        throwJava("NullPointerException", "arraycopy on null array");
      }
      HeapObject& src = heap_->get(args[0].asRef());
      const std::int64_t srcPos = args[1].asInt();
      HeapObject& dst = heap_->get(args[2].asRef());
      const std::int64_t dstPos = args[3].asInt();
      const std::int64_t len = args[4].asInt();
      JEPO_REQUIRE(src.kind == ObjKind::kArray && dst.kind == ObjKind::kArray,
                   "arraycopy operands must be arrays");
      if (len < 0 || srcPos < 0 || dstPos < 0 ||
          srcPos + len > static_cast<std::int64_t>(src.elems.size()) ||
          dstPos + len > static_cast<std::int64_t>(dst.elems.size())) {
        throwJava("ArrayIndexOutOfBoundsException", "arraycopy bounds");
      }
      charge(Op::kArraycopyPerElem, static_cast<std::uint64_t>(len));
      if (&src == &dst && dstPos > srcPos) {
        for (std::int64_t i = len - 1; i >= 0; --i) {
          dst.elems[static_cast<std::size_t>(dstPos + i)] =
              src.elems[static_cast<std::size_t>(srcPos + i)];
        }
      } else {
        for (std::int64_t i = 0; i < len; ++i) {
          dst.elems[static_cast<std::size_t>(dstPos + i)] =
              src.elems[static_cast<std::size_t>(srcPos + i)];
        }
      }
      *out = Value::null();
      return true;
    }
    if (name == "currentTimeMillis") {
      machine_->sync();
      charge(Op::kCall);
      *out = Value::ofLong(static_cast<std::int64_t>(machine_->seconds() * 1e3));
      return true;
    }
    if (name == "nanoTime") {
      machine_->sync();
      charge(Op::kCall);
      *out = Value::ofLong(static_cast<std::int64_t>(machine_->seconds() * 1e9));
      return true;
    }
    throw VmError("unknown System method " + name);
  }

  if (isWrapperClassName(className)) {
    if (name == "valueOf") {
      JEPO_REQUIRE(args.size() == 1, "valueOf takes one argument");
      *out = box(className, unboxIfNeeded(args[0]));
      return true;
    }
    if (name == "parseInt" || name == "parseLong") {
      const std::string& s = stringAt(args.at(0).asRef());
      charge(Op::kIntAlu, s.size() + 1);
      try {
        const std::int64_t v = std::stoll(s);
        *out = name == "parseInt" ? Value::ofInt(v) : Value::ofLong(v);
      } catch (const std::exception&) {
        throwJava("NumberFormatException", s);
      }
      return true;
    }
    if (name == "parseDouble" || name == "parseFloat") {
      const std::string& s = stringAt(args.at(0).asRef());
      charge(Op::kDoubleAlu, s.size() + 1);
      try {
        const double v = std::stod(s);
        *out = name == "parseFloat" ? Value::ofFloat(v) : Value::ofDouble(v);
      } catch (const std::exception&) {
        throwJava("NumberFormatException", s);
      }
      return true;
    }
    if (name == "toString") {
      const std::string s = display(unboxIfNeeded(args.at(0)));
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, s.size());
      *out = makeString(s);
      return true;
    }
    throw VmError("unknown " + className + " method " + name);
  }

  if (className == "String") {
    if (name == "valueOf") {
      const std::string s = display(unboxIfNeeded(args.at(0)));
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, s.size());
      *out = makeString(s);
      return true;
    }
    throw VmError("unknown String static method " + name);
  }

  return false;
}

bool BuiltinLibrary::instanceCall(Value receiver, const std::string& name,
                                  std::vector<Value>& args, Value* out) {
  if (!receiver.isRef()) return false;
  HeapObject& self = heap_->get(receiver.asRef());

  // ----------------------------------------------------------- String
  if (self.kind == ObjKind::kString) {
    const std::string& s = self.text;
    if (name == "length") {
      charge(Op::kIntAlu);
      *out = Value::ofInt(static_cast<std::int64_t>(s.size()));
      return true;
    }
    if (name == "isEmpty") {
      charge(Op::kIntAlu);
      *out = Value::ofBool(s.empty());
      return true;
    }
    if (name == "charAt") {
      const std::int64_t i = args.at(0).asInt();
      if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
        throwJava("StringIndexOutOfBoundsException", std::to_string(i));
      }
      charge(Op::kArrayAccess);
      *out = Value::ofChar(static_cast<unsigned char>(s[i]));
      return true;
    }
    if (name == "equals" || name == "compareTo") {
      if (!args.at(0).isRef()) {
        charge(Op::kIntAlu);
        *out = name == "equals" ? Value::ofBool(false) : Value::ofInt(1);
        return true;
      }
      const HeapObject& other = heap_->get(args[0].asRef());
      if (other.kind != ObjKind::kString) {
        charge(Op::kIntAlu);
        *out = name == "equals" ? Value::ofBool(false) : Value::ofInt(1);
        return true;
      }
      // Chars compared until first mismatch — the per-char op differs
      // between equals and compareTo (Table I: compareTo +33 %).
      const std::string& t = other.text;
      std::size_t i = 0;
      const std::size_t limit = std::min(s.size(), t.size());
      while (i < limit && s[i] == t[i]) ++i;
      const std::uint64_t compared = i + 1;
      if (name == "equals") {
        charge(Op::kStringEqualsChar, compared);
        *out = Value::ofBool(s == t);
      } else {
        charge(Op::kStringCompareToChar, compared);
        int cmp = 0;
        if (i < limit) {
          cmp = static_cast<unsigned char>(s[i]) -
                static_cast<unsigned char>(t[i]);
        } else {
          cmp = static_cast<int>(s.size()) - static_cast<int>(t.size());
        }
        *out = Value::ofInt(cmp);
      }
      return true;
    }
    if (name == "concat") {
      const std::string& t = stringAt(args.at(0).asRef());
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, s.size() + t.size());
      *out = makeString(s + t);
      return true;
    }
    if (name == "substring") {
      const std::int64_t b = args.at(0).asInt();
      const std::int64_t e2 = args.size() > 1
                                  ? args[1].asInt()
                                  : static_cast<std::int64_t>(s.size());
      if (b < 0 || e2 < b || static_cast<std::size_t>(e2) > s.size()) {
        throwJava("StringIndexOutOfBoundsException",
                  std::to_string(b) + ".." + std::to_string(e2));
      }
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, static_cast<std::uint64_t>(e2 - b));
      *out = makeString(s.substr(static_cast<std::size_t>(b),
                                 static_cast<std::size_t>(e2 - b)));
      return true;
    }
    if (name == "indexOf") {
      std::string needle;
      if (args.at(0).isRef()) {
        needle = stringAt(args[0].asRef());
      } else {
        needle = std::string(1, static_cast<char>(args[0].asInt()));
      }
      const auto pos = s.find(needle);
      charge(Op::kStringEqualsChar, s.size() + 1);
      *out = Value::ofInt(pos == std::string::npos
                              ? -1
                              : static_cast<std::int64_t>(pos));
      return true;
    }
    if (name == "startsWith" || name == "endsWith") {
      const std::string& t = stringAt(args.at(0).asRef());
      charge(Op::kStringEqualsChar, t.size() + 1);
      *out = Value::ofBool(name == "startsWith" ? startsWith(s, t)
                                                : endsWith(s, t));
      return true;
    }
    if (name == "toString") {
      charge(Op::kIntAlu);
      *out = receiver;
      return true;
    }
    if (name == "hashCode") {
      charge(Op::kIntAlu, s.size() + 1);
      // Java's wrapping int arithmetic, without signed-overflow UB.
      std::uint32_t h = 0;
      for (char c : s) h = 31u * h + static_cast<unsigned char>(c);
      *out = Value::ofInt(static_cast<std::int32_t>(h));
      return true;
    }
    throw VmError("unknown String method " + name);
  }

  // ------------------------------------------------------ StringBuilder
  if (self.kind == ObjKind::kBuilder) {
    if (name == "append") {
      const Value arg = args.at(0);
      std::string piece;
      if (arg.isRef()) {
        const HeapObject& o = heap_->get(arg.asRef());
        piece = (o.kind == ObjKind::kString || o.kind == ObjKind::kBuilder)
                    ? o.text
                    : display(arg);
      } else {
        piece = display(arg);
      }
      charge(Op::kBuilderAppendChar, piece.size());
      heap_->get(receiver.asRef()).text += piece;
      *out = receiver;  // fluent API
      return true;
    }
    if (name == "toString") {
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, self.text.size());
      *out = makeString(self.text);
      return true;
    }
    if (name == "length") {
      charge(Op::kIntAlu);
      *out = Value::ofInt(static_cast<std::int64_t>(self.text.size()));
      return true;
    }
    if (name == "setLength") {
      const std::int64_t n = args.at(0).asInt();
      JEPO_REQUIRE(n >= 0, "setLength negative");
      charge(Op::kIntAlu);
      heap_->get(receiver.asRef()).text.resize(static_cast<std::size_t>(n));
      *out = Value::null();
      return true;
    }
    throw VmError("unknown StringBuilder method " + name);
  }

  // ------------------------------------------------------------- Boxed
  if (self.kind == ObjKind::kBoxed) {
    if (name == "intValue" || name == "longValue" || name == "doubleValue" ||
        name == "floatValue" || name == "shortValue" || name == "byteValue") {
      charge(Op::kUnbox);
      const Value inner = self.boxed;
      auto toInt = [&] {
        return inner.isFloating() ? static_cast<std::int64_t>(inner.asDouble())
                                  : inner.asInt();
      };
      if (name == "intValue") *out = Value::ofInt(toInt());
      else if (name == "longValue") *out = Value::ofLong(toInt());
      else if (name == "doubleValue") *out = Value::ofDouble(inner.asDouble());
      else if (name == "floatValue") *out = Value::ofFloat(inner.asDouble());
      else if (name == "shortValue") *out = Value::ofShort(toInt());
      else *out = Value::ofByte(toInt());
      return true;
    }
    if (name == "equals") {
      charge(Op::kUnbox);
      charge(Op::kIntAlu);
      const Value other = unboxIfNeeded(args.at(0));
      const Value inner = self.boxed;
      bool eq = false;
      if (inner.isNumeric() && other.isNumeric()) {
        eq = inner.isFloating() || other.isFloating()
                 ? inner.asDouble() == other.asDouble()
                 : inner.asInt() == other.asInt();
      }
      *out = Value::ofBool(eq);
      return true;
    }
    if (name == "toString") {
      const std::string s = display(self.boxed);
      charge(Op::kStringAlloc);
      charge(Op::kStringCharCopy, s.size());
      *out = makeString(s);
      return true;
    }
    throw VmError("unknown wrapper method " + name);
  }

  // -------------------------------------------- Exception-style objects
  if (self.kind == ObjKind::kObject && !isProgramClass_(self.className)) {
    if (name == "getMessage") {
      charge(Op::kFieldAccess);
      const int msgIdx =
          self.layout != nullptr ? self.layout->indexOfName("message") : -1;
      *out = msgIdx >= 0 ? self.fields[static_cast<std::size_t>(msgIdx)]
                         : Value::null();
      return true;
    }
    throw VmError("unknown method " + name + " on " + self.className);
  }

  return false;
}

bool BuiltinLibrary::construct(const std::string& className,
                               std::vector<Value>& args, Value* out) {
  if (className == "StringBuilder") {
    charge(Op::kAllocObject);
    const Ref r = heap_->allocBuilder();
    if (!args.empty()) {
      JEPO_REQUIRE(args.size() == 1 && args[0].isRef(),
                   "StringBuilder(String) expects one string");
      heap_->get(r).text = stringAt(args[0].asRef());
      charge(Op::kBuilderAppendChar, heap_->get(r).text.size());
    }
    *out = Value::ofRef(r);
    return true;
  }
  if (className == "String") {
    charge(Op::kAllocObject);
    std::string text = args.empty() ? "" : stringAt(args.at(0).asRef());
    charge(Op::kStringCharCopy, text.size());
    *out = makeString(std::move(text));
    return true;
  }
  if (!isProgramClass_(className) && looksLikeExceptionClass(className)) {
    charge(Op::kAllocObject);
    const Ref r =
        heap_->allocObject(className, jlang::builtinExceptionLayout());
    Value msg = args.empty() ? makeString("") : args[0];
    heap_->get(r).fields[0] = msg;  // "message" at offset 0
    *out = Value::ofRef(r);
    return true;
  }
  return false;
}

}  // namespace jepo::jvm
