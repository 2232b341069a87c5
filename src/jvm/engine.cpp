#include "jvm/engine.hpp"

#include "jlang/resolve.hpp"

namespace jepo::jvm {

UncaughtException::UncaughtException(const Thrown& thrown, const Heap& heap)
    : UncaughtException(describe(thrown, heap)) {}

UncaughtException UncaughtException::describe(const Thrown& thrown,
                                              const Heap& heap) {
  const HeapObject& o = heap.get(thrown.exception.asRef());
  std::string message = "uncaught exception " + o.className;
  // Builtin exceptions carry "message" at offset 0; program classes may
  // declare a field of that name too.
  const int idx =
      o.layout != nullptr ? o.layout->indexOfName("message") : -1;
  if (idx >= 0 && static_cast<std::size_t>(idx) < o.fields.size()) {
    const Value& v = o.fields[static_cast<std::size_t>(idx)];
    if (v.isRef() && heap.get(v.asRef()).kind == ObjKind::kString) {
      message += ": " + heap.get(v.asRef()).text;
    }
  }
  return UncaughtException(o.className, message);
}

}  // namespace jepo::jvm
