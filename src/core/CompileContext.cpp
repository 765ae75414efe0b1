//===- core/CompileContext.cpp - Per-thread compile scratch memory --------==//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/CompileContext.h"

using namespace tcc;
using namespace tcc::core;

CompileContext &CompileContext::forCurrentThread() {
  static thread_local CompileContext Ctx;
  return Ctx;
}
