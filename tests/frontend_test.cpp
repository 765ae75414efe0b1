//===- tests/frontend_test.cpp - Tick-C language tests --------------------===//
//
// Runs Tick-C programs end to end: the static half interpreted, backquoted
// code dynamically compiled to machine code. Includes the paper's own §3
// examples.
//
//===----------------------------------------------------------------------===//

#include "frontend/Interp.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <csignal>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::frontend;

namespace {

class TickCBothBackends : public ::testing::TestWithParam<BackendKind> {
protected:
  std::pair<int, std::string> run(const std::string &Src) {
    return runTickC(Src, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, TickCBothBackends,
                         ::testing::Values(BackendKind::VCode,
                                           BackendKind::PCode,
                                           BackendKind::ICode),
                         [](const auto &Info) {
                           return Info.param == BackendKind::VCode   ? "VCode"
                                  : Info.param == BackendKind::PCode ? "PCode"
                                                                     : "ICode";
                         });

TEST_P(TickCBothBackends, HelloWorld) {
  // Paper §3: dynamically specify and instantiate a hello-world procedure.
  auto [Code, Out] = run(R"(
    int main() {
      void cspec hello = `{ print_str("hello world\n"); };
      void* f = compile(hello, void);
      f();
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "hello world\n");
}

TEST_P(TickCBothBackends, ComposeFourPlusFive) {
  // Paper §3: int cspec c1 = `4, c2 = `5; c = `(c1 + c2).
  auto [Code, Out] = run(R"(
    int main() {
      int cspec c1 = `4;
      int cspec c2 = `5;
      int cspec c = `(c1 + c2);
      int* f = compile(c, int);
      return f();
    }
  )");
  EXPECT_EQ(Code, 9);
  (void)Out;
}

TEST_P(TickCBothBackends, DollarBindingTime) {
  // Paper §3: $x binds at specification time; the free variable x at run
  // time. Prints "$x = 1, x = 14".
  auto [Code, Out] = run(R"(
    int main() {
      int x = 1;
      void cspec spec = `{
        print_str("$x = "); print_int($x);
        print_str(", x = "); print_int(x);
      };
      void* fp = compile(spec, void);
      x = 14;
      fp();
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "$x = 1, x = 14");
}

TEST_P(TickCBothBackends, DynamicParamsAndLoop) {
  // Build pow-like code with params, a dynamic local, and a loop.
  auto [Code, Out] = run(R"(
    int main() {
      int vspec x = param(int, 0);
      int vspec n = param(int, 1);
      int cspec body = `{
        int r = 1;
        int i;
        for (i = 0; i < n; i++)
          r = r * x;
        return r;
      };
      int* p = compile(body, int);
      print_int(p(3, 4));
      print_str(" ");
      print_int(p(2, 10));
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "81 1024");
}

TEST_P(TickCBothBackends, SpecTimeCompositionLoop) {
  // The paper's first dot-product style: static loop composing cspecs.
  auto [Code, Out] = run(R"(
    int main() {
      int* row = alloc_int(4);
      row[0] = 2; row[1] = 0; row[2] = 3; row[3] = 1;
      int* vspec col = param(int*, 0);
      int cspec sum = `0;
      int k;
      for (k = 0; k < 4; k++) {
        if (row[k] != 0)
          sum = `(sum + col[$k] * $(row[k]));
      }
      int cspec body = `{ return sum; };
      int* dot = compile(body, int);
      int* c = alloc_int(4);
      c[0] = 10; c[1] = 20; c[2] = 30; c[3] = 40;
      return dot(c);
    }
  )");
  EXPECT_EQ(Code, 10 * 2 + 30 * 3 + 40 * 1);
  (void)Out;
}

TEST_P(TickCBothBackends, FreeVariableWrites) {
  // Dynamic code writing through a free variable.
  auto [Code, Out] = run(R"(
    int counter = 0;
    int main() {
      void cspec bump = `{ counter = counter + 5; };
      void* f = compile(bump, void);
      f(); f(); f();
      return counter;
    }
  )");
  EXPECT_EQ(Code, 15);
  (void)Out;
}

TEST_P(TickCBothBackends, RunTimeConstantFolding) {
  // $a * $b folds at instantiation time; result hardwired.
  auto [Code, Out] = run(R"(
    int main() {
      int a = 6;
      int b = 7;
      int cspec c = `($a * $b + 0);
      int* f = compile(c, int);
      a = 100; b = 100;
      return f();
    }
  )");
  EXPECT_EQ(Code, 42);
  (void)Out;
}

TEST_P(TickCBothBackends, DoubleDynamicCode) {
  auto [Code, Out] = run(R"(
    int main() {
      double vspec x = param(double, 0);
      double cspec c = `(x * x + 1.5);
      double* f = compile(c, double);
      print_double(f(2.0));
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "5.5");
}

TEST_P(TickCBothBackends, StaticInterpreterFeatures) {
  // No dynamic code: exercise the static half (functions, recursion,
  // arrays, while, compound assignment, ternary).
  auto [Code, Out] = run(R"(
    int fib(int n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      int* a = alloc_int(10);
      int i = 0;
      while (i < 10) { a[i] = fib(i); i++; }
      int sum = 0;
      for (i = 0; i < 10; i++) sum += a[i];
      print_int(sum);
      print_str(" ");
      print_int(sum > 80 ? 1 : 0);
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "88 1"); // fib(0..9) sums to 88
}

TEST_P(TickCBothBackends, GeneratedCodeCallsGeneratedCode) {
  // compile() one function, then splice calls to it into a second.
  auto [Code, Out] = run(R"(
    int main() {
      int vspec a = param(int, 0);
      int* twice = compile(`(a + a), int);
      int vspec b = param(int, 0);
      int cspec c = `(twice(b) + 1);
      int* f = compile(c, int);
      return f(20);
    }
  )");
  EXPECT_EQ(Code, 41);
  (void)Out;
}

TEST_P(TickCBothBackends, QueryCompilerInTickC) {
  // A miniature of the paper's query benchmark written *in* Tick-C.
  auto [Code, Out] = run(R"(
    int main() {
      int* ages = alloc_int(6);
      ages[0] = 25; ages[1] = 45; ages[2] = 61;
      ages[3] = 30; ages[4] = 52; ages[5] = 44;
      int lo = 40;
      int hi = 60;
      int vspec v = param(int, 0);
      int cspec match = `(v > $lo && v < $hi);
      int* q = compile(match, int);
      int n = 0;
      int i;
      for (i = 0; i < 6; i++)
        if (q(ages[i])) n++;
      return n;
    }
  )");
  EXPECT_EQ(Code, 3); // 45, 52, 44
  (void)Out;
}

// --- Compound assignment and ++/-- are A = A op B, in both halves ----------

TEST_P(TickCBothBackends, StaticPointerPlusAssignScales) {
  auto [Code, Out] = run(R"(
    int main() {
      int* a = alloc_int(2);
      a[0] = 10; a[1] = 20;
      int* p = a;
      p += 1;
      return *p;
    }
  )");
  EXPECT_EQ(Code, 20);
  (void)Out;
}

TEST_P(TickCBothBackends, StaticPointerIncrementScales) {
  auto [Code, Out] = run(R"(
    int main() {
      int* a = alloc_int(2);
      a[0] = 10; a[1] = 20;
      int* p = a;
      p++;
      return *p;
    }
  )");
  EXPECT_EQ(Code, 20);
  (void)Out;
}

TEST_P(TickCBothBackends, BackquotedPointerPlusAssignAndIncrementScale) {
  // Dynamic code advancing a captured int* stores the scaled pointer back
  // into the variable's pointer payload.
  auto [Code, Out] = run(R"(
    int main() {
      int* a = alloc_int(3);
      a[0] = 10; a[1] = 20; a[2] = 30;
      int* p = a;
      void* f = compile(`{ p += 1; }, void);
      f();
      print_int(*p);
      void* g = compile(`{ p++; }, void);
      g();
      print_int(*p);
      return 0;
    }
  )");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "2030");
}

TEST_P(TickCBothBackends, StaticDivideAssignByZeroIsAnError) {
  EXPECT_EXIT(run("int main() {\n"
                  "  int x = 7;\n"
                  "  int z = 0;\n"
                  "  x /= z;\n"
                  "  return x;\n"
                  "}\n"),
              ::testing::ExitedWithCode(1), "line 4: error: division by zero");
}

// --- One operator table for both halves ------------------------------------

/// One operator row: `Expr` over variables x and y, evaluated statically,
/// folded from `$x`/`$y`, and over parameters inside a backquote. \c Want
/// is the printed result; null when the operation traps.
struct OperatorRow {
  const char *TX, *X, *TY, *Y;
  const char *Expr;
  const char *RT;
  const char *Want;
};

const OperatorRow OperatorRows[] = {
    {"int", "2147483647", "int", "1", "x + y", "int", "-2147483648"},
    {"int", "1", "int", "31", "x << y", "int", "-2147483648"},
    {"int", "1", "int", "32", "x << y", "int", "1"},
    {"int", "1", "int", "33", "x << y", "int", "2"},
    {"int", "1", "int", "-1", "x << y", "int", "-2147483648"},
    {"int", "-2147483647 - 1", "int", "33", "x >> y", "int", "-1073741824"},
    {"long", "9223372036854775807", "long", "1", "x + y", "long",
     "-9223372036854775808"},
    {"long", "-9223372036854775807 - 1", "long", "0", "-x", "long",
     "-9223372036854775808"},
    {"int", "1", "double", "0.5", "x + y", "double", "1.5"},
    {"int", "7", "double", "2.0", "x / y", "double", "3.5"},
    {"int", "-3", "double", "0.5", "x * y", "double", "-1.5"},
    {"int", "3", "double", "3.5", "x < y", "int", "1"},
    // NaN compares read ucomisd's flags: unordered is "equal and below".
    {"double", "0.0 / 0.0", "double", "1.0", "x == y", "int", "1"},
    {"double", "0.0 / 0.0", "double", "1.0", "x != y", "int", "0"},
    {"double", "0.0 / 0.0", "double", "1.0", "x < y", "int", "1"},
    {"double", "0.0 / 0.0", "double", "1.0", "x <= y", "int", "1"},
    {"double", "0.0 / 0.0", "double", "1.0", "x > y", "int", "0"},
    {"double", "0.0 / 0.0", "double", "1.0", "x >= y", "int", "0"},
    // idiv's #DE.
    {"int", "-2147483647 - 1", "int", "-1", "x / y", "int", nullptr},
    {"int", "-2147483647 - 1", "int", "-1", "x % y", "int", nullptr},
    {"int", "7", "int", "0", "x / y", "int", nullptr},
};

/// \p Expr with x and y replaced by \p X and \p Y.
std::string substitute(const char *Expr, const char *X, const char *Y) {
  std::string R;
  for (const char *C = Expr; *C; ++C)
    R += *C == 'x' ? X : *C == 'y' ? Y : std::string(1, *C);
  return R;
}

TEST_P(TickCBothBackends, OperatorsAgreeAcrossHalves) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const OperatorRow &Row : OperatorRows) {
    std::string Print = std::string("print_") + Row.RT;
    std::string Decls = std::string("int main() {\n  ") + Row.TX + " x = " +
                        Row.X + ";\n  " + Row.TY + " y = " + Row.Y + ";\n";
    // Integer-class and double parameters are numbered separately.
    bool SameClass = (std::string(Row.TX) == "double") ==
                     (std::string(Row.TY) == "double");
    std::string Params = std::string("  ") + Row.TX + " vspec a = param(" +
                         Row.TX + ", 0);\n  " + Row.TY +
                         " vspec b = param(" + Row.TY + ", " +
                         (SameClass ? "1" : "0") + ");\n";
    auto Compiled = [&](const std::string &Body, const char *Args) {
      return std::string(Row.RT) + "* f = compile(`(" + Body + "), " +
             Row.RT + ");\n  " + Print + "(f(" + Args + "));\n";
    };
    const std::string Static =
        Decls + "  " + Print + "(" + Row.Expr + ");\n  return 0;\n}\n";
    const std::string Folded = Decls + "  " +
                               Compiled(substitute(Row.Expr, "$x", "$y"), "") +
                               "  return 0;\n}\n";
    const std::string Over = Decls + Params + "  " +
                             Compiled(substitute(Row.Expr, "a", "b"), "x, y") +
                             "  return 0;\n}\n";
    struct Cell {
      const char *Name;
      const std::string &Src;
    } Cells[] = {{"static", Static}, {"folded", Folded}, {"params", Over}};
    for (const Cell &C : Cells) {
      SCOPED_TRACE(std::string(Row.Expr) + " with x = " + Row.X +
                   ", y = " + Row.Y + ", " + C.Name);
      if (Row.Want) {
        auto [Code, Out] = run(C.Src);
        EXPECT_EQ(Code, 0);
        EXPECT_EQ(Out, Row.Want);
      } else if (&C.Src == &Static) {
        EXPECT_EXIT(run(C.Src), ::testing::ExitedWithCode(1),
                    "line 4: error: division");
      } else {
        EXPECT_EXIT(
            {
              // Die of the trap itself, not of a sanitizer's report.
              std::signal(SIGFPE, SIG_DFL);
              run(C.Src);
            },
            ::testing::KilledBySignal(SIGFPE), "");
      }
    }
  }
}

TEST(TickCInterp, UndefinedDynamicOperatorIsADiagnostic) {
  // The back ends compile only + - * (and unary -) on long and + - * / on
  // double (sem::compiledAt); anything else in dynamic code is a
  // line-numbered error, not an abort or a miscompile in the code
  // generator.
  for (const char *Op : {"<<", ">>", "/", "%", "&", "|", "^"})
    EXPECT_EXIT(runTickC(std::string("int main() {\n"
                                     "  long vspec a = param(long, 0);\n"
                                     "  long vspec b = param(long, 1);\n"
                                     "  long* f = compile(`(a ") +
                         Op + " b), long);\n  return 0;\n}\n"),
                ::testing::ExitedWithCode(1),
                "line 4: error: operator not defined on long in dynamic code");
  for (const char *Op : {"%", "&", "<<"})
    EXPECT_EXIT(runTickC(std::string("int main() {\n"
                                     "  double vspec a = param(double, 0);\n"
                                     "  int vspec b = param(int, 0);\n"
                                     "  double* f = compile(`(a ") +
                         Op + " b), double);\n  return 0;\n}\n"),
                ::testing::ExitedWithCode(1),
                "line 4: error: operator not defined on double in dynamic "
                "code");
  for (const char *Src : {"int main() {\n"
                          "  long vspec a = param(long, 0);\n"
                          "  long* f = compile(`(~a), long);\n"
                          "  return 0;\n}\n",
                          "int main() {\n"
                          "  double vspec a = param(double, 0);\n"
                          "  int* f = compile(`(!a), int);\n"
                          "  return 0;\n}\n"})
    EXPECT_EXIT(runTickC(Src), ::testing::ExitedWithCode(1),
                "line 3: error: operator not defined on (long|double) in "
                "dynamic code");
}

TEST(TickCParser, RejectsGarbage) {
  EXPECT_EXIT(runTickC("int main( { return 0; }"),
              ::testing::ExitedWithCode(1), "syntax error");
  EXPECT_EXIT(runTickC("int main() { return x; }"),
              ::testing::ExitedWithCode(1), "undefined variable");
  EXPECT_EXIT(runTickC("int main() { int x = $5; return x; }"),
              ::testing::ExitedWithCode(1), "outside a tick");
}

TEST(TickCInterp, DynamicInstructionsCounted) {
  Interp I(parseProgram(R"(
    int main() {
      int cspec c = `(1 + 2);
      int* f = compile(c, int);
      return f();
    }
  )"));
  EXPECT_EQ(I.runMain(), 3);
  EXPECT_GT(I.dynamicInstructions(), 0u);
}

} // namespace
