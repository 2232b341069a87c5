#include <gtest/gtest.h>

#include "jlang/lexer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"

namespace jepo::jlang {
namespace {

std::vector<Token> lex(std::string_view src) { return Lexer(src).tokenize(); }

CompilationUnit parse(std::string_view src) {
  return Parser("test.mjava", src).parseUnit();
}

// ------------------------------------------------------------------ lexer

TEST(Lexer, EmptySourceYieldsEof) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, Tok::kEof);
}

TEST(Lexer, NumericLiteralFlavors) {
  const auto toks = lex("1 12L 1.5 1.5f 2e3 2.5E-2 3d");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].type, Tok::kIntLiteral);
  EXPECT_EQ(toks[0].intValue, 1);
  EXPECT_EQ(toks[1].type, Tok::kLongLiteral);
  EXPECT_EQ(toks[1].intValue, 12);
  EXPECT_EQ(toks[2].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[2].floatValue, 1.5);
  EXPECT_FALSE(toks[2].scientific);
  EXPECT_EQ(toks[3].type, Tok::kFloatLiteral);
  EXPECT_FLOAT_EQ(static_cast<float>(toks[3].floatValue), 1.5f);
  EXPECT_EQ(toks[4].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[4].floatValue, 2000.0);
  EXPECT_TRUE(toks[4].scientific);
  EXPECT_EQ(toks[5].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[5].floatValue, 0.025);
  EXPECT_TRUE(toks[5].scientific);
  EXPECT_EQ(toks[6].type, Tok::kDoubleLiteral);  // 3d
}

TEST(Lexer, StringAndCharEscapes) {
  const auto toks = lex(R"("a\nb" '\t' '\'' "quote\"end")");
  EXPECT_EQ(toks[0].type, Tok::kStringLiteral);
  EXPECT_EQ(toks[0].text, "a\nb");
  EXPECT_EQ(toks[1].type, Tok::kCharLiteral);
  EXPECT_EQ(toks[1].intValue, '\t');
  EXPECT_EQ(toks[2].intValue, '\'');
  EXPECT_EQ(toks[3].text, "quote\"end");
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("a // line comment\n /* block\n comment */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].line, 3);
}

TEST(Lexer, OperatorsMaximalMunch) {
  const auto toks = lex("++ += + << <= < >= >> > == = != ! && & || |");
  const std::vector<Tok> expect = {
      Tok::kPlusPlus, Tok::kPlusAssign, Tok::kPlus, Tok::kShl, Tok::kLe,
      Tok::kLt,       Tok::kGe,         Tok::kShr,  Tok::kGt,  Tok::kEqEq,
      Tok::kAssign,   Tok::kNotEq,      Tok::kBang, Tok::kAmpAmp, Tok::kAmp,
      Tok::kPipePipe, Tok::kPipe,       Tok::kEof};
  ASSERT_EQ(toks.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(toks[i].type, expect[i]) << "token " << i;
  }
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].col, 3);
}

TEST(Lexer, RejectsMalformedInput) {
  EXPECT_THROW(lex("\"unterminated"), ParseError);
  EXPECT_THROW(lex("'ab'"), ParseError);
  EXPECT_THROW(lex("/* open"), ParseError);
  EXPECT_THROW(lex("#"), ParseError);
}

// ----------------------------------------------------------------- parser

TEST(Parser, PackageImportsAndClass) {
  const auto unit = parse(R"(
    package weka.classifiers.trees;
    import weka.core.Instances;
    import weka.core.Utils;
    class J48 { }
  )");
  EXPECT_EQ(unit.packageName, "weka.classifiers.trees");
  ASSERT_EQ(unit.imports.size(), 2u);
  EXPECT_EQ(unit.imports[0], "weka.core.Instances");
  ASSERT_EQ(unit.classes.size(), 1u);
  EXPECT_EQ(unit.classes[0].name, "J48");
}

TEST(Parser, FieldsWithModifiersAndGroups) {
  const auto unit = parse(R"(
    class C {
      static int counter = 0;
      private double ridge;
      int a, b = 2, c;
      long[] weights;
      double[][] matrix;
    }
  )");
  const ClassDecl& c = unit.classes[0];
  ASSERT_EQ(c.fields.size(), 7u);
  EXPECT_TRUE(c.fields[0].isStatic);
  EXPECT_EQ(c.fields[0].name, "counter");
  EXPECT_FALSE(c.fields[1].isStatic);
  EXPECT_EQ(c.fields[2].name, "a");
  EXPECT_EQ(c.fields[3].name, "b");
  ASSERT_NE(c.fields[3].init, nullptr);
  EXPECT_EQ(c.fields[4].name, "c");
  EXPECT_EQ(c.fields[5].type.arrayDims, 1);
  EXPECT_EQ(c.fields[5].type.prim, Prim::kLong);
  EXPECT_EQ(c.fields[6].type.arrayDims, 2);
}

TEST(Parser, MethodSignatures) {
  const auto unit = parse(R"(
    class C {
      static void main(String[] args) { }
      int add(int a, int b) { return a + b; }
      double[] copy(double[] src, int n) { return src; }
    }
  )");
  const ClassDecl& c = unit.classes[0];
  ASSERT_EQ(c.methods.size(), 3u);
  EXPECT_TRUE(c.methods[0].isStatic);
  EXPECT_EQ(c.methods[0].params.size(), 1u);
  EXPECT_EQ(c.methods[0].params[0].type.className, "String");
  EXPECT_EQ(c.methods[0].params[0].type.arrayDims, 1);
  EXPECT_EQ(c.methods[1].returnType.prim, Prim::kInt);
  EXPECT_EQ(c.methods[2].returnType.arrayDims, 1);
}

ExprPtr parseOneExpr(const std::string& expr) {
  auto unit = parse("class C { void m() { int x = " + expr + "; } }");
  auto& body = unit.classes[0].methods[0].body->body;
  return std::move(body.at(0)->init);
}

TEST(Parser, PrecedenceMulOverAdd) {
  const auto e = parseOneExpr("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->binOp, BinOp::kAdd);
  EXPECT_EQ(e->b->binOp, BinOp::kMul);
}

TEST(Parser, PrecedenceComparisonOverLogical) {
  const auto e = parseOneExpr("a < b && c > d");
  EXPECT_EQ(e->binOp, BinOp::kAndAnd);
  EXPECT_EQ(e->a->binOp, BinOp::kLt);
  EXPECT_EQ(e->b->binOp, BinOp::kGt);
}

TEST(Parser, TernaryNestsRightAssociatively) {
  const auto e = parseOneExpr("a ? 1 : b ? 2 : 3");
  ASSERT_EQ(e->kind, ExprKind::kTernary);
  EXPECT_EQ(e->c->kind, ExprKind::kTernary);
}

TEST(Parser, CallsFieldsAndIndexChains) {
  const auto e = parseOneExpr("obj.field.method(1, x)[i]");
  ASSERT_EQ(e->kind, ExprKind::kArrayIndex);
  const Expr& call = *e->a;
  ASSERT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.strValue, "method");
  EXPECT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.a->kind, ExprKind::kFieldAccess);
}

TEST(Parser, NewObjectAndArrays) {
  const auto obj = parseOneExpr("new StringBuilder()");
  EXPECT_EQ(obj->kind, ExprKind::kNew);
  EXPECT_EQ(obj->strValue, "StringBuilder");

  const auto arr = parseOneExpr("new double[10][20]");
  ASSERT_EQ(arr->kind, ExprKind::kNewArray);
  EXPECT_EQ(arr->args.size(), 2u);
  EXPECT_EQ(arr->type.prim, Prim::kDouble);
}

TEST(Parser, CastVsParenExpression) {
  const auto cast = parseOneExpr("(int) x");
  ASSERT_EQ(cast->kind, ExprKind::kCast);
  EXPECT_EQ(cast->type.prim, Prim::kInt);

  const auto paren = parseOneExpr("(x) + 1");
  EXPECT_EQ(paren->kind, ExprKind::kBinary);
}

TEST(Parser, StatementForms) {
  const auto unit = parse(R"(
    class C {
      int m(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
          total += i;
        }
        while (total > 100) total--;
        if (total % 2 == 0) total++; else total--;
        switch (total) {
          case 0: return 0;
          case 1: break;
          default: total = 5;
        }
        try {
          total /= n;
        } catch (ArithmeticException e) {
          total = -1;
        } finally {
          total++;
        }
        return total;
      }
    }
  )");
  const auto& body = unit.classes[0].methods[0].body->body;
  ASSERT_EQ(body.size(), 7u);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kFor);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kIf);
  EXPECT_EQ(body[4]->kind, StmtKind::kSwitch);
  EXPECT_EQ(body[4]->cases.size(), 3u);
  EXPECT_EQ(body[5]->kind, StmtKind::kTry);
  EXPECT_EQ(body[5]->catches.size(), 1u);
  ASSERT_NE(body[5]->finallyBlock, nullptr);
  EXPECT_EQ(body[6]->kind, StmtKind::kReturn);
}

TEST(Parser, RejectsBrokenInput) {
  EXPECT_THROW(parse("class C { int m() { return 1 } }"), ParseError);
  EXPECT_THROW(parse("class C { int m() { 1 = x; } }"), ParseError);
  EXPECT_THROW(parse("class C { void m() { try { } } }"), ParseError);
  EXPECT_THROW(parse("class { }"), ParseError);
  EXPECT_THROW(parse("class C { void m() { x++ ++; } }"), ParseError);
}

// Hostile nesting is a typed ParseError, never a native stack overflow in
// the parser or any later AST walk — ~100k nested parentheses (~200 KB)
// and an equally long left-deep operator chain alike.
TEST(Parser, NestingDeeperThanTheLimitIsATypedError) {
  const auto wrap = [](const std::string& expr) {
    return "class C { static void main(String[] args) { int x = " + expr +
           "; } }";
  };
  const std::string deepParens =
      std::string(100000, '(') + "1" + std::string(100000, ')');
  std::string longChain = "1";
  for (int i = 0; i < 100000; ++i) longChain += "+1";
  for (const std::string& expr : {deepParens, longChain}) {
    try {
      parse(wrap(expr));
      FAIL() << "should throw";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 512 levels"),
                std::string::npos)
          << e.what();
    }
  }
  std::string deepBlocks = "class C { void m() { ";
  for (int i = 0; i < 100000; ++i) deepBlocks += "{";
  EXPECT_THROW(parse(deepBlocks), ParseError);
  // Ordinary depth stays well inside the limit.
  EXPECT_NO_THROW(parse(wrap(std::string(50, '(') + "1" +
                            std::string(50, ')'))));
  std::string chain = "1";
  for (int i = 0; i < 200; ++i) chain += "+1";
  EXPECT_NO_THROW(parse(wrap(chain)));
}

TEST(Parser, ErrorsCarryFileAndLocation) {
  try {
    parse("class C {\n  int m() { return 1 }\n}");
    FAIL() << "should throw";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("test.mjava"), std::string::npos);
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, MainClassDiscovery) {
  Program prog;
  prog.units.push_back(parse("class A { static void main(String[] a) { } }"));
  prog.units.push_back(parse("class B { void main() { } }"));  // not static
  const auto mains = prog.mainClasses();
  ASSERT_EQ(mains.size(), 1u);
  EXPECT_EQ(mains[0]->name, "A");
  EXPECT_NE(prog.findClass("B"), nullptr);
  EXPECT_EQ(prog.findClass("Zz"), nullptr);
}

// ---------------------------------------------------------------- printer

/// The canonical-print fixpoint property: print(parse(print(x))) == print(x).
void expectRoundTrip(const std::string& src) {
  const auto unit1 = parse(src);
  const std::string printed1 = printUnit(unit1);
  const auto unit2 = parse(printed1);
  const std::string printed2 = printUnit(unit2);
  EXPECT_EQ(printed1, printed2) << "original source:\n" << src;
}

TEST(Printer, RoundTripSimpleClass) {
  expectRoundTrip(R"(
    package demo;
    class C {
      static int hits = 0;
      int twice(int v) { return v * 2; }
    }
  )");
}

TEST(Printer, RoundTripAllStatementForms) {
  expectRoundTrip(R"(
    class K {
      int m(int n) {
        int total = 0;
        long big = 10L;
        double d = 1.5e3;
        float f = 2.5f;
        char ch = 'x';
        String s = "hi\n";
        for (int i = 0; i < n; i++) total += i;
        while (total > 0) { total--; if (total == 3) break; else continue; }
        int t = total > 0 ? 1 : -1;
        switch (t) { case -1: t = 0; break; default: t = 2; }
        try { t = t / n; } catch (ArithmeticException e) { t = 0; }
        finally { t++; }
        int[] a = new int[4];
        int[][] m2 = new int[2][2];
        m2[0][1] = a[2] + (int) d;
        boolean ok = !(t == 0) && (s.equals("hi\n") || n >= 2);
        throw new RuntimeException("end");
      }
    }
  )");
}

TEST(Printer, PreservesScientificNotationSpelling) {
  const auto unit = parse("class C { double d = 1e4; double p = 10000.0; }");
  const std::string out = printUnit(unit);
  EXPECT_NE(out.find("1e4"), std::string::npos);
  EXPECT_NE(out.find("10000.0"), std::string::npos);
}

TEST(Printer, CloneProducesIdenticalPrint) {
  const auto unit = parse(R"(
    class C {
      int f(int x) {
        int y = x % 7;
        return y > 0 ? y : -y;
      }
    }
  )");
  const MethodDecl& m = unit.classes[0].methods[0];
  const StmtPtr copy = cloneStmt(*m.body);
  EXPECT_EQ(printStmt(*copy), printStmt(*m.body));
}

}  // namespace
}  // namespace jepo::jlang
