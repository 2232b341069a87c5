// Recursive-descent parser for MiniJava with classic precedence climbing.
//
// Grammar sketch (modifiers `public`/`private`/`final` are accepted and
// ignored except `static`, which the rules care about):
//
//   unit     := [package qname ;] {import qname ;} {classDecl}
//   class    := mods class Ident { {member} }
//   member   := mods type Ident (fieldRest | methodRest)
//   stmt     := block | varDecl | if | while | for | return | throw |
//               try | switch | break | continue | exprStmt
//   expr     := assignment; assignment := ternary [assignOp assignment]
//   ternary  := or [? expr : ternary]
//   or > and > bitor > bitxor > bitand > equality > relational > shift >
//   additive > multiplicative > unary > postfix > primary
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "jlang/ast.hpp"
#include "jlang/token.hpp"

namespace jepo::jlang {

class Parser {
 public:
  /// Deepest statement/expression nesting the parser accepts. Every later
  /// stage (resolver, compiler, optimizer, tree interpreter) recurses over
  /// the AST, so bounding its depth here bounds their native stack use on
  /// hostile input; deeper input is a typed ParseError, not a crash.
  /// Left-deep operator chains (`a + b + c ...`) and postfix chains
  /// (`a.b.c ...`) count one level per link, like explicit nesting.
  static constexpr int kMaxNestingDepth = 512;

  Parser(std::string fileName, std::string_view source);

  /// Parse the whole file; throws ParseError with line:col on bad input.
  CompilationUnit parseUnit();

  /// Convenience: parse a single file into a one-unit Program.
  static Program parseProgram(std::string fileName, std::string_view source);

 private:
  const Token& peek(std::size_t ahead = 0) const;
  const Token& advance();
  bool check(Tok t) const { return peek().type == t; }
  bool match(Tok t);
  const Token& expect(Tok t, const std::string& what);
  [[noreturn]] void fail(const std::string& msg) const;

  std::string parseQualifiedName();

  ClassDecl parseClass();
  void parseMember(ClassDecl& cls);
  TypeRef parseType();
  bool looksLikeType() const;

  StmtPtr parseStmt();
  StmtPtr parseBlock();
  StmtPtr parseVarDecl(bool requireSemicolon);
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();
  StmtPtr parseTry();
  StmtPtr parseSwitch();

  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseTernary();
  ExprPtr parseBinary(int minPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  template <typename NodeT>
  std::unique_ptr<NodeT> locate(std::unique_ptr<NodeT> node) const;

  /// One nesting level for the guard's lifetime; fails past the limit.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) { deeper(); }
    ~Nest() { p_.depth_ -= levels_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    /// Another level inside the same construct (a chain link).
    void deeper();

   private:
    Parser& p_;
    int levels_ = 0;
  };

  std::string fileName_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace jepo::jlang
