#include "jlang/parser.hpp"

#include "jlang/lexer.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace jepo::jlang {

namespace {

/// Binary operator precedence (higher binds tighter); -1 = not a binary op.
int binPrec(Tok t) {
  switch (t) {
    case Tok::kPipePipe: return 1;
    case Tok::kAmpAmp: return 2;
    case Tok::kPipe: return 3;
    case Tok::kCaret: return 4;
    case Tok::kAmp: return 5;
    case Tok::kEqEq:
    case Tok::kNotEq: return 6;
    case Tok::kLt:
    case Tok::kGt:
    case Tok::kLe:
    case Tok::kGe: return 7;
    case Tok::kShl:
    case Tok::kShr: return 8;
    case Tok::kPlus:
    case Tok::kMinus: return 9;
    case Tok::kStar:
    case Tok::kSlash:
    case Tok::kPercent: return 10;
    default: return -1;
  }
}

BinOp binOpFor(Tok t) {
  switch (t) {
    case Tok::kPipePipe: return BinOp::kOrOr;
    case Tok::kAmpAmp: return BinOp::kAndAnd;
    case Tok::kPipe: return BinOp::kBitOr;
    case Tok::kCaret: return BinOp::kBitXor;
    case Tok::kAmp: return BinOp::kBitAnd;
    case Tok::kEqEq: return BinOp::kEq;
    case Tok::kNotEq: return BinOp::kNe;
    case Tok::kLt: return BinOp::kLt;
    case Tok::kGt: return BinOp::kGt;
    case Tok::kLe: return BinOp::kLe;
    case Tok::kGe: return BinOp::kGe;
    case Tok::kShl: return BinOp::kShl;
    case Tok::kShr: return BinOp::kShr;
    case Tok::kPlus: return BinOp::kAdd;
    case Tok::kMinus: return BinOp::kSub;
    case Tok::kStar: return BinOp::kMul;
    case Tok::kSlash: return BinOp::kDiv;
    case Tok::kPercent: return BinOp::kMod;
    default: throw Error("not a binary operator token");
  }
}

bool isPrimTypeToken(Tok t) {
  switch (t) {
    case Tok::kKwByte:
    case Tok::kKwShort:
    case Tok::kKwInt:
    case Tok::kKwLong:
    case Tok::kKwFloat:
    case Tok::kKwDouble:
    case Tok::kKwChar:
    case Tok::kKwBoolean:
    case Tok::kKwVoid:
      return true;
    default:
      return false;
  }
}

Prim primFor(Tok t) {
  switch (t) {
    case Tok::kKwByte: return Prim::kByte;
    case Tok::kKwShort: return Prim::kShort;
    case Tok::kKwInt: return Prim::kInt;
    case Tok::kKwLong: return Prim::kLong;
    case Tok::kKwFloat: return Prim::kFloat;
    case Tok::kKwDouble: return Prim::kDouble;
    case Tok::kKwChar: return Prim::kChar;
    case Tok::kKwBoolean: return Prim::kBoolean;
    case Tok::kKwVoid: return Prim::kVoid;
    default: throw Error("not a primitive type token");
  }
}

}  // namespace

Parser::Parser(std::string fileName, std::string_view source)
    : fileName_(std::move(fileName)) {
  tokens_ = Lexer(source).tokenize();
}

Program Parser::parseProgram(std::string fileName, std::string_view source) {
  Parser p(std::move(fileName), source);
  Program prog;
  prog.units.push_back(p.parseUnit());
  return prog;
}

const Token& Parser::peek(std::size_t ahead) const {
  const std::size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::advance() {
  const Token& t = peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::match(Tok t) {
  if (!check(t)) return false;
  advance();
  return true;
}

const Token& Parser::expect(Tok t, const std::string& what) {
  if (!check(t)) {
    fail("expected " + tokName(t) + " (" + what + "), found " +
         tokName(peek().type));
  }
  return advance();
}

void Parser::fail(const std::string& msg) const {
  throw ParseError(fileName_ + ": " + msg, peek().line, peek().col);
}

void Parser::Nest::deeper() {
  ++levels_;
  if (++p_.depth_ > kMaxNestingDepth) {
    p_.fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
            " levels");
  }
}

std::string Parser::parseQualifiedName() {
  std::string name = expect(Tok::kIdentifier, "qualified name").text;
  while (match(Tok::kDot)) {
    name += '.';
    name += expect(Tok::kIdentifier, "qualified name part").text;
  }
  return name;
}

CompilationUnit Parser::parseUnit() {
  static obs::Counter& parsedUnits =
      obs::Registry::global().counter("jlang.parsedUnits");
  parsedUnits.add();
  obs::Span span("jlang.parse");
  CompilationUnit unit;
  unit.fileName = fileName_;
  if (match(Tok::kKwPackage)) {
    unit.packageName = parseQualifiedName();
    expect(Tok::kSemicolon, "after package declaration");
  }
  while (match(Tok::kKwImport)) {
    unit.imports.push_back(parseQualifiedName());
    expect(Tok::kSemicolon, "after import");
  }
  while (!check(Tok::kEof)) {
    unit.classes.push_back(parseClass());
  }
  return unit;
}

ClassDecl Parser::parseClass() {
  while (match(Tok::kKwPublic) || match(Tok::kKwPrivate) ||
         match(Tok::kKwFinal)) {
  }
  const Token& kw = expect(Tok::kKwClass, "class declaration");
  ClassDecl cls;
  cls.line = kw.line;
  cls.name = expect(Tok::kIdentifier, "class name").text;
  expect(Tok::kLBrace, "class body");
  while (!check(Tok::kRBrace)) {
    parseMember(cls);
  }
  expect(Tok::kRBrace, "end of class body");
  return cls;
}

void Parser::parseMember(ClassDecl& cls) {
  bool isStatic = false;
  for (;;) {
    if (match(Tok::kKwStatic)) {
      isStatic = true;
    } else if (match(Tok::kKwPublic) || match(Tok::kKwPrivate) ||
               match(Tok::kKwFinal)) {
      // access modifiers carry no energy meaning; accepted and dropped
    } else {
      break;
    }
  }

  const int line = peek().line;

  // Constructor: ClassName(...) — no return type; modeled as a method named
  // like the class with a void return.
  if (peek().type == Tok::kIdentifier && peek().text == cls.name &&
      peek(1).type == Tok::kLParen) {
    MethodDecl ctor;
    ctor.name = cls.name;
    ctor.line = line;
    ctor.returnType = TypeRef::scalar(Prim::kVoid);
    advance();  // class name
    expect(Tok::kLParen, "constructor parameter list");
    if (!check(Tok::kRParen)) {
      do {
        Param p;
        p.type = parseType();
        p.name = expect(Tok::kIdentifier, "parameter name").text;
        ctor.params.push_back(std::move(p));
      } while (match(Tok::kComma));
    }
    expect(Tok::kRParen, "end of constructor parameters");
    ctor.body = parseBlock();
    cls.methods.push_back(std::move(ctor));
    return;
  }

  TypeRef type = parseType();
  const std::string name = expect(Tok::kIdentifier, "member name").text;

  if (check(Tok::kLParen)) {
    MethodDecl m;
    m.name = name;
    m.isStatic = isStatic;
    m.returnType = type;
    m.line = line;
    expect(Tok::kLParen, "parameter list");
    if (!check(Tok::kRParen)) {
      do {
        Param p;
        p.type = parseType();
        p.name = expect(Tok::kIdentifier, "parameter name").text;
        m.params.push_back(std::move(p));
      } while (match(Tok::kComma));
    }
    expect(Tok::kRParen, "end of parameter list");
    m.body = parseBlock();
    cls.methods.push_back(std::move(m));
    return;
  }

  // Field (possibly a comma-separated group sharing one type).
  std::string declName = name;
  for (;;) {
    FieldDecl f;
    f.type = type;
    f.name = declName;
    f.isStatic = isStatic;
    f.line = line;
    if (match(Tok::kAssign)) f.init = parseExpr();
    cls.fields.push_back(std::move(f));
    if (!match(Tok::kComma)) break;
    declName = expect(Tok::kIdentifier, "field name").text;
  }
  expect(Tok::kSemicolon, "after field declaration");
}

TypeRef Parser::parseType() {
  TypeRef t;
  if (isPrimTypeToken(peek().type)) {
    t.prim = primFor(advance().type);
  } else {
    t.prim = Prim::kClass;
    t.className = expect(Tok::kIdentifier, "type name").text;
  }
  while (check(Tok::kLBracket) && peek(1).type == Tok::kRBracket) {
    advance();
    advance();
    ++t.arrayDims;
  }
  return t;
}

bool Parser::looksLikeType() const {
  // A statement starts a declaration iff it starts with a primitive type, or
  // with `Ident Ident`, `Ident [ ] Ident`, or `Ident [ ] [ ] Ident`.
  if (isPrimTypeToken(peek().type)) return true;
  if (peek().type != Tok::kIdentifier) return false;
  std::size_t i = 1;
  while (peek(i).type == Tok::kLBracket && peek(i + 1).type == Tok::kRBracket) {
    i += 2;
  }
  return peek(i).type == Tok::kIdentifier;
}

StmtPtr Parser::parseBlock() {
  const Token& open = expect(Tok::kLBrace, "block");
  auto block = std::make_unique<Stmt>(StmtKind::kBlock);
  block->line = open.line;
  block->col = open.col;
  while (!check(Tok::kRBrace)) {
    block->body.push_back(parseStmt());
  }
  expect(Tok::kRBrace, "end of block");
  return block;
}

StmtPtr Parser::parseVarDecl(bool requireSemicolon) {
  auto stmt = std::make_unique<Stmt>(StmtKind::kVarDecl);
  stmt->line = peek().line;
  stmt->col = peek().col;
  while (match(Tok::kKwFinal)) {
  }
  stmt->declType = parseType();
  stmt->declName = expect(Tok::kIdentifier, "variable name").text;
  if (match(Tok::kAssign)) stmt->init = parseExpr();
  if (requireSemicolon) expect(Tok::kSemicolon, "after variable declaration");
  return stmt;
}

StmtPtr Parser::parseStmt() {
  const Nest nest(*this);
  switch (peek().type) {
    case Tok::kLBrace: return parseBlock();
    case Tok::kKwIf: return parseIf();
    case Tok::kKwWhile: return parseWhile();
    case Tok::kKwFor: return parseFor();
    case Tok::kKwTry: return parseTry();
    case Tok::kKwSwitch: return parseSwitch();
    case Tok::kKwReturn: {
      const Token& kw = advance();
      auto stmt = std::make_unique<Stmt>(StmtKind::kReturn);
      stmt->line = kw.line;
      stmt->col = kw.col;
      if (!check(Tok::kSemicolon)) stmt->expr = parseExpr();
      expect(Tok::kSemicolon, "after return");
      return stmt;
    }
    case Tok::kKwThrow: {
      const Token& kw = advance();
      auto stmt = std::make_unique<Stmt>(StmtKind::kThrow);
      stmt->line = kw.line;
      stmt->col = kw.col;
      stmt->expr = parseExpr();
      expect(Tok::kSemicolon, "after throw");
      return stmt;
    }
    case Tok::kKwBreak: {
      const Token& kw = advance();
      auto stmt = std::make_unique<Stmt>(StmtKind::kBreak);
      stmt->line = kw.line;
      stmt->col = kw.col;
      expect(Tok::kSemicolon, "after break");
      return stmt;
    }
    case Tok::kKwContinue: {
      const Token& kw = advance();
      auto stmt = std::make_unique<Stmt>(StmtKind::kContinue);
      stmt->line = kw.line;
      stmt->col = kw.col;
      expect(Tok::kSemicolon, "after continue");
      return stmt;
    }
    default:
      break;
  }
  if (looksLikeType() || peek().type == Tok::kKwFinal) {
    return parseVarDecl(/*requireSemicolon=*/true);
  }
  auto stmt = std::make_unique<Stmt>(StmtKind::kExprStmt);
  stmt->line = peek().line;
  stmt->col = peek().col;
  stmt->expr = parseExpr();
  expect(Tok::kSemicolon, "after expression statement");
  return stmt;
}

StmtPtr Parser::parseIf() {
  const Token& kw = expect(Tok::kKwIf, "if");
  auto stmt = std::make_unique<Stmt>(StmtKind::kIf);
  stmt->line = kw.line;
  stmt->col = kw.col;
  expect(Tok::kLParen, "if condition");
  stmt->cond = parseExpr();
  expect(Tok::kRParen, "end of if condition");
  stmt->thenStmt = parseStmt();
  if (match(Tok::kKwElse)) stmt->elseStmt = parseStmt();
  return stmt;
}

StmtPtr Parser::parseWhile() {
  const Token& kw = expect(Tok::kKwWhile, "while");
  auto stmt = std::make_unique<Stmt>(StmtKind::kWhile);
  stmt->line = kw.line;
  stmt->col = kw.col;
  expect(Tok::kLParen, "while condition");
  stmt->cond = parseExpr();
  expect(Tok::kRParen, "end of while condition");
  stmt->thenStmt = parseStmt();
  return stmt;
}

StmtPtr Parser::parseFor() {
  const Token& kw = expect(Tok::kKwFor, "for");
  auto stmt = std::make_unique<Stmt>(StmtKind::kFor);
  stmt->line = kw.line;
  stmt->col = kw.col;
  expect(Tok::kLParen, "for header");

  if (!check(Tok::kSemicolon)) {
    if (looksLikeType() || peek().type == Tok::kKwFinal) {
      stmt->body.push_back(parseVarDecl(/*requireSemicolon=*/false));
    } else {
      auto init = std::make_unique<Stmt>(StmtKind::kExprStmt);
      init->line = peek().line;
      init->col = peek().col;
      init->expr = parseExpr();
      stmt->body.push_back(std::move(init));
    }
  }
  expect(Tok::kSemicolon, "after for-init");

  if (!check(Tok::kSemicolon)) stmt->cond = parseExpr();
  expect(Tok::kSemicolon, "after for-condition");

  if (!check(Tok::kRParen)) {
    do {
      stmt->update.push_back(parseExpr());
    } while (match(Tok::kComma));
  }
  expect(Tok::kRParen, "end of for header");
  stmt->thenStmt = parseStmt();
  return stmt;
}

StmtPtr Parser::parseTry() {
  const Token& kw = expect(Tok::kKwTry, "try");
  auto stmt = std::make_unique<Stmt>(StmtKind::kTry);
  stmt->line = kw.line;
  stmt->col = kw.col;
  stmt->tryBlock = parseBlock();
  while (check(Tok::kKwCatch)) {
    advance();
    expect(Tok::kLParen, "catch parameter");
    CatchClause clause;
    clause.exceptionClass = expect(Tok::kIdentifier, "exception type").text;
    clause.varName = expect(Tok::kIdentifier, "exception variable").text;
    expect(Tok::kRParen, "end of catch parameter");
    clause.body = parseBlock();
    stmt->catches.push_back(std::move(clause));
  }
  if (match(Tok::kKwFinally)) stmt->finallyBlock = parseBlock();
  if (stmt->catches.empty() && !stmt->finallyBlock) {
    fail("try requires at least one catch or a finally");
  }
  return stmt;
}

StmtPtr Parser::parseSwitch() {
  const Token& kw = expect(Tok::kKwSwitch, "switch");
  auto stmt = std::make_unique<Stmt>(StmtKind::kSwitch);
  stmt->line = kw.line;
  stmt->col = kw.col;
  expect(Tok::kLParen, "switch selector");
  stmt->cond = parseExpr();
  expect(Tok::kRParen, "end of switch selector");
  expect(Tok::kLBrace, "switch body");
  while (!check(Tok::kRBrace)) {
    SwitchCase sc;
    if (match(Tok::kKwDefault)) {
      sc.isDefault = true;
    } else {
      expect(Tok::kKwCase, "case label");
      bool negative = match(Tok::kMinus);
      const Token& lit = peek();
      if (lit.type != Tok::kIntLiteral && lit.type != Tok::kCharLiteral) {
        fail("case label must be an int or char literal");
      }
      advance();
      sc.value = negative ? -lit.intValue : lit.intValue;
    }
    expect(Tok::kColon, "after case label");
    while (!check(Tok::kKwCase) && !check(Tok::kKwDefault) &&
           !check(Tok::kRBrace)) {
      sc.body.push_back(parseStmt());
    }
    stmt->cases.push_back(std::move(sc));
  }
  expect(Tok::kRBrace, "end of switch body");
  return stmt;
}

ExprPtr Parser::parseExpr() { return parseAssignment(); }

ExprPtr Parser::parseAssignment() {
  const Nest nest(*this);
  ExprPtr lhs = parseTernary();
  AssignOp op;
  switch (peek().type) {
    case Tok::kAssign: op = AssignOp::kSet; break;
    case Tok::kPlusAssign: op = AssignOp::kAdd; break;
    case Tok::kMinusAssign: op = AssignOp::kSub; break;
    case Tok::kStarAssign: op = AssignOp::kMul; break;
    case Tok::kSlashAssign: op = AssignOp::kDiv; break;
    case Tok::kPercentAssign: op = AssignOp::kMod; break;
    default: return lhs;
  }
  if (lhs->kind != ExprKind::kVarRef && lhs->kind != ExprKind::kFieldAccess &&
      lhs->kind != ExprKind::kArrayIndex) {
    fail("assignment target must be a variable, field or array element");
  }
  const Token& opTok = advance();
  auto node = std::make_unique<Expr>(ExprKind::kAssign);
  node->line = opTok.line;
  node->col = opTok.col;
  node->assignOp = op;
  node->a = std::move(lhs);
  node->b = parseAssignment();  // right-associative
  return node;
}

ExprPtr Parser::parseTernary() {
  const Nest nest(*this);
  ExprPtr cond = parseBinary(1);
  if (!check(Tok::kQuestion)) return cond;
  const Token& q = advance();
  auto node = std::make_unique<Expr>(ExprKind::kTernary);
  node->line = q.line;
  node->col = q.col;
  node->a = std::move(cond);
  node->b = parseExpr();
  expect(Tok::kColon, "ternary else branch");
  node->c = parseTernary();
  return node;
}

ExprPtr Parser::parseBinary(int minPrec) {
  ExprPtr lhs = parseUnary();
  Nest chain(*this);
  for (;;) {
    const int prec = binPrec(peek().type);
    if (prec < minPrec) return lhs;
    chain.deeper();  // the left operand sinks one level per link
    const Token& opTok = advance();
    ExprPtr rhs = parseBinary(prec + 1);  // all binary ops left-associative
    auto node = std::make_unique<Expr>(ExprKind::kBinary);
    node->line = opTok.line;
    node->col = opTok.col;
    node->binOp = binOpFor(opTok.type);
    node->a = std::move(lhs);
    node->b = std::move(rhs);
    lhs = std::move(node);
  }
}

ExprPtr Parser::parseUnary() {
  const Nest nest(*this);
  const Token& t = peek();
  UnOp op;
  switch (t.type) {
    case Tok::kMinus: op = UnOp::kNeg; break;
    case Tok::kBang: op = UnOp::kNot; break;
    case Tok::kTilde: op = UnOp::kBitNot; break;
    case Tok::kPlusPlus: op = UnOp::kPreInc; break;
    case Tok::kMinusMinus: op = UnOp::kPreDec; break;
    case Tok::kPlus:
      advance();  // unary plus is a no-op
      return parseUnary();
    case Tok::kLParen: {
      // Cast: "( type )" followed by a unary expression. Distinguish from a
      // parenthesized expression by lookahead.
      const bool primCast =
          isPrimTypeToken(peek(1).type) && peek(2).type == Tok::kRParen;
      const bool classCast = peek(1).type == Tok::kIdentifier &&
                             peek(2).type == Tok::kRParen &&
                             (peek(3).type == Tok::kIdentifier ||
                              peek(3).type == Tok::kLParen ||
                              peek(3).type == Tok::kIntLiteral ||
                              peek(3).type == Tok::kDoubleLiteral ||
                              peek(3).type == Tok::kFloatLiteral ||
                              peek(3).type == Tok::kStringLiteral ||
                              peek(3).type == Tok::kKwNew ||
                              peek(3).type == Tok::kKwThis);
      if (primCast || classCast) {
        const Token& open = advance();
        auto node = std::make_unique<Expr>(ExprKind::kCast);
        node->line = open.line;
        node->col = open.col;
        node->type = parseType();
        expect(Tok::kRParen, "end of cast");
        node->a = parseUnary();
        return node;
      }
      return parsePostfix();
    }
    default:
      return parsePostfix();
  }
  advance();
  auto node = std::make_unique<Expr>(ExprKind::kUnary);
  node->line = t.line;
  node->col = t.col;
  node->unOp = op;
  node->a = parseUnary();
  if ((op == UnOp::kPreInc || op == UnOp::kPreDec) &&
      node->a->kind != ExprKind::kVarRef &&
      node->a->kind != ExprKind::kFieldAccess &&
      node->a->kind != ExprKind::kArrayIndex) {
    fail("++/-- target must be a variable, field or array element");
  }
  return node;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr e = parsePrimary();
  Nest chain(*this);
  for (;;) {
    chain.deeper();  // each member access, call, index or ++/-- wraps e
    if (check(Tok::kDot)) {
      advance();
      const Token& name = expect(Tok::kIdentifier, "member name");
      if (check(Tok::kLParen)) {
        auto call = std::make_unique<Expr>(ExprKind::kCall);
        call->line = name.line;
        call->col = name.col;
        call->strValue = name.text;
        call->a = std::move(e);
        advance();
        if (!check(Tok::kRParen)) {
          do {
            call->args.push_back(parseExpr());
          } while (match(Tok::kComma));
        }
        expect(Tok::kRParen, "end of call arguments");
        e = std::move(call);
      } else {
        auto fld = std::make_unique<Expr>(ExprKind::kFieldAccess);
        fld->line = name.line;
        fld->col = name.col;
        fld->strValue = name.text;
        fld->a = std::move(e);
        e = std::move(fld);
      }
    } else if (check(Tok::kLBracket)) {
      const Token& open = advance();
      auto idx = std::make_unique<Expr>(ExprKind::kArrayIndex);
      idx->line = open.line;
      idx->col = open.col;
      idx->a = std::move(e);
      idx->b = parseExpr();
      expect(Tok::kRBracket, "end of array index");
      e = std::move(idx);
    } else if (check(Tok::kPlusPlus) || check(Tok::kMinusMinus)) {
      const Token& opTok = advance();
      auto node = std::make_unique<Expr>(ExprKind::kUnary);
      node->line = opTok.line;
      node->col = opTok.col;
      node->unOp = opTok.type == Tok::kPlusPlus ? UnOp::kPostInc
                                                : UnOp::kPostDec;
      if (e->kind != ExprKind::kVarRef && e->kind != ExprKind::kFieldAccess &&
          e->kind != ExprKind::kArrayIndex) {
        fail("++/-- target must be a variable, field or array element");
      }
      node->a = std::move(e);
      e = std::move(node);
    } else {
      return e;
    }
  }
}

ExprPtr Parser::parsePrimary() {
  const Token& t = peek();
  switch (t.type) {
    case Tok::kIntLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kIntLit);
      e->line = t.line;
      e->col = t.col;
      e->intValue = t.intValue;
      return e;
    }
    case Tok::kLongLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kLongLit);
      e->line = t.line;
      e->col = t.col;
      e->intValue = t.intValue;
      return e;
    }
    case Tok::kFloatLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kFloatLit);
      e->line = t.line;
      e->col = t.col;
      e->floatValue = t.floatValue;
      e->scientific = t.scientific;
      e->strValue = t.text;
      return e;
    }
    case Tok::kDoubleLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kDoubleLit);
      e->line = t.line;
      e->col = t.col;
      e->floatValue = t.floatValue;
      e->scientific = t.scientific;
      e->strValue = t.text;
      return e;
    }
    case Tok::kCharLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kCharLit);
      e->line = t.line;
      e->col = t.col;
      e->intValue = t.intValue;
      e->strValue = t.text;
      return e;
    }
    case Tok::kStringLiteral: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kStringLit);
      e->line = t.line;
      e->col = t.col;
      e->strValue = t.text;
      return e;
    }
    case Tok::kKwTrue:
    case Tok::kKwFalse: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kBoolLit);
      e->line = t.line;
      e->col = t.col;
      e->intValue = t.type == Tok::kKwTrue ? 1 : 0;
      return e;
    }
    case Tok::kKwNull: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kNullLit);
      e->line = t.line;
      e->col = t.col;
      return e;
    }
    case Tok::kKwThis: {
      advance();
      auto e = std::make_unique<Expr>(ExprKind::kVarRef);
      e->line = t.line;
      e->col = t.col;
      e->strValue = "this";
      return e;
    }
    case Tok::kIdentifier: {
      advance();
      if (check(Tok::kLParen)) {
        // Unqualified call: method of the current class.
        auto call = std::make_unique<Expr>(ExprKind::kCall);
        call->line = t.line;
        call->col = t.col;
        call->strValue = t.text;
        advance();
        if (!check(Tok::kRParen)) {
          do {
            call->args.push_back(parseExpr());
          } while (match(Tok::kComma));
        }
        expect(Tok::kRParen, "end of call arguments");
        return call;
      }
      auto e = std::make_unique<Expr>(ExprKind::kVarRef);
      e->line = t.line;
      e->col = t.col;
      e->strValue = t.text;
      return e;
    }
    case Tok::kKwNew: {
      advance();
      TypeRef type = [&] {
        if (isPrimTypeToken(peek().type)) {
          return TypeRef::scalar(primFor(advance().type));
        }
        return TypeRef::ofClass(expect(Tok::kIdentifier, "type name").text);
      }();
      if (check(Tok::kLBracket)) {
        auto arr = std::make_unique<Expr>(ExprKind::kNewArray);
        arr->line = t.line;
        arr->col = t.col;
        arr->type = type;
        while (match(Tok::kLBracket)) {
          if (check(Tok::kRBracket)) {
            // trailing empty dims: new int[5][]
            advance();
            ++arr->type.arrayDims;
            continue;
          }
          arr->args.push_back(parseExpr());
          expect(Tok::kRBracket, "end of array dimension");
        }
        return arr;
      }
      JEPO_REQUIRE(type.prim == Prim::kClass,
                   "cannot 'new' a primitive without array brackets");
      auto obj = std::make_unique<Expr>(ExprKind::kNew);
      obj->line = t.line;
      obj->col = t.col;
      obj->strValue = type.className;
      expect(Tok::kLParen, "constructor arguments");
      if (!check(Tok::kRParen)) {
        do {
          obj->args.push_back(parseExpr());
        } while (match(Tok::kComma));
      }
      expect(Tok::kRParen, "end of constructor arguments");
      return obj;
    }
    case Tok::kLParen: {
      advance();
      ExprPtr inner = parseExpr();
      expect(Tok::kRParen, "closing parenthesis");
      return inner;
    }
    default:
      fail("unexpected token " + tokName(t.type) + " in expression");
  }
}

}  // namespace jepo::jlang
