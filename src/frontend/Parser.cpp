//===- frontend/Parser.cpp -------------------------------------------------==//

#include "frontend/Parser.h"

#include <cstdio>
#include <cstdlib>

using namespace tcc;
using namespace tcc::frontend;
using core::BinOp;
using core::CmpKind;
using core::UnOp;

namespace {

FOp binOp(BinOp O) { return {.Kind = FOp::Bin, .B = O}; }
FOp cmpOp(CmpKind K) { return {.Kind = FOp::Cmp, .C = K}; }
FOp unOp(UnOp O) { return {.Kind = FOp::Un, .U = O}; }

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Toks(std::move(Tokens)) {}

  FProgram parse() {
    FProgram P;
    while (!at(Tok::Eof)) {
      // Both functions and globals start with a type; disambiguate on the
      // token after the name.
      TypeRef T = parseType();
      std::string Name = expectIdent();
      if (at(Tok::LParen)) {
        P.Functions.push_back(parseFunctionRest(T, Name));
      } else {
        FStmt G;
        G.Kind = FStmtKind::Decl;
        G.Line = cur().Line;
        G.DeclType = T;
        G.Name = Name;
        if (accept(Tok::Assign))
          G.E = parseExpr();
        expect(Tok::Semi);
        P.Globals.push_back(std::move(G));
      }
    }
    return P;
  }

private:
  const Token &cur() const { return Toks[Pos]; }
  bool at(Tok K) const { return cur().Kind == K; }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }
  void expect(Tok K) {
    if (!accept(K))
      error(std::string("expected '") + tokenName(K) + "', found '" +
            tokenName(cur().Kind) + "'");
  }
  std::string expectIdent() {
    if (!at(Tok::Ident))
      error("expected identifier");
    std::string S = cur().Text;
    ++Pos;
    return S;
  }
  [[noreturn]] void error(const std::string &Msg) const {
    std::fprintf(stderr, "tickc: line %u: syntax error: %s\n", cur().Line,
                 Msg.c_str());
    std::exit(1);
  }

  bool atTypeStart() const {
    switch (cur().Kind) {
    case Tok::KwInt:
    case Tok::KwLong:
    case Tok::KwDouble:
    case Tok::KwVoid:
    case Tok::KwChar:
      return true;
    default:
      return false;
    }
  }

  TypeRef parseType() {
    TypeRef T;
    switch (cur().Kind) {
    case Tok::KwInt:
      T.Base = TypeRef::Int;
      break;
    case Tok::KwLong:
      T.Base = TypeRef::Long;
      break;
    case Tok::KwDouble:
      T.Base = TypeRef::Double;
      break;
    case Tok::KwVoid:
      T.Base = TypeRef::Void;
      break;
    case Tok::KwChar:
      T.Base = TypeRef::Char;
      break;
    default:
      error("expected type");
    }
    ++Pos;
    while (accept(Tok::Star))
      ++T.PtrDepth;
    // `C's postfix type constructors: `int cspec`, `int vspec`.
    if (accept(Tok::KwCSpec))
      T.IsCSpec = true;
    else if (accept(Tok::KwVSpec))
      T.IsVSpec = true;
    return T;
  }

  FFunction parseFunctionRest(TypeRef Ret, std::string Name) {
    FFunction F;
    F.RetType = Ret;
    F.Name = std::move(Name);
    F.Line = cur().Line;
    expect(Tok::LParen);
    if (!at(Tok::RParen)) {
      do {
        if (cur().Kind == Tok::KwVoid &&
            Toks[Pos + 1].Kind == Tok::RParen) {
          ++Pos;
          break;
        }
        FParam P;
        P.Type = parseType();
        P.Name = expectIdent();
        F.Params.push_back(std::move(P));
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen);
    F.Body = parseBlock();
    return F;
  }

  FStmtPtr makeStmt(FStmtKind K) {
    auto S = std::make_unique<FStmt>();
    S->Kind = K;
    S->Line = cur().Line;
    return S;
  }

  FStmtPtr parseBlock() {
    expect(Tok::LBrace);
    FStmtPtr B = makeStmt(FStmtKind::Block);
    while (!accept(Tok::RBrace))
      B->Body.push_back(parseStmt());
    return B;
  }

  FStmtPtr parseStmt() {
    if (at(Tok::LBrace))
      return parseBlock();
    if (atTypeStart()) {
      FStmtPtr D = makeStmt(FStmtKind::Decl);
      D->DeclType = parseType();
      D->Name = expectIdent();
      if (accept(Tok::Assign))
        D->E = parseExpr();
      expect(Tok::Semi);
      return D;
    }
    if (accept(Tok::KwIf)) {
      FStmtPtr S = makeStmt(FStmtKind::If);
      expect(Tok::LParen);
      S->E = parseExpr();
      expect(Tok::RParen);
      S->S1 = parseStmt();
      if (accept(Tok::KwElse))
        S->S2 = parseStmt();
      return S;
    }
    if (accept(Tok::KwWhile)) {
      FStmtPtr S = makeStmt(FStmtKind::While);
      expect(Tok::LParen);
      S->E = parseExpr();
      expect(Tok::RParen);
      S->S1 = parseStmt();
      return S;
    }
    if (accept(Tok::KwFor)) {
      FStmtPtr S = makeStmt(FStmtKind::For);
      expect(Tok::LParen);
      if (!at(Tok::Semi)) {
        if (atTypeStart()) {
          FStmtPtr D = makeStmt(FStmtKind::Decl);
          D->DeclType = parseType();
          D->Name = expectIdent();
          if (accept(Tok::Assign))
            D->E = parseExpr();
          S->S1 = std::move(D);
          expect(Tok::Semi);
        } else {
          FStmtPtr I = makeStmt(FStmtKind::ExprStmt);
          I->E = parseExpr();
          S->S1 = std::move(I);
          expect(Tok::Semi);
        }
      } else {
        expect(Tok::Semi);
      }
      if (!at(Tok::Semi))
        S->E2 = parseExpr();
      expect(Tok::Semi);
      if (!at(Tok::RParen))
        S->E3 = parseExpr();
      expect(Tok::RParen);
      S->S2 = parseStmt(); // Body lives in S2; S1 is the init statement.
      return S;
    }
    if (accept(Tok::KwReturn)) {
      FStmtPtr S = makeStmt(FStmtKind::Return);
      if (!at(Tok::Semi))
        S->E = parseExpr();
      expect(Tok::Semi);
      return S;
    }
    if (accept(Tok::KwBreak)) {
      expect(Tok::Semi);
      return makeStmt(FStmtKind::Break);
    }
    if (accept(Tok::KwContinue)) {
      expect(Tok::Semi);
      return makeStmt(FStmtKind::Continue);
    }
    FStmtPtr S = makeStmt(FStmtKind::ExprStmt);
    S->E = parseExpr();
    expect(Tok::Semi);
    return S;
  }

  FExprPtr makeExpr(FExprKind K) {
    auto E = std::make_unique<FExpr>();
    E->Kind = K;
    E->Line = cur().Line;
    return E;
  }

  FExprPtr parseExpr() { return parseAssign(); }

  FExprPtr parseAssign() {
    FExprPtr L = parseTernary();
    FOp Op;
    switch (cur().Kind) {
    case Tok::Assign:
      break;
    case Tok::PlusAssign:
      Op = binOp(BinOp::Add);
      break;
    case Tok::MinusAssign:
      Op = binOp(BinOp::Sub);
      break;
    case Tok::StarAssign:
      Op = binOp(BinOp::Mul);
      break;
    case Tok::SlashAssign:
      Op = binOp(BinOp::Div);
      break;
    default:
      return L;
    }
    ++Pos;
    FExprPtr E = makeExpr(FExprKind::Assign);
    E->Op = Op;
    E->A = std::move(L);
    E->B = parseAssign();
    return E;
  }

  FExprPtr parseTernary() {
    FExprPtr C = parseBinary(0);
    if (!accept(Tok::Question))
      return C;
    FExprPtr E = makeExpr(FExprKind::Ternary);
    E->A = std::move(C);
    E->B = parseExpr();
    expect(Tok::Colon);
    E->C = parseTernary();
    return E;
  }

  /// A binary operator token's precedence (-1 if the token is none) and
  /// the operator it denotes.
  struct BinaryTok {
    int Prec;
    FOp Op;
  };
  static BinaryTok binaryTok(Tok K) {
    switch (K) {
    case Tok::PipePipe:
      return {1, binOp(BinOp::LogOr)};
    case Tok::AmpAmp:
      return {2, binOp(BinOp::LogAnd)};
    case Tok::Pipe:
      return {3, binOp(BinOp::Or)};
    case Tok::Caret:
      return {4, binOp(BinOp::Xor)};
    case Tok::Amp:
      return {5, binOp(BinOp::And)};
    case Tok::EqEq:
      return {6, cmpOp(CmpKind::Eq)};
    case Tok::NotEq:
      return {6, cmpOp(CmpKind::Ne)};
    case Tok::Lt:
      return {7, cmpOp(CmpKind::LtS)};
    case Tok::Le:
      return {7, cmpOp(CmpKind::LeS)};
    case Tok::Gt:
      return {7, cmpOp(CmpKind::GtS)};
    case Tok::Ge:
      return {7, cmpOp(CmpKind::GeS)};
    case Tok::Shl:
      return {8, binOp(BinOp::Shl)};
    case Tok::Shr:
      return {8, binOp(BinOp::Shr)};
    case Tok::Plus:
      return {9, binOp(BinOp::Add)};
    case Tok::Minus:
      return {9, binOp(BinOp::Sub)};
    case Tok::Star:
      return {10, binOp(BinOp::Mul)};
    case Tok::Slash:
      return {10, binOp(BinOp::Div)};
    case Tok::Percent:
      return {10, binOp(BinOp::Mod)};
    default:
      return {-1, {}};
    }
  }

  /// Precedence climbing over binaryTok's table.
  FExprPtr parseBinary(int MinPrec) {
    FExprPtr L = parseUnary();
    while (true) {
      BinaryTok BT = binaryTok(cur().Kind);
      if (BT.Prec < 0 || BT.Prec < MinPrec)
        return L;
      ++Pos;
      FExprPtr R = parseBinary(BT.Prec + 1);
      FExprPtr E = makeExpr(FExprKind::Binary);
      E->Op = BT.Op;
      E->A = std::move(L);
      E->B = std::move(R);
      L = std::move(E);
    }
  }

  FExprPtr parseUnary() {
    if (at(Tok::Backquote)) {
      ++Pos;
      FExprPtr E = makeExpr(FExprKind::Tick);
      if (at(Tok::LBrace))
        E->Body = parseBlock();
      else
        E->A = parseUnary();
      return E;
    }
    if (accept(Tok::Dollar)) {
      FExprPtr E = makeExpr(FExprKind::Dollar);
      E->A = parseUnary();
      return E;
    }
    FOp Op;
    switch (cur().Kind) {
    case Tok::Minus:
      Op = unOp(UnOp::Neg);
      break;
    case Tok::Not:
      Op = unOp(UnOp::LogNot);
      break;
    case Tok::Tilde:
      Op = unOp(UnOp::Not);
      break;
    case Tok::Star:
      Op.Kind = FOp::Deref;
      break;
    case Tok::Amp:
      Op.Kind = FOp::AddrOf;
      break;
    default:
      break;
    }
    if (Op.Kind != FOp::None) {
      ++Pos;
      FExprPtr E = makeExpr(FExprKind::Unary);
      E->Op = Op;
      E->A = parseUnary();
      return E;
    }
    return parsePostfix();
  }

  FExprPtr parsePostfix() {
    FExprPtr E = parsePrimary();
    while (true) {
      if (accept(Tok::LParen)) {
        FExprPtr Call = makeExpr(FExprKind::Call);
        // Special forms with a type operand: compile(c, T), local(T),
        // param(T, i).
        bool TypeFirst = false, TypeSecond = false;
        if (E->Kind == FExprKind::Ident) {
          TypeFirst = E->Name == "local" || E->Name == "param";
          TypeSecond = E->Name == "compile";
        }
        Call->A = std::move(E);
        if (TypeFirst) {
          Call->TypeArg = parseType();
          while (accept(Tok::Comma))
            Call->Args.push_back(parseExpr());
        } else if (!at(Tok::RParen)) {
          Call->Args.push_back(parseExpr());
          while (accept(Tok::Comma)) {
            if (TypeSecond && atTypeStart() && Call->TypeArg.Base ==
                                                   TypeRef::Int &&
                Call->Args.size() == 1) {
              Call->TypeArg = parseType();
            } else {
              Call->Args.push_back(parseExpr());
            }
          }
        }
        expect(Tok::RParen);
        E = std::move(Call);
        continue;
      }
      if (accept(Tok::LBracket)) {
        FExprPtr Idx = makeExpr(FExprKind::Index);
        Idx->A = std::move(E);
        Idx->B = parseExpr();
        expect(Tok::RBracket);
        E = std::move(Idx);
        continue;
      }
      if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
        // x++ and x-- are x += 1 and x -= 1 valued at x's old value.
        FExprPtr P = makeExpr(FExprKind::PostIncDec);
        P->Op = binOp(at(Tok::PlusPlus) ? BinOp::Add : BinOp::Sub);
        ++Pos;
        P->A = std::move(E);
        P->B = makeExpr(FExprKind::IntLit);
        P->B->IntVal = 1;
        E = std::move(P);
        continue;
      }
      return E;
    }
  }

  FExprPtr parsePrimary() {
    if (at(Tok::IntLit)) {
      FExprPtr E = makeExpr(FExprKind::IntLit);
      E->IntVal = cur().IntVal;
      ++Pos;
      return E;
    }
    if (at(Tok::DoubleLit)) {
      FExprPtr E = makeExpr(FExprKind::DoubleLit);
      E->DoubleVal = cur().DoubleVal;
      ++Pos;
      return E;
    }
    if (at(Tok::StringLit)) {
      FExprPtr E = makeExpr(FExprKind::StringLit);
      E->StrVal = cur().Text;
      ++Pos;
      return E;
    }
    if (at(Tok::Ident)) {
      FExprPtr E = makeExpr(FExprKind::Ident);
      E->Name = cur().Text;
      ++Pos;
      return E;
    }
    if (accept(Tok::LParen)) {
      FExprPtr E = parseExpr();
      expect(Tok::RParen);
      return E;
    }
    error("expected expression");
  }

  std::vector<Token> Toks;
  std::size_t Pos = 0;
};

} // namespace

FProgram tcc::frontend::parseProgram(const std::string &Source) {
  Parser P(tokenize(Source));
  return P.parse();
}
