#include "lang/parser.hpp"

#include "lang/lexer.hpp"
#include "util/error.hpp"

namespace fact::lang {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtPtr;

namespace {

class Parser {
 public:
  explicit Parser(const std::string& source) : toks_(tokenize(source)) {}

  ir::Function parse() {
    ir::Function fn(expect(Tok::Ident).text);
    expect(Tok::LParen);
    if (!check(Tok::RParen)) {
      do {
        expect(Tok::KwInt);
        fn.add_param(expect(Tok::Ident).text);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen);
    expect(Tok::LBrace);
    std::vector<StmtPtr> body;
    while (!check(Tok::RBrace)) parse_decl_or_stmt(fn, body);
    expect(Tok::RBrace);
    expect(Tok::End);
    fn.set_body(Stmt::block(std::move(body)));
    fn.validate();
    return fn;
  }

 private:
  // Recursion budget shared by statement and expression descent. The
  // parser consumes untrusted input (factd accepts behaviors over a
  // socket), so pathological nesting — "((((…", "!!!!…", or thousands of
  // nested ifs — must surface as a ParseError instead of exhausting the
  // stack and killing the process.
  static constexpr int kMaxDepth = 200;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (parser.depth_ >= kMaxDepth)
        parser.fail("nesting too deep (limit " + std::to_string(kMaxDepth) +
                    ")");
      ++parser.depth_;
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  const Token& peek(size_t off = 0) const {
    const size_t i = pos_ + off;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool check(Tok t) const { return peek().kind == t; }
  bool accept(Tok t) {
    if (!check(t)) return false;
    ++pos_;
    return true;
  }
  const Token& expect(Tok t) {
    if (!check(t))
      throw ParseError(std::string("expected ") + tok_name(t) + ", found " +
                           tok_name(peek().kind),
                       peek().line, peek().col);
    return toks_[pos_++];
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, peek().line, peek().col);
  }

  void parse_decl_or_stmt(ir::Function& fn, std::vector<StmtPtr>& out) {
    if (check(Tok::KwInput) || (check(Tok::KwInt) && peek(2).kind == Tok::LBracket)) {
      // Array declaration: [input] int name[size];
      const bool is_input = accept(Tok::KwInput);
      expect(Tok::KwInt);
      const std::string name = expect(Tok::Ident).text;
      expect(Tok::LBracket);
      const int64_t size = expect(Tok::Int).value;
      expect(Tok::RBracket);
      expect(Tok::Semi);
      if (size <= 0) fail("array size must be positive");
      fn.add_array({name, static_cast<size_t>(size), is_input});
      return;
    }
    if (check(Tok::KwOutput)) {
      expect(Tok::KwOutput);
      fn.add_output(expect(Tok::Ident).text);
      expect(Tok::Semi);
      return;
    }
    if (check(Tok::KwInt)) {
      // Scalar declaration with optional chained initializers:
      //   int i = a = 0;   declares i, also assigns a.
      expect(Tok::KwInt);
      std::vector<std::string> targets;
      targets.push_back(expect(Tok::Ident).text);
      if (accept(Tok::Semi)) return;  // bare decl, locals are implicit
      expect(Tok::Assign);
      while (check(Tok::Ident) && peek(1).kind == Tok::Assign) {
        targets.push_back(expect(Tok::Ident).text);
        expect(Tok::Assign);
      }
      ExprPtr init = parse_expr();
      expect(Tok::Semi);
      for (auto it = targets.rbegin(); it != targets.rend(); ++it)
        out.push_back(Stmt::assign(*it, init));
      return;
    }
    out.push_back(parse_stmt());
  }

  StmtPtr parse_stmt() {
    DepthGuard guard(*this);
    if (check(Tok::KwIf)) return parse_if();
    if (check(Tok::KwWhile)) return parse_while();
    if (check(Tok::KwFor)) return parse_for();
    if (check(Tok::KwInt)) {
      // Scalar declaration inside a block: `int v = expr;` (locals are
      // implicit, so this is just an assignment; chained initializers
      // lower to several assignments wrapped in a block).
      expect(Tok::KwInt);
      std::vector<std::string> targets;
      targets.push_back(expect(Tok::Ident).text);
      if (accept(Tok::Semi)) return Stmt::block({});
      expect(Tok::Assign);
      while (check(Tok::Ident) && peek(1).kind == Tok::Assign) {
        targets.push_back(expect(Tok::Ident).text);
        expect(Tok::Assign);
      }
      ExprPtr init = parse_expr();
      expect(Tok::Semi);
      if (targets.size() == 1) return Stmt::assign(targets[0], init);
      std::vector<StmtPtr> assigns;
      for (auto it = targets.rbegin(); it != targets.rend(); ++it)
        assigns.push_back(Stmt::assign(*it, init));
      return Stmt::block(std::move(assigns));
    }
    if (check(Tok::LBrace)) {
      expect(Tok::LBrace);
      std::vector<StmtPtr> stmts;
      while (!check(Tok::RBrace)) stmts.push_back(parse_stmt());
      expect(Tok::RBrace);
      return Stmt::block(std::move(stmts));
    }
    StmtPtr s = parse_simple_stmt();
    expect(Tok::Semi);
    return s;
  }

  /// Assignment, store or increment without trailing semicolon (shared by
  /// expression statements and for-loop init/step clauses).
  StmtPtr parse_simple_stmt() {
    const std::string name = expect(Tok::Ident).text;
    if (accept(Tok::PlusPlus))
      return Stmt::assign(name,
                          Expr::binary(Op::Add, Expr::var(name), Expr::constant(1)));
    if (accept(Tok::LBracket)) {
      ExprPtr index = parse_expr();
      expect(Tok::RBracket);
      expect(Tok::Assign);
      ExprPtr value = parse_expr();
      return Stmt::store(name, std::move(index), std::move(value));
    }
    expect(Tok::Assign);
    return Stmt::assign(name, parse_expr());
  }

  StmtPtr parse_if() {
    expect(Tok::KwIf);
    expect(Tok::LParen);
    ExprPtr cond = parse_expr();
    expect(Tok::RParen);
    std::vector<StmtPtr> then_stmts = parse_branch();
    std::vector<StmtPtr> else_stmts;
    if (accept(Tok::KwElse)) {
      if (check(Tok::KwIf)) {
        else_stmts.push_back(parse_if());
      } else {
        else_stmts = parse_branch();
      }
    }
    return Stmt::if_stmt(std::move(cond), std::move(then_stmts),
                         std::move(else_stmts));
  }

  StmtPtr parse_while() {
    expect(Tok::KwWhile);
    expect(Tok::LParen);
    ExprPtr cond = parse_expr();
    expect(Tok::RParen);
    return Stmt::while_stmt(std::move(cond), parse_branch());
  }

  StmtPtr parse_for() {
    expect(Tok::KwFor);
    expect(Tok::LParen);
    StmtPtr init = parse_simple_stmt();
    expect(Tok::Semi);
    ExprPtr cond = parse_expr();
    expect(Tok::Semi);
    StmtPtr step = parse_simple_stmt();
    expect(Tok::RParen);
    std::vector<StmtPtr> body = parse_branch();
    body.push_back(std::move(step));
    std::vector<StmtPtr> lowered;
    lowered.push_back(std::move(init));
    lowered.push_back(Stmt::while_stmt(std::move(cond), std::move(body)));
    return Stmt::block(std::move(lowered));
  }

  std::vector<StmtPtr> parse_branch() {
    std::vector<StmtPtr> stmts;
    if (accept(Tok::LBrace)) {
      while (!check(Tok::RBrace)) stmts.push_back(parse_stmt());
      expect(Tok::RBrace);
    } else {
      stmts.push_back(parse_stmt());
    }
    return stmts;
  }

  // ---- expressions, standard precedence climbing ----------------------
  ExprPtr parse_expr() {
    DepthGuard guard(*this);
    return parse_ternary();
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_or();
    if (!accept(Tok::Question)) return cond;
    ExprPtr t = parse_expr();
    expect(Tok::Colon);
    ExprPtr f = parse_expr();
    return Expr::select(std::move(cond), std::move(t), std::move(f));
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (accept(Tok::OrOr)) lhs = Expr::binary(Op::Or, lhs, parse_and());
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    while (accept(Tok::AndAnd)) lhs = Expr::binary(Op::And, lhs, parse_cmp());
    return lhs;
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_shift();
    for (;;) {
      Op op;
      if (check(Tok::Lt)) op = Op::Lt;
      else if (check(Tok::Le)) op = Op::Le;
      else if (check(Tok::Gt)) op = Op::Gt;
      else if (check(Tok::Ge)) op = Op::Ge;
      else if (check(Tok::EqEq)) op = Op::Eq;
      else if (check(Tok::Ne)) op = Op::Ne;
      else break;
      ++pos_;
      lhs = Expr::binary(op, lhs, parse_shift());
    }
    return lhs;
  }

  ExprPtr parse_shift() {
    ExprPtr lhs = parse_add();
    for (;;) {
      Op op;
      if (check(Tok::Shl)) op = Op::Shl;
      else if (check(Tok::Shr)) op = Op::Shr;
      else break;
      ++pos_;
      lhs = Expr::binary(op, lhs, parse_add());
    }
    return lhs;
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      Op op;
      if (check(Tok::Plus)) op = Op::Add;
      else if (check(Tok::Minus)) op = Op::Sub;
      else break;
      ++pos_;
      lhs = Expr::binary(op, lhs, parse_mul());
    }
    return lhs;
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    while (accept(Tok::Star)) lhs = Expr::binary(Op::Mul, lhs, parse_unary());
    return lhs;
  }

  ExprPtr parse_unary() {
    DepthGuard guard(*this);  // "!!!!…" recurses here without parse_expr
    if (accept(Tok::Bang)) return Expr::unary(Op::Not, parse_unary());
    if (accept(Tok::Tilde)) return Expr::unary(Op::BitNot, parse_unary());
    if (accept(Tok::Minus)) {
      ExprPtr operand = parse_unary();
      // Negative literals stay literals (also makes printing a fixpoint).
      if (operand->op() == Op::Const)
        return Expr::constant(-operand->value());
      return Expr::binary(Op::Sub, Expr::constant(0), operand);
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    if (check(Tok::Int)) return Expr::constant(expect(Tok::Int).value);
    if (accept(Tok::LParen)) {
      ExprPtr e = parse_expr();
      expect(Tok::RParen);
      return e;
    }
    if (check(Tok::Ident)) {
      const std::string name = expect(Tok::Ident).text;
      if (accept(Tok::LBracket)) {
        ExprPtr index = parse_expr();
        expect(Tok::RBracket);
        return Expr::array_read(name, std::move(index));
      }
      return Expr::var(name);
    }
    fail(std::string("expected expression, found ") + tok_name(peek().kind));
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

ir::Function parse_function(const std::string& source) {
  return Parser(source).parse();
}

}  // namespace fact::lang
