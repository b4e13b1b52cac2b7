#include "lang/lexer.hpp"

#include <cctype>
#include <cstdint>
#include <unordered_map>

#include "util/error.hpp"

namespace fact::lang {

namespace {

const std::unordered_map<std::string, Tok>& keywords() {
  static const std::unordered_map<std::string, Tok> kw = {
      {"int", Tok::KwInt},     {"input", Tok::KwInput},
      {"output", Tok::KwOutput}, {"if", Tok::KwIf},
      {"else", Tok::KwElse},   {"while", Tok::KwWhile},
      {"for", Tok::KwFor},
  };
  return kw;
}

}  // namespace

std::vector<Token> tokenize(const std::string& source) {
  std::vector<Token> out;
  size_t i = 0;
  int line = 1;
  int col = 1;

  auto advance = [&](size_t n = 1) {
    for (size_t k = 0; k < n && i < source.size(); ++k) {
      if (source[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto peek = [&](size_t off = 0) -> char {
    return i + off < source.size() ? source[i + off] : '\0';
  };
  auto push = [&](Tok kind, int tl, int tc) {
    Token t;
    t.kind = kind;
    t.line = tl;
    t.col = tc;
    out.push_back(t);
  };

  while (i < source.size()) {
    const char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < source.size() && peek() != '\n') advance();
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int sl = line, sc = col;
      advance(2);
      while (i < source.size() && !(peek() == '*' && peek(1) == '/')) advance();
      if (i >= source.size())
        throw ParseError("unterminated block comment", sl, sc);
      advance(2);
      continue;
    }

    const int tl = line, tc = col;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
        word.push_back(peek());
        advance();
      }
      auto it = keywords().find(word);
      if (it != keywords().end()) {
        push(it->second, tl, tc);
      } else {
        Token t;
        t.kind = Tok::Ident;
        t.text = word;
        t.line = tl;
        t.col = tc;
        out.push_back(t);
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      int64_t v = 0;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        const int64_t digit = peek() - '0';
        // Server-supplied sources reach this lexer; an oversized literal
        // must be a diagnostic, never signed-overflow UB.
        if (v > (INT64_MAX - digit) / 10)
          throw ParseError("integer literal too large", tl, tc);
        v = v * 10 + digit;
        advance();
      }
      Token t;
      t.kind = Tok::Int;
      t.value = v;
      t.line = tl;
      t.col = tc;
      out.push_back(t);
      continue;
    }

    auto two = [&](char a, char b) { return c == a && peek(1) == b; };
    if (two('<', '=')) { push(Tok::Le, tl, tc); advance(2); continue; }
    if (two('>', '=')) { push(Tok::Ge, tl, tc); advance(2); continue; }
    if (two('=', '=')) { push(Tok::EqEq, tl, tc); advance(2); continue; }
    if (two('!', '=')) { push(Tok::Ne, tl, tc); advance(2); continue; }
    if (two('<', '<')) { push(Tok::Shl, tl, tc); advance(2); continue; }
    if (two('>', '>')) { push(Tok::Shr, tl, tc); advance(2); continue; }
    if (two('&', '&')) { push(Tok::AndAnd, tl, tc); advance(2); continue; }
    if (two('|', '|')) { push(Tok::OrOr, tl, tc); advance(2); continue; }
    if (two('+', '+')) { push(Tok::PlusPlus, tl, tc); advance(2); continue; }

    switch (c) {
      case '(': push(Tok::LParen, tl, tc); break;
      case ')': push(Tok::RParen, tl, tc); break;
      case '{': push(Tok::LBrace, tl, tc); break;
      case '}': push(Tok::RBrace, tl, tc); break;
      case '[': push(Tok::LBracket, tl, tc); break;
      case ']': push(Tok::RBracket, tl, tc); break;
      case ';': push(Tok::Semi, tl, tc); break;
      case ',': push(Tok::Comma, tl, tc); break;
      case '=': push(Tok::Assign, tl, tc); break;
      case '+': push(Tok::Plus, tl, tc); break;
      case '-': push(Tok::Minus, tl, tc); break;
      case '*': push(Tok::Star, tl, tc); break;
      case '<': push(Tok::Lt, tl, tc); break;
      case '>': push(Tok::Gt, tl, tc); break;
      case '!': push(Tok::Bang, tl, tc); break;
      case '~': push(Tok::Tilde, tl, tc); break;
      case '?': push(Tok::Question, tl, tc); break;
      case ':': push(Tok::Colon, tl, tc); break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", tl, tc);
    }
    advance();
  }

  Token end;
  end.kind = Tok::End;
  end.line = line;
  end.col = col;
  out.push_back(end);
  return out;
}

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::End: return "<eof>";
    case Tok::Ident: return "identifier";
    case Tok::Int: return "integer";
    case Tok::KwInt: return "'int'";
    case Tok::KwInput: return "'input'";
    case Tok::KwOutput: return "'output'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwFor: return "'for'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Semi: return "';'";
    case Tok::Comma: return "','";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
    case Tok::EqEq: return "'=='";
    case Tok::Ne: return "'!='";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::AndAnd: return "'&&'";
    case Tok::OrOr: return "'||'";
    case Tok::Bang: return "'!'";
    case Tok::Tilde: return "'~'";
    case Tok::Question: return "'?'";
    case Tok::Colon: return "':'";
    case Tok::PlusPlus: return "'++'";
  }
  return "?";
}

}  // namespace fact::lang
