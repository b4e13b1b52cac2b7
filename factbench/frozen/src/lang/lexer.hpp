#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fact::lang {

enum class Tok {
  End,
  Ident,
  Int,
  KwInt,
  KwInput,
  KwOutput,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Assign,   // =
  Plus,
  Minus,
  Star,
  Lt,
  Le,
  Gt,
  Ge,
  EqEq,
  Ne,
  Shl,
  Shr,
  AndAnd,
  OrOr,
  Bang,
  Tilde,
  Question,
  Colon,
  PlusPlus,  // postfix increment sugar: i++ means i = i + 1
};

struct Token {
  Tok kind = Tok::End;
  std::string text;   // identifier spelling
  int64_t value = 0;  // integer literal value
  int line = 1;
  int col = 1;
};

/// Tokenizes a full source string. Throws fact::ParseError on bad input.
/// Supports //-line comments and /* block */ comments.
std::vector<Token> tokenize(const std::string& source);

/// Human-readable token-kind name for diagnostics.
const char* tok_name(Tok t);

}  // namespace fact::lang
