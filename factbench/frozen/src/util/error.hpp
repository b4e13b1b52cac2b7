#pragma once

#include <stdexcept>
#include <string>

namespace fact {

/// Base class for all user-facing errors raised by the FACT library
/// (parse errors, infeasible allocations, malformed IR, ...).
/// Internal invariant violations use assert() instead.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised by the front end on malformed source text. Carries a
/// line/column position formatted into the message.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int col)
      : Error("parse error at " + std::to_string(line) + ":" +
              std::to_string(col) + ": " + what),
        line_(line),
        col_(col) {}

  int line() const { return line_; }
  int col() const { return col_; }

 private:
  int line_;
  int col_;
};

}  // namespace fact
