#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace fact {

/// printf-style formatting into a std::string. GCC 12 lacks <format>,
/// so this is the project-wide formatting helper.
inline std::string strfmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    // +1: vsnprintf writes the NUL terminator into the buffer; std::string
    // guarantees data()[size()] is writable as '\0' since C++11.
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace fact
