// Two's-complement 64-bit integer arithmetic: every result is defined and
// wraps modulo 2^64 instead of overflowing (which is undefined in C++ and
// traps on x86 for INT64_MIN / -1).
#pragma once

#include <cstdint>

namespace uc::support {

inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0ull - static_cast<std::uint64_t>(a));
}

// Truncating division and remainder for a nonzero divisor (callers report
// division by zero themselves).  The one overflowing quotient,
// INT64_MIN / -1, wraps to INT64_MIN; its remainder is 0.
inline std::int64_t wrap_div(std::int64_t a, std::int64_t b) {
  return b == -1 ? wrap_neg(a) : a / b;
}

inline std::int64_t wrap_mod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace uc::support
