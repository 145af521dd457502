// Small string helpers used by the front end and the test suite.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace uc::support {

std::vector<std::string_view> split_lines(std::string_view text);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Counts non-blank, non-comment lines — used by the conciseness experiment
// (E9 in DESIGN.md) to compare UC and C* program sizes.
std::size_t count_code_lines(std::string_view source);

// Escapes `s` for use inside a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

}  // namespace uc::support
