// Small string utilities used by the parsers and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace svtox {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Splits on runs of whitespace; no empty fields.
std::vector<std::string_view> split_ws(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII upper-casing (locale-independent).
std::string to_upper(std::string_view s);

/// ASCII lower-casing (locale-independent).
std::string to_lower(std::string_view s);

/// Parses a non-negative integer; throws ContractError on malformed input.
std::size_t parse_size(std::string_view s);

/// Parses a double; throws ContractError on malformed input.
double parse_double(std::string_view s);

/// `prefix` followed by the decimal `n` ("g" and 12 give "g12"). Built by
/// appending: GCC 12 flags `"g" + std::to_string(n)` with a false
/// -Wrestrict positive inside libstdc++, which breaks -Werror builds.
std::string numbered(std::string_view prefix, long long n);

/// printf-style double formatting with fixed precision.
std::string format_double(double v, int precision);

}  // namespace svtox
