// Strict number parsing for command lines and repro specs. The whole
// string must be one plain decimal number: no sign, no surrounding
// whitespace, no trailing text. "-1" cannot wrap to 2^64 - 1 the way
// std::stoull lets it, and "abc" yields nullopt instead of throwing
// std::invalid_argument out of main.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace txconc {

/// `text` as an unsigned integer no greater than `max`.
inline std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* const last = text.data() + text.size();
  std::uint64_t value = 0;
  // from_chars takes no sign and no leading whitespace for unsigned types.
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc{} || end != last || value > max) {
    return std::nullopt;
  }
  return value;
}

/// `text` as a finite, non-negative real ("0.25", "1e-05").
inline std::optional<double> parse_nonnegative(std::string_view text) {
  const char* const last = text.data() + text.size();
  if (text.empty() || text.front() == '-') return std::nullopt;
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace txconc
