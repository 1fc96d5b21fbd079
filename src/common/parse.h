// Whole-string number parsing for user input: command-line flags,
// rfh-check-case/1 fields, fault-plan values and redundancy specs.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace rfh {

/// Parse all of `text` as a T (an integer or floating-point type) with
/// std::from_chars. Fails on empty input, trailing characters, a sign on
/// an unsigned T, or a value outside T's range, so a 32-bit field never
/// wraps a wider input. `out` is left untouched on failure.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) noexcept {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace rfh
