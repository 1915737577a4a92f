// Common small utilities shared across the fsopt library.
//
// fsopt reproduces the compile-time false-sharing-reduction system of
// Jeremiassen & Eggers (PPoPP'95).  See DESIGN.md for the system map.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fsopt {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using u32 = std::uint32_t;
using u8 = std::uint8_t;

/// Internal-error exception: thrown on violated invariants inside the
/// compiler/simulator (never for user-program diagnostics, which flow
/// through DiagnosticEngine).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

#define FSOPT_CHECK(cond, msg)                                   \
  do {                                                           \
    if (!(cond)) throw ::fsopt::InternalError(std::string(msg)); \
  } while (0)

/// Round `v` up to the next multiple of `align` (align must be > 0).
constexpr i64 round_up(i64 v, i64 align) {
  return (v + align - 1) / align * align;
}

/// True iff `v` is a power of two (v > 0).
constexpr bool is_pow2(i64 v) { return v > 0 && (v & (v - 1)) == 0; }

/// log2(v) when v is a power of two, else -1.  Lets hot paths replace
/// division/modulo by a runtime value with shift/mask when possible.
constexpr int pow2_shift(i64 v) {
  if (!is_pow2(v)) return -1;
  int s = 0;
  while ((i64{1} << s) < v) ++s;
  return s;
}

/// `text` as a count in [0, INT_MAX] when it is exactly one: decimal
/// digits only, no sign, no spaces, nothing after them.  Anything else —
/// "12x", "-2", "4294967295" — is nullopt, so a command-line flag or an
/// environment variable is either taken whole or rejected.
inline std::optional<int> parse_count(std::string_view text) {
  unsigned v = 0;  // from_chars takes no sign for an unsigned type
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end ||
      v > static_cast<unsigned>(std::numeric_limits<int>::max()))
    return std::nullopt;
  return static_cast<int>(v);
}

}  // namespace fsopt
