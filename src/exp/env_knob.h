// Strict parsing of the benches' numeric environment knobs
// (OMEGA_BENCH_DAYS, OMEGA_BENCH_THREADS, OMEGA_BENCH_SEED).
//
// A knob's value must be one base-10 number that spans the whole string,
// is finite, and lies in the knob's [lo, hi] range; thread counts are capped
// at kMaxKnobThreads. Anything else — "-1", "2x", "abc", "nan", "inf", a
// value past the range — is a usage error: the process prints the variable,
// its value and the accepted range, and exits with status 2, before any
// worker is started.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace omega {

// Ceiling for every thread-count knob (0 still means "hardware
// concurrency" where a knob documents it).
inline constexpr uint32_t kMaxKnobThreads = 256;

// `text` as a T in [lo, hi], or nullopt unless the whole string is one
// finite number in range. Integers take digits only (no sign, no
// whitespace); reals take std::from_chars' general format.
template <typename T>
std::optional<T> ParseKnob(std::string_view text, T lo, T hi) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  if (value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

// The parsed value of environment variable `name`, or nullopt when it is
// unset or empty. A value ParseKnob rejects is reported on stderr as
// "<name>=<value>: expected a number in [lo, hi]" and ends the process with
// status 2.
template <typename T>
std::optional<T> EnvKnob(const char* name, T lo, T hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return std::nullopt;
  }
  const std::optional<T> value = ParseKnob<T>(env, lo, hi);
  if (!value) {
    std::cerr << name << "=" << env << ": expected a number in [" << +lo
              << ", " << +hi << "]\n";
    std::exit(2);
  }
  return value;
}

}  // namespace omega
