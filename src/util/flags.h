#ifndef GOALREC_UTIL_FLAGS_H_
#define GOALREC_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

// Minimal command-line parsing for the repository's tools: flags are
// `--name=value` or bare `--name` (boolean true); everything else is a
// positional argument. No registration step — callers query by name with a
// default.

namespace goalrec::util {

/// The interval a numeric flag's value must lie in. Each end is closed
/// unless marked open; an end left at its default does not bound.
template <typename T>
struct FlagRange {
  T min = std::numeric_limits<T>::lowest();
  T max = std::numeric_limits<T>::max();
  bool min_open = false;
  bool max_open = false;
};

class FlagParser {
 public:
  /// Parses argv[1..argc). A literal "--" ends flag parsing; later
  /// arguments are positional even if they start with "--".
  FlagParser(int argc, const char* const* argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True iff --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of --name, or `default_value` when absent. A bare
  /// `--name` yields "".
  std::string GetString(const std::string& name,
                        const std::string& default_value = "") const;

  /// Value of --name as T (bool, an integer or a floating-point type), or
  /// `default_value` when absent. Booleans: bare `--name`, "true" or "1"
  /// is true; "false" or "0" is false. A present value that does not parse
  /// as T, an integer outside T's range, or a number outside `range`
  /// prints "<tool>: --name expects ..., got '...'" to stderr and exits the
  /// process with status 2: a mistyped flag stops the tool instead of
  /// running it on the default.
  template <typename T>
  T Get(const std::string& name, T default_value,
        FlagRange<T> range = {}) const;

  /// Flags seen that are not in `known` — for "unknown flag" diagnostics.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  // Each parser exits with status 2 (after naming the flag) on bad input.
  bool ParseBool(const std::string& name, const std::string& text) const;
  int64_t ParseInt(const std::string& name, const std::string& text,
                   int64_t min, int64_t max) const;
  double ParseDouble(const std::string& name, const std::string& text) const;
  // Names the interval ("an integer >= 1", "a number in (0, 1]") and exits.
  // An empty `min` or `max` is an unbounded end.
  [[noreturn]] void FailRange(const std::string& name, const std::string& text,
                              const char* kind, const std::string& min,
                              const std::string& max, bool min_open,
                              bool max_open) const;
  static std::string FormatBound(double bound);
  [[noreturn]] void Fail(const std::string& name, const std::string& expected,
                         const std::string& text) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

template <typename T>
T FlagParser::Get(const std::string& name, T default_value,
                  FlagRange<T> range) const {
  static_assert(std::is_arithmetic_v<T>, "use GetString for text flags");
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  if constexpr (std::is_same_v<T, bool>) {
    return ParseBool(name, it->second);
  } else {
    using Limits = std::numeric_limits<T>;
    T value;
    if constexpr (std::is_integral_v<T>) {
      constexpr int64_t kMax =
          static_cast<uint64_t>(Limits::max()) >
                  static_cast<uint64_t>(std::numeric_limits<int64_t>::max())
              ? std::numeric_limits<int64_t>::max()
              : static_cast<int64_t>(Limits::max());
      value = static_cast<T>(ParseInt(
          name, it->second, static_cast<int64_t>(Limits::min()), kMax));
    } else {
      value = static_cast<T>(ParseDouble(name, it->second));
    }
    const bool has_min = range.min != Limits::lowest();
    const bool has_max = range.max != Limits::max();
    const bool below =
        has_min && (range.min_open ? value <= range.min : value < range.min);
    const bool above =
        has_max && (range.max_open ? value >= range.max : value > range.max);
    if (below || above) {
      auto text = [](T bound) {
        if constexpr (std::is_integral_v<T>) {
          return std::to_string(bound);
        } else {
          return FormatBound(static_cast<double>(bound));
        }
      };
      FailRange(name, it->second,
                std::is_integral_v<T> ? "an integer" : "a number",
                has_min ? text(range.min) : "", has_max ? text(range.max) : "",
                range.min_open, range.max_open);
    }
    return value;
  }
}

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_FLAGS_H_
