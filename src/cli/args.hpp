#pragma once
// Minimal dependency-free command-line argument parser for the hyperpower
// CLI: `--key value` and `--flag` options plus positional arguments, with
// typed accessors and unknown-option detection.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hp::cli {

/// Parsed command line.
class Args {
 public:
  /// Parses argv-style input (argv[0] is skipped). Options start with
  /// "--"; an option followed by a non-option token consumes it as its
  /// value, otherwise it is a boolean flag. Throws std::invalid_argument
  /// on a bare "--".
  Args(int argc, const char* const* argv);

  /// Positional (non-option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& name) const;

  /// String option value; std::nullopt when absent or a bare flag.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;

  /// Typed accessors; throw std::invalid_argument on malformed values.
  [[nodiscard]] std::optional<double> get_double(const std::string& name) const;
  [[nodiscard]] double get_double_or(const std::string& name,
                                     double fallback) const;
  [[nodiscard]] std::optional<long long> get_int(const std::string& name) const;
  [[nodiscard]] long long get_int_or(const std::string& name,
                                     long long fallback) const;
  /// Non-negative integer accessor; also rejects negative values.
  [[nodiscard]] std::optional<std::size_t> get_uint(
      const std::string& name) const;
  [[nodiscard]] std::size_t get_uint_or(const std::string& name,
                                        std::size_t fallback) const;

  /// Throws std::invalid_argument listing any option not in @p known.
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::optional<std::string>> options_;
};

}  // namespace hp::cli
