#include "cli/args.hpp"

#include <cstdlib>
#include <stdexcept>

namespace hp::cli {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      if (token.size() == 2) {
        throw std::invalid_argument("bare '--' is not a valid option");
      }
      const std::string name = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[name] = std::string(argv[i + 1]);
        ++i;
      } else {
        options_[name] = std::nullopt;  // boolean flag
      }
    } else {
      positional_.push_back(token);
    }
  }
}

bool Args::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& name,
                         const std::string& fallback) const {
  const auto value = get(name);
  return value ? *value : fallback;
}

namespace {
double parse_double(const std::string& name, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("option --" + name +
                                ": expected a number, got '" + text + "'");
  }
  return value;
}
}  // namespace

std::optional<double> Args::get_double(const std::string& name) const {
  const auto value = get(name);
  if (!value) return std::nullopt;
  return parse_double(name, *value);
}

double Args::get_double_or(const std::string& name, double fallback) const {
  const auto value = get_double(name);
  return value ? *value : fallback;
}

std::optional<long long> Args::get_int(const std::string& name) const {
  const auto value = get(name);
  if (!value) return std::nullopt;
  const double d = parse_double(name, *value);
  const auto i = static_cast<long long>(d);
  if (static_cast<double>(i) != d) {
    throw std::invalid_argument("option --" + name +
                                ": expected an integer, got '" + *value + "'");
  }
  return i;
}

long long Args::get_int_or(const std::string& name, long long fallback) const {
  const auto value = get_int(name);
  return value ? *value : fallback;
}

std::optional<std::size_t> Args::get_uint(const std::string& name) const {
  const auto value = get_int(name);
  if (!value) return std::nullopt;
  if (*value < 0) {
    throw std::invalid_argument("option --" + name +
                                ": expected a non-negative integer, got '" +
                                *get(name) + "'");
  }
  return static_cast<std::size_t>(*value);
}

std::size_t Args::get_uint_or(const std::string& name,
                              std::size_t fallback) const {
  const auto value = get_uint(name);
  return value ? *value : fallback;
}

void Args::require_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : options_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("unknown option --" + name);
    }
  }
}

}  // namespace hp::cli
