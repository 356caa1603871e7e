#include "cli/args.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace beesim::cli {

Args::Args(std::vector<std::string> tokens, std::vector<std::string> booleanFlags) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    const auto body = token.substr(2);
    if (body.empty()) throw util::ConfigError("bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    const bool isBoolean =
        std::find(booleanFlags.begin(), booleanFlags.end(), body) != booleanFlags.end();
    if (isBoolean) {
      values_[body] = "true";
    } else {
      if (i + 1 >= tokens.size()) {
        throw util::ConfigError("flag --" + body + " needs a value");
      }
      values_[body] = tokens[++i];
    }
  }
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::getString(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

long Args::getInt(const std::string& name, long fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  // Overflow gets its own message: "--ppn=99999999999999999999" is a range
  // problem, not a syntax problem, and the error should say so.
  try {
    std::size_t pos = 0;
    const long parsed = std::stol(*value, &pos);
    if (pos != value->size()) {
      throw util::ConfigError("flag --" + name + ": '" + *value +
                              "' is not an integer (trailing characters)");
    }
    return parsed;
  } catch (const util::ConfigError&) {
    throw;
  } catch (const std::out_of_range&) {
    throw util::ConfigError("flag --" + name + ": '" + *value +
                            "' is out of range for an integer");
  } catch (const std::exception&) {
    throw util::ConfigError("flag --" + name + ": '" + *value + "' is not an integer");
  }
}

long Args::getInt(const std::string& name, long fallback, long min, long max) const {
  const long value = getInt(name, fallback);
  if (value < min || value > max) {
    throw util::ConfigError("flag --" + name + ": " + std::to_string(value) +
                            " is out of range [" + std::to_string(min) + ", " +
                            std::to_string(max) + "]");
  }
  return value;
}

std::size_t Args::getUnsigned(const std::string& name, std::size_t fallback) const {
  const long value = getInt(name, -1);
  if (!get(name)) return fallback;
  if (value < 0) {
    throw util::ConfigError("flag --" + name + " must be a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

double Args::getDouble(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  double parsed = 0.0;
  try {
    std::size_t pos = 0;
    parsed = std::stod(*value, &pos);
    if (pos != value->size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw util::ConfigError("flag --" + name + ": '" + *value + "' is not a number");
  }
  // std::stod happily parses "nan" and "inf", and NaN then slips through
  // every `x <= 0` validity guard downstream (NaN comparisons are false).
  if (!std::isfinite(parsed)) {
    throw util::ConfigError("flag --" + name + ": '" + *value + "' is not a finite number");
  }
  return parsed;
}

util::Bytes Args::getBytes(const std::string& name, util::Bytes fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return util::parseBytes(*value);  // throws ConfigError with details
}

bool Args::getBool(const std::string& name) const {
  const auto value = get(name);
  if (!value) return false;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  // Anything else (e.g. --mirror=tru) must not silently mean "false".
  throw util::ConfigError("flag --" + name + ": '" + *value +
                          "' is not a boolean (use true/1/yes or false/0/no)");
}

std::vector<std::string> Args::flagNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : values_) names.push_back(name);
  return names;
}

}  // namespace beesim::cli
