// Small string helpers shared by CLIs, CSV naming and bench output.
#pragma once

#include <string>
#include <vector>

namespace beesim::util {

/// Split on a delimiter; never returns an empty vector ("" -> {""}).
std::vector<std::string> split(const std::string& text, char delim);

/// Trim ASCII whitespace from both ends.
std::string trim(const std::string& text);

/// Lower-case ASCII copy.
std::string toLower(std::string text);

}  // namespace beesim::util
