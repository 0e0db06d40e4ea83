// Whole-value number parsing for the example CLIs (game_runner,
// poa_explorer, sweep_runner): a flag value is either one complete number
// or an error that names the flag and the bad text -- never a silently
// truncated number the way atoi/atof read "5x" as 5.
#pragma once

#include <charconv>
#include <iostream>
#include <string>
#include <system_error>

/// Parses `text` as one whole number of type T: no spaces, '+' or trailing
/// characters, and '-' only for signed T.  On failure prints "<flag> needs
/// <kind>, got '<text>'" and returns false.
template <typename T>
bool parse_number(const std::string& flag, const std::string& text,
                  const char* kind, T& out) {
  const char* end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, out);
  if (parsed.ec == std::errc() && parsed.ptr == end) return true;
  std::cerr << flag << " needs " << kind << ", got '" << text << "'\n";
  return false;
}
