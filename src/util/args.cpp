#include "util/args.h"

#include <charconv>
#include <stdexcept>

#include "util/strings.h"

namespace keddah::util {

Args Args::parse(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse(tokens);
}

Args Args::parse(const std::vector<std::string>& tokens) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!starts_with(token, "--")) {
      args.positionals_.push_back(token);
      continue;
    }
    std::string body = token.substr(2);
    if (body.empty() || body[0] == '-') {
      throw std::invalid_argument("args: malformed flag '" + token + "'");
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is itself a flag (then boolean).
    if (i + 1 < tokens.size() && !starts_with(tokens[i + 1], "--")) {
      args.flags_[body] = tokens[++i];
    } else {
      args.flags_[body] = "true";
    }
  }
  return args;
}

bool Args::has(const std::string& key) const {
  accessed_[key] = true;
  return flags_.count(key) != 0;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  accessed_[key] = true;
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  accessed_[key] = true;
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    throw std::invalid_argument("args: --" + key + " expects a number, got '" + it->second + "'");
  }
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  accessed_[key] = true;
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw UsageError("args: --" + key + " expects an integer, got '" + text + "'");
  }
  return value;
}

std::size_t Args::get_count(const std::string& key, std::size_t fallback) const {
  const std::int64_t value = get_int(key, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw UsageError("args: --" + key + " expects a count >= 0, got '" + flags_.at(key) + "'");
  }
  return static_cast<std::size_t>(value);
}

std::uint64_t Args::get_bytes(const std::string& key, std::uint64_t fallback) const {
  accessed_[key] = true;
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  std::uint64_t value = 0;
  if (!parse_bytes(it->second, &value)) {
    throw std::invalid_argument("args: --" + key + " expects a size, got '" + it->second + "'");
  }
  return value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  accessed_[key] = true;
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string lower = to_lower(it->second);
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  throw std::invalid_argument("args: --" + key + " expects a boolean, got '" + it->second + "'");
}

std::vector<std::string> Args::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : flags_) {
    (void)value;
    if (accessed_.count(key) == 0) unused.push_back(key);
  }
  return unused;
}

void Args::reject_unknown() const {
  const auto unknown = unused_keys();
  if (unknown.empty()) return;
  std::string message = "unknown flag(s):";
  for (const auto& key : unknown) {
    message += " --" + key;
    // Suggest the closest flag this command actually reads, when one is
    // plausibly a typo (distance scales with the flag's length).
    std::size_t best_distance = std::string::npos;
    std::string best;
    for (const auto& [candidate, read] : accessed_) {
      (void)read;
      const std::size_t distance = edit_distance(key, candidate);
      if (distance < best_distance || (distance == best_distance && candidate < best)) {
        best_distance = distance;
        best = candidate;
      }
    }
    const std::size_t threshold = key.size() / 3 > 2 ? key.size() / 3 : 2;
    if (!best.empty() && best_distance <= threshold) {
      message += " (did you mean --" + best + "?)";
    }
  }
  throw UsageError(message);
}

}  // namespace keddah::util
