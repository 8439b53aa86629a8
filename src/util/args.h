// Tiny command-line flag parser for the keddah CLI and examples.
//
// Grammar: positionals and --key value / --key=value flags; a flag without
// a following value (or followed by another flag) is boolean true.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace keddah::util {

/// A command-line usage mistake (unknown flag, ...). Distinct from
/// std::invalid_argument so the CLI driver can map it to exit code 2
/// (usage) rather than 1 (runtime failure).
class UsageError : public std::invalid_argument {
 public:
  explicit UsageError(const std::string& message) : std::invalid_argument(message) {}
};

/// Parsed command line.
class Args {
 public:
  /// Parses argv[1..). Throws std::invalid_argument on malformed flags
  /// (e.g. "---x").
  static Args parse(int argc, const char* const* argv);

  /// Parses a pre-split token vector (for tests).
  static Args parse(const std::vector<std::string>& tokens);

  const std::vector<std::string>& positionals() const { return positionals_; }

  bool has(const std::string& key) const;

  /// String flag with fallback.
  std::string get(const std::string& key, const std::string& fallback = "") const;

  /// Numeric flags; throw std::invalid_argument on unparsable values.
  double get_double(const std::string& key, double fallback) const;

  /// Whole decimal integer flag; trailing junk ("2abc", "1e3") is a
  /// UsageError naming the flag.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// Count flag (repetitions, reducers, hosts, threads, ...): get_int that
  /// also rejects negatives with a UsageError naming the flag.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// Byte-size flag ("2GB", "64MB", "4096"); throws on unparsable values.
  std::uint64_t get_bytes(const std::string& key, std::uint64_t fallback) const;

  /// Boolean flag: present without value, or with value true/false/1/0.
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Keys that were never read by any getter; lets the CLI reject typos.
  std::vector<std::string> unused_keys() const;

  /// Throws UsageError when any flag was never read by a getter. Call after
  /// every getter a command supports has run: the accessed keys define the
  /// command's flag vocabulary, and the nearest one (by edit distance) is
  /// suggested — "unknown flag --reducer (did you mean --reducers?)".
  void reject_unknown() const;

 private:
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> accessed_;
};

}  // namespace keddah::util
