// One diagnostic type + formatting for every checker and input parser.
//
// The spec parsers (scenario, cluster, fault plan, api requests) and
// keddah-lint report JSON defects with a `key` locus (the JSON key path);
// keddah-detlint and keddah-archlint report C++ source findings with a
// "line N: [rule-id]" locus. All render through one formatter so output is
// uniform and greppable:
//
//   <file>: <locus>: <message> (<hint>)
//
// The hint parenthetical is omitted when empty. print_diagnostic_line adds
// the "error: " / "warning: " severity prefix the CLIs emit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace keddah::util {

/// Diagnostic severity. Errors reject the input (lint exit 1, a parser
/// throws); warnings flag suspicious-but-runnable constructs.
enum class Severity : std::uint8_t { kWarning = 0, kError = 1 };

/// One finding. JSON-input checkers set `key` (the JSON key path); source
/// checkers set `line` + `rule` and leave `key` empty. to_string() picks the
/// locus accordingly.
struct Diagnostic {
  Severity severity = Severity::kError;
  /// Source file (or caller-supplied context string).
  std::string file;
  /// JSON key path of the offending value, e.g. "faults[2].at" or
  /// "classes.shuffle.size.parametric.p1". Empty for source checkers.
  std::string key;
  /// What is wrong.
  std::string message;
  /// How to fix it; empty when the message is self-explanatory.
  std::string hint;
  /// 1-based source line (detlint/archlint); 0 when the locus is `key`.
  std::size_t line = 0;
  /// Stable rule id (detlint/archlint); empty when the locus is `key`.
  std::string rule;

  /// "file: key: message (hint)" or "file: line N: [rule] message (hint)".
  std::string to_string() const;
};

/// "<file>: <locus>: <message> (<hint>)"; no parenthetical when `hint` is
/// empty.
std::string format_diagnostic(const std::string& file, const std::string& locus,
                              const std::string& message, const std::string& hint);

/// Writes "error: <formatted>\n" (or "warning: ...") to `os`.
void print_diagnostic_line(std::ostream& os, bool is_error, const std::string& formatted);

}  // namespace keddah::util
