#include "util/diagnostic.h"

#include <ostream>

#include "util/strings.h"

namespace keddah::util {

std::string Diagnostic::to_string() const {
  if (!rule.empty()) {
    return format_diagnostic(file, format("line %zu: [%s]", line, rule.c_str()), message,
                             hint);
  }
  return format_diagnostic(file, key, message, hint);
}

std::string format_diagnostic(const std::string& file, const std::string& locus,
                              const std::string& message, const std::string& hint) {
  std::string line = file + ": " + locus + ": " + message;
  if (!hint.empty()) line += " (" + hint + ")";
  return line;
}

void print_diagnostic_line(std::ostream& os, bool is_error, const std::string& formatted) {
  os << (is_error ? "error: " : "warning: ") << formatted << "\n";
}

}  // namespace keddah::util
