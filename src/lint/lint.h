// keddah-lint: static validation of the JSON artifacts the toolchain
// consumes — scenario files, standalone fault plans, fitted model files, and
// model banks. Every defect is reported, each naming the file, the JSON key
// path, what is wrong, and how to fix it, so a scenario author can repair a
// file in one pass without running anything.
//
// Every kind is linted by its runtime loader in collecting mode:
// scenarios by core::parse_scenario, fault plans by hadoop::parse_fault_plan,
// models by model::KeddahModel::from_json and banks by
// model::ModelBank::from_json. Lint rejects exactly what `keddah
// run-scenario`, `generate` and `serve` reject, with the same words; the
// rules live next to the data they guard (DESIGN.md §"Static checks").
// This file only sniffs the document kind, loads files and prints.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/diagnostic.h"
#include "util/json.h"

namespace keddah::lint {

using util::Diagnostic;
using util::Severity;

/// What kind of document a file was recognized as.
enum class FileKind : std::uint8_t {
  kScenario = 0,   // object with "jobs"
  kFaultPlan = 1,  // top-level array of fault events
  kModel = 2,      // object with "classes"/"job_name"
  kModelBank = 3,  // object with "models"
  kUnknown = 4,
};

/// Stable kind name ("scenario", "fault_plan", "model", "model_bank").
const char* file_kind_name(FileKind kind);

// keddah-lint findings set the Diagnostic `key` locus (JSON key path).

/// Result of linting one document.
struct LintReport {
  FileKind kind = FileKind::kUnknown;
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return num_errors() == 0; }
  std::size_t num_errors() const;
  std::size_t num_warnings() const;
};

/// Lints an already-parsed document. `file` names the source in every
/// diagnostic. The document kind is sniffed from its shape (see FileKind);
/// unrecognized documents yield a single unknown-kind error.
LintReport lint_document(const util::Json& doc, const std::string& file);

/// Loads, parses, and lints one file. I/O and JSON syntax errors (including
/// duplicate object keys) become diagnostics instead of exceptions.
LintReport lint_file(const std::string& path);

/// Individual document linters, usable when the kind is known.
void lint_scenario(const util::Json& doc, const std::string& file,
                   std::vector<Diagnostic>& out);
void lint_fault_plan(const util::Json& array, const std::string& file,
                     std::vector<Diagnostic>& out);
void lint_model(const util::Json& doc, const std::string& file,
                std::vector<Diagnostic>& out);
void lint_model_bank(const util::Json& doc, const std::string& file,
                     std::vector<Diagnostic>& out);

/// Prints every diagnostic, one per line, errors first.
void print_report(const LintReport& report, std::ostream& os);

}  // namespace keddah::lint
