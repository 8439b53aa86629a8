// Typed, diagnosing reads of JSON spec documents.
//
// Every spec parser (scenario, cluster, fault plan, api requests) and model
// loader (models, banks) reads its document through a JsonReader. A read
// never throws on malformed input: it records an error under the field's
// JSON key path in a Diagnostics sink and hands back the fallback, so one
// pass finds every defect. That makes the parser its own linter —
// keddah-lint prints the sink, and a throwing entry point raises its first
// error as a SpecError. Keys a parser never reads become "unknown key"
// warnings, so no schema keeps a separate list of its keys.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/diagnostic.h"
#include "util/json.h"

namespace keddah::util {

/// A key-path input defect: what() is the diagnostic line
/// "file: key: message (hint)". The one exception shape every spec parser
/// throws; an std::invalid_argument, so callers that only know the standard
/// type still catch it.
class SpecError : public std::invalid_argument {
 public:
  explicit SpecError(Diagnostic diagnostic);
  SpecError(std::string file, std::string key, std::string message, std::string hint = "");

  const std::string& file() const { return diagnostic_.file; }
  const std::string& key() const { return diagnostic_.key; }
  const std::string& message() const { return diagnostic_.message; }
  const std::string& hint() const { return diagnostic_.hint; }

  /// {"file", "key", "message", "hint"} — the diagnostic object embedded in
  /// error responses.
  Json to_json() const;

 private:
  Diagnostic diagnostic_;
};

/// The diagnostics found in one document, in report order.
class Diagnostics {
 public:
  explicit Diagnostics(std::string file) : file_(std::move(file)) {}

  const std::vector<Diagnostic>& all() const { return list_; }
  std::vector<Diagnostic> take() { return std::move(list_); }
  std::size_t num_errors() const { return errors_; }
  bool has_errors() const { return errors_ != 0; }

  void error(std::string key, std::string message, std::string hint = "");
  void warning(std::string key, std::string message, std::string hint = "");

  /// Throws the first error as a SpecError; returns when there is none.
  void throw_first_error() const;

 private:
  friend class JsonReader;
  void add(std::size_t at, Severity severity, std::string key, std::string message,
           std::string hint);

  std::string file_;
  std::vector<Diagnostic> list_;
  std::size_t errors_ = 0;
};

/// Reads the fields of one JSON object found at key path `path` ("" for the
/// document root). Absent fields yield the caller's fallback silently;
/// present-but-broken ones record an error and also yield the fallback.
/// When the reader goes out of scope, every field nobody read is reported
/// as an unknown-key warning, placed where the object's diagnostics begin.
class JsonReader {
 public:
  JsonReader(const Json& object, std::string path, Diagnostics& diagnostics);
  ~JsonReader();
  JsonReader(const JsonReader&) = delete;
  JsonReader& operator=(const JsonReader&) = delete;

  bool is_object() const { return object_.is_object(); }
  /// is_object(), reporting `message` at this object's own key path ("$"
  /// for the document root) when it is not.
  bool expect_object(const std::string& message) const;
  Diagnostics& diagnostics() const { return diagnostics_; }
  /// Key path of `field` inside this object.
  std::string key(const std::string& field) const;
  void error(const std::string& field, std::string message, std::string hint = "") const;

  /// The field's value, or null when absent. Marks the field read.
  const Json* find(const std::string& field);
  /// find(), but an absent field reports "missing required key".
  const Json* require(const std::string& field);

  /// A finite number.
  double number(const std::string& field, double fallback);
  /// A non-negative integer count (fractions truncate). Values below `min`
  /// report `message` and yield the fallback.
  std::uint64_t count(const std::string& field, std::uint64_t fallback, double min,
                      const std::string& message);
  /// A byte size: a number of bytes or a string like "128 MB". A `required`
  /// size must be present and > 0.
  std::uint64_t bytes(const std::string& field, std::uint64_t fallback, bool required = false);
  /// A non-empty array of byte sizes; elements report as "field[i]".
  std::vector<std::uint64_t> byte_sizes(const std::string& field);
  bool boolean(const std::string& field, bool fallback);
  std::string string(const std::string& field, const std::string& fallback);
  /// Index of the field's string value in `names`; unknown names report
  /// "unknown <what> '<name>'" with the alternatives as the hint.
  std::size_t name(const std::string& field, const std::vector<std::string>& names,
                   std::size_t fallback, const std::string& what);

  /// Stops unread fields from being reported (for objects whose schema the
  /// caller does not own).
  void accept_unknown_keys() { report_unknown_ = false; }

 private:
  const Json& object_;
  std::string path_;
  Diagnostics& diagnostics_;
  /// Where this object's unknown-key warnings go: the diagnostics count when
  /// reading began, so they precede the object's other findings.
  std::size_t anchor_;
  std::vector<const std::string*> read_;
  bool report_unknown_ = true;
};

/// Runs a collecting parser `parse(diagnostics)` over a document named
/// `file` and throws its first error as a SpecError — the throwing entry
/// point every collecting parser pairs with.
template <typename Parse>
auto parse_or_throw(const std::string& file, Parse parse) {
  Diagnostics diagnostics(file);
  auto value = parse(diagnostics);
  diagnostics.throw_first_error();
  return value;
}

}  // namespace keddah::util
