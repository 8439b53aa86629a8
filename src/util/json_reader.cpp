#include "util/json_reader.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace keddah::util {

namespace {

/// A byte size: a number of bytes or a string like "128 MB". Reports a
/// defect under `key` and returns false; a `required` size must be > 0.
bool read_size(const Json& value, const std::string& key, bool required,
               Diagnostics& diagnostics, std::uint64_t* size) {
  if (value.is_number()) {
    const double d = value.as_number();
    if (!std::isfinite(d) || d < 0.0) {
      diagnostics.error(key, "byte size must be finite and >= 0");
      return false;
    }
    if (d >= 0x1p64) {
      diagnostics.error(key, "byte size must be below 2^64");
      return false;
    }
    *size = static_cast<std::uint64_t>(d);
  } else if (!value.is_string() || !parse_bytes(value.as_string(), size)) {
    diagnostics.error(key, "unparseable byte size",
                      "use a number of bytes or a string like \"128 MB\"");
    return false;
  }
  if (required && *size == 0) {
    diagnostics.error(key, "byte size must be > 0");
    return false;
  }
  return true;
}

}  // namespace

SpecError::SpecError(Diagnostic diagnostic)
    : std::invalid_argument(diagnostic.to_string()), diagnostic_(std::move(diagnostic)) {}

SpecError::SpecError(std::string file, std::string key, std::string message, std::string hint)
    : SpecError(Diagnostic{Severity::kError, std::move(file), std::move(key), std::move(message),
                           std::move(hint)}) {}

Json SpecError::to_json() const {
  Json doc = Json::object();
  doc["file"] = Json(file());
  doc["key"] = Json(key());
  doc["message"] = Json(message());
  if (!hint().empty()) doc["hint"] = Json(hint());
  return doc;
}

void Diagnostics::add(std::size_t at, Severity severity, std::string key, std::string message,
                      std::string hint) {
  list_.insert(list_.begin() + static_cast<std::ptrdiff_t>(at),
               Diagnostic{severity, file_, std::move(key), std::move(message), std::move(hint)});
  if (severity == Severity::kError) ++errors_;
}

void Diagnostics::error(std::string key, std::string message, std::string hint) {
  add(list_.size(), Severity::kError, std::move(key), std::move(message), std::move(hint));
}

void Diagnostics::warning(std::string key, std::string message, std::string hint) {
  add(list_.size(), Severity::kWarning, std::move(key), std::move(message), std::move(hint));
}

void Diagnostics::throw_first_error() const {
  for (const auto& d : list_) {
    if (d.severity == Severity::kError) throw SpecError(d);
  }
}

JsonReader::JsonReader(const Json& object, std::string path, Diagnostics& diagnostics)
    : object_(object),
      path_(std::move(path)),
      diagnostics_(diagnostics),
      anchor_(diagnostics.list_.size()) {}

JsonReader::~JsonReader() {
  if (!report_unknown_ || !object_.is_object()) return;
  std::size_t at = anchor_;
  for (const auto& [field, value] : object_.as_object()) {
    if (std::find(read_.begin(), read_.end(), &field) != read_.end()) continue;
    diagnostics_.add(at++, Severity::kWarning, key(field), "unknown key (the parser ignores it)",
                     "check the spelling against the schema");
  }
}

bool JsonReader::expect_object(const std::string& message) const {
  if (!is_object()) diagnostics_.error(path_.empty() ? "$" : path_, message);
  return is_object();
}

std::string JsonReader::key(const std::string& field) const {
  return path_.empty() ? field : path_ + "." + field;
}

void JsonReader::error(const std::string& field, std::string message, std::string hint) const {
  diagnostics_.error(key(field), std::move(message), std::move(hint));
}

const Json* JsonReader::find(const std::string& field) {
  if (!object_.is_object()) return nullptr;
  const auto& fields = object_.as_object();
  const auto it = fields.find(field);
  if (it == fields.end()) return nullptr;
  if (std::find(read_.begin(), read_.end(), &it->first) == read_.end()) read_.push_back(&it->first);
  return &it->second;
}

const Json* JsonReader::require(const std::string& field) {
  const Json* value = find(field);
  if (value == nullptr) error(field, "missing required key");
  return value;
}

double JsonReader::number(const std::string& field, double fallback) {
  const Json* value = find(field);
  if (value == nullptr) return fallback;
  // JSON cannot carry NaN/inf, so the serializer writes them as null —
  // catching nulls here is what surfaces a NaN that was saved.
  if (!value->is_number() || !std::isfinite(value->as_number())) {
    error(field,
          value->is_null() ? "null where a number is expected (NaN/inf serializes as null)"
                           : "must be a finite number",
          "replace with a finite numeric value");
    return fallback;
  }
  return value->as_number();
}

std::uint64_t JsonReader::count(const std::string& field, std::uint64_t fallback, double min,
                                const std::string& message) {
  const double value = number(field, static_cast<double>(fallback));
  if (value < min) {
    error(field, message);
    return fallback;
  }
  // Saturate instead of overflowing the conversion.
  return value >= 0x1p64 ? UINT64_MAX : static_cast<std::uint64_t>(std::max(value, 0.0));
}

std::uint64_t JsonReader::bytes(const std::string& field, std::uint64_t fallback,
                                bool required) {
  const Json* value = find(field);
  if (value == nullptr) {
    if (required) error(field, "missing required key", "add e.g. \"" + field + "\": \"256 MB\"");
    return fallback;
  }
  std::uint64_t size = 0;
  return read_size(*value, key(field), required, diagnostics_, &size) ? size : fallback;
}

std::vector<std::uint64_t> JsonReader::byte_sizes(const std::string& field) {
  std::vector<std::uint64_t> sizes;
  const Json* value = find(field);
  if (value == nullptr || !value->is_array() || value->size() == 0) {
    error(field, "must be a non-empty array of byte sizes");
    return sizes;
  }
  for (std::size_t i = 0; i < value->size(); ++i) {
    std::uint64_t size = 0;
    if (read_size(value->at(i), format("%s[%zu]", key(field).c_str(), i), false, diagnostics_,
                  &size)) {
      sizes.push_back(size);
    }
  }
  return sizes;
}

bool JsonReader::boolean(const std::string& field, bool fallback) {
  const Json* value = find(field);
  if (value == nullptr) return fallback;
  if (!value->is_bool()) {
    error(field, "must be a boolean");
    return fallback;
  }
  return value->as_bool();
}

std::string JsonReader::string(const std::string& field, const std::string& fallback) {
  const Json* value = find(field);
  if (value == nullptr) return fallback;
  if (!value->is_string()) {
    error(field, "must be a string");
    return fallback;
  }
  return value->as_string();
}

std::size_t JsonReader::name(const std::string& field, const std::vector<std::string>& names,
                             std::size_t fallback, const std::string& what) {
  const Json* value = find(field);
  if (value == nullptr) return fallback;
  const std::string hint = "one of: " + join(names, ", ");
  if (!value->is_string()) {
    error(field, "must be a string", hint);
    return fallback;
  }
  const auto it = std::find(names.begin(), names.end(), value->as_string());
  if (it == names.end()) {
    error(field, "unknown " + what + " '" + value->as_string() + "'", hint);
    return fallback;
  }
  return static_cast<std::size_t>(it - names.begin());
}

}  // namespace keddah::util
