// Minimal JSON value, parser, and pretty-printer.
//
// Used to persist trained Keddah models so that models built by one binary
// (e.g. the trainer example) can be replayed by another (e.g. the topology
// case-study bench). Supports the full JSON grammar; \uXXXX escapes —
// including UTF-16 surrogate pairs — decode to UTF-8, and malformed escapes
// fail with the byte offset of the defect.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace keddah::util {

/// A JSON document node. Value-semantic; copy is deep.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps serialization deterministic (sorted keys).
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), number_(d) {}
  Json(int i) : type_(Type::kNumber), number_(i) {}
  Json(std::int64_t i) : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Factory helpers for empty containers.
  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access; `at` throws when missing. Spec documents are read
  /// through util::JsonReader, which reports defects instead.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Mutators (convert the node to the needed container type if null).
  Json& operator[](const std::string& key);
  void push_back(Json value);

  /// Array element access; throws on out-of-range or non-array.
  const Json& at(std::size_t index) const;
  std::size_t size() const;

  /// Serializes. `indent` < 0 means compact single-line output.
  std::string dump(int indent = 2) const;

  /// Parses text; throws std::runtime_error with offset info on bad input.
  /// Duplicate object keys are an error (RFC 8259 leaves them undefined;
  /// last-value-wins would silently drop the first binding), reported with
  /// the offending key name so keddah-lint and scenario parsing can point
  /// at it.
  static Json parse(const std::string& text);

  /// File helpers; throw std::runtime_error on I/O failure.
  static Json load_file(const std::string& path);
  void save_file(const std::string& path, int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace keddah::util
