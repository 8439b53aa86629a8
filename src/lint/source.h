// The C++ source front end shared by keddah-detlint and keddah-archlint.
//
// Both linters are lexical scans, not parsers: they match patterns over a
// copy of each file in which comments and literal contents are blanked, so
// naming a construct in a comment or a string is never a finding. This
// header holds that one cleaner, the path walker that feeds it, and the
// small index helpers both passes use. Each linter harvests its own markers
// (`detlint:allow`, `archlint:allow`, `keddah:hot`) from the comments the
// cleaner returns.
#pragma once

#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/diagnostic.h"

namespace keddah::lint {

// Findings are util::Diagnostics with the `line` + `rule` locus.
using util::Diagnostic;
using util::Severity;

/// An in-memory source file. `path` scopes member lookups (foo.h pairs
/// with foo.cpp by stem) and names diagnostics.
struct SourceFile {
  std::string path;
  std::string text;
};

/// A source file after lexical cleanup. `clean` is the original text with
/// comments blanked to spaces and string/char literal contents blanked;
/// string literals keep their quote characters (so `"..." + x` stays
/// visible) while char literals and a raw string's `R` and delimiters are
/// blanked whole. Newlines are kept everywhere, so `clean` has the input's
/// size and every offset maps to the same line.
struct CleanSource {
  std::string path;
  std::string stem;   ///< basename without extension, for header/impl pairing
  std::string clean;
  std::vector<std::size_t> line_starts;  ///< offset of each line start
  std::set<std::size_t> comment_only_lines;  ///< 1-based lines holding only comment
  /// (1-based start line, text between the delimiters) for every comment,
  /// in source order; a block comment's text keeps its newlines. An
  /// unterminated comment at EOF still yields its text.
  std::vector<std::pair<std::size_t, std::string>> comments;
};

CleanSource clean_source(const SourceFile& file);

/// 1-based line holding `offset` in `src.clean`.
std::size_t line_of(const CleanSource& src, std::size_t offset);

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Offset just past the `>` matching the `<` at `open`, or npos.
std::size_t match_angle(const std::string& s, std::size_t open);

/// First offset at or after `i` that is not whitespace.
std::size_t skip_space(const std::string& s, std::size_t i);

/// Loads files and directories: directories recurse into *.h, *.hpp, *.cc
/// and *.cpp. The result is sorted by path with duplicates removed, so
/// overlapping arguments (`src src/net`) load each file once and output is
/// deterministic. A path that is neither a directory nor a readable file
/// throws std::runtime_error.
std::vector<SourceFile> load_sources(const std::vector<std::string>& paths);

}  // namespace keddah::lint
