#include "lint/source.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace keddah::lint {

namespace {

/// "src/net/network.cpp" -> "network".
std::string path_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

/// Offset of the '(' opening a raw string whose delimiter starts at `from`,
/// or npos when the line ends first (then `R"` is not a raw string).
std::size_t raw_open(const std::string& s, std::size_t from) {
  const std::size_t j = s.find_first_of("(\n", from);
  return j != std::string::npos && s[j] == '(' ? j : std::string::npos;
}

}  // namespace

CleanSource clean_source(const SourceFile& file) {
  CleanSource out;
  out.path = file.path;
  out.stem = path_stem(file.path);
  out.clean = file.text;
  out.line_starts.push_back(0);

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;          // for R"delim( ... )delim"
  std::string comment_buffer;     // text of the comment currently being read
  std::size_t comment_line = 1;   // line the current comment started on
  std::size_t line = 1;
  // Per-line bookkeeping for comment_only_lines.
  std::map<std::size_t, bool> line_has_comment;
  std::map<std::size_t, bool> line_has_code;

  const auto flush_comment = [&] {
    out.comments.emplace_back(comment_line, std::move(comment_buffer));
    comment_buffer.clear();
  };

  std::string& s = out.clean;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        flush_comment();
        state = State::kCode;
      } else if (state == State::kBlockComment) {
        comment_buffer += c;
      }
      out.line_starts.push_back(i + 1);
      ++line;
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          line_has_comment[line] = true;
          s[i] = s[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          line_has_comment[line] = true;
          s[i] = s[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' && (i == 0 || !ident_char(s[i - 1])) &&
                   raw_open(s, i + 2) != std::string::npos) {
          // Raw string literal R"delim( ... )delim": blank the 'R', the
          // delimiter and the contents, keep the quotes.
          const std::size_t j = raw_open(s, i + 2);
          raw_delim = s.substr(i + 2, j - i - 2);
          state = State::kRawString;
          line_has_code[line] = true;
          s[i] = ' ';
          for (std::size_t k = i + 2; k <= j; ++k) s[k] = ' ';
          i = j;
        } else if (c == '"') {
          state = State::kString;  // the opening quote stays
          line_has_code[line] = true;
        } else if (c == '\'' && i > 0 && ident_char(s[i - 1])) {
          line_has_code[line] = true;  // digit separator (1'000) or suffix, not a char
        } else if (c == '\'') {
          state = State::kChar;
          line_has_code[line] = true;
          s[i] = ' ';
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          line_has_code[line] = true;
        }
        break;
      }
      case State::kLineComment:
        comment_buffer += c;
        s[i] = ' ';
        break;
      case State::kBlockComment:
        line_has_comment[line] = true;
        if (c == '*' && next == '/') {
          flush_comment();
          state = State::kCode;
          s[i] = s[i + 1] = ' ';
          ++i;
        } else {
          comment_buffer += c;
          s[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          s[i] = ' ';
          if (next != '\n' && i + 1 < s.size()) s[++i] = ' ';
        } else if (c == close) {
          state = State::kCode;
          if (close == '\'') s[i] = ' ';  // a string's closing quote stays
        } else {
          s[i] = ' ';
        }
        break;
      }
      case State::kRawString:
        if (c == ')' && s.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < s.size() && s[i + 1 + raw_delim.size()] == '"') {
          const std::size_t end = i + 1 + raw_delim.size();  // the closing quote; kept
          for (std::size_t k = i; k < end; ++k) s[k] = ' ';
          i = end;
          state = State::kCode;
        } else if (c != '\n') {
          s[i] = ' ';
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) flush_comment();

  for (const auto& [ln, has_comment] : line_has_comment) {
    if (has_comment && !line_has_code[ln]) out.comment_only_lines.insert(ln);
  }
  return out;
}

std::size_t line_of(const CleanSource& src, std::size_t offset) {
  const auto it = std::upper_bound(src.line_starts.begin(), src.line_starts.end(), offset);
  return static_cast<std::size_t>(it - src.line_starts.begin());
}

std::size_t match_angle(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::vector<SourceFile> load_sources(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  const std::set<std::string> kExtensions = {".h", ".hpp", ".cc", ".cpp"};
  std::vector<std::string> files;
  for (const auto& path : paths) {
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() &&
            kExtensions.count(entry.path().extension().string()) != 0) {
          files.push_back(entry.path().string());
        }
      }
    } else if (fs::is_regular_file(path)) {
      files.push_back(path);
    } else {
      throw std::runtime_error("no such file or directory: " + path);
    }
  }
  std::sort(files.begin(), files.end());  // directory iteration order is unspecified
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file);
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(SourceFile{file, text.str()});
  }
  return sources;
}

}  // namespace keddah::lint
