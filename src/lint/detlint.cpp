#include "lint/detlint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>

#include "util/strings.h"

namespace keddah::lint {

namespace {

// ---------------------------------------------------------------------------
// Phase 1: symbol collection.
// ---------------------------------------------------------------------------

/// Where unordered-container names live: variables are matched within the
/// declaring file or its header/impl partner (same stem); functions whose
/// declared return type is unordered match call sites anywhere.
struct Registry {
  std::map<std::string, std::set<std::string>> vars;  ///< name -> declaring stems
  std::set<std::string> fns;                          ///< unordered-returning functions
};

/// Reads a (possibly qualified) identifier at `i`; returns its last
/// component and advances `i` past it. Empty when `i` is not at one.
std::string read_identifier(const std::string& s, std::size_t& i) {
  std::string last;
  for (;;) {
    std::size_t j = i;
    std::string word;
    while (j < s.size() && ident_char(s[j])) word += s[j++];
    if (word.empty()) return last;
    last = word;
    i = j;
    const std::size_t after = skip_space(s, i);
    if (after + 1 < s.size() && s[after] == ':' && s[after + 1] == ':') {
      i = skip_space(s, after + 2);
      continue;
    }
    return last;
  }
}

void collect_symbols(const CleanSource& src, Registry& registry) {
  static const std::regex decl_re(R"(std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<)");
  const std::string& s = src.clean;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) + it->length() - 1;
    std::size_t pos = match_angle(s, open);
    if (pos == std::string::npos) continue;
    pos = skip_space(s, pos);
    if (pos < s.size() && s[pos] == '>') continue;  // nested in another template
    while (pos < s.size() && (s[pos] == '&' || s[pos] == '*')) pos = skip_space(s, pos + 1);
    std::size_t id_end = pos;
    const std::string name = read_identifier(s, id_end);
    if (name.empty()) continue;
    const std::size_t after = skip_space(s, id_end);
    const char tail = after < s.size() ? s[after] : '\0';
    if (tail == '(') {
      registry.fns.insert(name);  // function returning an unordered container
    } else if (tail == ';' || tail == '=' || tail == '{' || tail == ',' || tail == ')') {
      registry.vars[name].insert(src.stem);
    }
  }
}

/// `auto x = <unordered-returning-fn>(...)` makes `x` unordered too.
void propagate_auto_vars(const CleanSource& src, Registry& registry) {
  for (const auto& fn : registry.fns) {
    const std::regex auto_re("auto\\s*&?&?\\s+(\\w+)\\s*=\\s*[^;]{0,160}?\\b" + fn + "\\s*\\(");
    const std::string& s = src.clean;
    for (auto it = std::sregex_iterator(s.begin(), s.end(), auto_re);
         it != std::sregex_iterator(); ++it) {
      registry.vars[(*it)[1].str()].insert(src.stem);
    }
  }
}

bool var_in_scope(const Registry& registry, const std::string& name, const std::string& stem) {
  const auto it = registry.vars.find(name);
  return it != registry.vars.end() && it->second.count(stem) != 0;
}

// ---------------------------------------------------------------------------
// Phase 2: rule checks.
// ---------------------------------------------------------------------------

struct Finding {
  std::size_t line;
  std::string rule;
  std::string message;
  std::string hint;
};

const char* const kUnorderedIterHint =
    "sort keys into a vector (or use std::map) before iterating, or justify an "
    "order-insensitive use with // detlint:allow(unordered-iter)";

/// Root identifier of a range expression: "net.topology().hosts_by_rack()"
/// -> ("hosts_by_rack", was_call=true); "files_" -> ("files_", false). A
/// trailing argument list is bracket-matched back to the identifier before
/// it, whatever it holds: `lookup(key)` -> ("lookup", true).
std::string range_root(const std::string& expr, bool* was_call) {
  constexpr const char* kSpace = " \t\r\n";
  std::size_t end = expr.find_last_not_of(kSpace);
  if (end == std::string::npos) return "";
  *was_call = expr[end] == ')';
  if (*was_call) {
    int depth = 0;
    std::size_t open = end + 1;
    do {
      --open;
      if (expr[open] == ')') ++depth;
      if (expr[open] == '(') --depth;
    } while (depth > 0 && open > 0);
    if (depth != 0 || open == 0) return "";
    end = expr.find_last_not_of(kSpace, open - 1);
    if (end == std::string::npos) return "";
  }
  std::size_t begin = end + 1;
  while (begin > 0 && ident_char(expr[begin - 1])) --begin;
  if (begin > end || std::isdigit(static_cast<unsigned char>(expr[begin])) != 0) return "";
  return expr.substr(begin, end + 1 - begin);
}

void check_range_for(const CleanSource& src, const Registry& registry,
                     std::vector<Finding>& out) {
  const std::string& s = src.clean;
  std::size_t pos = 0;
  while ((pos = s.find("for", pos)) != std::string::npos) {
    const bool word_start = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t after_kw = pos + 3;
    const bool word_end = after_kw >= s.size() || !ident_char(s[after_kw]);
    if (!word_start || !word_end) {
      pos = after_kw;
      continue;
    }
    const std::size_t open = skip_space(s, after_kw);
    if (open >= s.size() || s[open] != '(') {
      pos = after_kw;
      continue;
    }
    // Bracket-match the for(...) group; find a top-level ':' (not '::').
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (--depth == 0 && c == ')') {
          close = i;
          break;
        }
      }
      if (c == ':' && depth == 1) {
        const bool double_colon = (i + 1 < s.size() && s[i + 1] == ':') ||
                                  (i > 0 && s[i - 1] == ':');
        if (!double_colon && colon == std::string::npos) colon = i;
      }
    }
    if (colon != std::string::npos && close != std::string::npos) {
      const std::string expr = s.substr(colon + 1, close - colon - 1);
      bool was_call = false;
      const std::string root = range_root(expr, &was_call);
      const bool hit = !root.empty() && (was_call ? registry.fns.count(root) != 0
                                                  : var_in_scope(registry, root, src.stem));
      if (hit) {
        out.push_back(Finding{
            line_of(src, pos), "unordered-iter",
            "range-for over unordered container '" + root +
                "' iterates in platform-dependent bucket order",
            kUnorderedIterHint});
      }
    }
    pos = close == std::string::npos ? after_kw : close;
  }
}

void check_begin_iteration(const CleanSource& src, const Registry& registry,
                           std::vector<Finding>& out) {
  static const std::regex begin_re(R"((\w+)\s*(?:\.|->)\s*c?begin\s*\()");
  const std::string& s = src.clean;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), begin_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (!var_in_scope(registry, name, src.stem)) continue;
    out.push_back(Finding{line_of(src, static_cast<std::size_t>(it->position())),
                          "unordered-iter",
                          "iterator walk over unordered container '" + name +
                              "' visits elements in platform-dependent bucket order",
                          kUnorderedIterHint});
  }
}

void check_pointer_key(const CleanSource& src, std::vector<Finding>& out) {
  static const std::regex ordered_re(R"(std\s*::\s*(map|set|multimap|multiset)\s*<)");
  const std::string& s = src.clean;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), ordered_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) + it->length() - 1;
    // First top-level template argument: up to a depth-1 ',' or the close.
    int depth = 0;
    std::string key_type;
    for (std::size_t i = open; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '<') {
        if (depth++ > 0) key_type += c;
        continue;
      }
      if (c == '>') {
        if (--depth == 0) break;
        key_type += c;
        continue;
      }
      if (c == ',' && depth == 1) break;
      if (depth >= 1) key_type += c;
    }
    const std::string trimmed{util::trim(key_type)};
    if (trimmed.empty() || trimmed.back() != '*') continue;
    out.push_back(Finding{
        line_of(src, static_cast<std::size_t>(it->position())), "pointer-key",
        "ordered std::" + (*it)[1].str() + " keyed by pointer type '" + trimmed +
            "' sorts by address, which ASLR changes every run",
        "key by a stable id (NodeId, FlowId, slot index) instead of an address"});
  }
}

void check_regex_rule(const CleanSource& src, const std::regex& re, const char* rule,
                      const std::string& message, const std::string& hint,
                      std::vector<Finding>& out) {
  const std::string& s = src.clean;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re); it != std::sregex_iterator();
       ++it) {
    out.push_back(
        Finding{line_of(src, static_cast<std::size_t>(it->position())), rule, message, hint});
  }
}

/// line -> rules named by a `detlint:allow(<rule>)` comment starting there.
std::map<std::size_t, std::set<std::string>> harvest_allows(const CleanSource& src) {
  static const std::regex allow_re(R"(detlint:allow\(([a-z][a-z-]*)\))");
  std::map<std::size_t, std::set<std::string>> allows;
  for (const auto& [line, comment] : src.comments) {
    for (auto it = std::sregex_iterator(comment.begin(), comment.end(), allow_re);
         it != std::sregex_iterator(); ++it) {
      allows[line].insert((*it)[1].str());
    }
  }
  return allows;
}

/// True when a component of `path` is "bench" or "perfbench".
bool under_bench(const std::string& path) {
  const std::string wrapped = "/" + path + "/";
  return wrapped.find("/bench/") != std::string::npos ||
         wrapped.find("/perfbench/") != std::string::npos;
}

void check_file(const CleanSource& src, const Registry& registry, DetlintReport& report) {
  std::vector<Finding> findings;
  check_range_for(src, registry, findings);
  check_begin_iteration(src, registry, findings);
  check_pointer_key(src, findings);

  static const std::regex random_device_re(R"(std\s*::\s*random_device\b)");
  check_regex_rule(src, random_device_re, "random-device",
                   "std::random_device draws nondeterministic seeds",
                   "derive all randomness from util::derive_seed(base_seed, index)", findings);

  static const std::regex chrono_clock_re(
      R"(std\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|high_resolution_clock)\b)");
  static const std::regex c_time_re(
      R"((?:\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd\s*::\s*time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)))");
  const std::string wall_msg = "wall-clock time in simulation code breaks replay determinism";
  const std::string wall_hint =
      "simulated time comes from sim::Simulator::now(); benches measuring real "
      "elapsed time belong under bench/, not src/";
  // Benches measure real elapsed time by design, so the rule's own advice
  // exempts them.
  if (!under_bench(src.path)) {
    check_regex_rule(src, chrono_clock_re, "wall-clock", wall_msg, wall_hint, findings);
    check_regex_rule(src, c_time_re, "wall-clock", wall_msg, wall_hint, findings);
  }

  static const std::regex bare_mutex_re(
      R"(std\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  static const std::regex mutex_include_re(
      R"(#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>)");
  const std::string mutex_msg =
      "bare standard-library synchronization bypasses the annotated wrappers";
  const std::string mutex_hint =
      "use util::Mutex / util::MutexLock / util::CondVar (util/mutex.h) so "
      "clang -Wthread-safety can prove the lock discipline";
  check_regex_rule(src, bare_mutex_re, "bare-mutex", mutex_msg, mutex_hint, findings);
  check_regex_rule(src, mutex_include_re, "bare-mutex", mutex_msg, mutex_hint, findings);

  // Dedupe (one finding per rule per line), then apply allow-comments.
  const auto allows = harvest_allows(src);
  std::set<std::pair<std::size_t, std::string>> seen;
  for (const auto& f : findings) {
    if (!seen.insert({f.line, f.rule}).second) continue;
    const auto allowed = [&](std::size_t line) {
      const auto it = allows.find(line);
      return it != allows.end() && it->second.count(f.rule) != 0;
    };
    const bool same_line = allowed(f.line);
    const bool previous_comment_line =
        f.line > 1 && src.comment_only_lines.count(f.line - 1) != 0 && allowed(f.line - 1);
    if (same_line || previous_comment_line) {
      ++report.suppressions_used;
      continue;
    }
    report.diagnostics.push_back(Diagnostic{.file = src.path,
                                            .message = f.message,
                                            .hint = f.hint,
                                            .line = f.line,
                                            .rule = f.rule});
  }
}

}  // namespace

const std::vector<std::string>& detlint_rule_ids() {
  static const std::vector<std::string> kRules = {
      "bare-mutex", "pointer-key", "random-device", "unordered-iter", "wall-clock"};
  return kRules;
}

DetlintReport detlint_sources(const std::vector<SourceFile>& sources) {
  std::vector<CleanSource> cleaned;
  cleaned.reserve(sources.size());
  for (const auto& file : sources) cleaned.push_back(clean_source(file));

  Registry registry;
  for (const auto& src : cleaned) collect_symbols(src, registry);
  for (const auto& src : cleaned) propagate_auto_vars(src, registry);

  DetlintReport report;
  report.files_scanned = cleaned.size();
  for (const auto& src : cleaned) check_file(src, registry, report);
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });
  return report;
}

DetlintReport detlint_paths(const std::vector<std::string>& paths) {
  return detlint_sources(load_sources(paths));
}

}  // namespace keddah::lint
