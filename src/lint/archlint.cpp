#include "lint/archlint.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/json_reader.h"
#include "util/log.h"
#include "util/strings.h"

namespace keddah::lint {

namespace {

// ---------------------------------------------------------------------------
// Source preparation: the shared cleaner (lint/source.h), plus the markers
// archlint harvests from comments and the quoted #includes.
// ---------------------------------------------------------------------------

struct HotMarker {
  std::size_t line = 0;
  std::string label;
};

struct ASource : CleanSource {
  /// line -> rule -> justification (empty when none was written).
  std::map<std::size_t, std::map<std::string, std::string>> allows;
  std::vector<HotMarker> hot_markers;
  /// (1-based line, include path) for every quoted #include.
  std::vector<std::pair<std::size_t, std::string>> includes;
};

void harvest_markers(const std::string& comment, std::size_t line, ASource& out) {
  static const std::regex allow_re(R"(archlint:allow\(([a-z][a-z-]*)\)(?::[ \t]*(.*))?)");
  for (auto it = std::sregex_iterator(comment.begin(), comment.end(), allow_re);
       it != std::sregex_iterator(); ++it) {
    out.allows[line][(*it)[1].str()] = std::string(util::trim((*it)[2].str()));
  }
  // Anchored to the start of the comment so prose *mentioning* the marker
  // (this checker's own docs, DESIGN.md excerpts) doesn't create a region.
  static const std::regex hot_re(R"((?:^|\n)[ \t]*keddah:hot(?:\(([A-Za-z0-9_.-]+)\))?)");
  for (auto it = std::sregex_iterator(comment.begin(), comment.end(), hot_re);
       it != std::sregex_iterator(); ++it) {
    out.hot_markers.push_back(HotMarker{line, (*it)[1].str()});
  }
}

void harvest_includes(const std::string& text, ASource& out) {
  static const std::regex inc_re(R"re(^[ \t]*#[ \t]*include[ \t]*"([^"]+)")re");
  std::size_t pos = 0;
  std::size_t line = 1;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string ln = text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    std::smatch m;
    if (std::regex_search(ln, m, inc_re)) out.includes.emplace_back(line, m[1].str());
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
}

ASource prepare(const SourceFile& file) {
  ASource out{clean_source(file)};
  for (const auto& [line, comment] : out.comments) harvest_markers(comment, line, out);
  harvest_includes(file.text, out);
  return out;
}

// ---------------------------------------------------------------------------
// Small lexical helpers shared by the passes.
// ---------------------------------------------------------------------------

std::string read_ident(const std::string& s, std::size_t& i) {
  std::string out;
  while (i < s.size() && ident_char(s[i])) out += s[i++];
  return out;
}

/// The declared identifier after a container's closing `>`, when the match
/// is a declaration (`std::map<K,V> name;` / `... name{...}` / `... name =`
/// / `... name(...)`). Empty otherwise (references, parameters past `&`,
/// return types followed by `::`, etc.).
std::string declared_name_after(const std::string& s, std::size_t after_angle) {
  std::size_t i = skip_space(s, after_angle);
  if (i < s.size() && (s[i] == '&' || s[i] == '*')) return "";  // ref/ptr binding
  std::string name = read_ident(s, i);
  if (name.empty()) return "";
  i = skip_space(s, i);
  if (i >= s.size()) return "";
  const char c = s[i];
  if (c == ';' || c == '=' || c == '{' || c == '(' || c == ',') return name;
  return "";
}

// ---------------------------------------------------------------------------
// Phase 1 registry: node-container variables and visible reserve() calls,
// scoped by file stem (network.h pairs with network.cpp).
// ---------------------------------------------------------------------------

struct Registry {
  /// variable name -> stems that declare it as a node-based container.
  std::map<std::string, std::set<std::string>> node_vars;
  /// stem -> variable names with a visible `.reserve(` in the stem group.
  std::map<std::string, std::set<std::string>> reserved;
};

void collect_symbols(const ASource& src, Registry& registry) {
  static const std::regex decl_re(
      R"(\bstd::(unordered_map|unordered_set|unordered_multimap|unordered_multiset|multimap|multiset|map|set|list)\s*<)");
  const std::string& s = src.clean;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), decl_re); it != std::sregex_iterator();
       ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) + it->length() - 1;
    const std::size_t after = match_angle(s, open);
    if (after == std::string::npos) continue;
    const std::string name = declared_name_after(s, after);
    if (!name.empty()) registry.node_vars[name].insert(src.stem);
  }
  static const std::regex reserve_re(R"((\w+)\s*\.\s*reserve\s*\()");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), reserve_re);
       it != std::sregex_iterator(); ++it) {
    registry.reserved[src.stem].insert((*it)[1].str());
  }
}

bool is_node_var(const Registry& registry, const ASource& src, const std::string& name) {
  const auto it = registry.node_vars.find(name);
  return it != registry.node_vars.end() && it->second.count(src.stem) != 0;
}

bool has_reserve(const Registry& registry, const ASource& src, const std::string& name) {
  const auto it = registry.reserved.find(src.stem);
  return it != registry.reserved.end() && it->second.count(name) != 0;
}

// ---------------------------------------------------------------------------
// Modules and the layer pass.
// ---------------------------------------------------------------------------

std::vector<std::string> path_parts(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// A file's module: the directory component after the last `src/`, else the
/// parent directory's name, else "".
std::string module_of(const std::string& path) {
  const std::vector<std::string> parts = path_parts(path);
  if (parts.size() < 2) return "";
  for (std::size_t i = parts.size() - 1; i-- > 0;) {
    if (parts[i] == "src" && i + 2 < parts.size()) return parts[i + 1];
  }
  return parts[parts.size() - 2];
}

/// An include path's module: its first directory component, if any.
std::string include_module(const std::string& inc) {
  const auto slash = inc.find('/');
  return slash == std::string::npos ? std::string() : inc.substr(0, slash);
}

struct RawFinding {
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string hint;
};

/// Iterative Tarjan SCC over the module graph; returns components with
/// more than one member (sorted for determinism).
std::vector<std::vector<std::string>> module_cycles(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::vector<std::string> names;
  names.reserve(adj.size());
  for (const auto& [m, _] : adj) names.push_back(m);
  std::map<std::string, int> id;
  for (std::size_t i = 0; i < names.size(); ++i) id[names[i]] = static_cast<int>(i);

  const int n = static_cast<int>(names.size());
  std::vector<int> index(n, -1), low(n, 0), on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> cycles;

  struct Frame {
    int v;
    std::vector<int> succ;
    std::size_t next = 0;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames;
    const auto push_vertex = [&](int v) {
      index[v] = low[v] = next_index++;
      stack.push_back(v);
      on_stack[v] = 1;
      Frame f;
      f.v = v;
      for (const auto& t : adj.at(names[static_cast<std::size_t>(v)])) {
        const auto it = id.find(t);
        if (it != id.end()) f.succ.push_back(it->second);
      }
      frames.push_back(std::move(f));
    };
    push_vertex(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succ.size()) {
        const int w = f.succ[f.next++];
        if (index[w] == -1) {
          push_vertex(w);
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          std::vector<std::string> comp;
          int w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            comp.push_back(names[static_cast<std::size_t>(w)]);
          } while (w != f.v);
          if (comp.size() > 1) {
            std::sort(comp.begin(), comp.end());
            cycles.push_back(std::move(comp));
          }
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
    }
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

// ---------------------------------------------------------------------------
// Hot-region pass.
// ---------------------------------------------------------------------------

struct Region {
  std::size_t open = 0;   ///< offset of the opening '{'
  std::size_t close = 0;  ///< offset just past the matching '}'
  std::size_t begin_line = 0;
  std::size_t end_line = 0;
  std::string label;
};

/// Finds the braced region a keddah:hot marker covers: the first '{' at or
/// after the marker line, brace-matched (to EOF when unbalanced). Returns
/// false when no '{' follows the marker.
bool find_region(const ASource& src, const HotMarker& marker, Region& out) {
  const std::string& s = src.clean;
  const std::size_t from =
      marker.line - 1 < src.line_starts.size() ? src.line_starts[marker.line - 1] : s.size();
  const std::size_t open = s.find('{', from);
  if (open == std::string::npos) return false;
  int depth = 0;
  std::size_t close = s.size();
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '{') ++depth;
    if (s[i] == '}' && --depth == 0) {
      close = i + 1;
      break;
    }
  }
  out.open = open;
  out.close = close;
  out.begin_line = line_of(src, open);
  out.end_line = line_of(src, close == 0 ? 0 : close - 1);
  out.label = marker.label;
  return true;
}

void scan_region_hazards(const ASource& src, const Registry& registry, const Region& region,
                         std::vector<RawFinding>& out) {
  const std::string body = src.clean.substr(region.open, region.close - region.open);
  const auto emit = [&](std::size_t body_off, const std::string& rule, std::string message,
                        std::string hint) {
    out.push_back(RawFinding{line_of(src, region.open + body_off), rule, std::move(message),
                             std::move(hint)});
  };

  static const std::regex member_op_re(
      R"((\w+)\s*\.\s*(insert|emplace|try_emplace|emplace_hint|erase|push_back|emplace_back)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), member_op_re);
       it != std::sregex_iterator(); ++it) {
    const std::string var = (*it)[1].str();
    const std::string op = (*it)[2].str();
    const std::size_t off = static_cast<std::size_t>(it->position());
    if (op == "push_back" || op == "emplace_back") {
      if (is_node_var(registry, src, var)) {
        emit(off, "hot-node-container",
             util::format("'%s.%s' on a node-based container allocates a node per call",
                          var.c_str(), op.c_str()),
             "prefer flat/indexed storage (slot map, sorted vector) on hot paths");
      } else if (!has_reserve(registry, src, var)) {
        emit(off, "hot-push-back",
             util::format("'%s.%s' with no visible '%s.reserve(' in this file or its stem pair",
                          var.c_str(), op.c_str(), var.c_str()),
             "reserve capacity up front or reuse a member scratch buffer");
      }
    } else if (is_node_var(registry, src, var)) {
      emit(off, "hot-node-container",
           util::format("'%s.%s' on a node-based container allocates/frees a node per call",
                        var.c_str(), op.c_str()),
           "prefer flat/indexed storage (slot map, sorted vector) on hot paths");
    }
  }

  static const std::regex local_re(
      R"(\bstd::(vector|deque|map|set|multimap|multiset|list|unordered_map|unordered_set|unordered_multimap|unordered_multiset)\s*<)");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), local_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    // `static` locals allocate once, not per invocation.
    const std::size_t line_start = body.rfind('\n', pos);
    const std::string prefix =
        body.substr(line_start == std::string::npos ? 0 : line_start + 1,
                    pos - (line_start == std::string::npos ? 0 : line_start + 1));
    if (prefix.find("static") != std::string::npos) continue;
    const std::size_t open = pos + static_cast<std::size_t>(it->length()) - 1;
    const std::size_t after = match_angle(body, open);
    if (after == std::string::npos) continue;
    const std::string name = declared_name_after(body, after);
    if (name.empty()) continue;
    emit(pos, "hot-local-container",
         util::format("'std::%s %s' constructs a fresh container per invocation",
                      (*it)[1].str().c_str(), name.c_str()),
         "hoist to a reused member scratch buffer");
  }

  static const std::regex fn_re(R"(\bstd::function\s*<)");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), fn_re);
       it != std::sregex_iterator(); ++it) {
    emit(static_cast<std::size_t>(it->position()), "hot-std-function",
         "std::function construction (type-erased callable; heap allocation beyond SBO)",
         "use a concrete callable or an index into a handler table");
  }

  static const std::regex concat_re(R"(("\s*\+)|(\+=?\s*"))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), concat_re);
       it != std::sregex_iterator(); ++it) {
    emit(static_cast<std::size_t>(it->position()), "hot-string-concat",
         "string concatenation with a literal allocates per call",
         "build into a reused buffer or defer formatting off the hot path");
  }

  static const std::regex sp_re(R"(\bstd::(make_shared|shared_ptr)\s*<)");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), sp_re);
       it != std::sregex_iterator(); ++it) {
    emit(static_cast<std::size_t>(it->position()), "hot-shared-ptr",
         (*it)[1].str() == "make_shared"
             ? std::string("make_shared allocates a control block and bumps atomic refcounts")
             : std::string("shared_ptr construction/copy (atomic refcount traffic)"),
         "pass by reference/raw pointer, or keep ownership outside the hot loop");
  }
}

// ---------------------------------------------------------------------------
// Allow lookup.
// ---------------------------------------------------------------------------

/// Returns true when `rule` is allowed at `line`: an allow on the same
/// line, or anywhere in the contiguous block of comment-only lines directly
/// above it (justifications routinely wrap). `justification` is filled
/// from the allow comment.
bool find_allow(const ASource& src, std::size_t line, const std::string& rule,
                std::size_t* allow_line, std::string* justification) {
  const auto check = [&](std::size_t ln) {
    const auto it = src.allows.find(ln);
    if (it == src.allows.end()) return false;
    const auto rit = it->second.find(rule);
    if (rit == it->second.end()) return false;
    *allow_line = ln;
    *justification = rit->second;
    return true;
  };
  if (check(line)) return true;
  std::size_t ln = line;
  while (ln > 1 && src.comment_only_lines.count(ln - 1) != 0) {
    --ln;
    if (check(ln)) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

int LayerSpec::layer_of(const std::string& module) const {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    for (const auto& m : layers[i]) {
      if (m == module) return static_cast<int>(i);
    }
  }
  return -1;
}

LayerSpec default_layer_spec() {
  LayerSpec spec;
  // The repo's layer DAG, low to high (DESIGN.md "Layer DAG"). Modules
  // sharing a rank are independent siblings and must not include each other.
  spec.layers = {
      {"util"},
      {"core", "sim", "stats"},
      {"net"},
      {"capture"},
      {"hadoop"},
      {"model"},
      {"gen", "workloads"},
      {"keddah"},
      {"api"},
      {"lint"},
      {"serve"},
      {"cli"},
  };
  // Highest measured transitive fan-in is util/check.h at 63 of 122 files;
  // 80 leaves headroom for organic growth while catching a new "everything
  // includes it" hub before it congeals.
  spec.max_fanin = 80;
  return spec;
}

LayerSpec layer_spec_from_json(const util::Json& doc, util::Diagnostics& diagnostics) {
  LayerSpec spec;
  util::JsonReader r(doc, "", diagnostics);
  const util::Json* layers = r.find("layers");
  const bool ranked = layers != nullptr && layers->is_array();
  if (!ranked) {
    diagnostics.error("layers", "expected an object with a \"layers\" array",
                      "e.g. {\"layers\": [[\"util\"], [\"sim\", \"stats\"]]}");
  }
  for (std::size_t i = 0; ranked && i < layers->size(); ++i) {
    const util::Json& rank = layers->at(i);
    std::vector<std::string> names;
    for (std::size_t j = 0; rank.is_array() && j < rank.size(); ++j) {
      if (rank.at(j).is_string()) names.push_back(rank.at(j).as_string());
    }
    if (!rank.is_array() || names.size() != rank.size()) {
      diagnostics.error(util::format("layers[%zu]", i), "must be an array of module names");
    }
    spec.layers.push_back(std::move(names));
  }
  spec.max_fanin = r.count("max_fanin", 0, 0.0, "must be >= 0 (0 disables fanin-budget)");
  spec.strict_modules = r.boolean("strict_modules", false);
  return spec;
}

LayerSpec load_layer_spec(const std::string& path) {
  const util::Json doc = util::Json::load_file(path);
  util::Diagnostics diagnostics(path);
  LayerSpec spec = layer_spec_from_json(doc, diagnostics);
  diagnostics.throw_first_error();
  for (const auto& d : diagnostics.all()) KLOG_WARN << d.to_string();
  return spec;
}

const std::vector<std::string>& archlint_rule_ids() {
  static const std::vector<std::string> kRules = {
      "allow-unjustified", "cpp-include",        "fanin-budget",   "hot-local-container",
      "hot-marker",        "hot-node-container", "hot-push-back",  "hot-shared-ptr",
      "hot-std-function",  "hot-string-concat",  "layer-cycle",    "layer-unknown",
      "layer-upward"};
  return kRules;
}

ArchlintReport archlint_sources(const std::vector<SourceFile>& sources, const LayerSpec& spec) {
  std::vector<ASource> cleaned;
  cleaned.reserve(sources.size());
  for (const auto& file : sources) cleaned.push_back(prepare(file));

  Registry registry;
  for (const auto& src : cleaned) collect_symbols(src, registry);

  ArchlintReport report;
  report.files_scanned = cleaned.size();

  // Findings are gathered raw per file, then filtered through allows once.
  std::map<std::string, std::vector<RawFinding>> raw;  // path -> findings
  const auto is_header = [](const std::string& path) {
    return path.size() >= 2 &&
           (path.rfind(".h") == path.size() - 2 ||
            (path.size() >= 4 && path.rfind(".hpp") == path.size() - 4));
  };

  // --- Layer pass -----------------------------------------------------------
  std::map<std::string, std::set<std::string>> module_adj;
  // (from-module, to-module) -> representative (file, line), first lexically.
  std::map<std::pair<std::string, std::string>, std::pair<std::string, std::size_t>> edge_rep;
  std::set<std::string> scanned_modules;
  for (const auto& src : cleaned) {
    const std::string mod = module_of(src.path);
    if (mod.empty()) continue;
    scanned_modules.insert(mod);
    module_adj[mod];  // ensure vertex
    report.modules[mod].files++;
    for (const auto& [line, inc] : src.includes) {
      if (inc.size() > 4 && inc.compare(inc.size() - 4, 4, ".cpp") == 0) {
        raw[src.path].push_back(RawFinding{
            line, "cpp-include",
            util::format("#include names a translation unit '%s'", inc.c_str()),
            "include the header instead"});
      } else if (inc.size() > 3 && inc.compare(inc.size() - 3, 3, ".cc") == 0) {
        raw[src.path].push_back(RawFinding{
            line, "cpp-include",
            util::format("#include names a translation unit '%s'", inc.c_str()),
            "include the header instead"});
      }
      const std::string target = include_module(inc);
      if (target.empty() || target == mod) continue;
      module_adj[mod].insert(target);
      const auto key = std::make_pair(mod, target);
      if (edge_rep.find(key) == edge_rep.end()) edge_rep[key] = {src.path, line};
      const int from_rank = spec.layer_of(mod);
      const int to_rank = spec.layer_of(target);
      if (from_rank >= 0 && to_rank >= 0 && to_rank >= from_rank) {
        raw[src.path].push_back(RawFinding{
            line, "layer-upward",
            to_rank == from_rank
                ? util::format("include of '%s' reaches sibling module '%s' (same layer %d as "
                               "'%s')",
                               inc.c_str(), target.c_str(), from_rank, mod.c_str())
                : util::format("include of '%s' reaches module '%s' (layer %d) from '%s' (layer "
                               "%d)",
                               inc.c_str(), target.c_str(), to_rank, mod.c_str(), from_rank),
            "dependencies point down only; move the shared piece to a lower layer or invert "
            "the dependency"});
      }
    }
  }
  for (const auto& mod : scanned_modules) {
    report.modules[mod].layer = spec.layer_of(mod);
    for (const auto& t : module_adj[mod]) {
      if (scanned_modules.count(t) != 0) report.modules[mod].deps.push_back(t);
    }
    if (spec.strict_modules && spec.layer_of(mod) < 0) {
      // Anchor at the lexically-first file of the module.
      std::string rep_file;
      for (const auto& src : cleaned) {
        if (module_of(src.path) == mod && (rep_file.empty() || src.path < rep_file)) {
          rep_file = src.path;
        }
      }
      raw[rep_file].push_back(RawFinding{
          1, "layer-unknown",
          util::format("module '%s' is not in the layer table", mod.c_str()),
          "add it to the layer spec (see DESIGN.md \"Layer DAG\")"});
    }
  }
  for (const auto& cycle : module_cycles(module_adj)) {
    // Anchor at the lexically-first intra-cycle include edge.
    std::string rep_file;
    std::size_t rep_line = 1;
    const std::set<std::string> members(cycle.begin(), cycle.end());
    for (const auto& [edge, rep] : edge_rep) {
      if (members.count(edge.first) != 0 && members.count(edge.second) != 0) {
        if (rep_file.empty() || rep.first < rep_file) {
          rep_file = rep.first;
          rep_line = rep.second;
        }
      }
    }
    raw[rep_file.empty() ? cycle.front() : rep_file].push_back(RawFinding{
        rep_line, "layer-cycle",
        util::format("module cycle: {%s} — the include graph is not a DAG",
                     util::join(cycle, ", ").c_str()),
        "split the shared piece into a lower layer so all edges point down"});
  }

  // --- Fan-in budget --------------------------------------------------------
  // Resolve includes to scanned files, then count transitive includers.
  std::map<std::string, std::size_t> path_index;
  for (std::size_t i = 0; i < cleaned.size(); ++i) path_index[cleaned[i].path] = i;
  const auto resolve = [&](const std::string& inc) -> int {
    int best = -1;
    for (std::size_t i = 0; i < cleaned.size(); ++i) {
      const std::string& p = cleaned[i].path;
      if (p == inc || (p.size() > inc.size() + 1 &&
                       p.compare(p.size() - inc.size() - 1, inc.size() + 1, "/" + inc) == 0)) {
        if (best < 0 || p < cleaned[static_cast<std::size_t>(best)].path) {
          best = static_cast<int>(i);
        }
      }
    }
    return best;
  };
  std::vector<std::vector<int>> file_adj(cleaned.size());
  for (std::size_t i = 0; i < cleaned.size(); ++i) {
    for (const auto& [line, inc] : cleaned[i].includes) {
      (void)line;
      const int t = resolve(inc);
      if (t >= 0 && static_cast<std::size_t>(t) != i) file_adj[i].push_back(t);
    }
  }
  std::vector<std::size_t> fanin(cleaned.size(), 0);
  for (std::size_t i = 0; i < cleaned.size(); ++i) {
    std::vector<int> stack(file_adj[i].begin(), file_adj[i].end());
    std::set<int> seen;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (!seen.insert(v).second) continue;
      for (int w : file_adj[static_cast<std::size_t>(v)]) stack.push_back(w);
    }
    for (int v : seen) fanin[static_cast<std::size_t>(v)]++;
  }
  for (std::size_t i = 0; i < cleaned.size(); ++i) {
    if (!is_header(cleaned[i].path)) continue;
    report.header_fanin[cleaned[i].path] = fanin[i];
    if (spec.max_fanin > 0 && fanin[i] > spec.max_fanin) {
      raw[cleaned[i].path].push_back(RawFinding{
          1, "fanin-budget",
          util::format("transitive include fan-in %zu exceeds the budget %zu", fanin[i],
                       spec.max_fanin),
          "trim includes (iosfwd, forward declarations) or split the header"});
    }
  }

  // --- Hot pass -------------------------------------------------------------
  std::set<std::string> hot_stems;
  std::map<std::string, std::vector<std::pair<HotRegion, std::vector<RawFinding>>>> hot_by_file;
  for (const auto& src : cleaned) {
    for (const auto& marker : src.hot_markers) {
      Region region;
      if (!find_region(src, marker, region)) {
        raw[src.path].push_back(
            RawFinding{marker.line, "hot-marker",
                       "keddah:hot marker with no braced region after it",
                       "place the marker immediately before a function or block"});
        continue;
      }
      hot_stems.insert(src.stem);
      std::vector<RawFinding> hazards;
      scan_region_hazards(src, registry, region, hazards);
      HotRegion hr;
      hr.file = src.path;
      hr.label = region.label;
      hr.begin_line = region.begin_line;
      hr.end_line = region.end_line;
      hot_by_file[src.path].emplace_back(std::move(hr), std::move(hazards));
    }
  }

  // --- Apply allows, dedupe, and assemble -----------------------------------
  std::vector<std::set<std::pair<std::size_t, std::string>>> seen_per_file(cleaned.size());
  // Returns false when the finding is a duplicate (same file/line/rule).
  const auto admit = [&](const std::string& path, const RawFinding& f, HotHazard* hazard_out) {
    const auto idx_it = path_index.find(path);
    bool allowed = false;
    std::string justification;
    std::size_t allow_line = 0;
    if (idx_it != path_index.end()) {
      if (!seen_per_file[idx_it->second].insert({f.line, f.rule}).second) {
        return false;  // dedupe
      }
      allowed = find_allow(cleaned[idx_it->second], f.line, f.rule, &allow_line, &justification);
    }
    if (hazard_out != nullptr) {
      hazard_out->line = f.line;
      hazard_out->rule = f.rule;
      hazard_out->message = f.message;
      hazard_out->allowed = allowed;
      hazard_out->justification = justification;
    }
    if (allowed) {
      ++report.suppressions_used;
      return true;
    }
    report.diagnostics.push_back(Diagnostic{
        .file = path, .message = f.message, .hint = f.hint, .line = f.line, .rule = f.rule});
    return true;
  };

  for (const auto& src : cleaned) {
    auto it = raw.find(src.path);
    if (it != raw.end()) {
      for (const auto& f : it->second) admit(src.path, f, nullptr);
    }
    auto hit = hot_by_file.find(src.path);
    if (hit != hot_by_file.end()) {
      for (auto& [region, hazards] : hit->second) {
        for (const auto& f : hazards) {
          HotHazard hazard;
          if (admit(src.path, f, &hazard)) region.hazards.push_back(std::move(hazard));
        }
        report.hot_regions.push_back(std::move(region));
      }
    }
    // Every unjustified allow is itself a finding, used or not: a silent
    // allow with no written reason defeats the audit trail.
    for (const auto& [line, rules] : src.allows) {
      for (const auto& [rule, justification] : rules) {
        if (!justification.empty()) continue;
        report.diagnostics.push_back(Diagnostic{
            .file = src.path,
            .message = util::format("archlint:allow(%s) without a justification", rule.c_str()),
            .hint = "write '// archlint:allow(<rule>): <why>'",
            .line = line,
            .rule = "allow-unjustified"});
      }
    }
  }

  // --- Pointer-heavy inventory (files in stem groups that contain hot
  // regions): the columnar-arena input artifact. ----------------------------
  static const std::regex heavy_re(
      R"(\bstd::(unordered_map|unordered_set|unordered_multimap|unordered_multiset|multimap|multiset|map|set|list|deque|shared_ptr|unique_ptr|function)\s*<)");
  for (const auto& src : cleaned) {
    if (hot_stems.count(src.stem) == 0) continue;
    const std::string& s = src.clean;
    for (auto it = std::sregex_iterator(s.begin(), s.end(), heavy_re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position()) + it->length() - 1;
      const std::size_t after = match_angle(s, open);
      if (after == std::string::npos) continue;
      const std::string name = declared_name_after(s, after);
      if (name.empty()) continue;
      report.pointer_heavy.push_back(PointerHeavyDecl{
          src.path, line_of(src, static_cast<std::size_t>(it->position())),
          "std::" + (*it)[1].str(), name});
    }
  }

  for (auto& [mod, info] : report.modules) {
    (void)mod;
    std::sort(info.deps.begin(), info.deps.end());
  }
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });
  std::sort(report.pointer_heavy.begin(), report.pointer_heavy.end(),
            [](const PointerHeavyDecl& a, const PointerHeavyDecl& b) {
              return std::tie(a.file, a.line, a.name) < std::tie(b.file, b.line, b.name);
            });
  std::sort(report.hot_regions.begin(), report.hot_regions.end(),
            [](const HotRegion& a, const HotRegion& b) {
              return std::tie(a.file, a.begin_line) < std::tie(b.file, b.begin_line);
            });
  return report;
}

util::Json ArchlintReport::to_json() const {
  util::Json doc = util::Json::object();
  doc["tool"] = "keddah-archlint";
  doc["files_scanned"] = static_cast<std::uint64_t>(files_scanned);
  doc["suppressions_used"] = static_cast<std::uint64_t>(suppressions_used);

  util::Json findings = util::Json::array();
  for (const auto& d : diagnostics) {
    util::Json f = util::Json::object();
    f["file"] = d.file;
    f["line"] = static_cast<std::uint64_t>(d.line);
    f["rule"] = d.rule;
    f["message"] = d.message;
    f["hint"] = d.hint;
    findings.push_back(std::move(f));
  }
  doc["findings"] = std::move(findings);

  util::Json mods = util::Json::object();
  for (const auto& [name, info] : modules) {
    util::Json m = util::Json::object();
    m["layer"] = info.layer;
    m["files"] = static_cast<std::uint64_t>(info.files);
    util::Json deps = util::Json::array();
    for (const auto& d : info.deps) deps.push_back(d);
    m["deps"] = std::move(deps);
    mods[name] = std::move(m);
  }
  doc["modules"] = std::move(mods);

  util::Json fanin = util::Json::object();
  for (const auto& [path, count] : header_fanin) {
    fanin[path] = static_cast<std::uint64_t>(count);
  }
  doc["header_fanin"] = std::move(fanin);

  util::Json regions = util::Json::array();
  for (const auto& r : hot_regions) {
    util::Json hr = util::Json::object();
    hr["file"] = r.file;
    hr["label"] = r.label;
    hr["begin_line"] = static_cast<std::uint64_t>(r.begin_line);
    hr["end_line"] = static_cast<std::uint64_t>(r.end_line);
    util::Json hazards = util::Json::array();
    for (const auto& h : r.hazards) {
      util::Json hz = util::Json::object();
      hz["line"] = static_cast<std::uint64_t>(h.line);
      hz["rule"] = h.rule;
      hz["message"] = h.message;
      hz["allowed"] = h.allowed;
      hz["justification"] = h.justification;
      hazards.push_back(std::move(hz));
    }
    hr["hazards"] = std::move(hazards);
    regions.push_back(std::move(hr));
  }
  doc["hot_regions"] = std::move(regions);

  util::Json heavy = util::Json::array();
  for (const auto& p : pointer_heavy) {
    util::Json d = util::Json::object();
    d["file"] = p.file;
    d["line"] = static_cast<std::uint64_t>(p.line);
    d["type"] = p.type;
    d["name"] = p.name;
    heavy.push_back(std::move(d));
  }
  doc["pointer_heavy"] = std::move(heavy);
  return doc;
}

ArchlintReport archlint_paths(const std::vector<std::string>& paths, const LayerSpec* spec) {
  namespace fs = std::filesystem;
  LayerSpec resolved = spec != nullptr ? *spec : default_layer_spec();
  for (const auto& path : paths) {
    const fs::path table = fs::path(path) / "layers.json";
    if (spec == nullptr && fs::is_directory(path) && fs::exists(table)) {
      resolved = load_layer_spec(table.string());
    }
  }
  return archlint_sources(load_sources(paths), resolved);
}

}  // namespace keddah::lint
