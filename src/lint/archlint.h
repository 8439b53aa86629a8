// keddah-archlint: architecture-layering + hot-path-allocation checker.
//
// Keddah's scaling roadmap (ROADMAP.md: columnar flow arena, mmap'd trace
// spill) needs two invariants kept machine-checked: the module graph must
// stay a DAG that matches the declared layering, and the scheduler/serve
// hot paths must not silently re-grow per-event heap allocation. archlint
// is the third static pass (after keddah-lint and keddah-detlint), sharing
// the lint/diagnostic formatter and the fixture/CI replay pattern.
//
// Pass 1 — layering. The `#include` graph over the scanned sources is
// collapsed to modules (a file's module is the directory component after
// `src/`, or its parent directory otherwise) and checked against a declared
// low-to-high layer table (LayerSpec; the repo's table is
// default_layer_spec(), documented in DESIGN.md):
//
//   layer-cycle      a strongly-connected component in the module graph
//   layer-upward     an include whose target sits in the same or a higher
//                    layer (different module) — dependencies point down only
//   layer-unknown    (strict mode) a module missing from the layer table
//   cpp-include      a `.cpp`/`.cc` file named in an #include
//   fanin-budget     a header whose *transitive* includer count exceeds
//                    LayerSpec::max_fanin — compile-time blast radius
//
// Pass 2 — hot-path allocation. A `// keddah:hot` (or `keddah:hot(label)`)
// comment marks the next braced region (typically a function body) as a
// steady-state hot path. Inside it archlint flags allocation-prone
// constructs:
//
//   hot-node-container  insert/erase/emplace on a std::map/set/list/
//                       unordered_* variable (node allocation per op)
//   hot-push-back       push_back/emplace_back on a vector with no visible
//                       `.reserve(` anywhere in the file or its stem pair
//   hot-local-container a container constructed inside the region (fresh
//                       heap allocation per invocation; hoist to scratch)
//   hot-std-function    std::function construction/mention (type-erased
//                       callable: heap allocation beyond SBO)
//   hot-string-concat   string concatenation via `+`/`+=` with a literal
//   hot-shared-ptr      shared_ptr construction/copy (atomic refcount, and
//                       make_shared allocates a control block)
//   hot-marker          a keddah:hot marker with no braced region after it
//
// Escape hatch: `// archlint:allow(<rule>): <justification>` on the finding
// line or alone on the line above. The justification text is mandatory —
// an allow without one is itself a finding (allow-unjustified). Suppressed
// findings stay visible in the --report=json inventory, which also lists
// every pointer-heavy member declared by hot files: that inventory is the
// input artifact for the columnar-arena work.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/source.h"
#include "util/json.h"

namespace keddah::lint {

/// The declared layering, ordered low to high. Modules in the same inner
/// vector share a rank and must not include each other.
struct LayerSpec {
  std::vector<std::vector<std::string>> layers;
  /// Max transitive includer count per header; 0 disables fanin-budget.
  std::size_t max_fanin = 0;
  /// When true, every scanned module must appear in `layers`
  /// (layer-unknown otherwise). Off by default so fixtures and
  /// out-of-tree scans work without a table.
  bool strict_modules = false;

  /// Rank of `module` (0 = lowest), or -1 when absent from the table.
  int layer_of(const std::string& module) const;
};

/// The repo's committed layer table (see DESIGN.md "Layer DAG").
LayerSpec default_layer_spec();

/// Parses {"layers": [["util"], ["core","sim"], ...], "max_fanin": N,
/// "strict_modules": bool}. Throws std::runtime_error on bad shape.
LayerSpec layer_spec_from_json(const util::Json& doc);

/// One allocation hazard inside a hot region (suppressed ones included —
/// the JSON inventory reports them with their justification).
struct HotHazard {
  std::size_t line = 0;
  std::string rule;
  std::string message;
  bool allowed = false;
  std::string justification;
};

/// One `// keddah:hot` region.
struct HotRegion {
  std::string file;
  std::string label;  ///< from keddah:hot(label); empty when unlabeled
  std::size_t begin_line = 0;
  std::size_t end_line = 0;
  std::vector<HotHazard> hazards;
};

/// A pointer-heavy declaration (node container / smart pointer /
/// std::function) in a file whose stem group contains a hot region.
struct PointerHeavyDecl {
  std::string file;
  std::size_t line = 0;
  std::string type;  ///< e.g. "std::unordered_map"
  std::string name;  ///< declared identifier; empty when not parseable
};

/// Per-module summary for the report.
struct ModuleInfo {
  int layer = -1;
  std::size_t files = 0;
  std::vector<std::string> deps;  ///< modules it includes, sorted
};

/// Result of one archlint scan.
struct ArchlintReport {
  std::vector<Diagnostic> diagnostics;  ///< sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  std::size_t suppressions_used = 0;
  std::map<std::string, ModuleInfo> modules;
  /// Transitive includer count per scanned header.
  std::map<std::string, std::size_t> header_fanin;
  std::vector<HotRegion> hot_regions;
  std::vector<PointerHeavyDecl> pointer_heavy;

  bool ok() const { return diagnostics.empty(); }

  /// The --report=json document: findings (suppressed included), module
  /// graph + layers, fan-in table, hot regions with hazards, and the
  /// pointer-heavy hot-path state inventory for the columnar-arena work.
  util::Json to_json() const;
};

/// The stable rule ids, sorted.
const std::vector<std::string>& archlint_rule_ids();

/// Scans the given sources as one program against `spec`.
ArchlintReport archlint_sources(const std::vector<SourceFile>& sources, const LayerSpec& spec);

/// Loads files and directories with load_sources() (lint/source.h) and
/// scans them together. When `spec` is null, uses a `layers.json` found
/// directly inside a scanned directory if present, else
/// default_layer_spec(). Unreadable paths throw std::runtime_error.
ArchlintReport archlint_paths(const std::vector<std::string>& paths,
                              const LayerSpec* spec = nullptr);

}  // namespace keddah::lint
