// keddah-detlint: a determinism-hazard checker for the C++ sources.
//
// Keddah's reproducibility story (golden traces, differential suites, the
// serve bit-identity pin) rests on the engine having no hidden sources of
// nondeterminism. detlint walks the sources and flags the constructs that
// historically smuggle nondeterminism into simulators:
//
//   unordered-iter   iteration over a std::unordered_{map,set} — bucket
//                    order is implementation- and run-dependent, so any
//                    iteration that feeds output, scheduling, or
//                    serialization order is a portability hazard
//   pointer-key      std::map/std::set keyed by a pointer type — ordered
//                    by address, which ASLR changes every run
//   random-device    std::random_device — nondeterministic seeding; all
//                    randomness must derive from util::derive_seed
//   wall-clock       std::chrono::{system,steady,high_resolution}_clock,
//                    time(nullptr), gettimeofday, clock_gettime — wall
//                    time inside simulation code breaks replay. Files
//                    under a bench/ or perfbench/ path component are
//                    exempt: benches time real elapsed work by design
//   bare-mutex       std::mutex / std::condition_variable / std::lock_guard
//                    and friends outside the annotated util/mutex.h
//                    wrappers — bypasses the Clang thread-safety analysis
//
// The scan is a two-phase lexical analysis, not a full parser: phase one
// collects every unordered-container variable declaration and every
// function whose declared return type is an unordered container (so a
// member declared in foo.h is recognized when foo.cpp iterates it); phase
// two re-walks the sources and reports hazards. Both phases match against
// the shared cleaner's output (lint/source.h): comments and the contents of
// string and char literals are blanked first, so naming a pattern in a
// comment or diagnostic string is not a finding.
//
// Escape hatch: `// detlint:allow(<rule>)` suppresses that rule on its own
// line — or, when the comment stands alone on a line, on the line below.
// Intentionally-unordered iteration (e.g. an order-insensitive sum) should
// carry an allow comment with a justification; tools/check_static.sh fails
// the build on any unsuppressed finding.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/source.h"

namespace keddah::lint {

/// Result of one scan. Each finding is a util::Diagnostic with `line` and
/// `rule` set ("file: line N: [rule] message (hint)" via the one formatter).
struct DetlintReport {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  /// Findings silenced by detlint:allow comments.
  std::size_t suppressions_used = 0;

  bool ok() const { return diagnostics.empty(); }
};

/// The stable rule ids, sorted ("bare-mutex", "pointer-key", ...).
const std::vector<std::string>& detlint_rule_ids();

/// Scans the given sources as one program (two-phase; see file comment).
DetlintReport detlint_sources(const std::vector<SourceFile>& sources);

/// Loads files and directories with load_sources() (lint/source.h) and
/// scans them together. Unreadable paths throw std::runtime_error.
DetlintReport detlint_paths(const std::vector<std::string>& paths);

}  // namespace keddah::lint
