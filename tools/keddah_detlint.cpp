// keddah-detlint: determinism-hazard checker for the C++ sources. Walks
// the given files/directories and flags constructs that smuggle
// nondeterminism into the engine (unordered-container iteration, pointer
// -keyed ordering, std::random_device, wall-clock reads, bare std::mutex
// outside the annotated wrappers). See src/lint/detlint.h for the rules
// and the `// detlint:allow(<rule>)` escape hatch.
//
//   keddah-detlint src/ [more paths...]
#include <cstring>
#include <iostream>

#include "lint/detlint.h"
#include "util/diagnostic.h"

namespace kl = keddah::lint;

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    std::cerr << "usage: keddah-detlint <file-or-dir> [more paths...]\n"
              << "Flags determinism hazards in C++ sources. Rules:\n";
    for (const auto& rule : kl::detlint_rule_ids()) std::cerr << "  " << rule << "\n";
    std::cerr << "Suppress a justified finding with // detlint:allow(<rule>).\n"
              << "Exits 1 if any unsuppressed finding remains.\n";
    return argc < 2 ? 2 : 0;
  }
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) paths.emplace_back(argv[i]);
  kl::DetlintReport report;
  try {
    report = kl::detlint_paths(paths);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  for (const auto& d : report.diagnostics) {
    keddah::util::print_diagnostic_line(std::cout, /*is_error=*/true, d.to_string());
  }
  std::cout << report.files_scanned << " file(s) scanned, " << report.diagnostics.size()
            << " finding(s), " << report.suppressions_used << " suppression(s)\n";
  return report.ok() ? 0 : 1;
}
