// keddah_perfbench: runs one workload of the end-to-end benchmark in this
// process and prints one JSON result line (see perfbench/README.md).
//
//   keddah_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR]
//   keddah_perfbench --fidelity-only --seed N
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"};
// the line before it is the run record (build type, compiler, cores, seed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"

namespace {

// Timings from instrumented builds are not comparable with release ones, so
// the benchmark refuses to run in them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSED "sanitizer"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_REFUSED "sanitizer"
#endif
#endif
#if !defined(PERFBENCH_REFUSED) && defined(KEDDAH_CHECK)
#define PERFBENCH_REFUSED "KEDDAH_CHECK"
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "keddah_perfbench: %s\nusage: keddah_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n       keddah_perfbench "
               "--fidelity-only --seed N\n",
               why);
  return 2;
}

void print_metric(bool& first, const std::string& name, double value, const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit.c_str());
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_REFUSED
  std::fprintf(stderr, "keddah_perfbench: refusing to time a " PERFBENCH_REFUSED " build\n");
  return 3;
#endif
  perfbench::Options options;
  bool fidelity_only = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--fidelity-only") {
      fidelity_only = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0.0) || !std::isfinite(options.seconds)) {
    return usage("--seconds must be positive");
  }

  try {
    if (fidelity_only) {
      const auto [volume, ks] = perfbench::toolchain_fidelity(options.seed);
      std::printf("{\"fidelity_volume_err\": %.17g, \"fidelity_size_ks\": %.17g}\n", volume, ks);
      return 0;
    }
    perfbench::Result result;
    if (options.workload == "pipeline-testbed") {
      result = perfbench::run_pipeline(options);
    } else if (options.workload == "replay-scaleup") {
      result = perfbench::run_replay(options);
    } else if (options.workload == "scale-fattree") {
      result = perfbench::run_fattree(options);
    } else if (options.workload == "whatif-serve") {
      result = perfbench::run_whatif(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }

    for (const std::string& failure : result.failures) {
      std::fprintf(stderr, "check failed: %s\n", failure.c_str());
    }
    std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                "\"trace\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u}}\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? "true" : "false", PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, std::thread::hardware_concurrency());

    bool first = true;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                result.failed == 0 && result.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    if (options.trace) {
      for (const auto& [name, unit] : perfbench::layer_catalogue()) {
        const auto it = result.layers.find(name);
        print_metric(first, name, it == result.layers.end() ? 0.0 : it->second, unit);
      }
    } else {
      for (const auto& [name, unit] : perfbench::end_to_end_catalogue()) {
        const auto it = result.end_to_end.find(name);
        if (it == result.end_to_end.end()) {
          // Fidelity is measured in a separate process by the wrapper for
          // every workload but pipeline-testbed.
          if (name.rfind("fidelity_", 0) == 0) continue;
          std::fprintf(stderr, "keddah_perfbench: workload did not report %s\n", name.c_str());
          return 1;
        }
        print_metric(first, name, it->second, unit);
      }
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "keddah_perfbench: %s\n", e.what());
    return 1;
  }
}
