// Parallel sweep engine: deterministic index-ordered fan-out.
//
// Every Keddah experiment is a sweep of independent deterministic
// simulations (workloads x input sizes x repetitions x configs). Each task
// builds its own Simulator/Network/cluster, so tasks share no mutable state
// and can fan out across cores. SweepRunner provides that fan-out with the
// hard guarantee that MATTERS for a reproduction: results are bit-identical
// to serial execution at any thread count, because
//   - every task's randomness derives only from util::derive_seed(base, i)
//     (callers seed per task, never from a shared stream), and
//   - results land in index-ordered slots, never in completion order.
//
// Exceptions thrown by tasks are captured and the lowest-indexed one is
// rethrown after the sweep drains (a parallel sweep runs every task; a
// serial sweep stops at the throwing task — same exception either way).
//
// This header is the whole module: core sits just above util in the layer
// DAG (DESIGN.md "Layer DAG") so low layers (workloads::run_grid) can use
// the runner while linking only against keddah_util. The scenario-file
// fan-out helper run_scenarios() lives in keddah/scenario.h (keddah_core).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace keddah::core {

/// Progress callback: (completed tasks, total tasks). Invoked after every
/// task completes, possibly from a worker thread but never concurrently
/// (the runner serializes invocations). Must not re-enter the runner.
using SweepProgress = std::function<void(std::size_t done, std::size_t total)>;

struct SweepOptions {
  /// Worker threads for the sweep; 0 = hardware concurrency.
  std::size_t threads = 0;
  SweepProgress progress;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {})
      : options_(std::move(options)), threads_(util::resolved_threads(options_.threads)) {}

  /// Effective worker count (after resolving 0 to hardware concurrency).
  std::size_t threads() const { return threads_; }

  /// Runs fn(0), fn(1), ..., fn(count-1) across the workers and returns the
  /// results ordered by task index. Serial (threads()==1) and parallel runs
  /// produce identical vectors for deterministic fn.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
    using Result = std::decay_t<decltype(fn(std::size_t{0}))>;
    std::vector<Result> out;
    out.reserve(count);
    if (count == 0) return out;

    const std::size_t workers = threads_ < count ? threads_ : count;
    if (workers <= 1) {
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(fn(i));
        report_progress(i + 1, count);
      }
      return out;
    }

    // `slots` and `errors` need no lock: each worker writes only its own
    // index. `progress_mutex` guards `done` and serializes the progress
    // callback (GUARDED_BY is member/global-only, hence this comment).
    std::vector<std::optional<Result>> slots(count);
    std::vector<std::exception_ptr> errors(count);
    util::Mutex progress_mutex;
    std::size_t done = 0;
    {
      util::ThreadPool pool(workers);
      for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&, i] {
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
          util::MutexLock lock(&progress_mutex);
          report_progress(++done, count);
        });
      }
      pool.wait_idle();
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// map() over an input span: fn(item) per item, results in item order.
  template <typename T, typename Fn>
  auto map_items(std::span<const T> items, Fn&& fn)
      -> std::vector<std::decay_t<decltype(fn(items[0]))>> {
    return map(items.size(), [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  void report_progress(std::size_t done, std::size_t total) {
    if (options_.progress) options_.progress(done, total);
  }

  SweepOptions options_;
  std::size_t threads_;
};

}  // namespace keddah::core
