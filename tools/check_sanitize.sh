#!/usr/bin/env bash
# Build with a sanitizer and run the parallel-subsystem and fault-injection
# tests under it.
#
# Usage: tools/check_sanitize.sh [thread|address|undefined]   (default: thread)
#
# ThreadSanitizer is the one that matters most for this repo: the
# SweepRunner / ThreadPool layer promises bit-identical parallel results,
# and TSan is how we know that promise isn't resting on a benign-looking
# data race. ASan/UBSan cover the fault-injection paths, which tear down
# in-flight flows and re-enter callbacks — exactly where lifetime and UB
# bugs hide. The build goes into build-<san>san/ so it never disturbs the
# primary build/.
set -euo pipefail

SAN="${1:-thread}"
case "${SAN}" in
  thread|address|undefined) ;;
  *) echo "usage: $0 [thread|address|undefined]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-${SAN}san"

# Route every TSan-instrumented process (tests, benches, the serve smoke)
# through the shared suppressions file. The file is kept empty of engine
# code — see the policy comment inside it — and halt_on_error makes the
# first report fail fast instead of drowning in follow-on noise.
if [ "${SAN}" = "thread" ]; then
  export TSAN_OPTIONS="suppressions=${ROOT}/tools/tsan.suppressions:halt_on_error=1${TSAN_OPTIONS:+:${TSAN_OPTIONS}}"
fi

# KEDDAH_CHECK compiles the byte-conservation / fault-stats / sim-clock
# audits into the sanitized build, so every audited seam is exercised with
# the checks live while the sanitizer watches.
cmake -B "${BUILD}" -S "${ROOT}" -DKEDDAH_SANITIZE="${SAN}" -DKEDDAH_CHECK=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" \
      --target parallel_test net_topology_test net_network_test fault_injection_test \
               hadoop_faults_test scenario_test invariant_audit_test \
               net_differential_test golden_trace_test net_property_test \
               gen_test toolchain_test mix_test \
               spill_test capture_test api_test serve_test serve_chaos_test detlint_test \
               archlint_test lint_test sim_test keddah \
               perf_scheduler perf_serve perf_scale perf_overload -j"$(nproc)"

# The parallel subsystem, the network layer it drives concurrently, and the
# fault-injection/recovery machinery (aborts, retries, node churn). The
# ParallelDeterminism tests double as the determinism gate: a faulted
# scenario must replay bit-identically at any thread count, under the
# sanitizer too. SchedulerDifferential locks the incremental fair-share
# fast path to the reference recompute, and GoldenTrace pins end-to-end
# scenario output byte-for-byte — both with the KEDDAH_CHECK audits live.
# Replay|ClosedLoopReplay drive gen::replay, whose open-loop schedules merge
# the fabric into one component: the dense solve path under the sanitizer.
# Topology runs the transit-indexed router (CSR transit arcs, per-anchor
# rows built 64 at a time, a fixed ECMP stack buffer with its re-scan
# fallback) against its per-destination BFS reference.
# Simulator drives the event kernel's slot map: handles packing a slot and
# its generation, slot reuse after fire/cancel, and a callback that grows
# the slot table while it runs from a callable moved out of its slot.
# Trace|Collector|Classifier|Spill drive the collector into both sinks: the
# in-memory Trace and the KSPL spill, whose reader indexes its mmap'd
# records and id-keyed name table by offsets read from the file.
# Detlint|Archlint|LintSource drive the shared source cleaner, which walks
# every file by index with look-ahead and look-behind, over the repo and
# the seeded fixtures. Lint|ScenarioParse|Serve drive the spec parsers'
# JSON readers over every fixture, example and corpus mutation, with
# their unknown-key warnings spliced into the diagnostics list.
ctest --test-dir "${BUILD}" --output-on-failure \
      -R 'Simulator|ThreadPool|SweepRunner|ParallelDeterminism|DeriveSeed|ResolvedThreads|Topology|Network|NodeFailure|TransientOutage|DegradedLink|SlowNode|FaultPlan|Scenario|InvariantAudit|SchedulerDifferential|GoldenTrace|SpecApi|SpecError|Serve|Chaos|Spill|Trace|Collector|Classifier|ArenaChurn|Replay|ClosedLoopReplay|Detlint|Archlint|Lint'

# A quick pass of the scheduler benchmark under the sanitizer: exercises
# the incremental and reference schedulers back to back on all the
# shapes. Results land in the sanitized build dir, not the repo root.
"${BUILD}/bench/perf_scheduler" --quick --out "${BUILD}/BENCH_scheduler.json"

# Scale smoke under the sanitizer: a shrunken fat-tree (432 hosts) driven
# through the columnar flow arena and the mmap'd spill path, with the
# flows/sec and peak-RSS gates live (the RSS gate uses the quick-mode
# ceiling, which has headroom for sanitizer overhead on the arena columns).
"${BUILD}/bench/perf_scale" --quick --out "${BUILD}/BENCH_scale.json" \
      --spill-dir "${BUILD}/perf_scale_spill"

# The serve benchmark doubles as a concurrency smoke for the daemon: eight
# in-process clients hammer Server::handle() while the response cache and
# resident-model LRU are shared state — exactly what TSan should watch.
"${BUILD}/bench/perf_serve" --quick --out "${BUILD}/BENCH_serve.json"

# Overload chaos smoke: a 4x burst of cold what-if work over real sockets
# with admission, shedding, and deadline counters all hot. The bench gates
# on zero crashes and a bounded cached-request p99 and exits non-zero when
# a gate fails, so this line is the assertion. The chaos *tests* (hostile
# clients: slow-loris, torn frames, stalled readers) already ran in the
# ctest pass above; this adds the sustained-burst shape.
"${BUILD}/bench/perf_overload" --quick --out "${BUILD}/BENCH_serve.json"

# End-to-end serve smoke over real HTTP: boot the daemon on an ephemeral
# port, ask one what-if from the example corpus, and shut it down cleanly
# through the /v1/shutdown endpoint (so the sanitizer sees the teardown
# path too, not a SIGKILL).
"${BUILD}/tools/keddah" serve --port 0 >"${BUILD}/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's#^keddah serve listening on http://127\.0\.0\.1:##p' "${BUILD}/serve.log")"
  [ -n "${PORT}" ] && break
  sleep 0.1
done
if [ -z "${PORT}" ]; then
  echo "keddah serve did not come up; log follows" >&2
  cat "${BUILD}/serve.log" >&2
  kill "${SERVE_PID}" 2>/dev/null || true
  exit 1
fi
BODY="$(curl -sf -X POST --data-binary @"${ROOT}/examples/scenarios/clean.json" \
        "http://127.0.0.1:${PORT}/v1/whatif")"
if [ -z "${BODY}" ]; then
  echo "empty /v1/whatif response from keddah serve" >&2
  kill "${SERVE_PID}" 2>/dev/null || true
  exit 1
fi
curl -sf -X POST "http://127.0.0.1:${PORT}/v1/shutdown" >/dev/null
wait "${SERVE_PID}"

echo "OK: ${SAN} sanitizer run clean"
