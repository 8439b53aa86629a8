#!/usr/bin/env bash
# One-command static gate for the repo. Runs, in order:
#
#   1. A warnings-as-errors build (-Wall -Wextra -Werror via KEDDAH_WERROR)
#      with KEDDAH_CHECK audits compiled in — the configuration every
#      commit must keep clean.
#   2. keddah-lint over the shipped example scenarios (must pass) and over
#      the seeded-defect fixtures in tests/fixtures/lint (every one must
#      FAIL — a fixture that lints clean means a diagnostic regressed).
#   3. keddah-detlint over src/ (zero unsuppressed determinism hazards)
#      and over the seeded-hazard fixtures in tests/fixtures/detlint
#      (every one must fail with exactly the rule its `// expect:` header
#      names; the `expect: clean` fixture must pass).
#   4. keddah-archlint over src/ in --strict-modules mode (the module graph
#      must match the DESIGN.md layer DAG, and every hot-path allocation
#      hazard must be fixed or carry a justified allow), and over the
#      seeded-violation fixture directories in tests/fixtures/archlint
#      (every declared `// expect:` rule must reproduce; `clean` fixtures
#      must pass), then `--report=json src` from the repo root must match
#      the committed ARCHLINT_INVENTORY.json byte for byte (regenerate it
#      with that command when a change moves the inventory).
#   5. clang-tidy over src/, if available (config in .clang-tidy).
#   6. cppcheck over src/, if available (suppressions in
#      tools/cppcheck.suppress).
#
# Stages 1-4 need only the baked-in toolchain and always run; the script
# fails if any executed stage fails. Stages 5-6 skip with a note when the
# tool is not installed — unless KEDDAH_STATIC_STRICT=1 (set in CI, where
# the tools are pinned), which turns a missing tool into a failure so the
# gate cannot silently thin out. CLANG_TIDY / CPPCHECK override the binary
# names (e.g. CLANG_TIDY=clang-tidy-18). Builds go into build-static/ so
# the primary build/ is never disturbed.
set -euo pipefail

STRICT="${KEDDAH_STATIC_STRICT:-0}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
CPPCHECK="${CPPCHECK:-cppcheck}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-static"

echo "== stage 1: warnings-as-errors build (KEDDAH_WERROR + KEDDAH_CHECK) =="
cmake -B "${BUILD}" -S "${ROOT}" -DKEDDAH_WERROR=ON -DKEDDAH_CHECK=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "${BUILD}" -j"$(nproc)"

LINT="${BUILD}/tools/keddah-lint"

echo "== stage 2a: keddah-lint on shipped example scenarios (must pass) =="
"${LINT}" "${ROOT}"/examples/scenarios/*.json

echo "== stage 2b: keddah-lint on seeded-defect fixtures (each must fail) =="
for fixture in "${ROOT}"/tests/fixtures/lint/*.json; do
  if "${LINT}" "${fixture}" >/dev/null 2>&1; then
    echo "FAIL: ${fixture} lints clean but seeds a defect" >&2
    exit 1
  fi
done
echo "all $(ls "${ROOT}"/tests/fixtures/lint/*.json | wc -l) fixtures flagged"

DETLINT="${BUILD}/tools/keddah-detlint"

echo "== stage 3a: keddah-detlint on src/ (zero unsuppressed hazards) =="
"${DETLINT}" "${ROOT}/src"

echo "== stage 3b: keddah-detlint on seeded-hazard fixtures =="
for fixture in "${ROOT}"/tests/fixtures/detlint/*.cpp; do
  expected="$(sed -n '1s#^// expect: ##p' "${fixture}")"
  if [ -z "${expected}" ]; then
    echo "FAIL: ${fixture} has no '// expect: <rule>' header" >&2
    exit 1
  fi
  if [ "${expected}" = "clean" ]; then
    if ! "${DETLINT}" "${fixture}" >/dev/null 2>&1; then
      echo "FAIL: ${fixture} expects a clean scan but was flagged" >&2
      exit 1
    fi
    continue
  fi
  # Scan the fixture together with its paired header, if any, so member
  # declarations resolve the same way they do in the test suite.
  header="${fixture%.cpp}.h"
  paths=("${fixture}")
  [ -f "${header}" ] && paths+=("${header}")
  out="$("${DETLINT}" "${paths[@]}" 2>&1)" && {
    echo "FAIL: ${fixture} scans clean but seeds hazard '${expected}'" >&2
    exit 1
  }
  if ! grep -q "\[${expected}\]" <<<"${out}"; then
    echo "FAIL: ${fixture} expected rule '${expected}' but got:" >&2
    echo "${out}" >&2
    exit 1
  fi
done
echo "all $(ls "${ROOT}"/tests/fixtures/detlint/*.cpp | wc -l) fixtures behaved as declared"

ARCHLINT="${BUILD}/tools/keddah-archlint"

echo "== stage 4a: keddah-archlint on src/ (layer DAG + hot-path hazards) =="
"${ARCHLINT}" --strict-modules "${ROOT}/src"

echo "== stage 4b: keddah-archlint on seeded-violation fixtures =="
for fixture in "${ROOT}"/tests/fixtures/archlint/*/; do
  expected="$(grep -rh '^// expect: ' "${fixture}" | sed 's#^// expect: ##' | sort -u)"
  if [ -z "${expected}" ]; then
    echo "FAIL: ${fixture} has no '// expect: <rule>' declaration" >&2
    exit 1
  fi
  if [ "${expected}" = "clean" ]; then
    if ! "${ARCHLINT}" "${fixture}" >/dev/null 2>&1; then
      echo "FAIL: ${fixture} expects a clean scan but was flagged" >&2
      exit 1
    fi
    continue
  fi
  out="$("${ARCHLINT}" "${fixture}" 2>&1)" && {
    echo "FAIL: ${fixture} scans clean but seeds '${expected}'" >&2
    exit 1
  }
  while IFS= read -r rule; do
    if ! grep -q "\[${rule}\]" <<<"${out}"; then
      echo "FAIL: ${fixture} expected rule '${rule}' but got:" >&2
      echo "${out}" >&2
      exit 1
    fi
  done <<<"${expected}"
done
echo "all $(ls -d "${ROOT}"/tests/fixtures/archlint/*/ | wc -l) fixture dirs behaved as declared"

echo "== stage 4c: ARCHLINT_INVENTORY.json is fresh =="
if ! (cd "${ROOT}" && "${ARCHLINT}" --report=json src 2>/dev/null) |
     diff -u "${ROOT}/ARCHLINT_INVENTORY.json" -; then
  echo "FAIL: ARCHLINT_INVENTORY.json is stale; regenerate it from the repo root with" >&2
  echo "      keddah-archlint --report=json src > ARCHLINT_INVENTORY.json" >&2
  exit 1
fi

if command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
  echo "== stage 5: clang-tidy (${CLANG_TIDY}) =="
  find "${ROOT}/src" -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 4 "${CLANG_TIDY}" -p "${BUILD}" --quiet
elif [ "${STRICT}" = "1" ]; then
  echo "FAIL: ${CLANG_TIDY} not installed but KEDDAH_STATIC_STRICT=1" >&2
  exit 1
else
  echo "== stage 5: ${CLANG_TIDY} not installed, skipped =="
fi

if command -v "${CPPCHECK}" >/dev/null 2>&1; then
  echo "== stage 6: cppcheck (${CPPCHECK}) =="
  "${CPPCHECK}" --enable=warning,performance,portability --error-exitcode=1 \
           --inline-suppr --suppressions-list="${ROOT}/tools/cppcheck.suppress" \
           --std=c++20 --quiet -I "${ROOT}/src" "${ROOT}/src"
elif [ "${STRICT}" = "1" ]; then
  echo "FAIL: ${CPPCHECK} not installed but KEDDAH_STATIC_STRICT=1" >&2
  exit 1
else
  echo "== stage 6: ${CPPCHECK} not installed, skipped =="
fi

echo "OK: static checks clean"
