#!/usr/bin/env bash
# Static lint passes over the first-party sources, then clang-tidy using
# the profile in .clang-tidy (which needs a compile database: configure
# with cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON).
#
# Two layers:
#   1. regex passes (always run, no toolchain needed) — the portable
#      floor for the concurrency discipline;
#   2. clang-tidy with the dws_tidy_checks plugin (tools/tidy) when both
#      are available — AST-accurate versions of the same rules that see
#      through typedefs, macros and doc comments, plus the
#      annotation-coverage audit regexes cannot express.
#
# A missing clang-tidy (it is not part of the pinned toolchain image) is
# reported as an explicit SKIP line in the summary — distinguishable
# from a green run — and DWS_REQUIRE_TIDY=1 turns it into a failure;
# DWS_REQUIRE_TIDY_PLUGIN=1 additionally fails when the dws-* plugin is
# unavailable (CI's static-analysis job sets both).
#
# Suppressions: a `// dws-lint-sanction: <justification>` comment on the
# flagged line silences both layers for that line; the justification is
# mandatory and must be at least three words (enforced below).
#
# Every pass runs even after an earlier one fails; the summary at the
# end prints one line per check so CI logs show exactly WHICH pass
# failed, and the script exits non-zero if any did.
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

CHECK_NAMES=()
CHECK_RESULTS=()

# note <name> <failure-output>: empty output records a pass; otherwise
# the output is printed immediately and the check is marked FAIL.
note() {
  CHECK_NAMES+=("$1")
  if [ -n "$2" ]; then
    CHECK_RESULTS+=("FAIL")
    echo "lint: $1: FAIL"
    echo "$2"
  else
    CHECK_RESULTS+=("ok")
  fi
}

# note_skip <name> <reason>: the check did not run — visible in the
# summary as SKIP, never silently conflated with a pass.
note_skip() {
  CHECK_NAMES+=("$1")
  CHECK_RESULTS+=("SKIP")
  echo "lint: $1: SKIP ($2)"
}

# Drops lines carrying a sanction comment (the justification is policed
# by the sanction-format pass below, so an empty one cannot hide here).
strip_sanctioned() {
  grep -v 'dws-lint-sanction:[[:space:]]*[^[:space:]]' || true
}

# Crash-safety lint: raw ::kill() is sanctioned in exactly two places —
# the liveness probe that confirms a stale co-runner is dead
# (core/coordinator_policy.cpp) and the fault-injection harness
# (harness/faults.cpp). Anywhere else — including tests, benches and
# examples, which must inject faults through src/harness/faults — it is
# scaffolding leaking out of the harness.
BAD_KILL=$(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp' \
  | grep -v -e 'core/coordinator_policy.cpp' -e 'harness/faults.cpp' \
  | xargs grep -n '::kill(' 2>/dev/null | strip_sanctioned)
if [ -n "${BAD_KILL}" ]; then
  BAD_KILL="::kill() outside its sanctioned call sites:
${BAD_KILL}"
fi
note "kill-sites" "${BAD_KILL}"

# Thread-creation lint: spawning OS threads is the scheduler's job. Raw
# std::thread / pthread_create is sanctioned under src/runtime/ (the
# worker pool), src/harness/ (co-runner processes), src/check/ (the
# model-checking harness's controlled threads) and tests/ (which
# exercise the concurrent structures directly). Bench and example code
# goes through the scheduler; the few deliberate exceptions carry
# per-line sanction comments. Kernels and policy code that start their
# own threads bypass the work-stealing model — and the race detector's
# serial replay cannot see them.
# (std::thread::hardware_concurrency is a core count query, not a spawn.)
BAD_THREADS=$(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp' \
  | grep -v -e '^src/runtime/' -e '^src/harness/' -e '^src/check/' \
            -e '^tests/' \
  | xargs grep -n -E 'std::thread|pthread_create' 2>/dev/null \
  | grep -v 'std::thread::hardware_concurrency' | strip_sanctioned)
if [ -n "${BAD_THREADS}" ]; then
  BAD_THREADS="raw thread creation outside src/runtime|harness|check or tests/:
${BAD_THREADS}"
fi
note "raw-threads" "${BAD_THREADS}"

# Wait-mechanism lint: the runtime blocks in one way only, on a 32-bit
# word through the atomics policy's wait / wait_until / wake
# (core/atomics_policy.hpp). A futex call anywhere else is a second
# mechanism, and one that std::atomic::notify on the same word would not
# wake (libstdc++ skips the futex unless its own waiter count says
# someone waits). A condition variable under src/runtime/ is a lock on a
# wait path; only the Observer's sampling thread keeps one.
FUTEX_SITES=$(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp' 'tools/**/*.cpp' 'tools/**/*.h' \
  | grep -v -e '^src/core/atomics_policy.hpp$' \
  | xargs grep -n 'SYS_futex' 2>/dev/null | strip_sanctioned)
CONDVAR_SITES=$(git ls-files 'src/runtime/*.cpp' 'src/runtime/*.hpp' \
  | grep -v -e '^src/runtime/observer\.[ch]pp$' \
  | xargs grep -n 'condition_variable' 2>/dev/null | strip_sanctioned)
BAD_WAITS=$(printf '%s\n%s\n' "${FUTEX_SITES}" "${CONDVAR_SITES}" | sed '/^$/d')
if [ -n "${BAD_WAITS}" ]; then
  BAD_WAITS="a second wait mechanism (SYS_futex outside core/atomics_policy.hpp, or a condition variable in src/runtime/ outside observer.{hpp,cpp}):
${BAD_WAITS}"
fi
note "one-wait-mechanism" "${BAD_WAITS}"

# Lock-annotation lint: the race detector models locks only through
# race::lock_acquire/lock_release, so a raw std::mutex guard in kernel
# or policy code is invisible to ALL-SETS — a locked critical section
# would still be reported as a race (false positive) or, worse, the
# author assumes the replay certificate covers it (it does not).
# Sanctioned: src/runtime (race::scoped_lock itself and the worker
# pool's internals), src/util, src/harness and src/check (not replayed
# under the detector), src/race (the detectors' own shard/interning
# synchronization — a detector cannot annotate its own locks),
# src/apps/dag_replay.cpp (the replayer's bookkeeping mutex is
# deliberately unannotated so it adds no edges to the modeled
# happens-before relation; see the comment in exec_node), and tests/
# (which pin raw-guard interactions on purpose). Everywhere else, take
# locks through dws::race::scoped_lock, which locks AND annotates.
BAD_LOCKS=$(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp' \
  | grep -v -e '^src/runtime/' -e '^src/util/' -e '^src/harness/' \
            -e '^src/check/' -e '^src/race/' -e '^src/apps/dag_replay' \
            -e '^tests/' \
  | xargs grep -n -E 'std::(lock_guard|unique_lock|scoped_lock)[[:space:]]*<|\.lock\(\)|\.unlock\(\)' \
  2>/dev/null | grep -v 'race::scoped_lock' | strip_sanctioned)
if [ -n "${BAD_LOCKS}" ]; then
  BAD_LOCKS="raw mutex guard outside src/runtime|util|harness|check|race or tests/ (use dws::race::scoped_lock so ALL-SETS sees the lock):
${BAD_LOCKS}"
fi
note "raw-mutex-guards" "${BAD_LOCKS}"

# Strictness lint, static half (the runtime half lives in
# runtime/strict.hpp): a heap- or static-storage TaskGroup out-lives its
# creating scope, which breaks the fully-strict join model the scheduler
# assumes. Tests are exempt — they construct escaping groups on purpose
# to exercise the runtime validator.
BAD_GROUPS=$(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' \
  'examples/*.cpp' 'bench/*.cpp' \
  | xargs grep -n -E 'new[[:space:]]+[A-Za-z:_<>, ]*TaskGroup|static[[:space:]]+[A-Za-z:_<>, ]*TaskGroup' \
  2>/dev/null | strip_sanctioned)
if [ -n "${BAD_GROUPS}" ]; then
  BAD_GROUPS="TaskGroup with non-automatic storage (escapes its scope):
${BAD_GROUPS}"
fi
note "taskgroup-storage" "${BAD_GROUPS}"

# Acquisition-order lint, the static half of deadlock analysis (the
# dynamic half is the lock-order graph, src/race/lockgraph): every
# race::scoped_lock site in src/ must declare its lock's order class on
# the same line with a `// lock-order: CLASS` tag, optionally declaring
# nesting as `CLASS after OUTER[,OUTER2...]`. scripts/lock_order.txt
# registers all classes in canonical outermost-first acquisition order;
# every declared `after` edge must be consistent with that order (the
# registry is the topological order, so a back edge IS an inversion) —
# caught here at review time, before any run. (Tests are excluded: the
# race suites construct inversions on purpose to exercise the dynamic
# detector.)
LOCK_ORDER_REGISTRY="scripts/lock_order.txt"
ORDER_FAIL=""
if [ ! -f "${LOCK_ORDER_REGISTRY}" ]; then
  ORDER_FAIL="missing ${LOCK_ORDER_REGISTRY}"
else
  mapfile -t ORDER_CLASSES < <(grep -v -e '^[[:space:]]*#' \
    -e '^[[:space:]]*$' "${LOCK_ORDER_REGISTRY}" \
    | sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//')
  DUP_CLASSES=$(printf '%s\n' "${ORDER_CLASSES[@]}" | sort | uniq -d)
  if [ -n "${DUP_CLASSES}" ]; then
    ORDER_FAIL+="duplicate class(es) in ${LOCK_ORDER_REGISTRY}: ${DUP_CLASSES}"$'\n'
  fi
  # Registry index of a class, or -1 (lower index = acquired earlier).
  class_index() {
    local i
    for i in "${!ORDER_CLASSES[@]}"; do
      if [ "${ORDER_CLASSES[$i]}" = "$1" ]; then
        echo "$i"
        return
      fi
    done
    echo "-1"
  }
  while IFS= read -r site; do
    [ -z "${site}" ] && continue
    file="${site%%:*}"
    rest="${site#*:}"
    lineno="${rest%%:*}"
    text="${rest#*:}"
    stripped="${text#"${text%%[![:space:]]*}"}"
    case "${stripped}" in
      //*|\**) continue ;;  # doc-comment examples are not call sites
    esac
    if [[ "${text}" != *"// lock-order:"* ]]; then
      ORDER_FAIL+="${file}:${lineno}: race::scoped_lock site without a '// lock-order: <class>' tag"$'\n'
      continue
    fi
    tag="${text#*// lock-order:}"
    tag="${tag#"${tag%%[![:space:]]*}"}"
    read -r cls keyword outers _ <<<"${tag}" || true
    cidx=$(class_index "${cls}")
    if [ "${cidx}" -lt 0 ]; then
      ORDER_FAIL+="${file}:${lineno}: class '${cls}' is not registered in ${LOCK_ORDER_REGISTRY}"$'\n'
      continue
    fi
    if [ -n "${keyword:-}" ]; then
      if [ "${keyword}" != "after" ] || [ -z "${outers:-}" ]; then
        ORDER_FAIL+="${file}:${lineno}: malformed tag '// lock-order: ${tag}' (want 'CLASS' or 'CLASS after OUTER[,OUTER2]')"$'\n'
        continue
      fi
      IFS=',' read -ra OUTER_LIST <<<"${outers}"
      for outer in "${OUTER_LIST[@]}"; do
        outer="${outer//[[:space:]]/}"
        oidx=$(class_index "${outer}")
        if [ "${oidx}" -lt 0 ]; then
          ORDER_FAIL+="${file}:${lineno}: 'after ${outer}' names an unregistered class"$'\n'
        elif [ "${oidx}" -ge "${cidx}" ]; then
          ORDER_FAIL+="${file}:${lineno}: acquisition-order inversion: '${cls}' taken while holding '${outer}', but ${LOCK_ORDER_REGISTRY} orders '${outer}' at or below '${cls}'"$'\n'
        fi
      done
    fi
  done < <(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' \
    | xargs grep -n 'race::scoped_lock<' 2>/dev/null | strip_sanctioned)
fi
note "lock-order" "${ORDER_FAIL}"

# Sanction-format lint: a sanction is an auditable waiver, so the
# justification must say something — at least three words. (An empty
# justification already fails to suppress anything; this pass rejects
# it loudly instead of letting a useless comment linger.)
SANCTION_FAIL=""
while IFS= read -r entry; do
  [ -z "${entry}" ] && continue
  just="${entry#*dws-lint-sanction:}"
  words=$(echo "${just}" | wc -w)
  if [ "${words}" -lt 3 ]; then
    SANCTION_FAIL+="${entry}"$'\n'
  fi
done < <(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp' \
  | xargs grep -n 'dws-lint-sanction:' 2>/dev/null || true)
if [ -n "${SANCTION_FAIL}" ]; then
  SANCTION_FAIL="dws-lint-sanction with a justification under three words (say why, auditable later):
${SANCTION_FAIL}"
fi
note "sanction-format" "${SANCTION_FAIL}"

summarize_and_maybe_exit() {
  local failed=""
  local i
  echo "lint: summary:"
  for i in "${!CHECK_NAMES[@]}"; do
    echo "lint:   ${CHECK_NAMES[$i]}: ${CHECK_RESULTS[$i]}"
    if [ "${CHECK_RESULTS[$i]}" = "FAIL" ]; then
      failed+=" ${CHECK_NAMES[$i]}"
    fi
  done
  if [ -n "${failed}" ]; then
    echo "lint: FAILED:${failed}"
    exit 1
  fi
}

# ---------------------------------------------------------------- tidy
TIDY_BIN="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${TIDY_BIN}" >/dev/null 2>&1; then
  if [ "${DWS_REQUIRE_TIDY:-0}" = "1" ]; then
    note "clang-tidy" "clang-tidy not installed but DWS_REQUIRE_TIDY=1 (install clang-tidy or unset the requirement)"
  else
    note_skip "clang-tidy" "not installed; AST checks skipped — regex passes above are the only line of defense"
  fi
  if [ "${DWS_REQUIRE_TIDY_PLUGIN:-0}" = "1" ]; then
    note "dws-plugin" "DWS_REQUIRE_TIDY_PLUGIN=1 but clang-tidy is not installed"
  fi
  summarize_and_maybe_exit
  exit 0
fi

echo "lint: using $(command -v "${TIDY_BIN}"): $("${TIDY_BIN}" --version | grep -i 'version' | head -1 | sed 's/^[[:space:]]*//')"

if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
  echo "lint: ${BUILD_DIR}/compile_commands.json missing; configuring..."
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# The dws-* plugin: explicit override, else the conventional build path.
PLUGIN="${DWS_TIDY_PLUGIN:-}"
if [ -z "${PLUGIN}" ]; then
  for cand in "${BUILD_DIR}/tools/tidy/libdws_tidy_checks.so" \
              "${BUILD_DIR}/tools/tidy/libdws_tidy_checks.dylib"; do
    if [ -f "${cand}" ]; then
      PLUGIN="${cand}"
      break
    fi
  done
fi
PLUGIN_ACTIVE=0
if [ -n "${PLUGIN}" ]; then
  # Smoke-load before trusting it: a plugin built against a different
  # LLVM major fails at dlopen, and we want that visible, not fatal.
  if "${TIDY_BIN}" -load="${PLUGIN}" --checks='-*,dws-*' --list-checks \
      2>/dev/null | grep -q 'dws-raw-sync'; then
    PLUGIN_ACTIVE=1
    echo "lint: dws plugin loaded: ${PLUGIN}"
  else
    echo "lint: dws plugin at ${PLUGIN} failed to load into ${TIDY_BIN} (LLVM version mismatch?)"
    PLUGIN=""
  fi
fi
if [ "${PLUGIN_ACTIVE}" = "1" ]; then
  note "dws-plugin" ""
elif [ "${DWS_REQUIRE_TIDY_PLUGIN:-0}" = "1" ]; then
  note "dws-plugin" "DWS_REQUIRE_TIDY_PLUGIN=1 but the dws_tidy_checks plugin is unavailable (build with -DDWS_BUILD_TIDY=ON and LLVM/Clang dev headers, or set DWS_TIDY_PLUGIN=...)"
else
  note_skip "dws-plugin" "plugin not built; dws-* AST checks skipped — regex passes above are the only discipline enforcement"
fi

# First-party translation units only (the compile database also covers
# vendored/test-framework TUs we do not want to lint).
mapfile -t FILES < <(git ls-files 'src/**/*.cpp' 'tests/*.cpp' \
  'bench/*.cpp' 'examples/*.cpp')

TIDY_FAIL=""
if [ "${#FILES[@]}" -eq 0 ]; then
  echo "lint: no source files found"
else
  echo "lint: clang-tidy over ${#FILES[@]} files (${JOBS} jobs)"
  TIDY_LOG=$(mktemp)
  if [ "${PLUGIN_ACTIVE}" = "1" ]; then
    # run-clang-tidy predates -load on several supported majors; the
    # xargs path forwards it everywhere.
    printf '%s\n' "${FILES[@]}" \
      | xargs -P "${JOBS}" -n 1 "${TIDY_BIN}" -load="${PLUGIN}" \
          -p "${BUILD_DIR}" --quiet 2>&1 | tee "${TIDY_LOG}" || true
  elif command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${BUILD_DIR}" -j "${JOBS}" -quiet "${FILES[@]}" \
      2>&1 | tee "${TIDY_LOG}" || true
  else
    printf '%s\n' "${FILES[@]}" \
      | xargs -P "${JOBS}" -n 1 "${TIDY_BIN}" -p "${BUILD_DIR}" --quiet \
      2>&1 | tee "${TIDY_LOG}" || true
  fi
  # Hard failures: clang-tidy errors (including dws-* findings promoted
  # by WarningsAsErrors) and any dws-* diagnostic however classified.
  if grep -qE ': error: |\[dws-[a-z-]+\]' "${TIDY_LOG}"; then
    TIDY_FAIL="clang-tidy reported findings (see above)"
  fi
  rm -f "${TIDY_LOG}"
fi
note "clang-tidy" "${TIDY_FAIL}"

summarize_and_maybe_exit
echo "lint: clean"
