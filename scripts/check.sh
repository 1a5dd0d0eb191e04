#!/usr/bin/env bash
# Single entry point for the repo's static gates. CI runs exactly this
# script; run it locally before pushing to get the same answer CI will.
#
#   scripts/check.sh [compile-db-dir]
#
# Gates, in order:
#   1. scripts/lint_rlqvo.py   — raw-mutex ban, RNG ban, header
#                                self-containment, failpoint-catalog
#                                closure, `neighbors-ok` annotations in
#                                src/matching/ (needs only a C++
#                                compiler; always runs)
#   2. clang-format            — formatting drift in src/ tests/ bench/
#                                (skipped with a notice if clang-format is
#                                not installed)
#   3. clang-tidy              — the .clang-tidy check set over every src/
#                                translation unit, using the compile DB in
#                                [compile-db-dir] (default: build/). Skipped
#                                with a notice if clang-tidy or the compile
#                                DB is missing.
#
# Skips are soft locally (you may not have LLVM installed) but CI installs
# the tools, so there every gate actually runs. Exit status is non-zero if
# any gate that ran failed.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
failed=0
skipped=0

note() { printf '\n== %s\n' "$*"; }

note "lint_rlqvo.py (raw-sync ban, RNG ban, header self-containment, failpoint catalog, neighbors-ok)"
if ! python3 "${repo_root}/scripts/lint_rlqvo.py"; then
  failed=1
fi

note "clang-format (src/ tests/ bench/)"
if command -v clang-format >/dev/null 2>&1; then
  # --dry-run --Werror: non-zero exit iff any file would be reformatted.
  if ! find "${repo_root}/src" "${repo_root}/tests" "${repo_root}/bench" \
      -name '*.h' -o -name '*.cc' | xargs clang-format --dry-run --Werror; then
    echo "clang-format: files need reformatting (run: clang-format -i ...)"
    failed=1
  else
    echo "clang-format: clean"
  fi
else
  echo "clang-format not installed - SKIPPED (CI runs it)"
  skipped=1
fi

note "clang-tidy (compile DB: ${build_dir}/compile_commands.json)"
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed - SKIPPED (CI runs it)"
  skipped=1
elif [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "no compile_commands.json in ${build_dir} - SKIPPED"
  echo "(configure first: cmake -B ${build_dir} -S ${repo_root})"
  skipped=1
else
  # run-clang-tidy parallelizes across TUs and respects .clang-tidy +
  # WarningsAsErrors; restrict to first-party sources.
  runner="$(command -v run-clang-tidy || command -v run-clang-tidy-14 || true)"
  if [ -n "${runner}" ]; then
    if ! "${runner}" -quiet -p "${build_dir}" "${repo_root}/src/.*\.cc$"; then
      failed=1
    fi
  else
    files="$(find "${repo_root}/src" -name '*.cc')"
    # shellcheck disable=SC2086
    if ! clang-tidy -quiet -p "${build_dir}" ${files}; then
      failed=1
    fi
  fi
fi

echo
if [ "${failed}" -ne 0 ]; then
  echo "check.sh: FAILED"
  exit 1
fi
if [ "${skipped}" -ne 0 ]; then
  echo "check.sh: passed (some gates skipped locally; CI runs all of them)"
else
  echo "check.sh: all gates passed"
fi
