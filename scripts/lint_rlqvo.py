#!/usr/bin/env python3
"""Repo-specific static lint for the rlqvo serving stack.

Five checks, all scoped to src/ (tests and benches may use the raw standard
library — they are not part of the annotated serving stack):

1. **Raw synchronization primitives are banned.** Every mutex/lock/condvar
   in src/ must go through the annotated rlqvo::Mutex / MutexLock / CondVar
   wrappers (src/common/thread_annotations.h), because Clang's
   -Wthread-safety analysis cannot see through std::mutex & friends. The
   wrapper header itself is the single allowed user of the std types.

2. **rand()/unseeded RNG is banned.** Every stochastic component takes an
   explicit seed through rlqvo::Rng (common/rng.h) so runs are reproducible
   across platforms; libc rand()/srand() and std::mt19937 /
   std::random_device would silently break that contract.

3. **Headers must be self-contained** (include-what-you-use-lite): every
   header in src/ is compiled standalone, as the *first* include of a fresh
   TU, with $CXX -fsyntax-only. A header that leans on its includers'
   includes breaks the next refactor.

4. **Failpoint sites are closed under the catalog.** Every
   RLQVO_FAILPOINT / RLQVO_FAILPOINT_FIRED site named in src/ must be
   registered in the catalog in src/common/failpoint.cc, every catalog
   entry must be used somewhere in src/ (a registered-but-dead site is a
   hole in the chaos suite, which iterates the catalog), names must match
   `component.operation` (lowercase [a-z0-9_], exactly one dot), and the
   catalog must be duplicate-free.

5. **Skeleton iteration in src/matching/ must be annotated.**
   `Graph::neighbors(v)` is the symmetric skeleton view: per-slice sorted
   only, and blind to direction and edge labels. Inside src/matching/ a
   raw `neighbors(` call must carry a `// neighbors-ok: <reason>`
   annotation on the same or the preceding line, recording the audited
   reason it is safe on directed / edge-labeled graphs (connectivity and
   degree heuristics, or labeled constraints re-checked per edge).
   Candidate generation must go through the slice API
   (NeighborsWith / NeighborsWithLabel / EdgesBetween) instead.

Exit status 0 = clean, 1 = violations (printed as file:line: message),
2 = usage/environment error.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

# The one file allowed to spell the raw std synchronization types.
WRAPPER_HEADER = os.path.join("src", "common", "thread_annotations.h")

RAW_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)

UNSEEDED_RNG_RES = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "libc rand()/srand() is banned"),
    (re.compile(r"std::mt19937(_64)?\b"),
     "std::mt19937 is banned (distributions are not portable)"),
    (re.compile(r"std::random_device\b"),
     "std::random_device is banned (non-deterministic seed)"),
]
RNG_BAN_MSG = "use rlqvo::Rng (common/rng.h) with an explicit seed"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    numbers, so bans only fire on code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and nxt == "*":  # block comment (keep newlines)
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c in "\"'":  # string/char literal
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                    if i < n:
                        out.append(" " if text[i] != "\n" else "\n")
                        i += 1
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    for root, _, names in os.walk(SRC_DIR):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                yield os.path.join(root, name)


def check_banned_patterns():
    violations = []
    for path in source_files():
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if rel != WRAPPER_HEADER and (m := RAW_SYNC_RE.search(line)):
                violations.append(
                    f"{rel}:{lineno}: raw {m.group(0)} is banned in src/ — "
                    "use rlqvo::Mutex/MutexLock/CondVar "
                    "(common/thread_annotations.h)")
            for pattern, what in UNSEEDED_RNG_RES:
                if pattern.search(line):
                    violations.append(
                        f"{rel}:{lineno}: {what} — {RNG_BAN_MSG}")
    return violations


MATCHING_DIR = os.path.join(SRC_DIR, "matching")
NEIGHBORS_CALL_RE = re.compile(r"\bneighbors\s*\(")
NEIGHBORS_OK_RE = re.compile(r"//\s*neighbors-ok:\s*\S")


def check_neighbors_annotated():
    """Raw skeleton iteration in src/matching/ needs a `// neighbors-ok:`
    audit annotation (the call is matched on comment-stripped text so
    mentions in comments don't fire; the annotation is matched on raw text
    because it lives in a comment)."""
    violations = []
    for path in source_files():
        if os.path.commonpath([path, MATCHING_DIR]) != MATCHING_DIR:
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        for lineno, line in enumerate(
                strip_comments_and_strings(raw).splitlines(), start=1):
            if not NEIGHBORS_CALL_RE.search(line):
                continue
            same = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            prev = raw_lines[lineno - 2] if lineno >= 2 else ""
            if NEIGHBORS_OK_RE.search(same) or NEIGHBORS_OK_RE.search(prev):
                continue
            violations.append(
                f"{rel}:{lineno}: raw neighbors() iteration in src/matching/ "
                "— the skeleton is direction- and edge-label-blind; use the "
                "slice API (NeighborsWith/NeighborsWithLabel/EdgesBetween) "
                "or annotate the audited use with "
                "\"// neighbors-ok: <reason>\" on this or the previous line")
    return violations


FAILPOINT_CATALOG = os.path.join(SRC_DIR, "common", "failpoint.cc")
FAILPOINT_ENTRY_RE = re.compile(r'\{"([^"]+)",\s*StatusCode::')
FAILPOINT_USE_RE = re.compile(r'RLQVO_FAILPOINT(?:_FIRED)?\s*\(\s*"([^"]+)"')
FAILPOINT_NAME_RE = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")


def check_failpoints():
    """The failpoint catalog and the RLQVO_FAILPOINT* sites in src/ must be
    the same set (note: uses are matched on raw text, not comment-stripped
    text, because site names live inside string literals)."""
    violations = []
    if not os.path.isfile(FAILPOINT_CATALOG):
        return [f"{os.path.relpath(FAILPOINT_CATALOG, REPO_ROOT)}:1: "
                "failpoint catalog not found"]
    with open(FAILPOINT_CATALOG, encoding="utf-8") as f:
        catalog_text = f.read()
    registered = {}
    for lineno, line in enumerate(catalog_text.splitlines(), start=1):
        for name in FAILPOINT_ENTRY_RE.findall(line):
            if name in registered:
                violations.append(
                    f"src/common/failpoint.cc:{lineno}: duplicate catalog "
                    f'entry "{name}" (first at line {registered[name]})')
            else:
                registered[name] = lineno
            if not FAILPOINT_NAME_RE.match(name):
                violations.append(
                    f"src/common/failpoint.cc:{lineno}: failpoint name "
                    f'"{name}" must match component.operation '
                    "(lowercase [a-z0-9_], exactly one dot)")

    used = {}
    for path in source_files():
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for name in FAILPOINT_USE_RE.findall(line):
                    used.setdefault(name, f"{rel}:{lineno}")
                    if name not in registered:
                        violations.append(
                            f"{rel}:{lineno}: failpoint site \"{name}\" is "
                            "not registered in the catalog in "
                            "src/common/failpoint.cc")
    for name, lineno in sorted(registered.items()):
        if name not in used:
            violations.append(
                f"src/common/failpoint.cc:{lineno}: catalog entry "
                f'"{name}" has no RLQVO_FAILPOINT(_FIRED) use in src/ — '
                "remove it or instrument the site")
    return violations


def check_header_self_contained(cxx: str, jobs: int):
    headers = [p for p in source_files() if p.endswith(".h")]

    def compile_one(header: str):
        rel = os.path.relpath(header, SRC_DIR)
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cc", delete=False) as tu:
            tu.write(f'#include "{rel}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [cxx, "-std=c++20", "-fsyntax-only", "-I", SRC_DIR, tu_path],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first_error = next(
                    (l for l in proc.stderr.splitlines() if "error" in l),
                    proc.stderr.strip().splitlines()[-1]
                    if proc.stderr.strip() else "compile failed")
                return (f"src/{rel}:1: header is not self-contained "
                        f"(header-first TU fails to compile): {first_error}")
            return None
        finally:
            os.unlink(tu_path)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(compile_one, headers)
    return [r for r in results if r is not None]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-header-check", action="store_true",
                        help="skip the self-contained-header compile check")
    parser.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                        help="compiler for the header check (default: $CXX "
                             "or c++)")
    parser.add_argument("-j", "--jobs", type=int,
                        default=max(os.cpu_count() or 1, 1))
    args = parser.parse_args()

    if not os.path.isdir(SRC_DIR):
        print(f"lint_rlqvo: src/ not found under {REPO_ROOT}",
              file=sys.stderr)
        return 2

    violations = check_banned_patterns()
    violations += check_neighbors_annotated()
    violations += check_failpoints()
    if not args.skip_header_check:
        violations += check_header_self_contained(args.cxx, args.jobs)

    for v in violations:
        print(v)
    if violations:
        print(f"lint_rlqvo: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_rlqvo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
