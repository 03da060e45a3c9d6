#!/usr/bin/env python3
"""sp-lint: sectorpack domain rules no generic linter can know.

Rules (see docs/static-analysis.md for the full table):

  raw-assert        assert( is forbidden in src/ -- use the contracts
                    macros (SP_REQUIRE/SP_ENSURE/SP_ASSERT from
                    src/core/contract.hpp), which stay active in
                    SECTORPACK_CONTRACTS builds and name the broken
                    contract. <cassert>/<assert.h> includes count too.
  float-eq          ==/!= against a floating-point literal outside
                    src/geom/: exact comparison belongs in the tolerance
                    helpers (geom::angles_equal, kAngleEps, kRadiusEps).
  deadline-loop     unbounded loops (for(;;), while(true), while(1)) in the
                    solver families (src/{sectors,assign,single,angles,
                    knapsack,bounds,cover,srv}/) must poll the PR-3 deadline
                    machinery (deadline/expired/cancel) inside the body so
                    --time-limit can interrupt them (src/srv/ counts: the
                    batch engine's pump loops must honor drain/cancel).
  untrusted-count   naked integer parses (std::stoull and family, strtoull,
                    atoi) and reserve(<parse>) outside src/model/io --
                    counts from text must go through the clamped readers.
  cpp-include       #include of a .cpp file anywhere: creates double
                    definitions and hides the real dependency graph.
  raw-mutex         direct std::mutex / std::condition_variable /
                    std::lock_guard / std::unique_lock (and friends) in
                    src/ outside src/core/sync.hpp -- lock through the
                    annotated core::Mutex/LockGuard/UniqueLock/CondVar
                    wrappers so Clang thread-safety analysis sees it.
  cv-wait-no-predicate
                    condition-variable .wait(lock) with no predicate:
                    the classic lost-wakeup/spurious-wakeup bug. Pass the
                    predicate to wait(); deliberate polling uses the
                    timed wait_for overload.
  detached-thread   .detach() on a thread anywhere: a detached thread
                    outlives the state it captures, races teardown, and
                    cannot be drained; every thread here is joined.
  relaxed-order-no-rationale
                    memory_order_relaxed in src/ without an adjacent
                    `// sp-sync:` rationale (same line or the preceding
                    12 lines). Relaxed ordering is correct only for a
                    documented reason.
  unannotated-guard a core::Mutex declaration in a src/ file with no
                    SP_GUARDED_BY anywhere in that file: a capability
                    nothing is annotated against guards nothing.
  narrowing-size-cast
                    a cast of a get_size(...) result to a narrower
                    integer type (static_cast, C-style or functional):
                    a large flag value wraps instead of failing. Parse
                    into the target type against a named bound with
                    Args::get_bounded<T>.

Waivers: a violating line is excused by an inline comment on the same line
or the line directly above:

    // sp-lint: allow(<rule>) <reason>

The reason is mandatory; a waiver without one (or naming an unknown rule)
is itself an error, so waivers stay auditable.

Usage:
    python3 tools/lint/sp_lint.py            # lint the tree
    python3 tools/lint/sp_lint.py FILE...    # lint specific files
    python3 tools/lint/sp_lint.py --list-rules

Exit status: 0 clean, 1 violations, 2 usage/setup error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh")

SOLVER_DIRS = ("src/sectors/", "src/assign/", "src/single/", "src/angles/",
               "src/knapsack/", "src/bounds/", "src/cover/", "src/srv/",
               "src/shard/", "src/race/")

WAIVER_RE = re.compile(
    r"//\s*sp-lint:\s*allow\(([a-z0-9-]+)\)\s*(.*)$")

FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)"

RULES = {
    "raw-assert": "raw assert( in src/; use SP_REQUIRE/SP_ENSURE/SP_ASSERT "
                  "from src/core/contract.hpp",
    "float-eq": "==/!= against a float literal outside src/geom/; use the "
                "geom tolerance helpers",
    "deadline-loop": "unbounded solver loop without a Deadline check in "
                     "its body",
    "untrusted-count": "naked integer parse / reserve-on-parse outside "
                       "src/model/io",
    "cpp-include": "#include of a .cpp file",
    "raw-mutex": "raw std:: sync primitive in src/ outside "
                 "src/core/sync.hpp; use the core::Mutex wrappers",
    "cv-wait-no-predicate": "condition-variable wait() without a "
                            "predicate (lost-wakeup bug)",
    "detached-thread": ".detach() on a thread; every thread must be "
                       "joined",
    "relaxed-order-no-rationale": "memory_order_relaxed without an "
                                  "adjacent // sp-sync: rationale",
    "unannotated-guard": "core::Mutex in a file with no SP_GUARDED_BY "
                         "uses",
    "narrowing-size-cast": "narrowing cast of a get_size result; parse "
                           "with a bound via get_bounded<T>",
    "bad-waiver": "malformed sp-lint waiver (unknown rule or missing "
                  "reason)",
}


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and (unless keep_strings) string/char literals,
    preserving line structure and byte offsets so rule matches report true
    locations."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if ch == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if ch in "\"'":
                state = ch
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif state == "line":
            if ch == "\n":
                state = None
                out.append(ch)
            else:
                out.append(" ")
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(ch if ch == "\n" else " ")
        else:  # inside a string/char literal
            if ch == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if ch == state:
                state = None
                out.append(ch)
            elif ch == "\n":  # unterminated (macro line continuation etc.)
                state = None
                out.append(ch)
            else:
                out.append(ch if keep_strings else " ")
        i += 1
    return "".join(out)


def collect_waivers(raw_lines, rel, violations):
    """Line -> set of waived rules. A waiver covers its own line and the
    next line (so it can sit above the violating statement)."""
    waived = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in RULES or rule == "bad-waiver":
            violations.append(Violation(
                rel, idx, "bad-waiver", "unknown rule '%s'" % rule))
            continue
        if not reason:
            violations.append(Violation(
                rel, idx, "bad-waiver",
                "waiver for '%s' needs a reason" % rule))
            continue
        waived.setdefault(idx, set()).add(rule)
        waived.setdefault(idx + 1, set()).add(rule)
    return waived


def line_of(offset, text):
    return text.count("\n", 0, offset) + 1


def loop_body(stripped, open_brace):
    """Text of the brace-balanced block starting at open_brace ('{')."""
    depth = 0
    for i in range(open_brace, len(stripped)):
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
            if depth == 0:
                return stripped[open_brace:i + 1]
    return stripped[open_brace:]


RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
CASSERT_RE = re.compile(r"#\s*include\s*[<\"](cassert|assert\.h)[>\"]")
FLOAT_EQ_RE = re.compile(
    r"[=!]=\s*[-+]?" + FLOAT_LIT + r"(?![\w.])"
    r"|(?<![\w.])" + FLOAT_LIT + r"\s*[=!]=")
UNBOUNDED_LOOP_RE = re.compile(
    r"\bfor\s*\(\s*;\s*;\s*\)|\bwhile\s*\(\s*(?:true|1)\s*\)")
DEADLINE_RE = re.compile(r"deadline|expired|cancel|stop_requested",
                         re.IGNORECASE)
PARSE_CALL_RE = re.compile(
    r"std\s*::\s*(?:stoull|stoul|stoll|stol|stoi)\b"
    r"|(?<![\w:])(?:strtoull|strtoul|strtoll|strtol|atoi|atol|atoll)\s*\(")
RESERVE_ON_PARSE_RE = re.compile(
    r"\.\s*reserve\s*\([^)]*\bsto(?:i|l|ll|ul|ull)\b")
CPP_INCLUDE_RE = re.compile(r"#\s*include\s*[<\"][^>\"]*\.cpp[>\"]")
RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
CV_WAIT_RE = re.compile(r"\.\s*wait\s*\(")
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
SP_SYNC_COMMENT_RE = re.compile(r"//\s*sp-sync:")
# How far above a memory_order_relaxed use its `// sp-sync:` rationale may
# sit. Wide enough that one comment covers a tight block of relaxed ops
# (a histogram-observe body, a zeroing loop) without comment-per-line spam.
RELAXED_RATIONALE_WINDOW = 12
CORE_MUTEX_DECL_RE = re.compile(
    r"(?:^|[\s(])(?:mutable\s+)?(?:sectorpack\s*::\s*)?core\s*::\s*Mutex\s+"
    r"(\w+)\s*;")
GUARD_ANNOTATION_RE = re.compile(r"\bSP_GUARDED_BY\s*\(")
# A get_size(...) call, optionally through an object (`args.get_size(`,
# `a->get_size(`), right after a cast opens.
_GET_SIZE_CALL = r"\s*(?:\w+\s*(?:\.|->)\s*)*get_size\s*\("
_NARROW_INT = (r"(?:unsigned(?:\s+(?:int|long(?:\s+long)?|short|char))?"
               r"|int|long(?:\s+long)?|short|char"
               r"|(?:std\s*::\s*)?u?int(?:8|16|32|64)_t)")
SIZE_CAST_RE = re.compile(
    r"static_cast\s*<\s*([^<>;]+?)\s*>\s*\(" + _GET_SIZE_CALL
    + r"|\(\s*(" + _NARROW_INT + r")\s*\)" + _GET_SIZE_CALL
    + r"|(?<![\w:])(" + _NARROW_INT + r")\s*\(" + _GET_SIZE_CALL)
SIZE_TYPES = ("std::size_t", "size_t")


def call_arg_count(stripped, open_paren):
    """Number of top-level arguments of the call whose '(' is at
    open_paren, or -1 when the call never closes (macro split across
    files etc.). Comments/strings are already blanked in `stripped`."""
    depth = 0
    args = 0
    saw_token = False
    for i in range(open_paren, len(stripped)):
        ch = stripped[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return args + 1 if saw_token else args
        elif depth == 1:
            if ch == ",":
                args += 1
            elif not ch.isspace():
                saw_token = True
    return -1


def lint_text(rel, raw):
    """Lint one file's contents; returns the violation list. `rel` is the
    repo-relative path with forward slashes (drives rule scoping)."""
    violations = []
    raw_lines = raw.split("\n")
    waived = collect_waivers(raw_lines, rel, violations)
    stripped = strip_comments_and_strings(raw)

    def report(rule, offset, message):
        line = line_of(offset, stripped)
        if rule in waived.get(line, ()):
            return
        violations.append(Violation(rel, line, rule, message))

    in_src = rel.startswith("src/")

    # raw-assert: src/ only; the contracts header itself is the one place
    # allowed to speak about plain assert.
    if in_src and rel != "src/core/contract.hpp":
        for m in RAW_ASSERT_RE.finditer(stripped):
            report("raw-assert", m.start(),
                   "use SP_REQUIRE/SP_ENSURE/SP_ASSERT "
                   "(src/core/contract.hpp) instead of assert(")
        for m in CASSERT_RE.finditer(stripped):
            report("raw-assert", m.start(),
                   "<%s> include in src/; contracts macros replace assert"
                   % m.group(1))

    # float-eq: src/ outside geom/ (geom owns the tolerance helpers and may
    # compare exactly while implementing them).
    if in_src and not rel.startswith("src/geom/"):
        for m in FLOAT_EQ_RE.finditer(stripped):
            report("float-eq", m.start(),
                   "exact floating-point comparison '%s'; use the geom "
                   "tolerance helpers" % m.group(0).strip())

    # deadline-loop: solver families only.
    if any(rel.startswith(d) for d in SOLVER_DIRS):
        for m in UNBOUNDED_LOOP_RE.finditer(stripped):
            brace = stripped.find("{", m.end())
            semi = stripped.find(";", m.end())
            if brace == -1 or (semi != -1 and semi < brace):
                # Braceless unbounded loop: single-statement body cannot
                # poll a deadline and commit an incumbent; always flag.
                report("deadline-loop", m.start(),
                       "unbounded loop without a body block")
                continue
            if not DEADLINE_RE.search(loop_body(stripped, brace)):
                report("deadline-loop", m.start(),
                       "unbounded loop body never checks the Deadline "
                       "(see src/core/deadline.hpp; PR-3 pattern)")

    # untrusted-count: everywhere in src/ and tools/ except the hardened
    # readers in src/model/io.*.
    if ((in_src or rel.startswith("tools/"))
            and not rel.startswith("src/model/io")):
        for m in PARSE_CALL_RE.finditer(stripped):
            report("untrusted-count", m.start(),
                   "naked integer parse '%s'; parse counts via the "
                   "clamped readers in src/model/io"
                   % m.group(0).strip())
        for m in RESERVE_ON_PARSE_RE.finditer(stripped):
            report("untrusted-count", m.start(),
                   "reserve() directly on a parsed count; clamp first "
                   "(see src/model/io.cpp)")

    # raw-mutex: src/ only; src/core/sync.hpp is the wrapper and the one
    # legal home of the raw primitives. Tests may use them for test-local
    # orchestration (they are not part of the annotated product surface).
    if in_src and rel != "src/core/sync.hpp":
        for m in RAW_MUTEX_RE.finditer(stripped):
            report("raw-mutex", m.start(),
                   "raw '%s'; lock through core::Mutex/LockGuard/"
                   "UniqueLock/CondVar (src/core/sync.hpp)"
                   % m.group(0).strip())

    # cv-wait-no-predicate: everywhere. A one-argument .wait(lock) is the
    # lost-wakeup pattern; zero-argument .wait() (futures) and the
    # two-argument predicate form are fine.
    for m in CV_WAIT_RE.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        if call_arg_count(stripped, open_paren) == 1:
            report("cv-wait-no-predicate", m.start(),
                   "wait(lock) without a predicate loses wakeups; pass "
                   "the condition as a lambda (core::CondVar only "
                   "offers the predicate form)")

    # detached-thread: everywhere.
    for m in DETACH_RE.finditer(stripped):
        report("detached-thread", m.start(),
               ".detach() orphans the thread past its captured state; "
               "keep the handle and join it")

    # relaxed-order-no-rationale: src/ only. The rationale comment lives
    # in the raw text (comments are what we are looking for).
    if in_src:
        for m in RELAXED_RE.finditer(stripped):
            line = line_of(m.start(), stripped)
            lo = max(0, line - 1 - RELAXED_RATIONALE_WINDOW)
            window = raw_lines[lo:line]
            if not any(SP_SYNC_COMMENT_RE.search(l) for l in window):
                report("relaxed-order-no-rationale", m.start(),
                       "memory_order_relaxed without a nearby "
                       "'// sp-sync:' rationale (within %d lines)"
                       % RELAXED_RATIONALE_WINDOW)

    # unannotated-guard: src/ only. File-granular heuristic: declaring a
    # core::Mutex in a file where nothing is SP_GUARDED_BY means the
    # capability protects nothing the analysis can check.
    if in_src and rel != "src/core/sync.hpp":
        if not GUARD_ANNOTATION_RE.search(stripped):
            for m in CORE_MUTEX_DECL_RE.finditer(stripped):
                report("unannotated-guard", m.start(),
                       "core::Mutex '%s' declared but no SP_GUARDED_BY "
                       "in this file; annotate what it protects"
                       % m.group(1))

    # narrowing-size-cast: everywhere. A cast to std::size_t is a no-op;
    # any other target type can drop the high bits of a flag value.
    for m in SIZE_CAST_RE.finditer(stripped):
        target = re.sub(r"\s+", "", m.group(1)) if m.group(1) else None
        if target in SIZE_TYPES:
            continue
        report("narrowing-size-cast", m.start(),
               "cast of a get_size result to '%s' wraps large values; "
               "use get_bounded<T>(key, fallback, max)"
               % (target or (m.group(2) or m.group(3)).strip()))

    # cpp-include: everywhere. Matched against comment-stripped text that
    # KEEPS string literals -- the include path is one.
    for m in CPP_INCLUDE_RE.finditer(
            strip_comments_and_strings(raw, keep_strings=True)):
        report("cpp-include", m.start(),
               "never #include a .cpp file; add it to the build instead")

    return violations


def iter_tree_files():
    for top in SCAN_DIRS:
        top_abs = os.path.join(REPO_ROOT, top)
        for dirpath, dirnames, filenames in os.walk(top_abs):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: the whole tree)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="treat paths as relative to this root "
                             "(fixture trees in tests)")
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-16s %s" % (rule, RULES[rule]))
        return 0

    root = os.path.abspath(args.root)
    paths = [os.path.abspath(p) for p in args.files] if args.files else \
        list(iter_tree_files())
    if not paths:
        sys.stderr.write("error: nothing to lint\n")
        return 2

    all_violations = []
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError as exc:
            sys.stderr.write("error: %s: %s\n" % (path, exc))
            return 2
        all_violations.extend(lint_text(rel, raw))

    for v in all_violations:
        print(v)
    if all_violations:
        print("sp-lint: FAIL (%d violations in %d files)"
              % (len(all_violations),
                 len({v.path for v in all_violations})))
        return 1
    print("sp-lint: PASS (%d files clean)" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
