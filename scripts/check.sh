#!/usr/bin/env bash
# Project gate: static analysis + format + contracts + sanitizers.
#
# Stages (default run executes all of them, in this order):
#   lint       clang-tidy profile (.clang-tidy) over compile_commands.json
#              from a dedicated build-lint/ configure, via
#              tools/lint/run_clang_tidy.py (GCC -Werror diagnostics
#              fallback when clang-tidy is not installed), plus the
#              sectorpack domain linter tools/lint/sp_lint.py, plus the
#              Clang Thread Safety Analysis gate over the SP_* capability
#              annotations (tools/lint/run_thread_safety.py; prints
#              "[gate] thread-safety: PASS|SKIP(clang missing)|FAIL",
#              SP_REQUIRE_THREAD_SAFETY=1 turns SKIP into FAIL). Fails on
#              any new diagnostic or unwaived domain-rule violation.
#   format     clang-format --dry-run -Werror over src/ tools/ bench/
#              tests/ against .clang-format. Skipped (with a notice) when
#              clang-format is not installed, unless SP_REQUIRE_FORMAT=1.
#   contracts  full test suite with SECTORPACK_CONTRACTS=ON (Debug): every
#              SP_REQUIRE/SP_ENSURE/SP_ASSERT live, solver entry points
#              re-verify their solutions via src/verify/ on every return.
#   sanitize   the ASan+UBSan battery (or TSan with --tsan): full test
#              suite plus the hostile-input corpus and the CLI exit-code
#              table from docs/robustness.md, over-bound size flags and
#              writes to a full disk included; `solve --in -` and a CRLF
#              copy must give the bytes of the plain file.
#   batch      the `sectorpack batch` corpus (docs/serving.md): a
#              200-request mixed valid/malformed/deadline-expiring run at
#              --jobs 8 under ASan+UBSan and again under TSan, over three
#              instances and a reordered copy of each (customers shuffled,
#              antennas reversed), asserting one response per request,
#              exact per-status counts, miss/solve byte-identity, verified
#              cache hits, and --stats json request, cache and quality
#              counters equal to what the responses show; the corpus
#              runs again at --jobs 8 and once with --cache-entries 0, and
#              every ok solution must be identical across the three runs;
#              then the SIGINT drain gate under ASan+UBSan (three slow
#              requests at --jobs 1, SIGINT after 1 s: exit 0 within 5 s,
#              the solve in flight cancelled, the two queued requests
#              rejected).
#   serve      the `sectorpack serve` session contract (docs/serving.md):
#              one register plus 50 mixed deltas (add/remove/demand/
#              antenna) under ASan+UBSan; every response's incremental
#              solution must be byte-identical to a from-scratch greedy
#              solve of the same post-delta instance, and the delta stream
#              must produce dirty-window memo hits; then the SIGINT drain
#              gate (a slow register, SIGINT after 1 s, later ops
#              rejected).
#   huge       the spatial-index contract at scale (docs/performance.md): a
#              sanitized 10^5-customer instance solved with --spatial flat
#              and --spatial index must produce byte-identical solution
#              files and summary lines (and so must local search on a
#              10^5-customer mixed annular fleet, and annealing on it under
#              --spatial flat, index and auto), `sectorpack bound`
#              must order trivial >= orientation-free >= flow-window >=
#              the greedy served value, and the shard solver's output must
#              pass the named-invariant verifier and be byte-identical
#              across two solves. No --time-limit anywhere: deadline stops are
#              wall-clock nondeterministic and would break the byte
#              comparisons.
#   race       the portfolio-racing contract (docs/performance.md): a
#              sanitized `solve --solver race` run must produce a verified,
#              byte-identical-across-repeats solution with a
#              race.winner.<family> counter in --stats json, a
#              dominant-family duel must prove cancel-on-winner
#              (race.cancelled >= 1 with status complete), and a race with
#              a shard lane must verify with Phase B run
#              (race.exchange_adoptions >= 1) and the shard lane fanned out
#              inside it (shard.count >= 2): a nested parallel_for.
#              Repeated under TSan by the --tsan battery.
#   obs        the telemetry contract (docs/observability.md): a batch run
#              under ASan+UBSan with --metrics-out / --metrics-jsonl /
#              --metrics-interval 1 / --access-log / --stats json, long
#              enough for >= 2 periodic exporter ticks. Validates the
#              Prometheus exposition with tools/lint/prom_check.py, every
#              JSONL snapshot envelope, one access-log line per request in
#              response order, SLO/quality keys in --stats json, and the
#              --metrics-* flag usage errors.
#
# Usage: scripts/check.sh [--lint | --format | --contracts | --tsan |
#                          --fuzz | --batch | --serve | --huge | --race |
#                          --obs] [build-dir]
#   no flag      run every stage (lint, format, contracts, sanitize,
#                batch, serve, huge, race, obs)
#   --lint       static analysis only
#   --format     format check only
#   --contracts  contracts-enabled test build only
#   --tsan       ThreadSanitizer battery (exclusive with ASan): test suite
#                and CLI table, then the 50-delta serve byte-identity run
#                and a short 80-request --batch --jobs 8 corpus, all TSan
#   --fuzz       hostile-input battery only (ASan+UBSan)
#   --batch      batch-engine corpus only (ASan+UBSan, then TSan)
#   --serve      session-serving byte-identity gate only (ASan+UBSan)
#   --huge       spatial-index scale contract only (ASan+UBSan)
#   --race       portfolio-racing contract only (ASan+UBSan)
#   --obs        telemetry contract only (ASan+UBSan)
#
# Each stage prints a summary line "[gate] <stage>: PASS"; the first
# failing stage aborts the run (set -e).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="all"
TSAN="${SECTORPACK_TSAN:-0}"
case "${1:-}" in
  --tsan) MODE="sanitize"; TSAN=1; shift ;;
  --fuzz) MODE="fuzz"; shift ;;
  --batch) MODE="batch"; shift ;;
  --serve) MODE="serve"; shift ;;
  --huge) MODE="huge"; shift ;;
  --race) MODE="race"; shift ;;
  --obs) MODE="obs"; shift ;;
  --lint) MODE="lint"; shift ;;
  --format) MODE="format"; shift ;;
  --contracts) MODE="contracts"; shift ;;
esac
if [[ "$TSAN" == "1" && "$MODE" == "all" ]]; then
  MODE="sanitize"   # legacy env-var invocation: TSan battery only
fi

JOBS="$(nproc)"

run_lint() {
  cmake -B build-lint -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  python3 tools/lint/run_clang_tidy.py --build-dir build-lint
  python3 tools/lint/sp_lint.py
  # Clang Thread Safety Analysis over the SP_* capability annotations
  # (src/core/sync.hpp). The pass exists only in clang; exit 3 means no
  # clang++ on PATH, reported as SKIP unless SP_REQUIRE_THREAD_SAFETY=1
  # promotes missing tooling to failure (same policy as SP_REQUIRE_FORMAT).
  local ts_rc=0
  python3 tools/lint/run_thread_safety.py --build-dir build-lint || ts_rc=$?
  case "$ts_rc" in
    0) echo "[gate] thread-safety: PASS" ;;
    3)
      if [[ "${SP_REQUIRE_THREAD_SAFETY:-0}" == "1" ]]; then
        echo "[gate] thread-safety: FAIL (clang++ not installed but" \
             "SP_REQUIRE_THREAD_SAFETY=1)" >&2
        return 1
      fi
      echo "[gate] thread-safety: SKIP(clang missing)"
      ;;
    *)
      echo "[gate] thread-safety: FAIL" >&2
      return 1
      ;;
  esac
  echo "[gate] lint: PASS"
}

run_format() {
  if ! command -v clang-format > /dev/null 2>&1; then
    if [[ "${SP_REQUIRE_FORMAT:-0}" == "1" ]]; then
      echo "[gate] format: FAIL (clang-format not installed but" \
           "SP_REQUIRE_FORMAT=1)" >&2
      return 1
    fi
    echo "[gate] format: SKIP (clang-format not installed; .clang-format" \
         "is authoritative when it is)"
    return 0
  fi
  git ls-files 'src/*.[ch]pp' 'tools/*.[ch]pp' 'bench/*.[ch]pp' \
               'tests/*.[ch]pp' 'examples/*.[ch]pp' \
    | xargs clang-format --dry-run -Werror
  echo "[gate] format: PASS"
}

run_contracts() {
  cmake -B build-contracts -S . -DSECTORPACK_CONTRACTS=ON \
    -DCMAKE_BUILD_TYPE=Debug > /dev/null
  cmake --build build-contracts -j"$JOBS"
  ctest --test-dir build-contracts --output-on-failure -j"$JOBS"
  echo "[gate] contracts: PASS"
}

run_sanitize() {
  local fuzz_only="$1"
  local build_dir cmake_flags label
  if [[ "$TSAN" == "1" ]]; then
    build_dir="${BUILD_DIR_OVERRIDE:-build-tsan}"
    cmake_flags=(-DSECTORPACK_TSAN=ON -DSECTORPACK_SANITIZE=OFF)
    label="TSan"
  else
    build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
    cmake_flags=(-DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF)
    label="ASan + UBSan"
  fi

  cmake -B "$build_dir" -S . \
    "${cmake_flags[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j"$JOBS"

  if [[ "$fuzz_only" == "1" ]]; then
    # Hostile-input corpus only: IO garbage/mutation fuzzers and the
    # deadline degradation tests.
    ctest --test-dir "$build_dir" --output-on-failure -j"$JOBS" \
      -R 'Robustness|Fuzz|Deadline'
  else
    ctest --test-dir "$build_dir" --output-on-failure -j"$JOBS"
  fi

  # -------------------------------------------------------------------------
  # CLI exit-code battery: malformed files and bad flag values must exit
  # 1 / 2 respectively -- never crash, never exit 0 -- and hitting
  # --time-limit must NOT be an error.

  local CLI="$build_dir/tools/sectorpack"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  # Hostile instance files -> runtime error (1).
  printf 'sectorpack-instance v1\ncustomers 9223372036854775807\n' \
    > "$TMP/forged_count.inst"
  printf 'sectorpack-instance v1\ncustomers 1\n1 2 3 junk\nantennas 1\n0.5 10 5\n' \
    > "$TMP/trailing.inst"
  printf 'sectorpack-instance v1\ncustomers 1\nnan 2 3\nantennas 1\n0.5 10 5\n' \
    > "$TMP/nan.inst"
  printf 'sectorpack-instance v2\ncustomers 1\n1 2 3\nantennas 1\n0.5 10 5 0\n' \
    > "$TMP/truncated_v2.inst"
  expect_rc 1 "$CLI" solve --in "$TMP/forged_count.inst"
  expect_rc 1 "$CLI" solve --in "$TMP/trailing.inst"
  grep -q 'trailing.inst: trailing garbage' "$TMP/err"
  expect_rc 1 "$CLI" info  --in "$TMP/nan.inst"
  expect_rc 1 "$CLI" info  --in "$TMP/truncated_v2.inst"
  expect_rc 1 "$CLI" solve --in "$TMP/does_not_exist.inst"

  # Bad invocations -> usage error (2). ok.inst exists so the usage error,
  # not a file error, is what decides the exit code.
  expect_rc 0 "$CLI" generate --n 300 --k 4 --seed 3 -o "$TMP/ok.inst"
  expect_rc 2 "$CLI" frobnicate
  expect_rc 2 "$CLI" generate --n -5
  expect_rc 2 "$CLI" generate --n banana
  expect_rc 2 "$CLI" solve --time-limit banana --in "$TMP/ok.inst"
  expect_rc 2 "$CLI" solve --time-limit -1 --in "$TMP/ok.inst"
  expect_rc 2 "$CLI" solve --in
  expect_rc 2 "$CLI" solve --no-such-flag 1 --in "$TMP/ok.inst"

  # Repeated single-valued flags are typos or mangled scripts: exit 2
  # naming the flag (the old behavior silently kept the last value). -o is
  # an alias of --out, so mixing the two spellings collides as well.
  expect_rc 2 "$CLI" solve --in "$TMP/ok.inst" --seed 1 --seed 2
  grep -q 'duplicate option --seed' "$TMP/err"
  expect_rc 2 "$CLI" solve --in "$TMP/ok.inst" -o "$TMP/a.sol" --out "$TMP/b.sol"
  grep -q 'duplicate option --out' "$TMP/err"
  expect_rc 2 "$CLI" generate --n 5 --n 6
  grep -q 'duplicate option --n' "$TMP/err"

  # Size flags are parsed into their target type against a named bound, so
  # an absurd value is a usage error before any thread starts or any ring
  # is allocated: --jobs once wrapped to 0, --slo-window threw bad_alloc,
  # --queue-capacity wrapped the batch engine's reorder window, and
  # generate reserved --n customers up front and could write a file the
  # reader's count cap (model::kMaxIoCount) rejects.
  expect_rc 2 "$CLI" generate --n 100000001
  grep -q -- '--n must be at most 100000000' "$TMP/err"
  expect_rc 2 "$CLI" generate --k 100000001
  grep -q -- '--k must be at most 100000000' "$TMP/err"
  : > "$TMP/empty.jsonl"
  expect_rc 2 "$CLI" batch --in "$TMP/empty.jsonl" --jobs 4294967296
  grep -q -- '--jobs must be at most' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/empty.jsonl" \
    --slo-window 100000000000000
  grep -q -- '--slo-window must be at most' "$TMP/err"
  expect_rc 2 "$CLI" serve --in "$TMP/empty.jsonl" \
    --slo-window 100000000000000
  grep -q -- '--slo-window must be at most' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/empty.jsonl" \
    --queue-capacity 18446744073709551615
  grep -q -- '--queue-capacity must be at most' "$TMP/err"

  # A deadline hit is NOT an error: exit 0, status surfaced, feasible output.
  expect_rc 0 "$CLI" solve --in "$TMP/ok.inst" --solver local-search \
    --time-limit 0 -o "$TMP/ok.sol" --stats json
  grep -q 'status=budget_exhausted' "$TMP/err"
  grep -q 'deadline.expired' "$TMP/out"
  grep -q 'status budget_exhausted' "$TMP/ok.sol"
  expect_rc 0 "$CLI" validate --in "$TMP/ok.inst" --solution "$TMP/ok.sol"
  # ... and without a limit the solution file carries no status line.
  expect_rc 0 "$CLI" solve --in "$TMP/ok.inst" --solver greedy -o "$TMP/full.sol"
  ! grep -q 'status' "$TMP/full.sol"

  # The named-invariant verifier accepts every solver's output and rejects
  # a hand-corrupted file with the invariant's name.
  expect_rc 0 "$CLI" verify --in "$TMP/ok.inst" --solution "$TMP/ok.sol"
  expect_rc 0 "$CLI" verify --in "$TMP/ok.inst" --solution "$TMP/full.sol"
  for solver in uniform annealing; do
    expect_rc 0 "$CLI" solve --in "$TMP/ok.inst" --solver "$solver" \
      -o "$TMP/s.sol"
    expect_rc 0 "$CLI" verify --in "$TMP/ok.inst" --solution "$TMP/s.sol"
  done
  # Corrupt a served assignment to a non-existent antenna index.
  sed 's/^3$/99/' "$TMP/full.sol" > "$TMP/corrupt.sol"
  if cmp -s "$TMP/full.sol" "$TMP/corrupt.sol"; then
    # No customer on antenna 3: corrupt the first served one instead.
    awk '!done && /^[0-9]+$/ && NR > 5 { $0 = "99"; done = 1 } { print }' \
      "$TMP/full.sol" > "$TMP/corrupt.sol"
  fi
  expect_rc 1 "$CLI" verify --in "$TMP/ok.inst" --solution "$TMP/corrupt.sol"
  grep -q 'assign-range' "$TMP/out"

  # Output that cannot be written is a runtime error (1), not a lost file.
  expect_rc 1 "$CLI" generate --n 1000 --out /dev/full
  grep -q 'cannot write /dev/full' "$TMP/err"
  expect_rc 1 "$CLI" solve --in "$TMP/ok.inst" --out /dev/full
  grep -q 'cannot write /dev/full' "$TMP/err"

  # Solution-file parse errors name the file, as instance errors do.
  printf 'sectorpack-solution v1\nalphas x\n' > "$TMP/bad.sol"
  expect_rc 1 "$CLI" validate --in "$TMP/ok.inst" --solution "$TMP/bad.sol"
  grep -q 'bad.sol: expected' "$TMP/err"

  # stdin is read whole, as a file is: the same solution file and summary
  # line. A CRLF copy of a file solves to the same bytes as the file.
  expect_rc 0 "$CLI" solve --in "$TMP/ok.inst" -o "$TMP/file.sol"
  mv "$TMP/err" "$TMP/file.err"
  expect_rc 0 "$CLI" solve --in - -o "$TMP/stdin.sol" < "$TMP/ok.inst"
  cmp "$TMP/file.sol" "$TMP/stdin.sol"
  cmp "$TMP/file.err" "$TMP/err"
  sed 's/$/\r/' data/mixed_fleet.inst > "$TMP/crlf.inst"
  expect_rc 0 "$CLI" solve --in data/mixed_fleet.inst -o "$TMP/lf.sol"
  mv "$TMP/err" "$TMP/lf.err"
  expect_rc 0 "$CLI" solve --in "$TMP/crlf.inst" -o "$TMP/crlf.sol"
  cmp "$TMP/lf.sol" "$TMP/crlf.sol"
  cmp "$TMP/lf.err" "$TMP/err"

  echo
  if [[ "$fuzz_only" == "1" ]]; then
    echo "[gate] fuzz: PASS ($label, build dir: $build_dir)"
  else
    echo "[gate] sanitize: PASS ($label, build dir: $build_dir)"
  fi
}

# Drive a mixed corpus (valid / malformed / deadline-expiring) of $3
# requests (default 200; TSan uses a shorter one) through `sectorpack
# batch` in the build at $1 with --jobs $2, then check the per-request
# contract: one response per request in input order, exact per-status
# counts, cache misses byte-identical to single-shot `solve`, cache hits
# accepted by `sectorpack verify`, and --stats json counters that agree
# with the responses although the pumps wrote them side by side.
run_batch_corpus() {
  local CLI="$1/tools/sectorpack"
  local jobs="$2"
  local count="${3:-200}"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  expect_rc 0 "$CLI" generate --n 40 --k 3 --seed 11 -o "$TMP/b1.inst"
  expect_rc 0 "$CLI" generate --n 25 --k 2 --seed 12 --spatial hotspots \
    -o "$TMP/b2.inst"
  expect_rc 0 "$CLI" generate --n 30 --k 4 --seed 13 --spatial ring \
    -o "$TMP/b3.inst"

  # b4-b6 are b1-b3 with the customers shuffled and the antennas reversed:
  # the same entities in another order, so a different input with an
  # answer of its own, which the cache must not serve from the original.
  python3 - "$TMP" <<'EOF'
import random, sys
tmp = sys.argv[1]
for b in (1, 2, 3):
    lines = open("%s/b%d.inst" % (tmp, b)).read().splitlines()
    assert lines[0] == "sectorpack-instance v1", lines[0]
    n = int(lines[1].split()[1])
    customers = lines[2:2 + n]
    k = int(lines[2 + n].split()[1])
    antennas = lines[3 + n:3 + n + k]
    random.Random(b).shuffle(customers)
    body = lines[:2] + customers + [lines[2 + n]] + antennas[::-1]
    open("%s/b%d.inst" % (tmp, b + 3), "w").write("\n".join(body) + "\n")
EOF

  python3 - "$TMP" "$count" <<'EOF'
import json, sys
tmp, count = sys.argv[1], int(sys.argv[2])
solvers = ["greedy", "local-search", "uniform", "annealing"]
lines = []
for i in range(count):
    # Line i asks for the reordered copy when i % 7 < 3. The period 7 is
    # prime to the solver and seed cycles, so each copy also runs under a
    # solver and seed its original runs under.
    inst = "%s/b%d.inst" % (tmp, i % 3 + 1 + (3 if i % 7 < 3 else 0))
    if i % 20 == 7:  # 10 malformed requests, several flavors
        bad = ['{"solver":"greedy"}',                       # no instance
               'not json at all',
               '{"instance_file":"%s/missing.inst"}' % tmp,
               '{"instance_file":"%s","solver":"qaoa"}' % inst,
               '{"instance_file":"%s","frobnicate":1}' % inst]
        lines.append(bad[(i // 20) % len(bad)])
    elif i % 40 == 15:  # 5 deadline-expiring requests
        lines.append(json.dumps({"id": "r%d" % i, "instance_file": inst,
                                 "solver": "local-search", "time_limit": 0}))
    else:
        lines.append(json.dumps({"id": "r%d" % i, "instance_file": inst,
                                 "solver": solvers[i % 4],
                                 "seed": i % 5 + 1, "iterations": 200}))
open("%s/requests.jsonl" % tmp, "w").write("\n".join(lines) + "\n")
EOF

  expect_rc 0 "$CLI" batch --in "$TMP/requests.jsonl" \
    --out "$TMP/responses.jsonl" --jobs "$jobs" --cache-entries 64 \
    --stats json
  # The stats snapshot is the last line of stdout; checked below.
  tail -n 1 "$TMP/out" > "$TMP/stats.json"
  # The same corpus again at the same --jobs, where which request reaches
  # the cache first is another race, and once with the cache off.
  expect_rc 0 "$CLI" batch --in "$TMP/requests.jsonl" \
    --out "$TMP/responses_again.jsonl" --jobs "$jobs" --cache-entries 64
  expect_rc 0 "$CLI" batch --in "$TMP/requests.jsonl" \
    --out "$TMP/responses_uncached.jsonl" --jobs "$jobs" --cache-entries 0

  python3 - "$TMP" "$CLI" "$count" <<'EOF'
import json, subprocess, sys
tmp, cli, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
def file_of(i):  # replays the generator: b4-b6 reorder b1-b3
    return i % 3 + 1 + (3 if i % 7 < 3 else 0)
responses = [json.loads(l) for l in open("%s/responses.jsonl" % tmp)]
assert len(responses) == count, \
    "expected %d responses, got %d" % (count, len(responses))
assert [r["index"] for r in responses] == list(range(count)), "out of order"
by_status = {}
for r in responses:
    by_status.setdefault(r["status"], []).append(r)
counts = {k: len(v) for k, v in by_status.items()}
# Expected mix replays the generator's formulas (i%20==7 is malformed,
# i%40==15 deadline-expiring -- disjoint residues, so no double counting).
invalid = sum(1 for i in range(count) if i % 20 == 7)
budget = sum(1 for i in range(count) if i % 40 == 15)
expected = {"ok": count - invalid - budget,
            "invalid": invalid, "budget_exhausted": budget}
assert counts == expected, (counts, expected)

# Cache misses are byte-identical to single-shot `solve` (one per family).
checked = set()
for r in by_status["ok"]:
    if r["cache"] != "miss" or r["solver"] in checked:
        continue
    checked.add(r["solver"])
    i = int(r["id"][1:])
    inst = "%s/b%d.inst" % (tmp, file_of(i))
    single = subprocess.run(
        [cli, "solve", "--in", inst, "--solver", r["solver"],
         "--seed", str(i % 5 + 1), "--iterations", "200", "-o", "-"],
        capture_output=True, text=True, check=True).stdout
    assert r["solution"] == single, "miss differs from solve for %s" % r["id"]
assert checked, "no cache misses found"

# Cache hits pass the named-invariant verifier against their instance.
verified = 0
for r in by_status["ok"]:
    if r["cache"] != "hit" or verified >= 5:
        continue
    i = int(r["id"][1:])
    inst = "%s/b%d.inst" % (tmp, file_of(i))
    open("%s/hit.sol" % tmp, "w").write(r["solution"])
    subprocess.run([cli, "verify", "--in", inst,
                    "--solution", "%s/hit.sol" % tmp],
                   capture_output=True, check=True)
    verified += 1
assert verified > 0, "no cache hits found"

# The first run's --stats json counts what its responses show.
stats = json.load(open("%s/stats.json" % tmp))
counters, histograms = stats["counters"], stats["histograms"]
assert "srv.cache.evicted" in counters, "srv.cache.evicted missing"
assert "srv.queue.depth" in stats["gauges"], "srv.queue.depth missing"
for status in ("ok", "budget_exhausted", "invalid", "rejected"):
    assert counters["srv.requests." + status] == counts.get(status, 0), \
        (status, counters["srv.requests." + status], counts.get(status, 0))
solved = by_status.get("ok", []) + by_status.get("budget_exhausted", [])
hits = sum(1 for r in solved if r["cache"] == "hit")
# A hit that fails its check (srv.cache.mismatch) is solved again and
# answered as a miss.
assert counters["srv.cache.hit"] - counters["srv.cache.mismatch"] == hits, \
    (counters["srv.cache.hit"], counters["srv.cache.mismatch"], hits)
assert counters["srv.cache.miss"] + counters["srv.cache.mismatch"] == \
    len(solved) - hits, (counters["srv.cache.miss"], len(solved) - hits)
for name in ("srv.request_ms", "quality.gap_permille"):
    assert histograms[name]["count"] == len(solved), \
        (name, histograms[name]["count"], len(solved))
families = [n[len("quality."):-len(".solves")] for n in counters
            if n.startswith("quality.") and n.endswith(".solves")]
assert set(r["solver"] for r in solved) <= set(families), families
for family in families:
    want = sum(1 for r in solved if r["solver"] == family)
    assert counters["quality.%s.solves" % family] == want, (family, want)

# Degraded requests carry the status in their solution payload.
for r in by_status["budget_exhausted"]:
    assert "status budget_exhausted" in r["solution"], r["id"]

# A reordered copy is a different input: it never shares a cache key with
# its original, though both run under the same solvers and seeds.
keys = {}
for r in by_status["ok"]:
    keys.setdefault(file_of(int(r["id"][1:])), set()).add(r["fingerprint"])
for b in (1, 2, 3):
    assert not keys[b] & keys[b + 3], \
        "b%d and its reordered copy share a cache key" % b

# No answer depends on the cache or on timing: every ok response is the
# same in the second run and in the cache-off run, hit or miss.
for name in ("responses_again", "responses_uncached"):
    other = [json.loads(l) for l in open("%s/%s.jsonl" % (tmp, name))]
    assert [r["status"] for r in other] == \
        [r["status"] for r in responses], "%s: statuses differ" % name
    for r, o in zip(responses, other):
        if r["status"] == "ok":
            assert r["solution"] == o["solution"], \
                "%s: solution of %s differs" % (name, r["id"])
print("batch corpus OK: %d responses, %d miss-identity checks, "
      "%d hit verifications, stats counters match the responses, ok "
      "solutions identical in a second run and with the cache off"
      % (count, len(checked), verified))
EOF
}

# Telemetry contract (docs/observability.md): one sanitized batch run with
# every observability surface enabled, long enough (two deadline-capped
# annealing requests at --time-limit-equivalent 2.6 s) for the periodic
# exporter to tick at least twice at --metrics-interval 1, then validate
# every artifact it produced.
run_obs() {
  local build_dir
  build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
  cmake -B "$build_dir" -S . -DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j"$JOBS"

  # The exposition validator must believe its own fixtures first.
  python3 tools/lint/prom_check.py --self-test

  local CLI="$build_dir/tools/sectorpack"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  expect_rc 0 "$CLI" generate --n 40 --k 3 --seed 21 -o "$TMP/o1.inst"
  expect_rc 0 "$CLI" generate --n 25 --k 2 --seed 22 --spatial hotspots \
    -o "$TMP/o2.inst"

  # 62 requests: 60 fast ones across the solver families (with repeats, so
  # the cache produces hits) plus 2 deadline-capped annealing requests
  # whose 2.6 s budgets keep the batch alive across >= 2 exporter ticks.
  python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
solvers = ["greedy", "local-search", "uniform", "annealing"]
lines = []
for i in range(60):
    lines.append(json.dumps({"id": "q%d" % i,
                             "instance_file": "%s/o%d.inst" % (tmp, i % 2 + 1),
                             "solver": solvers[i % 4],
                             "seed": i % 3 + 1, "iterations": 200}))
for i in range(2):
    lines.append(json.dumps({"id": "slow%d" % i,
                             "instance_file": "%s/o1.inst" % tmp,
                             "solver": "annealing", "seed": 7,
                             "iterations": 2000000000, "time_limit": 2.6}))
open("%s/requests.jsonl" % tmp, "w").write("\n".join(lines) + "\n")
EOF

  expect_rc 0 "$CLI" batch --in "$TMP/requests.jsonl" \
    --out "$TMP/responses.jsonl" --jobs 2 --cache-entries 32 \
    --metrics-out "$TMP/metrics.prom" --metrics-jsonl "$TMP/metrics.jsonl" \
    --metrics-interval 1 --access-log "$TMP/access.jsonl" --stats json
  cp "$TMP/out" "$TMP/stats.json"

  # The exposition file is a valid scrape with real content.
  python3 tools/lint/prom_check.py "$TMP/metrics.prom" --min-samples 20

  # Snapshot stream, access log, and stats envelope keep their contracts.
  python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]

requests = [l for l in open("%s/requests.jsonl" % tmp) if l.strip()]
responses = [json.loads(l) for l in open("%s/responses.jsonl" % tmp)]
assert len(responses) == len(requests), \
    "expected %d responses, got %d" % (len(requests), len(responses))

# >= 2 periodic snapshots, each a valid schema-versioned envelope with a
# strictly increasing seq (the final drain export makes one more).
snaps = [json.loads(l) for l in open("%s/metrics.jsonl" % tmp)]
assert len(snaps) >= 2, "expected >= 2 exporter snapshots, got %d" % len(snaps)
for k, snap in enumerate(snaps):
    assert snap["schema_version"] == 1, snap.get("schema_version")
    assert len(snap["emitted_at"]) == 24 and snap["emitted_at"].endswith("Z")
    assert snap["seq"] == k, "seq gap at snapshot %d" % k
    assert "counters" in snap and "histograms" in snap

# Access log: exactly one line per request, in response (== input) order,
# with the full field set on solved lines.
access = [json.loads(l) for l in open("%s/access.jsonl" % tmp)]
assert len(access) == len(requests), \
    "access log has %d lines for %d requests" % (len(access), len(requests))
assert [a["index"] for a in access] == list(range(len(requests)))
for a, r in zip(access, responses):
    assert a["index"] == r["index"] and a["status"] == r["status"]
    assert a["queue_us"] >= 0
    if a["status"] in ("ok", "budget_exhausted"):
        assert a["solver"] and len(a["fingerprint"]) == 32
        assert a["cache"] in ("hit", "miss") and a["solve_us"] >= 0
slow = [a for a in access if a["id"].startswith("slow")]
assert len(slow) == 2 and all(a["deadline_budget_ms"] == 2600.0 for a in slow)

# --stats json: schema-versioned envelope carrying SLO gauges, the quality
# histogram, and the HDR request-latency histogram with quantiles.
stats = json.loads(open("%s/stats.json" % tmp).read())
assert stats["schema_version"] == 1 and stats["wall_ms"] > 0
assert len(stats["emitted_at"]) == 24 and stats["emitted_at"].endswith("Z")
for gauge in ("slo.p50_ms", "slo.p95_ms", "slo.p99_ms",
              "slo.deadline_hit_rate", "slo.cache_hit_rate"):
    assert gauge in stats["gauges"], gauge
hist = stats["histograms"]
assert hist["srv.request_ms"]["count"] == len(
    [r for r in responses if r["status"] in ("ok", "budget_exhausted")])
assert hist["srv.request_ms"]["p99"] >= hist["srv.request_ms"]["p50"] > 0
assert hist["quality.gap_permille"]["count"] > 0
assert any(k.startswith("quality.") and k.endswith(".solves")
           for k in stats["counters"])
print("obs corpus OK: %d responses, %d snapshots, %d access lines"
      % (len(responses), len(snaps), len(access)))
EOF

  # Flag discipline: duplicates and bad values are usage errors (2) that
  # name the offending flag.
  expect_rc 2 "$CLI" batch --in "$TMP/requests.jsonl" \
    --metrics-out "$TMP/a.prom" --metrics-out "$TMP/b.prom"
  grep -q 'duplicate option --metrics-out' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/requests.jsonl" \
    --metrics-jsonl "$TMP/a.jsonl" --metrics-interval 1 --metrics-interval 2
  grep -q 'duplicate option --metrics-interval' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/requests.jsonl" \
    --metrics-out "$TMP/a.prom" --metrics-interval 0
  grep -q 'metrics-interval' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/requests.jsonl" --metrics-interval 1
  grep -q 'metrics-interval' "$TMP/err"
  expect_rc 2 "$CLI" batch --in "$TMP/requests.jsonl" --slo-window 0
  grep -q 'slo-window' "$TMP/err"

  # An unwritable metrics path is a runtime error (1), not silent loss.
  expect_rc 1 "$CLI" batch --in "$TMP/requests.jsonl" \
    --out /dev/null --metrics-out /nonexistent-dir/metrics.prom

  echo "[gate] obs: PASS (ASan+UBSan, build dir: $build_dir)"
}

# Spatial-index scale contract (docs/performance.md): on a 10^5-customer
# instance -- above the kAuto crossover, so `--spatial index` really runs
# the polar grid -- the flat and indexed solves must write byte-identical
# solution files and summary lines, the certified bounds must order as
# proven, and the shard solver must produce verifiable output.
# Runs sanitized so any index out-of-bounds in the grid's cell walk at
# scale is caught here, not in production. Deliberately no --time-limit:
# where a deadline stops a solve depends on wall-clock speed, which would
# make the byte comparison flaky.
run_huge() {
  local build_dir
  build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
  cmake -B "$build_dir" -S . -DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j"$JOBS"

  local CLI="$build_dir/tools/sectorpack"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  # Small ranges keep each antenna's window to a thin annulus of the
  # 10^5-point disk -- the regime the grid targets, and cheap enough that
  # the exact-oracle greedy stays fast under ASan.
  expect_rc 0 "$CLI" generate --n 100000 --k 4 --demand unit --range 6 \
    --capacity-fraction 0.001 --seed 77 -o "$TMP/huge.inst"

  # The load-bearing check: one solve per mode, byte-identical outputs.
  # The summary lines must match too: their flow-window bound reads the
  # in-range lists flat in one run and from the grid in the other.
  expect_rc 0 "$CLI" solve --in "$TMP/huge.inst" --solver greedy \
    --spatial flat -o "$TMP/flat.sol"
  cp "$TMP/err" "$TMP/flat.err"
  expect_rc 0 "$CLI" solve --in "$TMP/huge.inst" --solver greedy \
    --spatial index -o "$TMP/index.sol"
  if ! cmp -s "$TMP/flat.sol" "$TMP/index.sol"; then
    echo "FAIL: --spatial flat and --spatial index solutions differ" >&2
    diff "$TMP/flat.sol" "$TMP/index.sol" | head -20 >&2
    exit 1
  fi
  if ! cmp -s "$TMP/flat.err" "$TMP/err"; then
    echo "FAIL: --spatial flat and --spatial index summary lines differ" >&2
    diff "$TMP/flat.err" "$TMP/err" >&2
    exit 1
  fi
  expect_rc 0 "$CLI" verify --in "$TMP/huge.inst" --solution "$TMP/flat.sol"

  # Certified bounds at scale: trivial >= orientation-free >= flow-window
  # >= the greedy solve's served value. Each prints with 6 significant
  # digits, so every comparison allows 1e-5 relative slack.
  local served
  served="$(sed -n 's/.* served_value=\([^ ]*\) .*/\1/p' "$TMP/flat.err")"
  expect_rc 0 "$CLI" bound --in "$TMP/huge.inst"
  if ! awk -v served="$served" '
      { v[$1] = $2 }
      END {
        chain = v["trivial"] " >= " v["orientation-free"] " >= " \
                v["flow-window"] " >= " served
        if (v["trivial"] == "" || v["orientation-free"] == "" ||
            v["flow-window"] == "" || served == "") {
          print "missing value in " chain
          exit 1
        }
        slack = 1 + 1e-5
        if (v["orientation-free"] + 0 > (v["trivial"] + 0) * slack ||
            v["flow-window"] + 0 > (v["orientation-free"] + 0) * slack ||
            served + 0 > (v["flow-window"] + 0) * slack) {
          print "broken chain " chain
          exit 1
        }
        print chain
      }' "$TMP/out" > "$TMP/chain"; then
    echo "FAIL: huge bounds: $(cat "$TMP/chain")" >&2
    cat "$TMP/out" "$TMP/flat.err" >&2
    exit 1
  fi
  echo "huge bounds: $(cat "$TMP/chain")"

  # A mixed fleet at the same scale: `generate` makes identical antennas,
  # for which the round loop only ever evaluates the lowest unused one, so
  # the per-antenna verdict reuse needs distinct specs to run at all. Six
  # thin annular antennas, two pairs overlapping and two alone, over 10^5
  # value-weighted customers; local search must agree byte for byte
  # across spatial modes and verify.
  python3 - "$TMP/mixed.inst" <<'PYEOF'
import math
import random
import sys

rng = random.Random(20261018)
n = 100000
lines = ["sectorpack-instance v2", "customers %d" % n]
for _ in range(n):
    r = 60.0 * math.sqrt(rng.random())
    t = rng.uniform(0.0, 2.0 * math.pi)
    lines.append("%.17g %.17g %d %d" % (r * math.cos(t), r * math.sin(t),
                                        rng.randint(1, 10), rng.randint(1, 9)))
# rho range capacity min_range: [10,13] and [12,15] overlap, as do
# [30,33] and [31,34]; [20,23] and [45,48] stand alone.
fleet = [(0.7, 13, 60, 10), (0.9, 15, 80, 12), (0.8, 23, 70, 20),
         (0.6, 33, 90, 30), (1.0, 34, 50, 31), (0.75, 48, 110, 45)]
lines.append("antennas %d" % len(fleet))
lines += ["%.17g %g %g %g" % a for a in fleet]
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
PYEOF
  expect_rc 0 "$CLI" solve --in "$TMP/mixed.inst" --solver local-search \
    --spatial flat -o "$TMP/mixed_flat.sol"
  expect_rc 0 "$CLI" solve --in "$TMP/mixed.inst" --solver local-search \
    --spatial index -o "$TMP/mixed_index.sol"
  if ! cmp -s "$TMP/mixed_flat.sol" "$TMP/mixed_index.sol"; then
    echo "FAIL: mixed fleet: --spatial flat and --spatial index differ" >&2
    diff "$TMP/mixed_flat.sol" "$TMP/mixed_index.sol" | head -20 >&2
    exit 1
  fi
  expect_rc 0 "$CLI" verify --in "$TMP/mixed.inst" \
    --solution "$TMP/mixed_flat.sol"

  # Annealing's 2000 iterations each ask compute_eligibility for one
  # orientation vector: `flat` answers every one from the radial bands,
  # `index` every one from the polar grid, and `auto` switches from the
  # bands to the grid at the 33rd. All three must write the same solution
  # file and summary line.
  local mode
  for mode in flat index auto; do
    expect_rc 0 "$CLI" solve --in "$TMP/mixed.inst" --solver annealing \
      --spatial "$mode" -o "$TMP/anneal_$mode.sol"
    cp "$TMP/err" "$TMP/anneal_$mode.err"
  done
  for mode in index auto; do
    if ! cmp -s "$TMP/anneal_flat.sol" "$TMP/anneal_$mode.sol" ||
       ! cmp -s "$TMP/anneal_flat.err" "$TMP/anneal_$mode.err"; then
      echo "FAIL: mixed fleet annealing: --spatial flat and" \
           "--spatial $mode differ" >&2
      diff "$TMP/anneal_flat.sol" "$TMP/anneal_$mode.sol" | head -20 >&2
      diff "$TMP/anneal_flat.err" "$TMP/anneal_$mode.err" >&2
      exit 1
    fi
  done
  expect_rc 0 "$CLI" verify --in "$TMP/mixed.inst" \
    --solution "$TMP/anneal_flat.sol"

  # Shard solve: feasible, verifiable output at scale (the merge/repair
  # path is seam-dependent, so no byte comparison against plain greedy).
  # Shard fans its sub-solves out with parallel_for; with no time limit it
  # is deterministic, so a second solve must reproduce the first byte for
  # byte.
  expect_rc 0 "$CLI" solve --in "$TMP/huge.inst" --solver shard \
    -o "$TMP/shard.sol"
  expect_rc 0 "$CLI" verify --in "$TMP/huge.inst" --solution "$TMP/shard.sol"
  expect_rc 0 "$CLI" solve --in "$TMP/huge.inst" --solver shard \
    -o "$TMP/shard2.sol"
  if ! cmp -s "$TMP/shard.sol" "$TMP/shard2.sol"; then
    echo "FAIL: two shard solves of the huge instance differ" >&2
    diff "$TMP/shard.sol" "$TMP/shard2.sol" | head -20 >&2
    exit 1
  fi

  echo "[gate] huge: PASS (ASan+UBSan, build dir: $build_dir)"
}

# SIGINT drain contract (docs/serving.md) against the build at $1 for the
# front end $2 (batch or serve): three input lines behind a solve that
# would run out a 5 s budget, SIGINT after 1 s -- by then batch has read
# its last line. The run must exit 0 within 5 s with interrupted=yes, the
# solve in flight answered budget_exhausted and the two later lines
# rejected with the drain's reason.
run_drain_gate() {
  local CLI="$1/tools/sectorpack"
  local front="$2"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  "$CLI" generate --n 40 --k 3 --seed 11 -o "$TMP/slow.inst" 2>/dev/null
  python3 - "$TMP" "$CLI" "$front" <<'EOF'
import json, signal, subprocess, sys, time
tmp, cli, front = sys.argv[1:4]
slow = {"instance_file": "%s/slow.inst" % tmp, "solver": "annealing",
        "iterations": 2000000000, "time_limit": 5}
if front == "batch":
    lines = [slow] * 3
    cmd = [cli, "batch", "--jobs", "1"]
else:
    lines = [dict(slow, op="register"),
             {"op": "demand_set", "session": "s0", "customer": 0,
              "demand": 2},
             {"op": "close", "session": "s0"}]
    cmd = [cli, "serve"]
with open("%s/in.jsonl" % tmp, "w") as f:
    f.write("".join(json.dumps(line) + "\n" for line in lines))
cmd += ["--in", "%s/in.jsonl" % tmp, "--out", "%s/out.jsonl" % tmp]

start = time.monotonic()
proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True)
time.sleep(1.0)
proc.send_signal(signal.SIGINT)
try:
    _, err = proc.communicate(timeout=4.0)
except subprocess.TimeoutExpired:
    proc.kill()
    proc.communicate()
    sys.exit("FAIL: %s still running 5 s after start despite SIGINT at 1 s"
             % front)
elapsed = time.monotonic() - start
assert proc.returncode == 0, (proc.returncode, err)
assert "interrupted=yes" in err, err
responses = [json.loads(l) for l in open("%s/out.jsonl" % tmp)]
statuses = [r["status"] for r in responses]
assert statuses == ["budget_exhausted", "rejected", "rejected"], statuses
reason = "%s draining (interrupted)" % front
assert all(r["error"] == reason for r in responses[1:]), responses[1:]
print("%s SIGINT drain OK: exit 0 after %.1f s, %s"
      % (front, elapsed, ", ".join(statuses)))
EOF
}

run_batch() {
  local build_dir
  # ASan + UBSan pass.
  build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
  cmake -B "$build_dir" -S . -DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j"$JOBS"
  run_batch_corpus "$build_dir" 8
  run_drain_gate "$build_dir" batch
  # TSan pass at --jobs 8: races in the queue / cache / reorder buffer.
  cmake -B build-tsan -S . -DSECTORPACK_TSAN=ON -DSECTORPACK_SANITIZE=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-tsan -j"$JOBS"
  run_batch_corpus build-tsan 8
  echo "[gate] batch: PASS (ASan+UBSan and TSan, --jobs 8; SIGINT drain)"
}

# The 50-delta session-serving byte-identity battery against the build at
# $1: one register plus 50 mixed deltas, every response checked bitwise
# against a from-scratch greedy solve of the same post-delta instance.
# Shared by run_serve (ASan+UBSan) and the TSan battery, which reuses it
# for dynamic race coverage of the daemon's monitor/drain paths.
run_serve_corpus() {
  local CLI="$1/tools/sectorpack"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  expect_rc 0 "$CLI" generate --n 2000 --k 3 --demand uniform-int \
    --range 25 --capacity-fraction 0.02 --seed 99 -o "$TMP/serve.inst"

  # Build the op stream (register + 50 mixed deltas) AND the per-step
  # expected instance files. Each delta's numeric tokens are written to
  # the JSON op and to the instance text from the SAME decimal literal, so
  # the serve daemon and the from-scratch `solve` parse identical doubles
  # -- the byte comparison below is then exact, not approximate.
  python3 - "$TMP" <<'EOF'
import random, sys
tmp = sys.argv[1]
lines = open("%s/serve.inst" % tmp).read().splitlines()
assert lines[0] == "sectorpack-instance v1", lines[0]
n = int(lines[1].split()[1])
customers = lines[2:2 + n]
k = int(lines[2 + n].split()[1])
antennas = lines[3 + n:3 + n + k]

def write_step(step):
    body = ["sectorpack-instance v1", "customers %d" % len(customers)]
    body += customers
    body += ["antennas %d" % len(antennas)]
    body += antennas
    open("%s/step_%d.inst" % (tmp, step), "w").write("\n".join(body) + "\n")

ops = ['{"op":"register","id":"r","instance_file":"%s/serve.inst",'
       '"solver":"greedy"}' % tmp]
write_step(0)

rng = random.Random(7)
for step in range(1, 51):
    roll = rng.random()
    if roll < 0.40:
        x = repr(round(rng.uniform(-90.0, 90.0), 6))
        y = repr(round(rng.uniform(-90.0, 90.0), 6))
        d = str(rng.randint(1, 9))
        ops.append('{"op":"customer_add","session":"s0","x":%s,"y":%s,'
                   '"demand":%s}' % (x, y, d))
        customers.append("%s %s %s" % (x, y, d))
    elif roll < 0.65:
        i = rng.randrange(len(customers))
        ops.append('{"op":"customer_remove","session":"s0","customer":%d}'
                   % i)
        del customers[i]
    elif roll < 0.90:
        i = rng.randrange(len(customers))
        d = str(rng.randint(1, 9))
        ops.append('{"op":"demand_set","session":"s0","customer":%d,'
                   '"demand":%s}' % (i, d))
        t = customers[i].split()
        t[2] = d
        customers[i] = " ".join(t)
    else:
        rho = repr(round(rng.uniform(0.6, 1.2), 6))
        rg = repr(round(rng.uniform(15.0, 30.0), 6))
        cap = str(rng.randint(30, 60))
        ops.append('{"op":"antenna_add","session":"s0","rho":%s,'
                   '"range":%s,"capacity":%s}' % (rho, rg, cap))
        antennas.append("%s %s %s" % (rho, rg, cap))
    write_step(step)
ops.append('{"op":"close","session":"s0"}')
open("%s/ops.jsonl" % tmp, "w").write("\n".join(ops) + "\n")
EOF

  expect_rc 0 "$CLI" serve --in "$TMP/ops.jsonl" \
    --out "$TMP/responses.jsonl"

  # From-scratch reference solve for every step (register == step 0).
  local i
  for i in $(seq 0 50); do
    expect_rc 0 "$CLI" solve --in "$TMP/step_$i.inst" --solver greedy \
      -o "$TMP/step_$i.sol"
  done

  # The load-bearing check: every serve response's solution is bitwise the
  # from-scratch greedy solution of the post-delta instance.
  python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
responses = [json.loads(l) for l in open("%s/responses.jsonl" % tmp)]
assert len(responses) == 52, "expected 52 responses, got %d" % len(responses)
assert responses[-1]["op"] == "close" and responses[-1]["status"] == "ok"
for step, r in enumerate(responses[:51]):
    assert r["status"] == "ok", (step, r["status"])
    assert r["session"] == "s0", (step, r)
    assert r["incremental"] is True, (step, r["op"])
    expected = open("%s/step_%d.sol" % (tmp, step)).read()
    if r["solution"] != expected:
        sys.exit("FAIL: step %d (%s): incremental solution differs from "
                 "from-scratch solve" % (step, r["op"]))
deltas = responses[1:51]
hits = sum(r["memo_hits"] for r in deltas)
assert hits > 0, "50 deltas produced zero dirty-window memo hits"
EOF
}

run_serve() {
  local build_dir
  build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
  cmake -B "$build_dir" -S . -DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j"$JOBS"
  run_serve_corpus "$build_dir"
  run_drain_gate "$build_dir" serve
  echo "[gate] serve: PASS (ASan+UBSan, 50-delta byte-identity; SIGINT" \
       "drain)"
}

# Portfolio-racing contract (docs/performance.md) against the build at $1:
#   1. contested run: a race over the default portfolio must verify, carry
#      a race.winner.<family> counter in --stats json, and be byte-
#      identical across repeats (the determinism contract).
#   2. dominant-family duel: local-search proves optimality on a
#      saturating arcband instance while annealing holds a huge iteration
#      budget; the proof must cancel the running lane (race.cancelled >= 1)
#      and the result must still be status complete at the upper bound.
#   3. nested fan-out: a race with a shard lane on an instance greedy
#      cannot prove optimal, so Phase B runs (race.exchange_adoptions >= 1)
#      and the shard lane's parallel_for runs inside a Phase-B lane
#      (shard.count >= 2); the solution must verify.
run_race_corpus() {
  local CLI="$1/tools/sectorpack"
  local TMP
  TMP="$(mktemp -d)"
  # Self-clearing: a RETURN trap outlives the function that set it and
  # would re-fire (with $TMP unbound) at the next function return.
  trap 'rm -rf "$TMP"; trap - RETURN' RETURN

  expect_rc() {
    local want="$1"
    shift
    local got=0
    "$@" >"$TMP/out" 2>"$TMP/err" || got=$?
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: expected exit $want, got $got: $*" >&2
      cat "$TMP/err" >&2
      exit 1
    fi
  }

  # 1. Contested race: verified output, winner metric, byte determinism.
  expect_rc 0 "$CLI" generate --n 800 --k 4 --seed 31 --spatial hotspots \
    -o "$TMP/contested.inst"
  expect_rc 0 "$CLI" solve --in "$TMP/contested.inst" --solver race \
    --portfolio greedy,local_search,annealing --iterations 300 \
    -o "$TMP/race1.sol" --stats json
  cp "$TMP/out" "$TMP/stats1.json"
  expect_rc 0 "$CLI" verify --in "$TMP/contested.inst" \
    --solution "$TMP/race1.sol"
  expect_rc 0 "$CLI" solve --in "$TMP/contested.inst" --solver race \
    --portfolio greedy,local_search,annealing --iterations 300 \
    -o "$TMP/race2.sol"
  if ! cmp -s "$TMP/race1.sol" "$TMP/race2.sol"; then
    echo "FAIL: race is not byte-deterministic across repeats" >&2
    exit 1
  fi
  python3 - "$TMP/stats1.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
winners = {k: v for k, v in counters.items() if k.startswith("race.winner.")}
assert winners and sum(winners.values()) == 1, winners
assert counters.get("race.incumbent_publishes", 0) >= 1, counters
EOF

  # 2. Dominant duel: the optimality proof must cancel the running lane.
  # Unit-demand arcband with capacity == demand: local-search provably
  # serves everyone; annealing's budget alone would run for minutes.
  expect_rc 0 "$CLI" generate --n 6000 --k 2 --spatial arcband \
    --demand unit --rho-deg 120 --capacity-fraction 1.0 --seed 5 \
    -o "$TMP/duel.inst"
  expect_rc 0 "$CLI" solve --in "$TMP/duel.inst" --solver race \
    --portfolio local_search,annealing --iterations 500000000 \
    -o "$TMP/duel.sol" --stats json
  cp "$TMP/out" "$TMP/stats2.json"
  grep -q 'status=complete' "$TMP/err"
  ! grep -q 'status budget_exhausted' "$TMP/duel.sol"
  expect_rc 0 "$CLI" verify --in "$TMP/duel.inst" --solution "$TMP/duel.sol"
  python3 - "$TMP/stats2.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("race.winner.local-search", 0) == 1, counters
assert counters.get("race.cancelled", 0) >= 1, \
    "winner's proof did not cancel the running lane: %r" % counters
EOF

  # 3. Nested fan-out: spare capacity and narrow beams keep greedy below
  # the bound, so Phase B starts a thread per lane and the shard lane
  # fans its sub-solves out again from inside one of them.
  expect_rc 0 "$CLI" generate --n 2000 --k 4 --seed 9 --rho-deg 25 \
    --capacity-fraction 1.5 -o "$TMP/nested.inst"
  expect_rc 0 "$CLI" solve --in "$TMP/nested.inst" --solver race \
    --portfolio greedy,shard,local_search,annealing --iterations 50 \
    -o "$TMP/nested.sol" --stats json
  cp "$TMP/out" "$TMP/stats3.json"
  expect_rc 0 "$CLI" verify --in "$TMP/nested.inst" \
    --solution "$TMP/nested.sol"
  python3 - "$TMP/stats3.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("race.exchange_adoptions", 0) >= 1, \
    "Phase B did not run: %r" % counters
assert counters.get("shard.count", 0) >= 2, \
    "the shard lane did not fan out: %r" % counters
EOF
  echo "race corpus OK: contested determinism + dominant cancel-on-winner" \
       "+ nested fan-out"
}

run_race() {
  local build_dir
  build_dir="${BUILD_DIR_OVERRIDE:-build-sanitize}"
  cmake -B "$build_dir" -S . -DSECTORPACK_SANITIZE=ON -DSECTORPACK_TSAN=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j"$JOBS"
  run_race_corpus "$build_dir"
  echo "[gate] race: PASS (ASan+UBSan, determinism + cancel-on-winner)"
}

BUILD_DIR_OVERRIDE="${1:-}"

# TSan battery: the sanitized test suite plus the serving corpora -- the
# daemon's monitor/drain paths and the batch engine's queue/cache/reorder
# machinery get dynamic race coverage matching the static -Wthread-safety
# coverage. The batch corpus is shortened (80 requests) to keep the TSan
# wall-clock bounded; the serve battery runs in full because its races
# live in the delta/monitor interleaving, not the request volume.
run_tsan() {
  run_sanitize 0
  local build_dir="${BUILD_DIR_OVERRIDE:-build-tsan}"
  run_serve_corpus "$build_dir"
  run_batch_corpus "$build_dir" 8 80
  # Racing under TSan: the incumbent cell, the deadline cancel tree, and
  # the winner declaration are exactly the cross-thread machinery TSan is
  # for (the ctest pass above runs test_race too; this adds the CLI path).
  run_race_corpus "$build_dir"
  echo "[gate] tsan-serving: PASS (TSan, 50-delta serve + 80-request" \
       "batch + race corpus)"
}

case "$MODE" in
  lint) run_lint ;;
  format) run_format ;;
  contracts) run_contracts ;;
  fuzz) run_sanitize 1 ;;
  sanitize)
    if [[ "$TSAN" == "1" ]]; then run_tsan; else run_sanitize 0; fi
    ;;
  batch) run_batch ;;
  serve) run_serve ;;
  huge) run_huge ;;
  race) run_race ;;
  obs) run_obs ;;
  all)
    run_lint
    run_format
    run_contracts
    run_sanitize 0
    run_batch
    run_serve
    run_huge
    run_race
    run_obs
    echo
    echo "All gates passed (lint, format, contracts, sanitize, batch," \
         "serve, huge, race, obs)."
    ;;
esac
