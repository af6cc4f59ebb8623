#!/usr/bin/env bash
# Hermetic CI for the workspace: no network, no registry — the committed
# Cargo.lock must resolve to path-local crates only (--locked --offline
# fail loudly if it can't).
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== hasher guard (id-keyed maps use dex_core::hash, not SipHash) =="
# Every map keyed by ids (symbols, nulls, rows, atom indices) uses the
# word hasher of `dex_core::hash` (IdMap/IdSet); a std HashMap/HashSet
# with the default hasher pays SipHash on every probe. Allowed:
#   crates/core/src/hash.rs                   defines IdMap/IdSet over std's maps
#   crates/core/src/symbol.rs                 the interner: string keys from outside
#   crates/chase/src/provenance/reference.rs  test-only oracle, on no hot path
HASH_ALLOWED='^(crates/core/src/hash\.rs|crates/core/src/symbol\.rs|crates/chase/src/provenance/reference\.rs):'
HASH_HITS=$(grep -rnE --include='*.rs' '\b(HashMap|HashSet|RandomState)\b' crates/*/src src \
  | grep -vE "$HASH_ALLOWED" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$HASH_HITS" ]; then
  echo "default-hasher maps outside the allow-list (use dex_core::{IdMap, IdSet}):"
  echo "$HASH_HITS"
  exit 1
fi

echo "== join guard (searches that filter rows by a pattern go through dex_core::join) =="
# `Instance::rows_matching` is an index probe plus a per-row pattern
# filter. A backtracking search built on it would be one more join next
# to the kernel in `dex_core::join`, which every conjunctive match,
# homomorphism and maybe-answer search shares. Allowed:
#   crates/core/src/instance.rs              defines it (and tests it)
#   crates/core/src/core_of.rs               the rigid pass: one probe per atom, no backtracking
#   crates/logic/src/matcher/reference.rs    test-only reference join the kernel is checked against
JOIN_ALLOWED='^(crates/core/src/instance\.rs|crates/core/src/core_of\.rs|crates/logic/src/matcher/reference\.rs):'
JOIN_HITS=$(grep -rnE --include='*.rs' '\brows_matching\b' crates src tests examples perfbench/src \
  | grep -vE "$JOIN_ALLOWED" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$JOIN_HITS" ]; then
  echo "rows_matching outside the allow-list (search through dex_core::join::search):"
  echo "$JOIN_HITS"
  exit 1
fi

echo "== knob guard (every DEX_* variable the code reads is in README, and only those) =="
# The environment variables read through env::var in the crates and the
# CLI are the program's knobs: each one is documented in README, and
# README names none the code no longer reads.
CODE_KNOBS=$(grep -rhoE --include='*.rs' 'env::var(_os)?\("DEX_[A-Z0-9_]+"' crates/*/src src \
  | grep -oE 'DEX_[A-Z0-9_]+' | sort -u)
README_KNOBS=$(grep -oE 'DEX_[A-Z0-9_]+' README.md | sort -u)
if [ "$CODE_KNOBS" != "$README_KNOBS" ]; then
  echo "knobs read by the code (<) and named in README (>) differ:"
  diff <(echo "$CODE_KNOBS") <(echo "$README_KNOBS") || true
  exit 1
fi

echo "== build (release, locked, offline) =="
cargo build --release --locked --offline --workspace
# The end-to-end benchmark is a workspace of its own that builds against
# the crates by path: building it here makes a public-API change that
# breaks it fail CI instead of the next benchmark run.
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml

echo "== doc (locked, offline, warnings denied) =="
# Broken or private intra-doc links fail here, so a doc comment cannot
# keep pointing at an item that was renamed or removed.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked

echo "== perfbench smoke (all four workloads: every output check passes) =="
# One short run of each workload: the benchmark checks every request's
# output (core isomorphism against the naive chase on exchange/keyed,
# brute-force repairs on repair), so every CI pass runs those checks on
# the chase loop each workload writes through.
for workload in exchange keyed update repair; do
  PB_OUT=$(cargo run --release --locked --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0)
  PB_LAST=$(tail -n 1 <<< "$PB_OUT")
  grep -q '"correct":true' <<< "$PB_LAST" \
    || { echo "perfbench smoke: $workload run is not correct: $PB_LAST"; exit 1; }
  grep -q '"failed":0[,}]' <<< "$PB_LAST" \
    || { echo "perfbench smoke: $workload run has failed requests: $PB_LAST"; exit 1; }
done

echo "== test (locked, offline) =="
cargo test -q --locked --offline --workspace

echo "== fault-injection smoke (fixed seeds; replay any failure with DEX_FAULT_SEED) =="
# The governed suite already sweeps 64 seeds under `cargo test` above;
# here two fixed seeds re-run it through the DEX_FAULT_SEED replay path
# so the single-seed reproduction machinery itself stays exercised.
for seed in 7 41; do
  DEX_FAULT_SEED=$seed cargo test -q --locked --offline -p dex-bench --test governed
  DEX_FAULT_SEED=$seed cargo test -q --locked --offline -p dex-bench --test repair
done

echo "== storage differential smoke (fixed seeds; replay any failure with DEX_PROP_SEED) =="
# The instance storage differential (random insert/remove/merge/copy
# sequences, and clones whose two sides are then written apart, against
# a plain log-and-set model per side) already sweeps 64 seeds
# under `cargo test` above; here two fixed seeds re-run it through the
# DEX_PROP_SEED replay path, as the fault-injection smoke does.
for seed in 7 41; do
  DEX_PROP_SEED=$seed cargo test -q --locked --offline -p dex-core --lib instance::tests::storage_matches_a_plain_model
done

echo "== UCQ evaluator differential smoke (fixed seeds; replay any failure with DEX_PROP_SEED) =="
# The one-pass CQ/UCQ evaluator against the per-disjunct answer sets it
# replaced (random instances with nulls, random UCQs) sweeps 64 seeds
# under `cargo test` above; two fixed seeds re-run it through the replay
# path.
for seed in 7 41; do
  DEX_PROP_SEED=$seed cargo test -q --locked --offline -p dex-query --lib eval::tests::one_pass_evaluator_matches_the_per_disjunct_sets
done

echo "== hostile delta smoke (atoms outside the source schema: exit 1, never a panic) =="
# A source relation at another arity, a target relation and an unknown
# relation in a delta are each refused with exit code 1 and a message
# naming the relation; a panic exits 101 and fails the stage.
for case in 'M(q)|M' 'E(q,r)|E' 'Z(q)|Z'; do
  atom=${case%|*}
  rel=${case#*|}
  set +e
  HOSTILE_ERR=$(target/release/dex update examples/dsl/example_2_1.setting 'M(a,b). N(a,b).' "+ $atom." 2>&1 >/dev/null)
  code=$?
  set -e
  [ "$code" -eq 1 ] \
    || { echo "hostile delta smoke: + $atom. exited $code: $HOSTILE_ERR"; exit 1; }
  grep -q "\b$rel\b" <<< "$HOSTILE_ERR" \
    || { echo "hostile delta smoke: + $atom. named no relation $rel: $HOSTILE_ERR"; exit 1; }
done
# The subcommands whose searches would swallow the chase's refusal
# (enumerate, repair, answer --repair) check a source outside the
# schema first and fail the same way.
for cmd in enumerate repair 'answer --repair'; do
  set +e
  case $cmd in
    answer*) HOSTILE_ERR=$(target/release/dex answer examples/dsl/example_2_1.setting 'M(q).' 'Q(x,y) :- E(x,y)' --repair 2>&1 >/dev/null) ;;
    *) HOSTILE_ERR=$(target/release/dex $cmd examples/dsl/example_2_1.setting 'M(q).' 2>&1 >/dev/null) ;;
  esac
  code=$?
  set -e
  [ "$code" -eq 1 ] \
    || { echo "hostile source smoke: $cmd on M(q). exited $code: $HOSTILE_ERR"; exit 1; }
  grep -q "\bM\b" <<< "$HOSTILE_ERR" \
    || { echo "hostile source smoke: $cmd on M(q). named no relation M: $HOSTILE_ERR"; exit 1; }
done

echo "== trace smoke (JSONL trace reconciles with ChaseStats exactly) =="
# The test itself parses every trace line and asserts the event counts
# match the run's counters one-to-one; DEX_TRACE pins the output so a
# failing run leaves the stream behind for inspection.
mkdir -p target
# Absolute path: cargo runs the test binary from the package dir, not the
# workspace root.
DEX_TRACE="$PWD/target/trace-smoke.jsonl" cargo test -q --locked --offline -p dex-bench --test trace_smoke
test -s target/trace-smoke.jsonl || { echo "trace smoke left no target/trace-smoke.jsonl"; exit 1; }

echo "== trace analyze smoke (dex trace profiles a real DEX_TRACE run) =="
# A traced chase through the real CLI, then the analyzer over its output:
# the profile must carry the phase table and reconcile the chase counters
# (one chase_started/chase_completed pair on a clean run).
TRACE_SETTING='source { M/2, N/2 } target { E/2, F/2, G/2 } st { d1: M(x1,x2) -> E(x1,x2); d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2); } t { d3: F(y,x) -> exists z . G(x,z); d4: F(x,y) & F(x,z) -> y = z; }'
DEX=target/release/dex
DEX_TRACE="$PWD/target/trace-analyze.jsonl" "$DEX" chase "$TRACE_SETTING" 'M(a,b). N(a,b). N(a,c).' >/dev/null
test -s target/trace-analyze.jsonl || { echo "trace analyze smoke left no target/trace-analyze.jsonl"; exit 1; }
TRACE_OUT=$("$DEX" trace target/trace-analyze.jsonl --tree)
grep -q "phases (by total time):" <<< "$TRACE_OUT" \
  || { echo "trace analyze smoke: no phase table in dex trace output"; exit 1; }
grep -q "span tree:" <<< "$TRACE_OUT" \
  || { echo "trace analyze smoke: --tree emitted no waterfall"; exit 1; }
TRACE_JSON=$("$DEX" trace target/trace-analyze.jsonl --json)
grep -q '"chase_started":1' <<< "$TRACE_JSON" \
  || { echo "trace analyze smoke: profile does not reconcile chase_started"; exit 1; }
grep -q '"chase_completed":1' <<< "$TRACE_JSON" \
  || { echo "trace analyze smoke: profile does not reconcile chase_completed"; exit 1; }
grep -q '"truncated":false' <<< "$TRACE_JSON" \
  || { echo "trace analyze smoke: clean trace flagged as truncated"; exit 1; }
TRACE_METRICS=$("$DEX" trace target/trace-analyze.jsonl --metrics)
grep -q "# TYPE" <<< "$TRACE_METRICS" \
  || { echo "trace analyze smoke: --metrics emitted no exposition text"; exit 1; }
# The core's rigid pass settles the `{F(a,_1), G(_1,_2)}` component of
# Example 2.1's chase result without a retract search: `F(a,_)` and then
# `G(_1,_)` are the only rows of their skeletons, so the profile must
# count it.
rm -f target/trace-core.jsonl
DEX_TRACE="$PWD/target/trace-core.jsonl" "$DEX" core examples/dsl/example_2_1.setting examples/dsl/example_2_1.source >/dev/null
"$DEX" trace target/trace-core.jsonl --json | grep -q '"components_rigid":[1-9]' \
  || { echo "trace analyze smoke: dex core on Example 2.1 settled no component by the rigid pass"; exit 1; }
# CanSol is built only when a query needs it: on an egd-only setting a
# UCQ answers from the core (no `cansol` span), a query with an
# inequality on a non-head variable builds CanSol exactly once.
CANSOL_SETTING='source { P/1, Q/2 } target { F/2 } st { d1: P(x) -> exists z . F(x,z); d2: Q(x,y) -> F(x,y); } t { key: F(x,y) & F(x,z) -> y = z; }'
rm -f target/trace-cansol-ucq.jsonl target/trace-cansol-fo.jsonl
DEX_TRACE="$PWD/target/trace-cansol-ucq.jsonl" "$DEX" answer "$CANSOL_SETTING" 'P(a). P(b). Q(a,c).' 'Q(x,y) :- F(x,y)' >/dev/null
DEX_TRACE="$PWD/target/trace-cansol-fo.jsonl" "$DEX" answer "$CANSOL_SETTING" 'P(a). P(b). Q(a,c).' "Q(x) :- F(x,y), y != 'zzz'" >/dev/null 2>&1
if "$DEX" trace target/trace-cansol-ucq.jsonl --json | grep -q '"span":"cansol"'; then
  echo "trace analyze smoke: a UCQ built CanSol"; exit 1
fi
"$DEX" trace target/trace-cansol-fo.jsonl --json | grep -q '"span":"cansol","count":1,' \
  || { echo "trace analyze smoke: the non-UCQ query did not build CanSol exactly once"; exit 1; }
# Outside CanSol's classes a non-UCQ `certain` query falls back to
# enumerating the CWA-solutions, under the answering governor: its
# replay waves must show up in the same trace.
rm -f target/trace-enum-fallback.jsonl
DEX_TRACE="$PWD/target/trace-enum-fallback.jsonl" "$DEX" answer "$TRACE_SETTING" 'N(a,b). N(a,c).' 'Q(x) :- E(x,y), F(x,z), y != z' >/dev/null
"$DEX" trace target/trace-enum-fallback.jsonl --json | grep -q '"span":"wave"' \
  || { echo "trace analyze smoke: the enumeration fallback traced no wave"; exit 1; }

echo "== parallel smoke (DEX_THREADS=2 and 8; determinism mismatch fails) =="
# The differential suite asserts parallel ≡ sequential per seed; running
# it under DEX_THREADS=2 and 8 also routes the Pool::from_env() path
# through real worker pools (the suite forces the inline threshold to
# zero, so workers are exercised even on paper-sized inputs). The par
# scaling bench re-checks byte-identical output at 1/2/4/8 threads on
# every measured configuration (its ≥2× speedup gate only arms on
# machines reporting ≥4 CPUs, outside smoke).
DEX_THREADS=2 cargo test -q --locked --offline -p dex-bench --test par
DEX_THREADS=8 cargo test -q --locked --offline -p dex-bench --test par
# The core differential (worklist core vs the naive reference) also runs
# each core on Pool::from_env(), so each retract pass's Pool::map runs on
# DEX_THREADS real workers.
DEX_THREADS=2 cargo test -q --locked --offline -p dex-bench --test core_retraction
DEX_THREADS=8 cargo test -q --locked --offline -p dex-bench --test core_retraction
# Smoke bench dumps go to target/bench-smoke — never the workspace root,
# where the committed full-run baselines live.
DEX_BENCH_SMOKE=1 DEX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --locked --offline -p dex-bench --bench par
test -f target/bench-smoke/BENCH_par.json || { echo "par bench did not write target/bench-smoke/BENCH_par.json"; exit 1; }
grep -q '"cpus"' BENCH_par.json || { echo "committed BENCH_par.json does not record the CPU count"; exit 1; }
# The ≥2× speedup gate silently never arming (e.g. a baseline recorded on
# a 1-CPU machine) must be loud: the dump records whether it fired, and a
# committed unarmed baseline is flagged on every CI run.
grep -q '"gate_armed"' BENCH_par.json || { echo "committed BENCH_par.json does not record gate_armed"; exit 1; }
if grep -q '"gate_armed": false' BENCH_par.json; then
  echo "GATE UNARMED: committed BENCH_par.json was recorded without the >=2x speedup gate (cpus < 4 or smoke run)"
fi

echo "== query bench smoke (propagation vs oracle agreement asserted) =="
# The queries bench asserts propagation == oracle on the paper's worked
# example and on the small keyed configuration as part of every run —
# a disagreement panics and fails CI here.
DEX_BENCH_SMOKE=1 DEX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --locked --offline -p dex-bench --bench queries
test -f target/bench-smoke/BENCH_query.json || { echo "queries bench did not write target/bench-smoke/BENCH_query.json"; exit 1; }
grep -q '"example_2_1_agreement": true' target/bench-smoke/BENCH_query.json \
  || { echo "query bench smoke did not record propagation-vs-oracle agreement"; exit 1; }
grep -q '"propagation"' BENCH_query.json || { echo "committed BENCH_query.json does not record propagation reports"; exit 1; }

echo "== repair smoke (inconsistent source degrades gracefully end-to-end) =="
# A key-conflicted source must make `dex chase` fail with a diagnosis,
# while `dex repair` and `dex answer --repair` still return validated
# results — the graceful-degradation path exercised through the real CLI.
REPAIR_SETTING='source { P/2, R/2 } target { F/2, G/2 } st { dP: P(x,y) -> F(x,y); dR: R(x,y) -> G(x,y); } t { key: F(x,y) & F(x,z) -> y = z; }'
REPAIR_SOURCE='P(a,b). P(a,c). R(u,v).'
DEX=target/release/dex
if "$DEX" chase "$REPAIR_SETTING" "$REPAIR_SOURCE" >/dev/null 2>&1; then
  echo "repair smoke: chase unexpectedly succeeded on a conflicted source"; exit 1
fi
# Outputs are captured, not piped into grep: `grep -q` closing the pipe
# early ends the binary before it has printed everything (it exits
# quietly on EPIPE), and the chase is *supposed* to exit nonzero, which
# pipefail would trip on.
CHASE_OUT=$("$DEX" chase "$REPAIR_SETTING" "$REPAIR_SOURCE" 2>&1 || true)
grep -q "source conflict set" <<< "$CHASE_OUT" \
  || { echo "repair smoke: chase failure lacks the conflict witness"; exit 1; }
# Traced: every chase of the repair search runs under the caller's
# governor, so its events reach the trace.
REPAIR_TRACE="$PWD/target/repair-smoke-trace.jsonl"
rm -f "$REPAIR_TRACE"
REPAIR_OUT=$(DEX_TRACE="$REPAIR_TRACE" "$DEX" repair "$REPAIR_SETTING" "$REPAIR_SOURCE")
grep -q "2 maximal repair(s)" <<< "$REPAIR_OUT" \
  || { echo "repair smoke: dex repair did not find both repairs"; exit 1; }
grep -q "conflicts reused" <<< "$REPAIR_OUT" \
  || { echo "repair smoke: dex repair summary lacks the conflicts-reused count"; exit 1; }
grep -q '"event":"chase_started"' "$REPAIR_TRACE" \
  || { echo "repair smoke: the dex repair trace holds no chase_started event"; exit 1; }
ANSWER_OUT=$("$DEX" answer "$REPAIR_SETTING" "$REPAIR_SOURCE" 'Q(x,y) :- G(x,y)' --repair)
grep -q "(u, v)" <<< "$ANSWER_OUT" \
  || { echo "repair smoke: dex answer --repair lost the unconflicted row"; exit 1; }
# The repair bench asserts guided < naive candidate counts on every run.
DEX_BENCH_SMOKE=1 DEX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --locked --offline -p dex-bench --bench repair
test -f target/bench-smoke/BENCH_repair.json || { echo "repair bench did not write target/bench-smoke/BENCH_repair.json"; exit 1; }
grep -q '"guidance_margin"' BENCH_repair.json || { echo "committed BENCH_repair.json does not record the guidance margin"; exit 1; }

echo "== incremental smoke (dex update round-trip + differential seed + bench) =="
# `dex update` applies a delta by incremental maintenance; the target it
# prints must carry exactly the rows of a from-scratch exchange of the
# updated source. Output captured, not piped (see repair smoke).
INC_SETTING='source { P/2 } target { F/2, G/2 } st { d1: P(x,y) -> exists k . F(k,x) & G(k,y); } t { key: F(k,x) & F(k,y) -> x = y; }'
UPDATE_OUT=$("$DEX" update "$INC_SETTING" 'P(a,b). P(c,d).' '+ P(e,f). - P(c,d).')
grep -q "applied: 1 insert(s), 1 delete(s)" <<< "$UPDATE_OUT" \
  || { echo "incremental smoke: dex update did not report the applied delta"; exit 1; }
grep -q "atoms retracted" <<< "$UPDATE_OUT" \
  || { echo "incremental smoke: dex update did not report resume counters"; exit 1; }
grep -q "F(" <<< "$UPDATE_OUT" \
  || { echo "incremental smoke: dex update printed no target instance"; exit 1; }
# One fixed seed of the 64-seed resume-vs-rechase differential suite,
# through the DEX_FAULT_SEED replay path (the full sweep already ran
# under `cargo test` above).
DEX_FAULT_SEED=7 cargo test -q --locked --offline -p dex-bench --test incremental
# The indexed provenance against the whole-map reference it replaced,
# one seed per family through the same replay path.
DEX_FAULT_SEED=7 cargo test -q --locked --offline -p dex-chase --lib provenance::reference
# A delta that kills a key-egd merge: the resume's counters report the
# provenance entries it visited.
KEY_SETTING='source { P/2, Q/2 } target { F/2 } st { d1: P(x,y) -> exists z . F(x,z); d2: Q(x,y) -> F(x,y); } t { key: F(x,y) & F(x,z) -> y = z; }'
KEY_OUT=$("$DEX" update "$KEY_SETTING" 'P(a,b). Q(a,c). P(d,e).' '- Q(a,c).' --stats)
grep -q '"prov_entries_visited":[1-9]' <<< "$KEY_OUT" \
  || { echo "incremental smoke: dex update --stats did not report provenance entries visited"; exit 1; }
# The incremental bench asserts resumed-vs-rechased target cardinalities
# agree on every run; its >=10x speedup gate arms on full runs only.
DEX_BENCH_SMOKE=1 DEX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --locked --offline -p dex-bench --bench incremental
test -f target/bench-smoke/BENCH_inc.json || { echo "incremental bench did not write target/bench-smoke/BENCH_inc.json"; exit 1; }
grep -q '"resume_vs_rechase"' BENCH_inc.json || { echo "committed BENCH_inc.json does not record resume-vs-rechase rows"; exit 1; }
# As for the par bench, an unarmed or failing >=10x gate must be loud:
# the dump records whether the gate armed and, per 1% row, whether it
# was met, and every CI run names the rows of the committed baseline
# that miss it.
grep -q '"gate_armed"' BENCH_inc.json || { echo "committed BENCH_inc.json does not record gate_armed"; exit 1; }
grep -q '"gate_met": \(true\|false\)' BENCH_inc.json || { echo "committed BENCH_inc.json does not record gate_met on its 1% rows"; exit 1; }
if grep -q '"gate_armed": false' BENCH_inc.json; then
  echo "GATE UNARMED: committed BENCH_inc.json was recorded without the >=10x resume gate (smoke run)"
fi
awk -F': ' '/"bench"/ { b = $2 } /"speedup"/ { s = $2 }
  /"gate_met": false/ { gsub(/[",]/, "", b); gsub(/,/, "", s); printf "GATE FAILING: %s %.1fx < 10x\n", b, s }' BENCH_inc.json

echo "== bench smoke (tiny sizes; any panic fails the run) =="
# Includes the chase naive-vs-delta ablation, whose ChaseStats invariant
# checks panic on violation — so stats consistency gates CI here too.
# Smoke mode runs 3 timed iterations, so per-bench "p95_ns" is null in
# BENCH_chase.json (full runs with >= 10 iterations emit numbers);
# consumers must tolerate both shapes.
DEX_BENCH_SMOKE=1 DEX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --locked --offline -p dex-bench
test -f target/bench-smoke/BENCH_chase.json || { echo "chase bench did not write target/bench-smoke/BENCH_chase.json"; exit 1; }
test -f target/bench-smoke/BENCH_obs.json || { echo "obs bench did not write target/bench-smoke/BENCH_obs.json"; exit 1; }
# The committed tracing-overhead baseline must carry an armed <5%
# NullCollector gate — an unarmed (smoke) baseline reads as unverified.
grep -q '"null_overhead_vs_off"' BENCH_obs.json || { echo "committed BENCH_obs.json does not record the NullCollector overhead"; exit 1; }
grep -q '"gate_armed": true' BENCH_obs.json || { echo "committed BENCH_obs.json was recorded without the <5% overhead gate"; exit 1; }

echo "== committed baselines untouched =="
# The smoke stages above must never clobber the committed full-run
# baselines (that was a real bug: smoke dumps used to overwrite them).
git diff --exit-code -- BENCH_par.json BENCH_chase.json BENCH_query.json BENCH_repair.json BENCH_obs.json BENCH_inc.json \
  || { echo "a bench stage modified a committed BENCH_*.json baseline"; exit 1; }

echo "CI OK"
