//! End-to-end tests of the `dex` command-line tool.

use std::process::Command;

const SETTING: &str = "source { M/2, N/2 }
target { E/2, F/2, G/2 }
st {
  d1: M(x1,x2) -> E(x1,x2);
  d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
}
t {
  d3: F(y,x) -> exists z . G(x,z);
  d4: F(x,y) & F(x,z) -> y = z;
}";

const SOURCE: &str = "M(a,b). N(a,b). N(a,c).";

fn dex(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dex"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_reports_acyclicity() {
    let (ok, stdout, _) = dex(&["analyze", SETTING]);
    assert!(ok);
    assert!(stdout.contains("weakly acyclic:  true"));
    assert!(stdout.contains("richly acyclic:  true"));
    assert!(stdout.contains("egds: 1"));
}

#[test]
fn chase_prints_canonical_solution() {
    let (ok, stdout, _) = dex(&["chase", SETTING, SOURCE]);
    assert!(ok);
    assert!(stdout.contains("E(a,b)"));
    assert!(stdout.contains("G(_"));
}

#[test]
fn explain_prints_justification_chains_down_to_sources() {
    let (ok, stdout, _) = dex(&["explain", SETTING, SOURCE]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("E(a,b) <- d1(M(a,b))"));
    assert!(stdout.contains("M(a,b) <- source"));
    assert!(stdout.contains("<- d3(F(a,_"));
    assert!(stdout.contains("every atom justified"));
}

#[test]
fn dex_trace_env_writes_a_jsonl_trace() {
    let dir = std::env::temp_dir().join(format!("dex-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dex"))
        .args(["chase", SETTING, SOURCE])
        .env("DEX_TRACE", &path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().count() >= 4, "trace too short: {text}");
    for line in text.lines() {
        let v = cwa_dex::obs::parse(line).expect("trace line is valid JSON");
        assert!(v.get("event").is_some(), "no event name in {line}");
    }
    assert!(text.contains("\"event\":\"chase_completed\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn core_is_smaller_than_chase_result() {
    let (_, chased, _) = dex(&["chase", SETTING, SOURCE]);
    let (ok, core, _) = dex(&["core", SETTING, SOURCE]);
    assert!(ok);
    let count = |s: &str| s.matches("(").count();
    assert!(count(&core) < count(&chased));
    assert!(core.contains("E(a,b)"));
}

/// `dex chase` on a keyed mapping scenario whose chase makes 9 egd
/// merges prints exactly the recorded dump. The fixtures are
/// `mapping_scenario` (2 copies, 2 partitions, 3 surrogate keys, seed 5)
/// and its `random_source` (8 constants, 8 tuples per relation, seed 2).
/// Null numbers follow the order the chase finds its triggers, so a
/// matcher that emits matches in another order renumbers nulls here.
#[test]
fn chase_dump_of_a_merging_scenario_is_pinned() {
    let fixture = |ext: &str| {
        format!(
            "{}/tests/fixtures/keyed_merges.{ext}",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let (ok, stdout, stderr) = dex(&["chase", &fixture("setting"), &fixture("source")]);
    assert!(ok, "stderr: {stderr}");
    let pinned = std::fs::read_to_string(fixture("chase")).unwrap();
    assert!(
        stdout == pinned,
        "dump drifted:\n{stdout}\nexpected:\n{pinned}"
    );
}

#[test]
fn check_classifies_t2_and_t1() {
    let (ok, stdout, _) = dex(&[
        "check",
        SETTING,
        SOURCE,
        "E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).",
    ]);
    assert!(ok);
    assert!(stdout.contains("CWA-solution:    true"));
    let (ok, stdout, _) = dex(&["check", SETTING, SOURCE, "E(a,b)."]);
    assert!(ok);
    assert!(stdout.contains("solution:        false"));
}

#[test]
fn answer_certain_ucq() {
    let (ok, stdout, _) = dex(&["answer", SETTING, SOURCE, "Q(x,y) :- E(x,y)"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("(a, b)"));
    assert!(stdout.contains("1 answers"));
}

#[test]
fn answer_boolean_and_semantics_flag() {
    let (ok, stdout, _) = dex(&[
        "answer",
        SETTING,
        SOURCE,
        "Q() :- F(a,x), G(x,y)",
        "--semantics",
        "maybe",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "true");
}

#[test]
fn answer_rejects_unknown_semantics() {
    let (ok, _, stderr) = dex(&[
        "answer",
        SETTING,
        SOURCE,
        "Q() :- E(x,y)",
        "--semantics",
        "wishful",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown semantics"));
}

#[test]
fn enumerate_lists_solutions_with_maximality() {
    let small = "M(a,b). N(a,b).";
    let (ok, stdout, _) = dex(&["enumerate", SETTING, small, "--nulls-only"]);
    assert!(ok);
    assert!(stdout.contains("CWA-solutions up to renaming of nulls"));
    assert!(stdout.contains("[maximal]"));
}

#[test]
fn files_are_accepted_too() {
    let dir = std::env::temp_dir().join(format!("dex-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let setting_path = dir.join("setting.dex");
    let source_path = dir.join("source.dex");
    std::fs::write(&setting_path, SETTING).unwrap();
    std::fs::write(&source_path, SOURCE).unwrap();
    let (ok, stdout, _) = dex(&[
        "core",
        setting_path.to_str().unwrap(),
        source_path.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("E(a,b)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_reports_parse_error() {
    let (ok, _, stderr) = dex(&["chase", "source { oops", SOURCE]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn no_args_prints_usage() {
    let (ok, _, stderr) = dex(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

const KEYED: &str = "source { P/2, R/2 }
target { F/2, G/2 }
st {
  dP: P(x,y) -> F(x,y);
  dR: R(x,y) -> G(x,y);
}
t { key: F(x,y) & F(x,z) -> y = z; }";

const CONFLICTED: &str = "P(a,b). P(a,c). R(u,v).";

#[test]
fn chase_failure_prints_conflict_witness() {
    let (ok, _, stderr) = dex(&["chase", KEYED, CONFLICTED]);
    assert!(!ok);
    assert!(stderr.contains("egd key failed"), "stderr: {stderr}");
    assert!(stderr.contains("source conflict set: {P(a,b), P(a,c)}"));
    assert!(stderr.contains("P(a,b) <- source"));
    assert!(stderr.contains("dex repair"));
}

#[test]
fn explain_conflict_prints_witness_and_json() {
    let (ok, stdout, _) = dex(&["explain", KEYED, CONFLICTED, "--conflict"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("egd key failed"));
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON line");
    let v = cwa_dex::obs::parse(json_line).expect("witness JSON parses");
    assert!(
        matches!(v.get("grounded"), Some(cwa_dex::obs::JsonValue::Bool(true))),
        "witness should be grounded: {json_line}"
    );
    // Consistent sources report success instead.
    let (ok, stdout, _) = dex(&["explain", KEYED, "P(a,b).", "--conflict"]);
    assert!(ok);
    assert!(stdout.contains("consistent"));
}

#[test]
fn repair_lists_maximal_consistent_subsets() {
    let (ok, stdout, _) = dex(&["repair", KEYED, CONFLICTED]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("removed { P(a,b) }"));
    assert!(stdout.contains("removed { P(a,c) }"));
    assert!(stdout.contains("2 maximal repair(s)"));
    // --json emits one parsable object.
    let (ok, stdout, _) = dex(&["repair", KEYED, CONFLICTED, "--json"]);
    assert!(ok);
    let v = cwa_dex::obs::parse(stdout.trim()).expect("repair JSON parses");
    assert!(v.get("repairs").is_some(), "no repairs key: {stdout}");
    let Some(cwa_dex::obs::JsonValue::Arr(removed)) = v.get("removed") else {
        panic!("no removed list: {stdout}");
    };
    assert_eq!(removed.len(), 2, "one removed-set per repair: {stdout}");
}

#[test]
fn repair_of_a_mostly_contested_source_chases_candidates_in_full() {
    // `K = {P(a,b), P(a,c)}` outweighs `S \ K = {R(u,v)}`: the first chase
    // finds the conflict, then each of the two candidates is chased in
    // full, with no base chase of `S \ K` before them.
    let (ok, stdout, _) = dex(&["repair", KEYED, CONFLICTED]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("; 3 candidates chased,"),
        "stdout: {stdout}"
    );
}

#[test]
fn answer_repair_intersects_over_repairs() {
    // G(u,v) survives every repair; the contested F-row survives none.
    let (ok, stdout, _) = dex(&["answer", KEYED, CONFLICTED, "Q(x,y) :- G(x,y)", "--repair"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("(u, v)"));
    assert!(stdout.contains("1 XR-certain answers over 2 repairs"));
    let (ok, stdout, _) = dex(&["answer", KEYED, CONFLICTED, "Q(x,y) :- F(x,y)", "--repair"]);
    assert!(ok);
    assert!(stdout.contains("0 XR-certain answers"));
    // Without --repair the same inconsistent source hard-fails.
    let (ok, _, stderr) = dex(&["answer", KEYED, CONFLICTED, "Q(x,y) :- G(x,y)"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
    // --repair only pairs with certain semantics.
    let (ok, _, stderr) = dex(&[
        "answer",
        KEYED,
        CONFLICTED,
        "Q(x,y) :- G(x,y)",
        "--repair",
        "--semantics",
        "maybe",
    ]);
    assert!(!ok);
    assert!(stderr.contains("XR-certain"));
}

/// Runs `dex` with `DEX_TRACE` pointed at a fresh file and returns the
/// trace text along with the command's output.
fn dex_traced(args: &[&str], tag: &str) -> (bool, String, String, String) {
    let dir = std::env::temp_dir().join(format!("dex-cli-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dex"))
        .args(args)
        .env("DEX_TRACE", &path)
        .output()
        .expect("binary runs");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        text,
    )
}

fn assert_valid_trace(text: &str) {
    assert!(!text.is_empty(), "trace is empty");
    for line in text.lines() {
        let v = cwa_dex::obs::parse(line).expect("trace line is valid JSON");
        assert!(v.get("event").is_some(), "no event name in {line}");
    }
}

#[test]
fn dex_trace_env_covers_core() {
    let (ok, _, _, trace) = dex_traced(&["core", SETTING, SOURCE], "core");
    assert!(ok);
    assert_valid_trace(&trace);
    // The chase phases and the core's retract search both land in one file.
    assert!(trace.contains("\"st_tgds\""), "no chase spans: {trace}");
    assert!(trace.contains("\"retract_step\""), "no core spans: {trace}");
    // The core's search count lands in the trace and in its profile.
    assert!(
        trace.contains("\"event\":\"core_completed\""),
        "no core_completed event: {trace}"
    );
    let lines: Vec<_> = trace
        .lines()
        .map(|l| cwa_dex::obs::parse(l).unwrap())
        .collect();
    let profile = cwa_dex::obs::TraceProfile::from_lines(&lines);
    assert!(profile.components_searched > 0, "no components searched");
    assert!(profile
        .render_text(5, false)
        .contains("components_searched"));
}

#[test]
fn dex_trace_env_covers_answer() {
    // `maybe` goes through the ◇-propagation pipeline (the certain-UCQ
    // shortcut of Lemma 7.7 needs no valuations and emits no spans).
    let (ok, _, _, trace) = dex_traced(
        &[
            "answer",
            SETTING,
            SOURCE,
            "Q(x) :- F(a,x)",
            "--semantics",
            "maybe",
        ],
        "answer",
    );
    assert!(ok);
    assert_valid_trace(&trace);
    for stage in [
        "merge_fixpoint",
        "inert_elim",
        "admissible_sets",
        "forced_diseqs",
        "residual_enum",
    ] {
        assert!(
            trace.contains(&format!("\"{stage}\"")),
            "no {stage} span: {trace}"
        );
    }
}

#[test]
fn dex_trace_env_covers_enumerate() {
    let (ok, _, _, trace) = dex_traced(&["enumerate", SETTING, SOURCE, "--max", "4"], "enum");
    assert!(ok);
    assert_valid_trace(&trace);
    // Wave spans from the enumerator plus replayed alpha-chase events.
    assert!(trace.contains("\"wave\""), "no wave spans: {trace}");
    assert!(
        trace.contains("\"event\":\"span_closed\""),
        "no spans: {trace}"
    );
}

#[test]
fn trace_subcommand_profiles_a_chase_run() {
    let dir = std::env::temp_dir().join(format!("dex-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dex"))
        .args(["chase", SETTING, SOURCE])
        .env("DEX_TRACE", &path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let p = path.to_str().unwrap();

    let (ok, stdout, _) = dex(&["trace", p]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("phases (by total time):"));
    assert!(stdout.contains("st_tgds"));
    assert!(stdout.contains("hottest dependencies"));
    assert!(stdout.contains("chase_completed"));
    assert!(stdout.contains("egd_rows_scanned"));
    assert!(!stdout.contains("span tree:"), "--tree is opt-in");

    let (ok, with_tree, _) = dex(&["trace", p, "--tree"]);
    assert!(ok);
    assert!(with_tree.contains("span tree:"));

    // --top caps the dependency table: d1 stays, d2 may be cut.
    let (ok, top1, _) = dex(&["trace", p, "--top", "1"]);
    assert!(ok);
    assert!(top1.contains("hottest dependencies (top 1):"));

    // --json is machine-readable and not truncated for a full trace.
    let (ok, json, _) = dex(&["trace", p, "--json"]);
    assert!(ok);
    let v = cwa_dex::obs::parse(json.trim()).expect("profile is valid JSON");
    assert_eq!(
        v.get("truncated"),
        Some(&cwa_dex::obs::JsonValue::Bool(false))
    );
    let events = v.get("events").expect("events object");
    assert_eq!(
        events.get("chase_started").and_then(|n| n.as_u128()),
        Some(1)
    );
    assert_eq!(
        events.get("chase_completed").and_then(|n| n.as_u128()),
        Some(1)
    );
    assert!(v
        .get("egd_rows_scanned")
        .and_then(|n| n.as_u128())
        .is_some_and(|n| n > 0));

    // --metrics passes the in-tree exposition-format check.
    let (ok, metrics, _) = dex(&["trace", p, "--metrics"]);
    assert!(ok);
    cwa_dex::obs::validate_prometheus_text(&metrics).expect("valid exposition text");
    assert!(metrics.contains("# TYPE"));
    assert!(metrics.contains("egd_rows_scanned"));

    let (ok, _, stderr) = dex(&["trace", p, "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_subcommand_flags_truncated_traces() {
    use std::sync::Arc;
    let ring = Arc::new(cwa_dex::obs::RingRecorder::new(1));
    let tracer = cwa_dex::obs::Tracer::new(Arc::clone(&ring) as _);
    tracer.span("a", 1).close(2);
    tracer.span("b", 3).close(4);
    assert_eq!(ring.dropped(), 3);

    let dir = std::env::temp_dir().join(format!("dex-cli-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, ring.to_jsonl()).unwrap();
    let p = path.to_str().unwrap();

    let (ok, stdout, _) = dex(&["trace", p]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("WARNING: 3 events dropped"),
        "no truncation banner: {stdout}"
    );

    let (ok, json, _) = dex(&["trace", p, "--json"]);
    assert!(ok);
    let v = cwa_dex::obs::parse(json.trim()).expect("profile is valid JSON");
    assert_eq!(
        v.get("truncated"),
        Some(&cwa_dex::obs::JsonValue::Bool(true))
    );
    assert_eq!(v.get("dropped").and_then(|n| n.as_u128()), Some(3));

    std::fs::remove_dir_all(&dir).ok();
}

/// Zeroes every `…_ns` number of a JSON text (timestamps and wall
/// times), leaving everything a run decides for itself to compare.
fn zero_ns_fields(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("_ns\":") {
        let (head, tail) = rest.split_at(i + "_ns\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Every group of two P-rows sharing a y gets its surrogate keys merged
/// by `k`, which collapses the two G-atoms of the group into one.
const MERGING_SETTING: &str = "source { P/2 } target { F/2, G/2 }
    st { d1: P(x,y) -> exists k . F(k,x) & G(k,y); }
    t { k: G(k,y) & G(m,y) -> k = m; }";

fn merging_source(groups: usize) -> String {
    (0..groups)
        .map(|g| format!("P(a{g},b{g}). P(c{g},b{g}). "))
        .collect()
}

#[test]
fn update_with_deletions_is_deterministic_across_processes() {
    // Deleting one row of each group makes every merge suspect, so the
    // resume over-deletes and re-derives all groups. The re-derivation
    // order decides the fresh null ids, the counters and the trace, and it
    // must not depend on a process's hash seed.
    let setting = MERGING_SETTING;
    let groups = 8;
    let source = merging_source(groups);
    let delta: String = (0..groups).map(|g| format!("- P(c{g},b{g}). ")).collect();
    let runs: Vec<(String, String)> = (0..3)
        .map(|i| {
            let (ok, stdout, stderr, trace) = dex_traced(
                &["update", setting, &source, &delta, "--stats"],
                &format!("update-det-{i}"),
            );
            assert!(ok, "dex update failed: {stderr}");
            assert!(stdout.contains("stats: {"), "no --stats line: {stdout}");
            assert!(
                !stdout.contains("\"prov_entries_visited\":0,"),
                "the resume retracted merges but visited no provenance entry: {stdout}"
            );
            assert_valid_trace(&trace);
            assert!(trace.contains("\"event\":\"resume_applied\""));
            (zero_ns_fields(&stdout), zero_ns_fields(&trace))
        })
        .collect();
    for (i, (stdout, trace)) in runs.iter().enumerate().skip(1) {
        assert_eq!(stdout, &runs[0].0, "process {i}: stdout differs");
        assert_eq!(trace, &runs[0].1, "process {i}: trace differs");
    }
}

#[test]
fn explain_after_egd_merges_is_deterministic_across_processes() {
    // A collapsed G-atom keeps the justifications of both atoms; which one
    // `explain` reports first must not depend on a process's hash seed.
    let source = merging_source(8);
    let runs: Vec<String> = (0..3)
        .map(|_| {
            let (ok, stdout, stderr) = dex(&["explain", MERGING_SETTING, &source]);
            assert!(ok, "dex explain failed: {stderr}");
            stdout
        })
        .collect();
    for (i, stdout) in runs.iter().enumerate().skip(1) {
        assert_eq!(stdout, &runs[0], "process {i}: explain output differs");
    }
}

/// A transitive-closure chain `E(c0,c1). … E(c{n-1},c{n}).` and its
/// setting: the chase derives all `n(n+1)/2` reachability atoms.
const CHAIN_SETTING: &str = "source { E/2 } target { T/2 }
st { E(x,y) -> T(x,y); }
t { T(x,y) & T(y,z) -> T(x,z); }";

fn chain(edges: usize) -> String {
    (0..edges)
        .map(|i| format!("E(c{i},c{}). ", i + 1))
        .collect()
}

#[test]
fn enumerate_marks_budget_exhausted_replays_incomplete() {
    // The one replay of the 40-edge chain runs out of the per-replay
    // chase budget, so "0 CWA-solutions" is not a verdict.
    let (ok, stdout, _) = dex(&["enumerate", CHAIN_SETTING, &chain(40)]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("INCOMPLETE: 1 replay(s) exhausted the chase budget"),
        "stdout: {stdout}"
    );
    // A complete enumeration carries no marker.
    let (ok, stdout, _) = dex(&["enumerate", CHAIN_SETTING, &chain(3)]);
    assert!(ok);
    assert!(!stdout.contains("INCOMPLETE"), "stdout: {stdout}");
    assert!(stdout.contains("1 CWA-solutions"), "stdout: {stdout}");
}

#[test]
fn chase_into_a_closed_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 130 edges print ~100 KB, more than a pipe buffers, so the writer
    // is still writing when the reader goes away (`dex chase … | head -1`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_dex"))
        .args(["chase", CHAIN_SETTING, &chain(130)])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("steps: "), "first line: {first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(out.status.success(), "status: {:?}", out.status);
}

#[test]
fn dex_trace_env_covers_repair_candidate_chases() {
    let (ok, stdout, _, trace) = dex_traced(&["repair", KEYED, CONFLICTED], "repair");
    assert!(ok, "stdout: {stdout}");
    assert_valid_trace(&trace);
    assert!(stdout.contains("conflicts reused"), "stdout: {stdout}");
    // Every chase the search runs re-emits its events into the trace.
    let count = |event: &str| {
        trace
            .lines()
            .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
            .count()
    };
    let chased: usize = stdout
        .split(" candidates chased")
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("summary counts the chases");
    assert!(count("chase_started") >= 1, "trace: {trace}");
    assert_eq!(count("chase_started"), chased, "trace: {trace}");
}

#[test]
fn update_and_chase_refuse_atoms_outside_the_source_schema() {
    // A source relation at another arity, a target relation and an
    // unknown relation: each is refused with exit code 1 and a message
    // naming the relation, never a panic (101) or a silent no-op.
    for (delta, rel) in [("+ M(q).", "M"), ("+ E(q,r).", "E"), ("+ Z(q).", "Z")] {
        let out = Command::new(env!("CARGO_BIN_EXE_dex"))
            .args(["update", SETTING, "M(a,b). N(a,b).", delta])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{delta}: {stderr}");
        assert!(stderr.contains(&format!("{rel} ")), "{delta}: {stderr}");
    }
    let (ok, stdout, stderr) = dex(&["chase", SETTING, "M(q)."]);
    assert!(!ok && stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("relation M has arity 2"), "{stderr}");
}

#[test]
fn enumerate_repair_and_xr_answers_refuse_a_source_outside_the_schema() {
    // Their searches turn chase errors into truncated or undecided
    // results, so each checks the source first and fails as `dex chase`
    // does: exit code 1 and the relation named, nothing on stdout.
    let cases: [&[&str]; 3] = [
        &["enumerate", SETTING, "M(q)."],
        &["repair", SETTING, "M(q)."],
        &["answer", SETTING, "M(q).", "Q(x,y) :- E(x,y)", "--repair"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dex"))
            .args(args)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.contains("invalid source atom: relation M has arity 2"),
            "{args:?}: {stderr}"
        );
    }
}
