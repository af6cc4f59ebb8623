//! Trace smoke (ISSUE 4 / ci.sh): run the delta engine with a
//! `JsonlWriter` tracer, then reconcile the recorded event stream with
//! the run's [`ChaseStats`] *exactly* — every counter the stats report
//! must have a one-to-one event mirror in the trace.
//!
//! `DEX_TRACE=<path>` overrides the output location so the CI stage can
//! inspect the file afterwards; by default the trace goes to the cargo
//! target tmpdir.

use std::collections::BTreeMap;

use dex_chase::{ChaseBudget, ChaseEngine};
use dex_core::Governor;
use dex_logic::{parse_instance, parse_setting};
use dex_obs::{JsonlWriter, Tracer};

#[test]
fn jsonl_trace_reconciles_with_chase_stats() {
    let tc = parse_setting(
        "source { E/2 }
         target { T/2 }
         st { E(x,y) -> T(x,y); }
         t { T(x,y) & T(y,z) -> T(x,z); }",
    )
    .unwrap();
    let atoms: String = (0..8).map(|i| format!("E(c{i},c{}).", i + 1)).collect();
    let s = parse_instance(&atoms).unwrap();

    let path = std::env::var("DEX_TRACE")
        .unwrap_or_else(|_| format!("{}/trace_smoke.jsonl", env!("CARGO_TARGET_TMPDIR")));
    let gov = Governor::unlimited().with_tracer(Tracer::to(JsonlWriter::create(&path).unwrap()));
    let out = ChaseEngine::new(&tc, &ChaseBudget::default())
        .with_governor(&gov)
        .run(&s)
        .unwrap();
    drop(gov); // close the trace file before reading it back

    let text = std::fs::read_to_string(&path).unwrap();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for line in text.lines() {
        let v = dex_obs::parse(line)
            .unwrap_or_else(|e| panic!("trace line is not valid JSON ({e:?}): {line}"));
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| panic!("trace line lacks an event name: {line}"));
        assert!(
            v.get("at_ns").and_then(|t| t.as_u128()).is_some(),
            "trace line lacks a timestamp: {line}"
        );
        *counts.entry(event.to_string()).or_default() += 1;
    }

    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    let stats = &out.stats;
    assert_eq!(count("chase_started"), 1);
    assert_eq!(count("chase_completed"), 1);
    assert_eq!(count("trigger_examined"), stats.triggers_examined);
    assert_eq!(count("tgd_fired"), stats.triggers_fired);
    assert_eq!(count("egd_merged"), stats.egd_steps);
    assert_eq!(count("round_completed"), stats.rounds);
    let lines = dex_obs::parse_trace(&text).unwrap();
    let profile = dex_obs::TraceProfile::from_lines(&lines);
    assert_eq!(profile.egd_rows_scanned, stats.egd_rows_scanned as u64);
    // The workload actually exercises the mirrored counters.
    assert!(stats.triggers_examined > 0);
    assert!(stats.triggers_fired > 0);
    assert!(stats.rounds > 0);
}
