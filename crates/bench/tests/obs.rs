//! Observability integration tests (ISSUE 4): trace determinism,
//! provenance round-trips and the shared JSON writer.
//!
//! Determinism is the load-bearing property — traces are only useful for
//! differential debugging if the same seed yields the *byte-identical*
//! event stream. Timestamps come from the engine's injected clock, so
//! under a `MockClock` pinned to a fixed instant two runs must agree on
//! every byte of the recorded JSONL.

use std::sync::Arc;

use dex_chase::{ChaseBudget, ChaseEngine, ChaseError, ChaseStats, FreshAlpha};
use dex_core::govern::{Clock, Governor};
use dex_core::Instance;
use dex_datagen::{layered_setting, random_source, LayeredConfig, SourceConfig};
use dex_logic::{parse_instance, parse_setting, Setting};
use dex_obs::{Collector, RingRecorder, Tracer};
use dex_testkit::prop::{Gen, Runner};

fn example_2_1() -> Setting {
    parse_setting(
        "source { M/2, N/2 }
         target { E/2, F/2, G/2 }
         st {
           d1: M(x1,x2) -> E(x1,x2);
           d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
         }
         t {
           d3: F(y,x) -> exists z . G(x,z);
           d4: F(x,y) & F(x,z) -> y = z;
         }",
    )
    .unwrap()
}

/// One delta-engine run traced into a ring under a mock clock pinned to
/// a fixed instant; returns the recorded JSONL stream and the run's
/// stats.
fn traced_run(setting: &Setting, source: &Instance) -> (String, Result<ChaseStats, ChaseError>) {
    let (clock, mock) = Clock::mock();
    mock.set_ns(42);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let gov = Governor::with_clock_now(clock)
        .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
    let stats = ChaseEngine::new(setting, &ChaseBudget::default())
        .with_governor(&gov)
        .run(source)
        .map(|out| out.stats);
    assert_eq!(ring.dropped(), 0, "ring too small for the test workload");
    (ring.to_jsonl(), stats)
}

/// The mock-clock trace of a run on Example 2.1 matches the recorded
/// stream byte for byte: stamps, span ids, event order and null ids.
#[test]
fn mock_clock_trace_matches_the_recorded_stream() {
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let recorded = include_str!("fixtures/example_2_1_trace.jsonl");
    assert_eq!(traced_run(&example_2_1(), &s).0, recorded);
}

/// explain() round-trip on Example 2.1: every atom of the canonical
/// universal solution has a justification chain that starts at the atom
/// itself and bottoms out in source atoms.
#[test]
fn explain_round_trips_example_2_1() {
    let setting = example_2_1();
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let out = ChaseEngine::new(&setting, &ChaseBudget::default())
        .with_provenance(true)
        .run(&s)
        .unwrap();
    let prov = out.provenance.as_ref().expect("provenance was enabled");
    prov.verify_justified(&out.result).unwrap();
    let mut derived = 0;
    for atom in out.result.atoms() {
        let chain = prov.explain(&atom).expect("every atom is justified");
        assert_eq!(chain.steps[0].atom, atom);
        assert!(chain.ends_in_sources(), "dead end explaining {atom}");
        if !s.contains(&atom) {
            derived += 1;
            assert!(
                !chain.steps[0].derivation.is_source(),
                "derived atom {atom} claims to be a source atom"
            );
            assert!(
                !chain.source_atoms().is_empty(),
                "derived atom {atom} traces to no source atom"
            );
        }
        // The chain serialises through the shared writer.
        dex_obs::parse(&chain.to_json().dump()).unwrap();
    }
    assert!(derived > 0, "Example 2.1 derives atoms");
}

/// An egd merge re-keys the provenance map along with the instance:
/// two tgds mint F-atoms with distinct nulls, the key egd collapses
/// them, and every justification still resolves afterwards.
#[test]
fn egd_merge_rekeys_provenance() {
    let setting = parse_setting(
        "source { P/1 }
         target { F/2, G/2 }
         st {
           d1: P(x) -> exists z . F(x,z);
           d2: P(x) -> exists w . F(x,w) & G(x,w);
         }
         t {
           d3: F(x,y) & F(x,z) -> y = z;
         }",
    )
    .unwrap();
    let s = parse_instance("P(a).").unwrap();
    let out = ChaseEngine::new(&setting, &ChaseBudget::default())
        .with_provenance(true)
        .run(&s)
        .unwrap();
    assert!(out.stats.egd_steps > 0, "d3 must actually merge");
    let prov = out.provenance.as_ref().expect("provenance was enabled");
    assert!(!prov.merges().is_empty(), "merge must be on the record");
    prov.verify_justified(&out.result).unwrap();
    for atom in out.target.atoms() {
        let chain = prov.explain(&atom).expect("every atom stays justified");
        assert!(chain.ends_in_sources(), "dead end explaining {atom}");
    }
}

/// The α-chase records provenance too: a fresh-α run on the egd-free
/// fragment of Example 2.1 justifies every atom of `S ∪ T`. (With d4
/// present a fresh α fails: its two fixed F-nulls cannot be merged.)
#[test]
fn alpha_chase_records_provenance() {
    let setting = parse_setting(
        "source { M/2, N/2 }
         target { E/2, F/2, G/2 }
         st {
           d1: M(x1,x2) -> E(x1,x2);
           d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
         }
         t {
           d3: F(y,x) -> exists z . G(x,z);
         }",
    )
    .unwrap();
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let mut alpha = FreshAlpha::above(&s);
    let success = ChaseEngine::new(&setting, &ChaseBudget::default())
        .with_provenance(true)
        .run_alpha(&s, &mut alpha)
        .success()
        .expect("fresh α succeeds on Example 2.1");
    let prov = success.provenance.as_ref().expect("provenance was enabled");
    prov.verify_justified(&success.result).unwrap();
    for atom in success.target.atoms() {
        let chain = prov.explain(&atom).expect("every target atom is justified");
        assert!(chain.ends_in_sources(), "dead end explaining {atom}");
    }
}

/// The bench writer path escapes hostile strings: a measurement-style
/// object with quotes/backslashes/control characters round-trips through
/// the shared writer and parser.
#[test]
fn shared_json_writer_escapes_bench_names() {
    use dex_obs::JsonValue;
    let hostile = "bench \"quoted\"\\back\nslash\tand \u{1} ctrl";
    let doc = JsonValue::obj()
        .with("name", JsonValue::str(hostile))
        .with("median_ns", JsonValue::UInt(123));
    let parsed = dex_obs::parse(&doc.dump()).unwrap();
    assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some(hostile));
}

/// ISSUE 9 sweep: across 64 datagen seeds, (1) two runs record
/// byte-identical traces under a mock clock, every line valid, (2) the
/// recorded span tree is well-formed and the full `dex trace` report
/// (text + waterfall) renders, and (3) the profile's event counts
/// reconcile *exactly* with the run's [`ChaseStats`].
#[test]
fn chase_profiles_reconcile_and_are_deterministic_across_64_seeds() {
    use dex_obs::{check_spans_well_formed, parse_trace, TraceProfile};
    Runner::new(64).run(
        "chase profile determinism + ChaseStats reconciliation",
        &Gen::new(|rng| rng.gen_range(0..1_000_000u64)),
        |&seed| {
            let setting = layered_setting(&LayeredConfig {
                with_egds: true,
                seed,
                ..LayeredConfig::default()
            });
            let source = random_source(
                &setting.source,
                &SourceConfig {
                    num_constants: 6,
                    tuples_per_relation: 6,
                    seed,
                },
            );
            let (a, stats) = traced_run(&setting, &source);
            if a != traced_run(&setting, &source).0 {
                return Err(format!("same-seed traces differ for seed {seed}"));
            }
            let lines = parse_trace(&a).map_err(|e| format!("seed {seed}: {e}"))?;
            TraceProfile::from_lines(&lines).render_text(10, true);
            let Ok(stats) = stats else {
                // Conflicted seeds abort mid-round and legitimately leak
                // open spans (the analyzer treats that like truncation);
                // determinism above is still required of them.
                return Ok(());
            };
            check_spans_well_formed(&lines).map_err(|e| format!("seed {seed}: {e}"))?;
            let profile = TraceProfile::from_lines(&lines);
            let ev = |k: &str| profile.events.get(k).copied().unwrap_or(0);
            let pairs: [(&str, u64); 6] = [
                ("chase_started", 1),
                ("chase_completed", 1),
                ("trigger_examined", stats.triggers_examined as u64),
                ("tgd_fired", stats.triggers_fired as u64),
                ("egd_merged", stats.egd_steps as u64),
                ("round_completed", stats.rounds as u64),
            ];
            for (name, want) in pairs {
                if ev(name) != want {
                    return Err(format!(
                        "seed {seed}: {name} count {} != ChaseStats {want}",
                        ev(name)
                    ));
                }
            }
            if profile.egd_rows_scanned != stats.egd_rows_scanned as u64 {
                return Err(format!(
                    "seed {seed}: traced egd_rows_scanned {} != ChaseStats {}",
                    profile.egd_rows_scanned, stats.egd_rows_scanned
                ));
            }
            Ok(())
        },
    );
}

/// ISSUE 9 sweep: the enumeration trace — per-replay rings reassembled
/// into one stream via `replay_into` — is byte-identical across reruns
/// and across worker-pool widths 1, 2 and 8 under a mock clock, its
/// span tree is well-formed, and so the full `dex trace` report agrees
/// too.
#[test]
fn enumeration_profiles_identical_across_thread_counts_64_seeds() {
    use dex_cwa::{enumerate_cwa_presolutions, EnumLimits};
    use dex_obs::{check_spans_well_formed, parse_trace, TraceProfile};
    Runner::new(64).run(
        "enumeration trace determinism across thread counts",
        &Gen::new(|rng| rng.gen_range(0..1_000_000u64)),
        |&seed| {
            // Egd-free so every α-replay terminates cleanly; small
            // sources keep 64 × 4 enumerations cheap.
            let setting = layered_setting(&LayeredConfig {
                with_egds: false,
                seed,
                ..LayeredConfig::default()
            });
            let source = random_source(
                &setting.source,
                &SourceConfig {
                    num_constants: 3,
                    tuples_per_relation: 2,
                    seed,
                },
            );
            let limits = EnumLimits {
                max_results: 8,
                max_scripts: 64,
                nulls_only: true,
                ..EnumLimits::default()
            };
            let run = |threads: usize| {
                let ring = Arc::new(RingRecorder::new(1 << 16));
                let (clock, mock) = Clock::mock();
                mock.set_ns(42);
                let gov = Governor::with_clock_now(clock)
                    .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
                let pool = dex_core::Pool::new(threads);
                let _ = enumerate_cwa_presolutions(&setting, &source, &limits, &gov, &pool);
                assert_eq!(ring.dropped(), 0, "ring too small for the sweep workload");
                ring.to_jsonl()
            };
            let streams = [run(1), run(2), run(8), run(2)];
            if streams[0].is_empty() {
                return Err(format!("seed {seed}: tracing recorded nothing"));
            }
            for s in &streams[1..] {
                if *s != streams[0] {
                    return Err(format!(
                        "seed {seed}: reassembled streams differ across runs"
                    ));
                }
            }
            let lines = parse_trace(&streams[0]).map_err(|e| format!("seed {seed}: {e}"))?;
            check_spans_well_formed(&lines).map_err(|e| format!("seed {seed}: {e}"))?;
            // The rendered report is a function of the stream; pin that
            // it builds without panicking and names the wave phase.
            let report = TraceProfile::from_lines(&lines).render_text(10, true);
            if !report.contains("wave") {
                return Err(format!("seed {seed}: no wave span in report"));
            }
            Ok(())
        },
    );
}
