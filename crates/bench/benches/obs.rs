//! Tracing-overhead benchmarks (ISSUE 9): the same chase and
//! query-propagation workloads run under each collector — `Tracer::off`
//! (the default), `NullCollector` (dispatch but drop), `RingRecorder`
//! (retain in memory) and `JsonlWriter` to an in-memory sink (serialize
//! every event) — so the cost of leaving tracing compiled-in is a
//! number, not a guess.
//!
//! The acceptance gate: the `NullCollector` chase median must sit within
//! 5% of the `Tracer::off` baseline (event construction and virtual
//! dispatch are the only difference). The gate is armed only outside
//! smoke mode — smoke inputs are too small for stable medians.
//!
//! `cargo bench -p dex-bench --bench obs`; `DEX_BENCH_SMOKE=1` for the
//! tiny smoke run. Every run dumps `BENCH_obs.json` (workspace root, or
//! `DEX_BENCH_OUT` when set).

use std::sync::Arc;

use dex_chase::{ChaseBudget, ChaseEngine};
use dex_core::{Governor, Instance, Pool};
use dex_datagen::example_2_1_scaled;
use dex_logic::{parse_instance, parse_query, parse_setting, Query, Setting};
use dex_obs::{Collector, JsonValue, JsonlWriter, NullCollector, RingRecorder, Tracer};
use dex_query::{certain_answers_propagated, ModalLimits};
use dex_testkit::bench::{smoke, Harness, Measurement};

/// The collectors under comparison, in dump order.
const COLLECTORS: [&str; 4] = ["off", "null", "ring", "jsonl"];

fn tracer_for(which: &str) -> Tracer {
    match which {
        "off" => Tracer::off(),
        "null" => Tracer::new(Arc::new(NullCollector) as Arc<dyn Collector>),
        "ring" => Tracer::new(Arc::new(RingRecorder::new(1 << 20)) as Arc<dyn Collector>),
        "jsonl" => Tracer::to(JsonlWriter::to_writer(std::io::sink())),
        other => panic!("unknown collector {other}"),
    }
}

fn chase_workload() -> (Setting, Instance) {
    let setting = parse_setting(
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
    .unwrap();
    let n = if smoke() { 4 } else { 48 };
    (setting, example_2_1_scaled(n))
}

fn query_workload() -> (Setting, Instance, Query, Vec<dex_core::Symbol>) {
    let setting = parse_setting(
        "source { P/1 }
         target { F/2 }
         st { P(x) -> exists z . F(x,z); }
         t { F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let nulls = if smoke() { 2 } else { 5 };
    let atoms: String = (1..=nulls).map(|i| format!("F(a{i},_{i}). ")).collect();
    let t: Instance = parse_instance(&atoms).unwrap();
    let q = parse_query("Q(x,y) :- F(x,y)").unwrap();
    let pool = dex_query::answer_pool(&t, &q, []);
    (setting, t, q, pool)
}

/// Chase medians per collector, in [`COLLECTORS`] order.
fn bench_chase(h: &mut Harness) -> Vec<u128> {
    let (setting, source) = chase_workload();
    let budget = ChaseBudget::default();
    let baseline = ChaseEngine::new(&setting, &budget).run(&source).unwrap();
    COLLECTORS
        .iter()
        .map(|which| {
            h.bench(&format!("chase/{which}"), || {
                let gov = Governor::unlimited().with_tracer(tracer_for(which));
                let out = ChaseEngine::new(&setting, &budget)
                    .with_governor(&gov)
                    .run(&source)
                    .unwrap();
                assert_eq!(out.target, baseline.target, "tracing changed the chase");
            });
            h.results().last().unwrap().median_ns()
        })
        .collect()
}

/// Query-propagation medians per collector, in [`COLLECTORS`] order.
fn bench_query(h: &mut Harness) -> Vec<u128> {
    let (setting, t, q, pool) = query_workload();
    let limits = ModalLimits::default();
    let exec = Pool::seq();
    let box_q = |tracer: &Tracer| {
        let gov = Governor::unlimited().with_tracer(tracer.clone());
        certain_answers_propagated(&setting, &q, &t, &pool, &limits, &gov, &exec)
            .unwrap()
            .0
    };
    let baseline = box_q(&Tracer::off());
    COLLECTORS
        .iter()
        .map(|which| {
            let tracer = tracer_for(which);
            h.bench(&format!("propagate/{which}"), || {
                assert_eq!(box_q(&tracer), baseline, "tracing changed the answers");
            });
            h.results().last().unwrap().median_ns()
        })
        .collect()
}

fn measurement_json(m: &Measurement) -> JsonValue {
    JsonValue::obj()
        .with("name", JsonValue::str(m.name.clone()))
        .with("median_ns", JsonValue::UInt(m.median_ns()))
        .with(
            "p95_ns",
            m.p95_ns_checked().map_or(JsonValue::Null, JsonValue::UInt),
        )
        .with("runs", JsonValue::uint(m.samples_ns.len() as u64))
}

fn overhead_vs_off(medians: &[u128], i: usize) -> f64 {
    medians[i] as f64 / medians[0].max(1) as f64 - 1.0
}

fn overhead_rows(workload: &str, medians: &[u128]) -> JsonValue {
    JsonValue::Arr(
        COLLECTORS
            .iter()
            .enumerate()
            .map(|(i, which)| {
                JsonValue::obj()
                    .with("workload", JsonValue::str(workload))
                    .with("collector", JsonValue::str(*which))
                    .with("median_ns", JsonValue::UInt(medians[i]))
                    .with(
                        "overhead_vs_off",
                        JsonValue::Float(overhead_vs_off(medians, i)),
                    )
            })
            .collect(),
    )
}

fn main() {
    let mut h = Harness::new("obs").with_min_runs(10);
    let chase = bench_chase(&mut h);
    let query = bench_query(&mut h);

    let null_overhead = overhead_vs_off(&chase, 1);
    let gate_armed = !smoke();
    if gate_armed {
        assert!(
            null_overhead < 0.05,
            "NullCollector chase overhead is {:.1}% vs Tracer::off, expected < 5%",
            null_overhead * 100.0
        );
        println!(
            "GATE ARMED: NullCollector chase overhead {:.2}% < 5% verified",
            null_overhead * 100.0
        );
    } else {
        println!("GATE UNARMED (smoke): overhead gate did NOT run");
    }

    let mut rows = match overhead_rows("chase", &chase) {
        JsonValue::Arr(r) => r,
        _ => unreachable!(),
    };
    if let JsonValue::Arr(more) = overhead_rows("propagate", &query) {
        rows.extend(more);
    }
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("obs"))
        .with("smoke", JsonValue::Bool(smoke()))
        .with("gate_armed", JsonValue::Bool(gate_armed))
        .with("null_overhead_vs_off", JsonValue::Float(null_overhead))
        .with(
            "benches",
            JsonValue::Arr(h.results().iter().map(measurement_json).collect()),
        )
        .with("overhead", JsonValue::Arr(rows));
    let out = doc.pretty() + "\n";
    dex_obs::parse(&out).expect("BENCH_obs.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_obs.json");
    std::fs::write(&path, out).expect("write BENCH_obs.json");
    println!("wrote {}", path.display());
    h.finish();
}
