//! Repair-search benchmarks (ISSUE 8's graceful-degradation gate): the
//! provenance-guided hitting-set search vs the naive subset sweep on the
//! `conflicting_keyed_instance` family, plus the governed-overhead row
//! and an XR-certain answering row.
//!
//! `cargo bench -p dex-bench --bench repair`; set `DEX_BENCH_SMOKE=1`
//! for a tiny-size smoke run (any panic exits nonzero). Every run dumps
//! `BENCH_repair.json` — at the workspace root, or under `DEX_BENCH_OUT`
//! when set — recording per-bench medians and, for each size, the
//! guided vs naive candidate-chase counts whose ratio is the recorded
//! provenance-guidance margin (asserted > 1 on every run).

use dex_chase::ChaseBudget;
use dex_core::govern::Governor;
use dex_datagen::{conflicting_keyed_instance, conflicting_keyed_setting};
use dex_logic::parse_query;
use dex_obs::JsonValue;
use dex_query::AnswerConfig;
use dex_repair::{naive_repairs, RepairEngine, XrEngine};
use dex_testkit::bench::{smoke, Harness, Measurement};

/// One guided-vs-naive row for the JSON dump.
struct MarginRow {
    name: String,
    source_atoms: usize,
    repairs: usize,
    guided_chases: usize,
    naive_chases: usize,
}

fn bench_guided_vs_naive(h: &mut Harness, rows: &mut Vec<MarginRow>) {
    let d = dex_logic::parse_setting(conflicting_keyed_setting()).unwrap();
    let budget = ChaseBudget::default();
    let configs: &[(usize, usize)] = if smoke() {
        &[(3, 2)]
    } else {
        &[(3, 2), (5, 3), (7, 4)]
    };
    for &(keys, extra) in configs {
        let s = conflicting_keyed_instance(keys, extra, 11);
        let engine = RepairEngine::new(&d, &budget);
        let mut guided_chases = 0;
        let mut repairs = 0;
        h.bench(&format!("repair_guided/{keys}k{extra}x"), || {
            let out = engine.repairs(&s, &Governor::unlimited());
            assert!(out.complete);
            guided_chases = out.stats.candidates_chased;
            repairs = out.repairs.len();
        });
        let mut naive_chases = 0;
        h.bench(&format!("repair_naive/{keys}k{extra}x"), || {
            let (oracle, chases) = naive_repairs(&d, &s, &budget);
            assert_eq!(oracle.len(), repairs);
            naive_chases = chases;
        });
        assert!(
            guided_chases < naive_chases,
            "{keys}k{extra}x: guided ({guided_chases}) did not beat naive ({naive_chases})"
        );
        rows.push(MarginRow {
            name: format!("{keys}k{extra}x"),
            source_atoms: s.len(),
            repairs,
            guided_chases,
            naive_chases,
        });
    }
}

fn bench_governed_overhead(h: &mut Harness) {
    let d = dex_logic::parse_setting(conflicting_keyed_setting()).unwrap();
    let budget = ChaseBudget::default();
    let (keys, extra) = if smoke() { (3, 2) } else { (5, 3) };
    let s = conflicting_keyed_instance(keys, extra, 11);
    let engine = RepairEngine::new(&d, &budget);
    let baseline = engine.repairs(&s, &Governor::unlimited()).repairs.len();
    h.bench(
        &format!("repair_governed_unlimited/{keys}k{extra}x"),
        || {
            let out = engine.repairs(&s, &Governor::unlimited().with_fuel(1_000_000));
            assert!(out.complete);
            assert_eq!(out.repairs.len(), baseline);
        },
    );
}

fn bench_xr_certain(h: &mut Harness) {
    let d = dex_logic::parse_setting(conflicting_keyed_setting()).unwrap();
    let (keys, extra) = if smoke() { (3, 2) } else { (5, 3) };
    let s = conflicting_keyed_instance(keys, extra, 11);
    let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
    h.bench(&format!("xr_certain/{keys}k{extra}x"), || {
        let engine =
            XrEngine::new(&d, &s, AnswerConfig::default(), &Governor::unlimited()).unwrap();
        let ans = engine.certain(&q).unwrap();
        assert_eq!(ans.len(), 2, "the two R rows survive every repair");
    });
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

fn dump_json(measurements: &[Measurement], rows: &[MarginRow]) {
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("repair"))
        .with("smoke", JsonValue::Bool(smoke()))
        .with(
            "benches",
            JsonValue::Arr(measurements.iter().map(measurement_json).collect()),
        )
        .with(
            "guidance_margin",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("name", JsonValue::str(r.name.clone()))
                            .with("source_atoms", JsonValue::uint(r.source_atoms as u64))
                            .with("repairs", JsonValue::uint(r.repairs as u64))
                            .with("guided_chases", JsonValue::uint(r.guided_chases as u64))
                            .with("naive_chases", JsonValue::uint(r.naive_chases as u64))
                            .with(
                                "margin",
                                JsonValue::Float(r.naive_chases as f64 / r.guided_chases as f64),
                            )
                    })
                    .collect(),
            ),
        );
    let out = doc.pretty() + "\n";
    dex_obs::parse(&out).expect("BENCH_repair.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_repair.json");
    std::fs::write(&path, out).expect("write BENCH_repair.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut h = Harness::new("repair");
    let mut rows = Vec::new();
    bench_guided_vs_naive(&mut h, &mut rows);
    bench_governed_overhead(&mut h);
    bench_xr_certain(&mut h);
    dump_json(h.results(), &rows);
    h.finish();
}
