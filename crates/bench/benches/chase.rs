//! Chase benchmarks (experiments E6 and E7 of EXPERIMENTS.md):
//! standard-chase scaling on weakly acyclic settings, Example 2.1's
//! family, path-system closures, the D_halt Turing simulation, and the
//! naive-vs-delta engine ablation (E8).
//!
//! `cargo bench -p dex-bench --bench chase`; set `DEX_BENCH_SMOKE=1` for
//! a tiny-size smoke run (any panic exits nonzero, so CI can gate on it).
//! Every run dumps `BENCH_chase.json` (median/p95 per bench plus the
//! ablation's [`dex_chase::ChaseStats`] and speedups) at the workspace
//! root, and asserts `ChaseStats::validate` on each captured run.

use dex_chase::{chase, chase_naive, ChaseBudget, ChaseStats};
use dex_datagen::{
    example_2_1_scaled, layered_setting, random_source, LayeredConfig, SourceConfig,
};
use dex_logic::parse_setting;
use dex_obs::JsonValue;
use dex_reductions::halting::{probe_halting, right_walker, HaltProbe};
use dex_reductions::PathSystem;
use dex_testkit::bench::{sizes, Harness, Measurement};

fn example_2_1() -> dex_logic::Setting {
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

fn bench_chase_example_2_1(h: &mut Harness) {
    let setting = example_2_1();
    let budget = ChaseBudget::default();
    for n in sizes(&[4, 8, 16, 32], &[4]) {
        let s = example_2_1_scaled(n);
        h.bench(&format!("example_2_1_scaled/{n}"), || {
            chase(&setting, &s, &budget).unwrap();
        });
    }
}

fn bench_chase_layered(h: &mut Harness) {
    let setting = layered_setting(&LayeredConfig {
        with_egds: true,
        seed: 5,
        ..LayeredConfig::default()
    });
    let budget = ChaseBudget::default();
    for n in sizes(&[8, 16, 32], &[4]) {
        let s = random_source(
            &setting.source,
            &SourceConfig {
                num_constants: n,
                tuples_per_relation: n,
                seed: 5,
            },
        );
        h.bench(&format!("layered_weakly_acyclic/{n}"), || {
            // Key conflicts are possible on random data; both outcomes
            // exercise the same machinery.
            let _ = chase(&setting, &s, &budget);
        });
    }
}

fn bench_pathsys_closure(h: &mut Harness) {
    let setting = dex_reductions::pathsys_setting();
    let budget = ChaseBudget::default();
    for n in sizes(&[16, 32, 64], &[8]) {
        let s = PathSystem::chain(n).to_source();
        h.bench(&format!("pathsys_chain/{n}"), || {
            chase(&setting, &s, &budget).unwrap();
        });
    }
}

fn bench_halting_simulation(h: &mut Harness) {
    for steps in sizes(&[2, 4, 6], &[2]) {
        let tm = right_walker(steps);
        h.bench(&format!("d_halt_walker/{steps}"), || {
            let probe = probe_halting(&tm, &ChaseBudget::default());
            assert!(matches!(probe, HaltProbe::Halts { .. }));
        });
    }
}

/// One naive-vs-delta comparison row for `BENCH_chase.json`.
struct AblationRow {
    bench: String,
    delta_median_ns: u128,
    naive_median_ns: u128,
    delta_stats: Option<ChaseStats>,
    naive_stats: Option<ChaseStats>,
}

impl AblationRow {
    fn speedup(&self) -> f64 {
        if self.delta_median_ns == 0 {
            return f64::INFINITY;
        }
        self.naive_median_ns as f64 / self.delta_median_ns as f64
    }
}

/// Captures one run's stats (if the chase succeeds), asserting the
/// internal invariants — a violation panics, which fails the CI smoke.
fn capture_stats(
    which: &str,
    result: Result<dex_chase::ChaseSuccess, dex_chase::ChaseError>,
) -> Option<ChaseStats> {
    let stats = result.ok().map(|s| s.stats)?;
    stats
        .validate()
        .unwrap_or_else(|e| panic!("{which}: chase stats invariant violated: {e}"));
    Some(stats)
}

/// E8: the delta-driven engine against the retained naive driver on the
/// two stress scenarios — a Datalog-style transitive closure (pure tgd
/// refire pressure) and a layered weakly-acyclic setting with egds
/// (merge + refire pressure).
fn bench_ablation(h: &mut Harness) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let budget = ChaseBudget::default();

    let tc = parse_setting(
        "source { E/2 }
         target { T/2 }
         st { E(x,y) -> T(x,y); }
         t { T(x,y) & T(y,z) -> T(x,z); }",
    )
    .unwrap();
    for n in sizes(&[48], &[6]) {
        let atoms: String = (0..n).map(|i| format!("E(c{i},c{}).", i + 1)).collect();
        let s = dex_logic::parse_instance(&atoms).unwrap();
        h.bench(&format!("tc_delta/{n}"), || {
            chase(&tc, &s, &budget).unwrap();
        });
        h.bench(&format!("tc_naive/{n}"), || {
            chase_naive(&tc, &s, &budget).unwrap();
        });
        let (d, v) = {
            let r = h.results();
            (r[r.len() - 2].median_ns(), r[r.len() - 1].median_ns())
        };
        rows.push(AblationRow {
            bench: format!("transitive_closure/{n}"),
            delta_median_ns: d,
            naive_median_ns: v,
            delta_stats: capture_stats("tc/delta", chase(&tc, &s, &budget)),
            naive_stats: capture_stats("tc/naive", chase_naive(&tc, &s, &budget)),
        });
    }

    // Without egds so the runs complete (random key data nearly always
    // conflicts, which cuts both drivers short after a handful of
    // steps); egd + merge pressure is covered by layered_weakly_acyclic
    // above and the engine_runs_egds tests.
    let layered = layered_setting(&LayeredConfig {
        with_egds: false,
        seed: 5,
        ..LayeredConfig::default()
    });
    for n in sizes(&[48], &[4]) {
        let s = random_source(
            &layered.source,
            &SourceConfig {
                num_constants: n,
                tuples_per_relation: n,
                seed: 5,
            },
        );
        h.bench(&format!("layered_delta/{n}"), || {
            chase(&layered, &s, &budget).unwrap();
        });
        h.bench(&format!("layered_naive/{n}"), || {
            chase_naive(&layered, &s, &budget).unwrap();
        });
        let (d, v) = {
            let r = h.results();
            (r[r.len() - 2].median_ns(), r[r.len() - 1].median_ns())
        };
        rows.push(AblationRow {
            bench: format!("layered_datagen/{n}"),
            delta_median_ns: d,
            naive_median_ns: v,
            delta_stats: capture_stats("layered/delta", chase(&layered, &s, &budget)),
            naive_stats: capture_stats("layered/naive", chase_naive(&layered, &s, &budget)),
        });
    }
    rows
}

/// One governed-vs-ungoverned overhead row for `BENCH_chase.json`.
///
/// "Ungoverned" is the default budget: the governor exists but arms no
/// deadline/cancel, so `check()` stays on the cached-comparison fast
/// path. "Governed" arms a far-future deadline, forcing the amortized
/// slow path to consult the clock every 1024 ticks. The two run in
/// alternating pairs and the overhead is the median of the per-pair
/// ratios, with their quartiles beside it. The target is <2% overhead;
/// the number is recorded, not asserted, so a loaded CI box cannot
/// flake the build.
struct GovernedRow {
    bench: String,
    ungoverned_median_ns: u128,
    governed_median_ns: u128,
    /// Sorted per-pair `governed / ungoverned` ratios.
    ratios: Vec<f64>,
    trips: usize,
}

impl GovernedRow {
    /// The ratio quantile `q` as a percent overhead (0 without pairs).
    fn overhead_pct(&self, q: f64) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        let i = ((self.ratios.len() - 1) as f64 * q).round() as usize;
        (self.ratios[i] - 1.0) * 100.0
    }
}

/// Measures the governor's `check()` overhead on the hot chase path and
/// counts deadline trips on the adversarial non-halting workload.
fn bench_governed(h: &mut Harness) -> Vec<GovernedRow> {
    let mut rows = Vec::new();

    let tc = parse_setting(
        "source { E/2 }
         target { T/2 }
         st { E(x,y) -> T(x,y); }
         t { T(x,y) & T(y,z) -> T(x,z); }",
    )
    .unwrap();
    for n in sizes(&[48], &[6]) {
        let atoms: String = (0..n).map(|i| format!("E(c{i},c{}).", i + 1)).collect();
        let s = dex_logic::parse_instance(&atoms).unwrap();
        let plain = ChaseBudget::default();
        let armed = ChaseBudget::default().with_deadline(std::time::Duration::from_secs(3600));
        let ratios = h.bench_pair(
            &format!("tc_ungoverned/{n}"),
            &format!("tc_governed/{n}"),
            || {
                chase(&tc, &s, &plain).unwrap();
            },
            || {
                chase(&tc, &s, &armed).unwrap();
            },
        );
        let (u, g) = {
            let r = h.results();
            (r[r.len() - 2].median_ns(), r[r.len() - 1].median_ns())
        };
        rows.push(GovernedRow {
            bench: format!("transitive_closure/{n}"),
            ungoverned_median_ns: u,
            governed_median_ns: g,
            ratios,
            trips: 0,
        });
    }

    // Trip counting: a non-halting Turing simulation under a short
    // deadline must interrupt on every run.
    let tm = dex_reductions::halting::forever_right();
    let mut trips = 0usize;
    let runs = 3;
    let tight =
        ChaseBudget::new(usize::MAX, usize::MAX).with_deadline(std::time::Duration::from_millis(5));
    for _ in 0..runs {
        if matches!(probe_halting(&tm, &tight), HaltProbe::Interrupted(_)) {
            trips += 1;
        }
    }
    assert_eq!(trips, runs, "deadline failed to trip the diverging chase");
    rows.push(GovernedRow {
        bench: format!("d_halt_forever_right_5ms/{runs}"),
        ungoverned_median_ns: 0,
        governed_median_ns: 0,
        ratios: Vec::new(),
        trips,
    });
    rows
}

/// One measurement as JSON. `p95_ns` is `null` when there are too few
/// runs for a tail quantile to mean anything (smoke mode runs 3) —
/// consumers must tolerate both shapes.
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

/// Dump of every measurement plus the ablation and governed rows to
/// `BENCH_chase.json` at the workspace root, via the shared
/// [`dex_obs::JsonValue`] writer.
fn dump_json(
    measurements: &[Measurement],
    rows: &[AblationRow],
    governed: &[GovernedRow],
    runs_hint: usize,
) {
    let stats = |s: &Option<ChaseStats>| s.as_ref().map_or(JsonValue::Null, ChaseStats::json_value);
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("chase"))
        .with(
            "benches",
            JsonValue::Arr(measurements.iter().map(measurement_json).collect()),
        )
        .with(
            "ablation",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("bench", JsonValue::str(r.bench.clone()))
                            .with("delta_median_ns", JsonValue::UInt(r.delta_median_ns))
                            .with("naive_median_ns", JsonValue::UInt(r.naive_median_ns))
                            .with("speedup", JsonValue::Float(r.speedup()))
                            .with("delta_stats", stats(&r.delta_stats))
                            .with("naive_stats", stats(&r.naive_stats))
                    })
                    .collect(),
            ),
        )
        .with(
            "governed",
            JsonValue::Arr(
                governed
                    .iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("bench", JsonValue::str(r.bench.clone()))
                            .with(
                                "ungoverned_median_ns",
                                JsonValue::UInt(r.ungoverned_median_ns),
                            )
                            .with("governed_median_ns", JsonValue::UInt(r.governed_median_ns))
                            .with("overhead_pct", JsonValue::Float(r.overhead_pct(0.5)))
                            .with("overhead_pct_q1", JsonValue::Float(r.overhead_pct(0.25)))
                            .with("overhead_pct_q3", JsonValue::Float(r.overhead_pct(0.75)))
                            .with("pairs", JsonValue::uint(r.ratios.len() as u64))
                            .with("governor_trips", JsonValue::uint(r.trips as u64))
                    })
                    .collect(),
            ),
        )
        .with("runs_default", JsonValue::uint(runs_hint as u64));
    let out = doc.pretty() + "\n";
    // The writer must emit strict JSON — parse it back before writing.
    dex_obs::parse(&out).expect("BENCH_chase.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_chase.json");
    std::fs::write(&path, out).expect("write BENCH_chase.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut h = Harness::new("chase");
    bench_chase_example_2_1(&mut h);
    bench_chase_layered(&mut h);
    bench_pathsys_closure(&mut h);
    bench_halting_simulation(&mut h);
    let rows = bench_ablation(&mut h);
    for r in &rows {
        println!(
            "ablation {}: delta {}ns vs naive {}ns — {:.1}x",
            r.bench,
            r.delta_median_ns,
            r.naive_median_ns,
            r.speedup()
        );
    }
    let governed = bench_governed(&mut h);
    for r in &governed {
        println!(
            "governed {}: ungoverned {}ns vs governed {}ns — {:+.2}% per pair \
             [{:+.2}%, {:+.2}%] over {} pairs ({} trips)",
            r.bench,
            r.ungoverned_median_ns,
            r.governed_median_ns,
            r.overhead_pct(0.5),
            r.overhead_pct(0.25),
            r.overhead_pct(0.75),
            r.ratios.len(),
            r.trips
        );
    }
    let measurements = h.results().to_vec();
    dump_json(&measurements, &rows, &governed, measurements.len());
    h.finish();
}
