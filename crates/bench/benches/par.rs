//! Scaling benchmarks for the deterministic worker pool (`dex-par`):
//! the three fan-out hot paths — CWA-solution enumeration, core
//! computation, and certain-answer evaluation — measured at 1/2/4/8
//! threads on the same inputs, with the byte-identical-output contract
//! asserted on every measured configuration. Two additions probe the
//! retract loop and the persistent pool directly: a large-core workload
//! (`redundant_null_instance`, 544 atoms in 512 single-atom components,
//! all searched in one pass), and the dispatch cost of a fixed job
//! through the parked pool.
//!
//! `cargo bench -p dex-bench --bench par`; set `DEX_BENCH_SMOKE=1` for a
//! tiny-size smoke run (any panic exits nonzero). Every run dumps
//! `BENCH_par.json` — at the workspace root, or under `DEX_BENCH_OUT`
//! when set (ci.sh routes smoke dumps to `target/bench-smoke` so the
//! committed baseline stays clean). The dump records the machine's CPU
//! count, per-bench medians, a `scaling` table of
//! median/speedup-vs-1-thread per workload × thread count. The ≥2× speedup gate at 4 threads (on the
//! large-core workload) only fires on machines that report ≥4 CPUs and
//! not in smoke mode, whose inputs are too small to amortize fan-out.

use dex_chase::{canonical_universal_solution, ChaseBudget};
use dex_core::govern::Governor;
use dex_core::{core, core_parallel_governed, Instance, Pool};
use dex_cwa::{enumerate_cwa_solutions, EnumLimits};
use dex_logic::{parse_instance, parse_query, parse_setting};
use dex_obs::JsonValue;
use dex_query::{answer_pool, certain_answers, Answers, ModalLimits};
use dex_testkit::bench::{smoke, Harness, Measurement};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One workload × thread-count cell of the scaling table.
struct ScalingRow {
    workload: String,
    threads: usize,
    median_ns: u128,
}

impl ScalingRow {
    fn speedup_vs(&self, base_ns: u128) -> f64 {
        if self.median_ns == 0 {
            1.0
        } else {
            base_ns as f64 / self.median_ns as f64
        }
    }
}

/// Enumeration workload: Example 5.3's α-chase script tree, every script
/// an independent chase replay — the widest fan-out in the engine.
fn bench_enumeration(h: &mut Harness, rows: &mut Vec<ScalingRow>) {
    let setting = parse_setting(
        "source { P/1 }
         target { E/3, F/3 }
         st { d1: P(x) -> exists z1,z2,z3,z4 . E(x,z1,z3) & E(x,z2,z4); }
         t { d2: E(x,x1,y) & E(x,x2,y) -> F(x,x1,x2); }",
    )
    .unwrap();
    let n = if smoke() { 1 } else { 2 };
    let atoms: String = (1..=n).map(|i| format!("P({i}). ")).collect();
    let s = parse_instance(&atoms).unwrap();
    let limits = EnumLimits {
        nulls_only: true,
        ..EnumLimits::default()
    };
    let gov = Governor::unlimited();
    let baseline = enumerate_cwa_solutions(&setting, &s, &limits, &gov, &Pool::seq()).0;
    for t in THREADS {
        let pool = Pool::new(t);
        h.bench(&format!("enumerate_example_5_3/threads/{t}"), || {
            let (sols, _) = enumerate_cwa_solutions(&setting, &s, &limits, &gov, &pool);
            assert_eq!(sols, baseline, "enumeration output differs at {t} threads");
        });
        rows.push(ScalingRow {
            workload: "enumeration".into(),
            threads: t,
            median_ns: h.results().last().unwrap().median_ns(),
        });
    }
}

/// Core workload: retract-candidate evaluation over the canonical
/// universal solution of the scaled Example 2.1 source.
fn bench_core(h: &mut Harness, rows: &mut Vec<ScalingRow>) {
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
    let n = if smoke() { 4 } else { 16 };
    let s = dex_datagen::example_2_1_scaled(n);
    let canon = canonical_universal_solution(&setting, &s, &ChaseBudget::default()).unwrap();
    let baseline = core(&canon);
    for t in THREADS {
        let pool = Pool::new(t);
        h.bench(&format!("core_of_canonical/threads/{t}"), || {
            let c = core_parallel_governed(&canon, &Governor::unlimited(), &pool).instance;
            assert_eq!(c, baseline, "core differs at {t} threads");
        });
        rows.push(ScalingRow {
            workload: "core".into(),
            threads: t,
            median_ns: h.results().last().unwrap().median_ns(),
        });
    }
}

/// Certain-answer workload: □Q over the full valuation space of a
/// null-heavy target — the valuation ranges split across workers.
fn bench_certain_answers(h: &mut Harness, rows: &mut Vec<ScalingRow>) {
    let setting = parse_setting(
        "source { P/1 }
         target { F/2 }
         st { P(x) -> exists z . F(x,z); }",
    )
    .unwrap();
    let nulls = if smoke() { 2 } else { 6 };
    let atoms: String = (1..=nulls).map(|i| format!("F(a,_{i}). ")).collect();
    let t_inst: Instance = parse_instance(&atoms).unwrap();
    let q = parse_query("Q(x) :- F(a,x)").unwrap();
    let pool = answer_pool(&t_inst, &q, []);
    let limits = ModalLimits::default();
    let box_q = |exec: &Pool| -> Answers {
        certain_answers(
            &setting,
            &q,
            &t_inst,
            &pool,
            &limits,
            &Governor::unlimited(),
            exec,
        )
        .unwrap()
        .unwrap()
        .proven
    };
    let baseline = box_q(&Pool::seq());
    for t in THREADS {
        let exec = Pool::new(t);
        h.bench(&format!("certain_answers/threads/{t}"), || {
            let ans = box_q(&exec);
            assert_eq!(ans, baseline, "certain answers differ at {t} threads");
        });
        rows.push(ScalingRow {
            workload: "certain_answers".into(),
            threads: t,
            median_ns: h.results().last().unwrap().median_ns(),
        });
    }
}

/// Large-core workload: the `redundant_null_instance` family, 544 atoms
/// at full size. Its 512 null components are single atoms, all searched
/// in one retract pass whose `Pool::map` is sized past the inline
/// threshold, so the pass fans out at every width above one.
fn bench_core_large(h: &mut Harness, rows: &mut Vec<ScalingRow>) {
    let (blocks, width) = if smoke() { (4, 2) } else { (32, 16) };
    let inst = dex_datagen::redundant_null_instance(blocks, width);
    let baseline = core(&inst);
    assert_eq!(baseline.len(), blocks, "core must be exactly the hubs");
    for t in THREADS {
        let pool = Pool::new(t);
        h.bench(&format!("core_of_large/threads/{t}"), || {
            let c = core_parallel_governed(&inst, &Governor::unlimited(), &pool).instance;
            assert_eq!(c, baseline, "large core differs at {t} threads");
        });
        rows.push(ScalingRow {
            workload: "core_large".into(),
            threads: t,
            median_ns: h.results().last().unwrap().median_ns(),
        });
    }
}

/// Dispatch cost: a fixed 64-item map job pushed through the persistent
/// parked pool (threshold forced to zero so it cannot fall back inline).
/// This is the number the sequential-fallback threshold is calibrated
/// against.
fn bench_dispatch(h: &mut Harness) {
    let items: Vec<u64> = (0..64).collect();
    let work = |i: usize, x: u64| -> u64 {
        // A couple of µs of deterministic integer churn per item.
        let mut acc = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..500 {
            acc = acc.rotate_left(7) ^ (i as u64);
        }
        acc
    };
    let want: Vec<u64> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();
    let pool = Pool::new(2).with_threshold_ns(0);
    h.bench("dispatch/persistent_pool", || {
        let got = pool.map(&items, dex_core::Cost::Light, |i, &x| work(i, x));
        assert_eq!(got, want);
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

fn dump_json(measurements: &[Measurement], rows: &[ScalingRow], cpus: usize, gate_armed: bool) {
    let base = |workload: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.threads == 1)
            .map(|r| r.median_ns)
            .unwrap_or(0)
    };
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("par"))
        .with("cpus", JsonValue::uint(cpus as u64))
        .with("smoke", JsonValue::Bool(smoke()))
        .with("gate_armed", JsonValue::Bool(gate_armed))
        .with(
            "benches",
            JsonValue::Arr(measurements.iter().map(measurement_json).collect()),
        )
        .with(
            "scaling",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("workload", JsonValue::str(r.workload.clone()))
                            .with("threads", JsonValue::uint(r.threads as u64))
                            .with("median_ns", JsonValue::UInt(r.median_ns))
                            .with(
                                "speedup_vs_1",
                                JsonValue::Float(r.speedup_vs(base(&r.workload))),
                            )
                    })
                    .collect(),
            ),
        );
    let out = doc.pretty() + "\n";
    dex_obs::parse(&out).expect("BENCH_par.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_par.json");
    std::fs::write(&path, out).expect("write BENCH_par.json");
    println!("wrote {}", path.display());
}

fn main() {
    // `with_min_runs` keeps p95 non-null for this group even in smoke
    // mode: the scaling table is the artifact CI archives, and a null
    // tail quantile there reads as a missing measurement.
    let mut h = Harness::new("par").with_min_runs(10);
    let mut rows: Vec<ScalingRow> = Vec::new();
    bench_enumeration(&mut h, &mut rows);
    bench_core(&mut h, &mut rows);
    bench_certain_answers(&mut h, &mut rows);
    bench_core_large(&mut h, &mut rows);
    bench_dispatch(&mut h);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The acceptance gate: ≥2× at 4 threads on the large-core workload
    // (the one sized past the fallback threshold) — only meaningful with
    // ≥4 real CPUs and full-size inputs. The paper-sized workloads run
    // inline by design and are expected to sit at ~1×. Whether the gate
    // actually fired is printed loudly AND recorded in the dump: a
    // baseline produced on a 1-CPU machine must not read as a passed
    // speedup check.
    let gate_armed = cpus >= 4 && !smoke();
    if gate_armed {
        let median = |t: usize| {
            rows.iter()
                .find(|r| r.workload == "core_large" && r.threads == t)
                .unwrap()
                .median_ns
        };
        let speedup = median(1) as f64 / median(4).max(1) as f64;
        assert!(
            speedup >= 2.0,
            "core_large speedup at 4 threads is {speedup:.2}x, expected >= 2x"
        );
        println!("GATE ARMED (cpus={cpus}): core_large >=2x at 4 threads verified ({speedup:.2}x)");
    } else {
        println!(
            "GATE UNARMED (cpus={cpus}, smoke={}): core_large speedup gate did NOT run",
            smoke()
        );
    }
    dump_json(h.results(), &rows, cpus, gate_armed);
    h.finish();
}
