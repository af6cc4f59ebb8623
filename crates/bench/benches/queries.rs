//! Query-answering benchmarks (experiments E1, E3, E9, E10, E12, E13):
//! the Table 1 families — polynomial UCQ certain answers (and the
//! `exchange` read of `perfbench` over its core), the §3
//! anomaly query, the co-NP 3-SAT family, path-system certain
//! answers — plus the constraint-propagation-vs-oracle comparison on
//! the `keyed_pinned_instance` family.
//!
//! `cargo bench -p dex-bench --bench queries`; set `DEX_BENCH_SMOKE=1`
//! for a tiny-size smoke run (any panic exits nonzero). Every run dumps
//! `BENCH_query.json` — at the workspace root, or under `DEX_BENCH_OUT`
//! when set — recording per-bench medians, the propagation reports
//! (oracle vs residual valuation counts), and the propagation-vs-oracle
//! agreement checks, which are asserted on every run.

use dex_chase::ChaseBudget;
use dex_core::{Governor, Pool};
use dex_cwa::core_solution;
use dex_datagen::{layered_setting, random_3cnf, random_source, LayeredConfig, SourceConfig};
use dex_logic::{parse_instance, parse_query, Query};
use dex_obs::JsonValue;
use dex_query::{
    answer_pool, answers, certain_answers, certain_answers_propagated, maybe_answers,
    maybe_answers_propagated, ucq_certain_answers, ModalLimits, PropagationReport, Semantics,
};
use dex_reductions::{
    copy_instance, copying_setting, section_3_anomaly, solvable_via_certain_answers,
    two_cycles_with_p, unsat_via_certain_answers, PathSystem,
};
use dex_testkit::bench::{sizes, smoke, Harness, Measurement};

fn gov() -> Governor {
    Governor::unlimited()
}

fn bench_ucq_certain_pathsys(h: &mut Harness) {
    for n in sizes(&[16, 32, 64], &[8]) {
        let ps = PathSystem::chain(n);
        h.bench(&format!("pathsys_certain_ucq/{n}"), || {
            let solved = solvable_via_certain_answers(&ps).unwrap();
            assert_eq!(solved.len(), n + 2);
        });
    }
}

fn bench_ucq_certain_keyed(h: &mut Harness) {
    let setting = dex_logic::parse_setting(
        "source { P/1, Q/2 }
         target { F/2 }
         st {
           d1: P(x) -> exists z . F(x,z);
           d2: Q(x,y) -> F(x,y);
         }
         t { key: F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let q = parse_query("Q(x,y) :- F(x,y)").unwrap();
    for n in sizes(&[16, 32, 64], &[8]) {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("P(a{i}). "));
            if i % 2 == 0 {
                text.push_str(&format!("Q(a{i},b{i}). "));
            }
        }
        let s = parse_instance(&text).unwrap();
        h.bench(&format!("egds_certain_ucq/{n}"), || {
            answers(&setting, &s, &q, Semantics::Certain).unwrap();
        });
    }
}

/// The `exchange` read of `perfbench`: its layered setting (four layers
/// of existential up-tgds, swap and join tgds), one of its sources and
/// its four two-disjunct UCQs, answered with `Q(T)↓` over the core.
fn bench_ucq_answers_exchange_core(h: &mut Harness) {
    let setting = layered_setting(&LayeredConfig {
        source_rels: 2,
        layers: 4,
        rels_per_layer: 2,
        up_tgds_per_layer: 2,
        full_tgds_per_layer: 1,
        join_tgds_per_layer: 1,
        with_egds: false,
        rich_breaking: false,
        seed: 3,
    });
    let (num_constants, tuples_per_relation) = if smoke() { (10, 20) } else { (40, 120) };
    let source = random_source(
        &setting.source,
        &SourceConfig {
            num_constants,
            tuples_per_relation,
            seed: 29,
        },
    );
    let core = core_solution(&setting, &source, &ChaseBudget::default()).unwrap();
    let queries: Vec<Query> = (0..4)
        .map(|l| {
            parse_query(&format!(
                "Q(x,y) :- T{l}_0(x,z), T{l}_1(z,y); Q(x,y) :- T{l}_1(x,z), T{l}_0(z,y)"
            ))
            .unwrap()
        })
        .collect();
    h.bench("ucq_answers/exchange_core", || {
        for q in &queries {
            std::hint::black_box(ucq_certain_answers(q, &core));
        }
    });
}

fn bench_sat_certain(h: &mut Harness) {
    // co-NP family: one size only here (larger sizes live in the
    // `table1` binary — each run is seconds).
    let n = 3usize;
    let cnf = random_3cnf(n, (n as f64 * 4.3) as usize, 11);
    h.bench(&format!("sat_certain_unsat_check/{n}"), || {
        unsat_via_certain_answers(&cnf).unwrap();
    });
}

fn bench_anomaly(h: &mut Harness) {
    for n in sizes(&[9, 15, 21], &[9]) {
        h.bench(&format!("section3_anomaly/{n}"), || {
            let report = section_3_anomaly(n);
            assert_eq!(report.cwa_certain.len(), 2 * n);
        });
    }
}

fn bench_fo_eval_on_copy(h: &mut Harness) {
    // Naive FO evaluation scaling (the §3 query on growing cycles).
    let schema = dex_core::Schema::of(&[("E", 2), ("P", 1)]);
    let _setting = copying_setting(&schema);
    let q = parse_query("Q(x) := Pp(x) | exists y,z . (Pp(y) & Ep(y,z) & !Pp(z))").unwrap();
    for n in sizes(&[6, 12, 24], &[6]) {
        let copy = copy_instance(&two_cycles_with_p(n));
        h.bench(&format!("fo_naive_eval/{n}"), || {
            dex_query::eval_query(&q, &copy);
        });
    }
}

/// One propagation row for the JSON dump: what the analysis did plus the
/// measured median.
struct PropRow {
    name: String,
    report: PropagationReport,
    median_ns: u128,
    oracle_median_ns: Option<u128>,
}

/// E13: constraint propagation vs the brute-force valuation oracle on
/// the `keyed_pinned_instance` family. The small configuration is within
/// the oracle's reach — both engines run, agreement is asserted, and
/// both medians land in the dump. The large configuration (12 pinned
/// nulls + 2 free) has an oracle space of `|pool|^14 ≈ 10^22`
/// valuations; only propagation runs, and its median must stay
/// interactive.
fn bench_propagation_vs_oracle(h: &mut Harness, rows: &mut Vec<PropRow>) {
    let setting = dex_logic::parse_setting(dex_datagen::keyed_pinned_setting()).unwrap();
    let q_f = parse_query("Q(x,y) :- F(x,y)").unwrap();
    let q_g = parse_query("Q(x,y) :- G(x,y)").unwrap();
    let exec = Pool::seq();
    let limits = ModalLimits::default();

    // Small configuration: 2 pinned + 1 free null — the oracle's
    // |pool|^3 space completes quickly.
    let t = dex_datagen::keyed_pinned_instance(2, 1);
    for (q, tag) in [(&q_f, "F"), (&q_g, "G")] {
        let pool = answer_pool(&t, q, []);
        let oracle_box = certain_answers(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
        let oracle_dia = maybe_answers(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
        h.bench(&format!("oracle_certain/{tag}/2p1f"), || {
            let got = certain_answers(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
            assert_eq!(got, oracle_box);
        });
        let oracle_median_ns = h.results().last().unwrap().median_ns();
        let mut report = PropagationReport::default();
        h.bench(&format!("propagate_certain/{tag}/2p1f"), || {
            let (got, r) =
                certain_answers_propagated(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
            assert_eq!(got, oracle_box, "propagation disagrees with the oracle");
            report = r;
        });
        let (dia, _) =
            maybe_answers_propagated(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
        assert_eq!(dia, oracle_dia, "◇ propagation disagrees with the oracle");
        rows.push(PropRow {
            name: format!("propagate_certain/{tag}/2p1f"),
            report,
            median_ns: h.results().last().unwrap().median_ns(),
            oracle_median_ns: Some(oracle_median_ns),
        });
    }

    // Large configuration: 12 pinned + 2 free. The oracle errors out
    // (its space exceeds ModalLimits::default()); propagation answers
    // interactively.
    let (pinned, free) = if smoke() { (6, 1) } else { (12, 2) };
    let t = dex_datagen::keyed_pinned_instance(pinned, free);
    for (q, tag) in [(&q_f, "F"), (&q_g, "G")] {
        let pool = answer_pool(&t, q, []);
        assert!(
            certain_answers(&setting, q, &t, &pool, &limits, &gov(), &exec).is_err(),
            "the oracle should be out of reach at {pinned}+{free} nulls"
        );
        let mut report = PropagationReport::default();
        h.bench(&format!("propagate_certain/{tag}/{pinned}p{free}f"), || {
            let (got, r) =
                certain_answers_propagated(&setting, q, &t, &pool, &limits, &gov(), &exec).unwrap();
            let got = got.expect("Rep is nonempty");
            assert_eq!(got.proven.len(), if tag == "F" { pinned } else { 0 });
            report = r;
        });
        let median_ns = h.results().last().unwrap().median_ns();
        if !smoke() {
            assert!(
                report.oracle_valuations > 10u128.pow(13),
                "oracle space {} not past 10^13",
                report.oracle_valuations
            );
            assert!(
                median_ns < 100_000_000,
                "{pinned}-null certain answers took {median_ns}ns, expected interactive (<100ms)"
            );
        }
        rows.push(PropRow {
            name: format!("propagate_certain/{tag}/{pinned}p{free}f"),
            report,
            median_ns,
            oracle_median_ns: None,
        });
    }
}

/// The propagation engine must agree with the oracle on the paper's
/// worked example (Example 2.1's core): asserted on every run, recorded
/// in the dump.
fn assert_example_2_1_agreement() {
    let setting = dex_logic::parse_setting(
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
    let t = parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap();
    let limits = ModalLimits::default();
    let exec = Pool::seq();
    for qt in [
        "Q(x,y) :- E(x,y)",
        "Q(x) :- F(a,x)",
        "Q(x) :- E(x,y), F(x,z), y != z",
    ] {
        let q = parse_query(qt).unwrap();
        let pool = answer_pool(&t, &q, []);
        let (pb, _) =
            certain_answers_propagated(&setting, &q, &t, &pool, &limits, &gov(), &exec).unwrap();
        let ob = certain_answers(&setting, &q, &t, &pool, &limits, &gov(), &exec).unwrap();
        assert_eq!(pb, ob, "□ disagreement on example 2.1 for {qt}");
        let (pd, _) =
            maybe_answers_propagated(&setting, &q, &t, &pool, &limits, &gov(), &exec).unwrap();
        let od = maybe_answers(&setting, &q, &t, &pool, &limits, &gov(), &exec).unwrap();
        assert_eq!(pd, od, "◇ disagreement on example 2.1 for {qt}");
    }
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

fn dump_json(measurements: &[Measurement], rows: &[PropRow]) {
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("queries"))
        .with("smoke", JsonValue::Bool(smoke()))
        .with(
            "benches",
            JsonValue::Arr(measurements.iter().map(measurement_json).collect()),
        )
        .with(
            "propagation",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("name", JsonValue::str(r.name.clone()))
                            .with("median_ns", JsonValue::UInt(r.median_ns))
                            .with(
                                "oracle_median_ns",
                                r.oracle_median_ns.map_or(JsonValue::Null, JsonValue::UInt),
                            )
                            .with("nulls", JsonValue::uint(r.report.nulls as u64))
                            .with("merged", JsonValue::uint(r.report.merged as u64))
                            .with("inert", JsonValue::uint(r.report.inert as u64))
                            .with(
                                "oracle_valuations",
                                JsonValue::str(r.report.oracle_valuations.to_string()),
                            )
                            .with(
                                "residual_valuations",
                                JsonValue::str(r.report.residual_valuations.to_string()),
                            )
                            .with("fell_back", JsonValue::Bool(r.report.fell_back))
                    })
                    .collect(),
            ),
        )
        .with("example_2_1_agreement", JsonValue::Bool(true));
    let out = doc.pretty() + "\n";
    dex_obs::parse(&out).expect("BENCH_query.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_query.json");
    std::fs::write(&path, out).expect("write BENCH_query.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut h = Harness::new("queries");
    bench_ucq_certain_pathsys(&mut h);
    bench_ucq_certain_keyed(&mut h);
    bench_sat_certain(&mut h);
    bench_anomaly(&mut h);
    bench_fo_eval_on_copy(&mut h);
    let mut rows = Vec::new();
    bench_propagation_vs_oracle(&mut h, &mut rows);
    // Last: its source interns `c0..c39` in random order, and constants
    // order by symbol id, so a row after it over `c{i}` constants (the
    // SAT gadget's clauses, the keyed pinned instances) would enumerate
    // in another order and time other work.
    bench_ucq_answers_exchange_core(&mut h);
    // Asserted (not just recorded): the dump's `example_2_1_agreement`
    // field is backed by this check having passed.
    assert_example_2_1_agreement();
    dump_json(h.results(), &rows);
    h.finish();
}
