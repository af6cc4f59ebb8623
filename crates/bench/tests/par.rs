//! 64-seed differential property: `parallel ≡ sequential` (ISSUE 5).
//!
//! Every fan-out path of the engine — CWA-solution enumeration, core
//! computation, homomorphism search, and certain/maybe answers — is run
//! on worker pools of 1, 2 and 8 threads against the sequential
//! reference, over seeded random workloads. The contract under test is
//! the `dex-par` determinism guarantee: identical results (not just
//! isomorphic) for every thread count, identical merged counters, and —
//! for governed/faulted runs — the same `Interrupt` reason as the
//! sequential trip, with merged stats that still `validate()`.
//!
//! A failing seed replays alone with `DEX_FAULT_SEED=<seed>`.

use dex_chase::{canonical_universal_solution, ChaseBudget};
use std::sync::Arc;

use dex_core::govern::{Clock, Governor, InterruptReason};
use dex_core::{core, core_parallel_governed, hom_equivalent, Atom, Instance, Pool, Value};
use dex_cwa::{enumerate_cwa_presolutions, enumerate_cwa_solutions, EnumLimits};
use dex_datagen::{mapping_scenario, random_source, ScenarioConfig, SourceConfig};
use dex_logic::{parse_query, parse_setting, Setting};
use dex_obs::{RingRecorder, Tracer};
use dex_query::{answer_pool, certain_answers, maybe_answers, Answers, ModalLimits};
use dex_testkit::rng::TestRng;
use dex_testkit::FaultPlan;

const SEED_BASE: u64 = 0;
const SEED_COUNT: u64 = 64;

/// The differential pools force `threshold_ns = 0`: the seeded workloads
/// are paper-sized, so under the production threshold every one of them
/// would fall back inline and the suite would stop exercising the worker
/// pool at all. Threshold zero routes every multi-item job through real
/// workers, which is the configuration this determinism contract is about.
fn pools() -> [Pool; 3] {
    [
        Pool::new(1).with_threshold_ns(0),
        Pool::new(2).with_threshold_ns(0),
        Pool::new(8).with_threshold_ns(0),
    ]
}

fn reason_for(idx: u8) -> InterruptReason {
    match idx % 4 {
        0 => InterruptReason::Fuel,
        1 => InterruptReason::Deadline,
        2 => InterruptReason::Memory,
        _ => InterruptReason::Cancelled,
    }
}

fn fault_gov(plan: &FaultPlan) -> Governor {
    Governor::unlimited().with_fault(plan.trip_at, reason_for(plan.reason_idx))
}

/// A small seeded mapping scenario plus a matching random source.
fn scenario(seed: u64) -> (Setting, Instance) {
    let d = mapping_scenario(&ScenarioConfig {
        copies: 1,
        partitions: 1,
        surrogates: 1,
        seed,
    });
    let s = random_source(
        &d.source,
        &SourceConfig {
            num_constants: 3,
            tuples_per_relation: 2,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
    );
    (d, s)
}

/// Enumeration, plain and under a fault-injected governor: solutions,
/// presolutions, the whole `EnumStats` (interrupt progress included)
/// and the mock-clock trace on the governor's tracer are identical at
/// 1, 2 and 8 threads, per seed, and every outcome validates. A fault
/// trips on the same replay at every thread count; the parked mock
/// clock zeroes the merged chase timings, so the stats compare whole.
#[test]
fn parallel_enumeration_matches_sequential_per_seed() {
    let limits = EnumLimits {
        max_scripts: 200,
        ..EnumLimits::default()
    };
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let (d, s) = scenario(seed);
        let plan = FaultPlan::from_seed(seed, 32);
        for faulted in [false, true] {
            let run = |pool: &Pool| {
                let ring = Arc::new(RingRecorder::new(1 << 18));
                let gov = || {
                    let gov = Governor::with_clock_now(Clock::mock().0)
                        .with_tracer(Tracer::new(ring.clone()));
                    if faulted {
                        gov.with_fault(plan.trip_at, reason_for(plan.reason_idx))
                    } else {
                        gov
                    }
                };
                let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits, &gov(), pool);
                stats
                    .validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                if let Some(i) = &stats.interrupted {
                    assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
                }
                let (pres, _) = enumerate_cwa_presolutions(&d, &s, &limits, &gov(), pool);
                assert_eq!(ring.dropped(), 0, "seed {seed}: ring too small");
                (sols, pres, format!("{stats:?}"), ring.to_jsonl())
            };
            let reference = run(&Pool::seq());
            for pool in pools() {
                let threads = pool.threads();
                let differs = run(&pool) != reference;
                assert!(
                    !differs,
                    "seed {seed} (faulted: {faulted}): {threads} threads differ"
                );
            }
        }
    }
}

/// A seeded instance with real core work: a null path (redundant) plus a
/// few random ground loop atoms it can retract onto.
fn redundant_instance(seed: u64) -> Instance {
    let mut rng = TestRng::seed_from_u64(seed);
    let n = rng.gen_range(3..9u32);
    let mut atoms = vec![Atom::of("E", vec![Value::konst("a"), Value::konst("a")])];
    for _ in 0..rng.gen_range(0..3usize) {
        let (x, y) = (rng.gen_range(0..3u32), rng.gen_range(0..3u32));
        atoms.push(Atom::of(
            "E",
            vec![
                Value::konst(&format!("c{x}")),
                Value::konst(&format!("c{y}")),
            ],
        ));
    }
    for i in 0..n {
        atoms.push(Atom::of("E", vec![Value::null(i), Value::null(i + 1)]));
    }
    Instance::from_atoms(atoms)
}

/// Core retraction: identical instance at every thread count; faulted
/// governed runs keep the retract invariant and surface the plan's
/// interrupt reason.
#[test]
fn parallel_core_matches_sequential_per_seed() {
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let inst = redundant_instance(seed);
        let core_ref = core(&inst);
        let plan = FaultPlan::from_seed(seed, 256);
        let seq_core = core_parallel_governed(&inst, &fault_gov(&plan), &Pool::new(1));
        for pool in pools() {
            assert_eq!(
                core_parallel_governed(&inst, &Governor::unlimited(), &pool).instance,
                core_ref,
                "seed {seed}: core differs at {} threads",
                pool.threads()
            );
            // Faulted governed run: the partial result must still be a
            // hom-equivalent retract, and an interrupt (if any) must
            // carry the same reason the sequential trip reports.
            let g = core_parallel_governed(&inst, &fault_gov(&plan), &pool);
            assert!(
                g.instance.is_subinstance_of(&inst),
                "seed {seed}: core left the instance"
            );
            assert!(
                hom_equivalent(&g.instance, &inst),
                "seed {seed}: not a retract at {} threads",
                pool.threads()
            );
            match (&g.status, &seq_core.status) {
                (
                    dex_core::CoreStatus::MaybeNotMinimal(i),
                    dex_core::CoreStatus::MaybeNotMinimal(i_seq),
                ) => {
                    assert_eq!(i.reason, i_seq.reason, "seed {seed}: interrupt reason");
                }
                (dex_core::CoreStatus::Minimal, _) => {
                    assert_eq!(
                        g.instance, core_ref,
                        "seed {seed}: minimal but not the core"
                    );
                }
                _ => {}
            }
        }
    }
}

/// A seeded null-heavy target instance over `F/2` for modal answers.
fn modal_workload(seed: u64) -> (Setting, Instance) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    // Seed parity picks between a free setting and one whose key egd
    // filters Rep — the latter exercises the ⊨ Σ_t check per valuation.
    let d = if seed % 2 == 0 {
        parse_setting(
            "source { P/1 }
             target { F/2 }
             st { P(x) -> exists z . F(x,z); }",
        )
        .unwrap()
    } else {
        parse_setting(
            "source { P/1 }
             target { F/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap()
    };
    let mut t = Instance::new();
    let consts = ["a", "b", "c"];
    let nulls = rng.gen_range(1..=4u32);
    for i in 1..=nulls {
        let lhs = *rng.choose(&consts).unwrap();
        t.insert(Atom::of("F", vec![Value::konst(lhs), Value::null(i)]));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let (x, y) = (rng.choose(&consts).unwrap(), rng.choose(&consts).unwrap());
        t.insert(Atom::of("F", vec![Value::konst(x), Value::konst(y)]));
    }
    (d, t)
}

/// Certain/maybe answers: identical sets at every thread count; faulted
/// governed runs validate, stay sound, and report the plan's reason.
#[test]
fn parallel_modal_answers_match_sequential_per_seed() {
    let q = parse_query("Q(x) :- F(a,x)").unwrap();
    let limits = ModalLimits::default();
    let proven = |g: dex_query::GovernedAnswers| -> Answers {
        assert!(g.is_complete());
        g.proven
    };
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let (d, t) = modal_workload(seed);
        let pool = answer_pool(&t, &q, []);
        let unlimited = Governor::unlimited();
        let seq = Pool::seq();
        let certain_ref = certain_answers(&d, &q, &t, &pool, &limits, &unlimited, &seq)
            .unwrap()
            .map(proven);
        let maybe_ref =
            proven(maybe_answers(&d, &q, &t, &pool, &limits, &unlimited, &seq).unwrap());
        let plan = FaultPlan::from_seed(seed, 128);
        for exec in pools() {
            let certain = certain_answers(&d, &q, &t, &pool, &limits, &unlimited, &exec).unwrap();
            assert_eq!(
                certain.map(proven),
                certain_ref,
                "seed {seed}: □ differs at {} threads",
                exec.threads()
            );
            let maybe = maybe_answers(&d, &q, &t, &pool, &limits, &unlimited, &exec).unwrap();
            assert_eq!(
                proven(maybe),
                maybe_ref,
                "seed {seed}: ◇ differs at {} threads",
                exec.threads()
            );
            // Faulted governed run.
            let g = certain_answers(&d, &q, &t, &pool, &limits, &fault_gov(&plan), &exec).unwrap();
            if let (Some(g), Some(truth)) = (&g, &certain_ref) {
                g.validate()
                    .unwrap_or_else(|e| panic!("seed {seed} ({} threads): {e}", exec.threads()));
                for tuple in &g.proven {
                    assert!(truth.contains(tuple), "seed {seed}: bogus True {tuple:?}");
                }
                for tuple in &g.refuted {
                    assert!(!truth.contains(tuple), "seed {seed}: bogus False {tuple:?}");
                }
                if let Some(i) = &g.interrupt {
                    assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
                }
            }
            let g = maybe_answers(&d, &q, &t, &pool, &limits, &fault_gov(&plan), &exec).unwrap();
            g.validate()
                .unwrap_or_else(|e| panic!("seed {seed} ({} threads): {e}", exec.threads()));
            for tuple in &g.proven {
                assert!(
                    maybe_ref.contains(tuple),
                    "seed {seed}: bogus True {tuple:?}"
                );
            }
            if let Some(i) = &g.interrupt {
                assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
            }
        }
    }
}

/// `Pool::from_env()` (the `DEX_THREADS` path the CLI and `ci.sh` use)
/// agrees with the sequential reference on a composite workload — under
/// `DEX_THREADS=2` in CI this is a real parallel differential.
#[test]
fn env_configured_pool_matches_sequential() {
    let (d, s) = scenario(7);
    let limits = EnumLimits {
        max_scripts: 200,
        ..EnumLimits::default()
    };
    let gov = Governor::unlimited();
    let (sols_ref, _) = enumerate_cwa_solutions(&d, &s, &limits, &gov, &Pool::seq());
    // Threshold zero: the CI workload is paper-sized, and the point of
    // this test is the `DEX_THREADS` worker path, not the inline fallback.
    let exec = Pool::from_env().with_threshold_ns(0);
    let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits, &gov, &exec);
    assert_eq!(sols, sols_ref, "DEX_THREADS enumeration differs");
    stats.validate().unwrap();

    let canon = canonical_universal_solution(&d, &s, &ChaseBudget::default()).unwrap();
    assert_eq!(
        core_parallel_governed(&canon, &Governor::unlimited(), &exec).instance,
        core(&canon)
    );
}
