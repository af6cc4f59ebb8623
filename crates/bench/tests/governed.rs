//! Fault-injected recovery for every governed search (ISSUE 3).
//!
//! Each test sweeps seeded [`FaultPlan`]s: the plan decides — purely from
//! the seed — on which governor tick to trip and with which reason, so a
//! failing case replays exactly with `DEX_FAULT_SEED=<seed>`. The
//! properties checked per seed:
//!
//! - interruption is *deterministic*: the same plan trips on the same
//!   tick with the same partial result, twice in a row;
//! - interruption is *clean*: partial results still satisfy their
//!   structural invariants (a tripped core is a hom-equivalent retract, a
//!   tripped verdict set never contradicts the ungoverned truth);
//! - interruption is *recoverable*: re-running without the fault agrees
//!   with the ungoverned API.
//!
//! The deadline tests drive the adversarial settings (`D_halt` on a
//! non-halting machine, the co-NP-hard 3-SAT certain-answers encoding)
//! and require a clean interrupt within a real wall-clock budget.

use std::time::{Duration, Instant};

use dex_chase::ChaseBudget;
use dex_core::govern::{Governor, InterruptReason};
use dex_core::{
    core_parallel_governed, hom_equivalent, is_core, Atom, GovernedCore, HomFinder, Instance, Pool,
    Value,
};
use dex_cwa::{is_cwa_presolution, SearchLimits};
use dex_logic::{parse_instance, parse_setting, Setting};
use dex_query::{
    answer_pool, certain_answers, AnswerConfig, AnswerEngine, ModalLimits, Semantics, Verdict,
};
use dex_reductions::halting::forever_right;
use dex_reductions::{cnf_to_source, probe_halting, sat_setting, unsat_query, Cnf, HaltProbe};
use dex_testkit::FaultPlan;

const SEED_BASE: u64 = 0;
const SEED_COUNT: u64 = 64;

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

/// The sequential governed core.
fn seq_core(inst: &Instance, gov: &Governor) -> GovernedCore {
    core_parallel_governed(inst, gov, &Pool::seq())
}

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

/// A null path of length `n` plus a self-loop: the core is the loop, and
/// both the hom search and the retraction have real work to interrupt.
fn redundant_instance(n: u32) -> Instance {
    let mut atoms = vec![Atom::of("E", vec![Value::konst("a"), Value::konst("a")])];
    for i in 0..n {
        atoms.push(Atom::of("E", vec![Value::null(i), Value::null(i + 1)]));
    }
    Instance::from_atoms(atoms)
}

/// The same fault plan trips the same search on the same tick, twice.
#[test]
fn fault_trips_are_deterministic_per_seed() {
    let from = redundant_instance(8);
    let to = parse_instance("E(a,a). E(a,b). E(b,a).").unwrap();
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let plan = FaultPlan::from_seed(seed, 64);
        let run = |gov: &Governor| {
            let out = HomFinder::new(&from, &to).find(gov);
            (out.map(|h| h.is_some()), gov.ticks())
        };
        let (r1, t1) = run(&fault_gov(&plan));
        let (r2, t2) = run(&fault_gov(&plan));
        assert_eq!(r1, r2, "seed {seed}: result diverged");
        assert_eq!(t1, t2, "seed {seed}: tick count diverged");
        if let Err(i) = r1 {
            assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
            // The fault is compared on every tick, so the trip point is
            // exact — this is what DEX_FAULT_SEED replays.
            assert_eq!(i.progress.ticks, plan.trip_at, "seed {seed}");
        }
    }
}

/// A tripped core computation still returns a hom-equivalent retract.
#[test]
fn interrupted_core_is_still_a_retract() {
    let inst = redundant_instance(10);
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let plan = FaultPlan::from_seed(seed, 512);
        let g = seq_core(&inst, &fault_gov(&plan));
        assert!(
            g.instance.is_subinstance_of(&inst),
            "seed {seed}: core left the instance"
        );
        assert!(
            hom_equivalent(&g.instance, &inst),
            "seed {seed}: core not hom-equivalent"
        );
        if g.is_minimal() {
            assert!(is_core(&g.instance), "seed {seed}: minimal but not a core");
        }
    }
}

/// Re-running a tripped search with the fault removed (or with any larger
/// budget) agrees with the ungoverned API.
#[test]
fn rerun_after_interrupt_agrees_with_ungoverned() {
    let d = example_2_1();
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    let t = parse_instance("E(a,b). E(a,_1). F(a,_2). G(_2,_3).").unwrap();
    let limits = SearchLimits::default();
    let truth = is_cwa_presolution(&d, &s, &t, &limits, &Governor::unlimited());
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let plan = FaultPlan::from_seed(seed, 48);
        let faulted = is_cwa_presolution(&d, &s, &t, &limits, &fault_gov(&plan));
        if let Err(i) = faulted {
            assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
        }
        // Recovery: drop the fault, keep a governor armed with ample
        // fuel — must reproduce the ungoverned answer.
        let recovered = is_cwa_presolution(
            &d,
            &s,
            &t,
            &limits,
            &Governor::unlimited().with_fuel(1_000_000),
        );
        assert_eq!(recovered, truth, "seed {seed}");
    }
}

/// Satellite 1 regression: a tiny deadline on `D_halt` with a non-halting
/// machine returns a structured interrupt — no panic, no unbounded run.
#[test]
fn d_halt_tiny_deadline_interrupts_not_panics() {
    let budget = ChaseBudget::default().with_deadline(Duration::from_nanos(1));
    match probe_halting(&forever_right(), &budget) {
        HaltProbe::Interrupted(i) => {
            assert_eq!(i.reason, InterruptReason::Deadline);
        }
        other => panic!("expected a deadline interrupt, got {other:?}"),
    }
}

/// The undecidable and co-NP-hard workloads all come back within a 50ms
/// deadline, each with a clean outcome: chase on a diverging `D_halt`
/// run, core of a redundant instance, and 3-SAT certain answers.
#[test]
fn fifty_ms_deadline_yields_clean_interrupts() {
    let deadline = Duration::from_millis(50);

    // Chase: forever_right never halts, so only the deadline (or the
    // step budget, on a very fast machine) can end the run.
    let start = Instant::now();
    let budget = ChaseBudget::new(usize::MAX, usize::MAX).with_deadline(deadline);
    match probe_halting(&forever_right(), &budget) {
        HaltProbe::Interrupted(i) => assert_eq!(i.reason, InterruptReason::Deadline),
        other => panic!("expected a deadline interrupt, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "deadline was not honored in wall-clock time"
    );

    // Core under deadline: clean either way (minimal or tagged).
    let g = seq_core(
        &redundant_instance(24),
        &Governor::unlimited().with_deadline(deadline),
    );
    assert!(hom_equivalent(&g.instance, &redundant_instance(24)));

    // 3-SAT certain answers: 12 nulls over a ~30-constant pool is ~10^17
    // valuations — unfinishable, so the deadline must degrade it to
    // Unknown rather than hang or fabricate an answer.
    let cnf = Cnf::new(
        12,
        vec![
            [1, 2, 3],
            [-1, -2, -3],
            [4, 5, 6],
            [-4, -5, -6],
            [7, 8, 9],
            [10, 11, 12],
        ],
    );
    let d = sat_setting();
    let s = cnf_to_source(&cnf);
    let q = unsat_query();
    let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
    let can = engine.cansol().expect("sat setting has no target deps");
    let pool = answer_pool(can, &q, s.constants());
    let limits = ModalLimits {
        max_valuations: u128::MAX,
    };
    let gov = Governor::unlimited().with_deadline(deadline);
    let start = Instant::now();
    let g = certain_answers(&d, &q, can, &pool, &limits, &gov, &Pool::seq())
        .unwrap()
        .expect("Rep is never empty here");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "deadline was not honored in wall-clock time"
    );
    assert!(!g.is_complete(), "10^17 valuations finished in 50ms?");
    assert_eq!(g.interrupt.unwrap().reason, InterruptReason::Deadline);
    // Nothing definite may be fabricated: the Boolean UNSAT answer must
    // be Unknown, not a bogus True/False.
    assert!(g.verdict(&[]).is_unknown());
}

/// The harshest plan — one tick of fuel — trips every governed API at
/// its first check, and every one degrades cleanly instead of panicking.
#[test]
fn one_tick_fuel_trips_every_governed_api_cleanly() {
    let fuel1 = || Governor::unlimited().with_fuel(1);

    let inst = redundant_instance(6);
    let to = parse_instance("E(a,a).").unwrap();
    assert!(HomFinder::new(&inst, &to).find(&fuel1()).is_err());

    let g = seq_core(&inst, &fuel1());
    assert!(!g.is_minimal());
    assert!(hom_equivalent(&g.instance, &inst));

    let d = example_2_1();
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    let t = parse_instance("E(a,b). E(a,_1). F(a,_2). G(_2,_3).").unwrap();
    assert!(is_cwa_presolution(&d, &s, &t, &SearchLimits::default(), &fuel1()).is_err());

    let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
    let q = dex_logic::parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
    for sem in [
        Semantics::Certain,
        Semantics::PotentialCertain,
        Semantics::PersistentMaybe,
        Semantics::Maybe,
    ] {
        let g = engine.answers_governed(&q, sem, &fuel1()).unwrap();
        g.validate().unwrap_or_else(|e| panic!("{sem:?}: {e}"));
        assert!(!g.is_complete(), "{sem:?}");
        assert!(g.proven.is_empty(), "{sem:?}: proved something in one tick");
    }
}

/// EnumStats bookkeeping stays consistent across fault-perturbed
/// enumeration runs: seeded tight step budgets and pre-raised cancel
/// flags cover the complete / truncated / unfinished / interrupted
/// outcome classes, and every outcome validates and serialises.
#[test]
fn faulted_enumeration_stats_stay_consistent() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let d = example_2_1();
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let plan = FaultPlan::from_seed(seed, 96);
        let mut budget = ChaseBudget::new(plan.trip_at as usize, 8_000);
        if plan.reason_idx == 3 {
            budget = budget.with_cancel(Arc::new(AtomicBool::new(true)));
        }
        let limits = dex_cwa::EnumLimits {
            chase_budget: budget,
            max_scripts: 200,
            ..dex_cwa::EnumLimits::default()
        };
        let runs = [
            dex_cwa::enumerate_cwa_presolutions(&d, &s, &limits).1,
            dex_cwa::enumerate_cwa_solutions(&d, &s, &limits).1,
        ];
        for stats in runs {
            stats
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} (plan {}): {e}", plan.to_json().dump()));
            let j = stats.to_json();
            assert_eq!(dex_obs::parse(&j.dump()).unwrap(), j);
        }
    }
}

/// Fault-injected engine verdicts never contradict the ungoverned truth,
/// across all four semantics and the full seed sweep.
#[test]
fn faulted_engine_verdicts_are_sound_per_seed() {
    let d = example_2_1();
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
    let q = dex_logic::parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
    for sem in [
        Semantics::Certain,
        Semantics::PotentialCertain,
        Semantics::PersistentMaybe,
        Semantics::Maybe,
    ] {
        let truth = engine.answers(&q, sem).unwrap();
        for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
            let plan = FaultPlan::from_seed(seed, 96);
            let g = engine.answers_governed(&q, sem, &fault_gov(&plan)).unwrap();
            g.validate().unwrap_or_else(|e| {
                panic!("{sem:?} seed {seed} (plan {}): {e}", plan.to_json().dump())
            });
            for t in &g.proven {
                assert!(truth.contains(t), "{sem:?} seed {seed}: bogus True {t:?}");
            }
            for t in &g.refuted {
                assert!(!truth.contains(t), "{sem:?} seed {seed}: bogus False {t:?}");
            }
            if g.default == Verdict::False {
                for t in &truth {
                    assert!(
                        g.proven.contains(t) || g.undetermined.contains(t),
                        "{sem:?} seed {seed}: {t:?} silently defaulted to False"
                    );
                }
            }
        }
    }
}
