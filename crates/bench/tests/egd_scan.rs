//! The semi-naive egd scan ([`dex_chase::EgdScan`]) against the naive
//! references, through every egd fixpoint that uses it: the standard
//! chase (`run`), incremental `resume`, the α-chase (`run_alpha`) and
//! `CanSol`. (The fourth caller, the forced-merge stage of □/◇
//! propagation, is checked against the same reference in
//! `dex-query`'s unit tests.)
//!
//! Four hand-built cases target the moving cursor directly, a 64-seed
//! differential covers random mapping scenarios and keyed sources, and
//! a key-chain family pins the scan's cost as a count. A failing seed
//! replays with `DEX_PROP_SEED=<seed> cargo test -q -p dex-bench --test egd_scan`.

use dex_chase::{
    alpha_chase_naive, chase_naive, egd_step, AlphaOutcome, AlphaSource, ChaseBudget, ChaseEngine,
    ChaseError, FreshAlpha, Justification, TableAlpha,
};
use dex_core::{core, isomorphic, Atom, Instance, NullGen, SourceDelta, Value};
use dex_cwa::{cansol, cansol_class, CanSolClass};
use dex_datagen::{
    conflicting_keyed_instance, conflicting_keyed_setting, mapping_scenario, random_source,
    ScenarioConfig, SourceConfig,
};
use dex_logic::{parse_instance, parse_setting, Setting};
use dex_testkit::prop::{Gen, PropResult, Runner};
use dex_testkit::rng::TestRng;

/// Libkin's canonical presolution: every s-t trigger fired once with
/// its own fresh nulls.
fn libkin_presolution(d: &Setting, s: &Instance) -> Instance {
    let mut inst = s.clone();
    let mut nulls = NullGen::above(s.values());
    for tgd in &d.st_tgds {
        for env in tgd.body.matches(s) {
            let mut full = env.clone();
            for &z in &tgd.exist_vars {
                full.bind(z, nulls.fresh_value());
            }
            for atom in tgd.instantiate_head(&full) {
                inst.insert(atom);
            }
        }
    }
    inst
}

/// The naive egd fixpoint: [`egd_step`] (a full egd join per merge)
/// until nothing violates.
fn naive_egd_fixpoint(d: &Setting, mut inst: Instance) -> Result<Instance, ChaseError> {
    while let Some(repair) = egd_step(d, &inst)? {
        inst = repair.instance;
    }
    Ok(inst)
}

fn same_core(a: &Instance, b: &Instance) -> bool {
    isomorphic(&core(a), &core(b))
}

/// `run` against `chase_naive`: cores isomorphic on success, the same
/// error class otherwise.
fn check_run(d: &Setting, s: &Instance) -> PropResult {
    let budget = ChaseBudget::default();
    match (
        ChaseEngine::new(d, &budget).run(s),
        chase_naive(d, s, &budget),
    ) {
        (Ok(f), Ok(n)) if same_core(&f.target, &n.target) => Ok(()),
        (Ok(_), Ok(_)) => Err("run and chase_naive cores differ".into()),
        (Err(ChaseError::EgdConflict { .. }), Err(ChaseError::EgdConflict { .. })) => Ok(()),
        (f, n) => Err(format!("run {f:?} vs chase_naive {n:?}")),
    }
}

/// `resume` from a run over the first `split` source atoms, inserting
/// the rest, against `chase_naive` over the whole source.
fn check_resume(d: &Setting, s: &Instance, split: usize) -> PropResult {
    let budget = ChaseBudget::default();
    let eng = ChaseEngine::new(d, &budget).with_provenance(true);
    let atoms = s.sorted_atoms();
    let (head, tail) = atoms.split_at(split.min(atoms.len()));
    let Ok(prior) = eng.run(&Instance::from_atoms(head.iter().cloned())) else {
        return Ok(()); // a conflicted prefix has nothing to resume
    };
    let mut delta = SourceDelta::new();
    for a in tail {
        delta.insert(a.clone());
    }
    match (eng.resume(&prior, &delta), chase_naive(d, s, &budget)) {
        (Ok(r), Ok(n)) if same_core(&r.target, &n.target) => {
            let prov = r.provenance.as_ref().expect("resume keeps provenance");
            prov.verify_justified(&r.result)
        }
        (Ok(_), Ok(_)) => Err("resume and chase_naive cores differ".into()),
        (Err(ChaseError::EgdConflict { .. }), Err(ChaseError::EgdConflict { .. })) => Ok(()),
        (r, n) => Err(format!("resume {r:?} vs chase_naive {n:?}")),
    }
}

/// `run_alpha` against `alpha_chase_naive` under two copies of one α.
fn check_alpha(
    d: &Setting,
    s: &Instance,
    mut alpha: impl FnMut() -> Box<dyn AlphaSource>,
) -> PropResult {
    let budget = ChaseBudget::probe();
    let fast = ChaseEngine::new(d, &budget).run_alpha(s, alpha().as_mut());
    let slow = alpha_chase_naive(d, s, alpha().as_mut(), &budget);
    match (&fast, &slow) {
        (AlphaOutcome::Success(f), AlphaOutcome::Success(n))
            if isomorphic(&f.target, &n.target) =>
        {
            Ok(())
        }
        (AlphaOutcome::Failing { .. }, AlphaOutcome::Failing { .. })
        | (AlphaOutcome::CycleDetected { .. }, AlphaOutcome::CycleDetected { .. })
        | (AlphaOutcome::BudgetExceeded { .. }, AlphaOutcome::BudgetExceeded { .. }) => Ok(()),
        _ => Err(format!("run_alpha {fast:?} vs alpha_chase_naive {slow:?}")),
    }
}

/// `cansol` against Libkin's presolution plus the naive egd fixpoint,
/// for settings in Proposition 5.4's egds-only class.
fn check_cansol(d: &Setting, s: &Instance) -> PropResult {
    if cansol_class(d) != CanSolClass::EgdsOnlyTarget {
        return Ok(());
    }
    let reference = naive_egd_fixpoint(d, libkin_presolution(d, s)).map(|i| i.difference(s));
    match (cansol(d, s, &ChaseBudget::default()), reference) {
        (Ok(Some(t)), Ok(r)) if t == r => Ok(()),
        (Err(ChaseError::EgdConflict { .. }), Err(ChaseError::EgdConflict { .. })) => Ok(()),
        (t, r) => Err(format!("cansol {t:?} vs reference {r:?}")),
    }
}

/// One case through `run`, `resume` (at every split point), `run_alpha`
/// under a fresh α, and `cansol`.
fn check_everywhere(d: &Setting, s: &Instance) {
    check_run(d, s).unwrap();
    for split in 0..=s.len() {
        check_resume(d, s, split).unwrap_or_else(|e| panic!("split {split}: {e}"));
    }
    check_alpha(d, s, || Box::new(FreshAlpha::above(s))).unwrap();
    check_cansol(d, s).unwrap();
}

/// Two key egds whose merges feed each other: unifying two `B`-keys
/// rewrites `A`-rows into a new `A` violation, whose merge rewrites
/// `B`-rows into the next one. Whichever relation the scan sweeps
/// first, a merge in the other rewrites rows it has already passed.
fn cross_relation_chain() -> Setting {
    parse_setting(
        "source { L/3 }
         target { A/2, B/2, C/2 }
         st { d: L(x,y,i) -> exists n1,n2,n3 . B(x,n1) & A(n1,n2) & B(n2,n3) & A(n3,y) & C(n3,i); }
         t {
           ka: A(x,y) & A(x,z) -> y = z;
           kb: B(x,y) & B(x,z) -> y = z;
         }",
    )
    .unwrap()
}

#[test]
fn a_merge_exposing_a_violation_in_a_relation_already_passed() {
    let d = cross_relation_chain();
    let s = parse_instance("L(c,d,1). L(c,d,2).").unwrap();
    let out = ChaseEngine::new(&d, &ChaseBudget::default())
        .run(&s)
        .unwrap();
    // The chain folds the second branch onto the first, link by link.
    assert_eq!(out.stats.egd_steps, 3);
    assert_eq!(out.target.len(), 6);
    check_everywhere(&d, &s);
    // The same chain ending in two constants fails only at its last link.
    let conflicted = parse_instance("L(c,d,1). L(c,e,2).").unwrap();
    assert!(matches!(
        ChaseEngine::new(&d, &ChaseBudget::default()).run(&conflicted),
        Err(ChaseError::EgdConflict { .. })
    ));
    check_everywhere(&d, &conflicted);
}

#[test]
fn a_merge_tombstoning_the_row_under_the_scan() {
    // F(a,⊥) is logged before F(a,c), so the scan meets the violation at
    // the null's row, and the merge ⊥ ↦ c tombstones that very row. Its
    // rewrite collapses into F(a,c), while the G-row it rewrites exposes
    // the follow-on violation G(c,⊥') / G(c,d).
    let d = parse_setting(
        "source { P/1, Q/2, R/2 }
         target { F/2, G/2 }
         st {
           dp: P(x) -> exists z,w . F(x,z) & G(z,w);
           dq: Q(x,y) -> F(x,y);
           dr: R(y,v) -> G(y,v);
         }
         t {
           kf: F(x,y) & F(x,z) -> y = z;
           kg: G(x,y) & G(x,z) -> y = z;
         }",
    )
    .unwrap();
    let s = parse_instance("P(a). Q(a,c). R(c,d).").unwrap();
    let out = ChaseEngine::new(&d, &ChaseBudget::default())
        .run(&s)
        .unwrap();
    assert_eq!(out.target, parse_instance("F(a,c). G(c,d).").unwrap());
    assert_eq!(out.stats.egd_steps, 2);
    check_everywhere(&d, &s);
}

#[test]
fn a_row_in_two_violations_with_rows_already_passed() {
    // R(d,⊥1) and R(⊥2,c) are checked clean in the first egd fixpoint;
    // the tgd round then adds R(c,d), which violates the chain egd with
    // each of them — at its first atom with R(d,⊥1), at its second with
    // R(⊥2,c). Merging the first leaves R(c,d) in place, so the scan
    // must re-check that row to find the second: both other rows are
    // behind the cursor. (The egd is not symmetric, so both atoms are
    // seeded.)
    let d = parse_setting(
        "source { A/1, B/1, C/2 }
         target { R/2, T/2 }
         st {
           d1: A(x) -> exists n . R(x,n);
           d2: B(x) -> exists n . R(n,x);
           d3: C(x,y) -> T(x,y);
         }
         t {
           d4: T(x,y) -> R(x,y);
           chain: R(x,y) & R(y,z) -> x = z;
         }",
    )
    .unwrap();
    let s = parse_instance("A(d). B(c). C(c,d).").unwrap();
    let out = ChaseEngine::new(&d, &ChaseBudget::default())
        .run(&s)
        .unwrap();
    assert_eq!(out.stats.egd_steps, 2);
    assert_eq!(
        out.target,
        parse_instance("R(c,d). R(d,c). T(c,d).").unwrap()
    );
    check_everywhere(&d, &s);
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

fn j(dep: usize, frontier: &[Value], body_only: &[Value], z_index: usize) -> Justification {
    Justification {
        dep,
        frontier: frontier.to_vec(),
        body_only: body_only.to_vec(),
        z_index,
    }
}

#[test]
fn an_alpha_merge_that_alpha_reintroduces() {
    // Example 2.1 under a fresh α and under Example 4.4's α₃: d4 merges
    // the two F-nulls away, d2's fixed ᾱ-head re-introduces the loser,
    // and the scan must find the same violation again on the re-added
    // row (a union-find would call the pair merged and stop) — both
    // drivers then report the loop. Under α₁ both justifications share
    // one null and the run succeeds.
    let d = example_2_1();
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let (a, b, c) = (Value::konst("a"), Value::konst("b"), Value::konst("c"));
    let n = Value::null;
    let alpha3 = || {
        TableAlpha::new([
            (j(1, &[a], &[b], 0), b),
            (j(1, &[a], &[b], 1), n(3)),
            (j(1, &[a], &[c], 0), b),
            (j(1, &[a], &[c], 1), n(4)),
            (j(2, &[n(3)], &[a], 0), n(1)),
            (j(2, &[n(4)], &[a], 0), n(2)),
        ])
    };
    let alpha1 = || {
        TableAlpha::new([
            (j(1, &[a], &[b], 0), n(1)),
            (j(1, &[a], &[b], 1), n(3)),
            (j(1, &[a], &[c], 0), n(2)),
            (j(1, &[a], &[c], 1), n(3)),
            (j(2, &[n(3)], &[a], 0), n(4)),
        ])
    };
    let budget = ChaseBudget::probe();
    for out in [
        ChaseEngine::new(&d, &budget).run_alpha(&s, &mut FreshAlpha::above(&s)),
        ChaseEngine::new(&d, &budget).run_alpha(&s, &mut alpha3()),
    ] {
        assert!(matches!(out, AlphaOutcome::CycleDetected { .. }), "{out:?}");
    }
    check_alpha(&d, &s, || Box::new(FreshAlpha::above(&s))).unwrap();
    check_alpha(&d, &s, || Box::new(alpha3())).unwrap();
    check_alpha(&d, &s, || Box::new(alpha1())).unwrap();
    let ok = ChaseEngine::new(&d, &budget)
        .run_alpha(&s, &mut alpha1())
        .success()
        .expect("α₁ succeeds");
    assert_eq!(ok.stats.egd_steps, 0);
    // The standard chase, resume and CanSol on the same case.
    check_everywhere(&d, &s);
}

/// 64 seeds: random mapping scenarios (surrogate-key egds) on even
/// seeds, random subsets of a key-conflicted source on odd ones (some
/// consistent, some not). `run` ≅ `chase_naive` up to core, and
/// `cansol` equals Libkin's presolution plus the naive egd fixpoint.
#[test]
fn run_and_cansol_match_the_naive_references() {
    Runner::new(64).run(
        "egd_scan_differential",
        &Gen::new(|rng| rng.gen_range(0..10_000u64)),
        |&seed| {
            let (d, s) = if seed % 2 == 0 {
                let d = mapping_scenario(&ScenarioConfig {
                    seed,
                    ..ScenarioConfig::default()
                });
                let s = random_source(
                    &d.source,
                    &SourceConfig {
                        num_constants: 4,
                        tuples_per_relation: 6,
                        seed,
                    },
                );
                (d, s)
            } else {
                let d = parse_setting(conflicting_keyed_setting()).unwrap();
                let mut rng = TestRng::seed_from_u64(seed);
                let full = conflicting_keyed_instance(6, 3, seed);
                let s: Instance = full
                    .atoms()
                    .filter(|_| rng.gen_range(0..2u32) == 0)
                    .collect();
                (d, s)
            };
            check_run(&d, &s)?;
            check_cansol(&d, &s)
        },
    );
}

/// Surrogate keys in pairs, `Flat0(a_i, b_i)` and `Flat0(a_i, c_i)`:
/// `n` merges, each behind every key already made clean. Restarting
/// the scan after each merge seeds those clean rows again every time
/// (quadratic in `n`); the moving cursor seeds each row a constant
/// number of times.
#[test]
fn egd_rows_scanned_stays_linear_on_a_key_chain() {
    let d = mapping_scenario(&ScenarioConfig {
        copies: 0,
        partitions: 0,
        surrogates: 1,
        seed: 0,
    });
    for n in [50usize, 400] {
        let s = Instance::from_atoms((0..n).flat_map(|i| {
            let key = Value::konst(&format!("a{i}"));
            [
                Atom::of("Flat0", vec![key, Value::konst(&format!("b{i}"))]),
                Atom::of("Flat0", vec![key, Value::konst(&format!("c{i}"))]),
            ]
        }));
        let out = ChaseEngine::new(&d, &ChaseBudget::default())
            .run(&s)
            .unwrap();
        let st = &out.stats;
        assert_eq!(st.egd_steps, n);
        let bound = 2 * (st.peak_atoms + st.rows_rewritten);
        assert!(
            st.egd_rows_scanned <= bound,
            "n = {n}: {} egd rows scanned > 2·(|I| {} + rewritten {})",
            st.egd_rows_scanned,
            st.peak_atoms,
            st.rows_rewritten
        );
        // Resuming the second half of every pair merges the same way.
        let firsts: Vec<Atom> = s.sorted_atoms().into_iter().step_by(2).collect();
        let eng = ChaseEngine::new(&d, &ChaseBudget::default()).with_provenance(true);
        let prior = eng.run(&Instance::from_atoms(firsts.clone())).unwrap();
        let mut delta = SourceDelta::new();
        for a in s.atoms().filter(|a| !firsts.contains(a)) {
            delta.insert(a);
        }
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rs = &resumed.stats;
        assert_eq!(rs.egd_steps, n);
        assert!(rs.egd_rows_scanned <= 2 * (rs.peak_atoms + rs.rows_rewritten));
    }
}
