//! 64-seed differential suite for incremental exchange (ISSUE 10):
//! [`ChaseEngine::resume`] against a from-scratch re-chase.
//!
//! Each seed draws a setting family (layered tgd towers on even seeds,
//! mapping scenarios with surrogate-key egds on odd seeds), a random
//! ground source, and a 10-step seeded update stream; after every step
//! the resumed result must be isomorphic to the re-chased one and every
//! surviving atom must keep a complete justification chain
//! ([`Provenance::verify_justified`]). Governed/faulted resumes sweep
//! seeded budget trip points (replay a failure with
//! `DEX_FAULT_SEED=<seed>`) and must be transactional: on `Err` the
//! prior result is untouched and a full-budget retry agrees with the
//! re-chase. Resume itself is serial and deterministic; the
//! thread-invariance check drives its output through the parallel core
//! at pool widths {1, 2, 8}.

use dex_chase::{ChaseBudget, ChaseEngine, ChaseSuccess};
use dex_core::govern::Governor;
use dex_core::{core, core_parallel_governed, isomorphic, Instance, Pool, SourceDelta};
use dex_datagen::{
    layered_setting, mapping_scenario, random_source, update_stream, LayeredConfig, ScenarioConfig,
    SourceConfig, UpdateStreamConfig,
};
use dex_logic::{parse_instance, parse_setting, Setting};
use dex_testkit::FaultPlan;

const SEED_BASE: u64 = 0;
const SEED_COUNT: u64 = 64;
const STEPS: usize = 10;

fn family(seed: u64) -> Setting {
    if seed % 2 == 0 {
        layered_setting(&LayeredConfig {
            seed,
            ..LayeredConfig::default()
        })
    } else {
        mapping_scenario(&ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        })
    }
}

fn base_source(setting: &Setting, seed: u64) -> Instance {
    random_source(
        &setting.source,
        &SourceConfig {
            num_constants: 10,
            tuples_per_relation: 12,
            seed,
        },
    )
}

fn stream_for(setting: &Setting, base: &Instance, seed: u64) -> Vec<SourceDelta> {
    update_stream(
        &setting.source,
        base,
        &UpdateStreamConfig {
            steps: STEPS,
            insert_rate: 0.05,
            delete_rate: 0.05,
            num_constants: 10,
            seed,
        },
    )
}

fn check_justified(s: &ChaseSuccess, seed: u64, step: usize) {
    let prov = s.provenance.as_ref().expect("resume keeps provenance");
    if let Err(e) = prov.verify_justified(&s.result) {
        panic!("seed {seed} step {step}: {e}");
    }
}

/// Resume ≡ re-chase up to isomorphism at every step of every stream,
/// with complete justifications after every resume.
#[test]
fn resume_matches_rechase_across_update_streams() {
    let budget = ChaseBudget::default();
    for seed in SEED_BASE..SEED_BASE + SEED_COUNT {
        let setting = family(seed);
        let engine = ChaseEngine::new(&setting, &budget).with_provenance(true);
        let mut source = base_source(&setting, seed);
        let mut prior = engine.run(&source).unwrap();
        for (step, delta) in stream_for(&setting, &source, seed).iter().enumerate() {
            source = delta.applied(&source);
            let rechased = engine.run(&source).unwrap();
            let resumed = engine.resume(&prior, delta).unwrap();
            assert!(
                isomorphic(&resumed.target, &rechased.target),
                "seed {seed} step {step}: resumed target diverged from re-chase \
                 ({} vs {} atoms)",
                resumed.target.len(),
                rechased.target.len()
            );
            check_justified(&resumed, seed, step);
            prior = resumed;
        }
    }
}

/// The join-tgd tower the incremental bench runs (one relation per
/// layer, two join tgds `T_l(x,y) ∧ T_l'(y,z) → T_{l+1}(x,z)` per
/// boundary). Its restricted chase is order-dependent, so resumed and
/// re-chased targets need not be isomorphic; both are universal
/// solutions, so their cores are, at every step of every stream, and
/// every resumed atom keeps a complete justification.
#[test]
fn resume_matches_rechase_up_to_core_on_join_tgds() {
    let budget = ChaseBudget::default();
    for seed in 0..16 {
        let setting = layered_setting(&LayeredConfig {
            layers: 3,
            rels_per_layer: 1,
            up_tgds_per_layer: 1,
            join_tgds_per_layer: 2,
            seed,
            ..LayeredConfig::default()
        });
        let engine = ChaseEngine::new(&setting, &budget).with_provenance(true);
        let mut source = base_source(&setting, seed);
        let mut prior = engine.run(&source).unwrap();
        for (step, delta) in stream_for(&setting, &source, seed).iter().enumerate() {
            source = delta.applied(&source);
            let rechased = engine.run(&source).unwrap();
            let resumed = engine.resume(&prior, delta).unwrap();
            assert!(
                isomorphic(&core(&resumed.target), &core(&rechased.target)),
                "seed {seed} step {step}: core of the resumed target diverged from the \
                 re-chased one ({} vs {} atoms before the core)",
                resumed.target.len(),
                rechased.target.len()
            );
            check_justified(&resumed, seed, step);
            prior = resumed;
        }
    }
}

/// Resume is a pure function of `(prior, delta)`: running it twice
/// gives equal (not merely isomorphic) results, and the parallel core
/// of the resumed target is width-invariant across pools {1, 2, 8} and
/// isomorphic to the re-chased core.
#[test]
fn resume_is_deterministic_and_width_invariant_downstream() {
    let budget = ChaseBudget::default();
    let pools = [
        Pool::new(1).with_threshold_ns(0),
        Pool::new(2).with_threshold_ns(0),
        Pool::new(8).with_threshold_ns(0),
    ];
    for seed in (SEED_BASE..SEED_BASE + SEED_COUNT).step_by(8) {
        let setting = family(seed);
        let engine = ChaseEngine::new(&setting, &budget).with_provenance(true);
        let source = base_source(&setting, seed);
        let prior = engine.run(&source).unwrap();
        let delta = stream_for(&setting, &source, seed).swap_remove(0);
        let once = engine.resume(&prior, &delta).unwrap();
        let twice = engine.resume(&prior, &delta).unwrap();
        assert_eq!(
            once.result, twice.result,
            "seed {seed}: resume not deterministic"
        );
        assert_eq!(once.steps, twice.steps);
        let rechased = engine.run(&delta.applied(&source)).unwrap();
        let reference =
            core_parallel_governed(&rechased.target, &Governor::unlimited(), &pools[0]).instance;
        for pool in &pools {
            let c = core_parallel_governed(&once.target, &Governor::unlimited(), pool).instance;
            assert!(
                isomorphic(&c, &reference),
                "seed {seed}: core of resumed target diverged at width {}",
                pool.threads()
            );
        }
    }
}

/// Governed/faulted resumes are transactional and recoverable: a
/// seeded starvation budget either completes agreeing with the
/// re-chase or fails leaving `prior` untouched, and the full-budget
/// retry always agrees. Replay one seed with `DEX_FAULT_SEED=<seed>`.
#[test]
fn faulted_resumes_are_transactional_and_recoverable() {
    let full = ChaseBudget::default();
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let plan = FaultPlan::from_seed(seed, 24);
        let setting = family(seed);
        let source = base_source(&setting, seed);
        let engine = ChaseEngine::new(&setting, &full).with_provenance(true);
        let prior = engine.run(&source).unwrap();
        let delta = stream_for(&setting, &source, seed).swap_remove(0);
        let rechased = engine.run(&delta.applied(&source)).unwrap();

        let tight = ChaseBudget::new(plan.trip_at as usize, full.max_atoms);
        let starved = ChaseEngine::new(&setting, &tight).with_provenance(true);
        let before = prior.result.clone();
        match starved.resume(&prior, &delta) {
            Ok(resumed) => {
                // Trip point beyond the real work: must agree exactly.
                assert!(
                    isomorphic(&resumed.target, &rechased.target),
                    "starved resume completed but diverged, seed {seed} (plan {})",
                    plan.to_json().dump()
                );
                check_justified(&resumed, seed, 0);
            }
            Err(_) => {
                assert_eq!(
                    prior.result,
                    before,
                    "failed resume mutated its input, seed {seed} (plan {})",
                    plan.to_json().dump()
                );
            }
        }
        // Recovery: the full-budget resume of the same prior agrees.
        let retried = engine.resume(&prior, &delta).unwrap();
        assert!(
            isomorphic(&retried.target, &rechased.target),
            "full-budget retry diverged from re-chase, seed {seed} (plan {})",
            plan.to_json().dump()
        );
        check_justified(&retried, seed, 0);
    }
}

/// One single-atom deletion visits a size-independent number of
/// provenance entries: the deleted atom's cone (its `F`-row and the key
/// merge it justified), not the map. Each group is `P(a,b)`, `Q(a,c)`:
/// `d1` invents `F(a,⊥)`, `d2` adds `F(a,c)`, and the key egd merges
/// `⊥ ↦ c`. Deleting `Q(a0,c0)` kills that merge; the resume re-derives
/// `F(a0,⊥')`. The base instance grows 1× → 8×.
#[test]
fn one_deletion_visits_a_size_independent_number_of_provenance_entries() {
    let setting = parse_setting(
        "source { P/2, Q/2 } target { F/2 }
         st { d1: P(x,y) -> exists z . F(x,z); d2: Q(x,y) -> F(x,y); }
         t { key: F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let engine = ChaseEngine::new(&setting, &ChaseBudget::default()).with_provenance(true);
    let visits = |groups: usize| {
        let text: String = (0..groups)
            .map(|g| format!("P(a{g},b). Q(a{g},c{g}). "))
            .collect();
        let prior = engine.run(&parse_instance(&text).unwrap()).unwrap();
        let delta = dex_logic::parse_delta("- Q(a0,c0).").unwrap();
        let resumed = engine.resume(&prior, &delta).unwrap();
        assert_eq!(resumed.stats.atoms_retracted, 2, "Q(a0,c0) and F(a0,c0)");
        assert_eq!(resumed.target.len(), prior.target.len());
        resumed.stats.prov_entries_visited
    };
    let base = visits(16);
    assert!(base > 0, "the resume visited no provenance entry");
    for scale in [2, 4, 8] {
        let scaled = visits(16 * scale);
        assert_eq!(
            scaled, base,
            "{scale}x instance: {scaled} provenance entries visited, {base} at 1x"
        );
    }
}
