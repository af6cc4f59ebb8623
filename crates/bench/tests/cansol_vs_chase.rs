//! `CanSol` against the restricted chase, checked with the guarantees of
//! Proposition 5.4 and Theorem 5.1.
//!
//! Both engines start from the same s-t triggers and merge with the same
//! egds, so on a source where the restricted chase fires every trigger it
//! examines (`triggers_examined == triggers_fired`), its s-t pass is
//! Libkin's canonical presolution and the two results must be isomorphic:
//! egd merging is confluent up to the renaming of nulls. Where the chase
//! blocks a trigger its target is smaller, and the check falls back to
//! what the paper guarantees: `CanSol` is a solution, and the core of the
//! chase target (a CWA-solution by Theorem 5.1) is a homomorphic image of
//! it (Proposition 5.4).
//!
//! The corpus is 64 seeds of mapping scenarios (surrogate-key egds, which
//! merge nulls) plus the maximal repairs of 64 seeds of key-conflicted
//! sources, each of which chases cleanly.

use dex_chase::{ChaseBudget, ChaseEngine};
use dex_core::{core, isomorphic, Governor, Instance};
use dex_cwa::{cansol, is_homomorphic_image_of};
use dex_datagen::{
    conflicting_keyed_instance, conflicting_keyed_setting, mapping_scenario, random_source,
    ScenarioConfig, SourceConfig,
};
use dex_logic::{parse_setting, Setting};
use dex_repair::RepairEngine;
use dex_testkit::FaultPlan;

const SEED_BASE: u64 = 0;
const SEED_COUNT: u64 = 64;

/// Which check a source got; `merged` counts the isomorphic ones whose
/// chase applied an egd.
#[derive(Default)]
struct Tally {
    isomorphic: usize,
    merged: usize,
    image: usize,
}

fn check(d: &Setting, s: &Instance, what: &str, tally: &mut Tally) {
    let budget = ChaseBudget::default();
    let chased = ChaseEngine::new(d, &budget)
        .run(s)
        .unwrap_or_else(|e| panic!("{what}: the chase failed: {e}"));
    let can = cansol(d, s, &budget)
        .unwrap_or_else(|e| panic!("{what}: cansol failed: {e}"))
        .unwrap_or_else(|| panic!("{what}: the setting is outside Proposition 5.4's classes"));
    if chased.stats.triggers_examined == chased.stats.triggers_fired {
        assert!(
            isomorphic(&can, &chased.target),
            "{what}: every trigger fired, yet cansol\n{can}\nis not isomorphic to the chase\n{}",
            chased.target
        );
        tally.isomorphic += 1;
        tally.merged += usize::from(chased.stats.egd_steps > 0);
    } else {
        assert!(d.is_solution(s, &can), "{what}: cansol is not a solution");
        let minimal = core(&chased.target);
        assert!(
            is_homomorphic_image_of(&minimal, &can),
            "{what}: the core\n{minimal}\nis not a homomorphic image of cansol\n{can}"
        );
        tally.image += 1;
    }
}

#[test]
fn cansol_agrees_with_the_chase_on_mapping_scenarios() {
    let mut tally = Tally::default();
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
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
        check(&d, &s, &format!("mapping_scenario seed {seed}"), &mut tally);
    }
    // Both checks must have run, and the isomorphic one on merging
    // sources, or the suite tests less than it says (a one-seed replay
    // under `DEX_FAULT_SEED` checks only its seed).
    if FaultPlan::env_seed().is_none() {
        assert!(tally.merged > 0, "no source fired every trigger and merged");
        assert!(tally.image > 0, "no source blocked a trigger");
    }
}

#[test]
fn cansol_agrees_with_the_chase_on_repaired_keyed_sources() {
    let d = parse_setting(conflicting_keyed_setting()).unwrap();
    let mut tally = Tally::default();
    for seed in FaultPlan::sweep(SEED_BASE, SEED_COUNT) {
        let s = conflicting_keyed_instance(3, 2, seed);
        let outcome =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        assert!(
            outcome.complete,
            "seed {seed}: the repair search stopped early"
        );
        for (i, r) in outcome.repairs.iter().enumerate() {
            check(
                &d,
                &r.kept,
                &format!("conflicting_keyed seed {seed} repair {i}"),
                &mut tally,
            );
        }
    }
    if FaultPlan::env_seed().is_none() {
        assert!(tally.isomorphic > 0, "no repaired source was checked");
    }
}
