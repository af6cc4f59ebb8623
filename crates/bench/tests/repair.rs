//! Graceful degradation for inconsistent sources (ISSUE 8): a 64-seed
//! differential suite over [`dex_datagen::conflicting_keyed_instance`],
//! whose every seed makes the plain chase fail on a key egd.
//!
//! Per seed the suite checks that
//!
//! - the failure carries a *grounded* provenance-backed conflict witness
//!   (and that the α-chase reports the identical witness);
//! - every repair [`RepairEngine`] returns chases cleanly, is ⊆-maximal
//!   (re-adding any removed atom re-triggers the conflict), and the
//!   repair set matches the brute-force subset enumeration;
//! - XR-certain answers equal the brute-force intersection of certain
//!   answers over all maximal repairs;
//! - the provenance-guided search chases strictly fewer candidates than
//!   the naive subset sweep;
//! - fault-injected governed runs degrade to sound partials and replay
//!   deterministically via `DEX_FAULT_SEED`.

use dex_chase::{alpha_chase, AlphaOutcome, ChaseBudget, ChaseEngine, ChaseError, FreshAlpha};
use dex_core::govern::{Governor, InterruptReason};
use dex_core::{Instance, NullGen};
use dex_datagen::{
    conflicting_keyed_instance, conflicting_keyed_setting, overlapping_keyed_instance,
    overlapping_keyed_setting,
};
use dex_logic::{parse_query, parse_setting, Setting};
use dex_query::{AnswerConfig, AnswerEngine, Answers, Semantics};
use dex_repair::{naive_repairs, RepairEngine, RepairOutcome, XrEngine};
use dex_testkit::FaultPlan;

const SEED_BASE: u64 = 0;
const SEED_COUNT: u64 = 64;
const KEYS: usize = 3;
const EXTRA: usize = 2;

fn setting() -> Setting {
    parse_setting(conflicting_keyed_setting()).unwrap()
}

fn seeds() -> Vec<u64> {
    FaultPlan::sweep(SEED_BASE, SEED_COUNT)
}

fn repairs_of(d: &Setting, s: &Instance) -> RepairOutcome {
    RepairEngine::new(d, &ChaseBudget::default()).repairs(s, &Governor::unlimited())
}

/// Every seed produces an inconsistent source whose failure is fully
/// diagnosed: a grounded witness with a source-level conflict set.
#[test]
fn plain_chase_fails_with_grounded_witness_per_seed() {
    let d = setting();
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let err = ChaseEngine::new(&d, &ChaseBudget::default())
            .with_provenance(true)
            .run(&s)
            .expect_err("every seed must be inconsistent");
        let ChaseError::EgdConflict { witness } = err else {
            panic!("seed {seed}: expected an egd conflict, got {err}");
        };
        assert_eq!(witness.egd, "key", "seed {seed}");
        assert!(witness.grounded(), "seed {seed}: witness not grounded");
        assert!(
            witness.conflict_set.len() >= 2,
            "seed {seed}: conflict set too small"
        );
        // The conflict set alone is already inconsistent (soundness of
        // the extraction — this is what licenses branching on it).
        let conflict_only = Instance::from_atoms(witness.conflict_set.iter().cloned());
        assert!(
            ChaseEngine::new(&d, &ChaseBudget::default())
                .run(&conflict_only)
                .is_err(),
            "seed {seed}: conflict set chases cleanly"
        );
    }
}

/// Satellite 2: the α-chase failure carries the same structured witness
/// as the standard chase.
#[test]
fn alpha_chase_reports_the_same_witness_per_seed() {
    let d = setting();
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let std_witness = match ChaseEngine::new(&d, &ChaseBudget::default())
            .with_provenance(true)
            .run(&s)
        {
            Err(ChaseError::EgdConflict { witness }) => witness,
            other => panic!("seed {seed}: unexpected standard outcome {other:?}"),
        };
        let mut alpha = FreshAlpha::new(NullGen::new());
        let alpha_witness = match alpha_chase(&d, &s, &mut alpha, &ChaseBudget::default()) {
            AlphaOutcome::Failing { witness, .. } => witness,
            other => panic!("seed {seed}: unexpected α outcome {other:?}"),
        };
        assert_eq!(std_witness.egd, alpha_witness.egd, "seed {seed}");
        assert_eq!(
            std_witness.egd_index, alpha_witness.egd_index,
            "seed {seed}"
        );
        assert_eq!(std_witness.left, alpha_witness.left, "seed {seed}");
        assert_eq!(std_witness.right, alpha_witness.right, "seed {seed}");
        // The α-engine path enables no provenance here, so only the
        // trigger-level facts must agree; re-running it with provenance
        // gives the same conflict set.
        let alpha_grounded = match ChaseEngine::new(&d, &ChaseBudget::default())
            .with_provenance(true)
            .run_alpha(&s, &mut FreshAlpha::new(NullGen::new()))
        {
            AlphaOutcome::Failing { witness, .. } => witness,
            other => panic!("seed {seed}: unexpected α outcome {other:?}"),
        };
        assert!(alpha_grounded.grounded(), "seed {seed}");
        assert_eq!(
            std_witness.conflict_set, alpha_grounded.conflict_set,
            "seed {seed}"
        );
    }
}

/// Every repair chases cleanly; re-adding any removed atom re-triggers
/// the conflict (⊆-maximality); the repair set equals the brute-force
/// subset enumeration; guided search chases strictly fewer candidates.
#[test]
fn repairs_are_maximal_chaseable_and_match_bruteforce_per_seed() {
    let d = setting();
    let budget = ChaseBudget::default();
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let outcome = repairs_of(&d, &s);
        assert!(outcome.complete, "seed {seed}: search did not complete");
        outcome
            .validate(&s)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(!outcome.repairs.is_empty(), "seed {seed}: no repairs");
        for (i, repair) in outcome.repairs.iter().enumerate() {
            assert!(
                ChaseEngine::new(&d, &budget).run(&repair.kept).is_ok(),
                "seed {seed}: repair {i} does not chase"
            );
            for atom in &repair.removed {
                let mut grown = repair.kept.clone();
                grown.insert(atom.clone());
                assert!(
                    ChaseEngine::new(&d, &budget).run(&grown).is_err(),
                    "seed {seed}: repair {i} not maximal — re-adding {atom} still chases"
                );
            }
        }
        // Differential oracle: brute-force maximal consistent subsets.
        let (oracle, naive_chases) = naive_repairs(&d, &s, &budget);
        let mut guided: Vec<Instance> = outcome.repairs.iter().map(|r| r.kept.clone()).collect();
        guided.sort_by_key(|t| t.sorted_atoms());
        let mut oracle = oracle;
        oracle.sort_by_key(|t| t.sorted_atoms());
        assert_eq!(guided, oracle, "seed {seed}: repair sets differ");
        assert!(
            outcome.stats.candidates_chased < naive_chases,
            "seed {seed}: guided ({}) did not beat naive ({naive_chases})",
            outcome.stats.candidates_chased
        );
    }
}

/// Overlapping conflict sets — two keys sharing a source atom, the
/// shape clique-like single-key conflicts can never produce and the one
/// that exercises the cross-level superset re-filter (a child spawned
/// before a same-level sibling succeeds must still be pruned): repairs
/// validate and match the brute-force oracle on every seed.
#[test]
fn overlapping_conflicts_match_bruteforce_per_seed() {
    let d = parse_setting(overlapping_keyed_setting()).unwrap();
    let budget = ChaseBudget::default();
    for seed in seeds() {
        let s = overlapping_keyed_instance(2, seed);
        let outcome = repairs_of(&d, &s);
        assert!(outcome.complete, "seed {seed}: search did not complete");
        outcome
            .validate(&s)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (oracle, _) = naive_repairs(&d, &s, &budget);
        let mut guided: Vec<Instance> = outcome.repairs.iter().map(|r| r.kept.clone()).collect();
        guided.sort_by_key(|t| t.sorted_atoms());
        let mut oracle = oracle;
        oracle.sort_by_key(|t| t.sorted_atoms());
        assert_eq!(guided, oracle, "seed {seed}: repair sets differ");
    }
}

/// A consistent source has exactly one repair: itself, with nothing
/// removed.
#[test]
fn consistent_source_yields_the_identity_repair() {
    let d = setting();
    for seed in 0..8u64 {
        // Base atoms only — distinct keys, no contesting rows.
        let full = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let consistent = Instance::from_atoms(
            full.sorted_atoms()
                .into_iter()
                .filter(|a| !a.to_string().contains('w')),
        );
        assert!(ChaseEngine::new(&d, &ChaseBudget::default())
            .run(&consistent)
            .is_ok());
        let outcome = repairs_of(&d, &consistent);
        assert!(outcome.complete);
        assert_eq!(outcome.repairs.len(), 1, "seed {seed}");
        assert!(outcome.repairs[0].removed.is_empty(), "seed {seed}");
        assert_eq!(outcome.repairs[0].kept, consistent, "seed {seed}");
        assert_eq!(outcome.stats.candidates_chased, 1, "seed {seed}");
    }
}

/// XR-certain answers equal the brute-force intersection of certain
/// answers across all maximal repairs, for a query on each relation.
#[test]
fn xr_certain_matches_bruteforce_intersection_per_seed() {
    let d = setting();
    let budget = ChaseBudget::default();
    let queries = [
        parse_query("Q(x,y) :- F(x,y)").unwrap(),
        parse_query("Q(x,y) :- G(x,y)").unwrap(),
        parse_query("Q(x) :- F(x,y)").unwrap(),
    ];
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let engine = XrEngine::new(&d, &s, AnswerConfig::default(), &Governor::unlimited())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (oracle_repairs, _) = naive_repairs(&d, &s, &budget);
        assert_eq!(engine.repair_count(), oracle_repairs.len(), "seed {seed}");
        for q in &queries {
            let xr = engine
                .certain(q)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut oracle: Option<Answers> = None;
            for kept in &oracle_repairs {
                let a = AnswerEngine::new(&d, kept, AnswerConfig::default())
                    .unwrap()
                    .answers(q, Semantics::Certain)
                    .unwrap();
                oracle = Some(match oracle {
                    None => a,
                    Some(prev) => prev.intersection(&a).cloned().collect(),
                });
            }
            assert_eq!(xr, oracle.unwrap(), "seed {seed} query {q}");
        }
        // The two innocent R-rows always survive into the intersection.
        let g_all = engine
            .certain(&parse_query("Q(x,y) :- G(x,y)").unwrap())
            .unwrap();
        assert_eq!(g_all.len(), 2, "seed {seed}: R rows lost");
    }
}

/// Fault-injected governed repair searches degrade to sound partials:
/// every repair returned before the trip is genuinely maximal and
/// chaseable, the trip is deterministic per seed, and dropping the
/// fault recovers the complete answer.
#[test]
fn faulted_repair_search_yields_sound_partials_per_seed() {
    let d = setting();
    let budget = ChaseBudget::default();
    let reason_for = |idx: u8| match idx % 4 {
        0 => InterruptReason::Fuel,
        1 => InterruptReason::Deadline,
        2 => InterruptReason::Memory,
        _ => InterruptReason::Cancelled,
    };
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let full = repairs_of(&d, &s);
        assert!(full.complete);
        let plan = FaultPlan::from_seed(seed, 24);
        let engine = RepairEngine::new(&d, &budget);
        let run = || {
            let gov = Governor::unlimited().with_fault(plan.trip_at, reason_for(plan.reason_idx));
            engine.repairs(&s, &gov)
        };
        let faulted = run();
        faulted
            .validate(&s)
            .unwrap_or_else(|e| panic!("seed {seed} (plan {}): {e}", plan.to_json().dump()));
        if let Some(i) = &faulted.interrupt {
            assert!(!faulted.complete, "seed {seed}");
            assert_eq!(i.reason, reason_for(plan.reason_idx), "seed {seed}");
        }
        // Soundness: each partial repair appears in the complete set.
        for repair in &faulted.repairs {
            assert!(
                full.repairs.iter().any(|r| r.kept == repair.kept),
                "seed {seed}: partial repair is not a true maximal repair"
            );
        }
        // Determinism: the replay (what DEX_FAULT_SEED does) agrees.
        let replay = run();
        assert_eq!(
            faulted.repairs.len(),
            replay.repairs.len(),
            "seed {seed}: replay diverged"
        );
        for (a, b) in faulted.repairs.iter().zip(&replay.repairs) {
            assert_eq!(a.kept, b.kept, "seed {seed}: replay diverged");
        }
        assert_eq!(faulted.complete, replay.complete, "seed {seed}");
    }
}

/// The repair search is thread-count invariant: 1, 2 and 8 workers give
/// byte-identical repair sets and stats.
#[test]
fn repair_search_is_thread_count_invariant() {
    let d = setting();
    let budget = ChaseBudget::default();
    for seed in [3u64, 17, 59] {
        let s = conflicting_keyed_instance(KEYS + 1, EXTRA + 1, seed);
        let base = RepairEngine::new(&d, &budget).repairs(&s, &Governor::unlimited());
        for threads in [2usize, 8] {
            let pool = dex_core::Pool::new(threads).with_threshold_ns(0);
            let out = RepairEngine::new(&d, &budget)
                .with_pool(pool)
                .repairs(&s, &Governor::unlimited());
            assert_eq!(base.repairs.len(), out.repairs.len(), "seed {seed}");
            for (a, b) in base.repairs.iter().zip(&out.repairs) {
                assert_eq!(a.kept, b.kept, "seed {seed} threads {threads}");
                assert_eq!(a.removed, b.removed, "seed {seed} threads {threads}");
            }
            assert_eq!(
                base.stats.candidates_chased, out.stats.candidates_chased,
                "seed {seed} threads {threads}"
            );
        }
    }
}
