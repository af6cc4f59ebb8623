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
//! - fault-injected governed runs — the repair search and XR answering —
//!   degrade to sound partials and replay deterministically via
//!   `DEX_FAULT_SEED`.

use dex_chase::{alpha_chase, AlphaOutcome, ChaseBudget, ChaseEngine, ChaseError, FreshAlpha};
use dex_core::govern::{Governor, InterruptReason, Verdict};
use dex_core::{Instance, NullGen};
use dex_datagen::{
    conflicting_keyed_instance, conflicting_keyed_setting, overlapping_keyed_instance,
    overlapping_keyed_setting,
};
use dex_logic::{parse_query, parse_setting, Query, Setting};
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

/// The brute-force XR-certain answers: certain answers re-chased on
/// every maximal repair, intersected.
fn bruteforce_xr(d: &Setting, repairs: &[Instance], q: &Query) -> Answers {
    let mut oracle: Option<Answers> = None;
    for kept in repairs {
        let a = AnswerEngine::new(d, kept, AnswerConfig::default())
            .unwrap()
            .answers(q, Semantics::Certain)
            .unwrap();
        oracle = Some(match oracle {
            None => a,
            Some(prev) => prev.intersection(&a).cloned().collect(),
        });
    }
    oracle.expect("a source has at least one maximal repair")
}

/// One query on each relation; the last two are not UCQs, so they run
/// □-propagation over each repair's lazily built `CanSol`.
fn xr_queries() -> Vec<Query> {
    [
        "Q(x,y) :- F(x,y)",
        "Q(x,y) :- G(x,y)",
        "Q(x) :- F(x,y)",
        "Q(x) := exists y . (F(x,y) & !G(x,y))",
        "Q(x,y) :- F(x,y), G(u,v), y != v",
    ]
    .into_iter()
    .map(|q| parse_query(q).unwrap())
    .collect()
}

fn reason_for(idx: u8) -> InterruptReason {
    match idx % 4 {
        0 => InterruptReason::Fuel,
        1 => InterruptReason::Deadline,
        2 => InterruptReason::Memory,
        _ => InterruptReason::Cancelled,
    }
}

/// XR-certain answers equal the brute-force intersection of certain
/// answers across all maximal repairs, for a query on each relation.
/// The XR engine answers each repair from its cached chase; the oracle
/// re-chases every naive repair. The last two queries are not UCQs, so
/// they run □-propagation over each repair's lazily built `CanSol`.
#[test]
fn xr_certain_matches_bruteforce_intersection_per_seed() {
    let d = setting();
    let budget = ChaseBudget::default();
    let queries = xr_queries();
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
            assert_eq!(
                xr,
                bruteforce_xr(&d, &oracle_repairs, q),
                "seed {seed} query {q}"
            );
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

/// Fault-injected XR answering degrades to sound bound pairs. One
/// governor runs both the repair search and the answering, and the
/// seed's trip point lies anywhere in that run, so the trip cuts the
/// search (a partial repair set), a factor's evaluation, or nothing.
/// Proven tuples are exact XR answers, refuted ones are not, and a
/// `False` default (a finite `upper_bound()`) covers every exact answer.
#[test]
fn faulted_xr_answers_are_sound_bound_pairs_per_seed() {
    let d = setting();
    let budget = ChaseBudget::default();
    let queries = xr_queries();
    let mut partial_sets = 0;
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let (oracle_repairs, _) = naive_repairs(&d, &s, &budget);
        for q in &queries {
            let exact = bruteforce_xr(&d, &oracle_repairs, q);
            let run = |gov: &Governor| {
                let engine = XrEngine::new(&d, &s, AnswerConfig::default(), gov).ok()?;
                let g = engine.certain_governed(q, gov).unwrap();
                Some((g, engine.outcome().complete))
            };
            let ticks = {
                let gov = Governor::unlimited();
                run(&gov).unwrap();
                gov.ticks()
            };
            let plan = FaultPlan::from_seed(seed, ticks.max(1));
            let at = format!("seed {seed} query {q} plan {}", plan.to_json().dump());
            let gov = Governor::unlimited().with_fault(plan.trip_at, reason_for(plan.reason_idx));
            let Some((g, complete_set)) = run(&gov) else {
                continue; // tripped before the first repair
            };
            partial_sets += usize::from(!complete_set);
            g.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
            assert!(g.proven.is_subset(&exact), "{at}: unsound proven");
            assert!(g.refuted.is_disjoint(&exact), "{at}: unsound refuted");
            if g.default == Verdict::False {
                let upper = g.upper_bound().unwrap();
                assert!(exact.is_subset(&upper), "{at}: upper bound misses answers");
            }
            if g.is_complete() {
                assert_eq!(g.proven, exact, "{at}");
            }
        }
    }
    if FaultPlan::env_seed().is_none() {
        assert!(partial_sets > 0, "no plan cut the repair search");
    }
}

/// On a partial repair set the unexplored repairs can only shrink the
/// intersection, so XR answering has a finite upper bound that covers
/// the exact answers.
#[test]
fn partial_repair_set_bounds_xr_answers_from_above() {
    let d = parse_setting(
        "source { P/2, R/2 }
         target { F/2, G/2 }
         st { dP: P(x,y) -> F(x,y); dR: R(x,y) -> G(x,y); }
         t { key: F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let s = dex_logic::parse_instance("P(a,b). P(a,c). P(d,e). P(d,f). R(u,v).").unwrap();
    let full = XrEngine::new(&d, &s, AnswerConfig::default(), &Governor::unlimited()).unwrap();
    let mut partial_sets = 0;
    for fuel in 2u64..7 {
        let gov = Governor::unlimited().with_fuel(fuel);
        let Ok(engine) = XrEngine::new(&d, &s, AnswerConfig::default(), &gov) else {
            continue; // no repair found before the trip
        };
        if engine.outcome().complete {
            continue;
        }
        partial_sets += 1;
        for q in ["Q(x,y) :- G(x,y)", "Q(x,y) :- F(x,y)"] {
            let q = parse_query(q).unwrap();
            let exact = full.certain(&q).unwrap();
            let g = engine.certain_governed(&q, &Governor::unlimited()).unwrap();
            g.validate().unwrap();
            assert!(g.proven.is_empty(), "fuel {fuel}: partial set proved {q}");
            let upper = g
                .upper_bound()
                .unwrap_or_else(|| panic!("fuel {fuel}: no upper bound for {q}"));
            assert!(exact.is_subset(&upper), "fuel {fuel}: {q}");
        }
    }
    assert!(partial_sets > 0, "no fuel left the repair set partial");
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

/// A named instance family: its setting and one source per seed.
type Family = (&'static str, Setting, Vec<(u64, Instance)>);

/// Both families the search suite runs over: the single-key cliques of
/// `conflicting_keyed_instance` and the overlapping two-key conflicts of
/// `overlapping_keyed_instance`.
fn both_families() -> Vec<Family> {
    vec![
        (
            "conflicting",
            setting(),
            seeds()
                .into_iter()
                .map(|seed| (seed, conflicting_keyed_instance(KEYS, EXTRA, seed)))
                .collect(),
        ),
        (
            "overlapping",
            parse_setting(overlapping_keyed_setting()).unwrap(),
            seeds()
                .into_iter()
                .map(|seed| (seed, overlapping_keyed_instance(2, seed)))
                .collect(),
        ),
    ]
}

/// Every conflict set the search labels a node with — reused, from a
/// base chase or from a resume — fails when chased alone, and no label
/// needed the ungrounded fallback.
#[test]
fn labelled_conflict_sets_fail_alone_per_seed() {
    let budget = ChaseBudget::default();
    let mut reused = 0;
    for (family, d, sources) in both_families() {
        for (seed, s) in sources {
            let out = repairs_of(&d, &s);
            assert!(out.complete, "{family} seed {seed}");
            assert!(!out.conflicts.is_empty(), "{family} seed {seed}");
            assert_eq!(out.stats.ungrounded_fallbacks, 0, "{family} seed {seed}");
            for c in &out.conflicts {
                let alone = Instance::from_atoms(c.iter().cloned());
                assert!(alone.is_subinstance_of(&s), "{family} seed {seed}");
                assert!(
                    ChaseEngine::new(&d, &budget).run(&alone).is_err(),
                    "{family} seed {seed}: conflict set {c:?} chases cleanly"
                );
            }
            // Every repair's removal set hits every labelled conflict.
            for r in &out.repairs {
                for c in &out.conflicts {
                    assert!(
                        c.iter().any(|a| r.removed.contains(a)),
                        "{family} seed {seed}: repair misses conflict {c:?}"
                    );
                }
            }
            reused += out.stats.conflicts_reused;
        }
    }
    assert!(reused > 0, "no node ever reused a known conflict set");
}

/// A resume that brings a conflict back fails with a grounded witness,
/// the one a full chase of the same candidate gives.
#[test]
fn failing_resumes_return_grounded_witnesses_per_seed() {
    let budget = ChaseBudget::default();
    for (family, d, sources) in both_families() {
        for (seed, s) in sources {
            let out = repairs_of(&d, &s);
            // `K`, the union of the labelled conflicts: every repair's
            // removal set lies inside it, so `S \ K` is consistent.
            let k: Vec<_> = out.conflicts.iter().flatten().cloned().collect();
            let outside_k = Instance::from_atoms(s.atoms().filter(|a| !k.contains(a)));
            let engine = ChaseEngine::new(&d, &budget).with_provenance(true);
            let base = engine
                .run(&outside_k)
                .unwrap_or_else(|e| panic!("{family} seed {seed}: base fails: {e}"));
            for c in &out.conflicts {
                let delta = dex_core::SourceDelta {
                    inserts: c.clone(),
                    deletes: Vec::new(),
                };
                let Err(ChaseError::EgdConflict { witness }) = engine.resume(&base, &delta) else {
                    panic!("{family} seed {seed}: resume with {c:?} did not conflict");
                };
                assert!(witness.grounded(), "{family} seed {seed}");
                let alone = Instance::from_atoms(witness.conflict_set.iter().cloned());
                assert!(
                    ChaseEngine::new(&d, &budget).run(&alone).is_err(),
                    "{family} seed {seed}: resumed conflict set chases cleanly"
                );
                let mut candidate = outside_k.clone();
                for a in c {
                    candidate.insert(a.clone());
                }
                let Err(ChaseError::EgdConflict { witness: full }) = engine.run(&candidate) else {
                    panic!("{family} seed {seed}: full chase did not conflict");
                };
                assert_eq!(
                    (&witness.egd, &witness.conflict_set),
                    (&full.egd, &full.conflict_set),
                    "{family} seed {seed}"
                );
            }
        }
    }
}

/// Repairs are emitted in BFS order: by removal-set size, then
/// lexicographically (removal sets are sorted source-atom lists).
#[test]
fn repairs_are_emitted_in_bfs_order_per_seed() {
    for (family, d, sources) in both_families() {
        for (seed, s) in sources {
            let out = repairs_of(&d, &s);
            for w in out.repairs.windows(2) {
                assert!(
                    (w[0].removed.len(), &w[0].removed) < (w[1].removed.len(), &w[1].removed),
                    "{family} seed {seed}: {:?} before {:?}",
                    w[0].removed,
                    w[1].removed
                );
            }
        }
    }
}

/// Stats (with `conflicts_reused`), repairs, labelled conflicts and the
/// mock-clock trace are identical at 1, 2 and 8 threads, and the trace
/// carries one `chase_started` per counted chase.
#[test]
fn search_is_thread_count_invariant_per_seed() {
    use dex_core::govern::Clock;
    use dex_obs::{Collector, EventKind, RingRecorder, Tracer};
    use std::sync::Arc;
    let budget = ChaseBudget::default();
    let traced_run = |d: &Setting, s: &Instance, threads: usize| {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let (clock, _mock) = Clock::mock();
        let gov = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
        let out = RepairEngine::new(d, &budget)
            .with_pool(dex_core::Pool::new(threads).with_threshold_ns(0))
            .repairs(s, &gov);
        (out, ring.events())
    };
    for (family, d, sources) in both_families() {
        for (seed, s) in sources {
            let (base, base_trace) = traced_run(&d, &s, 1);
            let chases = base_trace
                .iter()
                .filter(|e| matches!(e.kind, EventKind::ChaseStarted { .. }))
                .count();
            assert_eq!(chases, base.stats.candidates_chased, "{family} seed {seed}");
            for threads in [2usize, 8] {
                let (out, trace) = traced_run(&d, &s, threads);
                let at = format!("{family} seed {seed} threads {threads}");
                assert_eq!(out.stats, base.stats, "{at}");
                assert_eq!(out.conflicts, base.conflicts, "{at}");
                assert_eq!(out.repairs.len(), base.repairs.len(), "{at}");
                for (a, b) in out.repairs.iter().zip(&base.repairs) {
                    assert_eq!((&a.kept, &a.removed), (&b.kept, &b.removed), "{at}");
                }
                assert_eq!(trace, base_trace, "{at}");
            }
        }
    }
}

/// `candidates_chased` counts every chase the search runs — base chases
/// plus resumes — and reads 1 on a consistent source, whose base chase
/// is its one repair's chase. (The traced thread-invariance test above
/// matches it against the `chase_started` events.)
#[test]
fn candidates_chased_counts_base_chases_and_resumes() {
    let d = setting();
    for seed in seeds() {
        let s = conflicting_keyed_instance(KEYS, EXTRA, seed);
        let out = repairs_of(&d, &s);
        let st = &out.stats;
        // One chase per extracted conflict and per repair, plus at most
        // one successful base chase per level that only resumes used.
        let decided = st.conflicts_extracted + out.repairs.len();
        assert!(
            (decided..=decided + st.max_level + 1).contains(&st.candidates_chased),
            "seed {seed}: {st:?}"
        );
        let consistent = Instance::from_atoms(
            s.sorted_atoms()
                .into_iter()
                .filter(|a| !a.to_string().contains('w')),
        );
        let st = repairs_of(&d, &consistent).stats;
        assert_eq!(st.candidates_chased, 1, "seed {seed}");
        assert_eq!(st.conflicts_reused, 0, "seed {seed}");
    }
}
