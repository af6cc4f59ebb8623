//! Provenance-guided enumeration of ⊆-maximal repairs.
//!
//! # The search
//!
//! A *repair* of a source `S` under a setting `D` is a ⊆-maximal
//! `S' ⊆ S` whose chase succeeds. Consistency is downward-closed (a
//! CWA-solution for `S'` is one for any `S'' ⊆ S'`), so the removal
//! sets `S \ S'` of the repairs are exactly the *minimal hitting sets*
//! of the family of minimal inconsistent subsets of `S` — Reiter's
//! diagnosis duality. The engine runs Reiter's HS-tree breadth-first
//! by removal-set size:
//!
//! - chase the candidate `S \ R`; on success, `R` hits every conflict
//!   and (by BFS order plus superset pruning) is minimal — emit the
//!   repair with its cached chase result;
//! - on an egd conflict, branch on the witness's source-atom conflict
//!   set: any repair's removal set must contain one of those atoms.
//!   The conflict set is sound because the justification chains derive
//!   the clash from exactly those source atoms, so chasing them alone
//!   fails too. When a chain is broken (FO-bodied st-tgds have no atom
//!   decomposition) the engine falls back to branching on every kept
//!   atom — complete, just unguided.
//!
//! Candidates of one level are re-chased in parallel through a
//! [`Pool`] with per-candidate cost hints; results are consumed in
//! submission order and the governor is ticked once per candidate, so
//! fault injection and interrupts are deterministic for any thread
//! count. Because BFS finishes level `k-1` before level `k` and
//! same-level successes cannot dominate each other, every repair
//! emitted before an interrupt is genuinely maximal — a sound partial.
//!
//! Superset pruning runs twice: once at child-generation time against
//! the successes recorded so far, and once more on the assembled next
//! level. The second pass is load-bearing — a child generated before a
//! same-level sibling succeeds is not caught by the first pass, and by
//! downward closure it would chase cleanly and surface as a
//! non-maximal pseudo-repair.

use dex_chase::{ChaseBudget, ChaseEngine, ChaseError, ChaseSuccess};
use dex_core::govern::{Governor, Interrupt};
use dex_core::{Atom, Cost, Instance, Pool};
use dex_logic::Setting;
use dex_obs::{EventKind, JsonValue};
use std::collections::{HashMap, HashSet};

/// One ⊆-maximal repair: the kept source subset, what was removed, and
/// the cached chase of the kept subset.
#[derive(Clone, Debug)]
pub struct Repair {
    /// The repaired source `S' ⊆ S` (chases cleanly).
    pub kept: Instance,
    /// The removed atoms `S \ S'`, sorted.
    pub removed: Vec<Atom>,
    /// The successful chase of `kept`, cached for answering.
    pub chase: ChaseSuccess,
}

/// Counters for one repair search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Candidates whose chase was actually run.
    pub candidates_chased: usize,
    /// Failing candidates that yielded a grounded conflict set.
    pub conflicts_extracted: usize,
    /// Failing candidates whose witness was not grounded (FO bodies),
    /// forcing the branch-on-everything fallback.
    pub ungrounded_fallbacks: usize,
    /// Candidates skipped because their removal set was a superset of
    /// an already-accepted repair's (cannot be maximal).
    pub pruned_superset: usize,
    /// Candidates skipped because the same removal set was already
    /// generated along another branch.
    pub pruned_duplicate: usize,
    /// Candidates whose chase exhausted its budget (undecided; the
    /// outcome is marked incomplete).
    pub budget_exhausted: usize,
    /// The deepest explored removal-set size.
    pub max_level: usize,
}

impl RepairStats {
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with(
                "candidates_chased",
                JsonValue::uint(self.candidates_chased as u64),
            )
            .with(
                "conflicts_extracted",
                JsonValue::uint(self.conflicts_extracted as u64),
            )
            .with(
                "ungrounded_fallbacks",
                JsonValue::uint(self.ungrounded_fallbacks as u64),
            )
            .with(
                "pruned_superset",
                JsonValue::uint(self.pruned_superset as u64),
            )
            .with(
                "pruned_duplicate",
                JsonValue::uint(self.pruned_duplicate as u64),
            )
            .with(
                "budget_exhausted",
                JsonValue::uint(self.budget_exhausted as u64),
            )
            .with("max_level", JsonValue::uint(self.max_level as u64))
    }
}

/// The result of a repair search.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repairs found, in BFS order (fewest removals first, then by
    /// removal-set index order). Complete iff `complete`.
    pub repairs: Vec<Repair>,
    pub stats: RepairStats,
    /// True iff the search ran to exhaustion: the repairs are *all*
    /// maximal repairs. False after an interrupt or an undecided
    /// (budget-exhausted) candidate — the repairs listed are still each
    /// genuinely maximal, but others may exist.
    pub complete: bool,
    /// The interrupt that stopped the search, if one did.
    pub interrupt: Option<Interrupt>,
}

impl RepairOutcome {
    /// Cross-checks the outcome against its defining invariants:
    /// every repair is a subinstance of `source`, its chase succeeded,
    /// and no repair's kept set contains another's.
    pub fn validate(&self, source: &Instance) -> Result<(), String> {
        for (i, r) in self.repairs.iter().enumerate() {
            if !r.kept.is_subinstance_of(source) {
                return Err(format!("repair {i} is not a subset of the source"));
            }
            if r.kept.len() + r.removed.len() != source.len() {
                return Err(format!("repair {i} kept+removed ≠ source size"));
            }
        }
        for (i, a) in self.repairs.iter().enumerate() {
            for (j, b) in self.repairs.iter().enumerate() {
                if i != j && a.kept.is_subinstance_of(&b.kept) {
                    return Err(format!("repair {i} is contained in repair {j}"));
                }
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("repairs", JsonValue::uint(self.repairs.len() as u64))
            .with("complete", JsonValue::Bool(self.complete))
            .with("stats", self.stats.to_json())
    }
}

/// Governed, provenance-guided repair search for one setting + budget.
/// Its `hs_level` spans and `repair_*` events go to the governor's
/// tracer, stamped from the governor's clock.
pub struct RepairEngine<'a> {
    setting: &'a Setting,
    budget: ChaseBudget,
    pool: Pool,
}

impl<'a> RepairEngine<'a> {
    pub fn new(setting: &'a Setting, budget: &ChaseBudget) -> RepairEngine<'a> {
        RepairEngine {
            setting,
            budget: budget.clone(),
            pool: Pool::seq(),
        }
    }

    /// Re-chases candidates of each BFS level through `pool` (the
    /// answers are identical for any thread count).
    pub fn with_pool(mut self, pool: Pool) -> RepairEngine<'a> {
        self.pool = pool;
        self
    }

    /// All ⊆-maximal repairs of `source` under `gov`. On interrupt the
    /// outcome is a sound partial: every listed repair is maximal and
    /// chaseable, `complete` is false.
    pub fn repairs(&self, source: &Instance, gov: &Governor) -> RepairOutcome {
        let mut repairs = Vec::new();
        let outcome = self.for_each_repair(source, gov, |r| {
            repairs.push(r.clone());
            true
        });
        RepairOutcome { repairs, ..outcome }
    }

    /// Streaming variant: calls `visit` on each repair as it is
    /// accepted; a `false` return stops the search (the returned
    /// outcome is then marked incomplete and carries no repairs — the
    /// caller saw them). Useful for serving the first repair fast.
    pub fn for_each_repair(
        &self,
        source: &Instance,
        gov: &Governor,
        mut visit: impl FnMut(&Repair) -> bool,
    ) -> RepairOutcome {
        let tracer = gov.tracer();
        let emit = |kind: EventKind| tracer.emit(gov.clock().now_ns(), kind);
        let atoms: Vec<Atom> = source.sorted_atoms();
        let index_of: HashMap<&Atom, usize> =
            atoms.iter().enumerate().map(|(i, a)| (a, i)).collect();
        let n = atoms.len();
        let mut stats = RepairStats::default();
        let mut complete = true;
        let mut interrupt = None;
        // Removal sets (sorted index vectors) of accepted repairs.
        let mut success_removals: Vec<Vec<usize>> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        if tracer.enabled() {
            emit(EventKind::RepairSearchStarted { source_atoms: n });
        }

        // BFS frontier: removal sets of size `level` still to chase.
        let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
        seen.insert(Vec::new());
        let mut level = 0usize;
        'search: while !frontier.is_empty() {
            stats.max_level = level;
            if let Err(i) = gov.force_check() {
                complete = false;
                interrupt = Some(i);
                break 'search;
            }
            // Span per BFS level; leaks open if the governor interrupts
            // mid-level (the analyzer treats that like a truncated trace).
            let sp_level = tracer.span("hs_level", gov.clock().now_ns());
            // Chase the whole level in parallel; chase cost scales with
            // the kept-instance size, which is uniform across the level.
            let cost = Cost::EstimateNs(20_000u64.saturating_mul((n.max(1) - level) as u64));
            let results: Vec<Result<ChaseSuccess, ChaseError>> =
                self.pool.map(&frontier, cost, |_, removal| {
                    let kept = Instance::from_atoms(
                        atoms
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| !removal.contains(i))
                            .map(|(_, a)| a.clone()),
                    );
                    ChaseEngine::new(self.setting, &self.budget)
                        .with_provenance(true)
                        .run(&kept)
                });
            let mut next: Vec<Vec<usize>> = Vec::new();
            for (removal, result) in frontier.iter().zip(results) {
                // One governor tick per candidate, in submission order:
                // fault injection trips at the same candidate for every
                // thread count.
                if let Err(i) = gov.check() {
                    complete = false;
                    interrupt = Some(i);
                    break 'search;
                }
                stats.candidates_chased += 1;
                match result {
                    Ok(chase) => {
                        if tracer.enabled() {
                            emit(EventKind::RepairCandidateChased {
                                removed: removal.len(),
                                outcome: "success".into(),
                            });
                            emit(EventKind::RepairFound {
                                removed: removal.len(),
                                kept: n - removal.len(),
                            });
                        }
                        let removed: Vec<Atom> =
                            removal.iter().map(|&i| atoms[i].clone()).collect();
                        let kept = Instance::from_atoms(
                            atoms
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| !removal.contains(i))
                                .map(|(_, a)| a.clone()),
                        );
                        success_removals.push(removal.clone());
                        let repair = Repair {
                            kept,
                            removed,
                            chase,
                        };
                        if !visit(&repair) {
                            complete = false;
                            break 'search;
                        }
                    }
                    Err(ChaseError::EgdConflict { witness }) => {
                        if tracer.enabled() {
                            emit(EventKind::RepairCandidateChased {
                                removed: removal.len(),
                                outcome: "conflict".into(),
                            });
                        }
                        // Branch atoms: the provenance-extracted source
                        // conflict set, or every kept atom if ungrounded.
                        let branch: Vec<usize> = if witness.grounded() {
                            stats.conflicts_extracted += 1;
                            witness
                                .conflict_set
                                .iter()
                                .filter_map(|a| index_of.get(a).copied())
                                .collect()
                        } else {
                            stats.ungrounded_fallbacks += 1;
                            (0..n).filter(|i| !removal.contains(i)).collect()
                        };
                        for b in branch {
                            let mut child = removal.clone();
                            let pos = child.binary_search(&b).unwrap_err();
                            child.insert(pos, b);
                            if success_removals.iter().any(|s| is_subset(s, &child)) {
                                stats.pruned_superset += 1;
                                continue;
                            }
                            if !seen.insert(child.clone()) {
                                stats.pruned_duplicate += 1;
                                continue;
                            }
                            next.push(child);
                        }
                    }
                    Err(ChaseError::BudgetExceeded { .. }) => {
                        if tracer.enabled() {
                            emit(EventKind::RepairCandidateChased {
                                removed: removal.len(),
                                outcome: "budget".into(),
                            });
                        }
                        // Undecided candidate: without its verdict the
                        // repair set cannot be certified complete, and
                        // there is no conflict set to branch on.
                        stats.budget_exhausted += 1;
                        complete = false;
                    }
                    Err(ChaseError::Interrupted(i)) => {
                        complete = false;
                        interrupt = Some(i);
                        break 'search;
                    }
                }
            }
            // Deterministic child order: BFS explores removal sets in
            // lexicographic index order within each level.
            next.sort();
            next.dedup();
            // A child generated before a same-level sibling succeeded
            // was never checked against that success; consistency is
            // downward-closed, so such a child would chase cleanly and
            // be emitted as a non-maximal pseudo-repair. Re-filter the
            // whole level against every success recorded so far.
            next.retain(|child| {
                if success_removals.iter().any(|s| is_subset(s, child)) {
                    stats.pruned_superset += 1;
                    false
                } else {
                    true
                }
            });
            frontier = next;
            sp_level.close(gov.clock().now_ns());
            level += 1;
        }

        if tracer.enabled() {
            emit(EventKind::RepairSearchCompleted {
                repairs: success_removals.len(),
                candidates: stats.candidates_chased,
                complete,
            });
        }
        RepairOutcome {
            repairs: Vec::new(),
            stats,
            complete,
            interrupt,
        }
    }
}

/// True iff sorted `a` ⊆ sorted `b`.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

/// The naive exponential baseline: chases every subset of the source by
/// decreasing size and keeps the successes not contained in an earlier
/// success. Returns the kept instances (same set as
/// [`RepairEngine::repairs`], in some order) and the number of chases
/// performed — the denominator of the provenance-guided pruning margin
/// recorded in `BENCH_repair.json`. Only usable at small sizes.
pub fn naive_repairs(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> (Vec<Instance>, usize) {
    let atoms: Vec<Atom> = source.sorted_atoms();
    let n = atoms.len();
    assert!(
        n <= 20,
        "naive_repairs is exponential; {n} atoms is too many"
    );
    let mut masks: Vec<u32> = (0..(1u32 << n)).collect();
    // Decreasing size: maximality by "no accepted superset" is then a
    // linear scan over earlier successes.
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    let mut accepted_masks: Vec<u32> = Vec::new();
    let mut repairs = Vec::new();
    let mut chased = 0usize;
    for mask in masks {
        if accepted_masks.iter().any(|&a| a & mask == mask) {
            continue; // subset of an accepted repair: not maximal
        }
        let kept = Instance::from_atoms(
            atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone()),
        );
        chased += 1;
        if dex_chase::chase(setting, &kept, budget).is_ok() {
            accepted_masks.push(mask);
            repairs.push(kept);
        }
    }
    (repairs, chased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::isomorphic;
    use dex_logic::{parse_instance, parse_setting};

    fn keyed() -> Setting {
        parse_setting(
            "source { P/2, R/2 }
             target { F/2, G/2 }
             st {
               dP: P(x,y) -> F(x,y);
               dR: R(x,y) -> G(x,y);
             }
             t { key: F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap()
    }

    #[test]
    fn consistent_source_has_identity_repair() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(c,d). R(a,b).").unwrap();
        let out =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        assert!(out.complete);
        assert_eq!(out.repairs.len(), 1);
        assert_eq!(out.repairs[0].kept, s);
        assert!(out.repairs[0].removed.is_empty());
        assert_eq!(out.stats.candidates_chased, 1);
        out.validate(&s).unwrap();
    }

    #[test]
    fn two_way_key_conflict_has_two_repairs() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). R(u,v).").unwrap();
        let out =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        assert!(out.complete);
        assert_eq!(out.repairs.len(), 2);
        for r in &out.repairs {
            // Each repair drops exactly one of the clashing P-atoms and
            // keeps the untouched R-atom.
            assert_eq!(r.removed.len(), 1);
            assert_eq!(r.removed[0].rel.as_str(), "P");
            assert!(r.kept.contains(&Atom::of(
                "R",
                vec![dex_core::Value::konst("u"), dex_core::Value::konst("v")]
            )));
        }
        out.validate(&s).unwrap();
    }

    #[test]
    fn crossed_conflicts_multiply() {
        // Two independent clashing keys: 2 × 2 repairs.
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f).").unwrap();
        let out =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        assert!(out.complete);
        assert_eq!(out.repairs.len(), 4);
        for r in &out.repairs {
            assert_eq!(r.removed.len(), 2);
            assert_eq!(r.kept.len(), 2);
        }
        out.validate(&s).unwrap();
    }

    #[test]
    fn engine_matches_naive_baseline() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(a,d). R(u,v). P(w,x).").unwrap();
        let out =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        let (naive, naive_chased) = naive_repairs(&d, &s, &ChaseBudget::default());
        assert_eq!(out.repairs.len(), naive.len());
        for r in &out.repairs {
            assert!(
                naive.iter().any(|k| *k == r.kept),
                "engine repair missing from naive: {:?}",
                r.removed
            );
        }
        // The provenance-guided search chases strictly fewer candidates.
        assert!(
            out.stats.candidates_chased < naive_chased,
            "guided {} !< naive {}",
            out.stats.candidates_chased,
            naive_chased
        );
        out.validate(&s).unwrap();
    }

    #[test]
    fn parallel_pool_gives_identical_outcome() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f). R(u,v).").unwrap();
        let seq =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        for threads in [2usize, 8] {
            let par = RepairEngine::new(&d, &ChaseBudget::default())
                .with_pool(Pool::new(threads).with_threshold_ns(0))
                .repairs(&s, &Governor::unlimited());
            assert_eq!(par.repairs.len(), seq.repairs.len());
            for (a, b) in par.repairs.iter().zip(&seq.repairs) {
                assert_eq!(a.kept, b.kept);
                assert_eq!(a.removed, b.removed);
                assert!(isomorphic(&a.chase.target, &b.chase.target));
            }
            assert_eq!(par.stats, seq.stats);
        }
    }

    #[test]
    fn overlapping_conflicts_emit_only_maximal_repairs() {
        // Two overlapping minimal conflict sets: {P(a,b), P(a,c)} via
        // the F-key and {P(a,c), R(c,q)} via the G-key. At level 1 the
        // candidate dropping P(a,b) fails on the G-key and spawns the
        // child {P(a,b), P(a,c)} *before* its sibling (drop P(a,c))
        // succeeds, so generation-time pruning misses it; without the
        // level re-filter the child chases cleanly at level 2 and the
        // non-maximal kept set {R(c,q)} is emitted.
        let d = parse_setting(
            "source { P/2, R/2 }
             target { F/2, G/2 }
             st {
               dF: P(x,y) -> F(x,y);
               dG: P(x,y) -> G(y,x);
               dR: R(x,y) -> G(x,y);
             }
             t {
               kF: F(x,y) & F(x,z) -> y = z;
               kG: G(x,y) & G(x,z) -> y = z;
             }",
        )
        .unwrap();
        let s = parse_instance("P(a,b). P(a,c). R(c,q).").unwrap();
        let out =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        assert!(out.complete);
        out.validate(&s).unwrap();
        // Exactly the hitting-set duals of the two conflicts: keep
        // {P(a,b), R(c,q)} (remove P(a,c)) or keep {P(a,c)} alone.
        assert_eq!(out.repairs.len(), 2);
        let (naive, _) = naive_repairs(&d, &s, &ChaseBudget::default());
        assert_eq!(naive.len(), 2);
        for r in &out.repairs {
            assert!(
                naive.iter().any(|k| *k == r.kept),
                "engine repair missing from naive: {:?}",
                r.removed
            );
        }
    }

    #[test]
    fn governed_interrupt_yields_sound_partial() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f).").unwrap();
        let full =
            RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &Governor::unlimited());
        for fuel in 1u64..8 {
            let gov = Governor::unlimited().with_fuel(fuel);
            let out = RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &gov);
            if out.complete {
                assert_eq!(out.repairs.len(), full.repairs.len());
            } else {
                assert!(out.interrupt.is_some());
                // Every emitted repair is one of the true repairs.
                for r in &out.repairs {
                    assert!(full.repairs.iter().any(|f| f.kept == r.kept));
                }
            }
            out.validate(&s).unwrap();
        }
    }

    #[test]
    fn streaming_visitor_can_stop_early() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f).").unwrap();
        let mut seen = 0usize;
        let out = RepairEngine::new(&d, &ChaseBudget::default()).for_each_repair(
            &s,
            &Governor::unlimited(),
            |_| {
                seen += 1;
                seen < 2
            },
        );
        assert_eq!(seen, 2);
        assert!(!out.complete);
    }

    #[test]
    fn search_traces_on_the_governor_tracer_and_clock() {
        use dex_core::govern::Clock;
        use dex_obs::{Collector, RingRecorder, Tracer};
        use std::sync::Arc;
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). R(u,v).").unwrap();
        let ring = Arc::new(RingRecorder::new(1 << 10));
        let (clock, mock) = Clock::mock();
        mock.set_ns(7_000);
        let gov = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
        let out = RepairEngine::new(&d, &ChaseBudget::default()).repairs(&s, &gov);
        assert!(out.complete);
        let events = ring.events();
        let levels = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::SpanOpened { name } if name == "hs_level"))
            .count();
        assert_eq!(levels, out.stats.max_level + 1);
        let started = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RepairSearchStarted { source_atoms: 3 }))
            .count();
        let completed = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::RepairSearchCompleted {
                        repairs: 2,
                        complete: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((started, completed), (1, 1));
        // Every event of the search is stamped from the governor's clock.
        assert!(events.iter().all(|e| e.at_ns == 7_000), "{events:?}");
    }

    #[test]
    fn empty_source_is_its_own_repair() {
        let d = keyed();
        let out = RepairEngine::new(&d, &ChaseBudget::default())
            .repairs(&Instance::new(), &Governor::unlimited());
        assert!(out.complete);
        assert_eq!(out.repairs.len(), 1);
        assert!(out.repairs[0].kept.is_empty());
    }
}
