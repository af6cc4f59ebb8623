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
//! by removal-set size. Each node is a removal set `R`; a node whose
//! candidate `S \ R` chases cleanly hits every conflict and (by BFS
//! order plus superset pruning) is minimal, so its repair is emitted
//! with the chase result cached. An inconsistent node is *labelled*
//! with a grounded conflict set `C` disjoint from `R` and branches on
//! `C`'s atoms: any repair's removal set must contain one of them.
//!
//! # Paying only for the contested atoms
//!
//! A node is decided at the cost of the atoms known to be contested,
//! not of the whole source. Let `K` be the union of the conflict sets
//! found so far; every removal set the guided search builds lies
//! inside `K`.
//!
//! - *Reuse* (Reiter's rule). Inconsistency is closed upward, so a node
//!   whose `R` misses a known conflict set is inconsistent without a
//!   chase, and that set is its label.
//! - *Base chase.* Otherwise the engine chases `S \ K` once, with
//!   provenance, and keeps the result until `K` grows. If it fails, its
//!   grounded conflict set lies inside `S \ K ⊆ S \ R` and labels the
//!   node. If it succeeds, the node's chase is
//!   [`ChaseEngine::resume`] of it with the insertions `K \ R` — the
//!   candidate `S \ R` — or, when `K \ R` is empty, the base result
//!   itself.
//! - A resume that fails returns the grounded conflict set of `S \ R`,
//!   which joins the known conflicts.
//! - While `|S \ K| ≤ |K|` the base chase would cost about as much as
//!   the candidate chases it shortens, so candidates are chased in full
//!   instead. On a small source that is mostly contested (`P(a,b)`,
//!   `P(a,c)`, `R(u,v)` under a key on `P`'s image) this is one chase
//!   per node, not one more for the base.
//!
//! Conflict sets are sound because the justification chains derive the
//! clash from exactly those source atoms, so chasing them alone fails
//! too. When a base chase exhausts its budget, or any chase fails with
//! a broken chain (FO-bodied st-tgds have no atom decomposition), the
//! engine falls back for the rest of the search: every undecided node
//! is chased in full, and an ungrounded failure branches on every kept
//! atom — complete, just unguided.
//!
//! # Determinism
//!
//! Each level is planned first, in frontier order: reuse decisions and
//! base chases run on the calling thread. The level's resumes (or full
//! chases) then run as one [`Pool`] batch with per-job cost hints, and
//! the nodes are consumed in submission order: one governor tick per
//! node, then its chases' counters and trace events. Every chase runs
//! under a [`Governor::worker`] of the caller's governor (its clock,
//! deadline and cancel flag) and traces into a private ring, re-emitted
//! at consumption, so stats, trace stream and fault trip points are
//! identical for any thread count. Work planned past a trip point is
//! discarded uncounted. Because BFS finishes level `k-1` before level
//! `k` and same-level successes cannot dominate each other, every
//! repair emitted before an interrupt is genuinely maximal — a sound
//! partial.
//!
//! Superset pruning runs twice: once at child-generation time against
//! the successes recorded so far, and once more on the assembled next
//! level. The second pass is load-bearing — a child generated before a
//! same-level sibling succeeds is not caught by the first pass, and by
//! downward closure it would chase cleanly and surface as a
//! non-maximal pseudo-repair.

use dex_chase::{ChaseBudget, ChaseEngine, ChaseError, ChaseSuccess, ConflictWitness};
use dex_core::govern::{Governor, Interrupt};
use dex_core::{Atom, Cost, IdMap, IdSet, Instance, Pool, SourceDelta};
use dex_logic::Setting;
use dex_obs::{EventKind, JsonValue, RingRecorder, Tracer};
use std::sync::Arc;

/// Capacity of the private ring each chase of the search traces into.
const CHASE_RING_CAPACITY: usize = 4096;

/// One ⊆-maximal repair: the kept source subset, what was removed, and
/// the cached chase of the kept subset.
#[derive(Clone, Debug)]
pub struct Repair {
    /// The repaired source `S' ⊆ S` (chases cleanly).
    pub kept: Instance,
    /// The removed atoms `S \ S'`, sorted.
    pub removed: Vec<Atom>,
    /// The successful chase of `kept`, cached for answering. It
    /// carries no provenance: the search records provenance only to
    /// extract conflict sets, and drops it from each accepted repair.
    pub chase: ChaseSuccess,
}

/// Counters for one repair search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Chases actually run: base chases, resumes and full candidate
    /// chases.
    pub candidates_chased: usize,
    /// Failing chases that yielded a grounded conflict set.
    pub conflicts_extracted: usize,
    /// Nodes labelled by an already-known conflict set their removal
    /// set misses, decided without a chase.
    pub conflicts_reused: usize,
    /// Failing chases whose witness was not grounded (FO bodies),
    /// forcing the unguided fallback.
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
                "conflicts_reused",
                JsonValue::uint(self.conflicts_reused as u64),
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
    /// The grounded conflict sets the search labelled nodes with, in
    /// discovery order, each sorted. Every one is a source subset whose
    /// chase fails on its own, and every repair's removal set hits all
    /// of them.
    pub conflicts: Vec<Vec<Atom>>,
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

/// A chase result with the private ring its events went to (`None`
/// when the caller's governor does not trace).
type Traced = (Result<ChaseSuccess, ChaseError>, Option<Arc<RingRecorder>>);

/// One job of a level's batch.
enum Job {
    /// Resume the base chase with the kept contested atoms `K \ R`.
    Resume(SourceDelta),
    /// Chase the candidate `S \ R` in full (after a fallback).
    Full(Instance),
}

/// How a frontier node is decided, fixed when its level is planned.
enum Verdict {
    /// `R` misses the known conflict set `index`: either an older one
    /// (`reused`, no chase) or the one the node's base chase just failed
    /// with, which lies in `S \ K` and so outside `R`.
    Conflict { index: usize, reused: bool },
    /// The base chase is the node's chase (`R = K`).
    Base,
    /// The node's chase is the next job of the level's batch.
    Job,
    /// The node's base chase was interrupted.
    Interrupted(Interrupt),
}

/// The grounded conflict sets found so far and their union `K`.
struct Known {
    sets: Vec<Vec<usize>>,
    /// `in_k[i]` iff source atom `i` lies in `K`.
    in_k: Vec<bool>,
    /// `|K|`. It only grows, so a base chase taken at the current size
    /// is still the chase of `S \ K`.
    k_len: usize,
}

impl Known {
    /// The first known conflict set `removal` misses.
    fn missed_by(&self, removal: &[usize]) -> Option<usize> {
        self.sets.iter().position(|c| is_disjoint(c, removal))
    }

    /// Adds the sorted conflict set `c` unless it is known; its index.
    fn learn(&mut self, c: Vec<usize>) -> usize {
        if let Some(i) = self.sets.iter().position(|s| *s == c) {
            return i;
        }
        for &i in &c {
            self.k_len += usize::from(!self.in_k[i]);
            self.in_k[i] = true;
        }
        self.sets.push(c);
        self.sets.len() - 1
    }
}

/// A planned node: its verdict and the base chase run for it while
/// planning (ring, and whether it failed ungrounded), which is charged
/// when the node is consumed.
struct Planned {
    verdict: Verdict,
    base_run: Option<(Option<Arc<RingRecorder>>, bool)>,
}

/// Governed, provenance-guided repair search for one setting + budget.
/// Its `hs_level` spans and `repair_*` events go to the governor's
/// tracer, stamped from the governor's clock, and so do the events of
/// every chase it runs.
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

    /// Runs the chases of each BFS level through `pool` (the answers
    /// are identical for any thread count).
    pub fn with_pool(mut self, pool: Pool) -> RepairEngine<'a> {
        self.pool = pool;
        self
    }

    /// All ⊆-maximal repairs of `source` under `gov`. On interrupt the
    /// outcome is a sound partial: every listed repair is maximal and
    /// chaseable, `complete` is false.
    pub fn repairs(&self, source: &Instance, gov: &Governor) -> RepairOutcome {
        let mut repairs = Vec::new();
        let outcome = self.search(source, gov, |r| {
            repairs.push(r);
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
        self.search(source, gov, |r| visit(&r))
    }

    /// Runs `f` on a provenance-recording chase engine under a worker
    /// of `gov`, tracing into a private ring when `gov` traces.
    fn chase(
        &self,
        gov: &Governor,
        f: impl FnOnce(&ChaseEngine) -> Result<ChaseSuccess, ChaseError>,
    ) -> Traced {
        let ring = gov
            .tracer()
            .enabled()
            .then(|| Arc::new(RingRecorder::new(CHASE_RING_CAPACITY)));
        let tracer = ring
            .as_ref()
            .map_or_else(Tracer::off, |r| Tracer::new(Arc::clone(r) as _));
        let worker = gov.worker(tracer.clone());
        let engine = ChaseEngine::new(self.setting, &self.budget)
            .with_governor(&worker)
            .with_provenance(true);
        let result = f(&engine);
        // A run stopped mid-round leaks its span guards; close them so
        // every re-emitted ring is a well-formed stream.
        tracer.close_open_spans(gov.clock().now_ns());
        (result, ring)
    }

    fn search(
        &self,
        source: &Instance,
        gov: &Governor,
        mut visit: impl FnMut(Repair) -> bool,
    ) -> RepairOutcome {
        let tracer = gov.tracer();
        let emit = |kind: EventKind| tracer.emit(gov.clock().now_ns(), kind);
        let replay = |ring: Option<Arc<RingRecorder>>| {
            if let Some(ring) = ring {
                ring.replay_into(tracer);
            }
        };
        let atoms: Vec<Atom> = source.sorted_atoms();
        let index_of: IdMap<&Atom, usize> = atoms.iter().enumerate().map(|(i, a)| (a, i)).collect();
        let conflict_of = |w: &ConflictWitness| -> Vec<usize> {
            let mut c: Vec<usize> = w
                .conflict_set
                .iter()
                .filter_map(|a| index_of.get(a).copied())
                .collect();
            c.sort_unstable();
            c
        };
        let n = atoms.len();
        let mut stats = RepairStats::default();
        let mut complete = true;
        let mut interrupt = None;
        // Removal sets (sorted index vectors) of accepted repairs.
        let mut success_removals: Vec<Vec<usize>> = Vec::new();
        let mut seen: IdSet<Vec<usize>> = IdSet::default();
        // The known conflict sets, and the base chase of `S \ K` with the
        // `|K|` it was taken at.
        let mut known = Known {
            sets: Vec::new(),
            in_k: vec![false; n],
            k_len: 0,
        };
        let mut base: Option<(ChaseSuccess, usize)> = None;
        // Set once a chase could not guide the search: every undecided
        // node is then chased in full.
        let mut fallback = false;
        if tracer.enabled() {
            emit(EventKind::RepairSearchStarted { source_atoms: n });
        }

        // BFS frontier: removal sets of size `level` still to decide.
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

            // Plan the level in frontier order. Only a base chase can
            // grow `K` here, and it runs only while no valid base
            // exists, so every resume job of the level starts from the
            // same base.
            let mut plans: Vec<Planned> = Vec::with_capacity(frontier.len());
            let mut jobs: Vec<Job> = Vec::new();
            for removal in &frontier {
                if let Some(index) = known.missed_by(removal) {
                    plans.push(Planned {
                        verdict: Verdict::Conflict {
                            index,
                            reused: true,
                        },
                        base_run: None,
                    });
                    continue;
                }
                // While `S \ K` is no larger than `K`, a base chase costs
                // about as much as the candidate chases it would shorten.
                let full = fallback || n - known.k_len <= known.k_len;
                let mut base_run = None;
                if !full && base.as_ref().is_none_or(|(_, k)| *k != known.k_len) {
                    let outside_k = Instance::from_atoms(
                        atoms
                            .iter()
                            .zip(&known.in_k)
                            .filter(|(_, &k)| !k)
                            .map(|(a, _)| a.clone()),
                    );
                    let (result, ring) = self.chase(gov, |e| e.run(&outside_k));
                    match result {
                        Ok(s) => {
                            base = Some((s, known.k_len));
                            base_run = Some((ring, false));
                        }
                        Err(ChaseError::EgdConflict { witness }) if witness.grounded() => {
                            plans.push(Planned {
                                verdict: Verdict::Conflict {
                                    index: known.learn(conflict_of(&witness)),
                                    reused: false,
                                },
                                base_run: Some((ring, false)),
                            });
                            continue;
                        }
                        Err(ChaseError::Interrupted(i)) => {
                            plans.push(Planned {
                                verdict: Verdict::Interrupted(i),
                                base_run: Some((ring, false)),
                            });
                            break;
                        }
                        Err(e) => {
                            fallback = true;
                            let ungrounded = matches!(e, ChaseError::EgdConflict { .. });
                            base_run = Some((ring, ungrounded));
                        }
                    }
                }
                let verdict = if full || fallback {
                    jobs.push(Job::Full(kept_of(&atoms, removal)));
                    Verdict::Job
                } else {
                    let inserts: Vec<Atom> = (0..n)
                        .filter(|i| known.in_k[*i] && removal.binary_search(i).is_err())
                        .map(|i| atoms[i].clone())
                        .collect();
                    if inserts.is_empty() {
                        Verdict::Base
                    } else {
                        jobs.push(Job::Resume(SourceDelta {
                            inserts,
                            deletes: Vec::new(),
                        }));
                        Verdict::Job
                    }
                };
                plans.push(Planned { verdict, base_run });
            }

            // Run the level's jobs as one batch. A full chase costs in
            // proportion to the kept atoms; a resume mostly copies its
            // base.
            let cost = jobs
                .iter()
                .map(|job| match job {
                    Job::Resume(_) => 500 * n as u64,
                    Job::Full(kept) => 20_000 * kept.len() as u64,
                })
                .max()
                .unwrap_or(0);
            let base_ref = base.as_ref().map(|(s, _)| s);
            let results: Vec<Traced> =
                self.pool
                    .map(&jobs, Cost::EstimateNs(cost), |_, job| match job {
                        Job::Resume(delta) => self.chase(gov, |e| {
                            e.resume(base_ref.expect("resume jobs follow a base chase"), delta)
                        }),
                        Job::Full(kept) => self.chase(gov, |e| e.run(kept)),
                    });
            let mut done = jobs.into_iter().zip(results);

            // Consume the nodes in submission order.
            let mut next: Vec<Vec<usize>> = Vec::new();
            for (removal, planned) in frontier.iter().zip(plans) {
                // One governor tick per node, in submission order: fault
                // injection trips at the same node for every thread
                // count.
                if let Err(i) = gov.check() {
                    complete = false;
                    interrupt = Some(i);
                    break 'search;
                }
                if let Some((ring, ungrounded)) = planned.base_run {
                    stats.candidates_chased += 1;
                    stats.ungrounded_fallbacks += usize::from(ungrounded);
                    replay(ring);
                }
                let candidate_chased = |outcome: &str| {
                    if tracer.enabled() {
                        emit(EventKind::RepairCandidateChased {
                            removed: removal.len(),
                            outcome: outcome.into(),
                        });
                    }
                };
                let (result, kept) = match planned.verdict {
                    Verdict::Conflict { index, reused } => {
                        if reused {
                            stats.conflicts_reused += 1;
                            candidate_chased("reused");
                        } else {
                            stats.conflicts_extracted += 1;
                            candidate_chased("conflict");
                        }
                        let children = branch_on(
                            removal,
                            &known.sets[index],
                            &success_removals,
                            &mut seen,
                            &mut stats,
                        );
                        next.extend(children);
                        continue;
                    }
                    Verdict::Interrupted(i) => {
                        complete = false;
                        interrupt = Some(i);
                        break 'search;
                    }
                    // Plans hold at most one `Base` node per level (the
                    // frontier is deduplicated), so the base can move.
                    Verdict::Base => {
                        let (s, _) = base.take().expect("a `Base` node follows a base chase");
                        (Ok(s), None)
                    }
                    Verdict::Job => {
                        let (job, (result, ring)) =
                            done.next().expect("every `Job` node has a batch result");
                        stats.candidates_chased += 1;
                        replay(ring);
                        match job {
                            Job::Full(kept) => (result, Some(kept)),
                            Job::Resume(_) => (result, None),
                        }
                    }
                };
                match result {
                    Ok(mut chase) => {
                        // Answering never reads the provenance; freeing
                        // it here keeps the outcome small.
                        chase.provenance = None;
                        candidate_chased("success");
                        if tracer.enabled() {
                            emit(EventKind::RepairFound {
                                removed: removal.len(),
                                kept: n - removal.len(),
                            });
                        }
                        success_removals.push(removal.clone());
                        let repair = Repair {
                            kept: kept.unwrap_or_else(|| kept_of(&atoms, removal)),
                            removed: removal.iter().map(|&i| atoms[i].clone()).collect(),
                            chase,
                        };
                        if !visit(repair) {
                            complete = false;
                            break 'search;
                        }
                    }
                    Err(ChaseError::EgdConflict { witness }) => {
                        candidate_chased("conflict");
                        // Branch atoms: the provenance-extracted source
                        // conflict set, or every kept atom if ungrounded.
                        let branch = if witness.grounded() {
                            stats.conflicts_extracted += 1;
                            let index = known.learn(conflict_of(&witness));
                            known.sets[index].clone()
                        } else {
                            // The node leaves `K`, so the base no longer
                            // covers the nodes below it.
                            stats.ungrounded_fallbacks += 1;
                            fallback = true;
                            (0..n)
                                .filter(|i| removal.binary_search(i).is_err())
                                .collect()
                        };
                        let children =
                            branch_on(removal, &branch, &success_removals, &mut seen, &mut stats);
                        next.extend(children);
                    }
                    Err(ChaseError::BudgetExceeded { .. }) => {
                        candidate_chased("budget");
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
                    // A source atom outside σ: the candidate is
                    // undecided, like one whose budget ran out.
                    Err(ChaseError::InvalidSource(_)) => {
                        candidate_chased("invalid_source");
                        complete = false;
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
            conflicts: known
                .sets
                .iter()
                .map(|c| c.iter().map(|&i| atoms[i].clone()).collect())
                .collect(),
            stats,
            complete,
            interrupt,
        }
    }
}

/// The children `removal + {b}` for each branch atom `b`, without the
/// supersets of accepted repairs and the already-generated sets.
fn branch_on(
    removal: &[usize],
    branch: &[usize],
    success_removals: &[Vec<usize>],
    seen: &mut IdSet<Vec<usize>>,
    stats: &mut RepairStats,
) -> Vec<Vec<usize>> {
    let mut children = Vec::new();
    for &b in branch {
        let mut child = removal.to_vec();
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
        children.push(child);
    }
    children
}

/// The candidate `S \ R` for the sorted source `atoms` and sorted `removal`.
fn kept_of(atoms: &[Atom], removal: &[usize]) -> Instance {
    Instance::from_atoms(
        atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| removal.binary_search(i).is_err())
            .map(|(_, a)| a.clone()),
    )
}

/// True iff sorted `a` and sorted `b` share no element.
fn is_disjoint(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
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
