//! The delta-driven chase engine: semi-naive trigger discovery over
//! [`dex_core::DeltaCursor`] windows instead of the naive drivers'
//! per-step full rescan, with in-place egd merging through
//! [`dex_core::Instance::merge_value`].
//!
//! # Why semi-naive search is sound for the standard chase
//!
//! The restricted chase fires a trigger only when its (existential) head
//! `∃z̄ ψ` is not yet satisfiable. Satisfied heads *stay* satisfied under
//! both kinds of mutation: inserts only add witnesses, and an egd merge
//! maps the instance along the endomorphism `loser ↦ winner`, carrying
//! any witness atoms along while fixing the values of every surviving
//! (unrewritten) row. A body match that became *newly* unsatisfied must
//! therefore involve at least one row appended since the last
//! examination — and [`Instance::merge_value`] re-appends rewritten rows,
//! so they re-enter the delta window. Seeding each body atom with each
//! delta row thus reaches every genuinely new trigger.
//!
//! The egd side is semi-naive too ([`EgdScan`]). An egd violation needs
//! all its body rows present with two unequal values, so once the egd
//! fixpoint has run, every later violation has a row appended after it:
//! a tgd insert, or a row a merge re-appended. The scan keeps one cursor
//! for the whole fixpoint and moves each relation's mark past every row
//! it has checked clean; it never restarts after a merge. Its invariant
//! — every violation has a row past the marks — survives a merge because
//! the merge re-appends every row it rewrites past all marks, and a
//! match over unchanged rows was already a violation before. Egds whose
//! two body atoms are exchanged by a variable swap that fixes
//! `{lhs, rhs}` (keys, FDs) are seeded at one of the two atoms only.
//! See [`crate::egd_scan`] for both arguments in full.
//!
//! # One skeleton, two firing policies
//!
//! [`ChaseEngine::run`], [`ChaseEngine::resume`] and
//! [`ChaseEngine::run_alpha`] drive one loop: a pass over every s-t
//! trigger (σ never changes), then rounds of an egd fixpoint through
//! [`EgdScan`] followed by one seeded tgd round over the rows appended
//! since the last round, until a round finds nothing new. Every trigger
//! goes through one examine-and-fire step. `resume` enters the same loop
//! after retraction and head-seeded re-derivation (both through the same
//! step), seeding s-t discovery with its net source inserts as the
//! delta. The α-chase (Def. 4.1/4.2) is the standard chase with its tgd
//! witnesses taken from α(justification), so the two differ only in the
//! firing policy, at exactly these points:
//!
//! - *Active trigger.* Restricted: the head `∃z̄ ψ` is not satisfiable,
//!   and the existentials get fresh nulls. α: some atom of the ᾱ-head,
//!   its `z̄` taken from the [`AlphaSource`], is missing.
//! - *Provenance valuation.* Restricted: the body match plus the fresh
//!   witnesses. α: the body match alone — the justification (d, ū, v̄).
//! - *Merge.* Restricted: a persistent [`ValueUnionFind`]. α: the raw
//!   pair through [`merge_policy`], because a fixed α can re-introduce a
//!   merged-away null (Example 4.4's α₃), which a union-find would treat
//!   as already merged and silently drop.
//! - *After a merge.* An ᾱ-head is a *specific* set of atoms, not an
//!   existential: a merge can rewrite one of them away and re-enable the
//!   trigger. The α-chase therefore rewinds its tgd cursor to the origin
//!   and repeats the s-t pass over the σ-matches it computed once (σ is
//!   ground and merges rewrite only nulls); the restricted chase needs
//!   neither and passes σ once.
//! - *Per step.* The α-chase records each step as a [`ChaseStep`] and
//!   hashes the instance, so a provably infinite run (a revisited state)
//!   ends as `CycleDetected`.
//!
//! A run that stops short of its fixpoint carries one internal stop
//! value, mapped once to [`ChaseError`] or [`AlphaOutcome`] by the
//! public entry point.

use crate::alpha::{AlphaOutcome, AlphaSource, AlphaSuccess, ChaseStep, Justification};
use crate::budget::ChaseBudget;
use crate::egd_scan::{EgdScan, EgdViolation};
use crate::provenance::Provenance;
use crate::standard::{ChaseError, ChaseSuccess};
use crate::stats::ChaseStats;
use crate::witness::ConflictWitness;
use dex_core::govern::{Clock, Interrupt};
use dex_core::{
    merge_policy, Atom, DeltaCursor, Governor, IdMap, IdSet, Instance, MergeOutcome, NullGen,
    Schema, SourceDelta, Symbol, Value, ValueUnionFind,
};
use dex_logic::matcher;
use dex_logic::{Assignment, Body, FAtom, Setting, Term, Tgd};
use dex_obs::EventKind;

/// A reusable chase driver for one setting + budget.
///
/// Every run is governed by one [`Governor`]: the caller's
/// ([`ChaseEngine::with_governor`]) or, without one, a governor built
/// per run from the budget's deadline and cancel flag on the real
/// clock. That governor is the run's only source of fuel, faults,
/// deadline, cancellation, time and tracing: deadline decisions, the
/// [`ChaseStats`] phase timings and every trace event read its
/// [`Clock`], so they can never disagree, and two same-seed runs under
/// a mock clock trace byte-identically. The budget contributes only its
/// exact step and atom limits.
pub struct ChaseEngine<'a> {
    setting: &'a Setting,
    budget: ChaseBudget,
    gov: Option<&'a Governor>,
    provenance: bool,
    egd_scan: EgdScan<'a>,
    /// Each tgd's name, interned once, in `st_tgds ++ t_tgds` order.
    tgd_names: Vec<Symbol>,
}

/// Per relation, owned copies of the rows a round seeds trigger
/// discovery with.
type Delta = IdMap<Symbol, DeltaRows>;

/// The rows of one relation in a [`Delta`], stored flat: row `i` is
/// `data[i * arity..(i + 1) * arity]`.
struct DeltaRows {
    arity: usize,
    /// The number of rows; a nullary relation's rows hold no data.
    len: usize,
    data: Vec<Value>,
}

impl DeltaRows {
    fn new(arity: usize) -> DeltaRows {
        DeltaRows {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity);
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// The rows in order. Strides are counted, not chunked: a nullary
    /// relation has `len` empty rows, where `chunks_exact(0)` would panic.
    fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| &self.data[i * self.arity..(i + 1) * self.arity])
    }
}

/// Why a run stopped short of its fixpoint.
enum Stop {
    /// An egd equated two distinct constants.
    Conflict {
        witness: Box<ConflictWitness>,
        steps: usize,
    },
    /// The step or atom budget ran out.
    Budget { steps: usize, atoms: usize },
    /// The α-chase revisited an earlier state.
    Cycle { steps: usize },
    /// The governor's deadline passed or its cancel flag was raised.
    Interrupted(Interrupt),
}

impl From<Interrupt> for Stop {
    fn from(i: Interrupt) -> Stop {
        Stop::Interrupted(i)
    }
}

impl Stop {
    fn into_chase_error(self) -> ChaseError {
        match self {
            Stop::Conflict { witness, .. } => ChaseError::EgdConflict { witness },
            Stop::Budget { steps, atoms } => ChaseError::BudgetExceeded { steps, atoms },
            Stop::Interrupted(i) => ChaseError::Interrupted(i),
            Stop::Cycle { .. } => unreachable!("only the α-chase hashes its states"),
        }
    }

    fn into_alpha_outcome(self) -> AlphaOutcome {
        match self {
            Stop::Conflict { witness, steps } => AlphaOutcome::Failing { witness, steps },
            Stop::Budget { steps, atoms } => AlphaOutcome::BudgetExceeded { steps, atoms },
            Stop::Cycle { steps } => AlphaOutcome::CycleDetected { steps },
            Stop::Interrupted(i) => AlphaOutcome::Interrupted(i),
        }
    }
}

/// How a run fires triggers and merges values (see the module docs for
/// the points where the two differ).
enum Policy<'p> {
    /// The restricted chase with fresh-null witnesses.
    Restricted { nulls: NullGen, uf: ValueUnionFind },
    /// The α-chase with witnesses from `alpha`, recording each step in
    /// `log` and each state's hash in `seen`. `added` collects the atoms
    /// the current tgd step inserts; `st_matches` keeps σ's s-t body
    /// matches for the repeated s-t passes (σ is ground and merges only
    /// rewrite nulls, so they never change).
    Alpha {
        alpha: &'p mut dyn AlphaSource,
        log: &'p mut Vec<ChaseStep>,
        added: Vec<Atom>,
        seen: IdSet<u64>,
        st_matches: Vec<Vec<Assignment>>,
    },
}

impl<'p> Policy<'p> {
    /// Fresh nulls start above every value of `inst`.
    fn restricted(inst: &Instance) -> Policy<'p> {
        Policy::Restricted {
            nulls: NullGen::above(inst.values()),
            uf: ValueUnionFind::new(),
        }
    }

    fn alpha(
        alpha: &'p mut dyn AlphaSource,
        log: &'p mut Vec<ChaseStep>,
        start: &Instance,
    ) -> Policy<'p> {
        Policy::Alpha {
            alpha,
            log,
            added: Vec::new(),
            seen: IdSet::from_iter([state_hash(start)]),
            st_matches: Vec::new(),
        }
    }

    /// The head atoms an active trigger adds; `None` when the trigger is
    /// not active. On `Some`, `env` holds the valuation its provenance
    /// records: the restricted chase binds the fresh witnesses into it,
    /// the α-chase leaves the body match alone.
    fn active_head(
        &mut self,
        tgd: &Tgd,
        dep: usize,
        env: &mut Assignment,
        inst: &Instance,
    ) -> Option<Vec<Atom>> {
        match self {
            Policy::Restricted { nulls, .. } => {
                if tgd.head_holds(inst, env) {
                    return None;
                }
                for &z in &tgd.exist_vars {
                    env.bind(z, nulls.fresh_value());
                }
                Some(tgd.instantiate_head(env))
            }
            Policy::Alpha { alpha, .. } => {
                let head = alpha_head(tgd, dep, env, &mut **alpha, inst);
                head.iter().any(|a| !inst.contains(a)).then_some(head)
            }
        }
    }

    /// Inserts one head atom of a firing trigger; the α-chase keeps a
    /// copy of each new one for the step's log entry.
    fn insert(&mut self, inst: &mut Instance, atom: Atom) -> bool {
        match self {
            Policy::Restricted { .. } => inst.insert(atom),
            Policy::Alpha { added, .. } => {
                let new = inst.insert(atom.clone());
                if new {
                    added.push(atom);
                }
                new
            }
        }
    }

    fn merge(
        &mut self,
        left: Value,
        right: Value,
    ) -> Result<Option<MergeOutcome>, (Symbol, Symbol)> {
        match self {
            Policy::Restricted { uf, .. } => uf.union(left, right),
            Policy::Alpha { .. } => merge_policy(left, right),
        }
    }

    /// Called once an egd fixpoint has merged: a merge may have
    /// rewritten an examined ᾱ-head away, so the α-chase rewinds the tgd
    /// cursor to the origin and repeats the s-t pass.
    fn after_merge(&self, processed: &mut DeltaCursor, st_pending: &mut bool) {
        if let Policy::Alpha { .. } = self {
            *processed = DeltaCursor::origin();
            *st_pending = true;
        }
    }

    /// Swaps `matches` with the s-t matches the α-chase keeps between
    /// its passes; the restricted chase passes σ once and keeps none.
    fn swap_st_matches(&mut self, matches: &mut Vec<Vec<Assignment>>) {
        if let Policy::Alpha { st_matches, .. } = self {
            std::mem::swap(st_matches, matches);
        }
    }

    /// Records a step the run just took: the α-chase logs it, handing
    /// `step` the atoms [`Policy::insert`] kept, and stops when the
    /// instance is back in a state it has been in before.
    fn stepped(
        &mut self,
        inst: &Instance,
        steps: usize,
        step: impl FnOnce(Vec<Atom>) -> ChaseStep,
    ) -> Result<(), Stop> {
        if let Policy::Alpha {
            log, added, seen, ..
        } = self
        {
            log.push(step(std::mem::take(added)));
            if !seen.insert(state_hash(inst)) {
                return Err(Stop::Cycle { steps });
            }
        }
        Ok(())
    }
}

/// The mutable state of one run.
struct Run<'g, 'p> {
    gov: &'g Governor,
    inst: Instance,
    stats: ChaseStats,
    steps: usize,
    prov: Option<Provenance>,
    /// The provenance's visit count when the run opened.
    prov_visited: u64,
    policy: Policy<'p>,
}

impl Run<'_, '_> {
    /// The run's result and its target, the reduct to the target schema
    /// `tau`. The result first compacts every relation with more
    /// tombstones than live rows, so a resumed result's logs stay within
    /// twice its atoms; the target then shares every relation with it.
    fn success(mut self, tau: &Schema) -> ChaseSuccess {
        self.inst.compact_tombstones();
        ChaseSuccess {
            target: self.inst.reduct(tau),
            result: self.inst,
            steps: self.steps,
            stats: self.stats,
            provenance: self.prov,
        }
    }
}

/// Emits the event `kind` builds, stamped with `gov`'s clock, on
/// `gov`'s tracer. With the tracer off this is one branch: no clock
/// read, no payload.
#[inline]
fn emit(gov: &Governor, kind: impl FnOnce() -> EventKind) {
    let tracer = gov.tracer();
    if tracer.enabled() {
        tracer.emit(gov.clock().now_ns(), kind());
    }
}

/// The full trigger valuation of a body match, as (variable, value)
/// pairs in the assignment's (sorted) order.
fn valuation_of(env: &Assignment) -> Vec<(Symbol, Value)> {
    env.bindings().map(|(v, val)| (v.0, val)).collect()
}

fn state_hash(inst: &Instance) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    inst.sorted_atoms().hash(&mut h);
    h.finish()
}

/// Owned copies of the delta rows of the body relations: firing mutates
/// the instance (reallocating row logs), so the round works off a
/// snapshot.
fn snapshot_delta(inst: &Instance, cursor: &DeltaCursor, rels: &IdSet<Symbol>) -> Delta {
    let mut out = IdMap::default();
    for &rel in rels {
        let mut rows = inst.delta_rows(rel, cursor).peekable();
        let Some(first) = rows.peek() else {
            continue;
        };
        let mut snapshot = DeltaRows::new(first.len());
        rows.for_each(|row| snapshot.push(row));
        out.insert(rel, snapshot);
    }
    out
}

/// Instantiates the ᾱ-head of `tgd` (at index `dep` in `all_tgds`
/// order) for the body match `env`, querying `alpha` per justification.
/// The witnesses are bound into `env` only while the head is built.
fn alpha_head(
    tgd: &Tgd,
    dep: usize,
    env: &mut Assignment,
    alpha: &mut dyn AlphaSource,
    inst: &Instance,
) -> Vec<Atom> {
    let frontier: Vec<Value> = tgd
        .frontier()
        .iter()
        .map(|&v| env.get(v).expect("body match binds frontier"))
        .collect();
    let body_only: Vec<Value> = tgd
        .body_only_vars()
        .iter()
        .map(|&v| env.get(v).expect("body match binds body vars"))
        .collect();
    for (zi, &z) in tgd.exist_vars.iter().enumerate() {
        let j = Justification {
            dep,
            frontier: frontier.clone(),
            body_only: body_only.clone(),
            z_index: zi,
        };
        env.bind(z, alpha.value(&j, inst));
    }
    let head = tgd.instantiate_head(env);
    for &z in &tgd.exist_vars {
        env.unbind(z);
    }
    head
}

impl<'a> ChaseEngine<'a> {
    pub fn new(setting: &'a Setting, budget: &ChaseBudget) -> ChaseEngine<'a> {
        ChaseEngine {
            setting,
            budget: budget.clone(),
            gov: None,
            provenance: false,
            egd_scan: EgdScan::new(&setting.egds),
            tgd_names: setting
                .st_tgds
                .iter()
                .chain(&setting.t_tgds)
                .map(|t| Symbol::intern(&t.name))
                .collect(),
        }
    }

    /// Runs every chase under `gov`: its fuel, faults, deadline, cancel
    /// flag, clock and tracer, in place of the budget's deadline and
    /// cancel flag (build it with [`ChaseBudget::governor`] to keep
    /// those). Ticks accumulate on `gov` across runs.
    pub fn with_governor(mut self, gov: &'a Governor) -> ChaseEngine<'a> {
        self.gov = Some(gov);
        self
    }

    /// Enables per-atom provenance recording: the run's result carries
    /// a [`Provenance`] supporting `explain()` and the presolution
    /// justification cross-check.
    pub fn with_provenance(mut self, enabled: bool) -> ChaseEngine<'a> {
        self.provenance = enabled;
        self
    }

    /// Runs `f` under the caller's governor or, without one, under a
    /// fresh governor for the budget's deadline and cancel flag on the
    /// real clock.
    fn governed<R>(&self, f: impl FnOnce(&Governor) -> R) -> R {
        match self.gov {
            Some(gov) => f(gov),
            None => f(&self.budget.governor(&Clock::real())),
        }
    }

    /// Every tgd with its index in `all_tgds` order: s-t, then target.
    fn tgds(&self) -> impl Iterator<Item = (usize, &'a Tgd)> {
        self.setting
            .st_tgds
            .iter()
            .chain(&self.setting.t_tgds)
            .enumerate()
    }

    fn t_body_rels(&self) -> IdSet<Symbol> {
        self.setting
            .t_tgds
            .iter()
            .flat_map(|t| t.body.relations())
            .collect()
    }

    fn check_steps(&self, steps: usize, inst: &Instance) -> Result<(), Stop> {
        if steps >= self.budget.max_steps {
            return Err(Stop::Budget {
                steps,
                atoms: inst.len(),
            });
        }
        Ok(())
    }

    /// Builds the structured conflict witness for an egd trigger that
    /// equated the distinct constants `c` and `d`, with justification
    /// chains when the run records provenance.
    fn conflict_witness(
        &self,
        v: &EgdViolation,
        c: Value,
        d: Value,
        prov: Option<&Provenance>,
    ) -> Box<ConflictWitness> {
        let egd = &self.setting.egds[v.egd_index];
        let w = ConflictWitness::from_trigger(egd, v.egd_index, &v.env, c, d);
        Box::new(match prov {
            Some(p) => w.with_provenance(p),
            None => w,
        })
    }

    /// The violating trigger's instantiated body atoms — the premises
    /// whose continued support keeps the merge justified under
    /// incremental deletion ([`Provenance::record_merge`]).
    fn egd_premises(egd: &dex_logic::Egd, v: &EgdViolation) -> Vec<Atom> {
        egd.body
            .iter()
            .map(|a| {
                Atom::new(
                    a.rel,
                    a.args
                        .iter()
                        .map(|&t| v.env.term(t).expect("egd trigger env binds its body"))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Applies the merge `m` the violation `v` called for: rewrites the
    /// instance in place and records the step in the counters, the
    /// provenance and the trace.
    fn apply_merge(
        &self,
        gov: &Governor,
        inst: &mut Instance,
        v: &EgdViolation,
        m: MergeOutcome,
        stats: &mut ChaseStats,
        prov: Option<&mut Provenance>,
    ) {
        let egd = &self.setting.egds[v.egd_index];
        let rewritten = inst.merge_value(m.loser, m.winner);
        stats.rows_rewritten += rewritten;
        stats.egd_steps += 1;
        if let Some(p) = prov {
            p.record_merge(&egd.name, m.loser, m.winner, &Self::egd_premises(egd, v));
        }
        emit(gov, || EventKind::EgdMerged {
            dep: egd.name.clone(),
            loser: m.loser.to_string(),
            winner: m.winner.to_string(),
            rows_rewritten: rewritten,
        });
    }

    /// Opens a run over `inst` under `policy`.
    fn start<'g, 'p>(
        &self,
        gov: &'g Governor,
        inst: Instance,
        prov: Option<Provenance>,
        policy: Policy<'p>,
        driver: &str,
    ) -> Run<'g, 'p> {
        let stats = ChaseStats {
            peak_atoms: inst.len(),
            ..ChaseStats::default()
        };
        emit(gov, || EventKind::ChaseStarted {
            driver: driver.to_string(),
            atoms: inst.len(),
        });
        Run {
            gov,
            inst,
            stats,
            steps: 0,
            prov_visited: prov.as_ref().map_or(0, Provenance::entries_visited),
            prov,
            policy,
        }
    }

    /// Closes a run that reached its fixpoint.
    fn completed(&self, run: &mut Run, t_total: u64) {
        run.stats.total_time_ns = (run.gov.clock().now_ns() - t_total) as u128;
        if let Some(p) = &run.prov {
            run.stats.prov_entries_visited = (p.entries_visited() - run.prov_visited) as usize;
        }
        emit(run.gov, || EventKind::ChaseCompleted {
            atoms: run.inst.len(),
            steps: run.steps,
            egd_rows_scanned: run.stats.egd_rows_scanned,
        });
    }

    /// Chases `source` from scratch under `policy`.
    fn chase_source<'g, 'p>(
        &self,
        gov: &'g Governor,
        source: &Instance,
        policy: Policy<'p>,
        provenance: bool,
        driver: &str,
    ) -> Result<Run<'g, 'p>, Stop> {
        let t_total = gov.clock().now_ns();
        let prov = provenance.then(|| Provenance::for_source(source));
        let mut run = self.start(gov, source.clone(), prov, policy, driver);
        self.fixpoint(&mut run, source, DeltaCursor::origin(), true)?;
        self.completed(&mut run, t_total);
        Ok(run)
    }

    /// The chase loop every driver runs: an s-t pass over σ whenever one
    /// is pending (`st_pending` at the start of a from-scratch run, and
    /// after an α-chase merge), then an egd fixpoint and one seeded tgd
    /// round over the rows appended past `processed`, until an iteration
    /// finds nothing new. Everything before `processed` must already
    /// satisfy the egds: the first egd fixpoint starts there.
    fn fixpoint(
        &self,
        run: &mut Run,
        sigma: &Instance,
        mut processed: DeltaCursor,
        mut st_pending: bool,
    ) -> Result<(), Stop> {
        let t_rels = self.t_body_rels();
        let st_count = self.setting.st_tgds.len();
        let (clock, tracer) = (run.gov.clock(), run.gov.tracer());
        let mut egd_clean = processed.clone();
        loop {
            if std::mem::take(&mut st_pending) {
                self.st_pass(run, sigma)?;
            }
            // Per round, consult deadline/cancel unconditionally — the
            // amortized `check()` only reaches them every 1024 ticks,
            // too coarse for small instances.
            run.gov.force_check()?;
            // Spans leak (stay open) when a stop unwinds out of the
            // round; the analyzer treats that like a truncated trace.
            let sp_round = tracer.span("round", clock.now_ns());
            if self.egd_fixpoint(run, std::mem::take(&mut egd_clean))? {
                run.policy.after_merge(&mut processed, &mut st_pending);
            }
            egd_clean = run.inst.cursor();
            if !st_pending && !run.inst.has_delta_since(&processed) {
                sp_round.close(clock.now_ns());
                return Ok(());
            }

            let t_phase = clock.now_ns();
            let sp_tgd = tracer.span("tgd_round", t_phase);
            run.stats.rounds += 1;
            let delta = snapshot_delta(&run.inst, &processed, &t_rels);
            processed = run.inst.cursor();
            let round_rows: usize = delta.values().map(|rows| rows.len).sum();
            run.stats.delta_rows_processed += round_rows;
            run.stats.max_round_delta_rows = run.stats.max_round_delta_rows.max(round_rows);
            self.round(run, self.tgds().skip(st_count), &delta, sigma)?;
            sp_tgd.close(clock.now_ns());
            run.stats.tgd_time_ns += (clock.now_ns() - t_phase) as u128;
            emit(run.gov, || EventKind::RoundCompleted {
                round: run.stats.rounds,
                delta_rows: round_rows,
            });
            sp_round.close(clock.now_ns());
        }
    }

    /// Runs the egd fixpoint over the rows appended past `clean`,
    /// merging each violation as the policy says. Returns whether
    /// anything merged.
    fn egd_fixpoint(&self, run: &mut Run, clean: DeltaCursor) -> Result<bool, Stop> {
        let clock = run.gov.clock();
        let t_phase = clock.now_ns();
        let sp_egd = run.gov.tracer().span("egd_fixpoint", t_phase);
        let Run {
            gov,
            inst,
            stats,
            steps,
            prov,
            policy,
            ..
        } = run;
        let mut merged = false;
        let scanned = self.egd_scan.fixpoint(inst, clean, |inst, v| {
            gov.check()?;
            self.check_steps(*steps, inst)?;
            let m = match policy.merge(v.left, v.right) {
                Err((c, d)) => {
                    return Err(Stop::Conflict {
                        witness: self.conflict_witness(
                            &v,
                            Value::Const(c),
                            Value::Const(d),
                            prov.as_ref(),
                        ),
                        steps: *steps,
                    })
                }
                Ok(Some(m)) => m,
                // Both sides are live values, and losers are rewritten
                // out of every live row, so they are never one class.
                // Should that break, leave the match and keep scanning
                // rather than end the fixpoint with violations
                // unprocessed.
                Ok(None) => {
                    debug_assert!(false, "egd violation inside one union-find class");
                    return Ok(false);
                }
            };
            self.apply_merge(gov, inst, &v, m, stats, prov.as_mut());
            *steps += 1;
            merged = true;
            policy.stepped(inst, *steps, |_| ChaseStep::EgdApplied {
                dep: self.setting.egds[v.egd_index].name.clone(),
                from: m.loser,
                to: m.winner,
            })?;
            Ok(true)
        })?;
        stats.egd_rows_scanned += scanned;
        sp_egd.close(clock.now_ns());
        stats.egd_time_ns += (clock.now_ns() - t_phase) as u128;
        Ok(merged)
    }

    /// Examines every s-t trigger: the body matches over σ, whose domain
    /// the quantifiers of FO bodies range over.
    fn st_pass(&self, run: &mut Run, sigma: &Instance) -> Result<(), Stop> {
        let clock = run.gov.clock();
        let t_phase = clock.now_ns();
        let sp_st = run.gov.tracer().span("st_tgds", t_phase);
        let mut matches = Vec::new();
        run.policy.swap_st_matches(&mut matches);
        if matches.is_empty() {
            let st_tgds = self.setting.st_tgds.iter();
            matches = st_tgds.map(|t| t.body.matches(sigma)).collect();
        }
        for ((dep, tgd), envs) in self.tgds().zip(&mut matches) {
            for env in envs {
                self.examine(run, tgd, dep, env)?;
            }
        }
        run.policy.swap_st_matches(&mut matches);
        sp_st.close(clock.now_ns());
        run.stats.tgd_time_ns += (clock.now_ns() - t_phase) as u128;
        Ok(())
    }

    /// Examines the triggers of `tgds` whose body match uses a row of
    /// `delta`: each row is seeded at each body position of its relation,
    /// and its matches are examined before the next row is seeded. FO
    /// bodies have no seedable decomposition; `Setting::new` admits them
    /// on s-t tgds only, whose delta is new σ-rows (`resume`), so they are
    /// matched in full over σ, whose domain their quantifiers range over,
    /// whenever the delta has a row.
    fn round(
        &self,
        run: &mut Run,
        tgds: impl Iterator<Item = (usize, &'a Tgd)>,
        delta: &Delta,
        sigma: &Instance,
    ) -> Result<(), Stop> {
        let mut envs: Vec<Assignment> = Vec::new();
        for (dep, tgd) in tgds {
            let Body::Conj(atoms) = &tgd.body else {
                assert!(
                    dep < self.setting.st_tgds.len(),
                    "FO body on target tgd {}",
                    tgd.name
                );
                if !delta.is_empty() {
                    for mut env in tgd.body.matches(sigma) {
                        self.examine(run, tgd, dep, &mut env)?;
                    }
                }
                continue;
            };
            for (i, batom) in atoms.iter().enumerate() {
                for row in delta.get(&batom.rel).into_iter().flat_map(DeltaRows::iter) {
                    matcher::for_each_match_seeded(
                        atoms,
                        i,
                        row,
                        &run.inst,
                        &Assignment::new(),
                        &mut |env| {
                            envs.push(env.clone());
                            true
                        },
                    );
                    for mut env in envs.drain(..) {
                        self.examine(run, tgd, dep, &mut env)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The one examine-and-fire step: counts and traces the trigger,
    /// asks the policy whether it is active, and fires it — head atoms
    /// inserted with the atom budget enforced per insertion (one wide
    /// head cannot overshoot unboundedly). `env` is left the body match
    /// it came in as, so a kept s-t match can be examined again.
    fn examine(
        &self,
        run: &mut Run,
        tgd: &Tgd,
        dep: usize,
        env: &mut Assignment,
    ) -> Result<(), Stop> {
        run.gov.check()?;
        run.stats.triggers_examined += 1;
        emit(run.gov, || EventKind::TriggerExamined {
            dep: tgd.name.clone(),
        });
        let Some(head) = run.policy.active_head(tgd, dep, env, &run.inst) else {
            return Ok(());
        };
        self.check_steps(run.steps, &run.inst)?;
        if let Some(p) = run.prov.as_mut() {
            // Premises come from the body match alone (FO bodies
            // decompose into none). Every head atom is recorded:
            // already-present ones keep their earlier derivation
            // (`record_derived` is first-write-wins).
            let premises = tgd.body.instantiate(env).unwrap_or_default();
            let valuation = valuation_of(env);
            for a in &head {
                p.record_derived(a.clone(), self.tgd_names[dep], dep, &valuation, &premises);
            }
        }
        for &z in &tgd.exist_vars {
            env.unbind(z);
        }
        let mut atoms_added = 0usize;
        for atom in head {
            if run.policy.insert(&mut run.inst, atom) {
                atoms_added += 1;
                run.stats.atoms_inserted += 1;
                run.stats.peak_atoms = run.stats.peak_atoms.max(run.inst.len());
                if run.inst.len() > self.budget.max_atoms {
                    return Err(Stop::Budget {
                        steps: run.steps,
                        atoms: run.inst.len(),
                    });
                }
            }
        }
        run.steps += 1;
        run.stats.tgd_steps += 1;
        run.stats.triggers_fired += 1;
        emit(run.gov, || EventKind::TgdFired {
            dep: tgd.name.clone(),
            atoms_added,
        });
        run.policy
            .stepped(&run.inst, run.steps, |added| ChaseStep::TgdApplied {
                dep: tgd.name.clone(),
                added,
            })
    }

    /// The standard restricted chase (same contract as [`crate::chase`]).
    /// A source atom outside the setting's source schema is refused with
    /// [`ChaseError::InvalidSource`] before anything is chased.
    pub fn run(&self, source: &Instance) -> Result<ChaseSuccess, ChaseError> {
        source
            .check_against(&self.setting.source)
            .map_err(ChaseError::InvalidSource)?;
        self.governed(|gov| self.run_restricted(gov, source, self.provenance))
            .map_err(Stop::into_chase_error)
    }

    fn run_restricted(
        &self,
        gov: &Governor,
        source: &Instance,
        provenance: bool,
    ) -> Result<ChaseSuccess, Stop> {
        let policy = Policy::restricted(source);
        let run = self.chase_source(gov, source, policy, provenance, "delta_standard")?;
        Ok(run.success(&self.setting.target))
    }

    /// Incremental data exchange: continues a prior chase result under a
    /// source delta instead of re-chasing from scratch.
    ///
    /// **Insertions** are exactly the semi-naive frontier the engine
    /// already works with: the new source rows seed s-t trigger
    /// discovery, and everything they cause lands in the delta window
    /// the target fixpoint consumes. **Deletions** run DRed-style
    /// propagation over the recorded justification graph
    /// ([`Provenance::retract_sources`]): atoms whose every chain is
    /// dead are retracted, then survivors are re-derived by re-firing
    /// triggers whose premises still hold, seeded from the removed
    /// atoms' head positions.
    ///
    /// The egd boundary: union-find merges are not invertible, so a
    /// merge whose trigger lost support is handled by *over-deleting*
    /// its value cone and letting re-derivation (plus the egd fixpoint
    /// over the re-inserted rows) rebuild whatever still holds — the
    /// result matches a full re-chase up to isomorphism, not atom-for-
    /// atom.
    ///
    /// Falls back to a full re-chase of the updated source when
    /// deletions are present but the prior run recorded no provenance,
    /// or when any dependency has an FO body (FO derivations have no
    /// premise decomposition to propagate deletions through).
    ///
    /// A delta atom outside the setting's source schema is refused with
    /// [`ChaseError::InvalidSource`] before anything is resumed.
    ///
    /// On `Err` the prior result is untouched (the engine works on
    /// copy-on-write clones of the prior result and provenance, which
    /// copy what the resume writes and share the rest), so a
    /// governed/faulted resume leaves a sound state behind.
    pub fn resume(
        &self,
        prior: &ChaseSuccess,
        delta: &SourceDelta,
    ) -> Result<ChaseSuccess, ChaseError> {
        for a in delta.deletes.iter().chain(&delta.inserts) {
            self.setting
                .source
                .check_atom(a)
                .map_err(ChaseError::InvalidSource)?;
        }
        self.governed(|gov| self.resume_run(gov, prior, delta))
            .map_err(Stop::into_chase_error)
    }

    fn resume_run(
        &self,
        gov: &Governor,
        prior: &ChaseSuccess,
        delta: &SourceDelta,
    ) -> Result<ChaseSuccess, Stop> {
        let t_total = gov.clock().now_ns();
        let sp_resume = gov.tracer().span("resume", t_total);

        // The σ-part of the prior result. Source instances are ground
        // and source/target schemas are disjoint, so egd merges never
        // rewrote a σ-row: the σ-reduct recovers the chased source, and
        // shares its relations with the prior result.
        let mut sigma = prior.result.reduct(&self.setting.source);

        // Net the batch against the current source: deletes apply
        // first, so delete∩insert of a present atom is a no-op, and
        // absent deletes / already-present inserts drop out entirely.
        let mut seen: IdSet<&Atom> = IdSet::default();
        let net_deletes: Vec<Atom> = delta
            .deletes
            .iter()
            .filter(|a| seen.insert(*a) && sigma.contains(a) && !delta.inserts.contains(a))
            .cloned()
            .collect();
        seen.clear();
        let net_inserts: Vec<Atom> = delta
            .inserts
            .iter()
            .filter(|a| seen.insert(*a) && !sigma.contains(a))
            .cloned()
            .collect();
        drop(seen);

        let has_fo_body = self.tgds().any(|(_, t)| !matches!(t.body, Body::Conj(_)));
        let fall_back = !sigma.is_ground()
            || (!net_deletes.is_empty() && (prior.provenance.is_none() || has_fo_body));
        // The updated σ-part, for FO s-t re-examination or a re-chase:
        // the delta applied in place copies only the relations it writes.
        delta.apply_to(&mut sigma);
        if fall_back {
            // Deletion propagation needs a justification graph with
            // atom-decomposed premises; without one, correctness comes
            // from a plain re-chase of the updated source.
            sp_resume.close(gov.clock().now_ns());
            return self.run_restricted(gov, &sigma, prior.provenance.is_some());
        }

        let policy = Policy::restricted(&prior.result);
        let prov = prior.provenance.clone();
        let mut run = self.start(gov, prior.result.clone(), prov, policy, "resume");
        // The cursor taken before any mutation: every row this resume
        // appends (re-derivations, new source rows, their consequences)
        // is inside the windows the fixpoint consumes. The prior result
        // satisfied the egds, and retraction cannot create a violation,
        // so the egd fixpoint can start here too.
        let processed = run.inst.cursor();

        // Deletions: retract everything whose justifications all died,
        // then re-derive survivors head-first — each newly-unsatisfied
        // trigger's prior head witness intersects the removed set, so
        // seeding body matches from removed atoms' head positions
        // reaches every such trigger.
        let removed = match run.prov.as_mut() {
            Some(p) if !net_deletes.is_empty() => p.retract_sources(&net_deletes),
            _ => Vec::new(),
        };
        for a in &removed {
            run.inst.remove(a);
        }
        run.stats.atoms_retracted = removed.len();
        for r in &removed {
            for (dep, tgd) in self.tgds() {
                let Body::Conj(body_atoms) = &tgd.body else {
                    continue; // FO bodies forced the fallback above.
                };
                for h in &tgd.head {
                    let Some(env0) = Self::seed_from_head(tgd, h, r) else {
                        continue;
                    };
                    for mut env in matcher::all_matches(body_atoms, &run.inst, &env0) {
                        self.examine(&mut run, tgd, dep, &mut env)?;
                    }
                }
            }
        }
        run.stats.atoms_rederived = run.stats.atoms_inserted;

        // Insertions: add the new source rows, then seed s-t trigger
        // discovery from exactly those rows (σ never changes otherwise,
        // so no other s-t trigger can be new).
        let mut inserted = Delta::default();
        for a in &net_inserts {
            if run.inst.insert(a.clone()) {
                run.stats.peak_atoms = run.stats.peak_atoms.max(run.inst.len());
                if let Some(p) = run.prov.as_mut() {
                    p.record_source(a.clone());
                }
            }
            inserted
                .entry(a.rel)
                .or_insert_with(|| DeltaRows::new(a.args.len()))
                .push(&a.args);
        }
        let st_count = self.setting.st_tgds.len();
        self.round(&mut run, self.tgds().take(st_count), &inserted, &sigma)?;

        // Continue the target fixpoint over everything this resume
        // appended — the same loop a from-scratch run uses, so governed
        // interruption and budget behavior are identical.
        self.fixpoint(&mut run, &sigma, processed, false)?;

        emit(gov, || EventKind::ResumeApplied {
            inserts: net_inserts.len(),
            deletes: net_deletes.len(),
            atoms_retracted: run.stats.atoms_retracted,
            atoms_rederived: run.stats.atoms_rederived,
        });
        self.completed(&mut run, t_total);
        sp_resume.close(gov.clock().now_ns());
        Ok(run.success(&self.setting.target))
    }

    /// Unifies the head atom `h` against the retracted ground atom `r`:
    /// constants must agree, universal head variables bind into the
    /// returned partial body match, and existential variables only need
    /// internal consistency (a re-fired trigger re-witnesses them with
    /// fresh nulls).
    fn seed_from_head(tgd: &Tgd, h: &FAtom, r: &Atom) -> Option<Assignment> {
        if h.rel != r.rel || h.args.len() != r.args.len() {
            return None;
        }
        let mut env = Assignment::new();
        let mut exist: IdMap<dex_logic::Var, Value> = IdMap::default();
        for (&t, &v) in h.args.iter().zip(r.args.iter()) {
            match t {
                Term::Const(c) => {
                    if Value::Const(c) != v {
                        return None;
                    }
                }
                Term::Var(x) if tgd.exist_vars.contains(&x) => match exist.get(&x) {
                    Some(&old) if old != v => return None,
                    _ => {
                        exist.insert(x, v);
                    }
                },
                Term::Var(x) => match env.get(x) {
                    Some(old) if old != v => return None,
                    Some(_) => {}
                    None => env.bind(x, v),
                },
            }
        }
        Some(env)
    }

    /// The α-chase (same contract as [`crate::alpha_chase`]).
    pub fn run_alpha(&self, source: &Instance, alpha: &mut dyn AlphaSource) -> AlphaOutcome {
        debug_assert!(source.is_ground(), "α-chase starts from ground instances");
        let mut trace = Vec::new();
        let outcome = self.governed(|gov| {
            let policy = Policy::alpha(alpha, &mut trace, source);
            self.chase_source(gov, source, policy, self.provenance, "delta_alpha")
                .map(|run| run.success(&self.setting.target))
        });
        match outcome {
            Err(stop) => stop.into_alpha_outcome(),
            Ok(s) => AlphaOutcome::Success(AlphaSuccess {
                result: s.result,
                target: s.target,
                steps: s.steps,
                trace,
                stats: s.stats,
                provenance: s.provenance,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::chase_naive;
    use dex_core::hom_equivalent;
    use dex_logic::{parse_instance, parse_setting};

    #[test]
    fn delta_rows_walk_nullary_rows_by_count() {
        let mut nullary = DeltaRows::new(0);
        nullary.push(&[]);
        nullary.push(&[]);
        assert_eq!(nullary.iter().collect::<Vec<_>>(), vec![&[][..]; 2]);
        let mut binary = DeltaRows::new(2);
        let (a, b) = (Value::konst("a"), Value::konst("b"));
        binary.push(&[a, b]);
        binary.push(&[b, a]);
        assert_eq!(
            binary.iter().collect::<Vec<_>>(),
            vec![&[a, b][..], &[b, a][..]]
        );
    }

    #[test]
    fn nullary_relations_seed_rounds_and_resumes() {
        let d = parse_setting(
            "source { S/0, E/1 }
             target { T/0, U/1, V/2 }
             st { S() -> T(); E(x) -> U(x); }
             t { T() & U(x) -> exists z . V(x,z); }",
        )
        .unwrap();
        let s = parse_instance("S(). E(a).").unwrap();
        let budget = ChaseBudget::default();
        let fast = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        let slow = chase_naive(&d, &s, &budget).unwrap();
        assert_eq!(fast.target.len(), 3);
        assert!(hom_equivalent(&fast.target, &slow.target));
        // A resume whose inserted rows are nullary seeds its s-t round
        // with them.
        let eng = ChaseEngine::new(&d, &budget);
        let s = parse_instance("E(a). E(b).").unwrap();
        let prior = eng.run(&s).unwrap();
        assert_eq!(prior.target.len(), 2);
        let mut delta = SourceDelta::new();
        delta.insert(Atom::of("S", Vec::new()));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert_eq!(resumed.target.len(), 5);
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
    }

    #[test]
    fn engine_matches_naive_on_transitive_closure() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let fast = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        let slow = chase_naive(&d, &s, &budget).unwrap();
        assert_eq!(fast.target.len(), 10); // all pairs (i<j) on a 5-path
        assert_eq!(fast.target, slow.target);
        assert!(fast.stats.validate().is_ok());
        assert!(fast.stats.rounds >= 2);
        assert!(fast.stats.triggers_fired <= fast.stats.triggers_examined);
    }

    #[test]
    fn engine_runs_egds_through_the_union_find() {
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               P(x) -> exists z . F(x,z);
               Q(x,y) -> F(x,y);
             }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,b).").unwrap();
        let budget = ChaseBudget::default();
        let out = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        assert_eq!(out.target.len(), 1);
        assert!(out
            .target
            .contains(&Atom::of("F", vec![Value::konst("a"), Value::konst("b")])));
        assert!(out.stats.egd_steps >= 1);
        assert!(out.stats.rows_rewritten >= 1);
        assert!(out.stats.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "FO body on target tgd")]
    fn engine_refuses_an_fo_target_body_that_bypassed_setting_new() {
        // `Setting::new` rejects FO target bodies; one put in by hand
        // must stop the run rather than be matched over σ and never fire.
        let mut d = parse_setting(
            "source { P/1 }
             target { T/1, U/1, V/1 }
             st { P(x) -> T(x); }",
        )
        .unwrap();
        let fo = parse_setting(
            "source { T/1, U/1 }
             target { V/1 }
             st { d: T(x) & !U(x) -> V(x); }",
        )
        .unwrap();
        d.t_tgds.extend(fo.st_tgds);
        let s = parse_instance("P(a).").unwrap();
        let _ = ChaseEngine::new(&d, &ChaseBudget::default()).run(&s);
    }

    #[test]
    fn engine_merge_then_refire_reaches_the_naive_fixpoint() {
        // The merge rewrites F-rows, which must re-enter the delta so
        // the target tgd sees the merged row.
        let d = parse_setting(
            "source { P/2 }
             target { F/2, G/1 }
             st { P(x,y) -> exists z . F(x,z); }
             t {
               F(x,y) & F(x,z) -> y = z;
               F(x,y) -> G(y);
             }",
        )
        .unwrap();
        let s = parse_instance("P(a,b). P(a,c).").unwrap();
        let budget = ChaseBudget::default();
        let fast = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        let slow = chase_naive(&d, &s, &budget).unwrap();
        assert!(hom_equivalent(&fast.target, &slow.target));
        assert_eq!(fast.target.rows_of_len("F".into()), 1);
        assert_eq!(fast.target.rows_of_len("G".into()), 1);
    }

    fn ground(rel: &str, args: &[&str]) -> Atom {
        Atom::of(
            rel,
            args.iter().map(|a| Value::konst(a)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn resume_insert_only_matches_rechase() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.insert(ground("E", &["d", "e"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        assert!(resumed.stats.validate().is_ok());
        assert_eq!(resumed.stats.atoms_retracted, 0);
        // The new edge extends every closed path ending at d.
        assert!(resumed.stats.atoms_inserted >= 4);
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_delete_spares_atoms_with_a_second_chain() {
        let d = parse_setting(
            "source { P/1, Q/1 }
             target { T/1, U/1 }
             st {
               P(x) -> T(x);
               Q(x) -> T(x);
             }
             t { T(x) -> U(x); }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a). P(b).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.delete(ground("P", &["a"]));
        delta.delete(ground("P", &["b"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        // T(a)/U(a) survive through the Q-chain; T(b)/U(b) die.
        assert!(resumed.target.contains(&ground("T", &["a"])));
        assert!(resumed.target.contains(&ground("U", &["a"])));
        assert!(!resumed.target.contains(&ground("T", &["b"])));
        assert!(!resumed.target.contains(&ground("U", &["b"])));
        assert!(resumed.stats.atoms_retracted >= 2);
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_over_deletes_across_dead_egd_merges() {
        // The documented egd boundary: the prior run merged ⊥1 ↦ c, so
        // F(a,c) carries both the Q-chain and the rekeyed P-chain.
        // Deleting Q(a,c) kills the merge; the P-derived atom must come
        // back as F(a,⊥fresh), not survive as F(a,c).
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               P(x) -> exists z . F(x,z);
               Q(x,y) -> F(x,y);
             }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,c).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        assert!(prior.target.contains(&ground("F", &["a", "c"])));
        let mut delta = SourceDelta::new();
        delta.delete(ground("Q", &["a", "c"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        assert!(!resumed.target.contains(&ground("F", &["a", "c"])));
        assert_eq!(resumed.target.len(), 1);
        assert!(resumed.stats.atoms_rederived >= 1);
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        // The dead merge left no record behind.
        assert!(resumed.provenance.as_ref().unwrap().merges().is_empty());
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_mixed_batch_matches_rechase() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.delete(ground("E", &["b", "c"]));
        delta.insert(ground("E", &["b", "d"]));
        // Delete + re-insert nets to a no-op; absent delete is dropped.
        delta.delete(ground("E", &["a", "b"]));
        delta.insert(ground("E", &["a", "b"]));
        delta.delete(ground("E", &["z", "z"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        assert!(resumed.stats.validate().is_ok());
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_without_provenance_falls_back_on_deletions() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget);
        let prior = eng.run(&s).unwrap();
        assert!(prior.provenance.is_none());
        let mut delta = SourceDelta::new();
        delta.delete(ground("E", &["b", "c"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        // The fallback preserves the prior's provenance-lessness.
        assert!(resumed.provenance.is_none());
    }

    /// Under `with_governor` the run checks the caller's governor: one
    /// tick of fuel or a pre-raised cancel flag interrupts `run`,
    /// `run_alpha` and `resume` (the prior stays bit-identical), and
    /// every event, `GovernorTripped` included, lands on its tracer
    /// stamped from its clock. The budget keeps only its step and atom
    /// limits, and the stats timings read the governor's clock too.
    #[test]
    fn with_governor_interrupts_every_entry_point_on_its_clock_and_tracer() {
        use crate::alpha::FreshAlpha;
        use dex_core::govern::{Clock, InterruptReason};
        use dex_obs::{RingRecorder, Tracer};
        use std::sync::{atomic::AtomicBool, Arc};
        let d = parse_setting(
            "source { E/2 } target { T/2 }
             st { E(x,y) -> exists z . T(x,z); } t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let budget = ChaseBudget::default();
        let prior = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = prior.run(&s).unwrap();
        let before = format!("{prior:?}");
        let mut delta = SourceDelta::new();
        delta.insert(ground("E", &["d", "e"]));
        let raised = Arc::new(AtomicBool::new(true));
        for reason in [InterruptReason::Fuel, InterruptReason::Cancelled] {
            let (clock, mock) = Clock::mock();
            mock.set_ns(7);
            let ring = Arc::new(RingRecorder::new(1 << 12));
            let gov = Governor::with_clock_now(clock).with_tracer(Tracer::new(ring.clone()));
            let gov = match reason {
                InterruptReason::Fuel => gov.with_fuel(1),
                _ => gov.with_cancel(Arc::clone(&raised)),
            };
            let eng = ChaseEngine::new(&d, &budget).with_governor(&gov);
            let eng = eng.with_provenance(true);
            let outcomes = [
                eng.run(&s).err(),
                eng.resume(&prior, &delta).err(),
                match eng.run_alpha(&s, &mut FreshAlpha::above(&s)) {
                    AlphaOutcome::Interrupted(i) => Some(ChaseError::Interrupted(i)),
                    _ => None,
                },
            ];
            for o in outcomes {
                assert!(matches!(o, Some(ChaseError::Interrupted(i)) if i.reason == reason));
            }
            assert_eq!(format!("{prior:?}"), before, "{reason:?}: prior changed");
            let events = ring.events();
            assert!(events.iter().all(|e| e.at_ns == 7), "{reason:?}");
            let trips = events
                .iter()
                .filter(|e| e.kind.name() == "governor_tripped");
            assert_eq!((trips.count(), gov.trips()), (3, 3), "{reason:?}");
        }
        // Under a governor the budget's own deadline and cancel flag are
        // not consulted, and the timings read the governor's clock.
        let gov = Governor::with_clock_now(Clock::mock().0);
        let strict = ChaseBudget::default()
            .with_deadline(std::time::Duration::ZERO)
            .with_cancel(raised);
        let eng = ChaseEngine::new(&d, &strict).with_governor(&gov);
        let out = eng.run(&s).unwrap();
        let resumed = eng.resume(&out, &delta).unwrap();
        for st in [&out.stats, &resumed.stats] {
            assert_eq!(st.total_time_ns + st.tgd_time_ns + st.egd_time_ns, 0);
        }
        let ungoverned = ChaseEngine::new(&d, &strict).run(&s);
        assert!(matches!(ungoverned, Err(ChaseError::Interrupted(_))));
    }

    #[test]
    fn resume_honors_the_budget_and_leaves_prior_intact() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        // Owned snapshots: a clone of the result would share its storage
        // with the prior, so it could not tell a leaked write apart.
        let (result, target) = (prior.result.sorted_atoms(), prior.target.sorted_atoms());
        let mut delta = SourceDelta::new();
        delta.insert(ground("E", &["e", "f"]));
        let tight = ChaseBudget::new(1, 8000);
        let starved = ChaseEngine::new(&d, &tight).with_provenance(true);
        let err = starved.resume(&prior, &delta).unwrap_err();
        assert!(matches!(err, ChaseError::BudgetExceeded { .. }));
        // The engine worked on copy-on-write clones; the prior is untouched.
        assert_eq!(prior.result.sorted_atoms(), result);
        assert_eq!(prior.target.sorted_atoms(), target);
        assert_eq!(prior.result.len(), result.len());
    }

    /// A source atom at the wrong arity, of an unknown relation or of a
    /// target relation is refused by `run` and, as an insert or a delete,
    /// by `resume`, which leaves its prior untouched.
    #[test]
    fn run_and_resume_refuse_atoms_outside_the_source_schema() {
        let d = parse_setting(
            "source { M/2, N/2 } target { E/2 }
             st { M(x,y) -> E(x,y); N(x,y) -> E(y,x); }",
        )
        .unwrap();
        let eng = ChaseEngine::new(&d, &ChaseBudget::default()).with_provenance(true);
        let prior = eng
            .run(&parse_instance("M(a,b). N(a,b).").unwrap())
            .unwrap();
        let before = prior.result.sorted_atoms();
        let (m, z, e) = (
            Symbol::intern("M"),
            Symbol::intern("Z"),
            Symbol::intern("E"),
        );
        let cases = [
            (
                ground("M", &["q"]),
                dex_core::SchemaError::ArityMismatch {
                    rel: m,
                    expected: 2,
                    found: 1,
                },
            ),
            (
                ground("Z", &["q"]),
                dex_core::SchemaError::UnknownRelation(z),
            ),
            (
                ground("E", &["q", "r"]),
                dex_core::SchemaError::UnknownRelation(e),
            ),
        ];
        for (bad, want) in cases {
            let want = ChaseError::InvalidSource(want);
            let source = Instance::from_atoms([bad.clone()]);
            assert_eq!(eng.run(&source).unwrap_err(), want, "run of {bad}");
            let mut insert = SourceDelta::new();
            insert.insert(bad.clone());
            insert.insert(ground("M", &["c", "d"]));
            let mut delete = SourceDelta::new();
            delete.delete(bad.clone());
            for delta in [insert, delete] {
                assert_eq!(eng.resume(&prior, &delta).unwrap_err(), want, "{delta}");
            }
            assert!(want.to_string().contains(&bad.rel.to_string()), "{want}");
        }
        assert_eq!(prior.result.sorted_atoms(), before);
    }

    /// The setting, base source and 1%/1% update stream shape of the
    /// `update` end-to-end workload.
    fn update_workload(steps: usize) -> (Setting, Instance, Vec<SourceDelta>) {
        use dex_datagen::{
            mapping_scenario, random_source, update_stream, ScenarioConfig, SourceConfig,
            UpdateStreamConfig,
        };
        let d = mapping_scenario(&ScenarioConfig {
            copies: 2,
            partitions: 2,
            surrogates: 3,
            seed: 5,
        });
        let base = random_source(
            &d.source,
            &SourceConfig {
                num_constants: 128,
                tuples_per_relation: 128,
                seed: 29,
            },
        );
        let stream = update_stream(
            &d.source,
            &base,
            &UpdateStreamConfig {
                steps,
                insert_rate: 0.01,
                delete_rate: 0.01,
                num_constants: 128,
                seed: 29,
            },
        );
        (d, base, stream)
    }

    /// Over 200 deltas, every resumed result and target keeps each
    /// relation's row log (its cursor mark) within twice its live rows
    /// plus one, although resumes keep leaving tombstones behind.
    #[test]
    fn resumed_results_keep_row_logs_within_twice_their_atoms() {
        let (d, base, stream) = update_workload(200);
        let eng = ChaseEngine::new(&d, &ChaseBudget::default()).with_provenance(true);
        let mut prior = eng.run(&base).unwrap();
        let rels: Vec<Symbol> = d
            .source
            .relations()
            .chain(d.target.relations())
            .map(|(rel, _)| rel)
            .collect();
        let mut tombstones_seen = 0;
        for (k, delta) in stream.iter().enumerate() {
            prior = eng.resume(&prior, delta).unwrap();
            for (what, inst) in [("result", &prior.result), ("target", &prior.target)] {
                let cursor = inst.cursor();
                for &rel in &rels {
                    let (log, live) = (cursor.mark(rel), inst.rows_of_len(rel));
                    assert!(
                        log <= 2 * live + 1,
                        "after delta {k}, the {what}'s {rel} logs {log} rows for {live} atoms"
                    );
                    tombstones_seen += log - live;
                }
            }
        }
        assert!(tombstones_seen > 0, "the stream never left a tombstone");
    }

    /// A resume with deletes and merges writes only to its own copy of
    /// the prior's provenance: every atom's derivations and support and
    /// the merge records of the prior equal owned snapshots taken before.
    #[test]
    fn resume_leaves_the_prior_provenance_as_it_was() {
        type Snapshot = (Vec<(Atom, Vec<Derivation>, usize)>, Vec<MergeRecord>);
        fn snapshot(s: &ChaseSuccess) -> Snapshot {
            let p = s.provenance.as_ref().expect("provenance recorded");
            let atoms = s
                .result
                .sorted_atoms()
                .into_iter()
                .map(|a| {
                    let derivations = p.derivations(&a).cloned().collect();
                    let support = p.support(&a);
                    (a, derivations, support)
                })
                .collect();
            (atoms, p.merges().to_vec())
        }
        use crate::provenance::{Derivation, MergeRecord};
        let (d, base, stream) = update_workload(40);
        let eng = ChaseEngine::new(&d, &ChaseBudget::default()).with_provenance(true);
        let mut prior = eng.run(&base).unwrap();
        let (mut retracted, mut merges_changed) = (0, 0);
        for delta in &stream {
            let before = snapshot(&prior);
            assert!(!before.1.is_empty(), "the keyed setting merges");
            let resumed = eng.resume(&prior, delta).unwrap();
            assert!(snapshot(&prior) == before, "the resume wrote to its prior");
            retracted += resumed.stats.atoms_retracted;
            let merges = resumed.provenance.as_ref().unwrap().merges();
            merges_changed += usize::from(merges != &before.1[..]);
            prior = resumed;
        }
        assert!(
            retracted > 0 && merges_changed > 0,
            "{retracted} {merges_changed}"
        );
    }
}
