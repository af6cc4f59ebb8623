//! Constraint-propagation evaluation of `□Q(T)` and `◇Q(T)`.
//!
//! The brute-force oracle in [`crate::modal`] enumerates all
//! `|pool|^|Null(T)|` valuations (Proposition 7.4's upper bound taken
//! literally). Almost all of that space is wasted: target egds *force*
//! equalities between nulls, most pool constants are *inadmissible* for a
//! given null, and nulls in relations no dependency or query atom can
//! observe do not affect answers at all. This module evaluates the query
//! symbolically over the null-labeled instance first and only enumerates
//! the residual cross product:
//!
//! 1. **Forced-merge fixpoint.** Any syntactic egd-body match in `T`
//!    lifts through every valuation `v` (the matched rows map to rows of
//!    `v(T)` and constants are fixed), so `v(env(lhs)) = v(env(rhs))`
//!    must hold in every member of `Rep_D(T)`. Null/null and null/const
//!    violations therefore merge in place; a const/const violation
//!    proves `Rep_D(T) = ∅`. Iterated to fixpoint, this yields a
//!    quotient instance `T'` every representative factors through.
//! 2. **Inert-null elimination.** A null whose every occurrence is in a
//!    relation mentioned by no target dependency and no query atom can
//!    never influence `Σ_t`-satisfaction or an answer tuple, so it is
//!    pinned to an arbitrary pool constant instead of enumerated.
//!    (Disabled for FO queries and FO dependency bodies: active-domain
//!    semantics observes *every* value in the instance.)
//! 3. **Per-null admissible sets.** A constant `c` is inadmissible for
//!    null `ν` if `T'[ν ↦ c]` exhibits an egd-body match equating two
//!    distinct constants — that match persists under any completion, so
//!    no representative maps `ν` to `c`. An empty admissible set proves
//!    `Rep_D(T) = ∅`.
//! 4. **Forced disequalities.** If identifying `ν_i` with `ν_j` already
//!    equates two distinct constants under some egd, no representative
//!    assigns them the same value; the pair prunes the enumeration.
//! 5. **Residual enumeration.** The remaining mixed-radix product
//!    `∏ |A(ν)|` is split into index ranges on the worker pool
//!    ([`dex_core::MixedRadixValuations`]) and each candidate is checked
//!    against `Σ_t` exactly as the oracle does — pruning only ever
//!    removes valuations provably outside `Rep_D(T)`, so certain/maybe
//!    answers are *identical* to the oracle's, at a fraction of the
//!    space.
//!
//! Above a propagation-width cutoff the analysis is skipped and the old
//! oracle runs unchanged ([`PropagationReport::fell_back`]). The
//! [`Governor`] ticks once per residual candidate and stamps the stage
//! spans from its clock; when it interrupts a run, the answers are
//! refinable sound/complete bound pairs
//! ([`GovernedAnswers::lower_bound`]/[`GovernedAnswers::upper_bound`]):
//! the lower bound is seeded with ground witnesses that survive every
//! valuation, the ◇ upper bound with the dependency-free unification
//! check of [`crate::possible`].

use crate::eval::Answers;
use crate::modal::{
    box_fold, certain_answers, checked_total, diamond_fold, maybe_answers, rep_answers,
    GovernedAnswers, ModalError, ModalLimits,
};
use crate::possible::cq_is_maybe_answer;
use dex_chase::EgdScan;
use dex_core::govern::{Governor, Verdict};
use dex_core::{
    merge_policy, DeltaCursor, Instance, MixedRadixValuations, NullId, Pool, Symbol, Valuation,
    Value,
};
use dex_logic::dependency::Body;
use dex_logic::formula::Assignment;
use dex_logic::{matcher, ConjunctiveQuery, Query, Setting};
use std::collections::{BTreeMap, BTreeSet};

/// Above this `|Null(T)| × |pool|` product the per-null analysis is
/// skipped and the brute-force oracle runs unchanged. The analysis does
/// `O(nulls × pool)` instance substitutions plus `O(nulls²)` pair
/// checks; anything near this bound is far outside enumerable range for
/// the oracle too, so the cutoff only guards against pathological
/// analysis cost on instances that will error out anyway.
const WIDTH_CUTOFF: usize = 100_000;

/// Forced-disequality extraction is `O(k²)` instance substitutions over
/// the `k` residual nulls; past this bound the (optional) pre-filter is
/// skipped — exactness never depends on it.
const DISEQ_PAIR_CAP: usize = 64;

/// The interrupted-◇ upper bound enumerates `|space|^arity` candidate
/// tuples through the unification check; skipped above this cap.
const DIAMOND_UPPER_CAP: u128 = 65_536;

/// What propagation did to the valuation space — surfaced through the
/// CLI and benches so "12 nulls answered interactively" is auditable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PropagationReport {
    /// Nulls in `T` before analysis.
    pub nulls: usize,
    /// Nulls eliminated by the egd forced-merge fixpoint.
    pub merged: usize,
    /// Nulls pinned as inert (unobservable by `Σ_t` and the query).
    pub inert: usize,
    /// Nulls left to enumerate.
    pub residual_nulls: usize,
    /// `|pool|^|Null(T)|` — what the oracle would enumerate (saturating).
    pub oracle_valuations: u128,
    /// `∏ |A(ν)|` over the residual nulls (saturating).
    pub residual_valuations: u128,
    /// Forced ν_i ≠ ν_j pairs pruning the enumeration.
    pub diseqs: usize,
    /// True iff the analysis was skipped and the oracle ran instead.
    pub fell_back: bool,
}

/// Outcome of the symbolic analysis phase.
enum Analysis {
    /// `Rep_D(T)` is provably empty: a const/const egd conflict, an
    /// empty admissible set, or nulls with an empty pool.
    EmptyRep(PropagationReport),
    /// The reduced enumeration problem.
    Residual(Box<Residual>),
    /// Analysis skipped (width cutoff); fall back to the oracle.
    TooWide(PropagationReport),
}

/// The residual enumeration problem left after propagation.
struct Residual {
    /// Quotient instance: forced merges applied, inert nulls pinned.
    t: Instance,
    /// Residual nulls, in enumeration order.
    nulls: Vec<NullId>,
    /// `domains[i]` is the admissible set `A(nulls[i])`.
    domains: Vec<Vec<Symbol>>,
    /// Index pairs `(i, j)` into `nulls` forced to take distinct values.
    diseqs: Vec<(usize, usize)>,
    report: PropagationReport,
}

impl Residual {
    fn total(&self) -> u128 {
        self.domains
            .iter()
            .map(|d| d.len() as u128)
            .fold(1u128, u128::saturating_mul)
    }

    /// The candidate valuations from index `lo` of the residual product.
    fn valuations(&self, lo: u64) -> MixedRadixValuations {
        MixedRadixValuations::from_index(self.nulls.clone(), self.domains.clone(), u128::from(lo))
    }

    /// A candidate's answers: `None` when it violates a forced
    /// disequality or its grounding fails `Σ_t`.
    fn rep_answers(&self, setting: &Setting, q: &Query, w: &Valuation) -> Option<Answers> {
        let diseqs_ok = self
            .diseqs
            .iter()
            .all(|&(i, j)| w.get(self.nulls[i]) != w.get(self.nulls[j]));
        if !diseqs_ok {
            return None;
        }
        rep_answers(setting, q, &self.t, w)
    }
}

/// True iff some egd-body match in `inst` equates two *distinct
/// constants* — a violation no valuation can repair (valuations are the
/// identity on constants), so `Rep_D(inst) = ∅`.
fn const_conflict(setting: &Setting, inst: &Instance) -> bool {
    setting.egds.iter().any(|egd| {
        !matcher::for_each_match(&egd.body, inst, &Assignment::new(), &mut |env| {
            let a = env.get(egd.lhs).expect("egd lhs is body-bound");
            let b = env.get(egd.rhs).expect("egd rhs is body-bound");
            // Stop (conflict found) iff both sides are distinct constants.
            !(a != b && a.is_const() && b.is_const())
        })
    })
}

/// Applies every *forced* equality to `t` in place: egd violations whose
/// sides involve a null merge the two values (the equality holds in
/// every representative, so every representative factors through the
/// quotient; the null folds onto the constant, or the larger null id
/// onto the smaller); a const/const violation returns `None`
/// (`Rep_D(T) = ∅`). Returns the number of nulls eliminated. Terminates
/// because each merge removes one distinct value from the instance; the
/// chase's semi-naive [`EgdScan`] re-checks only the rewritten rows.
fn merge_fixpoint(setting: &Setting, t: &mut Instance) -> Option<usize> {
    let mut eliminated = 0usize;
    EgdScan::new(&setting.egds)
        .fixpoint(t, DeltaCursor::origin(), |t, v| -> Result<bool, ()> {
            let m = merge_policy(v.left, v.right)
                .map_err(|_| ())?
                .expect("the egd scan reports unequal sides only");
            t.merge_value(m.loser, m.winner);
            eliminated += 1;
            Ok(true)
        })
        .ok()?;
    Some(eliminated)
}

/// The relations whose rows `Σ_t` or the query can observe, or `None`
/// when observation is not relation-local: an FO dependency body or an
/// FO query ranges over the active domain, where *every* value in the
/// instance is visible.
fn observable_relations(setting: &Setting, q: &Query) -> Option<BTreeSet<Symbol>> {
    let mut obs = BTreeSet::new();
    for tgd in &setting.t_tgds {
        if matches!(tgd.body, Body::Fo(_)) {
            return None;
        }
        obs.extend(tgd.body.relations());
        obs.extend(tgd.head.iter().map(|a| a.rel));
    }
    for egd in &setting.egds {
        obs.extend(egd.body.iter().map(|a| a.rel));
    }
    match q {
        Query::Cq(cq) => obs.extend(cq.relations()),
        Query::Ucq(u) => {
            for d in &u.disjuncts {
                obs.extend(d.relations());
            }
        }
        Query::Fo(_) => return None,
    }
    Some(obs)
}

/// The relations each null occurs in.
fn null_occurrences(t: &Instance) -> BTreeMap<NullId, BTreeSet<Symbol>> {
    let mut occ: BTreeMap<NullId, BTreeSet<Symbol>> = BTreeMap::new();
    for atom in t.atoms() {
        for v in &atom.args {
            if let Value::Null(n) = v {
                occ.entry(*n).or_default().insert(atom.rel);
            }
        }
    }
    occ
}

/// The admissible set `A(ν) ⊆ pool`: constants whose substitution does
/// not already equate two distinct constants under some egd. One-step
/// only — deeper consequences are caught by the per-candidate `Σ_t`
/// check, which keeps the enumeration exact regardless.
fn admissible(setting: &Setting, t: &Instance, nu: NullId, pool: &[Symbol]) -> Vec<Symbol> {
    pool.iter()
        .copied()
        .filter(|&c| !const_conflict(setting, &t.rename_value(Value::Null(nu), Value::Const(c))))
        .collect()
}

/// Pairs of residual nulls that no representative maps to equal values:
/// identifying them already equates two distinct constants under some
/// egd, independently of which value the pair takes.
fn forced_diseqs(setting: &Setting, t: &Instance, nulls: &[NullId]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..nulls.len() {
        for j in i + 1..nulls.len() {
            let identified = t.rename_value(Value::Null(nulls[j]), Value::Null(nulls[i]));
            if const_conflict(setting, &identified) {
                out.push((i, j));
            }
        }
    }
    out
}

/// The symbolic analysis phase: merge fixpoint, inert elimination,
/// admissible sets, forced disequalities. Each stage is wrapped in a
/// span on the governor's tracer, stamped from its clock, so `dex trace`
/// can break propagation time down.
fn analyze(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    pool: &[Symbol],
    gov: &Governor,
) -> Analysis {
    let tracer = gov.tracer();
    let now = || gov.clock().now_ns();
    let all_nulls = t.nulls();
    let mut report = PropagationReport {
        nulls: all_nulls.len(),
        oracle_valuations: (pool.len() as u128).saturating_pow(all_nulls.len() as u32),
        ..PropagationReport::default()
    };
    if !all_nulls.is_empty() && pool.is_empty() {
        // No valuations exist at all, so Rep_D(T) is empty — mirroring
        // the oracle, whose empty enumeration finds no representative.
        return Analysis::EmptyRep(report);
    }
    if all_nulls.len().saturating_mul(pool.len()) > WIDTH_CUTOFF {
        report.fell_back = true;
        return Analysis::TooWide(report);
    }
    let mut tq = t.clone();
    let sp = tracer.span("merge_fixpoint", now());
    let merged = merge_fixpoint(setting, &mut tq);
    sp.close(now());
    match merged {
        None => return Analysis::EmptyRep(report),
        Some(merged) => report.merged = merged,
    }
    let sp = tracer.span("inert_elim", now());
    let remaining: Vec<NullId> = tq.nulls().into_iter().collect();
    let mut residual_nulls = Vec::with_capacity(remaining.len());
    if let Some(obs) = observable_relations(setting, q) {
        let occ = null_occurrences(&tq);
        for nu in remaining {
            let inert = occ
                .get(&nu)
                .is_some_and(|rels| rels.iter().all(|r| !obs.contains(r)));
            if inert {
                tq = tq.rename_value(Value::Null(nu), Value::Const(pool[0]));
                report.inert += 1;
            } else {
                residual_nulls.push(nu);
            }
        }
    } else {
        residual_nulls = remaining;
    }
    sp.close(now());
    let sp = tracer.span("admissible_sets", now());
    let mut domains = Vec::with_capacity(residual_nulls.len());
    let mut empty_domain = false;
    for &nu in &residual_nulls {
        let dom = admissible(setting, &tq, nu, pool);
        if dom.is_empty() {
            empty_domain = true;
            break;
        }
        domains.push(dom);
    }
    sp.close(now());
    if empty_domain {
        return Analysis::EmptyRep(report);
    }
    let sp = tracer.span("forced_diseqs", now());
    let diseqs = if residual_nulls.len() <= DISEQ_PAIR_CAP {
        forced_diseqs(setting, &tq, &residual_nulls)
    } else {
        Vec::new()
    };
    sp.close(now());
    report.residual_nulls = residual_nulls.len();
    report.diseqs = diseqs.len();
    let residual = Residual {
        t: tq,
        nulls: residual_nulls,
        domains,
        diseqs,
        report,
    };
    let mut residual = residual;
    residual.report.residual_valuations = residual.total();
    Analysis::Residual(Box::new(residual))
}

/// Tuples provably in `□Q(T)` with no enumeration at all: a body match
/// whose head tuple is all-constant and whose every inequality compares
/// two *distinct constants* transfers verbatim along any valuation (the
/// matched rows map into `v(T)`, constants are fixed), so the tuple is
/// in `Q(R)` for every `R ∈ Rep_D(T)`. Sound for arbitrary `T`; used to
/// seed the refinable lower bound of interrupted □ runs. FO queries
/// yield no witnesses (active-domain semantics does not transfer).
pub fn certain_ground_witnesses(q: &Query, t: &Instance) -> Answers {
    let mut out = Answers::new();
    let disjuncts: Vec<&ConjunctiveQuery> = match q {
        Query::Cq(c) => vec![c],
        Query::Ucq(u) => u.disjuncts.iter().collect(),
        Query::Fo(_) => return out,
    };
    for d in disjuncts {
        matcher::for_each_match(&d.atoms, t, &Assignment::new(), &mut |env| {
            let ineqs_ground =
                d.inequalities
                    .iter()
                    .all(|(s, t_)| match (env.term(*s), env.term(*t_)) {
                        (Some(a), Some(b)) => a != b && a.is_const() && b.is_const(),
                        _ => false,
                    });
            if ineqs_ground {
                let tuple: Vec<Value> = d
                    .head_vars
                    .iter()
                    .map(|&v| env.get(v).expect("head vars are safe"))
                    .collect();
                if tuple.iter().all(Value::is_const) {
                    out.insert(tuple);
                }
            }
            true
        });
    }
    out
}

/// A complete over-approximation of `◇Q(T)` for UCQs: candidate tuples
/// over the value space, classified by the dependency-free unification
/// check ([`cq_is_maybe_answer`]). `Rep` *with* target dependencies is a
/// subset of `Rep` without them, so any tuple the unconstrained check
/// rejects is definitely not a maybe-answer. Returns
/// `(inside, refuted)` partitioning the candidate space, or `None` when
/// the query is FO or the space exceeds [`DIAMOND_UPPER_CAP`].
fn diamond_upper_bound(q: &Query, t: &Instance, pool: &[Symbol]) -> Option<(Answers, Answers)> {
    let disjuncts: Vec<&ConjunctiveQuery> = match q {
        Query::Cq(c) => vec![c],
        Query::Ucq(u) => u.disjuncts.iter().collect(),
        Query::Fo(_) => return None,
    };
    let arity = q.arity();
    // Every answer of every representative draws its values from the
    // instance's constants and the valuation pool.
    let mut space: BTreeSet<Symbol> = t.constants();
    space.extend(pool.iter().copied());
    let space: Vec<Value> = space.into_iter().map(Value::Const).collect();
    let total = (space.len() as u128).saturating_pow(arity as u32);
    if total > DIAMOND_UPPER_CAP {
        return None;
    }
    let mut inside = Answers::new();
    let mut refuted = Answers::new();
    let mut tuple = vec![0usize; arity];
    loop {
        let candidate: Vec<Value> = tuple.iter().map(|&i| space[i]).collect();
        if disjuncts
            .iter()
            .any(|d| cq_is_maybe_answer(d, t, &candidate))
        {
            inside.insert(candidate);
        } else {
            refuted.insert(candidate);
        }
        // Advance the odometer over `space^arity`.
        let mut i = 0;
        loop {
            if i == arity {
                return Some((inside, refuted));
            }
            tuple[i] += 1;
            if tuple[i] < space.len() {
                break;
            }
            tuple[i] = 0;
            i += 1;
        }
        if space.is_empty() {
            return Some((inside, refuted));
        }
    }
}

/// `□Q(T)` by constraint propagation — answer-identical to
/// [`certain_answers`], enumerating only the residual space (ranges on
/// `exec`, one tick of `gov` per residual candidate). Returns `None` iff
/// `Rep_D(T)` is empty, plus the propagation report. On interrupt the
/// verdicts are assembled exactly as the oracle's and the refinable
/// lower bound is seeded with [`certain_ground_witnesses`] — tuples every
/// representative answers, whatever was left unexplored.
pub fn certain_answers_propagated(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    pool: &[Symbol],
    limits: &ModalLimits,
    gov: &Governor,
    exec: &Pool,
) -> Result<(Option<GovernedAnswers>, PropagationReport), ModalError> {
    let r = match analyze(setting, q, t, pool, gov) {
        Analysis::EmptyRep(report) => return Ok((None, report)),
        Analysis::TooWide(report) => {
            let mut g = certain_answers(setting, q, t, pool, limits, gov, exec)?;
            g.iter_mut().for_each(|g| seed_box_lower_bound(g, q, t));
            return Ok((g, report));
        }
        Analysis::Residual(r) => r,
    };
    let total = checked_total(r.total(), r.nulls.len(), pool.len(), limits)?;
    let sp = gov.tracer().span("residual_enum", gov.clock().now_ns());
    let mut g = box_fold(
        exec,
        gov,
        total,
        |lo| r.valuations(lo),
        |w| r.rep_answers(setting, q, w),
    );
    sp.close(gov.clock().now_ns());
    g.iter_mut().for_each(|g| seed_box_lower_bound(g, q, &r.t));
    Ok((g, r.report))
}

/// Moves [`certain_ground_witnesses`] into `proven` on an interrupted □
/// run: they are in every representative's answer set, so they can never
/// be refuted and need not stay undetermined.
fn seed_box_lower_bound(g: &mut GovernedAnswers, q: &Query, t: &Instance) {
    if g.interrupt.is_none() {
        return;
    }
    for w in certain_ground_witnesses(q, t) {
        debug_assert!(
            !g.refuted.contains(&w),
            "a ground witness is in every representative's answers"
        );
        g.undetermined.remove(&w);
        g.proven.insert(w);
    }
}

/// `◇Q(T)` by constraint propagation — answer-identical to
/// [`maybe_answers`], enumerating only the residual space (ranges on
/// `exec`, one tick of `gov` per residual candidate). On interrupt,
/// instead of the oracle's unbounded `Unknown` default, the verdicts are
/// completed with the dependency-free ◇ upper bound when affordable:
/// tuples failing the unification check are *refuted*, the rest stay
/// undetermined — giving interrupted ◇ runs a finite `upper_bound()`.
pub fn maybe_answers_propagated(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    pool: &[Symbol],
    limits: &ModalLimits,
    gov: &Governor,
    exec: &Pool,
) -> Result<(GovernedAnswers, PropagationReport), ModalError> {
    let r = match analyze(setting, q, t, pool, gov) {
        Analysis::EmptyRep(report) => {
            return Ok((GovernedAnswers::complete(Answers::new()), report));
        }
        Analysis::TooWide(report) => {
            let mut g = maybe_answers(setting, q, t, pool, limits, gov, exec)?;
            seed_diamond_upper_bound(&mut g, q, t, pool);
            return Ok((g, report));
        }
        Analysis::Residual(r) => r,
    };
    let total = checked_total(r.total(), r.nulls.len(), pool.len(), limits)?;
    let sp = gov.tracer().span("residual_enum", gov.clock().now_ns());
    let mut g = diamond_fold(
        exec,
        gov,
        total,
        |lo| r.valuations(lo),
        |w| r.rep_answers(setting, q, w),
    );
    sp.close(gov.clock().now_ns());
    seed_diamond_upper_bound(&mut g, q, &r.t, pool);
    Ok((g, r.report))
}

/// Upgrades an interrupted ◇ run's unbounded `Unknown` default to a
/// finite bound pair via [`diamond_upper_bound`], when affordable.
fn seed_diamond_upper_bound(g: &mut GovernedAnswers, q: &Query, t: &Instance, pool: &[Symbol]) {
    if g.interrupt.is_none() || !matches!(g.default, Verdict::Unknown(_)) {
        return;
    }
    if let Some((inside, refuted)) = diamond_upper_bound(q, t, pool) {
        debug_assert!(
            g.proven.is_subset(&inside),
            "explored maybe-answers pass the unconstrained check"
        );
        g.undetermined = inside.difference(&g.proven).cloned().collect();
        g.refuted = refuted;
        // Tuples outside the candidate space use values no representative
        // contains, so they are definitely out.
        g.default = Verdict::False;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::govern::Clock;
    use dex_logic::{parse_instance, parse_query, parse_setting};
    use dex_obs::{Collector, EventKind, RingRecorder, Tracer};
    use std::sync::Arc;

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    fn keyed_setting() -> Setting {
        parse_setting(
            "source { P/1 }
             target { F/2, G/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap()
    }

    fn pool_for(t: &Instance, q: &Query) -> Vec<Symbol> {
        crate::modal::answer_pool(t, q, [])
    }

    fn lim() -> ModalLimits {
        ModalLimits::default()
    }

    /// Ungoverned propagated `□Q(T)` on `exec`.
    fn prop_box(
        d: &Setting,
        q: &Query,
        t: &Instance,
        pool: &[Symbol],
        exec: &Pool,
    ) -> (Option<Answers>, PropagationReport) {
        let gov = Governor::unlimited();
        let (g, report) = certain_answers_propagated(d, q, t, pool, &lim(), &gov, exec).unwrap();
        (g.map(|g| g.proven), report)
    }

    /// Ungoverned propagated `◇Q(T)` on `exec`.
    fn prop_dia(d: &Setting, q: &Query, t: &Instance, pool: &[Symbol], exec: &Pool) -> Answers {
        let gov = Governor::unlimited();
        maybe_answers_propagated(d, q, t, pool, &lim(), &gov, exec)
            .unwrap()
            .0
            .proven
    }

    /// The sequential oracle's `□Q(T)`.
    fn oracle_box(
        d: &Setting,
        q: &Query,
        t: &Instance,
        pool: &[Symbol],
    ) -> Result<Option<Answers>, ModalError> {
        let g = certain_answers(d, q, t, pool, &lim(), &Governor::unlimited(), &Pool::seq())?;
        Ok(g.map(|g| g.proven))
    }

    /// The sequential oracle's `◇Q(T)`.
    fn oracle_dia(d: &Setting, q: &Query, t: &Instance, pool: &[Symbol]) -> Answers {
        maybe_answers(d, q, t, pool, &lim(), &Governor::unlimited(), &Pool::seq())
            .unwrap()
            .proven
    }

    #[test]
    fn merge_fixpoint_pins_keyed_nulls() {
        let d = keyed_setting();
        let mut t = parse_instance("F(a,_1). F(a,c). F(b,_2). F(b,_3).").unwrap();
        let merged = merge_fixpoint(&d, &mut t).unwrap();
        // _1 ↦ c (null/const), _2/_3 unified (null/null).
        assert_eq!(merged, 2);
        assert_eq!(t.nulls().len(), 1);
        assert!(t.contains(&dex_core::Atom::of("F", vec![c("a"), c("c")])));
    }

    #[test]
    fn merge_fixpoint_detects_unsatisfiable_egd() {
        let d = keyed_setting();
        let mut t = parse_instance("F(a,b). F(a,c).").unwrap();
        assert!(merge_fixpoint(&d, &mut t).is_none());
    }

    #[test]
    fn merge_fixpoint_cascades() {
        // _1 merges with c via the first pair; the merged instance then
        // exposes a second forced merge for _2.
        let d = keyed_setting();
        let mut t = parse_instance("F(a,_1). F(a,c). F(_1,_2). F(c,d).").unwrap();
        let merged = merge_fixpoint(&d, &mut t).unwrap();
        assert_eq!(merged, 2);
        assert!(t.is_ground());
        assert!(t.contains(&dex_core::Atom::of("F", vec![c("c"), c("d")])));
    }

    /// `merge_fixpoint` against the naive reference ([`dex_chase::egd_step`]
    /// to fixpoint): same quotient, same number of merges, same verdict.
    fn assert_matches_egd_step(d: &Setting, t: &str) {
        let mut fast = parse_instance(t).unwrap();
        let merged = merge_fixpoint(d, &mut fast);
        let mut slow = parse_instance(t).unwrap();
        let mut steps = 0usize;
        let reference = loop {
            match dex_chase::egd_step(d, &slow) {
                Ok(Some(r)) => {
                    slow = r.instance;
                    steps += 1;
                }
                Ok(None) => break Some(steps),
                Err(_) => break None,
            }
        };
        assert_eq!(merged, reference, "{t}");
        if merged.is_some() {
            assert_eq!(fast, slow, "{t}");
        }
    }

    #[test]
    fn merge_fixpoint_follows_the_scan_cases() {
        let chain = parse_setting(
            "source { L/3 } target { A/2, B/2 }
             t { ka: A(x,y) & A(x,z) -> y = z; kb: B(x,y) & B(x,z) -> y = z; }",
        )
        .unwrap();
        // A B-merge rewrites A-rows into a new A-violation, and back.
        let branches = "B(c,_1). A(_1,_2). B(_2,_3). A(_3,d). B(c,_4). A(_4,_5). B(_5,_6).";
        assert_matches_egd_step(&chain, &format!("{branches} A(_6,d)."));
        assert_matches_egd_step(&chain, &format!("{branches} A(_6,e)."));
        // The merge ⊥ ↦ c tombstones the row the violation was found at.
        let two_keys = parse_setting(
            "source { P/1 } target { F/2, G/2 }
             t { kf: F(x,y) & F(x,z) -> y = z; kg: G(x,y) & G(x,z) -> y = z; }",
        )
        .unwrap();
        assert_matches_egd_step(&two_keys, "F(a,_1). G(_1,_2). F(a,c). G(c,d).");
        // One row in two violations of a non-symmetric egd.
        let chain =
            parse_setting("source { P/1 } target { R/2 } t { e: R(x,y) & R(y,z) -> x = z; }")
                .unwrap();
        assert_matches_egd_step(&chain, "R(d,_1). R(_2,c). R(c,d).");
        // Example 2.1's canonical presolution, plus a row that carries the
        // merged-away null in key position.
        assert_matches_egd_step(
            &keyed_setting(),
            "F(a,_2). F(a,_4). G(_2,_5). G(_4,_6). F(_4,_7).",
        );
    }

    #[test]
    fn propagated_equals_oracle_on_keyed_instance() {
        let d = keyed_setting();
        let t = parse_instance("F(a,_1). F(a,c). G(_2,b).").unwrap();
        let q = parse_query("Q(x,y) :- F(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        let (prop, report) = prop_box(&d, &q, &t, &pool, &Pool::seq());
        assert_eq!(prop, oracle_box(&d, &q, &t, &pool).unwrap());
        // _1 pinned by the egd; _2 inert (G is not in the query or Σ_t
        // bodies — the st-tgd head F only): nothing left to enumerate.
        assert_eq!(report.merged, 1);
        assert_eq!(report.inert, 1);
        assert_eq!(report.residual_valuations, 1);
        assert_eq!(
            prop_dia(&d, &q, &t, &pool, &Pool::seq()),
            oracle_dia(&d, &q, &t, &pool)
        );
    }

    #[test]
    fn propagated_detects_empty_rep() {
        let d = keyed_setting();
        let t = parse_instance("F(a,b). F(a,c).").unwrap();
        let q = parse_query("Q(x) :- F(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        assert_eq!(prop_box(&d, &q, &t, &pool, &Pool::seq()).0, None);
        assert_eq!(oracle_box(&d, &q, &t, &pool).unwrap(), None);
        assert!(prop_dia(&d, &q, &t, &pool, &Pool::seq()).is_empty());
    }

    #[test]
    fn propagation_succeeds_where_the_oracle_overflows() {
        // 12 redundant nulls all pinned by the key egd: the oracle's
        // space is |pool|^12 (far past the default limit) while the
        // residual is a single candidate.
        let d = keyed_setting();
        let mut text = String::new();
        for i in 0..12 {
            text.push_str(&format!("F(a{i},_{i}). F(a{i},c{i}). "));
        }
        let t = parse_instance(&text).unwrap();
        let q = parse_query("Q(x,y) :- F(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        assert!(oracle_box(&d, &q, &t, &pool).is_err());
        let (ans, report) = prop_box(&d, &q, &t, &pool, &Pool::seq());
        let ans = ans.unwrap();
        assert_eq!(ans.len(), 12);
        assert_eq!(report.merged, 12);
        assert_eq!(report.residual_valuations, 1);
        assert!(report.oracle_valuations > 1u128 << 64 || report.oracle_valuations > 5_000_000);
    }

    #[test]
    fn forced_diseqs_prune_without_changing_answers() {
        // Two key-constrained nulls forced apart: v(_1) = v(_2) would
        // equate b and d.
        let d = keyed_setting();
        let t = parse_instance("F(_1,b). F(_2,d).").unwrap();
        let q = parse_query("Q() :- F(x,b), F(x,d)").unwrap();
        let pool = pool_for(&t, &q);
        let (prop, report) = prop_box(&d, &q, &t, &pool, &Pool::seq());
        assert_eq!(report.diseqs, 1);
        assert_eq!(prop, oracle_box(&d, &q, &t, &pool).unwrap());
        assert_eq!(
            prop_dia(&d, &q, &t, &pool, &Pool::seq()),
            oracle_dia(&d, &q, &t, &pool)
        );
    }

    #[test]
    fn ground_witnesses_are_sound() {
        let t = parse_instance("F(a,b). F(a,_1). G(_2,c).").unwrap();
        let q = parse_query("Q(x,y) :- F(x,y), x != y").unwrap();
        let w = certain_ground_witnesses(&q, &t);
        // (a,b) has an all-constant witness with a ≠ b; (a,_1) does not.
        assert_eq!(w, Answers::from([vec![c("a"), c("b")]]));
    }

    #[test]
    fn governed_propagation_returns_refinable_bounds() {
        let d = keyed_setting();
        let t = parse_instance("F(a,b). G(_1,_2).").unwrap();
        // G is mentioned by the query, so its nulls are residual.
        let q = parse_query("Q(x,y) :- F(x,y); Q(x,y) :- G(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        let exec = Pool::seq();
        // Exact answers for reference.
        let exact_box = prop_box(&d, &q, &t, &pool, &exec).0.unwrap();
        let exact_dia = prop_dia(&d, &q, &t, &pool, &exec);
        for fuel in [1u64, 3, 7, 20] {
            let gov = Governor::unlimited().with_fuel(fuel);
            let (g, _) =
                certain_answers_propagated(&d, &q, &t, &pool, &lim(), &gov, &exec).unwrap();
            let g = g.unwrap();
            g.validate().unwrap();
            assert!(g.lower_bound().is_subset(&exact_box), "fuel {fuel}");
            if let Some(upper) = g.upper_bound() {
                assert!(exact_box.is_subset(&upper), "fuel {fuel}");
            }
            // The ground witness (a,b) is proven even at fuel 1.
            assert!(g.lower_bound().contains(&vec![c("a"), c("b")]));

            let gov = Governor::unlimited().with_fuel(fuel);
            let (g, _) = maybe_answers_propagated(&d, &q, &t, &pool, &lim(), &gov, &exec).unwrap();
            g.validate().unwrap();
            assert!(g.lower_bound().is_subset(&exact_dia), "fuel {fuel}");
            if let Some(upper) = g.upper_bound() {
                assert!(exact_dia.is_subset(&upper), "fuel {fuel}");
            } else {
                assert!(!g.is_complete());
            }
        }
        // Unlimited fuel: complete and exact.
        let gov = Governor::unlimited();
        let (g, _) = certain_answers_propagated(&d, &q, &t, &pool, &lim(), &gov, &exec).unwrap();
        let g = g.unwrap();
        assert!(g.is_complete());
        assert_eq!(g.proven, exact_box);
        assert_eq!(g.upper_bound(), Some(exact_box));
    }

    #[test]
    fn fo_queries_disable_inert_elimination_but_stay_exact() {
        let d = keyed_setting();
        let t = parse_instance("F(a,_1). F(a,c). G(_2,b).").unwrap();
        // FO query with negation: sensitive to the active domain.
        let q = parse_query("Q(x) := exists y . (F(x,y) & !G(y,x))").unwrap();
        let pool = pool_for(&t, &q);
        let (prop, report) = prop_box(&d, &q, &t, &pool, &Pool::seq());
        assert_eq!(report.inert, 0);
        assert_eq!(prop, oracle_box(&d, &q, &t, &pool).unwrap());
        assert_eq!(
            prop_dia(&d, &q, &t, &pool, &Pool::seq()),
            oracle_dia(&d, &q, &t, &pool)
        );
    }

    #[test]
    fn parallel_propagation_is_deterministic() {
        let d = keyed_setting();
        let t = parse_instance("F(a,_1). F(a,c). G(_2,_3). G(b,_2).").unwrap();
        let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        let seq = prop_box(&d, &q, &t, &pool, &Pool::seq());
        let seq_dia = prop_dia(&d, &q, &t, &pool, &Pool::seq());
        for threads in [2usize, 8] {
            let exec = Pool::new(threads).with_threshold_ns(0);
            assert_eq!(seq, prop_box(&d, &q, &t, &pool, &exec), "threads {threads}");
            assert_eq!(
                seq_dia,
                prop_dia(&d, &q, &t, &pool, &exec),
                "threads {threads}"
            );
        }
    }

    /// Every propagation stage span is stamped from the governor's clock:
    /// on a mock clock parked at a nonzero instant, `residual_enum` (and
    /// every analysis stage) opens exactly there.
    #[test]
    fn stage_spans_take_the_governor_clock() {
        let d = keyed_setting();
        let t = parse_instance("F(a,b). G(_1,_2).").unwrap();
        let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
        let pool = pool_for(&t, &q);
        let (clock, mock) = Clock::mock();
        mock.set_ns(7_000);
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let gov = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
        certain_answers_propagated(&d, &q, &t, &pool, &lim(), &gov, &Pool::seq()).unwrap();
        let opened: Vec<(String, u64)> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanOpened { name } => Some((name, e.at_ns)),
                _ => None,
            })
            .collect();
        assert!(
            opened.iter().any(|(name, _)| name == "residual_enum"),
            "no residual_enum span in {opened:?}"
        );
        for (name, at) in &opened {
            assert_eq!(*at, 7_000, "span {name} opened at {at}");
        }
    }
}
