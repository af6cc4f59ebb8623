//! Certain and maybe answers of a query on a *single* target instance:
//! `□Q(T) = ⋂_{R ∈ Rep_D(T)} Q(R)` and `◇Q(T) = ⋃_{R ∈ Rep_D(T)} Q(R)`
//! (Section 7.1).
//!
//! `Rep_D(T)` is the set of complete instances `v(T)` for valuations
//! `v: Null(T) → Const` with `v(T) ⊨ Σ_t`. The reference implementation
//! enumerates valuations into the *standard pool* — the constants of `T`,
//! the query and the source plus `|Null(T)|` fresh constants — which is
//! sufficient up to isomorphism. Its cost is `|pool|^|Null(T)|`, matching
//! the paper's co-NP/NP data-complexity upper bounds (Proposition 7.4);
//! [`ucq_certain_answers`] is the polynomial fast path of Lemma 7.7.

use crate::eval::{drop_null_tuples, eval_query, Answers};
use dex_core::govern::{Governor, Interrupt, InterruptReason, Verdict};
use dex_core::{
    chunk_ranges, range_cost, BoundedExt, Instance, Pool, Symbol, Valuation, ValuationIter, Value,
};
use dex_logic::{Query, Setting};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Limits on the valuation enumeration.
#[derive(Copy, Clone, Debug)]
pub struct ModalLimits {
    /// Maximum number of valuations to enumerate (`|pool|^|nulls|`).
    pub max_valuations: u128,
}

impl Default for ModalLimits {
    fn default() -> ModalLimits {
        ModalLimits {
            max_valuations: 5_000_000,
        }
    }
}

/// Errors from the modal-answer computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModalError {
    /// The valuation space exceeds the configured limit.
    TooManyValuations { nulls: usize, pool: usize },
}

impl fmt::Display for ModalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModalError::TooManyValuations { nulls, pool } => write!(
                f,
                "valuation space {pool}^{nulls} exceeds the configured limit \
                 (or the u64 index space)"
            ),
        }
    }
}

/// Validates a valuation-space size against both the configured limit and
/// the `u64` index domain the range-splitting drivers compute in. The
/// second check is a hard soundness requirement, not a budget: totals
/// above `u64::MAX` used to be silently clamped, so a caller who raised
/// [`ModalLimits::max_valuations`] past `2^64` got answers over a
/// silently-skipped suffix of `Rep_D(T)` — an unsound □ and incomplete ◇.
pub(crate) fn checked_total(
    total: u128,
    nulls: usize,
    pool: usize,
    limits: &ModalLimits,
) -> Result<u64, ModalError> {
    if total > limits.max_valuations || total > u128::from(u64::MAX) {
        return Err(ModalError::TooManyValuations { nulls, pool });
    }
    Ok(total as u64)
}

impl std::error::Error for ModalError {}

/// The constants a query mentions (for pool construction).
fn query_constants(q: &Query) -> BTreeSet<Symbol> {
    match q {
        Query::Cq(q) => q.constants(),
        Query::Ucq(q) => q.constants(),
        Query::Fo(q) => q.formula.constants(),
    }
}

/// The valuation pool for answering `q` on `t` given extra context
/// constants (e.g. the source's): `Const(t) ∪ extra ∪ Const(q)` plus
/// `|Null(t)|` fresh constants.
pub fn answer_pool(
    t: &Instance,
    q: &Query,
    extra: impl IntoIterator<Item = Symbol>,
) -> Vec<Symbol> {
    let mut ctx: BTreeSet<Symbol> = query_constants(q);
    ctx.extend(extra);
    dex_core::standard_pool(t, ctx)
}

/// Enumerates `Rep_D(T)` over `pool`, calling `f` on each member.
/// Returns the number of members visited.
pub fn for_each_rep(
    setting: &Setting,
    t: &Instance,
    pool: &[Symbol],
    limits: &ModalLimits,
    f: &mut dyn FnMut(&Instance),
) -> Result<u64, ModalError> {
    let nulls: Vec<_> = t.nulls().into_iter().collect();
    let it = ValuationIter::new(nulls.iter().copied(), pool.to_vec());
    checked_total(it.total(), nulls.len(), pool.len(), limits)?;
    let mut count = 0u64;
    for v in it {
        let ground = v.apply(t);
        if setting.satisfies_target(&ground) {
            f(&ground);
            count += 1;
        }
    }
    Ok(count)
}

/// Contiguous valuation-index ranges for a worker pool. Oversplit 4×
/// relative to the *effective* thread count (requested width capped at
/// the machine's CPUs) so the work-stealing injector balances uneven
/// ranges and the shared cancel token takes effect sooner. Splitting by
/// the requested width would be pure overhead past the cap: each extra
/// range restarts the □ intersection accumulator, so oversplitting adds
/// valuation work that no extra worker exists to absorb.
///
/// `total` is a *checked* `u64` ([`checked_total`] rejects anything
/// larger), so no clamping happens here.
fn valuation_ranges(exec: &Pool, total: u64) -> Vec<(u64, u64)> {
    chunk_ranges(total, exec.effective_threads() * 4)
}

/// Per-valuation cost estimate for [`dex_core::range_cost`] hints: each
/// valuation grounds the target and evaluates the query — around half a
/// microsecond on paper-sized instances.
const VALUATION_COST_NS: u64 = 500;

/// The range-split □ fold shared by the oracle and propagation: `vals(lo)`
/// enumerates candidate valuations from index `lo` of a `total`-sized
/// space, and `eval` returns a candidate's answers, or `None` when the
/// candidate is not a representative. The governor ticks once per
/// candidate. Each range meets its representatives' answers (and one
/// [`GovernedAnswers::unknown`] factor for the rest of the range if the
/// governor trips), and the ranges meet in submission order, so the
/// answer is the same for every range layout and thread count.
///
/// One cancel token stops every range early, both once some range's
/// intersection hits ∅ (⋂ only shrinks, so the meet is then a complete
/// ∅) and once the governor trips — so a one-wide run ticks exactly like
/// a single sequential loop. Returns `None` only when a complete run
/// finds no representative (`Rep_D(T) = ∅`).
pub(crate) fn box_fold<I>(
    exec: &Pool,
    gov: &Governor,
    total: u64,
    vals: impl Fn(u64) -> I + Sync,
    eval: impl Fn(&Valuation) -> Option<Answers> + Sync,
) -> Option<GovernedAnswers>
where
    I: Iterator<Item = Valuation>,
{
    let ranges = valuation_ranges(exec, total);
    let cancel = AtomicBool::new(false);
    let partials = exec.map(
        &ranges,
        range_cost(&ranges, VALUATION_COST_NS),
        |_, &(lo, hi)| {
            let mut acc = GovernedAnswers::everything();
            for v in vals(lo).bounded(hi - lo) {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(i) = gov.check() {
                    cancel.store(true, Ordering::Relaxed);
                    return acc.meet(GovernedAnswers::unknown(i));
                }
                let Some(ans) = eval(&v) else { continue };
                acc = acc.meet(GovernedAnswers::complete(ans));
                if acc.proven.is_empty() {
                    cancel.store(true, Ordering::Relaxed);
                    break;
                }
            }
            acc
        },
    );
    let g = partials
        .into_iter()
        .fold(GovernedAnswers::everything(), GovernedAnswers::meet);
    // Only the ⋂ of no representative at all keeps the `True` default.
    (g.default != Verdict::True).then_some(g)
}

/// The range-split ◇ fold shared by the oracle and propagation, with the
/// same candidate enumeration, filter and ticking as [`box_fold`]. Each
/// range joins its representatives' answers (and one
/// [`GovernedAnswers::unknown`] factor if the governor trips: an
/// unexplored representative might still produce any tuple), and the
/// ranges join in submission order. Every candidate can contribute, so
/// only an interrupt stops the other ranges.
pub(crate) fn diamond_fold<I>(
    exec: &Pool,
    gov: &Governor,
    total: u64,
    vals: impl Fn(u64) -> I + Sync,
    eval: impl Fn(&Valuation) -> Option<Answers> + Sync,
) -> GovernedAnswers
where
    I: Iterator<Item = Valuation>,
{
    let ranges = valuation_ranges(exec, total);
    let cancel = AtomicBool::new(false);
    let partials = exec.map(
        &ranges,
        range_cost(&ranges, VALUATION_COST_NS),
        |_, &(lo, hi)| {
            let mut acc = GovernedAnswers::complete(Answers::new());
            for v in vals(lo).bounded(hi - lo) {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(i) = gov.check() {
                    cancel.store(true, Ordering::Relaxed);
                    return acc.join(GovernedAnswers::unknown(i));
                }
                if let Some(ans) = eval(&v) {
                    acc = acc.join(GovernedAnswers::complete(ans));
                }
            }
            acc
        },
    );
    partials.into_iter().fold(
        GovernedAnswers::complete(Answers::new()),
        GovernedAnswers::join,
    )
}

/// The oracle's per-candidate step: ground `t` under `v` and answer `q`
/// on it iff the result satisfies `Σ_t`.
pub(crate) fn rep_answers(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    v: &Valuation,
) -> Option<Answers> {
    let ground = v.apply(t);
    setting
        .satisfies_target(&ground)
        .then(|| eval_query(q, &ground))
}

/// `□Q(T)`: tuples in `Q(R)` for every `R ∈ Rep_D(T)`, by enumerating
/// every valuation into `pool` (`box_fold`, ranges on `exec`, one tick
/// of `gov` per valuation). Returns `None` if a complete run finds
/// `Rep_D(T)` empty (then `□Q(T)` is the set of all tuples; the paper's
/// solutions always have nonempty `Rep` since valuations of solutions
/// satisfying `Σ_t` exist, but arbitrary `T` may not).
///
/// When the governor trips, tuples already dropped from the running
/// intersection are `False` (some fully-evaluated representative refutes
/// them), the surviving candidates are `Unknown`, and everything else is
/// `False` if at least one representative was evaluated (it already
/// failed that ⋂-factor) or `Unknown` otherwise. At one thread the trip
/// lands on the same valuation as a plain sequential loop; under
/// parallelism it depends on worker interleaving, but every definite
/// verdict is still sound and the interrupt reason is merged
/// deterministically (first in submission order).
pub fn certain_answers(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    pool: &[Symbol],
    limits: &ModalLimits,
    gov: &Governor,
    exec: &Pool,
) -> Result<Option<GovernedAnswers>, ModalError> {
    let nulls: Vec<_> = t.nulls().into_iter().collect();
    let total = ValuationIter::new(nulls.iter().copied(), pool.to_vec()).total();
    let total = checked_total(total, nulls.len(), pool.len(), limits)?;
    Ok(box_fold(
        exec,
        gov,
        total,
        |lo| ValuationIter::from_index(nulls.iter().copied(), pool.to_vec(), u128::from(lo)),
        |v| rep_answers(setting, q, t, v),
    ))
}

/// `◇Q(T)`: tuples in `Q(R)` for some `R ∈ Rep_D(T)`, by enumerating
/// every valuation into `pool` (`diamond_fold`, ranges on `exec`, one
/// tick of `gov` per valuation).
pub fn maybe_answers(
    setting: &Setting,
    q: &Query,
    t: &Instance,
    pool: &[Symbol],
    limits: &ModalLimits,
    gov: &Governor,
    exec: &Pool,
) -> Result<GovernedAnswers, ModalError> {
    let nulls: Vec<_> = t.nulls().into_iter().collect();
    let total = ValuationIter::new(nulls.iter().copied(), pool.to_vec()).total();
    let total = checked_total(total, nulls.len(), pool.len(), limits)?;
    Ok(diamond_fold(
        exec,
        gov,
        total,
        |lo| ValuationIter::from_index(nulls.iter().copied(), pool.to_vec(), u128::from(lo)),
        |v| rep_answers(setting, q, t, v),
    ))
}

/// Three-valued per-tuple answers from a governed modal evaluation: each
/// tuple's membership is [`Verdict::True`], [`Verdict::False`], or
/// [`Verdict::Unknown`] when the governor tripped before its status was
/// settled. On a complete run (no interrupt) this degenerates to the
/// classical answer set: `proven` holds the answers and every other tuple
/// is `False`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GovernedAnswers {
    /// Tuples definitely in the answer.
    pub proven: Answers,
    /// Tuples definitely *not* in the answer (refuted before the trip —
    /// e.g. dropped from a ⋂ because some fully-evaluated representative
    /// does not satisfy them).
    pub refuted: Answers,
    /// Tuples still undetermined when the governor tripped.
    pub undetermined: Answers,
    /// Verdict for every tuple outside the three sets above.
    pub default: Verdict,
    /// The interrupt that cut the run short, if any.
    pub interrupt: Option<Interrupt>,
}

impl GovernedAnswers {
    /// Wraps a completed (uninterrupted) answer set.
    pub fn complete(answers: Answers) -> GovernedAnswers {
        GovernedAnswers {
            proven: answers,
            refuted: Answers::new(),
            undetermined: Answers::new(),
            default: Verdict::False,
            interrupt: None,
        }
    }

    /// The ⋂ of no factors, [`Self::meet`]'s identity: every tuple is
    /// `True`. (The identity of [`Self::join`] is `complete(∅)`.)
    fn everything() -> GovernedAnswers {
        GovernedAnswers {
            default: Verdict::True,
            ..GovernedAnswers::complete(Answers::new())
        }
    }

    /// One factor of which `i` cut off everything: every tuple is
    /// `Unknown`. A fold that stops at an interrupted factor combines
    /// one of these for the factors it never evaluated.
    pub fn unknown(i: Interrupt) -> GovernedAnswers {
        GovernedAnswers {
            default: Verdict::Unknown(i.reason),
            interrupt: Some(i),
            ..GovernedAnswers::complete(Answers::new())
        }
    }

    /// The ⋂ of two factors: each tuple's verdict, the default's
    /// included, is the Kleene ∧ of its verdicts in `self` and `other`
    /// (`False` wins, then `Unknown`). The first interrupt is kept
    /// unless no `Unknown` verdict remains — an emptied ⋂ is a complete
    /// ∅ whatever was left unexplored. Two complete factors meet by a
    /// plain set intersection, which refutes the tuples it drops from
    /// `self`.
    pub fn meet(mut self, other: GovernedAnswers) -> GovernedAnswers {
        if self == GovernedAnswers::everything() {
            other
        } else if other == GovernedAnswers::everything() {
            self
        } else if self.is_plain() && other.is_plain() {
            let dropped = self.proven.extract_if(.., |t| !other.proven.contains(t));
            self.refuted.extend(dropped);
            self.refuted.extend(other.refuted);
            self
        } else {
            self.combine(other, |a, b| std::cmp::min_by_key(a, b, kleene_rank))
        }
    }

    /// The ∪ of two factors: each tuple's verdict, the default's
    /// included, is the Kleene ∨ of its verdicts in `self` and `other`
    /// (`True` wins, then `Unknown`), with the interrupt kept as by
    /// [`Self::meet`]. Two complete factors join by a plain set union.
    pub(crate) fn join(mut self, other: GovernedAnswers) -> GovernedAnswers {
        if self.is_plain() && other.is_plain() {
            self.proven.extend(other.proven);
            self.refuted.extend(other.refuted);
            self.refuted.retain(|t| !self.proven.contains(t));
            self
        } else {
            self.combine(other, |a, b| std::cmp::max_by_key(a, b, kleene_rank))
        }
    }

    /// True iff this is a complete run's answer set: every tuple outside
    /// `proven` is `False`.
    fn is_plain(&self) -> bool {
        self.is_complete() && self.default == Verdict::False
    }

    /// The per-tuple combination behind [`Self::meet`] and
    /// [`Self::join`], over every tuple either factor names.
    fn combine(
        self,
        other: GovernedAnswers,
        op: fn(Verdict, Verdict) -> Verdict,
    ) -> GovernedAnswers {
        let mut out = GovernedAnswers {
            default: op(self.default, other.default),
            interrupt: self.interrupt.or(other.interrupt),
            ..GovernedAnswers::complete(Answers::new())
        };
        for g in [&self, &other] {
            for t in g.proven.iter().chain(&g.refuted).chain(&g.undetermined) {
                let set = match op(self.verdict(t), other.verdict(t)) {
                    Verdict::True => &mut out.proven,
                    Verdict::False => &mut out.refuted,
                    Verdict::Unknown(_) => &mut out.undetermined,
                };
                set.insert(t.clone());
            }
        }
        if out.undetermined.is_empty() && !out.default.is_unknown() {
            out.interrupt = None;
        }
        out
    }

    /// Evaluates the ⋂-factors of `items` in order and meets them,
    /// stopping at the first interrupted one: the factors after it
    /// enter as one [`Self::unknown`] factor.
    pub fn meet_all<T, E>(
        items: impl IntoIterator<Item = T>,
        eval: impl FnMut(T) -> Result<GovernedAnswers, E>,
    ) -> Result<GovernedAnswers, E> {
        fold_factors(items, GovernedAnswers::everything(), Self::meet, eval)
    }

    /// [`Self::meet_all`] for the ∪-factors of `items`, by [`Self::join`].
    pub(crate) fn join_all<T, E>(
        items: impl IntoIterator<Item = T>,
        eval: impl FnMut(T) -> Result<GovernedAnswers, E>,
    ) -> Result<GovernedAnswers, E> {
        let empty = GovernedAnswers::complete(Answers::new());
        fold_factors(items, empty, Self::join, eval)
    }

    /// The verdict for a single tuple.
    pub fn verdict(&self, tuple: &[Value]) -> Verdict {
        if self.proven.contains(tuple) {
            Verdict::True
        } else if self.refuted.contains(tuple) {
            Verdict::False
        } else if self.undetermined.contains(tuple) {
            Verdict::Unknown(self.reason())
        } else {
            self.default
        }
    }

    /// True iff the evaluation ran to completion (no `Unknown` verdicts
    /// beyond what `default` says). Only an incomplete run can have its
    /// `lower_bound()`/`upper_bound()` gap shrunk by a larger budget.
    pub fn is_complete(&self) -> bool {
        self.interrupt.is_none()
    }

    /// The *sound* (under-approximating) half of the bound pair: every
    /// tuple here is definitely in the exact answer, whatever fuel was
    /// left. On a complete run this *is* the answer. (Calautti et al.,
    /// "Querying Data Exchange Settings Beyond Positive Queries", use
    /// such sound/complete pairs for the non-positive fragment; here
    /// they fall out of the three-valued verdict partition.)
    pub fn lower_bound(&self) -> &Answers {
        &self.proven
    }

    /// The *complete* (over-approximating) half of the bound pair: the
    /// exact answer is contained in the returned set. `None` when the
    /// run was cut short with a non-`False` default — then no finite
    /// over-approximation is known (an unexplored representative could
    /// still produce any tuple). On a complete run the bound is tight:
    /// `upper == lower == proven`.
    pub fn upper_bound(&self) -> Option<Answers> {
        match self.default {
            Verdict::False => Some(self.proven.union(&self.undetermined).cloned().collect()),
            _ => None,
        }
    }

    fn reason(&self) -> InterruptReason {
        self.interrupt
            .map(|i| i.reason)
            .unwrap_or(InterruptReason::Fuel)
    }

    /// Internal consistency invariants; the governed test sweep asserts
    /// this on every modal evaluation outcome.
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.proven {
            if self.refuted.contains(t) || self.undetermined.contains(t) {
                return Err(format!("tuple {t:?} has more than one verdict"));
            }
        }
        for t in &self.refuted {
            if self.undetermined.contains(t) {
                return Err(format!("tuple {t:?} is both refuted and undetermined"));
            }
        }
        if self.interrupt.is_none() {
            // A complete run settles everything: no tuple is left
            // undetermined and absent tuples are definitely out.
            if !self.undetermined.is_empty() {
                return Err(format!(
                    "complete run left {} tuples undetermined",
                    self.undetermined.len()
                ));
            }
            if self.default != Verdict::False {
                return Err(format!(
                    "complete run has non-False default {:?}",
                    self.default
                ));
            }
        }
        Ok(())
    }

    /// The verdict sets as JSON; tuples render via `Value`'s display form.
    pub fn to_json(&self) -> dex_obs::JsonValue {
        use dex_obs::JsonValue;
        let set = |answers: &Answers| {
            JsonValue::Arr(
                answers
                    .iter()
                    .map(|t| {
                        JsonValue::Arr(t.iter().map(|v| JsonValue::str(v.to_string())).collect())
                    })
                    .collect(),
            )
        };
        let default = match self.default {
            Verdict::True => "true".to_string(),
            Verdict::False => "false".to_string(),
            Verdict::Unknown(r) => format!("unknown:{}", r.tag()),
        };
        JsonValue::obj()
            .with("proven", set(&self.proven))
            .with("refuted", set(&self.refuted))
            .with("undetermined", set(&self.undetermined))
            .with("default", JsonValue::str(default))
            .with("complete", JsonValue::Bool(self.is_complete()))
            .with(
                "interrupt",
                self.interrupt
                    .as_ref()
                    .map_or(JsonValue::Null, Interrupt::to_json),
            )
    }
}

/// Kleene's order `False < Unknown < True`: ∧ takes the lower verdict,
/// ∨ the higher.
fn kleene_rank(v: &Verdict) -> u8 {
    match v {
        Verdict::False => 0,
        Verdict::Unknown(_) => 1,
        Verdict::True => 2,
    }
}

/// The fold behind [`GovernedAnswers::meet_all`] and
/// [`GovernedAnswers::join_all`].
fn fold_factors<T, E>(
    items: impl IntoIterator<Item = T>,
    identity: GovernedAnswers,
    op: fn(GovernedAnswers, GovernedAnswers) -> GovernedAnswers,
    mut eval: impl FnMut(T) -> Result<GovernedAnswers, E>,
) -> Result<GovernedAnswers, E> {
    let mut items = items.into_iter().peekable();
    let mut acc = identity;
    while let Some(item) = items.next() {
        let g = eval(item)?;
        let stop = g.interrupt;
        acc = op(acc, g);
        if let Some(i) = stop {
            if items.peek().is_some() {
                acc = op(acc, GovernedAnswers::unknown(i));
            }
            break;
        }
    }
    Ok(acc)
}

/// Lemma 7.7's polynomial fast path, generalized to the largest fragment
/// it soundly covers: for a UCQ `Q` whose inequalities mention only head
/// variables and constants ([`Query::is_head_safe_ucq`]; plain UCQs are
/// the special case with no inequalities) and a CWA-solution `T`,
/// `□Q(T) = Q(T)↓` (naive evaluation, then drop tuples with nulls).
///
/// Why the fragment is exactly this: on a surviving all-constant answer
/// tuple, head-safe inequalities compare fixed constants, so their truth
/// transfers unchanged along every valuation (soundness), along the
/// injective fresh valuation, and along the homomorphisms connecting
/// CWA-solutions (completeness — Lemma 7.7's argument verbatim). An
/// inequality over an *existential* variable does not transfer: a
/// valuation can collapse the two sides, which is the § 7.2 source of
/// co-NP-hardness. Only sound when `t` is a CWA-solution.
pub fn ucq_certain_answers(q: &Query, t: &Instance) -> Answers {
    debug_assert!(
        q.is_head_safe_ucq(),
        "fast path requires a UCQ with head-safe inequalities"
    );
    drop_null_tuples(&eval_query(q, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::govern::Progress;
    use dex_core::Value;
    use dex_logic::{parse_instance, parse_query, parse_setting};

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    /// A setting with one egd so Rep filters valuations.
    fn keyed_setting() -> Setting {
        parse_setting(
            "source { P/1 }
             target { F/2, G/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap()
    }

    fn free_setting() -> Setting {
        parse_setting(
            "source { P/1 }
             target { F/2, G/2 }
             st { P(x) -> exists z . F(x,z); }",
        )
        .unwrap()
    }

    /// Sequential, ungoverned `□Q(T)`.
    fn box_q(
        d: &Setting,
        q: &Query,
        t: &Instance,
        pool: &[Symbol],
    ) -> Result<Option<Answers>, ModalError> {
        let g = certain_answers(
            d,
            q,
            t,
            pool,
            &ModalLimits::default(),
            &Governor::unlimited(),
            &Pool::seq(),
        )?;
        Ok(g.map(|g| {
            assert!(g.is_complete());
            g.proven
        }))
    }

    /// Sequential, ungoverned `◇Q(T)`.
    fn diamond_q(d: &Setting, q: &Query, t: &Instance, pool: &[Symbol]) -> Answers {
        let g = maybe_answers(
            d,
            q,
            t,
            pool,
            &ModalLimits::default(),
            &Governor::unlimited(),
            &Pool::seq(),
        )
        .unwrap();
        assert!(g.is_complete());
        g.proven
    }

    #[test]
    fn certain_answers_quantify_over_all_valuations() {
        let d = free_setting();
        let t = parse_instance("F(a,_1). G(_1,b).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        // _1 can be anything: no certain F-successor value.
        let ans = box_q(&d, &q, &t, &pool).unwrap().unwrap();
        assert!(ans.is_empty());
        // But the Boolean "a has an F-successor" is certain.
        let qb = parse_query("Q() :- F(a,x)").unwrap();
        let ans = box_q(&d, &qb, &t, &pool).unwrap().unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn maybe_answers_union_over_valuations() {
        let d = free_setting();
        let t = parse_instance("F(a,_1).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, [Symbol::intern("b")]);
        let ans = diamond_q(&d, &q, &t, &pool);
        // _1 ranges over the whole pool: a, b and one fresh constant.
        assert_eq!(ans.len(), pool.len());
    }

    #[test]
    fn rep_filters_by_target_dependencies() {
        let d = keyed_setting();
        // Two F-atoms sharing a key but carrying distinct nulls. The egd
        // F(x,y) ∧ F(x,z) → y = z admits exactly the valuations with
        // v(_1) = v(_2): every other valuation produces two F-rows with
        // equal first and unequal second components, so Rep keeps only
        // the collapsed instances.
        let t = parse_instance("F(a,_1). F(a,_2).").unwrap();
        let q = parse_query("Q() :- F(a,x), F(a,y), x != y").unwrap();
        let pool = answer_pool(&t, &q, []);
        let ans = box_q(&d, &q, &t, &pool).unwrap().unwrap();
        // In every R ∈ Rep the two atoms collapse, so the query is never
        // true — certainly empty, and not even maybe.
        assert!(ans.is_empty());
        assert!(diamond_q(&d, &q, &t, &pool).is_empty());
    }

    #[test]
    fn rep_can_be_empty() {
        // An egd that no valuation can satisfy: F(x,y) & F(y,x) -> ... is
        // hard to make unsatisfiable by valuation alone; instead use a
        // target with a constant conflict under the key.
        let d = keyed_setting();
        let t = parse_instance("F(a,b). F(a,c).").unwrap();
        let q = parse_query("Q() :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        assert!(box_q(&d, &q, &t, &pool).unwrap().is_none()); // Rep_D(T) = ∅
    }

    #[test]
    fn ucq_fast_path_agrees_with_oracle_on_cwa_solutions() {
        let d = keyed_setting();
        let s = parse_instance("P(a).").unwrap();
        let t = dex_cwa::core_solution(&d, &s, &dex_chase::ChaseBudget::default()).unwrap();
        let q = parse_query("Q(x) :- F(x,y)").unwrap();
        let fast = ucq_certain_answers(&q, &t);
        let pool = answer_pool(&t, &q, s.constants());
        let oracle = box_q(&d, &q, &t, &pool).unwrap().unwrap();
        assert_eq!(fast, oracle);
        assert_eq!(fast, Answers::from([vec![c("a")]]));
    }

    #[test]
    fn limit_is_enforced() {
        let d = free_setting();
        // 12 nulls over a pool of ~13 constants exceeds the default limit.
        let atoms: String = (0..12).map(|i| format!("G(_{i},_{i}). ")).collect();
        let t = parse_instance(&atoms).unwrap();
        let q = parse_query("Q() :- G(x,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        let r = box_q(&d, &q, &t, &pool);
        assert!(matches!(r, Err(ModalError::TooManyValuations { .. })));
    }

    #[test]
    fn raised_limit_cannot_silently_truncate_past_u64() {
        // Regression: `valuation_ranges` used to clamp the u128 valuation
        // total to u64::MAX, so with the limit raised past 2^64 the range
        // layout silently dropped every valuation above the clamp — the
        // suffix of Rep_D(T) was never visited (unsound □, incomplete ◇).
        // Now any space that cannot be indexed in u64 is a hard error on
        // every oracle entry point, at any thread count.
        let d = free_setting();
        // 40 nulls over a pool of ≥41 constants: 41^40 ≈ 3.2·10^64 > 2^64.
        let atoms: String = (0..40).map(|i| format!("G(_{i},_{i}). ")).collect();
        let t = parse_instance(&atoms).unwrap();
        let q = parse_query("Q() :- G(x,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        let total = ValuationIter::new(t.nulls(), pool.clone()).total();
        assert!(
            total > u128::from(u64::MAX),
            "test instance must overflow the u64 index space (got {total})"
        );
        let lim = ModalLimits {
            max_valuations: u128::MAX,
        };
        let gov = Governor::unlimited();
        for exec in [Pool::seq(), Pool::new(2).with_threshold_ns(0)] {
            assert!(matches!(
                certain_answers(&d, &q, &t, &pool, &lim, &gov, &exec),
                Err(ModalError::TooManyValuations { .. })
            ));
            assert!(matches!(
                maybe_answers(&d, &q, &t, &pool, &lim, &gov, &exec),
                Err(ModalError::TooManyValuations { .. })
            ));
        }
        assert!(matches!(
            for_each_rep(&d, &t, &pool, &lim, &mut |_| {}),
            Err(ModalError::TooManyValuations { .. })
        ));
    }

    #[test]
    fn interrupted_box_keeps_survivors_unknown() {
        let d = free_setting();
        // Boolean query true in every rep: after one rep the empty tuple
        // survives; fuel 2 trips before the second rep, leaving it
        // unknown rather than (wrongly) certain.
        let t = parse_instance("F(a,_1).").unwrap();
        let q = parse_query("Q() :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        assert!(pool.len() >= 2);
        let gov = Governor::unlimited().with_fuel(2);
        let lim = ModalLimits::default();
        let g = certain_answers(&d, &q, &t, &pool, &lim, &gov, &Pool::seq())
            .unwrap()
            .unwrap();
        assert!(!g.is_complete());
        assert!(g.proven.is_empty());
        assert_eq!(g.undetermined, Answers::from([Vec::new()]));
        assert!(g.verdict(&[]).is_unknown());
    }

    #[test]
    fn interrupted_box_marks_dropped_tuples_false() {
        let d = free_setting();
        // `_1` ranges over the pool while `b` is fixed: after two reps
        // the first rep's own valuation of `_1` is refuted — a *definite*
        // False that survives the interrupt at rep three — while `b`
        // survives every rep and stays undetermined. (Over `F(a,_1)`
        // alone the second rep would empty the intersection, which is a
        // complete ∅ rather than an interrupted run.)
        let t = parse_instance("F(a,_1). F(a,b).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, [Symbol::intern("c")]);
        assert!(pool.len() >= 3);
        // Fuel 3: the first two reps are evaluated (ticks 1 and 2), the
        // trip lands on the check before rep three.
        let gov = Governor::unlimited().with_fuel(3);
        let lim = ModalLimits::default();
        let g = certain_answers(&d, &q, &t, &pool, &lim, &gov, &Pool::seq())
            .unwrap()
            .unwrap();
        assert!(!g.is_complete());
        g.validate().unwrap();
        assert_eq!(g.refuted.len(), 1);
        let refuted = g.refuted.iter().next().unwrap().clone();
        assert_ne!(refuted, vec![c("b")]);
        assert_eq!(g.verdict(&refuted), Verdict::False);
        assert_eq!(g.undetermined, Answers::from([vec![c("b")]]));
        assert!(g.verdict(&[c("b")]).is_unknown());
        // Unseen tuples already failed a fully-evaluated rep: False.
        assert_eq!(g.verdict(&[Value::konst("zzz")]), Verdict::False);
    }

    #[test]
    fn emptied_box_intersection_exits_early_and_complete() {
        let d = free_setting();
        // Every rep answers with its own valuation of `_1`, so the second
        // rep already empties ⋂: the run stops there with a *complete* ∅
        // instead of ticking through the rest of the valuation space.
        let t = parse_instance("F(a,_1).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        // Twenty extra constants give every range of a two-wide split at
        // least two valuations, so each range can empty on its own.
        let extra = (0..20).map(|i| Symbol::intern(&format!("k{i}")));
        let pool = answer_pool(&t, &q, extra);
        let space = pool.len() as u64;
        let lim = ModalLimits::default();
        for exec in [Pool::seq(), Pool::new(2).with_threshold_ns(0)] {
            let gov = Governor::unlimited();
            let g = certain_answers(&d, &q, &t, &pool, &lim, &gov, &exec)
                .unwrap()
                .unwrap();
            g.validate().unwrap();
            assert!(g.is_complete());
            assert!(g.proven.is_empty());
            assert!(gov.ticks() < space, "{} ticks", gov.ticks());
            // The same holds with a budget that would trip later on.
            let gov = Governor::unlimited().with_fuel(space);
            let g = certain_answers(&d, &q, &t, &pool, &lim, &gov, &exec)
                .unwrap()
                .unwrap();
            assert!(g.is_complete() && g.proven.is_empty());
        }
    }

    #[test]
    fn interrupted_diamond_keeps_found_true_and_rest_unknown() {
        let d = free_setting();
        let t = parse_instance("F(a,_1).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, [Symbol::intern("b")]);
        // Fuel 2: exactly one rep is evaluated before the trip.
        let gov = Governor::unlimited().with_fuel(2);
        let lim = ModalLimits::default();
        let g = maybe_answers(&d, &q, &t, &pool, &lim, &gov, &Pool::seq()).unwrap();
        assert!(!g.is_complete());
        assert_eq!(g.proven.len(), 1, "one rep explored before the trip");
        let found = g.proven.iter().next().unwrap().clone();
        assert_eq!(g.verdict(&found), Verdict::True);
        // Any other tuple might appear in an unexplored rep.
        assert!(g.verdict(&[Value::konst("zzz")]).is_unknown());
    }

    /// □/◇ over chunked valuation ranges agree with the sequential
    /// reference at every thread count, including the early-exit path
    /// (□ hitting an empty intersection).
    #[test]
    fn parallel_modal_answers_match_sequential() {
        let keyed = keyed_setting();
        let free = free_setting();
        let cases = [
            (&keyed, "F(a,_1). F(a,_2).", "Q(x) :- F(a,x)"),
            (&keyed, "F(a,_1). F(a,_2).", "Q() :- F(a,x), F(a,y), x != y"),
            (&free, "F(a,_1). G(_1,_2).", "Q(x) :- F(a,x)"),
            // Empty certain set exercises the cancel-token early exit.
            (&free, "F(a,_1). F(b,_2).", "Q(x) :- F(x,y), F(x,z), y != z"),
        ];
        let lim = ModalLimits::default();
        for (d, inst, query) in cases {
            let t = parse_instance(inst).unwrap();
            let q = parse_query(query).unwrap();
            let pool = answer_pool(&t, &q, [Symbol::intern("b")]);
            let certain_seq = box_q(d, &q, &t, &pool).unwrap();
            let maybe_seq = diamond_q(d, &q, &t, &pool);
            for threads in [2usize, 4, 8] {
                let exec = Pool::new(threads).with_threshold_ns(0);
                let gov = Governor::unlimited();
                let certain = certain_answers(d, &q, &t, &pool, &lim, &gov, &exec).unwrap();
                assert_eq!(
                    certain.map(|g| g.proven),
                    certain_seq,
                    "□ {query} at {threads} threads"
                );
                let maybe = maybe_answers(d, &q, &t, &pool, &lim, &gov, &exec).unwrap();
                assert_eq!(maybe.proven, maybe_seq, "◇ {query} at {threads} threads");
            }
        }
    }

    /// Parallel □/◇ with a tripping governor: every definite verdict
    /// stays sound and the interrupt reason matches.
    #[test]
    fn tripped_parallel_modal_stays_sound() {
        let d = keyed_setting();
        let t = parse_instance("F(a,_1). F(a,_2).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        let lim = ModalLimits::default();
        let truth_certain = box_q(&d, &q, &t, &pool).unwrap().unwrap();
        let truth_maybe = diamond_q(&d, &q, &t, &pool);
        for threads in [1usize, 2, 8] {
            let exec = Pool::new(threads).with_threshold_ns(0);
            for fuel in [1u64, 2, 5, 13] {
                let gov = Governor::unlimited().with_fuel(fuel);
                let g = certain_answers(&d, &q, &t, &pool, &lim, &gov, &exec)
                    .unwrap()
                    .unwrap();
                g.validate().unwrap();
                for tuple in &g.proven {
                    assert!(truth_certain.contains(tuple));
                }
                for tuple in &g.refuted {
                    assert!(!truth_certain.contains(tuple), "bogus refute {tuple:?}");
                }
                if let Some(i) = g.interrupt {
                    assert_eq!(i.reason, InterruptReason::Fuel);
                }
                let gov = Governor::unlimited().with_fuel(fuel);
                let g = maybe_answers(&d, &q, &t, &pool, &lim, &gov, &exec).unwrap();
                g.validate().unwrap();
                for tuple in &g.proven {
                    assert!(truth_maybe.contains(tuple));
                }
            }
        }
    }

    const FUEL: Interrupt = Interrupt {
        reason: InterruptReason::Fuel,
        progress: Progress {
            ticks: 0,
            checks: 0,
        },
    };

    /// A hand-built factor: tuple `t` has verdict `v`, every other tuple
    /// the default `d`; an `Unknown` comes with a fuel interrupt.
    fn factor(v: Verdict, d: Verdict) -> GovernedAnswers {
        let mut g = GovernedAnswers::complete(Answers::new());
        g.default = d;
        g.interrupt = (v.is_unknown() || d.is_unknown()).then_some(FUEL);
        let t = Answers::from([vec![c("t")]]);
        match v {
            Verdict::True => g.proven = t,
            Verdict::False => g.refuted = t,
            Verdict::Unknown(_) => g.undetermined = t,
        }
        g
    }

    /// The verdicts of `t` and of a tuple no factor names, as letters.
    fn letters(g: &GovernedAnswers) -> String {
        [g.verdict(&[c("t")]), g.verdict(&[c("unnamed")])]
            .iter()
            .map(|v| match v {
                Verdict::True => 'T',
                Verdict::False => 'F',
                Verdict::Unknown(_) => 'U',
            })
            .collect()
    }

    #[test]
    fn meet_and_join_follow_kleene_per_tuple_and_default() {
        let all = [
            Verdict::True,
            Verdict::False,
            Verdict::Unknown(InterruptReason::Fuel),
        ];
        // Kleene's ∧ and ∨, rows and columns in `all`'s order T, F, U.
        let and = ["TFU", "FFF", "UFU"];
        let or = ["TTT", "TFU", "TUU"];
        let cell = |table: [&str; 3], i: usize, j: usize| table[i].as_bytes()[j] as char;
        for (i1, &v1) in all.iter().enumerate() {
            for (j1, &d1) in all.iter().enumerate() {
                for (i2, &v2) in all.iter().enumerate() {
                    for (j2, &d2) in all.iter().enumerate() {
                        let (a, b) = (factor(v1, d1), factor(v2, d2));
                        let at = format!("t: {v1} · {v2}, default: {d1} · {d2}");
                        for (table, ab, ba) in [
                            (and, a.clone().meet(b.clone()), b.clone().meet(a.clone())),
                            (or, a.clone().join(b.clone()), b.clone().join(a.clone())),
                        ] {
                            let want =
                                String::from_iter([cell(table, i1, i2), cell(table, j1, j2)]);
                            assert_eq!(letters(&ab), want, "{at}");
                            assert_eq!(letters(&ba), want, "commuted: {at}");
                            // Complete exactly when no `Unknown` is left.
                            assert_eq!(ab.is_complete(), !want.contains('U'), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn identities_and_the_unknown_remainder() {
        let mut partial = factor(Verdict::True, Verdict::False);
        partial.refuted = Answers::from([vec![c("r")]]);
        partial.undetermined = Answers::from([vec![c("u")]]);
        partial.interrupt = Some(FUEL);
        let empty = GovernedAnswers::complete(Answers::new());
        for x in [
            factor(Verdict::True, Verdict::False),
            partial,
            GovernedAnswers::unknown(FUEL),
        ] {
            assert_eq!(GovernedAnswers::everything().meet(x.clone()), x);
            assert_eq!(x.clone().meet(GovernedAnswers::everything()), x);
            for y in [empty.clone().join(x.clone()), x.clone().join(empty.clone())] {
                for t in ["t", "r", "u", "zzz"] {
                    assert_eq!(y.verdict(&[c(t)]), x.verdict(&[c(t)]), "{x:?}");
                }
            }
        }
        // Meeting the remainder unsettles what a factor proved and keeps
        // its `False` default: a finite upper bound. Joining it keeps
        // what the factor proved and unsettles everything else.
        let g = factor(Verdict::True, Verdict::False).meet(GovernedAnswers::unknown(FUEL));
        g.validate().unwrap();
        assert_eq!((letters(&g), g.interrupt), ("UF".into(), Some(FUEL)));
        assert_eq!(g.upper_bound(), Some(Answers::from([vec![c("t")]])));
        let g = factor(Verdict::True, Verdict::False).join(GovernedAnswers::unknown(FUEL));
        g.validate().unwrap();
        assert_eq!((letters(&g), g.upper_bound()), ("TU".into(), None));
    }

    #[test]
    fn an_emptied_meet_is_complete() {
        let empty = GovernedAnswers::complete(Answers::new());
        let g = empty.meet(GovernedAnswers::unknown(FUEL));
        g.validate().unwrap();
        assert!(g.is_complete() && g.proven.is_empty());
        // Disjoint survivors of a complete and an interrupted factor
        // empty the ⋂; overlapping ones leave it interrupted.
        let cut = factor(Verdict::Unknown(InterruptReason::Fuel), Verdict::False);
        let other = GovernedAnswers::complete(Answers::from([vec![c("other")]]));
        let g = other.meet(cut.clone());
        g.validate().unwrap();
        assert!(g.is_complete() && g.proven.is_empty());
        let g = factor(Verdict::True, Verdict::False).meet(cut);
        assert_eq!((letters(&g), g.is_complete()), ("UF".into(), false));
    }

    #[test]
    fn complete_factors_meet_and_join_as_plain_sets() {
        let set = |ts: &[&str]| -> Answers { ts.iter().map(|t| vec![c(t)]).collect() };
        let a = GovernedAnswers::complete(set(&["a", "b"]));
        let b = GovernedAnswers::complete(set(&["b", "c"]));
        let meet = a.clone().meet(b.clone());
        assert_eq!((meet.proven, meet.refuted), (set(&["b"]), set(&["a"])));
        assert!(meet.interrupt.is_none());
        assert_eq!(a.join(b), GovernedAnswers::complete(set(&["a", "b", "c"])));
    }

    #[test]
    fn ground_instance_has_single_rep() {
        let d = free_setting();
        let t = parse_instance("F(a,b).").unwrap();
        let q = parse_query("Q(x) :- F(a,x)").unwrap();
        let pool = answer_pool(&t, &q, []);
        let certain = box_q(&d, &q, &t, &pool).unwrap().unwrap();
        let maybe = diamond_q(&d, &q, &t, &pool);
        assert_eq!(certain, maybe);
        assert_eq!(certain, Answers::from([vec![c("b")]]));
    }
}
