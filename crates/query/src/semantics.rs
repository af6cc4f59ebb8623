//! The four CWA query-answering semantics of Section 7.1:
//!
//! - `certain⇓(Q,S)  = ⋂_T □Q(T)` — certain answers,
//! - `certain⇑(Q,S) = ⋃_T □Q(T)` — potential certain answers,
//! - `maybe⇓(Q,S)   = ⋂_T ◇Q(T)` — persistent maybe answers,
//! - `maybe⇑(Q,S)   = ⋃_T ◇Q(T)` — maybe answers,
//!
//! where `T` ranges over the CWA-solutions for `S`. Theorem 7.1 collapses
//! the ⋃□ / ⋂◇ pair onto the core (`certain⇑ = □Q(Core)`, `maybe⇓ =
//! ◇Q(Core)`) and — for Proposition 5.4's restricted classes — the ⋂□ /
//! ⋃◇ pair onto `CanSol`. Lemma 7.7 gives the polynomial path for plain
//! UCQs: `certain⇓ = certain⇑ = Q(T)↓` on any CWA-solution `T`.
//!
//! When no fast path applies, the engine falls back to enumerating the
//! CWA-solutions (Example 5.3 shows there can be exponentially many).

use crate::eval::Answers;
use crate::modal::{
    answer_pool, certain_answers, maybe_answers, ucq_certain_answers, GovernedAnswers, ModalError,
    ModalLimits,
};
use crate::possible::cq_is_maybe_answer;
use crate::propagate::{certain_answers_propagated, maybe_answers_propagated, PropagationReport};
use dex_chase::{ChaseBudget, ChaseError, ChaseSuccess};
use dex_core::govern::{Governor, Verdict};
use dex_core::{Instance, Value};
use dex_cwa::{cansol, cansol_class, CanSolClass, EnumLimits};
use dex_logic::{Query, Setting};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::fmt;

/// Which of the four semantics to compute.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// `certain⇓`: true in every representative of every CWA-solution.
    Certain,
    /// `certain⇑`: certain in at least one CWA-solution.
    PotentialCertain,
    /// `maybe⇓`: possible in every CWA-solution.
    PersistentMaybe,
    /// `maybe⇑`: possible in at least one CWA-solution.
    Maybe,
}

/// Which `□Q(T)` / `◇Q(T)` evaluator the engine uses.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum EvalEngine {
    /// Constraint propagation over the null-labeled instance
    /// ([`crate::propagate`]), falling back to the oracle above its
    /// width cutoff. Answer-identical to the oracle on every input it
    /// handles, exponentially cheaper on constrained instances.
    #[default]
    Propagate,
    /// The brute-force `|pool|^|nulls|` valuation oracle of
    /// [`crate::modal`] (Proposition 7.4 taken literally). Kept as the
    /// differential-testing baseline.
    Oracle,
}

/// Configuration for the answer engine.
#[derive(Clone, Debug)]
pub struct AnswerConfig {
    pub chase_budget: ChaseBudget,
    pub modal_limits: ModalLimits,
    /// Limits for the CWA-solution enumeration fallback.
    pub enum_limits: EnumLimits,
    /// Worker pool for the valuation sweeps (□/◇ over `Rep_D(T)`) and
    /// the enumeration fallback. Sequential by default; any thread count
    /// yields the same answers.
    pub pool: dex_core::Pool,
    /// Modal evaluator: constraint propagation (default) or the
    /// brute-force oracle.
    pub engine: EvalEngine,
}

impl Default for AnswerConfig {
    fn default() -> AnswerConfig {
        AnswerConfig {
            chase_budget: ChaseBudget::default(),
            modal_limits: ModalLimits::default(),
            enum_limits: EnumLimits::default(),
            pool: dex_core::Pool::seq(),
            engine: EvalEngine::default(),
        }
    }
}

/// Errors from the answer engine.
#[derive(Clone, Debug)]
pub enum AnswerError {
    /// The chase failed or exceeded budget.
    Chase(ChaseError),
    /// A valuation enumeration exceeded its limit.
    Modal(ModalError),
    /// No CWA-solution exists for the source (the semantics are undefined).
    NoSolutions,
    /// The CWA-solution enumeration fallback was incomplete: truncated by
    /// its limits, or with replays that ran out of their chase budget.
    EnumerationTruncated,
    /// `Rep_D(T)` was empty for a solution (cannot happen for actual
    /// solutions; defensive).
    EmptyRep,
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::Chase(e) => write!(f, "chase error: {e}"),
            AnswerError::Modal(e) => write!(f, "modal error: {e}"),
            AnswerError::NoSolutions => write!(f, "no CWA-solution exists"),
            AnswerError::EnumerationTruncated => {
                write!(f, "CWA-solution enumeration exceeded its limits")
            }
            AnswerError::EmptyRep => write!(f, "Rep_D(T) was empty"),
        }
    }
}

impl std::error::Error for AnswerError {}

/// A chase (or `CanSol` build) that hits an egd conflict proves that no
/// solution exists; any other chase failure stays a chase error.
fn no_solutions_on_conflict(e: ChaseError) -> AnswerError {
    match e {
        ChaseError::EgdConflict { .. } => AnswerError::NoSolutions,
        e => AnswerError::Chase(e),
    }
}

impl From<ChaseError> for AnswerError {
    fn from(e: ChaseError) -> AnswerError {
        AnswerError::Chase(e)
    }
}

impl From<ModalError> for AnswerError {
    fn from(e: ModalError) -> AnswerError {
        AnswerError::Modal(e)
    }
}

/// The query answering engine for a fixed setting and source instance.
/// Caches the core solution across queries, and `CanSol` (when the
/// setting class admits one) from the first query that needs it.
pub struct AnswerEngine<'a> {
    setting: &'a Setting,
    /// Borrowed from the caller, or owned when the engine outlives the
    /// caller's copy (the XR engine keeps one engine per repair).
    source: Cow<'a, Instance>,
    config: AnswerConfig,
    core: Instance,
    /// `CanSol_D(S)` (`None` outside Proposition 5.4's classes), built
    /// on the first □/◇ evaluation that needs it: `Maybe`, or `Certain`
    /// on a query off the Lemma 7.7 UCQ path. `Certain` UCQ reads never
    /// pay for it.
    cansol: OnceCell<Option<Instance>>,
    /// What propagation did on the most recent modal evaluation, for
    /// observability (the CLI prints it). `None` until the propagation
    /// engine has run once.
    last_report: RefCell<Option<PropagationReport>>,
}

impl<'a> AnswerEngine<'a> {
    /// Builds the engine: runs the chase, then [`Self::from_chase`].
    pub fn new(
        setting: &'a Setting,
        source: &'a Instance,
        config: AnswerConfig,
    ) -> Result<AnswerEngine<'a>, AnswerError> {
        let chased = dex_chase::chase(setting, source, &config.chase_budget)
            .map_err(no_solutions_on_conflict)?;
        Ok(AnswerEngine::from_chase(
            setting,
            Cow::Borrowed(source),
            &chased,
            config,
        ))
    }

    /// Builds the engine from a chase of `source` that has already run:
    /// its target is a universal solution, whose core is Theorem 5.1's
    /// minimal CWA-solution. Chases nothing; `CanSol` waits for the first
    /// query that needs it.
    pub fn from_chase(
        setting: &'a Setting,
        source: Cow<'a, Instance>,
        chased: &ChaseSuccess,
        config: AnswerConfig,
    ) -> AnswerEngine<'a> {
        AnswerEngine {
            setting,
            source,
            config,
            core: dex_core::core(&chased.target),
            cansol: OnceCell::new(),
            last_report: RefCell::new(None),
        }
    }

    /// The minimal CWA-solution (the core of the universal solutions).
    pub fn core(&self) -> &Instance {
        &self.core
    }

    /// `CanSol_D(S)` when the setting is in Proposition 5.4's classes,
    /// `None` otherwise. Built on first use; a build that finds no
    /// solution or exceeds the chase budget is an error, and the next
    /// call tries again.
    pub fn cansol(&self) -> Result<Option<&Instance>, AnswerError> {
        self.cansol_traced(&Governor::unlimited())
    }

    /// [`Self::cansol`], with the build (when it runs) in a `cansol` span
    /// on `gov`'s tracer, stamped from `gov`'s clock.
    fn cansol_traced(&self, gov: &Governor) -> Result<Option<&Instance>, AnswerError> {
        if let Some(built) = self.cansol.get() {
            return Ok(built.as_ref());
        }
        let built = if cansol_class(self.setting) == CanSolClass::NotGuaranteed {
            None
        } else {
            let now = || gov.clock().now_ns();
            let span = gov.tracer().span("cansol", now());
            let built = cansol(self.setting, &self.source, &self.config.chase_budget);
            span.close(now());
            built.map_err(no_solutions_on_conflict)?
        };
        Ok(self.cansol.get_or_init(|| built).as_ref())
    }

    /// The [`PropagationReport`] of the most recent modal evaluation,
    /// when the propagation engine ran (it does not under
    /// [`EvalEngine::Oracle`] or the polynomial fast paths).
    pub fn last_propagation(&self) -> Option<PropagationReport> {
        self.last_report.borrow().clone()
    }

    /// Refreshes the engine after an incremental
    /// [`dex_chase::ChaseEngine::resume`], instead of rebuilding it
    /// (which re-chases from scratch): [`Self::from_chase`] on the
    /// resumed chase and the updated source. The core is recomputed from
    /// the resumed target, the cached `CanSol` and propagation report are
    /// dropped, and `CanSol` is rebuilt only if a later query needs it.
    /// Nothing here can fail; a `CanSol` build error surfaces at that
    /// query.
    pub fn refresh_from_resume(
        &mut self,
        resumed: &ChaseSuccess,
        source: &'a Instance,
    ) -> Result<(), AnswerError> {
        let config = std::mem::take(&mut self.config);
        *self = AnswerEngine::from_chase(self.setting, Cow::Borrowed(source), resumed, config);
        Ok(())
    }

    fn record(&self, report: PropagationReport) {
        *self.last_report.borrow_mut() = Some(report);
    }

    /// `□Q(T)` under `gov`, on the configured evaluator and pool.
    fn box_q(
        &self,
        q: &Query,
        t: &Instance,
        gov: &Governor,
    ) -> Result<GovernedAnswers, AnswerError> {
        let pool = answer_pool(t, q, self.source.constants());
        let (setting, limits, exec) = (self.setting, &self.config.modal_limits, &self.config.pool);
        let ans = match self.config.engine {
            EvalEngine::Propagate => {
                let (ans, report) =
                    certain_answers_propagated(setting, q, t, &pool, limits, gov, exec)?;
                self.record(report);
                ans
            }
            EvalEngine::Oracle => certain_answers(setting, q, t, &pool, limits, gov, exec)?,
        };
        ans.ok_or(AnswerError::EmptyRep)
    }

    /// `◇Q(T)` under `gov`, on the configured evaluator and pool.
    fn diamond_q(
        &self,
        q: &Query,
        t: &Instance,
        gov: &Governor,
    ) -> Result<GovernedAnswers, AnswerError> {
        let pool = answer_pool(t, q, self.source.constants());
        // Fast path: with no target dependencies `Rep(T)` is unconstrained,
        // so ◇-membership of each candidate tuple is decidable by the
        // unification search of [`crate::possible`] — `|pool|^arity`
        // membership tests instead of `|pool|^|nulls|` valuations.
        if self.setting.has_no_target_deps() {
            if let Some(disjuncts) = ucq_disjuncts(q) {
                let arity = q.arity();
                let total = (pool.len() as u128).saturating_pow(arity as u32);
                if total <= self.config.modal_limits.max_valuations {
                    // Tuple `n` of `pool^arity`, first position fastest.
                    let tuple_at = |mut n: u128| -> Vec<Value> {
                        (0..arity)
                            .map(|_| {
                                let digit = (n % pool.len() as u128) as usize;
                                n /= pool.len() as u128;
                                Value::Const(pool[digit])
                            })
                            .collect()
                    };
                    let mut out = Answers::new();
                    for n in 0..total {
                        if let Err(i) = gov.check() {
                            // The membership test is per tuple, so every
                            // tuple before `n` is decided; only unexamined
                            // ones are unknown.
                            let mut g = GovernedAnswers::unknown(i);
                            g.refuted = (0..n)
                                .map(tuple_at)
                                .filter(|tuple| !out.contains(tuple))
                                .collect();
                            g.proven = out;
                            return Ok(g);
                        }
                        let tuple = tuple_at(n);
                        if disjuncts.iter().any(|cq| cq_is_maybe_answer(cq, t, &tuple)) {
                            out.insert(tuple);
                        }
                    }
                    return Ok(GovernedAnswers::complete(out));
                }
            }
        }
        let (setting, limits, exec) = (self.setting, &self.config.modal_limits, &self.config.pool);
        Ok(match self.config.engine {
            EvalEngine::Propagate => {
                let (ans, report) =
                    maybe_answers_propagated(setting, q, t, &pool, limits, gov, exec)?;
                self.record(report);
                ans
            }
            EvalEngine::Oracle => maybe_answers(setting, q, t, &pool, limits, gov, exec)?,
        })
    }

    /// All CWA-solutions, for the brute-force fallback, enumerated under
    /// `gov` on the configured pool. An interrupted enumeration gives the
    /// governed partial answer (`Ok(Err(..))`): nothing proven, nothing
    /// refuted, every tuple unknown. An enumeration that is otherwise
    /// incomplete — truncated, or with a replay out of budget — is an
    /// error, and only a complete one that finds nothing proves that no
    /// solution exists.
    fn all_solutions(
        &self,
        gov: &Governor,
    ) -> Result<Result<Vec<Instance>, GovernedAnswers>, AnswerError> {
        let (sols, stats) = dex_cwa::enumerate_cwa_solutions(
            self.setting,
            &self.source,
            &self.config.enum_limits,
            gov,
            &self.config.pool,
        );
        if let Some(i) = stats.interrupted {
            return Ok(Err(GovernedAnswers::unknown(i)));
        }
        if !stats.is_complete() {
            return Err(AnswerError::EnumerationTruncated);
        }
        if sols.is_empty() {
            return Err(AnswerError::NoSolutions);
        }
        Ok(Ok(sols))
    }

    /// Computes the answers under the chosen semantics: the `proven` set
    /// of [`Self::answers_governed`] under [`Governor::unlimited`]. To
    /// trace the propagation stages, call `answers_governed` with a
    /// governor that carries a tracer.
    pub fn answers(&self, q: &Query, semantics: Semantics) -> Result<Answers, AnswerError> {
        Ok(self
            .answers_governed(q, semantics, &Governor::unlimited())?
            .proven)
    }

    /// Boolean-query convenience: is the empty tuple an answer?
    pub fn holds(&self, q: &Query, semantics: Semantics) -> Result<bool, AnswerError> {
        Ok(self.answers(q, semantics)?.contains(&Vec::new()))
    }

    /// [`Self::answers`] under a [`Governor`]: instead of running the
    /// (co-NP/NP-hard) evaluation to completion or erroring, degrades
    /// gracefully to three-valued per-tuple [`Verdict`]s. Tuples whose
    /// status was settled before the governor tripped keep their definite
    /// `True`/`False`; the rest are `Unknown` with the trip reason. The
    /// propagation pipeline's per-stage spans (merge_fixpoint,
    /// inert_elim, admissible_sets, forced_diseqs, residual_enum) go to
    /// `gov`'s tracer, stamped from `gov`'s clock.
    pub fn answers_governed(
        &self,
        q: &Query,
        semantics: Semantics,
        gov: &Governor,
    ) -> Result<GovernedAnswers, AnswerError> {
        let g = self.answers_governed_impl(q, semantics, gov)?;
        // Debug-mode audit of every answer the engine hands out.
        debug_assert!(g.validate().is_ok(), "inconsistent: {:?}", g.validate());
        Ok(g)
    }

    fn answers_governed_impl(
        &self,
        q: &Query,
        semantics: Semantics,
        gov: &Governor,
    ) -> Result<GovernedAnswers, AnswerError> {
        match semantics {
            // Theorem 7.1: certain⇑ = □Q(Core), maybe⇓ = ◇Q(Core).
            Semantics::PotentialCertain => {
                if q.is_head_safe_ucq() {
                    // Lemma 7.7 (generalized to head-safe inequalities):
                    // equal to Q(Core)↓ — polynomial, so it always runs
                    // to completion.
                    Ok(GovernedAnswers::complete(ucq_certain_answers(
                        q, &self.core,
                    )))
                } else {
                    self.box_q(q, &self.core, gov)
                }
            }
            Semantics::PersistentMaybe => self.diamond_q(q, &self.core, gov),
            Semantics::Certain => {
                if q.is_head_safe_ucq() {
                    // Lemma 7.7 (generalized): certain⇓ = certain⇑ =
                    // Q(T)↓ on any CWA-solution; use the core.
                    return Ok(GovernedAnswers::complete(ucq_certain_answers(
                        q, &self.core,
                    )));
                }
                if let Some(can) = self.cansol_traced(gov)? {
                    // Theorem 7.1's restricted classes: certain⇓ = □Q(CanSol).
                    return self.box_q(q, can, gov);
                }
                // Brute force: certain⇓ is the ⋂ of □Q(T) over all
                // CWA-solutions T.
                match self.all_solutions(gov)? {
                    Ok(sols) => GovernedAnswers::meet_all(&sols, |t| self.box_q(q, t, gov)),
                    Err(partial) => Ok(partial),
                }
            }
            Semantics::Maybe => {
                if let Some(can) = self.cansol_traced(gov)? {
                    // Theorem 7.1's restricted classes: maybe⇑ = ◇Q(CanSol).
                    return self.diamond_q(q, can, gov);
                }
                // Brute force: maybe⇑ is the ∪ of ◇Q(T) over all
                // CWA-solutions T.
                match self.all_solutions(gov)? {
                    Ok(sols) => GovernedAnswers::join_all(&sols, |t| self.diamond_q(q, t, gov)),
                    Err(partial) => Ok(partial),
                }
            }
        }
    }

    /// The three-valued verdict for a single tuple under `semantics`.
    pub fn verdict(
        &self,
        q: &Query,
        tuple: &[Value],
        semantics: Semantics,
        gov: &Governor,
    ) -> Result<Verdict, AnswerError> {
        Ok(self.answers_governed(q, semantics, gov)?.verdict(tuple))
    }
}

/// The conjunctive disjuncts of a query, when it is a (U)CQ.
fn ucq_disjuncts(q: &Query) -> Option<Vec<&dex_logic::ConjunctiveQuery>> {
    match q {
        Query::Cq(cq) => Some(vec![cq]),
        Query::Ucq(u) => Some(u.disjuncts.iter().collect()),
        Query::Fo(_) => None,
    }
}

/// One-shot convenience wrapper around [`AnswerEngine`].
pub fn answers(
    setting: &Setting,
    source: &Instance,
    q: &Query,
    semantics: Semantics,
) -> Result<Answers, AnswerError> {
    AnswerEngine::new(setting, source, AnswerConfig::default())?.answers(q, semantics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::Value;
    use dex_logic::{parse_instance, parse_query, parse_setting};

    fn c(name: &str) -> Value {
        Value::konst(name)
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

    #[test]
    fn ucq_certain_answers_via_core() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
        let q = parse_query("Q(x,y) :- E(x,y)").unwrap();
        let ans = answers(&d, &s, &q, Semantics::Certain).unwrap();
        // Only E(a,b) is certain; the null successors are not.
        assert_eq!(ans, Answers::from([vec![c("a"), c("b")]]));
        // Boolean: "a has an F-successor with a G-successor" is certain.
        let qb = parse_query("Q() :- F(a,x), G(x,y)").unwrap();
        let ans = answers(&d, &s, &qb, Semantics::Certain).unwrap();
        assert_eq!(ans.len(), 1);
    }

    /// Corollary 7.2: certain⇓ ⊆ certain⇑ ⊆ maybe⇓ ⊆ maybe⇑.
    #[test]
    fn corollary_7_2_inclusion_chain() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        // A query with an inequality exercises all four paths
        // (non-UCQ ⇒ certain⇓ uses the brute-force fallback since this
        // setting is in no CanSol class).
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        let certain = engine.answers(&q, Semantics::Certain).unwrap();
        let pot = engine.answers(&q, Semantics::PotentialCertain).unwrap();
        let pers = engine.answers(&q, Semantics::PersistentMaybe).unwrap();
        let maybe = engine.answers(&q, Semantics::Maybe).unwrap();
        assert!(certain.is_subset(&pot), "{certain:?} ⊄ {pot:?}");
        assert!(pot.is_subset(&pers), "{pot:?} ⊄ {pers:?}");
        assert!(pers.is_subset(&maybe), "{pers:?} ⊄ {maybe:?}");
    }

    /// On a copying setting all four semantics coincide with evaluating
    /// the query on the copied instance (Section 7.1's sanity check: the
    /// anomalies disappear).
    #[test]
    fn copying_setting_collapses_all_semantics() {
        let d = parse_setting(
            "source { E/2, P/1 }
             target { Ep/2, Pp/1 }
             st {
               E(x,y) -> Ep(x,y);
               P(x) -> Pp(x);
             }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,a). P(a).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let q = parse_query("Q(x) := Pp(x) | exists y,z . (Pp(y) & Ep(y,z) & !Pp(z))").unwrap();
        let expected = Answers::from([vec![c("a")], vec![c("b")]]);
        for sem in [
            Semantics::Certain,
            Semantics::PotentialCertain,
            Semantics::PersistentMaybe,
            Semantics::Maybe,
        ] {
            assert_eq!(engine.answers(&q, sem).unwrap(), expected, "{sem:?}");
        }
    }

    /// FO queries over the core: the certain⇑/maybe⇓ pair (Theorem 7.1).
    #[test]
    fn fo_query_on_core_paths() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        // The core is {E(a,b), F(a,_1), G(_1,_2)} (the E-null folds onto
        // b). "x has an F-successor that is not b" — not certain (the
        // null might be valuated to b), but persistently possible.
        let q = parse_query("Q(x) := exists y . (F(x,y) & !(y = 'b'))").unwrap();
        let pot = engine.answers(&q, Semantics::PotentialCertain).unwrap();
        assert!(pot.is_empty());
        let pers = engine.answers(&q, Semantics::PersistentMaybe).unwrap();
        assert_eq!(pers, Answers::from([vec![c("a")]]));
    }

    #[test]
    fn no_solutions_is_reported() {
        let d = parse_setting(
            "source { Q/2 }
             target { F/2 }
             st { Q(x,y) -> F(x,y); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("Q(a,b). Q(a,c).").unwrap();
        let q = parse_query("Q() :- F(a,x)").unwrap();
        assert!(matches!(
            answers(&d, &s, &q, Semantics::Certain),
            Err(AnswerError::NoSolutions)
        ));
    }

    /// The ◇ fast path (unification) agrees with the valuation oracle on
    /// a setting without target dependencies.
    #[test]
    fn diamond_fast_path_matches_oracle() {
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }",
        )
        .unwrap();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        for qt in ["Q(x,y) :- E(x,y)", "Q(x) :- E(x,y), F(x,z), y != z"] {
            let q = parse_query(qt).unwrap();
            let fast = engine.answers(&q, Semantics::PersistentMaybe).unwrap();
            // Oracle on the same core instance.
            let pool = answer_pool(engine.core(), &q, s.constants());
            let oracle = maybe_answers(
                &d,
                &q,
                engine.core(),
                &pool,
                &ModalLimits::default(),
                &Governor::unlimited(),
                &dex_core::Pool::seq(),
            )
            .unwrap();
            assert_eq!(fast, oracle.proven, "query {qt}");
            // Interrupted: the tuples examined before the trip are
            // decided (proven or refuted, soundly), the rest unknown.
            for fuel in [1u64, 2, 5, 13] {
                let gov = Governor::unlimited().with_fuel(fuel);
                let g = engine
                    .answers_governed(&q, Semantics::PersistentMaybe, &gov)
                    .unwrap();
                g.validate().unwrap();
                assert!(g.proven.is_subset(&fast), "query {qt}, fuel {fuel}");
                assert!(g.refuted.is_disjoint(&fast), "query {qt}, fuel {fuel}");
                let decided = (g.proven.len() + g.refuted.len()) as u64;
                if g.is_complete() {
                    assert_eq!(g.proven, fast, "query {qt}, fuel {fuel}");
                } else {
                    assert_eq!(decided, fuel - 1, "query {qt}, fuel {fuel}");
                }
            }
        }
    }

    /// An unlimited governor must not change any of the four semantics.
    #[test]
    fn governed_answers_match_ungoverned_when_unlimited() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        // Non-UCQ so Certain/Maybe take the enumeration fold.
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for sem in [
            Semantics::Certain,
            Semantics::PotentialCertain,
            Semantics::PersistentMaybe,
            Semantics::Maybe,
        ] {
            let gov = Governor::unlimited();
            let g = engine.answers_governed(&q, sem, &gov).unwrap();
            assert!(g.is_complete(), "{sem:?}");
            assert_eq!(g.proven, engine.answers(&q, sem).unwrap(), "{sem:?}");
        }
    }

    /// An engine configured with a worker pool answers every semantics
    /// identically to the sequential default, governed or not.
    #[test]
    fn parallel_engine_matches_sequential_for_every_semantics() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let seq = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        // Non-UCQ so Certain/Maybe take the enumeration fold, which also
        // exercises the parallel enumerator inside `all_solutions`.
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for threads in [2usize, 8] {
            let cfg = AnswerConfig {
                pool: dex_core::Pool::new(threads),
                ..AnswerConfig::default()
            };
            let par = AnswerEngine::new(&d, &s, cfg).unwrap();
            for sem in [
                Semantics::Certain,
                Semantics::PotentialCertain,
                Semantics::PersistentMaybe,
                Semantics::Maybe,
            ] {
                assert_eq!(
                    par.answers(&q, sem).unwrap(),
                    seq.answers(&q, sem).unwrap(),
                    "{sem:?} at {threads} threads"
                );
                let gov = Governor::unlimited();
                let g = par.answers_governed(&q, sem, &gov).unwrap();
                assert!(g.is_complete(), "{sem:?} at {threads} threads");
                assert_eq!(g.proven, seq.answers(&q, sem).unwrap(), "{sem:?}");
            }
        }
    }

    /// A tripped governor may only degrade answers to `Unknown` — every
    /// definite verdict it does emit must agree with the ungoverned run.
    #[test]
    fn tripped_governor_is_sound_for_every_semantics() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for sem in [
            Semantics::Certain,
            Semantics::PotentialCertain,
            Semantics::PersistentMaybe,
            Semantics::Maybe,
        ] {
            let truth = engine.answers(&q, sem).unwrap();
            for fuel in [1u64, 2, 3, 5, 8, 13, 50] {
                let gov = Governor::unlimited().with_fuel(fuel);
                let g = engine.answers_governed(&q, sem, &gov).unwrap();
                for t in &g.proven {
                    assert!(truth.contains(t), "{sem:?} fuel {fuel}: bogus True {t:?}");
                }
                for t in &g.refuted {
                    assert!(!truth.contains(t), "{sem:?} fuel {fuel}: bogus False {t:?}");
                }
                if g.default == Verdict::False {
                    // Everything the run left implicit must really be out.
                    for t in &truth {
                        assert!(
                            g.proven.contains(t) || g.undetermined.contains(t),
                            "{sem:?} fuel {fuel}: {t:?} defaulted to False"
                        );
                    }
                }
            }
        }
    }

    /// The enumeration fallback never folds an incomplete enumeration:
    /// replays out of their chase budget leave solutions unfound, so
    /// the answer is `EnumerationTruncated` — neither a complete answer
    /// over the solutions found nor `NoSolutions`.
    #[test]
    fn unfinished_enumeration_is_never_complete_or_no_solutions() {
        let d = example_2_1();
        let s = parse_instance("N(a,b). N(a,c).").unwrap();
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for steps in [1, 2] {
            let cfg = AnswerConfig {
                enum_limits: EnumLimits {
                    chase_budget: ChaseBudget::new(steps, 8_000),
                    ..EnumLimits::default()
                },
                ..AnswerConfig::default()
            };
            let engine = AnswerEngine::new(&d, &s, cfg).unwrap();
            for sem in [Semantics::Certain, Semantics::Maybe] {
                let g = engine.answers_governed(&q, sem, &Governor::unlimited());
                let truncated = matches!(g, Err(AnswerError::EnumerationTruncated));
                assert!(truncated, "{sem:?} with {steps}-step replays: {g:?}");
            }
        }
    }

    /// The enumeration fallback runs under the answering governor: a
    /// pre-cancelled one yields the governed partial — nothing proven,
    /// nothing refuted, every tuple unknown.
    #[test]
    fn cancelled_governor_interrupts_the_enumeration_fallback() {
        use dex_core::govern::InterruptReason::Cancelled;
        use std::sync::{atomic::AtomicBool, Arc};
        let d = example_2_1();
        let s = parse_instance("N(a,b). N(a,c).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for sem in [Semantics::Certain, Semantics::Maybe] {
            let gov = Governor::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
            let g = engine.answers_governed(&q, sem, &gov).unwrap();
            assert!(g.proven.is_empty() && g.refuted.is_empty(), "{sem:?}");
            assert_eq!(g.default, Verdict::Unknown(Cancelled), "{sem:?}");
            assert_eq!(g.interrupt.unwrap().reason, Cancelled, "{sem:?}");
        }
    }

    /// Per-tuple three-valued verdicts through the engine.
    #[test]
    fn verdict_reports_unknown_with_trip_reason() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        let sem = Semantics::PersistentMaybe;
        let gov = Governor::unlimited();
        let v = engine.verdict(&q, &[c("a")], sem, &gov).unwrap();
        assert!(v.is_true(), "got {v:?}");
        let tripped = Governor::unlimited().with_fuel(1);
        let v = engine.verdict(&q, &[c("a")], sem, &tripped).unwrap();
        assert!(v.is_unknown(), "got {v:?}");
    }

    /// The two engines are answer-identical on every semantics, governed
    /// or not — the propagation analysis only ever excludes valuations
    /// provably outside `Rep_D(T)`.
    #[test]
    fn oracle_engine_matches_propagation_engine() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
        let prop = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let oracle_cfg = AnswerConfig {
            engine: EvalEngine::Oracle,
            ..AnswerConfig::default()
        };
        let oracle = AnswerEngine::new(&d, &s, oracle_cfg).unwrap();
        // An existential-inequality query stays off every fast path.
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for sem in [
            Semantics::Certain,
            Semantics::PotentialCertain,
            Semantics::PersistentMaybe,
            Semantics::Maybe,
        ] {
            assert_eq!(
                prop.answers(&q, sem).unwrap(),
                oracle.answers(&q, sem).unwrap(),
                "{sem:?}"
            );
            let gov = Governor::unlimited();
            let gp = prop.answers_governed(&q, sem, &gov).unwrap();
            let gov = Governor::unlimited();
            let go = oracle.answers_governed(&q, sem, &gov).unwrap();
            assert_eq!(gp.proven, go.proven, "{sem:?}");
        }
        // The propagation engine records its report; the oracle does not.
        assert!(prop.last_propagation().is_some());
        assert!(oracle.last_propagation().is_none());
    }

    /// Interrupted propagated runs expose sound/complete bound pairs
    /// around the exact answer at every fuel level.
    #[test]
    fn governed_bound_pairs_bracket_the_exact_answer() {
        let d = example_2_1();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        let q = parse_query("Q(x) :- E(x,y), F(x,z), y != z").unwrap();
        for sem in [
            Semantics::Certain,
            Semantics::PotentialCertain,
            Semantics::PersistentMaybe,
            Semantics::Maybe,
        ] {
            let exact = engine.answers(&q, sem).unwrap();
            for fuel in [1u64, 2, 5, 13, 50] {
                let gov = Governor::unlimited().with_fuel(fuel);
                let g = engine.answers_governed(&q, sem, &gov).unwrap();
                assert!(
                    g.lower_bound().is_subset(&exact),
                    "{sem:?} fuel {fuel}: lower ⊄ exact"
                );
                if let Some(upper) = g.upper_bound() {
                    assert!(
                        exact.is_subset(&upper),
                        "{sem:?} fuel {fuel}: exact ⊄ upper"
                    );
                }
                if !g.is_complete() {
                    assert!(g.is_refinable(), "{sem:?} fuel {fuel}");
                }
            }
        }
    }

    /// CanSol fast path: egds-only target class.
    #[test]
    fn cansol_path_for_egds_only_setting() {
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               d1: P(x) -> exists z . F(x,z);
               d2: Q(x,y) -> F(x,y);
             }
             t { key: F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,c).").unwrap();
        let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
        assert!(engine.cansol().unwrap().is_some());
        // The F-successor of a is certainly c (the egd forces the null).
        let q = parse_query("Q(x) :- F(a,x), x != 'zzz'").unwrap();
        let ans = engine.answers(&q, Semantics::Certain).unwrap();
        assert_eq!(ans, Answers::from([vec![c("c")]]));
        let maybe = engine.answers(&q, Semantics::Maybe).unwrap();
        assert_eq!(maybe, ans);
    }

    /// `refresh_from_resume` leaves the engine indistinguishable from
    /// one built fresh on the updated source — core and `CanSol` up to
    /// isomorphism, answers under every semantics — and drops the stale
    /// propagation report and `CanSol`. Example 2.1 has no `CanSol`; the
    /// egd-only setting builds one before the delta and after it.
    #[test]
    fn refresh_from_resume_matches_a_fresh_engine() {
        let cases = [
            (
                example_2_1(),
                "M(a,b). N(a,b). N(a,c).",
                ["M(c,d).", "N(a,c)."],
                "Q(x,y) :- E(x,y)",
            ),
            (
                keyed_egd_only(),
                "P(a). P(b). Q(a,c).",
                ["Q(b,d).", "P(a)."],
                "Q(x) :- F(x,y), y != 'zzz'",
            ),
        ];
        for (d, s, [inserted, deleted], q) in cases {
            let s = parse_instance(s).unwrap();
            let q = parse_query(q).unwrap();
            let budget = ChaseBudget::default();
            let chaser = dex_chase::ChaseEngine::new(&d, &budget).with_provenance(true);
            let prior = chaser.run(&s).unwrap();
            let mut engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
            engine.answers(&q, Semantics::Certain).unwrap();

            let mut delta = dex_core::SourceDelta::new();
            let atom = |text: &str| parse_instance(text).unwrap().sorted_atoms().pop().unwrap();
            delta.insert(atom(inserted));
            delta.delete(atom(deleted));
            let updated = delta.applied(&s);
            let resumed = chaser.resume(&prior, &delta).unwrap();
            engine.refresh_from_resume(&resumed, &updated).unwrap();
            assert!(engine.last_propagation().is_none());

            let fresh = AnswerEngine::new(&d, &updated, AnswerConfig::default()).unwrap();
            assert!(dex_core::isomorphic(engine.core(), fresh.core()));
            match (engine.cansol().unwrap(), fresh.cansol().unwrap()) {
                (Some(a), Some(b)) => assert!(dex_core::isomorphic(a, b), "{q}"),
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "{q}"),
            }
            for sem in [
                Semantics::Certain,
                Semantics::PotentialCertain,
                Semantics::PersistentMaybe,
                Semantics::Maybe,
            ] {
                assert_eq!(
                    engine.answers(&q, sem).unwrap(),
                    fresh.answers(&q, sem).unwrap(),
                    "{q} {sem:?}"
                );
            }
        }
    }

    /// An egd-only setting (Proposition 5.4's first class) with a key on
    /// `F`.
    fn keyed_egd_only() -> Setting {
        parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               d1: P(x) -> exists z . F(x,z);
               d2: Q(x,y) -> F(x,y);
             }
             t { key: F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap()
    }

    /// `CanSol` is built lazily, once per engine state: UCQs never build
    /// it, the first non-UCQ `Certain` query builds it inside one
    /// `cansol` span on the governor's tracer and clock, later queries
    /// reuse it, and `refresh_from_resume` drops it.
    #[test]
    fn cansol_is_built_once_by_the_first_query_that_needs_it() {
        use dex_core::govern::Clock;
        use dex_obs::{Collector, EventKind, RingRecorder, Tracer};
        use std::sync::Arc;
        let d = keyed_egd_only();
        let s = parse_instance("P(a). P(b). Q(a,c).").unwrap();
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let (clock, mock) = Clock::mock();
        mock.set_ns(4_000);
        let gov = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
        let cansol_spans = || {
            ring.events()
                .into_iter()
                .filter(|e| matches!(&e.kind, EventKind::SpanOpened { name } if name == "cansol"))
                .map(|e| e.at_ns)
                .collect::<Vec<u64>>()
        };
        let budget = ChaseBudget::default();
        let chaser = dex_chase::ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = chaser.run(&s).unwrap();
        let mut engine =
            AnswerEngine::from_chase(&d, Cow::Borrowed(&s), &prior, AnswerConfig::default());
        let ucqs = [
            "Q(x,y) :- F(x,y)",
            "Q(x) :- F(x,y), F(y,z)",
            "Q() :- F(a,c)",
        ];
        for text in ucqs {
            let q = parse_query(text).unwrap();
            for sem in [Semantics::Certain, Semantics::PotentialCertain] {
                engine.answers_governed(&q, sem, &gov).unwrap();
            }
        }
        assert!(cansol_spans().is_empty(), "a UCQ built CanSol");
        // The inequality names a non-head variable: off the UCQ path.
        let non_ucq = parse_query("Q(x) :- F(x,y), y != 'zzz'").unwrap();
        for _ in 0..2 {
            let g = engine
                .answers_governed(&non_ucq, Semantics::Certain, &gov)
                .unwrap();
            assert_eq!(g.proven, Answers::from([vec![c("a")]]));
        }
        assert_eq!(cansol_spans(), vec![4_000]);

        let mut delta = dex_core::SourceDelta::new();
        delta.insert(
            parse_instance("P(e).")
                .unwrap()
                .sorted_atoms()
                .pop()
                .unwrap(),
        );
        let updated = delta.applied(&s);
        let resumed = chaser.resume(&prior, &delta).unwrap();
        engine.refresh_from_resume(&resumed, &updated).unwrap();
        assert_eq!(cansol_spans().len(), 1, "refresh built CanSol eagerly");
        engine
            .answers_governed(&non_ucq, Semantics::Certain, &gov)
            .unwrap();
        assert_eq!(cansol_spans().len(), 2, "refresh kept a stale CanSol");
    }

    /// A `CanSol` that exceeds the chase budget where the restricted
    /// chase does not: the engine still builds, UCQs answer from the
    /// core, and only the query that needs `CanSol` fails.
    #[test]
    fn cansol_over_budget_fails_only_the_query_that_needs_it() {
        // Every P-atom justifies `∃y T(y)`: the restricted chase fires
        // once, CanSol fires ten times and needs nine merges.
        let d = parse_setting(
            "source { P/1 }
             target { T/1 }
             st { P(x) -> exists y . T(y); }
             t { T(x) & T(y) -> x = y; }",
        )
        .unwrap();
        let s =
            parse_instance("P(a0). P(a1). P(a2). P(a3). P(a4). P(a5). P(a6). P(a7). P(a8). P(a9).")
                .unwrap();
        let config = AnswerConfig {
            chase_budget: ChaseBudget::new(3, 1_000),
            ..AnswerConfig::default()
        };
        let engine = AnswerEngine::new(&d, &s, config).unwrap();
        let ucq = parse_query("Q() :- T(y)").unwrap();
        assert!(engine.holds(&ucq, Semantics::Certain).unwrap());
        let non_ucq = parse_query("Q() := exists y . (T(y) & !(y = 'a0'))").unwrap();
        assert!(matches!(
            engine.answers(&non_ucq, Semantics::Certain),
            Err(AnswerError::Chase(ChaseError::BudgetExceeded { .. }))
        ));
        assert!(matches!(
            engine.cansol(),
            Err(AnswerError::Chase(ChaseError::BudgetExceeded { .. }))
        ));
    }
}
