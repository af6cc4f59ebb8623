//! XR-certain answers: the fifth answering mode next to the four CWA
//! semantics. A tuple is XR-certain iff it is a certain answer over
//! *every* ⊆-maximal repair of the source — the exchange-repair
//! certain answers of ten Cate/Halpert/Kolaitis, computed by
//! intersecting [`Semantics::Certain`] across the repairs that
//! [`RepairEngine`] enumerates. For a consistent source the single
//! repair is the source itself, so XR-certain coincides with plain
//! certain answers — the mode strictly generalises, never disagrees.

use crate::engine::{RepairEngine, RepairOutcome};
use dex_core::govern::{Governor, Interrupt, InterruptReason, Progress};
use dex_core::Instance;
use dex_logic::{Query, Setting};
use dex_obs::JsonValue;
use dex_query::{AnswerConfig, AnswerEngine, AnswerError, Answers, GovernedAnswers, Semantics};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::fmt;

/// Errors from XR-certain answering.
#[derive(Clone, Debug)]
pub enum XrError {
    /// A per-repair evaluation failed. Cannot be `NoSolutions` for an
    /// actual repair (its chase succeeded); anything else propagates.
    Answer(AnswerError),
    /// The repair search was interrupted before finding any repair, so
    /// there is nothing to intersect over.
    NoRepairs(Option<Interrupt>),
    /// The repair search returned a set violating its own invariants
    /// (an engine bug): intersecting over it would be unsound.
    Corrupt(String),
    /// Exact XR-certain answers were requested over an incomplete
    /// repair set — the intersection is only an upper bound there.
    /// Use [`XrEngine::certain_governed`], which reports the partial
    /// case soundly.
    IncompleteRepairs(Option<Interrupt>),
}

impl fmt::Display for XrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrError::Answer(e) => write!(f, "repair answering: {e}"),
            XrError::NoRepairs(Some(i)) => {
                write!(f, "repair search interrupted before any repair: {i}")
            }
            XrError::NoRepairs(None) => write!(f, "no repairs found"),
            XrError::Corrupt(msg) => {
                write!(f, "repair search produced an invalid repair set: {msg}")
            }
            XrError::IncompleteRepairs(Some(i)) => write!(
                f,
                "repair set is incomplete ({i}): exact XR-certain answers \
                 need all repairs; use governed answering for a sound partial"
            ),
            XrError::IncompleteRepairs(None) => write!(
                f,
                "repair set is incomplete (a candidate chase exhausted its \
                 budget): exact XR-certain answers need all repairs; use \
                 governed answering for a sound partial"
            ),
        }
    }
}

impl std::error::Error for XrError {}

impl From<AnswerError> for XrError {
    fn from(e: AnswerError) -> XrError {
        XrError::Answer(e)
    }
}

/// The XR answering engine: computes the repairs once (cached with
/// their chase results), then answers any number of queries by
/// intersecting certain answers across them.
pub struct XrEngine<'a> {
    setting: &'a Setting,
    config: AnswerConfig,
    outcome: RepairOutcome,
    /// One answer engine per repair, built from the repair's cached
    /// chase by the first query that reaches it, so each repair's core
    /// is searched at most once and the repair search itself pays for
    /// none of them.
    factors: Vec<OnceCell<AnswerEngine<'a>>>,
}

impl<'a> XrEngine<'a> {
    /// Runs the repair search (governed by `gov`) and caches the
    /// repairs. Fails only if the search was stopped before finding a
    /// single repair; an incomplete-but-nonempty repair set is usable —
    /// governed answering then proves nothing and leaves the survivors
    /// of the intersection undetermined. The search traces on `gov`'s
    /// tracer.
    pub fn new(
        setting: &'a Setting,
        source: &Instance,
        config: AnswerConfig,
        gov: &Governor,
    ) -> Result<XrEngine<'a>, XrError> {
        let outcome = RepairEngine::new(setting, &config.chase_budget)
            .with_pool(config.pool)
            .repairs(source, gov);
        if outcome.repairs.is_empty() {
            return Err(XrError::NoRepairs(outcome.interrupt));
        }
        // A corrupted repair set (non-maximal entries, wrong kept sets)
        // would silently poison every intersection below; fail loudly
        // instead.
        outcome.validate(source).map_err(XrError::Corrupt)?;
        let factors = outcome.repairs.iter().map(|_| OnceCell::new()).collect();
        Ok(XrEngine {
            setting,
            config,
            outcome,
            factors,
        })
    }

    /// The cached repair search result.
    pub fn outcome(&self) -> &RepairOutcome {
        &self.outcome
    }

    /// Number of repairs being intersected over.
    pub fn repair_count(&self) -> usize {
        self.outcome.repairs.len()
    }

    /// XR-certain answers: `⋂_repairs certain⇓(Q, repair)`. Requires a
    /// complete repair set (the intersection over a partial set is only
    /// an upper bound) and fails with [`XrError::IncompleteRepairs`]
    /// otherwise. The `proven` set of [`XrEngine::certain_governed`]
    /// under [`Governor::unlimited`]; to trace the intersection, call
    /// `certain_governed` with a traced governor.
    pub fn certain(&self, q: &Query) -> Result<Answers, XrError> {
        if !self.outcome.complete {
            return Err(XrError::IncompleteRepairs(self.outcome.interrupt));
        }
        Ok(self.certain_governed(q, &Governor::unlimited())?.proven)
    }

    /// Governed XR-certain answers with sound three-valued partials:
    /// a tuple is proven only when every repair of a *complete* repair
    /// set certified it; refuted as soon as any fully-evaluated repair
    /// rejects it (sound even over a partial repair set — adding
    /// repairs only shrinks the intersection). The repairs combine by
    /// [`GovernedAnswers::meet_all`]; a partial repair set meets one
    /// all-`Unknown` factor for the repairs never decided, so its
    /// `upper_bound()` is the intersection so far. One `xr_intersect` span
    /// covers the whole intersection and one `xr_factor` span each
    /// repair, on `gov`'s tracer and stamped from `gov`'s clock, so each
    /// factor's propagation stages nest under its `xr_factor` span.
    pub fn certain_governed(&self, q: &Query, gov: &Governor) -> Result<GovernedAnswers, XrError> {
        let now = || gov.clock().now_ns();
        let sp_intersect = gov.tracer().span("xr_intersect", now());
        let result = self.intersect_repairs(q, gov);
        sp_intersect.close(now());
        result
    }

    fn intersect_repairs(&self, q: &Query, gov: &Governor) -> Result<GovernedAnswers, XrError> {
        let factors = self.outcome.repairs.iter().zip(&self.factors);
        let g = GovernedAnswers::meet_all(factors, |(repair, factor)| {
            let sp_factor = gov.tracer().span("xr_factor", gov.clock().now_ns());
            // The repair's chase target is a universal solution for its
            // kept source, so its core is the one a fresh chase would give.
            let engine = factor.get_or_init(|| {
                AnswerEngine::from_chase(
                    self.setting,
                    Cow::Owned(repair.kept.clone()),
                    &repair.chase,
                    self.config.clone(),
                )
            });
            let g = engine.answers_governed(q, Semantics::Certain, gov);
            sp_factor.close(gov.clock().now_ns());
            g
        })?;
        if self.outcome.complete {
            return Ok(g);
        }
        // Partial repair set: the repairs the search never decided are
        // one all-Unknown factor. Without an interrupt the search stopped
        // on a candidate chase that exhausted its budget.
        let i = self.outcome.interrupt.unwrap_or(Interrupt {
            reason: InterruptReason::Fuel,
            progress: Progress::default(),
        });
        Ok(g.meet(GovernedAnswers::unknown(i)))
    }

    /// A JSON summary of the engine state (repairs + search stats).
    pub fn to_json(&self) -> JsonValue {
        self.outcome.to_json()
    }
}

/// One-shot convenience: the XR-certain answers of `q` for `source`.
pub fn xr_certain_answers(
    setting: &Setting,
    source: &Instance,
    q: &Query,
) -> Result<Answers, XrError> {
    XrEngine::new(
        setting,
        source,
        AnswerConfig::default(),
        &Governor::unlimited(),
    )?
    .certain(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::Value;
    use dex_logic::{parse_instance, parse_query, parse_setting};

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

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    #[test]
    fn xr_certain_keeps_unconflicted_facts() {
        let d = keyed();
        // a's F-successor is contested (b vs c); u's G-row is not.
        let s = parse_instance("P(a,b). P(a,c). R(u,v).").unwrap();
        let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
        let ans = xr_certain_answers(&d, &s, &q).unwrap();
        assert_eq!(ans, Answers::from([vec![c("u"), c("v")]]));
        // The contested fact is in no intersection.
        let qf = parse_query("Q(x,y) :- F(x,y)").unwrap();
        let ans = xr_certain_answers(&d, &s, &qf).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn consistent_source_matches_plain_certain() {
        let d = keyed();
        let s = parse_instance("P(a,b). R(u,v).").unwrap();
        let q = parse_query("Q(x,y) :- F(x,y)").unwrap();
        let xr = xr_certain_answers(&d, &s, &q).unwrap();
        let plain = dex_query::answers(&d, &s, &q, Semantics::Certain).unwrap();
        assert_eq!(xr, plain);
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). R(u,v).").unwrap();
        let engine =
            XrEngine::new(&d, &s, AnswerConfig::default(), &Governor::unlimited()).unwrap();
        let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
        let g = engine.certain_governed(&q, &Governor::unlimited()).unwrap();
        assert!(g.is_complete());
        assert_eq!(g.proven, engine.certain(&q).unwrap());
        g.validate().unwrap();
    }

    #[test]
    fn xr_spans_take_the_governor_clock() {
        use dex_core::govern::Clock;
        use dex_obs::{Collector, EventKind, RingRecorder, Tracer};
        use std::collections::BTreeSet;
        use std::sync::Arc;
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). R(u,v).").unwrap();
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let (clock, mock) = Clock::mock();
        mock.set_ns(9_000);
        let gov = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
        let engine = XrEngine::new(&d, &s, AnswerConfig::default(), &gov).unwrap();
        // Not a UCQ, so each factor runs the □-propagation pipeline.
        let q = parse_query("Q(x) := exists y . (G(x,y) & !(y = 'b'))").unwrap();
        let g = engine.certain_governed(&q, &gov).unwrap();
        assert!(g.is_complete());
        let opened: Vec<(String, u64, u64, u64)> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanOpened { name } => Some((name, e.span_id, e.parent, e.at_ns)),
                _ => None,
            })
            .collect();
        // The repair search traced on the same governor.
        assert!(opened.iter().any(|(name, ..)| name == "hs_level"));
        // One intersection span plus one factor span per repair, all
        // stamped from the governor's clock.
        let xr: Vec<&(String, u64, u64, u64)> = opened
            .iter()
            .filter(|(name, ..)| name.starts_with("xr_"))
            .collect();
        assert_eq!(xr.len(), 1 + engine.repair_count());
        assert!(xr.iter().all(|&&(.., at)| at == 9_000), "{xr:?}");
        // Every propagation stage nests under an xr_factor span, and
        // every factor has its stages.
        let factors: BTreeSet<u64> = opened
            .iter()
            .filter(|(name, ..)| name == "xr_factor")
            .map(|&(_, id, ..)| id)
            .collect();
        let stages = [
            "merge_fixpoint",
            "inert_elim",
            "admissible_sets",
            "forced_diseqs",
        ];
        let stage_parents: Vec<u64> = opened
            .iter()
            .filter(|(name, ..)| stages.contains(&name.as_str()))
            .map(|&(_, _, parent, _)| parent)
            .collect();
        assert!(
            stage_parents.iter().all(|p| factors.contains(p)),
            "{opened:?}"
        );
        assert_eq!(
            stage_parents.iter().copied().collect::<BTreeSet<u64>>(),
            factors
        );
    }

    #[test]
    fn certain_rejects_incomplete_repair_set() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f). R(u,v).").unwrap();
        let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
        for fuel in 2u64..7 {
            let gov = Governor::unlimited().with_fuel(fuel);
            let Ok(engine) = XrEngine::new(&d, &s, AnswerConfig::default(), &gov) else {
                continue; // no repair found before the trip
            };
            if engine.outcome().complete {
                continue;
            }
            // Exact intersection over a partial repair set is only an
            // upper bound; certain() must refuse rather than report it.
            assert!(matches!(
                engine.certain(&q),
                Err(XrError::IncompleteRepairs(_))
            ));
        }
    }

    #[test]
    fn interrupted_search_proves_nothing() {
        let d = keyed();
        let s = parse_instance("P(a,b). P(a,c). P(d,e). P(d,f). R(u,v).").unwrap();
        // Enough fuel to find some repairs but not finish the search.
        for fuel in 2u64..7 {
            let gov = Governor::unlimited().with_fuel(fuel);
            let Ok(engine) = XrEngine::new(&d, &s, AnswerConfig::default(), &gov) else {
                continue; // no repair found before the trip
            };
            if engine.outcome().complete {
                continue;
            }
            let q = parse_query("Q(x,y) :- G(x,y)").unwrap();
            let g = engine.certain_governed(&q, &Governor::unlimited()).unwrap();
            assert!(
                g.proven.is_empty(),
                "fuel {fuel}: partial set proved tuples"
            );
            g.validate().unwrap();
        }
    }
}
