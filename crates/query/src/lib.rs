//! # dex-query
//!
//! Query answering for data exchange under the closed world assumption
//! (Section 7 of Hernich & Schweikardt, PODS 2007):
//!
//! - naive evaluation of CQs/UCQs/FO queries on instances with nulls
//!   ([`eval`]);
//! - the per-instance certain/maybe answers `□Q(T)` / `◇Q(T)` over
//!   `Rep_D(T)`, with an exhaustive valuation oracle and the Lemma 7.7
//!   polynomial fast path ([`modal`]);
//! - the four semantics `certain⇓ / certain⇑ / maybe⇓ / maybe⇑` with the
//!   Theorem 7.1 core/CanSol fast paths and an enumeration fallback
//!   ([`semantics`]).

pub mod classical;
pub mod eval;
pub mod modal;
pub mod possible;
pub mod propagate;
pub mod semantics;

pub use classical::{certain_upper_bound, classical_certain_ucq};
pub use eval::{drop_null_tuples, eval_cq, eval_fo, eval_query, eval_ucq, Answers};
pub use modal::{
    answer_pool, certain_answers, for_each_rep, maybe_answers, ucq_certain_answers,
    GovernedAnswers, ModalError, ModalLimits,
};
pub use possible::{cq_is_maybe_answer, cq_maybe_holds};
pub use propagate::{
    certain_answers_propagated, certain_ground_witnesses, maybe_answers_propagated,
    PropagationReport,
};
pub use semantics::{answers, AnswerConfig, AnswerEngine, AnswerError, EvalEngine, Semantics};

pub use dex_core::govern::{Governor, Interrupt, InterruptReason, Verdict};
