//! The CQ/UCQ evaluation the one-pass evaluator replaced, kept as a test
//! reference: one `BTreeSet` per disjunct, filled match by match, each
//! set merged into the union, and `Q(T)↓` cloned tuple by tuple out of
//! `Q(T)` by [`drop_null_tuples`]. The differential test in `eval.rs`
//! checks both give the same answers. Nothing here is compiled outside
//! tests.

use super::{drop_null_tuples, eval_fo, Answers};
use dex_core::Instance;
use dex_logic::formula::Assignment;
use dex_logic::matcher;
use dex_logic::{ConjunctiveQuery, Query, UnionQuery};

pub fn eval_cq(q: &ConjunctiveQuery, inst: &Instance) -> Answers {
    let mut out = Answers::new();
    matcher::for_each_match(&q.atoms, inst, &Assignment::new(), &mut |env| {
        let ok = q.inequalities.iter().all(|(s, t)| {
            let a = env.term(*s).expect("inequality terms are safe");
            let b = env.term(*t).expect("inequality terms are safe");
            a != b
        });
        if ok {
            out.insert(
                q.head_vars
                    .iter()
                    .map(|&v| env.get(v).expect("head vars are safe"))
                    .collect(),
            );
        }
        true
    });
    out
}

pub fn eval_ucq(q: &UnionQuery, inst: &Instance) -> Answers {
    let mut out = Answers::new();
    for d in &q.disjuncts {
        out.extend(eval_cq(d, inst));
    }
    out
}

pub fn eval_query(q: &Query, inst: &Instance) -> Answers {
    match q {
        Query::Cq(q) => eval_cq(q, inst),
        Query::Ucq(q) => eval_ucq(q, inst),
        Query::Fo(q) => eval_fo(q, inst),
    }
}

/// `Q(T)↓` as `ucq_certain_answers` computed it.
pub fn null_free(q: &Query, inst: &Instance) -> Answers {
    drop_null_tuples(&eval_query(q, inst))
}
