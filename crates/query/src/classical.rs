//! The *classical* (open-world) certain-answer semantics of Section 2,
//! for comparison with the CWA semantics:
//!
//! - `certain_D(Q,S)`: tuples in `Q(T)` for **every** solution `T`;
//! - `u-certain_D(Q,S)`: tuples in `Q(T)` for every **universal**
//!   solution `T` (\[FKP05\]).
//!
//! Neither is directly computable by enumeration (there are infinitely
//! many solutions), but for unions of conjunctive queries the classical
//! theorem of Fagin, Kolaitis, Miller and Popa applies: both equal the
//! null-free answers of `Q` on any universal solution,
//! `certain_D(Q,S) = u-certain_D(Q,S) = Q(T)↓` — the same naive
//! evaluation the CWA semantics use (Lemma 7.7), which is why the
//! semantics only diverge beyond UCQs (Section 3's anomalies are FO).

use crate::eval::{eval_null_free, eval_query, Answers};
use dex_chase::{canonical_universal_solution, ChaseBudget, ChaseError};
use dex_core::Instance;
use dex_logic::{Query, Setting};

/// The classical certain answers of a **plain UCQ** (no inequalities),
/// via the FKMP theorem: `Q(CanonicalUniversalSolution)↓`.
///
/// # Panics
/// Debug-asserts that `q` is a plain UCQ; for other query classes the
/// classical certain answers are not computable this way (and for FO
/// queries not computable at all in general — see Section 3).
pub fn classical_certain_ucq(
    setting: &Setting,
    source: &Instance,
    q: &Query,
    budget: &ChaseBudget,
) -> Result<Answers, ChaseError> {
    debug_assert!(
        q.is_plain_ucq(),
        "classical certain answers via naive evaluation require a plain UCQ"
    );
    let canon = canonical_universal_solution(setting, source, budget)?;
    Ok(eval_null_free(q, &canon))
}

/// An upper bound on the classical certain answers of an arbitrary query:
/// the intersection of `Q` over the given finite set of solutions
/// (Section 3 uses exactly this with hand-picked counterexample
/// solutions to pin the anomaly down).
pub fn certain_upper_bound(q: &Query, solutions: &[Instance]) -> Answers {
    let mut acc: Option<Answers> = None;
    for t in solutions {
        let a = eval_query(q, t);
        acc = Some(match acc {
            None => a,
            Some(prev) => prev.intersection(&a).cloned().collect(),
        });
    }
    acc.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{answers, Semantics};
    use dex_logic::{parse_instance, parse_query, parse_setting};

    fn example_2_1() -> (Setting, Instance) {
        let setting = parse_setting(
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
        .unwrap();
        (setting, parse_instance("M(a,b). N(a,b). N(a,c).").unwrap())
    }

    /// For plain UCQs the classical and CWA certain answers coincide
    /// (both are `Q(T)↓` on a universal solution).
    #[test]
    fn classical_and_cwa_coincide_on_ucqs() {
        let (d, s) = example_2_1();
        for qt in [
            "Q(x,y) :- E(x,y)",
            "Q(x) :- F(x,y), G(y,z)",
            "Q() :- G(x,y)",
        ] {
            let q = parse_query(qt).unwrap();
            let classical = classical_certain_ucq(&d, &s, &q, &ChaseBudget::default()).unwrap();
            let cwa = answers(&d, &s, &q, Semantics::Certain).unwrap();
            assert_eq!(classical, cwa, "query {qt}");
        }
    }

    /// The Section 3 shape: the upper-bound intersection over the copy
    /// and the paper's counterexample solution loses the b-cycle.
    #[test]
    fn upper_bound_reproduces_the_anomaly() {
        let copy = parse_instance("Ep(a0,a1). Ep(a1,a0). Ep(b0,b1). Ep(b1,b0). Pp(a0).").unwrap();
        let mut counterexample = copy.clone();
        counterexample.insert(dex_core::Atom::of("Pp", vec![dex_core::Value::konst("a1")]));
        let q = parse_query("Q(x) := Pp(x) | exists y,z . (Pp(y) & Ep(y,z) & !Pp(z))").unwrap();
        let bound = certain_upper_bound(&q, &[copy.clone(), counterexample]);
        // On the copy alone, all 4 nodes answer; the intersection keeps
        // only the a-nodes.
        assert_eq!(eval_query(&q, &copy).len(), 4);
        assert_eq!(bound.len(), 2);
    }

    #[test]
    fn empty_solution_list_gives_empty_bound() {
        let q = parse_query("Q(x) :- P(x)").unwrap();
        assert!(certain_upper_bound(&q, &[]).is_empty());
    }
}
