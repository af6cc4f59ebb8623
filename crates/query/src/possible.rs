//! A unification-based decision procedure for maybe answers on a single
//! instance: `◇Q(T)` membership without enumerating valuations.
//!
//! For a CQ (with inequalities) `Q` and an instance `T` whose `Rep(T)` is
//! *all* valuations (i.e. the setting has no target dependencies — for
//! settings with egds or target tgds valuations are filtered and the
//! oracle in [`crate::modal`] must be used), a tuple `ū` is in `◇Q(T)`
//! iff some match of `Q`'s body onto atoms of `T` exists where equalities
//! may be *repaired by a valuation*: a null of `T` may be unified with a
//! constant or with another null, as long as no two distinct constants
//! are forced together, the head lands on `ū`, and every inequality ends
//! on two terms that a valuation can still keep apart (different
//! constants, or at least one null class not pinned to the other side's
//! value).
//!
//! This is exactly the NP guess of Proposition 7.4 made deterministic by
//! backtracking over a union-find of `T`'s nulls.

use dex_core::{Instance, NullId, Value};
use dex_logic::{ConjunctiveQuery, Term, Var};
use std::collections::BTreeMap;

/// A backtrackable union-find over the nulls of `T`, where each class may
/// carry at most one constant.
struct Unifier {
    parent: BTreeMap<NullId, NullId>,
    pinned: BTreeMap<NullId, Value>, // root → constant
    trail: Vec<TrailEntry>,
}

enum TrailEntry {
    Union { child_root: NullId },
    Pin { root: NullId },
}

/// The resolved form of a value under the unifier: either a pinned
/// constant or the class representative null.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Resolved {
    Const(Value),
    Class(NullId),
}

impl Unifier {
    fn new() -> Unifier {
        Unifier {
            parent: BTreeMap::new(),
            pinned: BTreeMap::new(),
            trail: Vec::new(),
        }
    }

    fn find(&self, mut n: NullId) -> NullId {
        while let Some(&p) = self.parent.get(&n) {
            if p == n {
                break;
            }
            n = p;
        }
        n
    }

    fn resolve(&self, v: Value) -> Resolved {
        match v {
            Value::Const(_) => Resolved::Const(v),
            Value::Null(n) => {
                let root = self.find(n);
                match self.pinned.get(&root) {
                    Some(&c) => Resolved::Const(c),
                    None => Resolved::Class(root),
                }
            }
        }
    }

    /// Marks the current state; [`Unifier::rollback`] undoes to it.
    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("len checked") {
                TrailEntry::Union { child_root } => {
                    self.parent.remove(&child_root);
                }
                TrailEntry::Pin { root } => {
                    self.pinned.remove(&root);
                }
            }
        }
    }

    /// Attempts to make `a` and `b` equal under some valuation. Fails
    /// only if two distinct constants are forced together.
    fn unify(&mut self, a: Value, b: Value) -> bool {
        match (self.resolve(a), self.resolve(b)) {
            (Resolved::Const(x), Resolved::Const(y)) => x == y,
            (Resolved::Class(r), Resolved::Const(c)) | (Resolved::Const(c), Resolved::Class(r)) => {
                self.pinned.insert(r, c);
                self.trail.push(TrailEntry::Pin { root: r });
                true
            }
            (Resolved::Class(r1), Resolved::Class(r2)) => {
                if r1 != r2 {
                    // Keep the smaller root; no pins exist on either.
                    let (child, new_root) = if r1 < r2 { (r2, r1) } else { (r1, r2) };
                    self.parent.insert(child, new_root);
                    self.trail.push(TrailEntry::Union { child_root: child });
                }
                true
            }
        }
    }

    /// Can a valuation keep `a` and `b` distinct, given the current
    /// unifications? Yes unless both resolve to the same constant or to
    /// the same class.
    fn separable(&self, a: Value, b: Value) -> bool {
        match (self.resolve(a), self.resolve(b)) {
            (Resolved::Const(x), Resolved::Const(y)) => x != y,
            (Resolved::Class(r1), Resolved::Class(r2)) => r1 != r2,
            // A free class can always be valuated away from any constant.
            _ => true,
        }
    }
}

/// Decides whether the ground tuple `tuple` is a maybe answer of the CQ
/// `q` on `t`, i.e. whether `tuple ∈ Q(v(T))` for *some* valuation `v` —
/// assuming `Rep(T)` is unconstrained (no target dependencies).
pub fn cq_is_maybe_answer(q: &ConjunctiveQuery, t: &Instance, tuple: &[Value]) -> bool {
    if tuple.len() != q.arity() || tuple.iter().any(Value::is_null) {
        return false;
    }
    let mut binding: BTreeMap<Var, Value> = BTreeMap::new();
    for (&var, &val) in q.head_vars.iter().zip(tuple) {
        match binding.insert(var, val) {
            Some(prev) if prev != val => return false,
            _ => {}
        }
    }
    let mut uf = Unifier::new();
    search(q, t, 0, &mut binding, &mut uf)
}

/// Decides whether the Boolean CQ `q` is possibly true on `t` (some
/// valuation satisfies it).
pub fn cq_maybe_holds(q: &ConjunctiveQuery, t: &Instance) -> bool {
    debug_assert_eq!(
        q.arity(),
        0,
        "use cq_is_maybe_answer for non-Boolean queries"
    );
    cq_is_maybe_answer(q, t, &[])
}

fn term_value(term: Term, binding: &BTreeMap<Var, Value>) -> Option<Value> {
    match term {
        Term::Const(c) => Some(Value::Const(c)),
        Term::Var(v) => binding.get(&v).copied(),
    }
}

fn search(
    q: &ConjunctiveQuery,
    t: &Instance,
    atom_idx: usize,
    binding: &mut BTreeMap<Var, Value>,
    uf: &mut Unifier,
) -> bool {
    if atom_idx == q.atoms.len() {
        // All atoms matched; check the inequalities are separable and the
        // head variables resolve to the requested constants.
        for (s, tt) in &q.inequalities {
            let (Some(a), Some(b)) = (term_value(*s, binding), term_value(*tt, binding)) else {
                return false; // safety guarantees this cannot happen
            };
            if !uf.separable(a, b) {
                return false;
            }
        }
        // Head variables are bound to the requested ground tuple up
        // front; a row value unified with them must resolve to exactly
        // that constant — enforced during unification (a pinned class or
        // equal constant). Nothing further to check.
        return true;
    }
    let atom = &q.atoms[atom_idx];
    // Try every row of the relation; unification replaces index lookup
    // because nulls of T can stand for anything.
    let rows: Vec<Vec<Value>> = t.rows_of(atom.rel).map(|r| r.to_vec()).collect();
    for row in rows {
        if row.len() != atom.args.len() {
            continue;
        }
        let mark = uf.mark();
        let mut newly_bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (&term, &row_val) in atom.args.iter().zip(&row) {
            let pattern_val = match term {
                Term::Const(c) => Value::Const(c),
                Term::Var(v) => match binding.get(&v) {
                    Some(&bound) => bound,
                    None => {
                        binding.insert(v, row_val);
                        newly_bound.push(v);
                        continue;
                    }
                },
            };
            if !uf.unify(pattern_val, row_val) {
                ok = false;
                break;
            }
        }
        if ok && search(q, t, atom_idx + 1, binding, uf) {
            return true;
        }
        uf.rollback(mark);
        for v in newly_bound {
            binding.remove(&v);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::{parse_instance, parse_query, Query};

    fn cq(text: &str) -> ConjunctiveQuery {
        match parse_query(text).unwrap() {
            Query::Cq(q) => q,
            _ => panic!("expected CQ"),
        }
    }

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    #[test]
    fn ground_match_is_maybe() {
        let t = parse_instance("E(a,b).").unwrap();
        assert!(cq_is_maybe_answer(&cq("Q(x) :- E(x,y)"), &t, &[c("a")]));
        assert!(!cq_is_maybe_answer(&cq("Q(x) :- E(x,y)"), &t, &[c("b")]));
    }

    #[test]
    fn null_can_stand_for_any_constant() {
        let t = parse_instance("E(a,_1).").unwrap();
        // _1 can be valuated to anything, including brand-new constants.
        for target in ["a", "b", "zzz"] {
            assert!(cq_is_maybe_answer(&cq("Q(y) :- E(a,y)"), &t, &[c(target)]));
        }
    }

    #[test]
    fn shared_null_must_be_consistent() {
        // E(_1,_1): Q(x,y) :- E(x,y) with x ≠ y impossible; equal fine.
        let t = parse_instance("E(_1,_1).").unwrap();
        assert!(cq_is_maybe_answer(
            &cq("Q(x,y) :- E(x,y)"),
            &t,
            &[c("a"), c("a")]
        ));
        assert!(!cq_is_maybe_answer(
            &cq("Q(x,y) :- E(x,y)"),
            &t,
            &[c("a"), c("b")]
        ));
    }

    #[test]
    fn join_through_nulls() {
        // E(a,_1), F(_2,b): joining y requires unifying _1 with _2 — fine.
        let t = parse_instance("E(a,_1). F(_2,b).").unwrap();
        let q = cq("Q() :- E(x,y), F(y,z)");
        assert!(cq_maybe_holds(&q, &t));
    }

    #[test]
    fn two_constants_cannot_unify() {
        let t = parse_instance("E(a,b). F(c,d).").unwrap();
        // Join needs b = c: both constants, impossible.
        let q = cq("Q() :- E(x,y), F(y,z)");
        assert!(!cq_maybe_holds(&q, &t));
    }

    #[test]
    fn inequality_separability() {
        // E(_1,_2): x ≠ y is possible (valuate apart).
        let t = parse_instance("E(_1,_2).").unwrap();
        assert!(cq_maybe_holds(&cq("Q() :- E(x,y), x != y"), &t));
        // E(_1,_1): x ≠ y impossible.
        let t2 = parse_instance("E(_1,_1).").unwrap();
        assert!(!cq_maybe_holds(&cq("Q() :- E(x,y), x != y"), &t2));
    }

    #[test]
    fn inequality_with_pinned_class() {
        // E(a,_1) with head y = a: _1 pinned to a, so y != x fails.
        let t = parse_instance("E(a,_1).").unwrap();
        let q = cq("Q(y) :- E(x,y), x != y");
        assert!(!cq_is_maybe_answer(&q, &t, &[c("a")]));
        assert!(cq_is_maybe_answer(&q, &t, &[c("b")]));
    }

    #[test]
    fn agrees_with_the_valuation_oracle() {
        // Cross-check on a small instance against modal::maybe_answers.
        let setting = dex_logic::parse_setting(
            "source { P/1 }
             target { E/2, F/2 }
             st { P(x) -> exists z . E(x,z); }",
        )
        .unwrap();
        let t = parse_instance("E(a,_1). E(_1,b). F(_1,_2).").unwrap();
        let queries = [
            "Q(x,y) :- E(x,y)",
            "Q(x) :- E(x,y), F(y,z)",
            "Q(x,z) :- E(x,y), E(y,z)",
            "Q(x) :- E(x,y), x != y",
        ];
        for qt in queries {
            let q = parse_query(qt).unwrap();
            let Query::Cq(cq_ast) = &q else { panic!() };
            let pool = crate::modal::answer_pool(&t, &q, []);
            let oracle = crate::modal::maybe_answers(
                &setting,
                &q,
                &t,
                &pool,
                &Default::default(),
                &dex_core::Governor::unlimited(),
                &dex_core::Pool::seq(),
            )
            .unwrap()
            .proven;
            // Every oracle answer must be confirmed by the fast path, and
            // pool-tuples rejected by the fast path must be absent.
            for tuple in &oracle {
                assert!(
                    cq_is_maybe_answer(cq_ast, &t, tuple),
                    "query {qt}, tuple {tuple:?} in oracle but rejected"
                );
            }
            // Exhaustive cross-check over all pool tuples.
            let arity = q.arity();
            let mut idx = vec![0usize; arity];
            loop {
                let tuple: Vec<Value> = idx.iter().map(|&i| Value::Const(pool[i])).collect();
                assert_eq!(
                    cq_is_maybe_answer(cq_ast, &t, &tuple),
                    oracle.contains(&tuple),
                    "query {qt}, tuple {tuple:?}"
                );
                let mut k = 0;
                loop {
                    if k == arity {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < pool.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == arity {
                    break;
                }
            }
        }
    }

    #[test]
    fn null_tuples_are_never_answers() {
        let t = parse_instance("E(a,_1).").unwrap();
        assert!(!cq_is_maybe_answer(
            &cq("Q(y) :- E(x,y)"),
            &t,
            &[Value::null(1)]
        ));
    }

    #[test]
    fn repeated_head_variable() {
        let t = parse_instance("E(_1,_2).").unwrap();
        let q = cq("Q(x,x) :- E(x,x)");
        assert!(cq_is_maybe_answer(&q, &t, &[c("a"), c("a")]));
        assert!(!cq_is_maybe_answer(&q, &t, &[c("a"), c("b")]));
    }
}
