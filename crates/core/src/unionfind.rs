//! A union-find over values implementing the chase's egd merge policy
//! (paper footnote 4): a constant absorbs a null, between two nulls the
//! smaller label survives, and two distinct constants are a hard
//! conflict (the chase fails).
//!
//! The chase engine unions the two sides of each violated egd here and
//! applies the resulting `loser → winner` rewrite to the instance via
//! [`crate::Instance::merge_value`], instead of cloning the whole
//! instance per merge.

use crate::hash::IdMap;
use crate::symbol::Symbol;
use crate::value::Value;

/// The effect of one successful union: rewrite `loser` to `winner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeOutcome {
    pub winner: Value,
    pub loser: Value,
}

/// The footnote-4 merge policy applied to a single pair of values: a
/// constant absorbs a null, between two nulls the smaller label wins,
/// two distinct constants conflict. `Ok(None)` iff `a == b`.
///
/// Use this (rather than a persistent [`ValueUnionFind`]) when a merged
/// loser can legitimately *reappear* later — as in the α-chase, where a
/// fixed α re-introduces the very null an egd renamed away: the
/// union-find would call the revived pair "already merged" and drop the
/// violation.
pub fn merge_policy(a: Value, b: Value) -> Result<Option<MergeOutcome>, (Symbol, Symbol)> {
    if a == b {
        return Ok(None);
    }
    let (winner, loser) = match (a, b) {
        (Value::Const(c), Value::Const(d)) => return Err((c, d)),
        (Value::Const(_), Value::Null(_)) => (a, b),
        (Value::Null(_), Value::Const(_)) => (b, a),
        (Value::Null(m), Value::Null(n)) => {
            if m < n {
                (a, b)
            } else {
                (b, a)
            }
        }
    };
    Ok(Some(MergeOutcome { winner, loser }))
}

/// Union-find over `Dom = Const ∪ Null` with path compression. Values
/// not yet seen are implicit singleton classes.
#[derive(Clone, Debug, Default)]
pub struct ValueUnionFind {
    parent: IdMap<Value, Value>,
}

impl ValueUnionFind {
    pub fn new() -> ValueUnionFind {
        ValueUnionFind::default()
    }

    /// The representative of `v`'s class (by the merge policy, always the
    /// constant if the class has one, else its smallest null).
    pub fn find(&mut self, v: Value) -> Value {
        let mut root = v;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        let mut cur = v;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    /// Merges the classes of `a` and `b`.
    ///
    /// - `Ok(None)`: already in the same class, nothing to do;
    /// - `Ok(Some(outcome))`: rewrite `outcome.loser` to `outcome.winner`;
    /// - `Err((c, d))`: the classes hold the distinct constants `c` and
    ///   `d` — an unsatisfiable egd, the chase must fail.
    pub fn union(&mut self, a: Value, b: Value) -> Result<Option<MergeOutcome>, (Symbol, Symbol)> {
        let ra = self.find(a);
        let rb = self.find(b);
        let out = merge_policy(ra, rb)?;
        if let Some(m) = out {
            self.parent.insert(m.loser, m.winner);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Value {
        Value::konst(s)
    }

    #[test]
    fn constant_beats_null() {
        let mut uf = ValueUnionFind::new();
        let out = uf.union(Value::null(3), c("a")).unwrap().unwrap();
        assert_eq!(out.winner, c("a"));
        assert_eq!(out.loser, Value::null(3));
        assert_eq!(uf.find(Value::null(3)), c("a"));
    }

    #[test]
    fn smaller_null_wins() {
        let mut uf = ValueUnionFind::new();
        let out = uf.union(Value::null(5), Value::null(2)).unwrap().unwrap();
        assert_eq!(out.winner, Value::null(2));
        assert_eq!(out.loser, Value::null(5));
    }

    #[test]
    fn same_class_is_a_no_op() {
        let mut uf = ValueUnionFind::new();
        uf.union(Value::null(1), Value::null(2)).unwrap();
        assert_eq!(uf.union(Value::null(1), Value::null(2)).unwrap(), None);
        assert_eq!(uf.union(c("a"), c("a")).unwrap(), None);
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut uf = ValueUnionFind::new();
        let err = uf.union(c("a"), c("b")).unwrap_err();
        assert_eq!(err, (Symbol::intern("a"), Symbol::intern("b")));
        // A transitive conflict through nulls is caught too.
        let mut uf = ValueUnionFind::new();
        uf.union(Value::null(1), c("a")).unwrap();
        uf.union(Value::null(2), c("b")).unwrap();
        assert!(uf.union(Value::null(1), Value::null(2)).is_err());
    }

    #[test]
    fn chains_compress_to_the_constant() {
        let mut uf = ValueUnionFind::new();
        uf.union(Value::null(9), Value::null(4)).unwrap();
        uf.union(Value::null(4), Value::null(7)).unwrap();
        uf.union(Value::null(7), c("z")).unwrap();
        for n in [4u32, 7, 9] {
            assert_eq!(uf.find(Value::null(n)), c("z"));
        }
    }
}
