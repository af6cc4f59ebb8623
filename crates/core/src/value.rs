//! The value universe `Dom = Const ∪ Null` of Section 2 of the paper.
//!
//! Constants are interned strings ([`Symbol`]); nulls are labeled
//! placeholders identified by a `u32`. The paper assumes `Null` is linearly
//! ordered so that egd applications are unambiguous ("the larger null is
//! replaced by the smaller one", footnote 4) — [`NullId`]'s derived `Ord`
//! provides exactly that order.

use crate::symbol::Symbol;
use std::fmt;

/// A labeled null `⊥_k`. Ordered by label, as the paper requires for
/// deterministic egd application.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u32);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}", self.0)
    }
}

impl fmt::Debug for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}", self.0)
    }
}

/// An element of `Dom`: either a constant or a labeled null.
///
/// The derived `Ord` places all constants before all nulls, which gives
/// instances a canonical display order; it is *not* semantically meaningful.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An element of the countably infinite set `Const`.
    Const(Symbol),
    /// An element of the countably infinite set `Null`, disjoint from `Const`.
    Null(NullId),
}

impl Value {
    /// Interns `name` as a constant value.
    pub fn konst(name: &str) -> Value {
        Value::Const(Symbol::intern(name))
    }

    /// The null with label `id`.
    pub fn null(id: u32) -> Value {
        Value::Null(NullId(id))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// The constant symbol, if this is a constant.
    pub fn as_const(&self) -> Option<Symbol> {
        match self {
            Value::Const(s) => Some(*s),
            Value::Null(_) => None,
        }
    }

    /// The null id, if this is a null.
    pub fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(*n),
            Value::Const(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(s) => write!(f, "{s}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Const(s)
    }
}

impl From<NullId> for Value {
    fn from(n: NullId) -> Value {
        Value::Null(n)
    }
}

/// A deterministic generator of fresh nulls.
///
/// Chase procedures mint nulls from an explicit generator so that runs are
/// reproducible and null labels never collide between the source instance
/// and chase-introduced placeholders.
#[derive(Clone, Debug, Default)]
pub struct NullGen {
    next: u32,
}

impl NullGen {
    /// A generator starting at label 0.
    pub fn new() -> NullGen {
        NullGen { next: 0 }
    }

    /// A generator whose first fresh null is strictly larger than every
    /// null occurring in `values`.
    pub fn above(values: impl IntoIterator<Item = Value>) -> NullGen {
        let max = values
            .into_iter()
            .filter_map(|v| v.as_null())
            .map(|n| n.0 + 1)
            .max()
            .unwrap_or(0);
        NullGen { next: max }
    }

    /// Mints a fresh null.
    pub fn fresh(&mut self) -> NullId {
        let id = NullId(self.next);
        self.next += 1;
        id
    }

    /// Mints a fresh null as a [`Value`].
    pub fn fresh_value(&mut self) -> Value {
        Value::Null(self.fresh())
    }

    /// The label the next fresh null would get.
    pub fn peek(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_and_null_are_disjoint() {
        let c = Value::konst("a");
        let n = Value::null(0);
        assert!(c.is_const() && !c.is_null());
        assert!(n.is_null() && !n.is_const());
        assert_ne!(c, n);
    }

    #[test]
    fn nulls_are_linearly_ordered_by_label() {
        assert!(NullId(1) < NullId(2));
        assert!(Value::null(3) < Value::null(10));
    }

    #[test]
    fn equal_constant_names_are_equal_values() {
        assert_eq!(Value::konst("a"), Value::konst("a"));
        assert_ne!(Value::konst("a"), Value::konst("b"));
    }

    #[test]
    fn nullgen_is_sequential() {
        let mut g = NullGen::new();
        assert_eq!(g.fresh(), NullId(0));
        assert_eq!(g.fresh(), NullId(1));
        assert_eq!(g.peek(), 2);
    }

    #[test]
    fn nullgen_above_skips_existing_labels() {
        let vals = [Value::null(4), Value::konst("a"), Value::null(1)];
        let mut g = NullGen::above(vals);
        assert_eq!(g.fresh(), NullId(5));
    }

    #[test]
    fn nullgen_above_empty_starts_at_zero() {
        let mut g = NullGen::above(std::iter::empty());
        assert_eq!(g.fresh(), NullId(0));
    }

    #[test]
    fn accessors() {
        let c = Value::konst("x");
        assert_eq!(c.as_const().unwrap().as_str(), "x");
        assert_eq!(c.as_null(), None);
        let n = Value::null(7);
        assert_eq!(n.as_null(), Some(NullId(7)));
        assert_eq!(n.as_const(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Value::konst("ann")), "ann");
        assert_eq!(format!("{}", Value::null(12)), "_12");
    }
}
