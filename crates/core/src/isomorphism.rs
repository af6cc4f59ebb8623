//! Instance isomorphism "up to renaming of nulls".
//!
//! The paper identifies solutions up to renaming of nulls (e.g. the core is
//! unique up to such renamings, Example 5.3 counts CWA-solutions up to
//! them). Two instances are isomorphic iff some bijection of their nulls
//! (constants fixed) turns one into the other — equivalently, iff there is
//! a homomorphism mapping nulls to nulls, injective on nulls, between
//! instances with identical per-relation cardinalities.

use crate::govern::Governor;
use crate::hash::IdMap;
use crate::homomorphism::HomFinder;
use crate::instance::Instance;
use crate::value::Value;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// An isomorphism-invariant signature: equal for isomorphic instances,
/// and a cheap discriminator for non-isomorphic ones. Computed from the
/// per-relation multiset of row patterns, where each null is replaced by
/// its global occurrence count (degree) — invariant under renaming —
/// together with the within-row equality pattern.
pub fn iso_signature(inst: &Instance) -> u64 {
    let mut degree: BTreeMap<crate::value::NullId, u32> = BTreeMap::new();
    for v in inst.values() {
        if let Value::Null(n) = v {
            *degree.entry(n).or_insert(0) += 1;
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for rel in inst.relations() {
        rel.id().hash(&mut h);
        let mut rows: Vec<Vec<(u8, u32, usize)>> = inst
            .rows_of(rel)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, &v)| match v {
                        Value::Const(c) => (0u8, c.id(), i),
                        Value::Null(n) => {
                            let first = row.iter().position(|&w| w == v).expect("present");
                            (1u8, degree[&n], first)
                        }
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        rows.hash(&mut h);
    }
    // The global degree profile (sorted) adds cross-relation structure.
    let mut profile: Vec<u32> = degree.into_values().collect();
    profile.sort_unstable();
    profile.hash(&mut h);
    h.finish()
}

/// True iff `a` and `b` are equal up to renaming of nulls.
pub fn isomorphic(a: &Instance, b: &Instance) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Per-relation cardinalities must agree.
    let rels_a: Vec<_> = a.relations().collect();
    let rels_b: Vec<_> = b.relations().collect();
    if rels_a != rels_b {
        return false;
    }
    for &r in &rels_a {
        if a.rows_of_len(r) != b.rows_of_len(r) || a.arity_of(r) != b.arity_of(r) {
            return false;
        }
    }
    if a.nulls().len() != b.nulls().len() {
        return false;
    }
    HomFinder::new(a, b)
        .nulls_to_nulls()
        .injective_on_nulls()
        .find(&Governor::unlimited())
        .expect("an unlimited governor never trips")
        .is_some()
}

/// Removes instances isomorphic to an earlier one, preserving order.
/// Buckets by [`iso_signature`] so only same-signature pairs are tested.
pub fn dedup_up_to_iso(instances: Vec<Instance>) -> Vec<Instance> {
    let mut buckets: IdMap<u64, Vec<usize>> = IdMap::default();
    let mut out: Vec<Instance> = Vec::new();
    for i in instances {
        let sig = iso_signature(&i);
        let bucket = buckets.entry(sig).or_default();
        if !bucket.iter().any(|&k| isomorphic(&out[k], &i)) {
            bucket.push(out.len());
            out.push(i);
        }
    }
    // Drop the placeholder indices of removed duplicates: `out` only ever
    // received kept instances, so nothing further to do.
    out
}

/// An online deduplicator for streams of instances, up to isomorphism.
/// Representatives keep *insertion order* — the hash buckets are only an
/// index — so a deterministic input stream yields a deterministic output
/// list (the parallel enumerator's byte-identical guarantee relies on
/// this; hash-map iteration order is not a contract).
#[derive(Default)]
pub struct IsoDeduper {
    buckets: IdMap<u64, Vec<usize>>,
    reps: Vec<Instance>,
}

impl IsoDeduper {
    pub fn new() -> IsoDeduper {
        IsoDeduper::default()
    }

    /// Inserts `inst`; returns `true` if it was new up to isomorphism.
    pub fn insert(&mut self, inst: Instance) -> bool {
        let sig = iso_signature(&inst);
        let bucket = self.buckets.entry(sig).or_default();
        if bucket.iter().any(|&k| isomorphic(&self.reps[k], &inst)) {
            return false;
        }
        bucket.push(self.reps.len());
        self.reps.push(inst);
        true
    }

    /// Number of distinct classes seen.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Consumes the deduper, returning one representative per class, in
    /// first-insertion order.
    pub fn into_representatives(self) -> Vec<Instance> {
        self.reps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::value::Value;

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn renaming_nulls_is_isomorphic() {
        let a = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(1)]),
            Atom::of("G", vec![n(1), n(2)]),
        ]);
        let b = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(7)]),
            Atom::of("G", vec![n(7), n(9)]),
        ]);
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn different_linking_is_not_isomorphic() {
        // G(_1,_2) vs G(_1,_1): merge patterns differ.
        let a = Instance::from_atoms([Atom::of("G", vec![n(1), n(2)])]);
        let b = Instance::from_atoms([Atom::of("G", vec![n(1), n(1)])]);
        assert!(!isomorphic(&a, &b));
        assert!(!isomorphic(&b, &a));
    }

    #[test]
    fn constants_must_match_exactly() {
        let a = Instance::from_atoms([Atom::of("F", vec![c("a"), n(1)])]);
        let b = Instance::from_atoms([Atom::of("F", vec![c("b"), n(1)])]);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn cardinalities_must_match() {
        let a = Instance::from_atoms([Atom::of("F", vec![c("a"), n(1)])]);
        let b = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(1)]),
            Atom::of("F", vec![c("a"), n(2)]),
        ]);
        assert!(!isomorphic(&a, &b));
        // Note: a and b ARE hom-equivalent — iso is strictly finer.
        assert!(crate::homomorphism::hom_equivalent(&a, &b));
    }

    #[test]
    fn null_to_constant_folding_is_not_iso() {
        let a = Instance::from_atoms([Atom::of("F", vec![c("a"), n(1)])]);
        let b = Instance::from_atoms([Atom::of("F", vec![c("a"), c("a")])]);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn dedup_keeps_one_representative_per_class() {
        let a = Instance::from_atoms([Atom::of("G", vec![n(1), n(2)])]);
        let a2 = Instance::from_atoms([Atom::of("G", vec![n(5), n(6)])]);
        let b = Instance::from_atoms([Atom::of("G", vec![n(1), n(1)])]);
        let out = dedup_up_to_iso(vec![a.clone(), a2, b.clone()]);
        assert_eq!(out.len(), 2);
        assert!(isomorphic(&out[0], &a));
        assert!(isomorphic(&out[1], &b));
    }

    #[test]
    fn empty_instances_are_isomorphic() {
        assert!(isomorphic(&Instance::new(), &Instance::new()));
    }

    #[test]
    fn signature_is_invariant_under_renaming() {
        let a = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(1)]),
            Atom::of("G", vec![n(1), n(2)]),
        ]);
        let b = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(9)]),
            Atom::of("G", vec![n(9), n(5)]),
        ]);
        assert_eq!(iso_signature(&a), iso_signature(&b));
    }

    #[test]
    fn signature_discriminates_merge_patterns() {
        let a = Instance::from_atoms([Atom::of("G", vec![n(1), n(2)])]);
        let b = Instance::from_atoms([Atom::of("G", vec![n(1), n(1)])]);
        assert_ne!(iso_signature(&a), iso_signature(&b));
    }

    #[test]
    fn iso_deduper_streams() {
        let mut d = IsoDeduper::new();
        assert!(d.insert(Instance::from_atoms([Atom::of("G", vec![n(1), n(2)])])));
        assert!(!d.insert(Instance::from_atoms([Atom::of("G", vec![n(7), n(8)])])));
        assert!(d.insert(Instance::from_atoms([Atom::of("G", vec![n(1), n(1)])])));
        assert_eq!(d.len(), 2);
        assert_eq!(d.into_representatives().len(), 2);
    }

    #[test]
    fn iso_deduper_preserves_first_insertion_order() {
        // Three pairwise non-isomorphic instances interleaved with
        // duplicates: representatives must come back in the order their
        // classes were first seen, independent of hash-bucket layout.
        let one = Instance::from_atoms([Atom::of("G", vec![n(1), n(2)])]);
        let two = Instance::from_atoms([Atom::of("G", vec![n(1), n(1)])]);
        let three = Instance::from_atoms([Atom::of("G", vec![c("a"), n(1)])]);
        let mut d = IsoDeduper::new();
        d.insert(two.clone());
        d.insert(one.clone());
        d.insert(Instance::from_atoms([Atom::of("G", vec![n(9), n(9)])]));
        d.insert(three.clone());
        let reps = d.into_representatives();
        assert_eq!(reps.len(), 3);
        assert!(isomorphic(&reps[0], &two));
        assert!(isomorphic(&reps[1], &one));
        assert!(isomorphic(&reps[2], &three));
    }
}
