//! Homomorphisms between instances (Section 2).
//!
//! A homomorphism `h: I → J` maps `Dom(I) → Dom(J)` such that every atom
//! `R(ū) ∈ I` has `R(h(ū)) ∈ J` and `h(c) = c` for every constant `c`.
//! This is the notion of \[FKP05\] used by the paper (nulls may be mapped to
//! nulls *or* constants); the more restrictive Libkin variant (nulls map to
//! nulls) is available via [`HomFinder::nulls_to_nulls`].
//!
//! The search is a backtracking CSP over the nulls of the left instance:
//! at each step the unmatched atom with the fewest candidate rows under the
//! current partial assignment is expanded (fail-first heuristic), with
//! candidates enumerated through the target instance's position indexes.
//!
//! Internally the backtracker binds nulls in a dense `Vec<Option<Value>>`
//! slab indexed by `NullId` (O(1) bind/unbind/lookup in the innermost
//! loop); the public [`Homomorphism`] keeps its `BTreeMap` representation
//! and is only materialized ("frozen") per complete solution. A
//! pathologically sparse null-id range falls back to binding in a
//! `BTreeMap` instead of allocating the whole span.

use crate::atom::Atom;
use crate::govern::{Governor, Interrupt};
use crate::hash::IdSet;
use crate::instance::Instance;
use crate::value::{NullId, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A homomorphism represented by its action on nulls (constants are fixed).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Homomorphism {
    map: BTreeMap<NullId, Value>,
}

impl Homomorphism {
    /// The identity homomorphism.
    pub fn identity() -> Homomorphism {
        Homomorphism::default()
    }

    /// Builds a homomorphism from explicit null bindings.
    pub fn from_bindings(map: impl IntoIterator<Item = (NullId, Value)>) -> Homomorphism {
        Homomorphism {
            map: map.into_iter().collect(),
        }
    }

    /// Where `v` is sent. Constants and unbound nulls map to themselves.
    pub fn apply_value(&self, v: Value) -> Value {
        match v {
            Value::Const(_) => v,
            Value::Null(n) => self.map.get(&n).copied().unwrap_or(v),
        }
    }

    /// The image `h(atom)`.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        atom.map_values(|v| self.apply_value(v))
    }

    /// The homomorphic image `h(I)`.
    pub fn apply(&self, inst: &Instance) -> Instance {
        inst.map_values(|v| self.apply_value(v))
    }

    /// Binds a null (overwrites any previous binding).
    pub fn bind(&mut self, n: NullId, v: Value) {
        self.map.insert(n, v);
    }

    /// The binding of `n`, if any.
    pub fn get(&self, n: NullId) -> Option<Value> {
        self.map.get(&n).copied()
    }

    /// Removes the binding of `n` (backtracking support).
    pub fn unbind(&mut self, n: NullId) {
        self.map.remove(&n);
    }

    /// Iterates over the explicit bindings.
    pub fn bindings(&self) -> impl Iterator<Item = (NullId, Value)> + '_ {
        self.map.iter().map(|(&n, &v)| (n, v))
    }

    /// True iff every explicit binding is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().all(|(&n, &v)| v == Value::Null(n))
    }

    /// Composes: `(g ∘ self)(x) = g(self(x))` on the bindings of `self`,
    /// extended with the bindings of `g` for nulls `self` leaves alone.
    pub fn then(&self, g: &Homomorphism) -> Homomorphism {
        let mut out = g.clone();
        for (n, v) in self.bindings() {
            out.map.insert(n, g.apply_value(v));
        }
        out
    }
}

impl fmt::Debug for Homomorphism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.bindings().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}↦{v}")?;
        }
        write!(f, "}}")
    }
}

/// Configurable homomorphism search from one instance into another.
pub struct HomFinder<'a> {
    from: &'a Instance,
    to: &'a Instance,
    forbidden: Option<&'a Atom>,
    nulls_to_nulls: bool,
    injective_on_nulls: bool,
    preset: Homomorphism,
}

impl<'a> HomFinder<'a> {
    /// A finder for homomorphisms `from → to` under the paper's (FKP)
    /// notion: nulls may be mapped to nulls or constants.
    pub fn new(from: &'a Instance, to: &'a Instance) -> HomFinder<'a> {
        HomFinder {
            from,
            to,
            forbidden: None,
            nulls_to_nulls: false,
            injective_on_nulls: false,
            preset: Homomorphism::identity(),
        }
    }

    /// Forbid one atom of the target: every image atom must differ from it.
    /// (Used by core computation to search `h: T → T∖{A}` without cloning.)
    pub fn forbid_atom(mut self, atom: &'a Atom) -> Self {
        self.forbidden = Some(atom);
        self
    }

    /// Require nulls to be mapped to nulls (Libkin's homomorphism variant).
    pub fn nulls_to_nulls(mut self) -> Self {
        self.nulls_to_nulls = true;
        self
    }

    /// Require the null images to be pairwise distinct (used for
    /// isomorphism search together with [`Self::nulls_to_nulls`]).
    pub fn injective_on_nulls(mut self) -> Self {
        self.injective_on_nulls = true;
        self
    }

    /// Pre-binds some nulls.
    pub fn preset(mut self, h: Homomorphism) -> Self {
        self.preset = h;
        self
    }

    /// Runs the search under `gov`, returning the first homomorphism
    /// found. The NP-hard search ticks once per search node and per
    /// candidate row, so fuel, deadline and cancellation interrupt it
    /// mid-backtrack; the partial search is then discarded and the
    /// `Interrupt` returned.
    pub fn find(self, gov: &Governor) -> Result<Option<Homomorphism>, Interrupt> {
        let mut found = None;
        self.run(gov, &mut |h| {
            found = Some(h.clone());
            false
        })?;
        Ok(found)
    }

    /// Enumerates homomorphisms under `gov`, calling `f` on each; `f`
    /// returns `false` to stop. Returns `Ok(false)` iff `f` stopped the
    /// enumeration, `Err` iff the governor tripped.
    pub fn for_each(
        self,
        gov: &Governor,
        f: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> Result<bool, Interrupt> {
        self.run(gov, f)
    }

    fn run(
        self,
        gov: &Governor,
        f: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> Result<bool, Interrupt> {
        // Fast failure: every relation of `from` must appear in `to` with
        // the same arity (unless `from`'s relation is empty).
        for rel in self.from.relations() {
            if self.from.rows_of_len(rel) > 0 {
                match self.to.arity_of(rel) {
                    Some(a) if a == self.from.arity_of(rel).unwrap() => {}
                    _ => return Ok(true),
                }
            }
        }
        let atoms: Vec<Atom> = self.from.atoms().collect();
        // Ground atoms are checked upfront; they constrain nothing.
        let mut pending: Vec<usize> = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            let img = self.preset.apply_atom(a);
            if img.is_ground() {
                if !self.to.contains(&img) || Some(&img) == self.forbidden {
                    return Ok(true);
                }
            } else {
                pending.push(i);
            }
        }
        let mut used_images: IdSet<Value> = IdSet::default();
        if self.injective_on_nulls {
            used_images.extend(self.preset.bindings().map(|(_, v)| v));
        }
        // The dense slab covers the id range of the nulls the search can
        // touch; a pathologically sparse range (huge span, few nulls)
        // falls back to the tree store rather than allocating the span.
        let mut ids: Vec<u32> = pending
            .iter()
            .flat_map(|&i| atoms[i].args.iter())
            .filter_map(|&v| match v {
                Value::Null(n) => Some(n.0),
                Value::Const(_) => None,
            })
            .chain(self.preset.bindings().map(|(n, _)| n.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let dense_range = match (ids.first(), ids.last()) {
            (Some(&lo), Some(&hi)) => {
                let span = (hi - lo) as usize + 1;
                (span <= ids.len() * 8 + 64).then_some((lo, span))
            }
            _ => None,
        };
        // A span per backtracking search groups the HomExtended events
        // it emits.
        let tracer = gov.tracer();
        let sp = tracer
            .enabled()
            .then(|| tracer.span("hom_search", gov.clock().now_ns()));
        let result = match dense_range {
            Some((base, span)) => {
                let mut assignment = DenseBindings::new(base, span);
                for (n, v) in self.preset.bindings() {
                    assignment.bind(n, v);
                }
                SearchState {
                    to: self.to,
                    forbidden: self.forbidden,
                    nulls_to_nulls: self.nulls_to_nulls,
                    injective_on_nulls: self.injective_on_nulls,
                    atoms: &atoms,
                    assignment,
                    used_images,
                    gov,
                }
                .solve(&mut pending, f)
            }
            None => SearchState {
                to: self.to,
                forbidden: self.forbidden,
                nulls_to_nulls: self.nulls_to_nulls,
                injective_on_nulls: self.injective_on_nulls,
                atoms: &atoms,
                assignment: self.preset,
                used_images,
                gov,
            }
            .solve(&mut pending, f),
        };
        if let Some(sp) = sp {
            sp.close(gov.clock().now_ns());
        }
        result
    }
}

/// The backtracker's mutable binding store. Two implementations: the
/// dense slab (hot path) and the public `BTreeMap` representation
/// (fallback for sparse null-id ranges). `freeze` materializes the
/// public representation per complete solution.
trait Bindings {
    fn get(&self, n: NullId) -> Option<Value>;
    fn bind(&mut self, n: NullId, v: Value);
    fn unbind(&mut self, n: NullId);
    fn freeze(&self) -> Homomorphism;
}

impl Bindings for Homomorphism {
    fn get(&self, n: NullId) -> Option<Value> {
        self.map.get(&n).copied()
    }

    fn bind(&mut self, n: NullId, v: Value) {
        self.map.insert(n, v);
    }

    fn unbind(&mut self, n: NullId) {
        self.map.remove(&n);
    }

    fn freeze(&self) -> Homomorphism {
        self.clone()
    }
}

/// Dense binding slab: slot `i` holds the image of null `base + i`.
struct DenseBindings {
    base: u32,
    slots: Vec<Option<Value>>,
}

impl DenseBindings {
    fn new(base: u32, span: usize) -> DenseBindings {
        DenseBindings {
            base,
            slots: vec![None; span],
        }
    }

    #[inline]
    fn idx(&self, n: NullId) -> usize {
        (n.0 - self.base) as usize
    }
}

impl Bindings for DenseBindings {
    #[inline]
    fn get(&self, n: NullId) -> Option<Value> {
        self.slots[self.idx(n)]
    }

    #[inline]
    fn bind(&mut self, n: NullId, v: Value) {
        let i = self.idx(n);
        self.slots[i] = Some(v);
    }

    #[inline]
    fn unbind(&mut self, n: NullId) {
        let i = self.idx(n);
        self.slots[i] = None;
    }

    fn freeze(&self) -> Homomorphism {
        Homomorphism::from_bindings(
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| (NullId(self.base + i as u32), v))),
        )
    }
}

struct SearchState<'a, B: Bindings> {
    to: &'a Instance,
    forbidden: Option<&'a Atom>,
    nulls_to_nulls: bool,
    injective_on_nulls: bool,
    atoms: &'a [Atom],
    assignment: B,
    used_images: IdSet<Value>,
    gov: &'a Governor,
}

impl<B: Bindings> SearchState<'_, B> {
    /// Pattern of an atom under the current assignment: bound positions are
    /// `Some`, unbound nulls are wildcards.
    fn pattern(&self, atom: &Atom) -> Vec<Option<Value>> {
        atom.args
            .iter()
            .map(|&v| match v {
                Value::Const(_) => Some(v),
                Value::Null(n) => self.assignment.get(n),
            })
            .collect()
    }

    fn candidate_count(&self, atom: &Atom, cap: usize) -> usize {
        let pat = self.pattern(atom);
        self.to.rows_matching(atom.rel, &pat).take(cap).count()
    }

    /// Enumerates all solutions, calling `f` per complete assignment;
    /// returns `Ok(false)` iff `f` stopped the enumeration, `Err` iff the
    /// governor tripped mid-search.
    fn solve(
        &mut self,
        pending: &mut Vec<usize>,
        f: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> Result<bool, Interrupt> {
        self.gov.check()?;
        if pending.is_empty() {
            // Nulls of `from` occurring in no atom (impossible for nulls
            // drawn from the instance) need no binding.
            return Ok(f(&self.assignment.freeze()));
        }
        // Fail-first: expand the pending atom with fewest candidates.
        let slot = pending
            .iter()
            .enumerate()
            .map(|(slot, &i)| (slot, self.candidate_count(&self.atoms[i], 16)))
            .min_by_key(|&(_, c)| c)
            .expect("pending is non-empty")
            .0;
        let chosen = pending.swap_remove(slot);
        let atom = &self.atoms[chosen];
        let pat = self.pattern(atom);
        let rows: Vec<Vec<Value>> = self
            .to
            .rows_matching(atom.rel, &pat)
            .map(|r| r.to_vec())
            .collect();
        let mut keep_going = Ok(true);
        for row in rows {
            if let Err(i) = self.gov.check() {
                keep_going = Err(i);
                break;
            }
            if let Some(fb) = self.forbidden {
                if fb.rel == atom.rel && *fb.args == row[..] {
                    continue;
                }
            }
            if let Some(newly) = self.try_unify(atom, &row) {
                let tracer = self.gov.tracer();
                if tracer.enabled() {
                    tracer.emit(
                        self.gov.clock().now_ns(),
                        dex_obs::EventKind::HomExtended {
                            depth: self.atoms.len() - pending.len(),
                        },
                    );
                }
                keep_going = self.solve(pending, f);
                self.undo(&newly);
                if !matches!(keep_going, Ok(true)) {
                    break;
                }
            }
        }
        pending.push(chosen);
        let last = pending.len() - 1;
        pending.swap(slot, last);
        keep_going
    }

    /// Attempts to extend the assignment so that `atom` maps onto `row`.
    /// Returns the newly bound nulls on success (for backtracking).
    fn try_unify(&mut self, atom: &Atom, row: &[Value]) -> Option<Vec<NullId>> {
        let mut newly: Vec<NullId> = Vec::new();
        for (&arg, &img) in atom.args.iter().zip(row) {
            let ok = match arg {
                Value::Const(_) => arg == img,
                Value::Null(n) => match self.assignment.get(n) {
                    Some(bound) => bound == img,
                    None => {
                        if (self.nulls_to_nulls && !img.is_null())
                            || (self.injective_on_nulls && self.used_images.contains(&img))
                        {
                            false
                        } else {
                            self.assignment.bind(n, img);
                            if self.injective_on_nulls {
                                self.used_images.insert(img);
                            }
                            newly.push(n);
                            true
                        }
                    }
                },
            };
            if !ok {
                self.undo(&newly);
                return None;
            }
        }
        Some(newly)
    }

    fn undo(&mut self, newly: &[NullId]) {
        for &n in newly {
            if self.injective_on_nulls {
                if let Some(v) = self.assignment.get(n) {
                    self.used_images.remove(&v);
                }
            }
            self.assignment.unbind(n);
        }
    }
}

/// Finds some homomorphism `from → to`, if one exists.
pub fn find_homomorphism(from: &Instance, to: &Instance) -> Option<Homomorphism> {
    HomFinder::new(from, to)
        .find(&Governor::unlimited())
        .expect("an unlimited governor never trips")
}

/// True iff a homomorphism `from → to` exists.
pub fn has_homomorphism(from: &Instance, to: &Instance) -> bool {
    find_homomorphism(from, to).is_some()
}

/// True iff the instances are homomorphically equivalent.
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    has_homomorphism(a, b) && has_homomorphism(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn find(finder: HomFinder<'_>) -> Option<Homomorphism> {
        finder.find(&Governor::unlimited()).unwrap()
    }

    #[test]
    fn identity_exists_into_self() {
        let i = Instance::from_atoms([Atom::of("E", vec![c("a"), n(1)])]);
        let h = find_homomorphism(&i, &i).unwrap();
        assert_eq!(h.apply(&i), i);
    }

    #[test]
    fn null_can_map_to_constant() {
        let from = Instance::from_atoms([Atom::of("E", vec![c("a"), n(1)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let h = find_homomorphism(&from, &to).unwrap();
        assert_eq!(h.apply_value(n(1)), c("b"));
    }

    #[test]
    fn constants_must_be_preserved() {
        let from = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("c")])]);
        assert!(!has_homomorphism(&from, &to));
    }

    #[test]
    fn shared_null_must_map_consistently() {
        // E(_1,_1) cannot map into E(a,b) but can map into E(a,a).
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(1)])]);
        let bad = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let good = Instance::from_atoms([Atom::of("E", vec![c("a"), c("a")])]);
        assert!(!has_homomorphism(&from, &bad));
        assert!(has_homomorphism(&from, &good));
    }

    #[test]
    fn paper_example_2_1_t1_not_universal() {
        // T1 contains E(c,_2): no homomorphism into T2 since T2's E-atoms
        // all start with a. (Constants c must be preserved.)
        let t1 = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("c"), n(2)]),
            Atom::of("F", vec![c("a"), c("d")]),
            Atom::of("G", vec![c("d"), n(3)]),
        ]);
        let t2 = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        assert!(!has_homomorphism(&t1, &t2));
        assert!(has_homomorphism(&t2, &t1));
    }

    #[test]
    fn chain_maps_into_cycle() {
        // A path of nulls maps into a 2-cycle of constants.
        let from = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(2), n(3)]),
            Atom::of("E", vec![n(3), n(4)]),
        ]);
        let to = Instance::from_atoms([
            Atom::of("E", vec![c("u"), c("v")]),
            Atom::of("E", vec![c("v"), c("u")]),
        ]);
        assert!(has_homomorphism(&from, &to));
    }

    #[test]
    fn odd_cycle_does_not_map_into_edge() {
        // Triangle (odd cycle) has no hom into a single undirected-ish edge
        // pair (2-colorability argument).
        let tri = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(2), n(3)]),
            Atom::of("E", vec![n(3), n(1)]),
        ]);
        let edge = Instance::from_atoms([
            Atom::of("E", vec![c("u"), c("v")]),
            Atom::of("E", vec![c("v"), c("u")]),
        ]);
        assert!(!has_homomorphism(&tri, &edge));
    }

    #[test]
    fn forbid_atom_blocks_the_only_match() {
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(2)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let forbidden = Atom::of("E", vec![c("a"), c("b")]);
        assert!(find(HomFinder::new(&from, &to).forbid_atom(&forbidden)).is_none());
    }

    #[test]
    fn nulls_to_nulls_restricts() {
        let from = Instance::from_atoms([Atom::of("E", vec![c("a"), n(1)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        assert!(has_homomorphism(&from, &to));
        assert!(find(HomFinder::new(&from, &to).nulls_to_nulls()).is_none());
    }

    #[test]
    fn injective_on_nulls_restricts() {
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(2)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![n(7), n(7)])]);
        assert!(has_homomorphism(&from, &to));
        assert!(find(HomFinder::new(&from, &to).injective_on_nulls()).is_none());
    }

    #[test]
    fn preset_bindings_are_respected() {
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(2)])]);
        let to = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("x"), c("y")]),
        ]);
        let mut preset = Homomorphism::identity();
        preset.bind(NullId(1), c("x"));
        let h = find(HomFinder::new(&from, &to).preset(preset)).unwrap();
        assert_eq!(h.apply_value(n(1)), c("x"));
        assert_eq!(h.apply_value(n(2)), c("y"));
    }

    #[test]
    fn hom_equivalence_of_core_and_padding() {
        let core = Instance::from_atoms([Atom::of("E", vec![c("a"), n(1)])]);
        let padded = Instance::from_atoms([
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("E", vec![c("a"), n(3)]),
        ]);
        assert!(hom_equivalent(&core, &padded));
    }

    #[test]
    fn composition_then() {
        let mut h = Homomorphism::identity();
        h.bind(NullId(1), n(2));
        let mut g = Homomorphism::identity();
        g.bind(NullId(2), c("a"));
        let hg = h.then(&g);
        assert_eq!(hg.apply_value(n(1)), c("a"));
        assert_eq!(hg.apply_value(n(2)), c("a"));
    }

    #[test]
    fn missing_relation_fails_fast() {
        let from = Instance::from_atoms([Atom::of("Z", vec![n(1)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        assert!(!has_homomorphism(&from, &to));
    }

    #[test]
    fn unlimited_search_ticks_the_governor() {
        let from = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(2), n(3)]),
        ]);
        let to = Instance::from_atoms([
            Atom::of("E", vec![c("u"), c("v")]),
            Atom::of("E", vec![c("v"), c("u")]),
        ]);
        let gov = Governor::unlimited();
        assert!(HomFinder::new(&from, &to).find(&gov).unwrap().is_some());
        assert!(gov.ticks() > 0);
    }

    #[test]
    fn governed_search_interrupts_on_fuel() {
        let from = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(2), n(3)]),
            Atom::of("E", vec![n(3), n(4)]),
        ]);
        let to = Instance::from_atoms([
            Atom::of("E", vec![c("u"), c("v")]),
            Atom::of("E", vec![c("v"), c("u")]),
        ]);
        let gov = Governor::unlimited().with_fuel(2);
        let err = HomFinder::new(&from, &to).find(&gov).unwrap_err();
        assert_eq!(err.reason, crate::govern::InterruptReason::Fuel);
    }

    #[test]
    fn sparse_tree_fallback_agrees_with_dense_slab() {
        // The same triangle twice: once over contiguous null ids (dense
        // slab) and once over ids spread across the u32 range (tree
        // fallback). Both searches must find the same images.
        let triangle = |ids: [u32; 3]| {
            Instance::from_atoms([
                Atom::of("E", vec![n(ids[0]), n(ids[1])]),
                Atom::of("E", vec![n(ids[1]), n(ids[2])]),
                Atom::of("E", vec![n(ids[2]), n(ids[0])]),
            ])
        };
        let to = Instance::from_atoms([
            Atom::of("E", vec![c("u"), c("v")]),
            Atom::of("E", vec![c("v"), c("w")]),
            Atom::of("E", vec![c("w"), c("u")]),
        ]);
        let dense_ids = [1, 2, 3];
        let sparse_ids = [1, 2_000_000_000, 4_000_000_000];
        let dense = find_homomorphism(&triangle(dense_ids), &to).unwrap();
        let sparse = find_homomorphism(&triangle(sparse_ids), &to).unwrap();
        for (d, s) in dense_ids.into_iter().zip(sparse_ids) {
            assert_eq!(dense.apply_value(n(d)), sparse.apply_value(n(s)));
        }
    }

    #[test]
    fn sparse_null_ids_fall_back_without_huge_allocation() {
        // Ids 1 and 3_000_000_000: the dense slab would span 3 G slots,
        // so the search must fall back to the tree store and still work.
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(3_000_000_000)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let h = find_homomorphism(&from, &to).unwrap();
        assert_eq!(h.apply_value(n(3_000_000_000)), c("b"));
    }

    #[test]
    fn empty_instance_maps_anywhere() {
        let empty = Instance::new();
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        assert!(has_homomorphism(&empty, &to));
        assert!(!has_homomorphism(&to, &empty));
    }
}
