//! Homomorphisms between instances (Section 2).
//!
//! A homomorphism `h: I → J` maps `Dom(I) → Dom(J)` such that every atom
//! `R(ū) ∈ I` has `R(h(ū)) ∈ J` and `h(c) = c` for every constant `c`.
//! This is the notion of \[FKP05\] used by the paper (nulls may be mapped to
//! nulls *or* constants); the more restrictive Libkin variant (nulls map to
//! nulls) is available via [`HomFinder::nulls_to_nulls`].
//!
//! The search runs on the one backtracking kernel ([`crate::join`]): the
//! atoms of the left instance are the pattern, its nulls the slots to
//! bind. A search renumbers those nulls once into dense slots, so one
//! slab of bindings serves any spread of null ids; the public
//! [`Homomorphism`] is built only per complete solution. The builder's
//! restrictions are the binder's filters: [`HomFinder::forbid_atom`]
//! drops a candidate row, [`HomFinder::nulls_to_nulls`] and
//! [`HomFinder::injective_on_nulls`] refuse a binding.

use crate::atom::Atom;
use crate::govern::{Governor, Interrupt};
use crate::hash::IdSet;
use crate::instance::Instance;
use crate::join;
use crate::symbol::Symbol;
use crate::value::{NullId, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A homomorphism represented by its action on nulls (constants are fixed).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Homomorphism {
    map: BTreeMap<NullId, Value>,
}

impl Homomorphism {
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

    /// Iterates over the explicit bindings.
    pub fn bindings(&self) -> impl Iterator<Item = (NullId, Value)> + '_ {
        self.map.iter().map(|(&n, &v)| (n, v))
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
        let Some(pattern) = Prepared::new(self.from, self.to) else {
            return Ok(true);
        };
        if self.forbidden.is_some_and(|fb| pattern.holds_ground(fb)) {
            return Ok(true);
        }
        let mut binder = pattern.binder(gov);
        binder.forbidden = self.forbidden;
        binder.nulls_to_nulls = self.nulls_to_nulls;
        binder.injective_on_nulls = self.injective_on_nulls;
        pattern.run(&mut binder, f)
    }
}

/// The first homomorphism `from → to` whose image avoids one atom of
/// `forbid`, trying the atoms in order, under the paper's notion: what
/// `HomFinder::new(from, to).forbid_atom(a).find(gov)` finds for the
/// first `a` with one. The pattern is prepared once for all the
/// searches: ground atoms checked, nulls renumbered and bindings
/// allocated. `None` if no atom has one; an interrupt stops at once.
pub(crate) fn find_avoiding_any<'b>(
    from: &Instance,
    to: &Instance,
    forbid: impl IntoIterator<Item = &'b Atom>,
    gov: &Governor,
) -> Option<Result<Homomorphism, Interrupt>> {
    let pattern = Prepared::new(from, to)?;
    let mut binder = pattern.binder(gov);
    forbid.into_iter().find_map(|a| {
        if pattern.holds_ground(a) {
            return None;
        }
        binder.forbidden = Some(a);
        let mut found = None;
        let run = pattern.run(&mut binder, &mut |h| {
            found = Some(h.clone());
            false
        });
        run.map(|_| found).transpose()
    })
}

/// The pattern of a search `from → to`, prepared once for any number of
/// searches: the non-ground atoms of `from`, each null renumbered to its
/// slot (its rank among the pattern's nulls).
struct Prepared<'a> {
    from: &'a Instance,
    to: &'a Instance,
    atoms: Vec<Atom>,
    nulls: Vec<NullId>,
}

impl<'a> Prepared<'a> {
    /// `None` if no homomorphism `from → to` exists whatever the
    /// restrictions: a relation of `from` is missing from `to` or used
    /// there at another arity, or a ground atom of `from` is not in `to`.
    fn new(from: &'a Instance, to: &'a Instance) -> Option<Prepared<'a>> {
        if from
            .relations()
            .any(|rel| to.arity_of(rel) != from.arity_of(rel))
        {
            return None;
        }
        // Ground atoms are checked upfront; they constrain nothing.
        let mut atoms: Vec<Atom> = Vec::new();
        for a in from.atoms() {
            if !a.is_ground() {
                atoms.push(a);
            } else if !to.contains(&a) {
                return None;
            }
        }
        let mut nulls: Vec<NullId> = atoms.iter().flat_map(Atom::nulls).collect();
        nulls.sort_unstable();
        nulls.dedup();
        for v in atoms.iter_mut().flat_map(|a| a.args.iter_mut()) {
            if let Value::Null(n) = *v {
                let slot = nulls.binary_search(&n).expect("every null collected");
                *v = Value::Null(NullId(slot as u32));
            }
        }
        Some(Prepared {
            from,
            to,
            atoms,
            nulls,
        })
    }

    /// True iff `atom` is a ground atom of `from`: its image is itself,
    /// so no search forbidding it finds anything.
    fn holds_ground(&self, atom: &Atom) -> bool {
        atom.is_ground() && self.from.contains(atom)
    }

    /// A binder with every slot unbound and no restriction.
    fn binder<'b>(&self, gov: &'b Governor) -> NullMap<'b> {
        NullMap {
            slab: vec![None; self.nulls.len()],
            trail: Vec::with_capacity(self.nulls.len()),
            used: IdSet::default(),
            nulls_to_nulls: false,
            injective_on_nulls: false,
            forbidden: None,
            gov,
            interrupt: None,
        }
    }

    /// One search under `binder`, calling `f` on each homomorphism.
    /// Every binding is undone when it returns, so the binder serves the
    /// next search as it is.
    fn run(
        &self,
        binder: &mut NullMap<'_>,
        f: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> Result<bool, Interrupt> {
        let mut pending: Vec<usize> = (0..self.atoms.len()).collect();
        // A span per backtracking search groups the HomExtended events
        // it emits.
        let (gov, nulls) = (binder.gov, &self.nulls);
        let tracer = gov.tracer();
        let sp = tracer
            .enabled()
            .then(|| tracer.span("hom_search", gov.clock().now_ns()));
        let finished = join::search(self.to, &self.atoms, &mut pending, binder, &mut |b| {
            f(&Homomorphism::from_bindings(
                nulls
                    .iter()
                    .zip(&b.slab)
                    .map(|(&n, v)| (n, v.expect("every slot bound"))),
            ))
        });
        if let Some(sp) = sp {
            sp.close(gov.clock().now_ns());
        }
        binder.interrupt.take().map_or(Ok(finished), Err)
    }
}

/// The homomorphism search's binder: slot `i` of `slab` holds the image
/// of the `i`-th null of the pattern, and `trail` the slots bound on the
/// current path.
struct NullMap<'a> {
    slab: Vec<Option<Value>>,
    trail: Vec<usize>,
    /// The images bound so far, kept only when injective.
    used: IdSet<Value>,
    nulls_to_nulls: bool,
    injective_on_nulls: bool,
    forbidden: Option<&'a Atom>,
    gov: &'a Governor,
    interrupt: Option<Interrupt>,
}

impl NullMap<'_> {
    /// Ticks the governor, keeping its interrupt; `false` stops.
    fn check(&mut self) -> bool {
        match self.gov.check() {
            Ok(()) => true,
            Err(i) => {
                self.interrupt = Some(i);
                false
            }
        }
    }
}

impl join::Binder<Value> for NullMap<'_> {
    fn probe_value(&self, t: Value) -> Option<Value> {
        match t {
            Value::Const(_) => Some(t),
            Value::Null(slot) => self.slab[slot.0 as usize],
        }
    }

    fn unify(&mut self, t: Value, v: Value) -> bool {
        let Value::Null(slot) = t else {
            return t == v;
        };
        let slot = slot.0 as usize;
        if let Some(bound) = self.slab[slot] {
            return bound == v;
        }
        if (self.nulls_to_nulls && !v.is_null())
            || (self.injective_on_nulls && !self.used.insert(v))
        {
            return false;
        }
        self.slab[slot] = Some(v);
        self.trail.push(slot);
        true
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            let v = self.slab[slot].take().expect("trailed slots are bound");
            if self.injective_on_nulls {
                self.used.remove(&v);
            }
        }
    }

    fn enter(&mut self, depth: usize) -> bool {
        let tracer = self.gov.tracer();
        if depth > 0 && tracer.enabled() {
            tracer.emit(
                self.gov.clock().now_ns(),
                dex_obs::EventKind::HomExtended { depth },
            );
        }
        self.check()
    }

    fn tick(&mut self) -> bool {
        self.check()
    }

    fn admit(&self, rel: Symbol, row: &[Value]) -> bool {
        self.forbidden
            .is_none_or(|fb| fb.rel != rel || *fb.args != *row)
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
    fn sparse_null_ids_find_the_images_dense_ids_find() {
        // The same triangle twice: once over contiguous null ids and once
        // over ids spread across the u32 range. Both renumber into the
        // same three slots, so both searches find the same images.
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
    fn sparse_null_ids_need_no_span_sized_allocation() {
        // Ids 1 and 3_000_000_000: a slab indexed by null id would span
        // 3 G slots; the search binds two slots and still works.
        let from = Instance::from_atoms([Atom::of("E", vec![n(1), n(3_000_000_000)])]);
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        let h = find_homomorphism(&from, &to).unwrap();
        assert_eq!(h.apply_value(n(3_000_000_000)), c("b"));
    }

    #[test]
    fn one_prepared_pattern_finds_what_a_finder_per_atom_finds() {
        // The retract searches of a core: each atom of `t`'s component
        // forbidden in turn, from one prepared pattern.
        let t = Instance::from_atoms([
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("E", vec![n(2), n(3)]),
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("F", vec![n(3)]),
            Atom::of("F", vec![c("b")]),
        ]);
        let per_atom = |from: &Instance, forbid: &[Atom], gov: &Governor| {
            forbid.iter().find_map(|a| {
                HomFinder::new(from, &t)
                    .forbid_atom(a)
                    .find(gov)
                    .transpose()
            })
        };
        let atoms: Vec<Atom> = t.atoms().collect();
        for k in 0..atoms.len() {
            let forbid = &atoms[k..];
            for from in [t.clone(), Instance::from_atoms(atoms[k..].iter().cloned())] {
                let gov = Governor::unlimited();
                let once = find_avoiding_any(&from, &t, forbid, &gov).map(Result::unwrap);
                let each = per_atom(&from, forbid, &gov).map(Result::unwrap);
                assert_eq!(once, each, "forbidding {forbid:?} from {from:?}");
            }
        }
        // Nothing to find: a relation `t` lacks.
        let stranger = Instance::from_atoms([Atom::of("Z", vec![n(1)])]);
        let gov = Governor::unlimited();
        assert!(find_avoiding_any(&stranger, &t, &atoms, &gov).is_none());
        // An interrupt ends the searches at once.
        let gov = Governor::unlimited().with_fuel(1);
        let err = find_avoiding_any(&t, &t, &atoms, &gov)
            .unwrap()
            .unwrap_err();
        assert_eq!(err.reason, crate::govern::InterruptReason::Fuel);
    }

    #[test]
    fn empty_instance_maps_anywhere() {
        let empty = Instance::new();
        let to = Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])]);
        assert!(has_homomorphism(&empty, &to));
        assert!(!has_homomorphism(&to, &empty));
    }
}
