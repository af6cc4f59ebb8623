//! Cores of instances (Section 2, [HN92], [FKP05]).
//!
//! A core of an instance `I` is a subinstance `J ⊆ I` such that there is a
//! homomorphism from `I` to `J`, but none from `J` to a proper subinstance
//! of `J`. Every finite instance has a core, unique up to renaming of nulls.
//!
//! The algorithm here is the classical retract iteration: repeatedly look
//! for an atom `A` such that some homomorphism `h: I → I∖{A}` exists, and
//! replace `I` by `h(I)`. We exploit the *block decomposition* used by
//! Fagin, Kolaitis and Popa: nulls co-occurring in atoms form blocks, and a
//! homomorphism into `I∖{A}` exists iff one exists that acts only on the
//! connected component of atoms sharing `A`'s blocks and is the identity
//! everywhere else — so each search is local to a component.

use crate::atom::Atom;
use crate::govern::{Governor, Interrupt};
use crate::homomorphism::{HomFinder, Homomorphism};
use crate::instance::Instance;
use crate::value::NullId;
use dex_par::{Cost, Pool};
use std::collections::{BTreeMap, BTreeSet};

/// Union-find over null ids.
struct UnionFind {
    parent: BTreeMap<NullId, NullId>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            parent: BTreeMap::new(),
        }
    }

    fn find(&mut self, x: NullId) -> NullId {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: NullId, b: NullId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// The blocks of `inst`: connected components of the graph on `Null(inst)`
/// where two nulls are adjacent iff they co-occur in some atom.
pub fn null_blocks(inst: &Instance) -> Vec<BTreeSet<NullId>> {
    let mut uf = UnionFind::new();
    for atom in inst.atoms() {
        let nulls: Vec<NullId> = atom.nulls().collect();
        for w in nulls.windows(2) {
            uf.union(w[0], w[1]);
        }
        if let Some(&first) = nulls.first() {
            uf.find(first);
        }
    }
    let mut blocks: BTreeMap<NullId, BTreeSet<NullId>> = BTreeMap::new();
    let keys: Vec<NullId> = uf.parent.keys().copied().collect();
    for n in keys {
        let root = uf.find(n);
        blocks.entry(root).or_default().insert(n);
    }
    blocks.into_values().collect()
}

/// Groups the non-ground atoms of `inst` into connected components of the
/// "shares a null" graph. Ground atoms belong to no component.
fn atom_components(inst: &Instance) -> Vec<Vec<Atom>> {
    let blocks = null_blocks(inst);
    let mut block_of: BTreeMap<NullId, usize> = BTreeMap::new();
    for (i, b) in blocks.iter().enumerate() {
        for &n in b {
            block_of.insert(n, i);
        }
    }
    let mut comps: Vec<Vec<Atom>> = vec![Vec::new(); blocks.len()];
    for atom in inst.atoms() {
        let first_null = atom.nulls().next();
        if let Some(n) = first_null {
            comps[block_of[&n]].push(atom);
        }
    }
    comps.retain(|c| !c.is_empty());
    comps
}

/// Work-size hint for one retract candidate: a hom search local to a
/// component but screening against the whole instance — grows with the
/// instance, so paper-example-sized cores (µs of total work) stay
/// inline while wide components of large instances fan out.
fn retract_cost(inst: &Instance) -> Cost {
    Cost::EstimateNs(inst.len() as u64)
}

/// Applies the winning retract homomorphism: remap the component, keep
/// the rest of the instance untouched.
fn apply_retract(inst: &Instance, comp_inst: &Instance, h: &Homomorphism) -> Instance {
    let mut out = Instance::new();
    for a in inst.atoms() {
        if comp_inst.contains(&a) {
            out.insert(h.apply_atom(&a));
        } else {
            out.insert(a);
        }
    }
    debug_assert!(out.len() < inst.len());
    debug_assert!(out.is_subinstance_of(inst));
    out
}

/// The first retract of `inst` in candidate order — components in block
/// order, atoms in component order — as the winning component plus a
/// homomorphism `inst → inst∖{A}` that is the identity outside it, or the
/// interrupt that stopped the search at that candidate.
///
/// Components are walked lazily: each component instance is built only
/// when the walk reaches it, and the walk stops at the first component
/// with a retract. Within a component the candidate atoms go through one
/// [`Pool::find_first`], whose first-in-submission-order winner is the
/// sequential winner, so the step is identical for any thread count.
fn first_retract(
    inst: &Instance,
    gov: &Governor,
    pool: &Pool,
) -> Option<(Instance, Result<Homomorphism, Interrupt>)> {
    atom_components(inst).into_iter().find_map(|comp| {
        let comp_inst = Instance::from_atoms(comp.iter().cloned());
        let (_, found) = pool.find_first(&comp, retract_cost(inst), |_, atom| {
            HomFinder::new(&comp_inst, inst)
                .forbid_atom(atom)
                .find_governed(gov)
                .transpose()
        })?;
        Some((comp_inst, found))
    })
}

/// One retract step: the strictly smaller image `h(inst)` of the first
/// retract found, `Ok(None)` at a fixpoint (`inst` is a core), or `Err`
/// when the governor interrupted the search before any retract of
/// `inst` was found.
fn retract_step(
    inst: &Instance,
    gov: &Governor,
    pool: &Pool,
) -> Result<Option<Instance>, Interrupt> {
    // One span per retract step groups its candidate hom searches.
    let sp = gov.tracer().span("retract_step", gov.clock().now_ns());
    let found = first_retract(inst, gov, pool);
    sp.close(gov.clock().now_ns());
    let Some((comp_inst, h)) = found else {
        return Ok(None);
    };
    let out = apply_retract(inst, &comp_inst, &h?);
    let tracer = gov.tracer();
    if tracer.enabled() {
        tracer.emit(
            gov.clock().now_ns(),
            dex_obs::EventKind::RetractFound {
                atoms_before: inst.len(),
                atoms_after: out.len(),
            },
        );
    }
    Ok(Some(out))
}

/// Computes the core of `inst`.
pub fn core(inst: &Instance) -> Instance {
    core_parallel_governed(inst, &Governor::unlimited(), &Pool::seq()).instance
}

/// True iff `inst` is its own core (no proper retract exists).
pub fn is_core(inst: &Instance) -> bool {
    matches!(
        retract_step(inst, &Governor::unlimited(), &Pool::seq()),
        Ok(None)
    )
}

/// Whether a governed core computation ran to the fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreStatus {
    /// The retract iteration reached a fixpoint: the result is the core.
    Minimal,
    /// The governor tripped mid-iteration: the result is the best (i.e.
    /// smallest) retract found so far — a valid hom-equivalent
    /// subinstance of the input, but possibly larger than the core.
    MaybeNotMinimal(Interrupt),
}

/// A governed core result: the instance plus how far minimization got.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GovernedCore {
    pub instance: Instance,
    pub status: CoreStatus,
}

impl GovernedCore {
    /// True iff the result is guaranteed to be the core.
    pub fn is_minimal(&self) -> bool {
        self.status == CoreStatus::Minimal
    }
}

/// The core of `inst` under a [`Governor`], with the retract candidates
/// of each null component searched on `pool` (one governor budget
/// shared by all workers via its atomic counters). Completed runs are byte-identical
/// for any thread count. Interruption degrades gracefully instead of
/// erroring: each completed retract step strictly shrinks the instance
/// and yields a hom-equivalent subinstance, so the best retract so far
/// is returned, tagged [`CoreStatus::MaybeNotMinimal`].
pub fn core_parallel_governed(inst: &Instance, gov: &Governor, pool: &Pool) -> GovernedCore {
    let mut t = inst.clone();
    loop {
        let status = match retract_step(&t, gov, pool) {
            Ok(Some(smaller)) => {
                t = smaller;
                continue;
            }
            Ok(None) => CoreStatus::Minimal,
            Err(i) => CoreStatus::MaybeNotMinimal(i),
        };
        return GovernedCore {
            instance: t,
            status,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphism::hom_equivalent;
    use crate::value::Value;

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn blocks_group_cooccurring_nulls() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(3), n(4)]),
            Atom::of("F", vec![n(2), n(3)]),
            Atom::of("G", vec![n(9)]),
        ]);
        let blocks = null_blocks(&i);
        assert_eq!(blocks.len(), 2);
        let sizes: Vec<usize> = blocks.iter().map(BTreeSet::len).collect();
        assert!(sizes.contains(&4) && sizes.contains(&1));
    }

    #[test]
    fn ground_instance_is_its_own_core() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("b"), c("a")]),
        ]);
        assert!(is_core(&i));
        assert_eq!(core(&i), i);
    }

    #[test]
    fn redundant_null_atom_is_folded_away() {
        // E(a,b) ∧ E(a,_1): _1 folds onto b.
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
        ]);
        let k = core(&i);
        assert_eq!(
            k,
            Instance::from_atoms([Atom::of("E", vec![c("a"), c("b")])])
        );
    }

    #[test]
    fn paper_example_2_1_core_is_t3() {
        // Core of T2 = {E(a,b), E(a,_1), E(a,_2), F(a,_3), G(_3,_4)}
        // is (up to renaming) T3 = {E(a,b), F(a,_1), G(_1,_2)}.
        let t2 = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        let k = core(&t2);
        assert_eq!(k.len(), 3);
        assert!(k.contains(&Atom::of("E", vec![c("a"), c("b")])));
        assert_eq!(k.rows_of_len("F".into()), 1);
        assert_eq!(k.rows_of_len("G".into()), 1);
        assert!(hom_equivalent(&k, &t2));
    }

    #[test]
    fn linked_nulls_are_not_folded() {
        // F(a,_1) ∧ G(_1,_2): nothing redundant; already a core.
        let i = Instance::from_atoms([
            Atom::of("F", vec![c("a"), n(1)]),
            Atom::of("G", vec![n(1), n(2)]),
        ]);
        assert!(is_core(&i));
    }

    #[test]
    fn core_of_null_cycles_folds_to_shortest() {
        // Two disjoint null 2-cycles fold into one.
        let i = Instance::from_atoms([
            Atom::of("E", vec![n(1), n(2)]),
            Atom::of("E", vec![n(2), n(1)]),
            Atom::of("E", vec![n(3), n(4)]),
            Atom::of("E", vec![n(4), n(3)]),
        ]);
        let k = core(&i);
        assert_eq!(k.len(), 2);
        assert!(hom_equivalent(&k, &i));
    }

    #[test]
    fn core_is_hom_equivalent_and_subinstance() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![n(2), n(3)]),
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("F", vec![c("b"), c("d")]),
        ]);
        let k = core(&i);
        assert!(k.is_subinstance_of(&i));
        assert!(hom_equivalent(&k, &i));
        assert!(is_core(&k));
        // E(a,_1) folds to E(a,b); F-linked _2,_3 fold to b,d.
        assert_eq!(k.len(), 2);
    }

    #[test]
    fn governed_core_matches_ungoverned_when_not_tripped() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        let gov = Governor::unlimited();
        let gc = core_parallel_governed(&i, &gov, &Pool::seq());
        assert!(gc.is_minimal());
        assert_eq!(gc.instance, core(&i));
        assert!(gov.ticks() > 0, "the plain core runs the governed search");
    }

    #[test]
    fn interrupted_core_returns_best_retract_so_far() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        let gov = Governor::unlimited().with_fuel(3);
        let gc = core_parallel_governed(&i, &gov, &Pool::seq());
        let CoreStatus::MaybeNotMinimal(int) = &gc.status else {
            panic!("tiny fuel must interrupt: {:?}", gc.status)
        };
        assert_eq!(int.reason, crate::govern::InterruptReason::Fuel);
        // The degraded result is still a sound retract of the input.
        assert!(gc.instance.is_subinstance_of(&i));
        assert!(hom_equivalent(&gc.instance, &i));
    }

    #[test]
    fn parallel_core_is_byte_identical_across_thread_counts() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
            Atom::of("E", vec![n(5), n(6)]),
            Atom::of("E", vec![n(6), n(5)]),
            Atom::of("E", vec![n(7), n(8)]),
            Atom::of("E", vec![n(8), n(7)]),
        ]);
        let seq = core(&i);
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads).with_threshold_ns(0);
            let par = core_parallel_governed(&i, &Governor::unlimited(), &pool);
            assert_eq!(par.instance, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_governed_core_completes_like_sequential() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        for threads in [1, 4] {
            let gov = Governor::unlimited();
            let gc = core_parallel_governed(&i, &gov, &Pool::new(threads));
            assert!(gc.is_minimal());
            assert_eq!(gc.instance, core(&i));
        }
    }

    #[test]
    fn parallel_governed_core_interrupts_with_same_reason() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), c("b")]),
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
            Atom::of("F", vec![c("a"), n(3)]),
            Atom::of("G", vec![n(3), n(4)]),
        ]);
        for threads in [1, 2, 8] {
            let gov = Governor::unlimited().with_fault(3, crate::govern::InterruptReason::Memory);
            let gc = core_parallel_governed(&i, &gov, &Pool::new(threads));
            let CoreStatus::MaybeNotMinimal(int) = &gc.status else {
                panic!("fault must interrupt: {:?}", gc.status)
            };
            assert_eq!(int.reason, crate::govern::InterruptReason::Memory);
            assert!(gc.instance.is_subinstance_of(&i));
            assert!(hom_equivalent(&gc.instance, &i));
        }
    }

    #[test]
    fn idempotent() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![c("a"), n(1)]),
            Atom::of("E", vec![c("a"), n(2)]),
        ]);
        let k = core(&i);
        assert_eq!(core(&k), k);
    }
}
