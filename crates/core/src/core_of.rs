//! Cores of instances (Section 2, \[HN92\], \[FKP05\]).
//!
//! A core of an instance `I` is a subinstance `J ⊆ I` such that there is a
//! homomorphism from `I` to `J`, but none from `J` to a proper subinstance
//! of `J`. Every finite instance has a core, unique up to renaming of nulls.
//!
//! The algorithm is the retract iteration of Fagin, Kolaitis and Popa, run
//! as a worklist over *null components* (the non-ground atoms connected by
//! shared nulls): `T → T∖{A}` has a homomorphism iff one moves only the
//! nulls of `A`'s component `C`, so each search is `C → T∖{A}`. The
//! components are computed once. A pass searches every pending component
//! against the same `T`, then applies the retracts in component order, in
//! place: a retract `h` maps `T` onto `T∖(C∖h(C))`, so only `C∖h(C)` is
//! removed, and only the survivors `C∩h(C)` are re-split and searched in
//! the next pass — the removed atoms carry no other component's nulls. A
//! retract whose image lost an atom earlier in the pass is searched anew
//! at once. A component found retract-free is never searched again: `T`
//! only shrinks, and no homomorphism into `T∖{A}` means none into a
//! subinstance of it.
//!
//! Before the first pass, a *rigid pass* ([`rigid_nulls`]) computes nulls
//! that every endomorphism of `T` fixes. An atom `A` whose *skeleton* —
//! its constants, its rigid nulls, and its remaining nulls as wildcards
//! kept equal where they repeat — matches no other row of `T` must map to
//! itself under every endomorphism `h`: `h(A)` lies in `T` and matches the
//! skeleton. So `A`'s nulls are rigid too, and the atoms holding them are
//! probed again, up to a fixpoint. A search `C → T∖{A}` extends by the
//! identity to an endomorphism of `T`, so it fails whenever `A`'s nulls
//! are all rigid: such atoms are skipped as forbidden atoms, and a
//! component of such atoms is settled retract-free without a search. The
//! pass runs once per core: a retract `h` of `T` onto `T'` fixes the rigid
//! nulls, and for every endomorphism `g` of `T'`, `g∘h` is one of `T`, so
//! `g` fixes every rigid null left in `T'`. The pass only removes searches
//! that must fail; cores and retracts are those of the search alone.

use crate::atom::Atom;
use crate::govern::{Governor, Interrupt};
use crate::hash::{IdMap, IdSet};
use crate::homomorphism::{HomFinder, Homomorphism};
use crate::instance::Instance;
use crate::unionfind::ValueUnionFind;
use crate::value::{NullId, Value};
use dex_obs::EventKind;
use dex_par::{Cost, Pool};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

/// The blocks of `inst`: connected components of the graph on `Null(inst)`
/// where two nulls are adjacent iff they co-occur in some atom.
pub fn null_blocks(inst: &Instance) -> Vec<BTreeSet<NullId>> {
    let nulls = |c: &Vec<Atom>| c.iter().flat_map(Atom::nulls).collect();
    atom_components(inst.atoms().collect())
        .iter()
        .map(nulls)
        .collect()
}

/// The null components of `atoms`: the non-ground ones grouped by block,
/// ordered by each block's smallest null. Ground atoms belong to none.
fn atom_components(atoms: Vec<Atom>) -> Vec<Vec<Atom>> {
    let mut uf = ValueUnionFind::new();
    for atom in &atoms {
        let nulls: Vec<Value> = atom.args.iter().copied().filter(Value::is_null).collect();
        for w in nulls.windows(2) {
            uf.union(w[0], w[1]).expect("nulls never conflict");
        }
    }
    let mut comps: BTreeMap<Value, Vec<Atom>> = BTreeMap::new();
    for atom in atoms {
        let first_null = atom.args.iter().copied().find(Value::is_null);
        if let Some(n) = first_null {
            comps.entry(uf.find(n)).or_default().push(atom);
        }
    }
    comps.into_values().collect()
}

/// Work-size hint for one component's retract search: local to the
/// component but screening against the whole instance — grows with the
/// instance, so paper-example-sized cores (µs of total work) stay
/// inline while passes over many components of large instances fan out.
fn retract_cost(t: &Instance) -> Cost {
    Cost::EstimateNs(t.len() as u64)
}

/// The nulls of `inst` that every endomorphism of `inst` fixes, as far
/// as the rigid pass (module doc) finds them. Ticks `gov` once per probe.
pub fn rigid_nulls(inst: &Instance, gov: &Governor) -> Result<IdSet<NullId>, Interrupt> {
    rigid_pass(&atom_components(inst.atoms().collect()), inst, gov)
}

/// The rigid pass over the non-ground atoms of `t`, given as its null
/// components: a worklist of atoms, each probed through the position
/// index for one other row matching its skeleton. An atom found unique
/// makes its nulls rigid and re-queues the atoms holding them; a unique
/// atom stays unique, so it is never probed again.
fn rigid_pass(
    comps: &[Vec<Atom>],
    t: &Instance,
    gov: &Governor,
) -> Result<IdSet<NullId>, Interrupt> {
    let atoms: Vec<&Atom> = comps.iter().flatten().collect();
    let mut holding: IdMap<NullId, Vec<usize>> = IdMap::default();
    for (i, a) in atoms.iter().enumerate() {
        for n in a.nulls() {
            let at = holding.entry(n).or_default();
            if at.last() != Some(&i) {
                at.push(i);
            }
        }
    }
    let mut rigid = IdSet::default();
    let mut queued = vec![true; atoms.len()];
    let mut unique = vec![false; atoms.len()];
    let mut queue: Vec<usize> = (0..atoms.len()).rev().collect();
    let mut pattern = Vec::new();
    while let Some(i) = queue.pop() {
        queued[i] = false;
        gov.check()?;
        let a = atoms[i];
        pattern.clear();
        pattern.extend(a.args.iter().map(|&v| match v.as_null() {
            Some(n) if !rigid.contains(&n) => None,
            _ => Some(v),
        }));
        // A free null takes one value at every position that holds it.
        let keeps_repeats = |row: &[Value]| {
            a.args.iter().zip(row).zip(&pattern).all(|((v, r), p)| {
                p.is_some() || a.args.iter().zip(row).all(|(w, s)| w != v || s == r)
            })
        };
        let other = t
            .rows_matching(a.rel, &pattern)
            .any(|row| row != &a.args[..] && keeps_repeats(row));
        if other {
            continue;
        }
        unique[i] = true;
        for n in a.nulls() {
            if rigid.insert(n) {
                for &k in &holding[&n] {
                    if !unique[k] && !queued[k] {
                        queued[k] = true;
                        queue.push(k);
                    }
                }
            }
        }
    }
    Ok(rigid)
}

/// True iff every null of `a` is rigid: `a` is fixed by every
/// endomorphism, so no retract search may forbid it.
fn is_rigid(a: &Atom, rigid: &IdSet<NullId>) -> bool {
    a.nulls().all(|n| rigid.contains(&n))
}

/// Drops the components whose atoms are all rigid (retract-free without
/// a search), returning how many were dropped.
fn settle_rigid(pending: &mut Vec<Vec<Atom>>, rigid: &IdSet<NullId>) -> usize {
    let before = pending.len();
    pending.retain(|comp| !comp.iter().all(|a| is_rigid(a, rigid)));
    before - pending.len()
}

/// A homomorphism `comp → t∖{A}` for the first atom `A` of `comp` that
/// has one (identity outside `comp`), `None` if there is none. Rigid
/// atoms have none and are skipped. The component's instance lives only
/// as long as its search.
fn component_retract(
    comp: &[Atom],
    t: &Instance,
    rigid: &IdSet<NullId>,
    gov: &Governor,
) -> Option<Result<Homomorphism, Interrupt>> {
    let from = Instance::from_atoms(comp.iter().cloned());
    comp.iter().filter(|a| !is_rigid(a, rigid)).find_map(|a| {
        HomFinder::new(&from, t)
            .forbid_atom(a)
            .find(gov)
            .transpose()
    })
}

/// One pass: every pending component's retract search against the same
/// `t`, in submission order, so a pass is identical for any thread count.
/// Searches not started before an interrupt are skipped (`None`); the
/// caller stops at the interrupt, so none is taken for retract-free.
fn search_pass(
    pending: &[Vec<Atom>],
    t: &Instance,
    rigid: &IdSet<NullId>,
    gov: &Governor,
    pool: &Pool,
) -> Vec<Option<Result<Homomorphism, Interrupt>>> {
    let sp = gov.tracer().span("retract_step", gov.clock().now_ns());
    let tripped = AtomicBool::new(false);
    let found = pool.map(pending, retract_cost(t), |_, comp| {
        if tripped.load(Ordering::Relaxed) {
            return None;
        }
        let found = component_retract(comp, t, rigid, gov);
        tripped.fetch_or(matches!(found, Some(Err(_))), Ordering::Relaxed);
        found
    });
    sp.close(gov.clock().now_ns());
    found
}

/// Applies `found`, `comp`'s search result, to `t` in place: a retract `h`
/// removes `comp∖h(comp)` (`h(comp)` already lies in `t`), and the
/// survivors' components go on `next`. When an earlier retract of the pass
/// removed part of `h(comp)`, `comp` is searched again against the current
/// `t` at once; re-queueing it would fold a row of isomorphic components
/// one per pass.
fn settle(
    t: &mut Instance,
    comp: Vec<Atom>,
    mut found: Option<Result<Homomorphism, Interrupt>>,
    rigid: &IdSet<NullId>,
    gov: &Governor,
    next: &mut Vec<Vec<Atom>>,
    searched: &mut usize,
) -> Result<(), Interrupt> {
    while let Some(h) = found.transpose()? {
        let image: Instance = comp.iter().map(|a| h.apply_atom(a)).collect();
        if image.is_subinstance_of(t) {
            let atoms_before = t.len();
            let (survivors, removed): (Vec<_>, Vec<_>) =
                comp.into_iter().partition(|a| image.contains(a));
            for a in &removed {
                t.remove(a);
            }
            if gov.tracer().enabled() {
                let atoms_after = t.len();
                let kind = EventKind::RetractFound {
                    atoms_before,
                    atoms_after,
                };
                gov.tracer().emit(gov.clock().now_ns(), kind);
            }
            next.extend(atom_components(survivors));
            return Ok(());
        }
        *searched += 1;
        found = component_retract(&comp, t, rigid, gov);
    }
    Ok(())
}

/// Computes the core of `inst`.
pub fn core(inst: &Instance) -> Instance {
    core_parallel_governed(inst, &Governor::unlimited(), &Pool::seq()).instance
}

/// True iff `inst` is its own core: one pass over the components the
/// rigid pass leaves finds no retract.
pub fn is_core(inst: &Instance) -> bool {
    let (gov, pool) = (Governor::unlimited(), Pool::seq());
    let mut pending = atom_components(inst.atoms().collect());
    let Ok(rigid) = rigid_pass(&pending, inst, &gov) else {
        return false;
    };
    settle_rigid(&mut pending, &rigid);
    let found = search_pass(&pending, inst, &rigid, &gov, &pool);
    found.iter().all(Option::is_none)
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
    /// Retract searches of a null component: every initial component and
    /// every piece a retract leaves once, plus one per invalidated retract.
    pub components_searched: usize,
    /// The components among `components_searched` that the rigid pass
    /// settled alone: all their atoms are rigid, so no search ran.
    pub components_rigid: usize,
}

impl GovernedCore {
    /// True iff the result is guaranteed to be the core.
    pub fn is_minimal(&self) -> bool {
        self.status == CoreStatus::Minimal
    }
}

/// The core of `inst` under a [`Governor`], with each pass's component
/// searches run on `pool` (one governor budget shared by all workers via
/// its atomic counters). Completed runs are byte-identical for any thread
/// count. Interruption degrades gracefully instead of erroring: every
/// retract applied before the interrupt leaves a hom-equivalent, strictly
/// smaller subinstance, and the last one is returned, tagged
/// [`CoreStatus::MaybeNotMinimal`].
pub fn core_parallel_governed(inst: &Instance, gov: &Governor, pool: &Pool) -> GovernedCore {
    let mut t = inst.clone();
    let mut pending = atom_components(t.atoms().collect());
    let mut components_searched = 0;
    let mut components_rigid = 0;
    let status = match rigid_pass(&pending, &t, gov) {
        Err(i) => CoreStatus::MaybeNotMinimal(i),
        Ok(rigid) => loop {
            components_searched += pending.len();
            components_rigid += settle_rigid(&mut pending, &rigid);
            if pending.is_empty() {
                break CoreStatus::Minimal;
            }
            let found = search_pass(&pending, &t, &rigid, gov, pool);
            let mut next = Vec::new();
            let settled = pending
                .into_iter()
                .zip(found)
                .try_for_each(|(comp, found)| {
                    settle(
                        &mut t,
                        comp,
                        found,
                        &rigid,
                        gov,
                        &mut next,
                        &mut components_searched,
                    )
                });
            if let Err(i) = settled {
                break CoreStatus::MaybeNotMinimal(i);
            }
            pending = next;
        },
    };
    let kind = EventKind::CoreCompleted {
        atoms: t.len(),
        components_searched,
        components_rigid,
    };
    gov.tracer().emit(gov.clock().now_ns(), kind);
    GovernedCore {
        instance: t,
        status,
        components_searched,
        components_rigid,
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
