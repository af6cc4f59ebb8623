//! The one backtracking search that maps a pattern of atoms into an
//! instance. Conjunctive matches (`dex_logic::matcher`: chase triggers,
//! egd violations, dependency checks, query answers), homomorphisms
//! ([`HomFinder`](crate::homomorphism::HomFinder): universality, cores,
//! isomorphism) and the unification behind maybe answers
//! (`dex_query::possible`) all run through [`search`].
//!
//! The kernel owns the search order and nothing else. At each node it
//! probes every pending atom once through the instance's position
//! indexes (`Instance::probe`) and expands the atom with the fewest
//! candidate rows (fail-first; the first atom wins a tie) over the
//! bucket that probe handed over, borrowed, in row-log order. What a
//! term is, how it binds and unbinds, and which rows may be used is the
//! caller's [`Binder`]. The kernel is generic over it, so the per-row
//! path makes no `dyn` call; past the caller's setup it allocates
//! nothing, atoms wider than [`STACK_ARITY`] aside.

use crate::atom::Atom;
use crate::instance::{Candidates, Instance};
use crate::symbol::Symbol;
use crate::value::Value;

/// Atoms up to this arity build their index-probe pattern on the stack.
pub const STACK_ARITY: usize = 8;

/// An atom of a search pattern: a relation and one term per position.
pub trait Pattern {
    /// What stands at one position; its meaning is the [`Binder`]'s.
    type Term: Copy;
    fn rel(&self) -> Symbol;
    fn terms(&self) -> &[Self::Term];
}

/// An [`Atom`] as a pattern: the binder reads its constants as
/// themselves and its nulls as the slots it maps.
impl Pattern for Atom {
    type Term = Value;

    fn rel(&self) -> Symbol {
        self.rel
    }

    fn terms(&self) -> &[Value] {
        &self.args
    }
}

/// The caller's side of a [`search`]: the bindings of its terms and a
/// trail to undo them. The three hooks default to doing nothing.
pub trait Binder<T> {
    /// The value a row must hold where `t` stands, if the bindings fix
    /// it; `None` makes the position a wildcard of the index probe.
    fn probe_value(&self, t: T) -> Option<Value>;

    /// Extends the bindings so that `t` maps onto `v`, trailing each new
    /// binding; `false` if it cannot. The kernel then undoes the row.
    fn unify(&mut self, t: T, v: Value) -> bool;

    /// The current length of the trail.
    fn mark(&self) -> usize;

    /// Undoes every binding trailed since `mark`.
    fn undo(&mut self, mark: usize);

    /// Called once per search node, with the number of atoms not
    /// pending at that node; `false` stops the search.
    fn enter(&mut self, _depth: usize) -> bool {
        true
    }

    /// Called once per candidate row before it is tried; `false` stops
    /// the search.
    fn tick(&mut self) -> bool {
        true
    }

    /// Whether a candidate row of `rel` may be used at all.
    fn admit(&self, _rel: Symbol, _row: &[Value]) -> bool {
        true
    }
}

/// Maps the atoms of `atoms` listed in `pending` into `inst` in every
/// way `binder` allows, calling `emit` on the binder at each complete
/// match; `emit` returns `false` to stop. Returns `false` iff the search
/// was stopped, by `emit` or by a hook. `pending` is handed back in the
/// order it came.
pub fn search<P, B, F>(
    inst: &Instance,
    atoms: &[P],
    pending: &mut Vec<usize>,
    binder: &mut B,
    emit: &mut F,
) -> bool
where
    P: Pattern,
    B: Binder<P::Term>,
    F: FnMut(&B) -> bool,
{
    if !binder.enter(atoms.len() - pending.len()) {
        return false;
    }
    if pending.is_empty() {
        return emit(binder);
    }
    // Fail-first, scored by the exact bucket length: the first atom
    // wins a tie, and the probe that scored the winner hands over its
    // rows.
    let mut best: Option<(usize, Candidates<'_>)> = None;
    for (slot, &i) in pending.iter().enumerate() {
        let rows = probe(inst, &atoms[i], binder);
        if best.as_ref().is_none_or(|(_, b)| rows.len() < b.len()) {
            let empty = rows.is_empty();
            best = Some((slot, rows));
            if empty {
                break;
            }
        }
    }
    let (slot, rows) = best.expect("pending non-empty");
    let chosen = pending.swap_remove(slot);
    let atom = &atoms[chosen];
    let mut keep_going = true;
    for row in rows {
        if !binder.tick() {
            keep_going = false;
            break;
        }
        if !binder.admit(atom.rel(), row) {
            continue;
        }
        let mark = binder.mark();
        if unify(binder, atom.terms(), row) {
            keep_going = search(inst, atoms, pending, binder, emit);
        }
        binder.undo(mark);
        if !keep_going {
            break;
        }
    }
    pending.push(chosen);
    let last = pending.len() - 1;
    pending.swap(slot, last);
    keep_going
}

/// Unifies `terms` with `row` position by position, stopping at the
/// first failure; the caller undoes to its mark either way.
pub fn unify<T: Copy, B: Binder<T>>(binder: &mut B, terms: &[T], row: &[Value]) -> bool {
    terms.iter().zip(row).all(|(&t, &v)| binder.unify(t, v))
}

/// Probes `inst` for the rows `atom` can map onto under `binder`, with
/// the pattern on the stack.
fn probe<'a, P: Pattern, B: Binder<P::Term>>(
    inst: &'a Instance,
    atom: &P,
    binder: &B,
) -> Candidates<'a> {
    let terms = atom.terms();
    let mut stack = [None; STACK_ARITY];
    let mut heap = Vec::new();
    let pattern: &mut [Option<Value>] = match terms.len() {
        n if n <= STACK_ARITY => &mut stack[..n],
        n => {
            heap.resize(n, None);
            &mut heap
        }
    };
    for (p, &t) in pattern.iter_mut().zip(terms) {
        *p = binder.probe_value(t);
    }
    inst.probe(atom.rel(), pattern)
}
