//! Provenance for chase-derived atoms: which dependency, under which
//! trigger valuation, put each atom into the instance — the paper's
//! justification-by-trigger notion (§3) made inspectable, and the
//! justification *graph* incremental maintenance retracts over.
//!
//! A [`Provenance`] maps every atom of the chase result to its recorded
//! justifications: [`Derivation::Source`] (the atom was in the σ-part)
//! and/or [`Derivation::Tgd`] entries with the dependency name, the
//! trigger valuation `ū ∪ v̄ ∪ z̄`, and the instantiated body atoms
//! (the premises). *All* justifications are kept — an atom re-derived
//! by a second trigger records both, so a deletion that kills one chain
//! does not over-retract an atom another chain still supports.
//!
//! Egd merges rewrite atoms in place, so the map is re-keyed through
//! the same `loser ↦ winner` endomorphism the instance applies. A
//! justification whose atom, premises, or valuation were rewritten is
//! *conditional* on that merge: the merge id is pushed onto the
//! justification's `merge_deps`, and [`Provenance::retract_sources`]
//! kills such justifications when the merge itself dies (union-find
//! merges are not invertible, so retraction over-deletes the merge's
//! value cone and lets the chase re-derive the survivors).
//!
//! [`Provenance::explain`] walks premises transitively and returns a
//! [`JustificationChain`] whose leaves are source atoms;
//! [`Provenance::verify_justified`] is the CWA-presolution
//! cross-check: *every* atom of a claimed presolution must carry a
//! recorded justification.
//!
//! # Two indexes, and what each operation costs
//!
//! Each atom's entry sits in a slot table. Two indexes over it keep
//! maintenance proportional to what an operation touches, never to the
//! size of the map:
//!
//! - The **value index** maps every value to the entries whose atom,
//!   premises or valuations mention it (with a side list of the merges
//!   that rewrote each merged-away value, in order).
//! - The **premise index** maps every atom to the entries, and the
//!   merge records, that cite it as a premise.
//!
//! [`Provenance::record_source`] and [`Provenance::record_derived`] cost
//! one index insert per value and premise of the new justification.
//! [`Provenance::record_merge`] visits only the entries the loser
//! occurs in and the merge records citing them: it rewrites those,
//! then folds the re-keyed atoms in atom order after the unchanged
//! ones, so a collided atom's justification order is the same in every
//! process. [`Provenance::retract_sources`] works inside the *affected
//! cone*: the deleted source atoms, every entry that mentions a value
//! tainted by a suspect merge, and everything that cites those,
//! transitively through the premise index. Every atom outside the cone
//! keeps all its justifications and stays alive, so the least fixpoint
//! runs over the cone alone, and only merges citing a cone atom are
//! re-examined. Both count the entries and merge records they inspect
//! ([`Provenance::entries_visited`]).
//!
//! # Copy-on-write
//!
//! A resumed chase starts from a clone of the prior run's map and
//! changes a few entries of it. Entries and index sets therefore sit
//! behind [`Arc`]s and are copied on their first write, and atoms are
//! keyed to slots by hash, with a chain through the slots as
//! `dex_core::Instance` keys its rows, instead of by a second owned copy
//! of every atom. A clone copies one pointer or id per slot and per
//! indexed value, not the atoms, justifications and sets behind them.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use dex_core::hash::BuildIdHasher;
use dex_core::{Atom, IdMap, IdSet, Instance, Symbol, Value};
use dex_obs::JsonValue;

#[cfg(test)]
mod reference;

/// How one atom got into the chase result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Derivation {
    /// Present in the source (σ-part) before the chase ran.
    Source,
    /// Inserted by firing dependency `dep` under `valuation`.
    Tgd {
        /// The dependency's name (`d2`, …).
        dep: Symbol,
        /// Its index in the setting's `st_tgds ++ t_tgds` order.
        dep_index: usize,
        /// The full trigger valuation: frontier, body-only and
        /// existential variables, in variable order of recording.
        valuation: Vec<(Symbol, Value)>,
        /// The instantiated body atoms (empty for FO bodies, which
        /// have no canonical atom decomposition).
        premises: Vec<Atom>,
    },
}

impl Derivation {
    pub fn is_source(&self) -> bool {
        matches!(self, Derivation::Source)
    }

    /// The instantiated body atoms (none for a source atom).
    fn premises(&self) -> &[Atom] {
        match self {
            Derivation::Source => &[],
            Derivation::Tgd { premises, .. } => premises,
        }
    }

    /// Every value the premises and the valuation mention.
    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        let valuation = match self {
            Derivation::Source => &[][..],
            Derivation::Tgd { valuation, .. } => &valuation[..],
        };
        self.premises()
            .iter()
            .flat_map(|p| p.args.iter().copied())
            .chain(valuation.iter().map(|&(_, v)| v))
    }

    /// Rewrites premises and valuation through `subst`; true iff
    /// anything changed.
    fn rewrite(&mut self, subst: impl Fn(Value) -> Value) -> bool {
        let Derivation::Tgd {
            premises,
            valuation,
            ..
        } = self
        else {
            return false;
        };
        let mut touched = rewrite_atoms(premises, &subst);
        for (_, v) in valuation.iter_mut() {
            let nv = subst(*v);
            if nv != *v {
                *v = nv;
                touched = true;
            }
        }
        touched
    }
}

/// Rewrites `atoms` through `subst`; true iff any of them changed.
fn rewrite_atoms(atoms: &mut [Atom], subst: impl Fn(Value) -> Value) -> bool {
    let mut touched = false;
    for a in atoms {
        let rewritten = a.map_values(&subst);
        if rewritten != *a {
            *a = rewritten;
            touched = true;
        }
    }
    touched
}

/// One recorded justification of an atom: a derivation plus the egd
/// merges that rewrote it after it was recorded (the justification is
/// conditional on those merges still being justified themselves).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Just {
    derivation: Derivation,
    /// Ids of [`MergeRecord`]s that rewrote this justification's atom,
    /// premises, or valuation.
    merge_deps: Vec<u64>,
}

impl Just {
    fn source() -> Just {
        Just {
            derivation: Derivation::Source,
            merge_deps: Vec::new(),
        }
    }
}

/// An egd merge recorded during the run, in application order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeRecord {
    /// The egd's name.
    pub dep: String,
    /// The value rewritten away (always a null).
    pub loser: Value,
    /// The value it was rewritten to.
    pub winner: Value,
    /// Stable id (ids survive retraction; indices would not).
    id: u64,
    /// The instantiated egd-body atoms of the violating trigger, as
    /// named *after* this merge (and re-keyed by later merges) — the
    /// premises whose continued support keeps the merge justified.
    premises: Vec<Atom>,
    /// Ids of later merges that re-keyed `premises`.
    merge_deps: Vec<u64>,
}

impl MergeRecord {
    /// The instantiated egd-body atoms of the violating trigger.
    pub fn premises(&self) -> &[Atom] {
        &self.premises
    }
}

/// A slot of the entry table.
type Id = u32;

/// The end of a hash chain of slots.
const NIL: Id = Id::MAX;

/// The hash that keys an atom to its slot.
fn atom_hash(atom: &Atom) -> u64 {
    BuildIdHasher::default().hash_one(atom)
}

/// A set of ids shared between clones of a map until one of them writes
/// to it. An empty set holds nothing, so it costs no allocation.
#[derive(Clone, Debug)]
struct CowSet<T>(Option<Arc<IdSet<T>>>);

impl<T> Default for CowSet<T> {
    fn default() -> CowSet<T> {
        CowSet(None)
    }
}

impl<T: Copy + Eq + Hash> CowSet<T> {
    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.0.iter().flat_map(|set| set.iter().copied())
    }

    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |set| set.len())
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, x: &T) -> bool {
        self.0.as_ref().is_some_and(|set| set.contains(x))
    }

    fn insert(&mut self, x: T) {
        if !self.contains(&x) {
            Arc::make_mut(self.0.get_or_insert_with(Arc::default)).insert(x);
        }
    }

    fn remove(&mut self, x: &T) {
        if let Some(set) = self.0.as_mut().filter(|set| set.contains(x)) {
            Arc::make_mut(set).remove(x);
            if set.is_empty() {
                self.0 = None;
            }
        }
    }

    fn extend(&mut self, other: CowSet<T>) {
        match (&mut self.0, other.0) {
            (_, None) => {}
            (None, other) => self.0 = other,
            (Some(_), Some(other)) => other.iter().for_each(|&x| self.insert(x)),
        }
    }
}

/// Set equality, for comparing the maintained indexes with a rebuild.
#[cfg(test)]
impl<T: Copy + Eq + Hash> PartialEq for CowSet<T> {
    fn eq(&self, other: &CowSet<T>) -> bool {
        self.len() == other.len() && self.iter().all(|x| other.contains(&x))
    }
}

/// One atom of the map with its justifications.
#[derive(Clone, Debug)]
struct Entry {
    atom: Atom,
    justs: Vec<Just>,
}

impl Entry {
    /// Every value the atom, its premises and its valuations mention.
    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.atom
            .args
            .iter()
            .copied()
            .chain(self.justs.iter().flat_map(|j| j.derivation.values()))
    }

    fn premises(&self) -> impl Iterator<Item = &Atom> {
        self.justs.iter().flat_map(|j| j.derivation.premises())
    }
}

/// True iff the justification is not structurally dead: not a deleted
/// source entry and not conditional on a suspect merge. (Premise
/// aliveness is the fixpoint's job, not this check's.)
fn usable(j: &Just, atom: &Atom, deleted: &IdSet<Atom>, suspect: &IdSet<u64>) -> bool {
    if j.merge_deps.iter().any(|d| suspect.contains(d)) {
        return false;
    }
    match &j.derivation {
        Derivation::Source => !deleted.contains(atom),
        Derivation::Tgd { .. } => true,
    }
}

/// One round of retraction: the affected cone and the atoms of it found
/// alive. Every atom outside the cone is alive.
struct Cone {
    members: IdSet<Id>,
    alive: IdSet<Id>,
}

/// Per-atom derivations for one chase run.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// The entry table; a `None` slot is free and listed in `free`.
    entries: Vec<Option<Arc<Entry>>>,
    free: Vec<Id>,
    /// Atom hash → the newest live slot whose atom has that hash ...
    heads: IdMap<u64, Id>,
    /// ... and, per slot, the next older live slot with the same hash
    /// (or `NIL`).
    chain: Vec<Id>,
    /// Ascending by id.
    merges: Vec<MergeRecord>,
    next_merge_id: u64,
    /// Whether the indexes below are built. The first merge or
    /// retraction builds them and every later call maintains them, so a
    /// run that never merges or retracts never pays for them.
    indexed: bool,
    /// The value index: each value → the entries that mention it.
    by_value: IdMap<Value, CowSet<Id>>,
    /// Each merged-away value → the ids of the merges that rewrote it,
    /// ascending.
    by_loser: IdMap<Value, Vec<u64>>,
    /// The premise index, by slot: the entries with a justification
    /// citing the slot's atom as a premise ...
    cited_by: Vec<CowSet<Id>>,
    /// ... and the ids of the merge records citing it.
    merges_citing: Vec<CowSet<u64>>,
    /// Entries and merge records re-keying and retraction inspected.
    visited: u64,
    /// The whole-map maintenance this one replaced, run beside it so
    /// tests can compare the two.
    #[cfg(test)]
    reference: reference::Reference,
}

impl Provenance {
    /// Seeds the map: every source atom derives as [`Derivation::Source`].
    pub fn for_source(source: &Instance) -> Provenance {
        let mut p = Provenance::default();
        for a in source.atoms() {
            p.record_source(a);
        }
        p
    }

    /// Records an atom as (now also) present in the source — used when
    /// incremental maintenance inserts new source atoms into a prior
    /// chase result.
    pub fn record_source(&mut self, atom: Atom) {
        #[cfg(test)]
        self.reference.record_source(atom.clone());
        let id = self.entry_id(atom);
        if !self
            .entry(id)
            .justs
            .iter()
            .any(|j| j.derivation.is_source())
        {
            self.push_just(id, Just::source());
        }
    }

    /// Records a tgd-derived atom. Every distinct derivation is kept
    /// (the first recorded one is what [`Provenance::derivation`] and
    /// [`Provenance::explain`] report); re-recording an identical
    /// derivation is a no-op.
    pub fn record_derived(
        &mut self,
        atom: Atom,
        dep: Symbol,
        dep_index: usize,
        valuation: &[(Symbol, Value)],
        premises: &[Atom],
    ) {
        let derivation = Derivation::Tgd {
            dep,
            dep_index,
            valuation: valuation.to_vec(),
            premises: premises.to_vec(),
        };
        #[cfg(test)]
        self.reference.record_derived(atom.clone(), &derivation);
        let id = self.entry_id(atom);
        if !self
            .entry(id)
            .justs
            .iter()
            .any(|j| j.derivation == derivation)
        {
            self.push_just(
                id,
                Just {
                    derivation,
                    merge_deps: Vec::new(),
                },
            );
        }
    }

    /// Records an egd merge (with the violating trigger's instantiated
    /// body atoms as `premises`) and re-keys every derivation through
    /// the `loser ↦ winner` endomorphism, exactly as
    /// `Instance::merge_value` rewrites the instance's rows. Every
    /// justification the rewrite touches becomes conditional on this
    /// merge (its id lands in the justification's `merge_deps`).
    ///
    /// Only the entries the value index lists under `loser` are
    /// visited, with the merge records citing their atoms.
    pub fn record_merge(&mut self, dep: &str, loser: Value, winner: Value, premises: &[Atom]) {
        #[cfg(test)]
        self.reference.record_merge(dep, loser, winner, premises);
        self.build_index();
        let id = self.next_merge_id;
        self.next_merge_id += 1;
        let subst = |v: Value| if v == loser { winner } else { v };
        let touched: Vec<Id> = match self.by_value.remove(&loser) {
            Some(ids) if loser != winner => ids.iter().collect(),
            Some(ids) => {
                self.by_value.insert(loser, ids);
                Vec::new()
            }
            None => Vec::new(),
        };
        let mut merges_touched: BTreeSet<u64> = BTreeSet::new();
        let mut moved: Vec<(Atom, Id)> = Vec::new();
        for &eid in &touched {
            let entry = self.entry_mut(eid);
            let rekeyed = entry.atom.args.contains(&loser);
            for j in &mut entry.justs {
                if j.derivation.rewrite(subst) || rekeyed {
                    j.merge_deps.push(id);
                }
            }
            if rekeyed {
                moved.push((entry.atom.clone(), eid));
                merges_touched.extend(self.merges_citing[eid as usize].iter());
            }
        }
        // Re-keyed atoms can collide with each other or with an atom the
        // merge left alone. They are folded in after every unchanged
        // atom, in atom order, so a collided atom's justification order
        // does not depend on any map's iteration order.
        moved.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for &(_, mid) in &moved {
            self.unkey(mid);
        }
        let mut folded: Vec<(Id, Id, Arc<Entry>)> = Vec::new();
        for (old, mid) in moved {
            let new_atom = old.map_values(subst);
            match self.find(&new_atom) {
                None => {
                    let entry = self.entry_mut(mid);
                    entry.atom = new_atom;
                    for j in std::mem::take(&mut entry.justs) {
                        if !entry.justs.contains(&j) {
                            entry.justs.push(j);
                        }
                    }
                    self.key(mid);
                }
                // Two atoms collapse into one; the surviving atom keeps
                // every distinct justification of both.
                Some(sid) => {
                    let m = self.entries[mid as usize]
                        .take()
                        .expect("moved entry is live");
                    let s = self.entry_mut(sid);
                    for j in &m.justs {
                        if !s.justs.contains(j) {
                            s.justs.push(j.clone());
                        }
                    }
                    let cited_by = std::mem::take(&mut self.cited_by[mid as usize]);
                    self.cited_by[sid as usize].extend(cited_by);
                    let citing = std::mem::take(&mut self.merges_citing[mid as usize]);
                    self.merges_citing[sid as usize].extend(citing);
                    folded.push((mid, sid, m));
                }
            }
        }
        // A folded entry's id is replaced by its target's wherever the
        // indexes list it: under the values it mentions, and in the
        // citations of its premises (all renamed by now).
        let mut remap: IdMap<Id, Id> = IdMap::default();
        for (mid, sid, m) in folded {
            for v in m.values() {
                if let Some(set) = self.by_value.get_mut(&v) {
                    set.remove(&mid);
                    set.insert(sid);
                }
            }
            for p in m.premises() {
                if let Some(pid) = self.find(p) {
                    let cited_by = &mut self.cited_by[pid as usize];
                    cited_by.remove(&mid);
                    cited_by.insert(sid);
                }
            }
            self.free.push(mid);
            remap.insert(mid, sid);
        }
        if !touched.is_empty() {
            let winners = self.by_value.entry(winner).or_default();
            for t in &touched {
                winners.insert(remap.get(t).copied().unwrap_or(*t));
            }
        }
        self.visited += (touched.len() + merges_touched.len()) as u64;
        for mid in merges_touched {
            let pos = self.merge_pos(mid);
            let m = &mut self.merges[pos];
            if rewrite_atoms(&mut m.premises, subst) {
                m.merge_deps.push(id);
            }
        }
        // The trigger's own atoms are rewritten by the merge too.
        let premises: Vec<Atom> = premises.iter().map(|p| p.map_values(subst)).collect();
        self.index_merge(id, loser, &premises);
        self.merges.push(MergeRecord {
            dep: dep.to_string(),
            loser,
            winner,
            id,
            premises,
            merge_deps: Vec::new(),
        });
    }

    /// Number of atoms with a recorded derivation.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The egd merges applied and still justified, in order.
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// Entries and merge records that egd re-keying and deletion
    /// retraction have inspected over this map's life (clones included).
    pub fn entries_visited(&self) -> u64 {
        self.visited
    }

    /// The first recorded derivation of `atom`, if any.
    pub fn derivation(&self, atom: &Atom) -> Option<&Derivation> {
        self.justs(atom)
            .and_then(|js| js.first())
            .map(|j| &j.derivation)
    }

    /// Every recorded derivation of `atom`, in recording order.
    pub fn derivations(&self, atom: &Atom) -> impl Iterator<Item = &Derivation> {
        self.justs(atom)
            .into_iter()
            .flat_map(|js| js.iter().map(|j| &j.derivation))
    }

    /// The number of recorded justifications of `atom` (its support
    /// count in the counting/DRed sense).
    pub fn support(&self, atom: &Atom) -> usize {
        self.justs(atom).map_or(0, <[Just]>::len)
    }

    /// The justification chain of `atom`: the atom's own (first)
    /// derivation followed by those of its premises, transitively,
    /// ending in source atoms. `None` if the atom — or any premise
    /// along the way — has no recorded derivation (which
    /// [`Provenance::verify_justified`] treats as a broken
    /// justification).
    pub fn explain(&self, atom: &Atom) -> Option<JustificationChain> {
        let mut steps = Vec::new();
        let mut seen: IdSet<Atom> = IdSet::default();
        let mut queue: VecDeque<Atom> = VecDeque::new();
        queue.push_back(atom.clone());
        while let Some(a) = queue.pop_front() {
            if !seen.insert(a.clone()) {
                continue;
            }
            let derivation = self.derivation(&a)?.clone();
            queue.extend(derivation.premises().iter().cloned());
            steps.push(ChainStep {
                atom: a,
                derivation,
            });
        }
        Some(JustificationChain { steps })
    }

    /// The presolution cross-check: every atom of `claimed` must have a
    /// complete justification chain. Returns the first offender.
    pub fn verify_justified(&self, claimed: &Instance) -> Result<(), String> {
        for atom in claimed.atoms() {
            if self.explain(&atom).is_none() {
                return Err(format!("no recorded justification for {atom}"));
            }
        }
        Ok(())
    }

    /// DRed-style deletion propagation: retracts the `deleted` source
    /// atoms and returns every atom that loses its last justification,
    /// in atom order — the caller removes exactly those atoms from the
    /// instance and re-fires triggers whose heads they satisfied.
    ///
    /// Aliveness is a *least* fixpoint grounded in the surviving source
    /// atoms (a cycle of atoms justifying each other with no external
    /// support dies — the classical counting-algorithm pitfall). Merges
    /// are handled conservatively, since they are not invertible:
    /// a merge becomes *suspect* when any of its trigger premises dies
    /// or loses any justification (or a merge it depends on does), and
    /// then (a) every justification conditional on it is killed, and
    /// (b) every non-source atom containing the merge's (resolved)
    /// winner is over-deleted — re-derivation re-fires and re-merges
    /// whatever still holds. This is the documented egd over-delete
    /// boundary of incremental maintenance.
    ///
    /// The fixpoint runs inside the affected cone (see the module docs):
    /// an atom outside it cites no atom inside it, is not deleted, and
    /// mentions no tainted value, so it keeps every justification.
    pub fn retract_sources(&mut self, deleted: &[Atom]) -> Vec<Atom> {
        #[cfg(test)]
        let expected = self.reference.retract_sources(deleted);
        self.build_index();
        let deleted: IdSet<Atom> = deleted.iter().cloned().collect();
        let mut suspect: IdSet<u64> = IdSet::default();
        let removed = loop {
            let cone = self.cone(&deleted, &suspect);
            // Grow the suspect-merge set against this aliveness; if it
            // grows, the cone and its aliveness must be recomputed
            // (monotone, so this terminates after at most |merges|
            // rounds).
            if !self.grow_suspect(&cone, &deleted, &mut suspect) {
                break self.apply_retraction(&cone, &deleted, &suspect);
            }
        };
        #[cfg(test)]
        self.reference.compare_removed(&removed, &expected);
        removed
    }

    fn entry(&self, id: Id) -> &Entry {
        self.entries[id as usize]
            .as_deref()
            .expect("indexed entry is live")
    }

    /// Entry `id` for writing: copied first when a clone shares it.
    fn entry_mut(&mut self, id: Id) -> &mut Entry {
        Arc::make_mut(
            self.entries[id as usize]
                .as_mut()
                .expect("indexed entry is live"),
        )
    }

    /// The slot of `atom`, if it has one.
    fn find(&self, atom: &Atom) -> Option<Id> {
        let mut id = *self.heads.get(&atom_hash(atom))?;
        while id != NIL {
            if self.entry(id).atom == *atom {
                return Some(id);
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Keys slot `id` to its entry's atom, at the head of its chain.
    fn key(&mut self, id: Id) {
        let h = atom_hash(&self.entry(id).atom);
        if self.chain.len() <= id as usize {
            self.chain.resize(id as usize + 1, NIL);
        }
        self.chain[id as usize] = self.heads.insert(h, id).unwrap_or(NIL);
    }

    /// Unkeys slot `id`, whose entry still holds the atom it is keyed to.
    fn unkey(&mut self, id: Id) {
        let h = atom_hash(&self.entry(id).atom);
        let older = std::mem::replace(&mut self.chain[id as usize], NIL);
        let head = self.heads.get_mut(&h).expect("a live slot is keyed");
        if *head == id {
            match older {
                NIL => {
                    self.heads.remove(&h);
                }
                older => *head = older,
            }
        } else {
            let mut p = *head as usize;
            while self.chain[p] != id {
                p = self.chain[p] as usize;
            }
            self.chain[p] = older;
        }
    }

    fn justs(&self, atom: &Atom) -> Option<&[Just]> {
        self.find(atom).map(|id| &self.entry(id).justs[..])
    }

    fn merge_pos(&self, id: u64) -> usize {
        self.merges
            .binary_search_by_key(&id, |m| m.id)
            .expect("indexed merge is recorded")
    }

    /// The entry of `atom`, created empty (and its values indexed) when
    /// the atom has none yet.
    fn entry_id(&mut self, atom: Atom) -> Id {
        if let Some(id) = self.find(&atom) {
            return id;
        }
        let entry = Arc::new(Entry {
            atom,
            justs: Vec::new(),
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some(entry);
                id
            }
            None => {
                self.entries.push(Some(entry));
                Id::try_from(self.entries.len() - 1).expect("fewer than 2^32 atoms")
            }
        };
        self.key(id);
        if self.indexed {
            if self.cited_by.len() < self.entries.len() {
                self.cited_by
                    .resize_with(self.entries.len(), CowSet::default);
                self.merges_citing
                    .resize_with(self.entries.len(), CowSet::default);
            }
            self.link(id, true);
        }
        id
    }

    /// Builds the indexes from the entries and merge records, once.
    fn build_index(&mut self) {
        if self.indexed {
            return;
        }
        self.indexed = true;
        self.cited_by = vec![CowSet::default(); self.entries.len()];
        self.merges_citing = vec![CowSet::default(); self.entries.len()];
        for id in 0..self.entries.len() {
            if self.entries[id].is_some() {
                self.link(id as Id, true);
            }
        }
        let merges = std::mem::take(&mut self.merges);
        for m in &merges {
            self.index_merge(m.id, m.loser, &m.premises);
        }
        self.merges = merges;
        self.visited += (self.len() + self.merges.len()) as u64;
    }

    /// Indexes merge `id`: under its loser, and as citing each premise.
    fn index_merge(&mut self, id: u64, loser: Value, premises: &[Atom]) {
        for p in premises {
            match self.find(p) {
                Some(pid) => {
                    self.merges_citing[pid as usize].insert(id);
                }
                None => debug_assert!(false, "merge premise {p} has no entry"),
            }
        }
        self.by_loser.entry(loser).or_default().push(id);
    }

    /// Appends a justification to entry `id`, indexing its values and
    /// premises.
    fn push_just(&mut self, id: Id, just: Just) {
        debug_assert!(
            just.derivation
                .premises()
                .iter()
                .all(|p| self.find(p).is_some()),
            "a premise of {} has no entry",
            self.entry(id).atom
        );
        if self.indexed {
            for v in just.derivation.values() {
                self.by_value.entry(v).or_default().insert(id);
            }
            for p in just.derivation.premises() {
                if let Some(pid) = self.find(p) {
                    self.cited_by[pid as usize].insert(id);
                }
            }
        }
        self.entry_mut(id).justs.push(just);
    }

    /// Adds (`on`) or removes entry `id` in the index sets of every
    /// value it mentions and every premise it cites.
    fn link(&mut self, id: Id, on: bool) {
        let entry = self.entry(id);
        let values: IdSet<Value> = entry.values().collect();
        let cited: IdSet<Id> = entry.premises().filter_map(|p| self.find(p)).collect();
        for v in values {
            if on {
                self.by_value.entry(v).or_default().insert(id);
            } else if let Some(set) = self.by_value.get_mut(&v) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_value.remove(&v);
                }
            }
        }
        for pid in cited {
            let cited_by = &mut self.cited_by[pid as usize];
            if on {
                cited_by.insert(id);
            } else {
                cited_by.remove(&id);
            }
        }
    }

    /// The value live rows inherited from merge `id`: its winner,
    /// resolved through the later merges that rewrote it.
    fn resolved_winner(&self, id: u64) -> Value {
        let mut w = self.merges[self.merge_pos(id)].winner;
        let mut after = id;
        while let Some(t) = self
            .by_loser
            .get(&w)
            .and_then(|ids| ids.iter().copied().find(|&t| t > after))
        {
            w = self.merges[self.merge_pos(t)].winner;
            after = t;
        }
        w
    }

    /// `p` has an entry, and it is outside the cone or alive inside it.
    fn premise_alive(&self, p: &Atom, cone: &Cone) -> bool {
        self.find(p)
            .is_some_and(|id| !cone.members.contains(&id) || cone.alive.contains(&id))
    }

    /// The affected cone under the current `suspect` set, with its
    /// least-fixpoint aliveness.
    ///
    /// The cone's seeds are the deleted atoms and every entry mentioning
    /// a tainted value (a suspect merge's resolved winner). Every
    /// justification conditional on a suspect merge mentions that merge's
    /// resolved winner (each later merge that rewrote the winner rewrote
    /// the justification too), so the seeds cover every atom with a dead
    /// justification; the cone closes them under the premise index.
    ///
    /// Inside the cone, an atom is alive iff it has a usable Source
    /// justification, or a usable tgd justification whose premises are
    /// all alive — and it is not over-deleted by merge taint. FO-derived
    /// justifications (empty premise list) count as unconditionally
    /// satisfied; callers that maintain deletions fall back to a full
    /// re-chase when FO bodies are in play.
    fn cone(&mut self, deleted: &IdSet<Atom>, suspect: &IdSet<u64>) -> Cone {
        let tainted: IdSet<Value> = suspect.iter().map(|&s| self.resolved_winner(s)).collect();
        let mut members: IdSet<Id> = IdSet::default();
        let mut stack: Vec<Id> = deleted.iter().filter_map(|a| self.find(a)).collect();
        for v in &tainted {
            stack.extend(self.by_value.get(v).into_iter().flat_map(CowSet::iter));
        }
        while let Some(id) = stack.pop() {
            if members.insert(id) {
                stack.extend(self.cited_by[id as usize].iter());
            }
        }
        self.visited += members.len() as u64;
        let mut cone = Cone {
            members,
            alive: IdSet::default(),
        };
        let mut queue: VecDeque<Id> = VecDeque::new();
        // Pending tgd justifications: (atom, #premises not yet alive).
        struct Pending {
            id: Id,
            missing: usize,
        }
        let mut pending: Vec<Pending> = Vec::new();
        // premise -> indices into `pending` waiting on it.
        let mut waiters: IdMap<Id, Vec<usize>> = IdMap::default();
        'atoms: for &id in &cone.members {
            let entry = self.entry(id);
            let source_alive = entry
                .justs
                .iter()
                .any(|j| j.derivation.is_source() && usable(j, &entry.atom, deleted, suspect));
            if source_alive {
                cone.alive.insert(id);
                queue.push_back(id);
                continue;
            }
            // Merge taint over-deletes derived atoms outright.
            if entry.atom.args.iter().any(|v| tainted.contains(v)) {
                continue;
            }
            'justs: for j in &entry.justs {
                if !usable(j, &entry.atom, deleted, suspect) || j.derivation.is_source() {
                    continue;
                }
                // Register waiters only for premises not alive *now*:
                // an already-alive premise may still be queued for its
                // own drain, and decrementing for it again would count
                // it twice. A premise without an entry never comes alive.
                let mut missing: Vec<Id> = Vec::new();
                for p in j.derivation.premises() {
                    match self.find(p) {
                        None => continue 'justs,
                        Some(pid) if cone.members.contains(&pid) && !cone.alive.contains(&pid) => {
                            missing.push(pid)
                        }
                        Some(_) => {}
                    }
                }
                if missing.is_empty() {
                    cone.alive.insert(id);
                    queue.push_back(id);
                    continue 'atoms;
                }
                let idx = pending.len();
                pending.push(Pending {
                    id,
                    missing: missing.len(),
                });
                for p in missing {
                    waiters.entry(p).or_default().push(idx);
                }
            }
        }
        while let Some(a) = queue.pop_front() {
            let Some(waiting) = waiters.get(&a) else {
                continue;
            };
            for &wi in waiting {
                let w = &mut pending[wi];
                if cone.alive.contains(&w.id) {
                    continue;
                }
                w.missing -= 1;
                if w.missing == 0 {
                    cone.alive.insert(w.id);
                    queue.push_back(w.id);
                }
            }
        }
        cone
    }

    /// True iff some justification of `p` is dead under the current
    /// retraction state — `p` may still be alive, but a merge whose
    /// trigger premise lost *any* support is treated as suspect.
    fn lost_support(
        &self,
        p: &Atom,
        deleted: &IdSet<Atom>,
        suspect: &IdSet<u64>,
        cone: &Cone,
    ) -> bool {
        self.justs(p).is_none_or(|justs| {
            justs.iter().any(|j| {
                !usable(j, p, deleted, suspect)
                    || j.derivation
                        .premises()
                        .iter()
                        .any(|q| !self.premise_alive(q, cone))
            })
        })
    }

    /// Grows `suspect` to its fixpoint against the cone's aliveness;
    /// true iff it grew. A merge can only turn suspect through a premise
    /// in the cone, or through a premise mentioning the resolved winner
    /// of a merge that just turned suspect, so only the merges citing
    /// those atoms are examined.
    fn grow_suspect(
        &mut self,
        cone: &Cone,
        deleted: &IdSet<Atom>,
        suspect: &mut IdSet<u64>,
    ) -> bool {
        let mut candidates: BTreeSet<u64> = self.merges_citing(cone.members.iter().copied());
        let mut grew = false;
        let mut examined = 0u64;
        loop {
            let mut inner = false;
            let mut more: Vec<u64> = Vec::new();
            for &mid in &candidates {
                if suspect.contains(&mid) {
                    continue;
                }
                examined += 1;
                let m = &self.merges[self.merge_pos(mid)];
                let bad = m.merge_deps.iter().any(|d| suspect.contains(d))
                    || m.premises.iter().any(|p| {
                        !self.premise_alive(p, cone) || self.lost_support(p, deleted, suspect, cone)
                    });
                if bad {
                    suspect.insert(mid);
                    inner = true;
                    grew = true;
                    let w = self.resolved_winner(mid);
                    let mentioning = self.by_value.get(&w).into_iter().flat_map(CowSet::iter);
                    more.extend(self.merges_citing(mentioning));
                }
            }
            candidates.extend(more);
            if !inner {
                break;
            }
        }
        self.visited += examined;
        grew
    }

    /// The merges citing any of the atoms of `ids`.
    fn merges_citing(&self, ids: impl Iterator<Item = Id>) -> BTreeSet<u64> {
        ids.flat_map(|id| self.merges_citing[id as usize].iter())
            .collect()
    }

    /// Drops everything the retraction killed: dead atoms, their
    /// justifications, dead justifications of surviving atoms, and the
    /// suspect merge records. Returns the removed atoms in atom order.
    fn apply_retraction(
        &mut self,
        cone: &Cone,
        deleted: &IdSet<Atom>,
        suspect: &IdSet<u64>,
    ) -> Vec<Atom> {
        let mut dead: Vec<Id> = Vec::new();
        for &id in &cone.members {
            if !cone.alive.contains(&id) {
                dead.push(id);
                continue;
            }
            let entry = self.entry(id);
            let keep: Vec<bool> = entry
                .justs
                .iter()
                .map(|j| {
                    usable(j, &entry.atom, deleted, suspect)
                        && j.derivation
                            .premises()
                            .iter()
                            .all(|p| self.premise_alive(p, cone))
                })
                .collect();
            if keep.iter().all(|&k| k) {
                continue;
            }
            self.link(id, false);
            let entry = self.entry_mut(id);
            let mut keep = keep.into_iter();
            entry.justs.retain(|_| keep.next() == Some(true));
            debug_assert!(
                !entry.justs.is_empty(),
                "surviving atom {} retained no justification",
                entry.atom
            );
            self.link(id, true);
        }
        for &id in &dead {
            self.link(id, false);
        }
        // Sorted: the caller re-derives in this order, and map order
        // differs between processes.
        let mut removed: Vec<Atom> = Vec::with_capacity(dead.len());
        for id in dead {
            self.unkey(id);
            let entry = self.entries[id as usize]
                .take()
                .expect("dead entry is live");
            self.cited_by[id as usize] = CowSet::default();
            self.merges_citing[id as usize] = CowSet::default();
            self.free.push(id);
            removed.push(match Arc::try_unwrap(entry) {
                Ok(entry) => entry.atom,
                Err(shared) => shared.atom.clone(),
            });
        }
        removed.sort_unstable();
        let mut dropped: Vec<u64> = suspect.iter().copied().collect();
        dropped.sort_unstable();
        for &mid in dropped.iter().rev() {
            let pos = self.merge_pos(mid);
            let m = self.merges.remove(pos);
            for p in &m.premises {
                if let Some(pid) = self.find(p) {
                    self.merges_citing[pid as usize].remove(&mid);
                }
            }
            if let Some(ids) = self.by_loser.get_mut(&m.loser) {
                ids.retain(|&t| t != mid);
                if ids.is_empty() {
                    self.by_loser.remove(&m.loser);
                }
            }
        }
        removed
    }
}

/// One step of a justification chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStep {
    pub atom: Atom,
    pub derivation: Derivation,
}

/// The transitive justification of one atom: `steps[0]` is the atom
/// itself; premises follow in breadth-first order; every leaf is a
/// [`Derivation::Source`] step (guaranteed by construction — a missing
/// link makes [`Provenance::explain`] return `None` instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JustificationChain {
    pub steps: Vec<ChainStep>,
}

impl JustificationChain {
    /// True iff every premise-less step is a source atom — i.e. the
    /// chain bottoms out in the σ-part rather than in an FO body
    /// (whose premises are not decomposable into atoms).
    pub fn ends_in_sources(&self) -> bool {
        self.steps.iter().all(|s| match &s.derivation {
            Derivation::Source => true,
            Derivation::Tgd { premises, .. } => !premises.is_empty(),
        })
    }

    /// The source atoms the chain bottoms out in.
    pub fn source_atoms(&self) -> Vec<&Atom> {
        self.steps
            .iter()
            .filter(|s| s.derivation.is_source())
            .map(|s| &s.atom)
            .collect()
    }

    /// The chain as JSON: an array of step objects.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.steps
                .iter()
                .map(|s| {
                    let mut o = JsonValue::obj().with("atom", JsonValue::str(s.atom.to_string()));
                    match &s.derivation {
                        Derivation::Source => {
                            o.push("by", JsonValue::str("source"));
                        }
                        Derivation::Tgd {
                            dep,
                            dep_index,
                            valuation,
                            premises,
                        } => {
                            o.push("by", JsonValue::str(dep.to_string()));
                            o.push("dep_index", JsonValue::uint(*dep_index as u64));
                            o.push(
                                "valuation",
                                JsonValue::Obj(
                                    valuation
                                        .iter()
                                        .map(|(var, v)| {
                                            (var.to_string(), JsonValue::str(v.to_string()))
                                        })
                                        .collect(),
                                ),
                            );
                            o.push(
                                "premises",
                                JsonValue::Arr(
                                    premises
                                        .iter()
                                        .map(|p| JsonValue::str(p.to_string()))
                                        .collect(),
                                ),
                            );
                        }
                    }
                    o
                })
                .collect(),
        )
    }
}

impl fmt::Display for JustificationChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            match &s.derivation {
                Derivation::Source => write!(f, "{} <- source", s.atom)?,
                Derivation::Tgd { dep, premises, .. } => {
                    write!(f, "{} <- {}(", s.atom, dep)?;
                    for (j, p) in premises.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(rel: &str, args: &[Value]) -> Atom {
        Atom::of(rel, args.to_vec())
    }

    fn konst(s: &str) -> Value {
        Value::konst(s)
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// The indexed map agrees with the whole-map reference run beside it.
    fn assert_agrees(p: &Provenance) {
        if let Some(d) = p.reference_divergence() {
            panic!("{d}");
        }
    }

    #[test]
    fn explain_walks_premises_to_sources() {
        let a = atom("E", &[konst("a"), konst("b")]);
        let source = Instance::from_atoms([a.clone()]);
        let mut p = Provenance::for_source(&source);
        let t = atom("T", &[konst("a"), konst("b")]);
        p.record_derived(
            t.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a")), (sym("y"), konst("b"))],
            std::slice::from_ref(&a),
        );
        let chain = p.explain(&t).unwrap();
        assert_eq!(chain.steps.len(), 2);
        assert_eq!(chain.steps[0].atom, t);
        assert!(chain.ends_in_sources());
        assert_eq!(chain.source_atoms(), vec![&a]);
        // The chain renders and serialises.
        assert!(chain.to_string().contains("<- d1"));
        dex_obs::parse(&chain.to_json().dump()).unwrap();
    }

    #[test]
    fn explain_fails_on_missing_links() {
        let p = Provenance::default();
        assert!(p.explain(&atom("T", &[konst("a")])).is_none());
        let claimed = Instance::from_atoms([atom("T", &[konst("a")])]);
        assert!(p.verify_justified(&claimed).is_err());
    }

    #[test]
    fn merges_rekey_atoms_and_premises() {
        let n0 = Value::null(0);
        let n1 = Value::null(1);
        let src = atom("M", &[konst("a")]);
        let source = Instance::from_atoms([src.clone()]);
        let mut p = Provenance::for_source(&source);
        let f0 = atom("F", &[konst("a"), n0]);
        let f1 = atom("F", &[konst("a"), n1]);
        p.record_derived(
            f0.clone(),
            sym("d2"),
            1,
            &[(sym("z"), n0)],
            std::slice::from_ref(&src),
        );
        p.record_derived(
            f1.clone(),
            sym("d2"),
            1,
            &[(sym("z"), n1)],
            std::slice::from_ref(&src),
        );
        let g = atom("G", &[n1]);
        p.record_derived(
            g.clone(),
            sym("d3"),
            2,
            &[(sym("y"), n1)],
            std::slice::from_ref(&f1),
        );
        // d4 merges ⊥1 into ⊥0: F-atoms collapse, G(⊥1) becomes G(⊥0).
        p.record_merge("d4", n1, n0, &[f0.clone(), f1.clone()]);
        assert_eq!(p.merges().len(), 1);
        // The merge record's own premises are post-merge names.
        assert_eq!(p.merges()[0].premises(), &[f0.clone(), f0.clone()][..]);
        assert!(p.derivation(&f1).is_none());
        assert!(p.derivation(&f0).is_some());
        let g_after = atom("G", &[n0]);
        let chain = p.explain(&g_after).unwrap();
        assert!(chain.ends_in_sources());
        // The premise was re-keyed too: it now names F(a,⊥0).
        match &chain.steps[0].derivation {
            Derivation::Tgd { premises, .. } => assert_eq!(premises, &[f0]),
            other => panic!("unexpected derivation {other:?}"),
        }
        assert_agrees(&p);
    }

    #[test]
    fn alternate_justifications_are_all_recorded() {
        let s1 = atom("P", &[konst("a")]);
        let s2 = atom("Q", &[konst("a")]);
        let source = Instance::from_atoms([s1.clone(), s2.clone()]);
        let mut p = Provenance::for_source(&source);
        let t = atom("T", &[konst("a")]);
        p.record_derived(
            t.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a"))],
            &[s1.clone()],
        );
        p.record_derived(
            t.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a"))],
            &[s2.clone()],
        );
        // Identical re-recording is a no-op.
        p.record_derived(
            t.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a"))],
            &[s2.clone()],
        );
        assert_eq!(p.support(&t), 2);
        assert_eq!(p.derivations(&t).count(), 2);
        // The first derivation is still what explain() reports.
        match p.derivation(&t).unwrap() {
            Derivation::Tgd { dep, .. } => assert_eq!(dep.to_string(), "d1"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retraction_spares_atoms_rederived_via_second_chain() {
        // The regression case for first-write-wins: T(a) has chains
        // through P(a) and through Q(a); deleting P must not kill it.
        let s1 = atom("P", &[konst("a")]);
        let s2 = atom("Q", &[konst("a")]);
        let source = Instance::from_atoms([s1.clone(), s2.clone()]);
        let mut p = Provenance::for_source(&source);
        let t = atom("T", &[konst("a")]);
        p.record_derived(
            t.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a"))],
            &[s1.clone()],
        );
        p.record_derived(
            t.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a"))],
            &[s2.clone()],
        );
        let u = atom("U", &[konst("a")]);
        p.record_derived(
            u.clone(),
            sym("d3"),
            2,
            &[(sym("x"), konst("a"))],
            &[t.clone()],
        );
        let removed = p.retract_sources(std::slice::from_ref(&s1));
        assert_eq!(removed, vec![s1.clone()]);
        assert_eq!(p.support(&t), 1);
        assert!(p.explain(&u).unwrap().ends_in_sources());
        // Deleting the second chain now kills the whole cone.
        let mut removed = p.retract_sources(std::slice::from_ref(&s2));
        removed.sort();
        let mut expect = vec![s2, t.clone(), u.clone()];
        expect.sort();
        assert_eq!(removed, expect);
        assert!(p.derivation(&t).is_none());
        assert_agrees(&p);
    }

    #[test]
    fn retraction_kills_self_supporting_cycles() {
        // A and B justify each other; the only external support is S.
        // Deleting S must kill both (least-fixpoint aliveness — a
        // counting scheme that only decrements would keep the cycle).
        let s = atom("S", &[konst("a")]);
        let source = Instance::from_atoms([s.clone()]);
        let mut p = Provenance::for_source(&source);
        let a = atom("A", &[konst("a")]);
        let b = atom("B", &[konst("a")]);
        p.record_derived(
            a.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a"))],
            &[s.clone()],
        );
        p.record_derived(
            b.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a"))],
            &[a.clone()],
        );
        p.record_derived(
            a.clone(),
            sym("d3"),
            2,
            &[(sym("x"), konst("a"))],
            &[b.clone()],
        );
        assert_eq!(p.support(&a), 2);
        let mut removed = p.retract_sources(std::slice::from_ref(&s));
        removed.sort();
        let mut expect = vec![s, a, b];
        expect.sort();
        assert_eq!(removed, expect);
        assert_agrees(&p);
    }

    #[test]
    fn dead_merge_over_deletes_its_winner_cone() {
        // P(a) -> ∃z F(a,z) gives F(a,⊥1); Q(a,c) -> F(a,c); the key
        // egd merges ⊥1 ↦ c. Deleting Q(a,c) kills the merge, so the
        // rekeyed F(a,c) must be over-deleted (a re-chase would have
        // F(a,⊥) — keeping F(a,c) would be unsound).
        let n1 = Value::null(1);
        let pa = atom("P", &[konst("a")]);
        let qac = atom("Q", &[konst("a"), konst("c")]);
        let source = Instance::from_atoms([pa.clone(), qac.clone()]);
        let mut p = Provenance::for_source(&source);
        let f_null = atom("F", &[konst("a"), n1]);
        let f_c = atom("F", &[konst("a"), konst("c")]);
        p.record_derived(
            f_null.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a")), (sym("z"), n1)],
            &[pa.clone()],
        );
        p.record_derived(
            f_c.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a")), (sym("y"), konst("c"))],
            &[qac.clone()],
        );
        p.record_merge("e1", n1, konst("c"), &[f_null.clone(), f_c.clone()]);
        // Post-merge, F(a,c) carries both the Q-chain and the rekeyed
        // P-chain.
        assert_eq!(p.support(&f_c), 2);
        let mut removed = p.retract_sources(std::slice::from_ref(&qac));
        removed.sort();
        let mut expect = vec![qac, f_c.clone()];
        expect.sort();
        assert_eq!(removed, expect);
        // The dead merge is dropped from the record.
        assert!(p.merges().is_empty());
        assert!(p.derivation(&f_c).is_none());
        assert_agrees(&p);
    }

    #[test]
    fn unrelated_deletions_leave_merges_intact() {
        let n1 = Value::null(1);
        let pa = atom("P", &[konst("a")]);
        let rb = atom("R", &[konst("b")]);
        let qac = atom("Q", &[konst("a"), konst("c")]);
        let source = Instance::from_atoms([pa.clone(), rb.clone(), qac.clone()]);
        let mut p = Provenance::for_source(&source);
        let f_null = atom("F", &[konst("a"), n1]);
        let f_c = atom("F", &[konst("a"), konst("c")]);
        let g_b = atom("G", &[konst("b")]);
        p.record_derived(
            f_null.clone(),
            sym("d1"),
            0,
            &[(sym("x"), konst("a")), (sym("z"), n1)],
            &[pa.clone()],
        );
        p.record_derived(
            f_c.clone(),
            sym("d2"),
            1,
            &[(sym("x"), konst("a")), (sym("y"), konst("c"))],
            &[qac.clone()],
        );
        p.record_merge("e1", n1, konst("c"), &[f_null, f_c.clone()]);
        p.record_derived(
            g_b.clone(),
            sym("d3"),
            2,
            &[(sym("x"), konst("b"))],
            &[rb.clone()],
        );
        let removed = p.retract_sources(std::slice::from_ref(&rb));
        let mut removed = removed;
        removed.sort();
        let mut expect = vec![rb, g_b];
        expect.sort();
        assert_eq!(removed, expect);
        assert_eq!(p.merges().len(), 1);
        assert_eq!(p.support(&f_c), 2);
        assert_agrees(&p);
    }

    /// Seven atoms over {⊥1, ⊥2} collapse into `H(⊥1,⊥1,⊥1)`, which
    /// also exists unchanged: its justifications stay first, then the
    /// re-keyed atoms' follow in atom order, whatever order the value
    /// index hands them out in.
    #[test]
    fn colliding_rekeyed_atoms_fold_in_atom_order() {
        let (n1, n2) = (Value::null(1), Value::null(2));
        let sources: Vec<Atom> = (0..8)
            .map(|i| atom("S", &[konst(&format!("s{i}"))]))
            .collect();
        let mut p = Provenance::for_source(&Instance::from_atoms(sources.clone()));
        let mut moved = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let args: Vec<Value> = (0..3)
                .map(|b| if i >> b & 1 == 1 { n2 } else { n1 })
                .collect();
            let h = atom("H", &args);
            p.record_derived(h.clone(), sym("d"), i, &[], std::slice::from_ref(src));
            if i > 0 {
                moved.push((h, i));
            }
        }
        p.record_merge("key", n2, n1, &[]);
        assert_agrees(&p);
        moved.sort();
        let order: Vec<usize> = p
            .derivations(&atom("H", &[n1, n1, n1]))
            .map(|d| match d {
                Derivation::Tgd { dep_index, .. } => *dep_index,
                Derivation::Source => unreachable!("H is derived"),
            })
            .collect();
        let expect: Vec<usize> = std::iter::once(0)
            .chain(moved.iter().map(|m| m.1))
            .collect();
        assert_eq!(order, expect);
    }

    /// A map that never merges or retracts never builds its indexes;
    /// the first merge builds them from what was recorded so far.
    #[test]
    fn indexes_are_built_by_the_first_merge() {
        let n1 = Value::null(1);
        let src = atom("P", &[konst("a")]);
        let mut p = Provenance::for_source(&Instance::from_atoms([src.clone()]));
        let f = atom("F", &[konst("a"), n1]);
        p.record_derived(
            f.clone(),
            sym("d1"),
            0,
            &[(sym("z"), n1)],
            std::slice::from_ref(&src),
        );
        assert!(!p.indexed && p.by_value.is_empty() && p.cited_by.is_empty());
        assert_eq!(p.entries_visited(), 0);
        p.record_merge("e", n1, konst("c"), std::slice::from_ref(&f));
        assert!(p.indexed);
        assert_agrees(&p);
        p.record_derived(
            atom("G", &[konst("c")]),
            sym("d2"),
            1,
            &[],
            &[atom("F", &[konst("a"), konst("c")])],
        );
        assert_agrees(&p);
    }

    /// Deleting one source atom of one group visits the same entries
    /// whether there are 4 groups or 32: the cone, not the map.
    #[test]
    fn retraction_visits_only_the_affected_cone() {
        let visits = |groups: usize| {
            let mut p = Provenance::default();
            for g in 0..groups {
                let (a, c) = (konst(&format!("a{g}")), konst(&format!("c{g}")));
                let null = Value::null(g as u32);
                let (pa, qac) = (atom("P", &[a]), atom("Q", &[a, c]));
                p.record_source(pa.clone());
                p.record_source(qac.clone());
                let (f_null, f_c) = (atom("F", &[a, null]), atom("F", &[a, c]));
                p.record_derived(f_null.clone(), sym("d1"), 0, &[(sym("z"), null)], &[pa]);
                p.record_derived(f_c.clone(), sym("d2"), 1, &[], &[qac]);
                p.record_merge("key", null, c, &[f_null, f_c]);
            }
            let before = p.entries_visited();
            let removed = p.retract_sources(&[atom("Q", &[konst("a0"), konst("c0")])]);
            assert_eq!(removed.len(), 2, "Q(a0,c0) and the merged F(a0,c0) die");
            assert_eq!(p.merges().len(), groups - 1);
            assert_agrees(&p);
            p.entries_visited() - before
        };
        assert_eq!(visits(4), visits(32));
    }
}
