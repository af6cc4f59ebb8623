//! Relational instances: finite sets of atoms over `Const ∪ Null`
//! (Section 2), with per-relation position indexes for fast trigger
//! matching during chase and query evaluation.
//!
//! Rows are append-only with tombstones: an egd merge rewrites the rows
//! it touches in place ([`Instance::merge_value`]) by tombstoning the old
//! row and re-appending the rewritten one, so rewritten rows re-enter the
//! delta window tracked by [`DeltaCursor`] and semi-naive chase loops see
//! them again.
//!
//! Each row is stored once. A relation keeps its row log flat, in one
//! `Vec<Value>` walked in strides of its arity, and hands rows out as
//! borrowed slices. Membership hashes a row and walks the chain of live
//! rows with that hash; the position index keeps a value seen once inline
//! in its bucket, so a fresh null or a key allocates no bucket.
//!
//! Relations are copy-on-write: an instance holds each relation behind
//! an [`Arc`], so a clone copies one pointer per relation, and the first
//! write to a relation two instances share copies that relation alone.
//! A write that changes nothing (a duplicate insert, removing an absent
//! atom, a merge of a value the relation does not hold) copies nothing.

use crate::atom::Atom;
use crate::hash::{BuildIdHasher, IdMap};
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::value::{NullId, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// The end of a hash chain.
const NIL: u32 = u32::MAX;

/// Row `i` of a flat row log of width `arity`.
fn row_at(data: &[Value], arity: usize, i: u32) -> &[Value] {
    let at = i as usize * arity;
    &data[at..at + arity]
}

/// The row equal to `row` on the hash chain that starts at row `i`.
fn chain_find(
    data: &[Value],
    arity: usize,
    chain: &[u32],
    mut i: u32,
    row: &[Value],
) -> Option<u32> {
    while i != NIL {
        if row_at(data, arity, i) == row {
            return Some(i);
        }
        i = chain[i as usize];
    }
    None
}

/// The membership hash of a row.
fn row_hash(row: &[Value]) -> u64 {
    let h = BuildIdHasher::default().hash_one(row);
    #[cfg(test)]
    let h = h & tests::ROW_HASH_MASK.with(std::cell::Cell::get);
    h
}

/// The live rows holding one value at one position, in row-log order.
/// A value held by one row keeps it inline; `Many` always holds two or
/// more.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(i) => std::slice::from_ref(i),
            Bucket::Many(ids) => ids,
        }
    }

    /// Appends `idx`, which is newer than every row in the bucket.
    fn push(&mut self, idx: u32) {
        match self {
            Bucket::One(i) => *self = Bucket::Many(vec![*i, idx]),
            Bucket::Many(ids) => ids.push(idx),
        }
    }

    /// Drops `idx`; `true` iff the bucket is left empty.
    fn remove(&mut self, idx: u32) -> bool {
        match self {
            Bucket::One(i) => {
                debug_assert_eq!(*i, idx, "row missing from its bucket");
                true
            }
            Bucket::Many(ids) => {
                if let Ok(at) = ids.binary_search(&idx) {
                    ids.remove(at);
                }
                if let [i] = ids[..] {
                    *self = Bucket::One(i);
                }
                false
            }
        }
    }

    fn renumber(&mut self, renumber: &[u32]) {
        match self {
            Bucket::One(i) => *i = renumber[*i as usize],
            Bucket::Many(ids) => ids.iter_mut().for_each(|i| *i = renumber[*i as usize]),
        }
    }
}

/// The tuples of one relation: a flat row log, hash chains for O(1)
/// membership and a per-(position, value) inverted index for pattern
/// matching. A row `alive` marks as dead is a tombstone left behind by
/// [`Instance::merge_value`] or [`Instance::remove`]; chains and index
/// buckets are kept eagerly clean, so they only ever reach live rows.
#[derive(Clone, Default)]
struct Relation {
    arity: usize,
    /// The row log: row `i` is `data[i * arity..(i + 1) * arity]`. A
    /// tombstoned row keeps its values.
    data: Vec<Value>,
    /// Whether each row of the log is live; its length is the log's.
    alive: Vec<bool>,
    /// Number of live rows.
    live: usize,
    /// Row hash → the newest live row with that hash.
    heads: IdMap<u64, u32>,
    /// Per live row, the next older live row with its hash (or `NIL`).
    chain: Vec<u32>,
    /// `(position, value) → live rows`.
    index: IdMap<(u32, Value), Bucket>,
}

impl Relation {
    fn new(arity: usize) -> Relation {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    fn row(&self, idx: u32) -> &[Value] {
        row_at(&self.data, self.arity, idx)
    }

    /// The live row equal to `row`, if any.
    fn find(&self, row: &[Value]) -> Option<u32> {
        let head = *self.heads.get(&row_hash(row))?;
        chain_find(&self.data, self.arity, &self.chain, head, row)
    }

    fn contains(&self, row: &[Value]) -> bool {
        self.find(row).is_some()
    }

    fn insert(&mut self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let idx = self.alive.len() as u32;
        let older = match self.heads.entry(row_hash(row)) {
            Entry::Occupied(mut head) => {
                if chain_find(&self.data, self.arity, &self.chain, *head.get(), row).is_some() {
                    return false;
                }
                head.insert(idx)
            }
            Entry::Vacant(head) => {
                head.insert(idx);
                NIL
            }
        };
        self.data.extend_from_slice(row);
        self.alive.push(true);
        self.chain.push(older);
        for (pos, &v) in row.iter().enumerate() {
            self.index
                .entry((pos as u32, v))
                .and_modify(|b| b.push(idx))
                .or_insert(Bucket::One(idx));
        }
        self.live += 1;
        true
    }

    /// Whether the log holds no more tombstones than live rows.
    fn bounded(&self) -> bool {
        self.alive.len() <= 2 * self.live
    }

    /// `r` itself when its tombstones are bounded, else a compacted copy:
    /// what a copy of a whole relation hands on.
    fn shared(r: &Arc<Relation>) -> Arc<Relation> {
        if r.bounded() {
            Arc::clone(r)
        } else {
            Arc::new(r.compacted())
        }
    }

    /// A copy without tombstones: live rows copied densely in log order,
    /// the chains and index copied and renumbered rather than rebuilt, so
    /// the copy equals re-inserting the live rows.
    fn compacted(&self) -> Relation {
        let mut renumber = vec![NIL; self.alive.len()];
        let mut data = Vec::with_capacity(self.live * self.arity);
        for (next, i) in self.live_ids().enumerate() {
            renumber[i as usize] = next as u32;
            data.extend_from_slice(self.row(i));
        }
        let chain = self
            .live_ids()
            .map(|i| match self.chain[i as usize] {
                NIL => NIL,
                older => renumber[older as usize],
            })
            .collect();
        let mut heads = self.heads.clone();
        heads.values_mut().for_each(|i| *i = renumber[*i as usize]);
        let mut index = self.index.clone();
        index.values_mut().for_each(|b| b.renumber(&renumber));
        Relation {
            arity: self.arity,
            data,
            alive: vec![true; self.live],
            live: self.live,
            heads,
            chain,
            index,
        }
    }

    /// The log indices of the live rows, in log order.
    fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| i as u32)
    }

    fn live_rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.live_ids().map(|i| self.row(i))
    }

    /// Removes the row at `idx`, unlinking it from its hash chain and
    /// scrubbing it from every index bucket it occurs in. Its values stay
    /// in the log.
    fn tombstone(&mut self, idx: u32) {
        let i = idx as usize;
        assert!(self.alive[i], "tombstoning a dead row");
        self.alive[i] = false;
        self.live -= 1;
        let row = row_at(&self.data, self.arity, idx);
        let h = row_hash(row);
        let older = std::mem::replace(&mut self.chain[i], NIL);
        let head = self.heads.get_mut(&h).expect("live row is chained");
        if *head == idx {
            match older {
                NIL => {
                    self.heads.remove(&h);
                }
                older => *head = older,
            }
        } else {
            let mut p = *head as usize;
            while self.chain[p] != idx {
                p = self.chain[p] as usize;
            }
            self.chain[p] = older;
        }
        for (pos, &v) in row.iter().enumerate() {
            let key = (pos as u32, v);
            if self.index.get_mut(&key).is_some_and(|b| b.remove(idx)) {
                self.index.remove(&key);
            }
        }
    }

    /// The rows an index probe for `pattern` visits: the smallest
    /// bound-position bucket (the first such position on ties), or every
    /// live row when the pattern is all-wildcard. One hash lookup per
    /// bound position; the bucket is handed over, not filtered.
    fn probe(&self, pattern: &[Option<Value>]) -> Candidates<'_> {
        debug_assert_eq!(pattern.len(), self.arity);
        let mut best: Option<&[u32]> = None;
        for (pos, v) in pattern.iter().enumerate() {
            let Some(v) = *v else { continue };
            let bucket = self
                .index
                .get(&(pos as u32, v))
                .map_or(&[][..], Bucket::as_slice);
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
                if bucket.is_empty() {
                    break;
                }
            }
        }
        let (len, walk) = match best {
            Some(ids) => (ids.len(), Walk::Bucket(ids.iter())),
            None => (self.live, Walk::Log(self.alive.iter().enumerate())),
        };
        Candidates {
            len,
            data: &self.data,
            arity: self.arity,
            walk,
        }
    }

    fn row_matches(row: &[Value], pattern: &[Option<Value>]) -> bool {
        row.iter()
            .zip(pattern)
            .all(|(&v, p)| p.is_none_or(|pv| pv == v))
    }
}

/// The candidate rows of one index probe ([`Instance::probe`]), borrowed
/// from the instance in row-log order. Every row matching the probed
/// pattern is among them; rows that do not match may be too, so callers
/// still check each row against the pattern.
pub(crate) struct Candidates<'a> {
    len: usize,
    /// The relation's row log and arity.
    data: &'a [Value],
    arity: usize,
    walk: Walk<'a>,
}

enum Walk<'a> {
    /// The rows of one index bucket.
    Bucket(std::slice::Iter<'a, u32>),
    /// The whole log, past its tombstones: the relation's `alive` flags.
    Log(std::iter::Enumerate<std::slice::Iter<'a, bool>>),
}

impl<'a> Candidates<'a> {
    /// The probe's candidates with no rows: a relation that is absent or
    /// used at another arity.
    fn none() -> Candidates<'a> {
        Candidates {
            len: 0,
            data: &[],
            arity: 0,
            walk: Walk::Log([].iter().enumerate()),
        }
    }

    /// The number of rows the probe visits, fixed when it was made: the
    /// bucket length, or the live row count of an all-wildcard probe.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let i = match &mut self.walk {
            Walk::Bucket(ids) => *ids.next()?,
            Walk::Log(log) => log.find(|(_, &alive)| alive)?.0 as u32,
        };
        Some(row_at(self.data, self.arity, i))
    }
}

/// A snapshot of per-relation row-log positions, handed out by
/// [`Instance::cursor`]. The atoms appended after a cursor was taken are
/// that cursor's *delta*; semi-naive chase rounds only examine triggers
/// touching at least one delta row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaCursor {
    marks: BTreeMap<Symbol, usize>,
}

impl DeltaCursor {
    /// The cursor before everything: every atom of the instance is delta.
    pub fn origin() -> DeltaCursor {
        DeltaCursor::default()
    }

    /// The recorded log position for `rel` (0 = from the beginning).
    pub fn mark(&self, rel: Symbol) -> usize {
        self.marks.get(&rel).copied().unwrap_or(0)
    }

    /// Moves `rel`'s mark to log position `mark`: the rows before it
    /// leave this cursor's delta.
    pub fn set_mark(&mut self, rel: Symbol, mark: usize) {
        self.marks.insert(rel, mark);
    }
}

/// A relational instance: a finite set of atoms.
///
/// Instances are schema-free containers; validation against a [`Schema`]
/// is explicit via [`Instance::check_against`]. Equality is set equality
/// (insertion order does not matter). A clone shares every relation
/// until one side writes to it (see the module docs).
#[derive(Clone, Default)]
pub struct Instance {
    rels: BTreeMap<Symbol, Arc<Relation>>,
    atom_count: usize,
    generation: u64,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Instance {
        let mut inst = Instance::new();
        for a in atoms {
            inst.insert(a);
        }
        inst
    }

    /// Inserts an atom; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the relation already holds tuples of a different arity —
    /// an instance cannot give one symbol two arities.
    pub fn insert(&mut self, atom: Atom) -> bool {
        self.insert_row(atom.rel, &atom.args)
    }

    /// [`Instance::insert`] of the atom `rel(row)`, from a borrowed row.
    fn insert_row(&mut self, rel: Symbol, row: &[Value]) -> bool {
        let r = self
            .rels
            .entry(rel)
            .or_insert_with(|| Arc::new(Relation::new(row.len())));
        assert_eq!(r.arity, row.len(), "relation {rel} used with two arities");
        // A relation shared with a clone is copied only for a new row.
        if Arc::strong_count(r) > 1 && r.contains(row) {
            return false;
        }
        let added = Arc::make_mut(r).insert(row);
        if added {
            self.atom_count += 1;
            self.generation += 1;
        }
        added
    }

    /// True iff the atom is present.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.rels
            .get(&atom.rel)
            .is_some_and(|r| r.arity == atom.args.len() && r.contains(&atom.args))
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atom_count
    }

    pub fn is_empty(&self) -> bool {
        self.atom_count == 0
    }

    /// A counter bumped by every mutation (insert or merge). Two equal
    /// generations of the same instance guarantee nothing changed between
    /// the two observations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Snapshots the current row-log position of every relation. Atoms
    /// inserted (or rewritten by [`Instance::merge_value`]) afterwards
    /// are visible through [`Instance::delta_rows`].
    pub fn cursor(&self) -> DeltaCursor {
        DeltaCursor {
            marks: self
                .rels
                .iter()
                .map(|(&rel, r)| (rel, r.alive.len()))
                .collect(),
        }
    }

    /// The live rows of `rel` appended since `cursor` was taken.
    pub fn delta_rows<'a>(
        &'a self,
        rel: Symbol,
        cursor: &DeltaCursor,
    ) -> impl Iterator<Item = &'a [Value]> + 'a {
        self.delta_rows_indexed(rel, cursor).map(|(_, row)| row)
    }

    /// [`Instance::delta_rows`] with each row's log index, the position
    /// [`DeltaCursor::set_mark`] counts in.
    pub fn delta_rows_indexed<'a>(
        &'a self,
        rel: Symbol,
        cursor: &DeltaCursor,
    ) -> impl Iterator<Item = (usize, &'a [Value])> + 'a {
        let mark = cursor.mark(rel);
        self.rels.get(&rel).into_iter().flat_map(move |r| {
            (mark.min(r.alive.len())..r.alive.len())
                .filter(|&i| r.alive[i])
                .map(|i| (i, r.row(i as u32)))
        })
    }

    /// True iff some relation has a live row appended since `cursor`.
    pub fn has_delta_since(&self, cursor: &DeltaCursor) -> bool {
        self.rels.iter().any(|(&rel, r)| {
            let mark = cursor.mark(rel).min(r.alive.len());
            r.alive[mark..].contains(&true)
        })
    }

    /// Iterates over all atoms (relation symbol order, then insertion order).
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        self.rels
            .iter()
            .flat_map(|(&rel, r)| r.live_rows().map(move |row| Atom::new(rel, row)))
    }

    /// Iterates over the tuples of one relation.
    pub fn rows_of(&self, rel: Symbol) -> impl Iterator<Item = &[Value]> + '_ {
        self.rels.get(&rel).into_iter().flat_map(|r| r.live_rows())
    }

    /// Number of tuples in one relation.
    pub fn rows_of_len(&self, rel: Symbol) -> usize {
        self.rels.get(&rel).map_or(0, |r| r.live)
    }

    /// The relation symbols with at least one tuple.
    pub fn relations(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels
            .iter()
            .filter(|(_, r)| r.live > 0)
            .map(|(&rel, _)| rel)
    }

    /// The arity under which `rel` is used, if it has tuples.
    pub fn arity_of(&self, rel: Symbol) -> Option<usize> {
        self.rels.get(&rel).filter(|r| r.live > 0).map(|r| r.arity)
    }

    /// The candidate rows for `pattern` (`None` = wildcard) in `rel`, from
    /// one index probe: the scoring count ([`Candidates::len`]) and the
    /// rows to visit come from the same bucket lookup.
    pub(crate) fn probe(&self, rel: Symbol, pattern: &[Option<Value>]) -> Candidates<'_> {
        match self.rels.get(&rel) {
            Some(r) if r.arity == pattern.len() => r.probe(pattern),
            _ => Candidates::none(),
        }
    }

    /// Iterates over tuples of `rel` matching `pattern` (`None` = wildcard).
    pub fn rows_matching<'a>(
        &'a self,
        rel: Symbol,
        pattern: &'a [Option<Value>],
    ) -> impl Iterator<Item = &'a [Value]> + 'a {
        self.probe(rel, pattern)
            .filter(move |row| Relation::row_matches(row, pattern))
    }

    /// Replaces every occurrence of `from` by `to` *in place* (egd
    /// application): each affected row is tombstoned and its rewrite
    /// re-appended through the normal insert path, so rewritten rows
    /// land in the delta of any outstanding [`DeltaCursor`] and the
    /// position indexes stay exact. Returns the number of rows rewritten
    /// (collapsed duplicates still count as rewritten).
    pub fn merge_value(&mut self, from: Value, to: Value) -> usize {
        if from == to {
            return 0;
        }
        let mut rewritten = 0;
        let mut new_row = Vec::new();
        for r in self.rels.values_mut() {
            // Looked up on the shared relation: one `from` never occurs
            // in is not copied.
            let mut hit: Vec<u32> = (0..r.arity as u32)
                .filter_map(|pos| r.index.get(&(pos, from)))
                .flat_map(Bucket::as_slice)
                .copied()
                .collect();
            if hit.is_empty() {
                continue;
            }
            hit.sort_unstable();
            hit.dedup();
            let r = Arc::make_mut(r);
            for idx in hit {
                r.tombstone(idx);
                self.atom_count -= 1;
                new_row.clear();
                new_row.extend(r.row(idx).iter().map(|&v| if v == from { to } else { v }));
                if r.insert(&new_row) {
                    self.atom_count += 1;
                }
                rewritten += 1;
            }
        }
        if rewritten > 0 {
            self.generation += 1;
        }
        rewritten
    }

    /// Removes an atom *in place*, tombstoning its row. Returns `true`
    /// iff the atom was present.
    ///
    /// Unlike [`Instance::merge_value`], nothing is re-appended: the
    /// removed row does **not** re-enter any outstanding
    /// [`DeltaCursor`]'s delta window (semi-naive chase loops only track
    /// additions; deletion maintenance is the caller's job — see
    /// `ChaseEngine::resume` in `dex-chase`).
    pub fn remove(&mut self, atom: &Atom) -> bool {
        let Some(rel) = self.rels.get_mut(&atom.rel) else {
            return false;
        };
        if rel.arity != atom.args.len() {
            return false;
        }
        let Some(idx) = rel.find(&atom.args) else {
            return false;
        };
        Arc::make_mut(rel).tombstone(idx);
        self.atom_count -= 1;
        self.generation += 1;
        true
    }

    /// The active domain `Dom(I)`.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.values().collect()
    }

    /// Iterates over every value occurrence in the instance.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.rels
            .values()
            .flat_map(|r| r.live_rows().flat_map(|row| row.iter().copied()))
    }

    /// `Const(I)`: the constants in the active domain.
    pub fn constants(&self) -> BTreeSet<Symbol> {
        self.values().filter_map(|v| v.as_const()).collect()
    }

    /// `Null(I)`: the nulls in the active domain.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.values().filter_map(|v| v.as_null()).collect()
    }

    /// True iff the instance contains no nulls (e.g. a source instance).
    pub fn is_ground(&self) -> bool {
        self.values().all(|v| v.is_const())
    }

    /// Validates every atom against `schema`.
    pub fn check_against(&self, schema: &Schema) -> Result<(), crate::schema::SchemaError> {
        for (&rel, r) in self.rels.iter().filter(|(_, r)| r.live > 0) {
            match schema.arity(rel) {
                None => return Err(crate::schema::SchemaError::UnknownRelation(rel)),
                Some(a) if a != r.arity => {
                    return Err(crate::schema::SchemaError::ArityMismatch {
                        rel,
                        expected: a,
                        found: r.arity,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The instance obtained by applying `f` to every value (e.g. the
    /// homomorphic image `h(I)`). Merged duplicates collapse.
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new();
        let mut image = Vec::new();
        for (&rel, r) in &self.rels {
            for row in r.live_rows() {
                image.clear();
                image.extend(row.iter().map(|&v| f(v)));
                out.insert_row(rel, &image);
            }
        }
        out
    }

    /// Replaces every occurrence of `from` by `to` (egd application),
    /// returning a fresh instance. [`Instance::merge_value`] is the
    /// in-place equivalent.
    pub fn rename_value(&self, from: Value, to: Value) -> Instance {
        self.map_values(|v| if v == from { to } else { v })
    }

    /// The union `I ∪ J`.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (&rel, r) in &other.rels {
            for row in r.live_rows() {
                out.insert_row(rel, row);
            }
        }
        out
    }

    /// The instance `I ∖ {atom}`.
    pub fn without_atom(&self, atom: &Atom) -> Instance {
        let mut out = Instance::new();
        for (&rel, r) in &self.rels {
            for row in r.live_rows() {
                if rel != atom.rel || row != &atom.args[..] {
                    out.insert_row(rel, row);
                }
            }
        }
        out
    }

    /// The set difference `I ∖ J`, relation by relation. A relation `J`
    /// has no row of is copied whole, not re-inserted row by row: it is
    /// shared with `I` when its log holds no more tombstones than live
    /// rows, and otherwise its live rows are copied into a fresh log, its
    /// tombstones dropped, and its hash chains and index buckets copied
    /// and renumbered, so no row is hashed either way. The difference
    /// thus costs the rows of the relations the two share, not the whole
    /// instance.
    pub fn difference(&self, other: &Instance) -> Instance {
        let mut out = Instance::new();
        for (&rel, r) in self.rels.iter().filter(|(_, r)| r.live > 0) {
            match other
                .rels
                .get(&rel)
                .filter(|o| o.live > 0 && o.arity == r.arity)
            {
                None => {
                    out.atom_count += r.live;
                    out.rels.insert(rel, Relation::shared(r));
                }
                Some(o) => {
                    for row in r.live_rows().filter(|row| !o.contains(row)) {
                        out.insert_row(rel, row);
                    }
                }
            }
        }
        out.generation = out.atom_count as u64;
        out
    }

    /// The `σ`-reduct: atoms whose relation is in `schema`. Each kept
    /// relation is copied whole as [`Instance::difference`] copies one,
    /// so a reduct costs O(#relations) when their tombstones are bounded.
    pub fn reduct(&self, schema: &Schema) -> Instance {
        let mut out = Instance::new();
        for (&rel, r) in &self.rels {
            if r.live > 0 && schema.contains(rel) {
                out.atom_count += r.live;
                out.rels.insert(rel, Relation::shared(r));
            }
        }
        out.generation = out.atom_count as u64;
        out
    }

    /// Compacts every relation whose row log holds more tombstones than
    /// live rows, so that no log holds more than twice its live rows.
    /// The atoms and their order are unchanged; log positions, and with
    /// them outstanding [`DeltaCursor`]s, are not.
    pub fn compact_tombstones(&mut self) {
        for r in self.rels.values_mut() {
            if !r.bounded() {
                *r = Arc::new(r.compacted());
            }
        }
    }

    /// True iff every atom of `self` occurs in `other`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.rels
            .iter()
            .filter(|(_, r)| r.live > 0)
            .all(|(rel, r)| {
                other
                    .rels
                    .get(rel)
                    .is_some_and(|o| o.arity == r.arity && r.live_rows().all(|row| o.contains(row)))
            })
    }

    /// All atoms, sorted — a canonical listing for display and comparison.
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut v: Vec<Atom> = self.atoms().collect();
        v.sort();
        v
    }

    /// The instance as a JSON array of atom strings, sorted — the
    /// canonical export shape (deterministic across runs up to null
    /// naming).
    pub fn to_json(&self) -> dex_obs::JsonValue {
        dex_obs::JsonValue::Arr(
            self.sorted_atoms()
                .iter()
                .map(|a| dex_obs::JsonValue::str(a.to_string()))
                .collect(),
        )
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.atom_count == other.atom_count && self.is_subinstance_of(other)
    }
}

impl Eq for Instance {}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.sorted_atoms().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromIterator<Atom> for Instance {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> Instance {
        Instance::from_atoms(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    thread_local! {
        /// The mask every row hash is cut down to on this thread: a
        /// narrow mask forces rows into shared hash chains.
        pub(super) static ROW_HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    /// Narrows the row hash of this thread to `mask` until dropped.
    struct NarrowHash;

    impl NarrowHash {
        fn to(mask: u64) -> NarrowHash {
            ROW_HASH_MASK.with(|m| m.set(mask));
            NarrowHash
        }
    }

    impl Drop for NarrowHash {
        fn drop(&mut self) {
            ROW_HASH_MASK.with(|m| m.set(u64::MAX));
        }
    }

    fn v(name: &str) -> Value {
        Value::konst(name)
    }

    fn sample() -> Instance {
        Instance::from_atoms([
            Atom::of("E", vec![v("a"), v("b")]),
            Atom::of("E", vec![v("a"), Value::null(1)]),
            Atom::of("F", vec![v("a"), Value::null(2)]),
        ])
    }

    #[test]
    fn insert_deduplicates() {
        let mut i = Instance::new();
        assert!(i.insert(Atom::of("E", vec![v("a"), v("b")])));
        assert!(!i.insert(Atom::of("E", vec![v("a"), v("b")])));
        assert_eq!(i.len(), 1);
    }

    #[test]
    #[should_panic(expected = "two arities")]
    fn insert_rejects_arity_conflicts() {
        let mut i = Instance::new();
        i.insert(Atom::of("E", vec![v("a")]));
        i.insert(Atom::of("E", vec![v("a"), v("b")]));
    }

    #[test]
    fn contains_and_len() {
        let i = sample();
        assert_eq!(i.len(), 3);
        assert!(i.contains(&Atom::of("E", vec![v("a"), v("b")])));
        assert!(!i.contains(&Atom::of("E", vec![v("b"), v("a")])));
        assert!(!i.contains(&Atom::of("G", vec![v("a")])));
    }

    #[test]
    fn domains() {
        let i = sample();
        assert_eq!(
            i.constants()
                .into_iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(
            i.nulls().into_iter().collect::<Vec<_>>(),
            vec![NullId(1), NullId(2)]
        );
        assert!(!i.is_ground());
        assert_eq!(i.active_domain().len(), 4);
    }

    #[test]
    fn remove_scrubs_set_index_and_counts() {
        let mut i = sample();
        let gen0 = i.generation();
        assert!(i.remove(&Atom::of("E", vec![v("a"), v("b")])));
        assert_eq!(i.len(), 2);
        assert!(i.generation() > gen0);
        assert!(!i.contains(&Atom::of("E", vec![v("a"), v("b")])));
        // Index buckets no longer reach the removed row.
        let pat = [Some(v("a")), None];
        assert_eq!(i.rows_matching(Symbol::intern("E"), &pat).count(), 1);
        assert_eq!(i.probe(Symbol::intern("E"), &pat).len(), 1);
        // Removing again (or removing an absent/misshapen atom) is a no-op.
        let gen1 = i.generation();
        assert!(!i.remove(&Atom::of("E", vec![v("a"), v("b")])));
        assert!(!i.remove(&Atom::of("Zzz", vec![v("a")])));
        assert!(!i.remove(&Atom::of("E", vec![v("a")])));
        assert_eq!(i.generation(), gen1);
    }

    #[test]
    fn remove_is_invisible_to_delta_cursors() {
        let mut i = sample();
        let cur = i.cursor();
        assert!(i.remove(&Atom::of("F", vec![v("a"), Value::null(2)])));
        // Deletions never enter the delta window (only appends do).
        assert!(!i.has_delta_since(&cur));
        i.insert(Atom::of("F", vec![v("b"), v("b")]));
        let delta: Vec<_> = i.delta_rows(Symbol::intern("F"), &cur).collect();
        assert_eq!(delta, vec![&[v("b"), v("b")][..]]);
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut i = sample();
        let a = Atom::of("E", vec![v("a"), v("b")]);
        assert!(i.remove(&a));
        assert!(i.insert(a.clone()));
        assert!(i.contains(&a));
        assert_eq!(i.len(), 3);
        assert_eq!(i, sample());
    }

    #[test]
    fn pattern_matching_uses_bound_positions() {
        let i = sample();
        let pat = [Some(v("a")), None];
        let rows: Vec<_> = i.rows_matching(Symbol::intern("E"), &pat).collect();
        assert_eq!(rows.len(), 2);
        let pat2 = [None, Some(v("b"))];
        let rows2: Vec<_> = i.rows_matching(Symbol::intern("E"), &pat2).collect();
        assert_eq!(rows2, vec![&[v("a"), v("b")][..]]);
    }

    #[test]
    fn pattern_matching_unknown_relation_is_empty() {
        let i = sample();
        let pat = [None, None];
        assert_eq!(i.rows_matching(Symbol::intern("Zzz"), &pat).count(), 0);
    }

    #[test]
    fn pattern_matching_wrong_arity_is_empty() {
        let i = sample();
        let pat = [None];
        assert_eq!(i.rows_matching(Symbol::intern("E"), &pat).count(), 0);
    }

    #[test]
    fn probe_len_is_exact_bucket_length() {
        let i = sample();
        let e = Symbol::intern("E");
        assert_eq!(i.probe(e, &[Some(v("a")), None]).len(), 2);
        assert_eq!(i.probe(e, &[None, Some(v("b"))]).len(), 1);
        assert_eq!(i.probe(e, &[None, None]).len(), 2);
        assert_eq!(i.probe(e, &[Some(v("zzz")), None]).len(), 0);
        assert_eq!(i.probe(Symbol::intern("Zzz"), &[None]).len(), 0);
        // Wrong arity: no candidates, matching rows_matching.
        assert_eq!(i.probe(e, &[None]).len(), 0);
    }

    #[test]
    fn probe_hands_over_the_scored_bucket_unfiltered() {
        let mut i = sample();
        let e = Symbol::intern("E");
        let rows = |i: &Instance, pat: &[Option<Value>]| -> Vec<Vec<Value>> {
            let probe = i.probe(e, pat);
            let len = probe.len();
            let rows: Vec<Vec<Value>> = probe.map(<[Value]>::to_vec).collect();
            assert_eq!(rows.len(), len);
            rows
        };
        // Both bound buckets hold one row: the first position's bucket
        // wins the tie and is handed over as is, although its one row
        // E(c,b) does not match the pattern.
        i.insert(Atom::of("E", vec![v("c"), v("b")]));
        i.insert(Atom::of("E", vec![v("a"), v("d")]));
        assert_eq!(
            rows(&i, &[Some(v("c")), Some(v("d"))]),
            vec![vec![v("c"), v("b")]]
        );
        // An all-wildcard probe walks the row log past tombstones.
        i.merge_value(v("d"), v("e"));
        let all = rows(&i, &[None, None]);
        assert_eq!(all.len(), i.rows_of_len(e));
        assert_eq!(all.last(), Some(&vec![v("a"), v("e")]));
    }

    #[test]
    fn map_values_collapses_duplicates() {
        let i = Instance::from_atoms([
            Atom::of("E", vec![v("a"), Value::null(1)]),
            Atom::of("E", vec![v("a"), Value::null(2)]),
        ]);
        let j = i.map_values(|val| if val.is_null() { v("b") } else { val });
        assert_eq!(j.len(), 1);
        assert!(j.contains(&Atom::of("E", vec![v("a"), v("b")])));
    }

    #[test]
    fn rename_value_replaces_all_occurrences() {
        let i = sample();
        let j = i.rename_value(Value::null(1), v("b"));
        assert!(j.contains(&Atom::of("E", vec![v("a"), v("b")])));
        assert_eq!(j.len(), 2); // E(a,_1) collapsed into E(a,b)
    }

    #[test]
    fn merge_value_agrees_with_rename_value() {
        let mut i = sample();
        let renamed = i.rename_value(Value::null(1), v("b"));
        let rewritten = i.merge_value(Value::null(1), v("b"));
        assert_eq!(rewritten, 1);
        assert_eq!(i, renamed);
        assert_eq!(i.len(), 2);
        // Indexes stay exact after the merge.
        let pat_b = [None, Some(v("b"))];
        let rows: Vec<_> = i.rows_matching(Symbol::intern("E"), &pat_b).collect();
        assert_eq!(rows, vec![&[v("a"), v("b")][..]]);
        let pat_n1 = [None, Some(Value::null(1))];
        assert_eq!(i.rows_matching(Symbol::intern("E"), &pat_n1).count(), 0);
    }

    #[test]
    fn merge_value_rewrites_every_position() {
        let mut i = Instance::from_atoms([
            Atom::of("E", vec![Value::null(1), Value::null(1)]),
            Atom::of("F", vec![v("a"), Value::null(1)]),
        ]);
        assert_eq!(i.merge_value(Value::null(1), v("c")), 2);
        assert!(i.contains(&Atom::of("E", vec![v("c"), v("c")])));
        assert!(i.contains(&Atom::of("F", vec![v("a"), v("c")])));
        assert!(i.is_ground());
        assert_eq!(i.merge_value(Value::null(1), v("c")), 0);
    }

    #[test]
    fn delta_cursor_sees_only_new_rows() {
        let mut i = sample();
        let cur = i.cursor();
        assert!(!i.has_delta_since(&cur));
        assert_eq!(i.delta_rows(Symbol::intern("E"), &cur).count(), 0);
        i.insert(Atom::of("E", vec![v("b"), v("c")]));
        assert!(i.has_delta_since(&cur));
        let delta: Vec<_> = i.delta_rows(Symbol::intern("E"), &cur).collect();
        assert_eq!(delta, vec![&[v("b"), v("c")][..]]);
        assert_eq!(i.delta_rows(Symbol::intern("F"), &cur).count(), 0);
        // The origin cursor sees everything.
        assert_eq!(
            i.delta_rows(Symbol::intern("E"), &DeltaCursor::origin())
                .count(),
            3
        );
    }

    #[test]
    fn merged_rows_reenter_the_delta() {
        let mut i = sample();
        let cur = i.cursor();
        i.merge_value(Value::null(1), v("x"));
        assert!(i.has_delta_since(&cur));
        let delta: Vec<_> = i.delta_rows(Symbol::intern("E"), &cur).collect();
        assert_eq!(delta, vec![&[v("a"), v("x")][..]]);
    }

    #[test]
    fn indexed_delta_skips_tombstones_and_honours_set_mark() {
        let e = Symbol::intern("E");
        let mut i = sample();
        i.merge_value(Value::null(1), v("x"));
        // Log: 0 = E(a,b), 1 = tombstone of E(a,⊥1), 2 = E(a,x).
        let all: Vec<_> = i.delta_rows_indexed(e, &DeltaCursor::origin()).collect();
        assert_eq!(
            all,
            vec![(0, &[v("a"), v("b")][..]), (2, &[v("a"), v("x")][..])]
        );
        let mut cur = DeltaCursor::origin();
        cur.set_mark(e, 1);
        assert_eq!(cur.mark(e), 1);
        let rest: Vec<_> = i.delta_rows_indexed(e, &cur).map(|(idx, _)| idx).collect();
        assert_eq!(rest, vec![2]);
        cur.set_mark(e, 3);
        assert_eq!(i.delta_rows(e, &cur).count(), 0);
    }

    #[test]
    fn generation_bumps_on_mutation_only() {
        let mut i = sample();
        let g0 = i.generation();
        assert!(!i.insert(Atom::of("E", vec![v("a"), v("b")]))); // duplicate
        assert_eq!(i.generation(), g0);
        i.insert(Atom::of("G", vec![v("q")]));
        assert!(i.generation() > g0);
        let g1 = i.generation();
        i.merge_value(Value::null(7), v("a")); // no occurrences
        assert_eq!(i.generation(), g1);
        i.merge_value(Value::null(1), v("a"));
        assert!(i.generation() > g1);
    }

    #[test]
    fn fully_merged_relation_disappears_from_views() {
        let mut i = Instance::from_atoms([
            Atom::of("E", vec![Value::null(1)]),
            Atom::of("E", vec![v("a")]),
        ]);
        i.merge_value(Value::null(1), v("a"));
        assert_eq!(i.len(), 1);
        assert_eq!(i.rows_of_len(Symbol::intern("E")), 1);
        assert_eq!(i.relations().count(), 1);
        assert_eq!(i.sorted_atoms(), vec![Atom::of("E", vec![v("a")])]);
    }

    #[test]
    fn union_difference_without() {
        let i = sample();
        let extra = Instance::from_atoms([Atom::of("G", vec![v("c")])]);
        let u = i.union(&extra);
        assert_eq!(u.len(), 4);
        let d = u.difference(&i);
        assert_eq!(d, extra);
        let w = i.without_atom(&Atom::of("F", vec![v("a"), Value::null(2)]));
        assert_eq!(w.len(), 2);
        assert!(w.is_subinstance_of(&i));
    }

    #[test]
    fn difference_copies_unshared_relations_without_tombstones() {
        let n1 = Value::null(1);
        let mut i = Instance::from_atoms([
            Atom::of("E", vec![n1, v("a")]),
            Atom::of("E", vec![v("b"), n1]),
            Atom::of("E", vec![v("c"), v("d")]),
            Atom::of("F", vec![v("a"), v("b")]),
            Atom::of("F", vec![n1, v("c")]),
        ]);
        // Tombstones in both relations: rewritten rows are re-appended.
        i.merge_value(n1, v("a"));
        i.remove(&Atom::of("E", vec![v("c"), v("d")]));
        // F is shared and filtered row by row; E is copied whole.
        let other = Instance::from_atoms([Atom::of("F", vec![v("a"), v("c")])]);
        let d = i.difference(&other);
        let rebuilt = Instance::from_atoms(i.atoms().filter(|a| !other.contains(a)));
        assert_eq!(d, rebuilt);
        assert_eq!(
            d.atoms().collect::<Vec<_>>(),
            rebuilt.atoms().collect::<Vec<_>>()
        );
        for (rel, r) in &d.rels {
            let b = &rebuilt.rels[rel];
            assert_eq!(r.data, b.data, "{rel}: rows differ from a rebuild");
            assert_eq!(r.alive, b.alive, "{rel}: tombstones differ from a rebuild");
            assert_eq!(r.heads, b.heads, "{rel}: chain heads differ from a rebuild");
            assert_eq!(r.chain, b.chain, "{rel}: chains differ from a rebuild");
            assert_eq!(r.index, b.index, "{rel}: index differs from a rebuild");
            assert_eq!(r.live, r.alive.len());
        }
    }

    #[test]
    fn reduct_keeps_only_schema_relations() {
        let i = sample();
        let sigma = Schema::of(&[("E", 2)]);
        let r = i.reduct(&sigma);
        assert_eq!(r.len(), 2);
        assert!(r.relations().all(|s| s.as_str() == "E"));
    }

    #[test]
    fn equality_is_set_equality() {
        let a = Instance::from_atoms([
            Atom::of("E", vec![v("a"), v("b")]),
            Atom::of("F", vec![v("c")]),
        ]);
        let b = Instance::from_atoms([
            Atom::of("F", vec![v("c")]),
            Atom::of("E", vec![v("a"), v("b")]),
        ]);
        assert_eq!(a, b);
        assert_ne!(a, Instance::new());
    }

    #[test]
    fn check_against_schema() {
        let i = sample();
        assert!(i.check_against(&Schema::of(&[("E", 2), ("F", 2)])).is_ok());
        assert!(i.check_against(&Schema::of(&[("E", 2)])).is_err());
        assert!(i.check_against(&Schema::of(&[("E", 3), ("F", 2)])).is_err());
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let i = Instance::from_atoms([
            Atom::of("F", vec![v("c")]),
            Atom::of("E", vec![v("a"), v("b")]),
        ]);
        assert_eq!(format!("{i}"), "{E(a,b), F(c)}");
    }

    /// Checks the storage of `r` against itself: every live row is on the
    /// chain of its hash exactly once, chains run from newer to older rows
    /// and hold no tombstone, and the index buckets hold exactly the live
    /// rows per (position, value), in log order, inline when alone.
    fn storage_faults(r: &Relation) -> Result<(), String> {
        let log = r.alive.len();
        if r.data.len() != log * r.arity || r.chain.len() != log {
            return Err(format!(
                "log of {log} rows has {} values and {} chain links",
                r.data.len(),
                r.chain.len()
            ));
        }
        let mut chained = vec![false; log];
        for (&h, &head) in &r.heads {
            let mut i = head;
            while i != NIL {
                let row = r.row(i);
                if !r.alive[i as usize] || row_hash(row) != h || chained[i as usize] {
                    return Err(format!("chain of hash {h:#x} reaches row {i} wrongly"));
                }
                chained[i as usize] = true;
                let older = r.chain[i as usize];
                if older != NIL && older >= i {
                    return Err(format!("chain runs from row {i} to newer row {older}"));
                }
                i = older;
            }
        }
        let live: Vec<u32> = r.live_ids().collect();
        if live.len() != r.live || live.iter().any(|&i| !chained[i as usize]) {
            return Err(format!(
                "{} live rows, {} counted, not all chained",
                live.len(),
                r.live
            ));
        }
        let mut want: BTreeMap<(u32, Value), Vec<u32>> = BTreeMap::new();
        for &i in &live {
            for (pos, &v) in r.row(i).iter().enumerate() {
                want.entry((pos as u32, v)).or_default().push(i);
            }
        }
        if want.len() != r.index.len() {
            return Err(format!(
                "{} index keys, {} wanted",
                r.index.len(),
                want.len()
            ));
        }
        for (key, ids) in want {
            match r.index.get(&key) {
                Some(b @ Bucket::One(_)) if ids.len() == 1 && b.as_slice() == ids => {}
                Some(Bucket::Many(got)) if ids.len() > 1 && *got == ids => {}
                got => return Err(format!("bucket {key:?} is {got:?}, want {ids:?}")),
            }
        }
        Ok(())
    }

    #[test]
    fn one_hash_chain_unlinks_from_head_middle_and_tail() {
        let _narrow = NarrowHash::to(0);
        let e = Symbol::intern("E");
        let row = |i: u32| vec![v("k"), Value::null(i)];
        let mut i = Instance::from_atoms((0..6).map(|k| Atom::new(e, row(k))));
        let chain = |i: &Instance| -> Vec<u32> {
            let r = &i.rels[&e];
            assert_eq!(r.heads.len(), 1, "one hash, one chain");
            let mut at = r.heads[&0];
            let mut out = Vec::new();
            while at != NIL {
                out.push(at);
                at = r.chain[at as usize];
            }
            out
        };
        assert_eq!(chain(&i), vec![5, 4, 3, 2, 1, 0]);
        assert!(
            !i.insert(Atom::new(e, row(3))),
            "a duplicate deep in the chain"
        );
        assert!(i.remove(&Atom::new(e, row(5))), "head");
        assert!(i.remove(&Atom::new(e, row(2))), "middle");
        assert!(i.remove(&Atom::new(e, row(0))), "tail");
        assert_eq!(chain(&i), vec![4, 3, 1]);
        storage_faults(&i.rels[&e]).unwrap();
        for k in 0..6 {
            assert_eq!(i.contains(&Atom::new(e, row(k))), [1, 3, 4].contains(&k));
        }
        assert!(!i.remove(&Atom::new(e, row(2))));
        // A merge that collapses one chained row onto another appends
        // nothing.
        assert_eq!(i.merge_value(Value::null(4), Value::null(3)), 1);
        assert_eq!(chain(&i), vec![3, 1]);
        assert!(i.insert(Atom::new(e, row(0))));
        assert_eq!(chain(&i), vec![6, 3, 1]);
        storage_faults(&i.rels[&e]).unwrap();
        let copy = i.difference(&Instance::new());
        storage_faults(&copy.rels[&e]).unwrap();
        assert_eq!(chain(&copy), vec![2, 1, 0]);
        // Unlinking the last row of the chain drops its head.
        for k in [0, 1, 3] {
            assert!(i.remove(&Atom::new(e, row(k))));
        }
        assert!(i.rels[&e].heads.is_empty());
        storage_faults(&i.rels[&e]).unwrap();
    }

    /// One step of the storage differential. Row choices that need the
    /// current state (`*Nth`) pick among the live rows modulo their count.
    #[derive(Debug)]
    enum Op {
        Insert(usize, Vec<Value>),
        /// Re-inserts a live row: always a duplicate.
        ReinsertNth(usize, usize),
        Remove(usize, Vec<Value>),
        RemoveNth(usize, usize),
        Merge(Value, Value),
        Clone,
        Difference(Vec<(usize, Vec<Value>)>),
        Union(Vec<(usize, Vec<Value>)>),
        MapValues(Value, Value),
        WithoutNth(usize, usize),
        Reduct(usize),
        Cursor,
        /// Clones the instance and applies these writes to one side
        /// while the ops after it go on with the other; both sides stay
        /// checked against their own models from then on.
        Fork(Vec<Op>),
    }

    /// The differential's input: the ops, whether the row hash is
    /// narrowed so most rows share chains, the seed of the
    /// multi-position probe patterns, and which side of a fork its
    /// writes go to (the clone, or else the original while the ops after
    /// the fork go on with the clone).
    #[derive(Debug)]
    struct Case {
        narrow: bool,
        ops: Vec<Op>,
        probe_seed: u64,
        fork_writes_clone: bool,
    }

    /// The differential's relations: a nullary one, a binary one and one
    /// wider than the kernel's stack patterns.
    fn model_rels() -> [(Symbol, usize); 3] {
        [
            (Symbol::intern("StoreN"), 0),
            (Symbol::intern("StoreE"), 2),
            (Symbol::intern("StoreW"), crate::join::STACK_ARITY + 2),
        ]
    }

    fn model_domain() -> Vec<Value> {
        vec![
            v("a"),
            v("b"),
            v("c"),
            Value::null(1),
            Value::null(2),
            Value::null(3),
        ]
    }

    /// One relation of the [`Model`]: a row log with `None` for
    /// tombstones, and the set of live rows.
    type ModelRel = (Vec<Option<Vec<Value>>>, BTreeSet<Vec<Value>>);

    /// The plain model of an instance.
    #[derive(Clone, Default)]
    struct Model {
        rels: BTreeMap<Symbol, ModelRel>,
    }

    impl Model {
        fn insert(&mut self, rel: Symbol, row: &[Value]) -> bool {
            let (log, set) = self.rels.entry(rel).or_default();
            if !set.insert(row.to_vec()) {
                return false;
            }
            log.push(Some(row.to_vec()));
            true
        }

        fn remove(&mut self, rel: Symbol, row: &[Value]) -> bool {
            let Some((log, set)) = self.rels.get_mut(&rel) else {
                return false;
            };
            if !set.remove(row) {
                return false;
            }
            let at = log.iter().position(|r| r.as_deref() == Some(row));
            log[at.expect("a live row is in the log")] = None;
            true
        }

        fn live(&self, rel: Symbol) -> Vec<(usize, Vec<Value>)> {
            self.rels.get(&rel).map_or(Vec::new(), |(log, _)| {
                log.iter()
                    .enumerate()
                    .filter_map(|(i, r)| Some((i, r.clone()?)))
                    .collect()
            })
        }

        fn nth_live(&self, rel: Symbol, n: usize) -> Option<Vec<Value>> {
            let live = self.live(rel);
            (!live.is_empty()).then(|| live[n % live.len()].1.clone())
        }

        fn len(&self) -> usize {
            self.rels.values().map(|(_, set)| set.len()).sum()
        }

        fn log_len(&self, rel: Symbol) -> usize {
            self.rels.get(&rel).map_or(0, |(log, _)| log.len())
        }

        /// A fresh model holding, relation by relation and in log order,
        /// the live rows `keep` admits, mapped through `f`.
        fn rebuilt(
            &self,
            keep: impl Fn(Symbol, &[Value]) -> bool,
            f: impl Fn(Value) -> Value,
        ) -> Model {
            let mut out = Model::default();
            for &rel in self.rels.keys() {
                for (_, row) in self.live(rel) {
                    if keep(rel, &row) {
                        let image: Vec<Value> = row.iter().map(|&x| f(x)).collect();
                        out.insert(rel, &image);
                    }
                }
            }
            out
        }

        fn merge(&mut self, from: Value, to: Value) -> usize {
            if from == to {
                return 0;
            }
            let mut rewritten = 0;
            for rel in self.rels.keys().copied().collect::<Vec<_>>() {
                for (_, row) in self.live(rel) {
                    if row.contains(&from) {
                        self.remove(rel, &row);
                        let image: Vec<Value> = row
                            .iter()
                            .map(|&x| if x == from { to } else { x })
                            .collect();
                        self.insert(rel, &image);
                        rewritten += 1;
                    }
                }
            }
            rewritten
        }

        /// `rel` as a copy of the whole relation hands it on: dropped
        /// when empty, its log kept when it holds no more tombstones than
        /// live rows, and compacted otherwise.
        fn copied_whole(&self, rel: Symbol) -> Option<ModelRel> {
            let (log, set) = self.rels.get(&rel).filter(|(_, set)| !set.is_empty())?;
            if log.len() <= 2 * set.len() {
                return Some((log.clone(), set.clone()));
            }
            let live = self.live(rel).into_iter().map(|(_, row)| Some(row));
            Some((live.collect(), set.clone()))
        }

        /// `self ∖ other`: a relation `other` has rows of is rebuilt row
        /// by row, every other one copied whole.
        fn difference(&self, other: &Model) -> Model {
            let mut out = Model::default();
            for &rel in self.rels.keys() {
                match other.rels.get(&rel).filter(|(_, set)| !set.is_empty()) {
                    Some((_, gone)) => {
                        for (_, row) in self.live(rel) {
                            if !gone.contains(&row) {
                                out.insert(rel, &row);
                            }
                        }
                    }
                    None => {
                        if let Some(copy) = self.copied_whole(rel) {
                            out.rels.insert(rel, copy);
                        }
                    }
                }
            }
            out
        }
    }

    fn gen_row(rng: &mut dex_testkit::TestRng, arity: usize) -> Vec<Value> {
        let domain = model_domain();
        (0..arity)
            .map(|_| domain[rng.gen_range(0..domain.len())])
            .collect()
    }

    fn gen_rows(rng: &mut dex_testkit::TestRng) -> Vec<(usize, Vec<Value>)> {
        let rels = model_rels();
        (0..rng.gen_range(0..6))
            .map(|_| {
                let r = rng.gen_range(0..rels.len());
                (r, gen_row(rng, rels[r].1))
            })
            .collect()
    }

    fn gen_op(rng: &mut dex_testkit::TestRng) -> Op {
        let rels = model_rels();
        let domain = model_domain();
        let r = rng.gen_range(0..rels.len());
        let n = rng.gen_range(0..64);
        let pick = |rng: &mut dex_testkit::TestRng| domain[rng.gen_range(0..domain.len())];
        match rng.gen_range(0..21) {
            0..=6 => Op::Insert(r, gen_row(rng, rels[r].1)),
            7 => Op::ReinsertNth(r, n),
            8 => Op::Remove(r, gen_row(rng, rels[r].1)),
            9 | 10 => Op::RemoveNth(r, n),
            11 | 12 => Op::Merge(pick(rng), pick(rng)),
            13 => Op::Clone,
            14 => Op::Difference(gen_rows(rng)),
            15 => Op::Union(gen_rows(rng)),
            16 => Op::MapValues(pick(rng), pick(rng)),
            17 => Op::WithoutNth(r, n),
            18 => Op::Reduct(n),
            19 => Op::Fork((0..rng.gen_range(1..6)).map(|_| gen_write(rng)).collect()),
            _ => Op::Cursor,
        }
    }

    /// A write a fork applies to one side: insert, remove or merge.
    fn gen_write(rng: &mut dex_testkit::TestRng) -> Op {
        let rels = model_rels();
        let domain = model_domain();
        let r = rng.gen_range(0..rels.len());
        match rng.gen_range(0..5) {
            0 | 1 => Op::Insert(r, gen_row(rng, rels[r].1)),
            2 => Op::RemoveNth(r, rng.gen_range(0..64)),
            _ => Op::Merge(
                domain[rng.gen_range(0..domain.len())],
                domain[rng.gen_range(0..domain.len())],
            ),
        }
    }

    fn same<T: PartialEq + fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: instance {got:?}, model {want:?}"))
        }
    }

    /// Compares `inst` with `model`: counts, the log (order and
    /// positions), membership, every cursor's delta, and the rows of
    /// every single-position probe, of the all-wildcard probe and of two
    /// multi-position probes per relation.
    fn diff_against_model(
        inst: &Instance,
        model: &Model,
        cursors: &[(DeltaCursor, BTreeMap<Symbol, usize>)],
        rng: &mut dex_testkit::TestRng,
    ) -> Result<(), String> {
        same("len", inst.len(), model.len())?;
        for r in inst.rels.values() {
            storage_faults(r)?;
        }
        for (rel, arity) in model_rels() {
            let live = model.live(rel);
            let log: Vec<(usize, Vec<Value>)> = inst
                .delta_rows_indexed(rel, &DeltaCursor::origin())
                .map(|(i, row)| (i, row.to_vec()))
                .collect();
            same(&format!("{rel} log"), &log, &live)?;
            same(
                &format!("{rel} rows_of_len"),
                inst.rows_of_len(rel),
                live.len(),
            )?;
            for (_, row) in &live {
                if !inst.contains(&Atom::new(rel, row.clone())) {
                    return Err(format!("{rel}{row:?} is live but not contained"));
                }
            }
            for (cursor, marks) in cursors {
                let mark = marks.get(&rel).copied().unwrap_or(0);
                let delta: Vec<(usize, Vec<Value>)> = inst
                    .delta_rows_indexed(rel, cursor)
                    .map(|(i, row)| (i, row.to_vec()))
                    .collect();
                let want: Vec<_> = live.iter().filter(|(i, _)| *i >= mark).cloned().collect();
                same(&format!("{rel} delta past {mark}"), delta, want)?;
            }
            let rows = |pattern: &[Option<Value>]| -> Vec<Vec<Value>> {
                live.iter()
                    .map(|(_, row)| row.clone())
                    .filter(|row| Relation::row_matches(row, pattern))
                    .collect()
            };
            let mut patterns: Vec<Vec<Option<Value>>> = vec![vec![None; arity]];
            for pos in 0..arity {
                for &x in &model_domain() {
                    let mut p = vec![None; arity];
                    p[pos] = Some(x);
                    patterns.push(p);
                }
            }
            for _ in 0..2 {
                let row = gen_row(rng, arity);
                patterns.push(
                    row.into_iter()
                        .map(|x| rng.gen_bool(0.5).then_some(x))
                        .collect(),
                );
            }
            for pattern in &patterns {
                // The bucket the probe should hand over: the smallest
                // bound position's rows, the first position on ties.
                let mut bucket: Option<Vec<Vec<Value>>> = None;
                for (pos, p) in pattern.iter().enumerate() {
                    if p.is_some() {
                        let mut single = vec![None; arity];
                        single[pos] = *p;
                        let b = rows(&single);
                        if bucket.as_ref().is_none_or(|best| b.len() < best.len()) {
                            bucket = Some(b);
                        }
                    }
                }
                let bucket = bucket.unwrap_or_else(|| rows(pattern));
                let probe = inst.probe(rel, pattern);
                same(
                    &format!("{rel} probe {pattern:?} len"),
                    probe.len(),
                    bucket.len(),
                )?;
                let got: Vec<Vec<Value>> = probe.map(<[Value]>::to_vec).collect();
                same(&format!("{rel} probe {pattern:?} rows"), got, bucket)?;
                let got: Vec<Vec<Value>> = inst
                    .rows_matching(rel, pattern)
                    .map(<[Value]>::to_vec)
                    .collect();
                same(
                    &format!("{rel} rows_matching {pattern:?}"),
                    got,
                    rows(pattern),
                )?;
            }
        }
        let delta_since = |marks: &BTreeMap<Symbol, usize>| {
            model_rels().iter().any(|&(rel, _)| {
                let mark = marks.get(&rel).copied().unwrap_or(0);
                model.live(rel).iter().any(|(i, _)| *i >= mark)
            })
        };
        for (cursor, marks) in cursors {
            same(
                "has_delta_since",
                inst.has_delta_since(cursor),
                delta_since(marks),
            )?;
        }
        Ok(())
    }

    /// Cursors taken during a run, each with the model's log lengths.
    type Cursors = Vec<(DeltaCursor, BTreeMap<Symbol, usize>)>;

    /// Applies one write (an insert, a remove or a merge) to `inst` and
    /// `model`; `Ok(false)` if `op` is not a write.
    fn write(inst: &mut Instance, model: &mut Model, op: &Op) -> Result<bool, String> {
        let rels = model_rels();
        match op {
            Op::Insert(r, row) => {
                let (rel, row) = (rels[*r].0, row.clone());
                let want = model.insert(rel, &row);
                same("insert", inst.insert(Atom::new(rel, row)), want)?;
            }
            Op::ReinsertNth(r, n) => {
                if let Some(row) = model.nth_live(rels[*r].0, *n) {
                    let added = inst.insert(Atom::new(rels[*r].0, row));
                    same("reinsert", added, false)?;
                }
            }
            Op::Remove(r, row) => {
                let (rel, row) = (rels[*r].0, row.clone());
                let want = model.remove(rel, &row);
                same("remove", inst.remove(&Atom::new(rel, row)), want)?;
            }
            Op::RemoveNth(r, n) => {
                if let Some(row) = model.nth_live(rels[*r].0, *n) {
                    model.remove(rels[*r].0, &row);
                    let removed = inst.remove(&Atom::new(rels[*r].0, row));
                    same("remove", removed, true)?;
                }
            }
            Op::Merge(from, to) => {
                let want = model.merge(*from, *to);
                same("merge", inst.merge_value(*from, *to), want)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks that every relation `written` has the same log in its model
    /// as in `model` is still the very relation `inst` holds: a write
    /// that left a shared relation alone did not copy it.
    fn untouched_stay_shared(
        inst: &Instance,
        model: &Model,
        written: &Instance,
        written_model: &Model,
    ) -> Result<(), String> {
        for (rel, _) in model_rels() {
            let log = |m: &Model| m.rels.get(&rel).map(|(log, _)| log.clone());
            if log(model) != log(written_model) {
                continue;
            }
            if let (Some(a), Some(b)) = (inst.rels.get(&rel), written.rels.get(&rel)) {
                if !Arc::ptr_eq(a, b) {
                    return Err(format!("{rel} was copied by a write that left it alone"));
                }
            }
        }
        Ok(())
    }

    fn run_case(case: &Case) -> Result<(), String> {
        let _narrow = NarrowHash::to(if case.narrow { 0b11 } else { u64::MAX });
        let rels = model_rels();
        let mut rng = dex_testkit::TestRng::seed_from_u64(case.probe_seed);
        let mut inst = Instance::new();
        let mut model = Model::default();
        let mut cursors: Cursors = Vec::new();
        // The other sides of the latest forks, each with its own model
        // and cursors.
        let mut twins: VecDeque<(Instance, Model, Cursors)> = VecDeque::new();
        let from_rows = |rows: &[(usize, Vec<Value>)]| {
            let mut j = Instance::new();
            let mut m = Model::default();
            for (r, row) in rows {
                j.insert(Atom::new(rels[*r].0, row.clone()));
                m.insert(rels[*r].0, row);
            }
            (j, m)
        };
        for (step, op) in case.ops.iter().enumerate() {
            let at = |e: String| format!("after op {step} ({op:?}): {e}");
            if write(&mut inst, &mut model, op).map_err(at)? {
                diff_against_model(&inst, &model, &cursors, &mut rng).map_err(at)?;
                for (twin, twin_model, twin_cursors) in &twins {
                    diff_against_model(twin, twin_model, twin_cursors, &mut rng)
                        .map_err(|e| at(format!("the other side of a fork: {e}")))?;
                }
                continue;
            }
            match op {
                Op::Clone => {
                    let copy = inst.clone();
                    same("clone", &copy, &inst).map_err(at)?;
                    inst = copy;
                }
                Op::Difference(rows) => {
                    let (j, jm) = from_rows(rows);
                    inst = inst.difference(&j);
                    model = model.difference(&jm);
                }
                Op::Union(rows) => {
                    let (j, jm) = from_rows(rows);
                    inst = inst.union(&j);
                    for (&rel, (log, _)) in &jm.rels {
                        for row in log.iter().flatten() {
                            model.insert(rel, row);
                        }
                    }
                }
                Op::MapValues(from, to) => {
                    let f = |x: Value| if x == *from { *to } else { x };
                    inst = inst.map_values(f);
                    model = model.rebuilt(|_, _| true, f);
                }
                Op::WithoutNth(r, n) => {
                    if let Some(row) = model.nth_live(rels[*r].0, *n) {
                        let rel = rels[*r].0;
                        inst = inst.without_atom(&Atom::new(rel, row.clone()));
                        model = model.rebuilt(|s, x| s != rel || x != &row[..], |x| x);
                    }
                }
                Op::Reduct(n) => {
                    let mut schema = Schema::new();
                    for (k, &(rel, arity)) in rels.iter().enumerate() {
                        if n >> k & 1 == 1 {
                            schema.add(rel, arity);
                        }
                    }
                    inst = inst.reduct(&schema);
                    let mut kept = Model::default();
                    for &rel in model.rels.keys().filter(|&&rel| schema.contains(rel)) {
                        if let Some(copy) = model.copied_whole(rel) {
                            kept.rels.insert(rel, copy);
                        }
                    }
                    model = kept;
                }
                Op::Cursor => {
                    let marks = rels
                        .iter()
                        .map(|&(rel, _)| (rel, model.log_len(rel)))
                        .collect();
                    cursors.push((inst.cursor(), marks));
                }
                Op::Fork(writes) => {
                    let mut twin = inst.clone();
                    if !case.fork_writes_clone {
                        std::mem::swap(&mut inst, &mut twin);
                    }
                    let mut twin_model = model.clone();
                    for w in writes {
                        write(&mut twin, &mut twin_model, w).map_err(at)?;
                        untouched_stay_shared(&inst, &model, &twin, &twin_model).map_err(at)?;
                    }
                    if twins.len() == 2 {
                        twins.pop_front();
                    }
                    twins.push_back((twin, twin_model, cursors.clone()));
                }
                _ => unreachable!("writes are applied above"),
            }
            diff_against_model(&inst, &model, &cursors, &mut rng).map_err(at)?;
            for (twin, twin_model, twin_cursors) in &twins {
                diff_against_model(twin, twin_model, twin_cursors, &mut rng)
                    .map_err(|e| at(format!("the other side of a fork: {e}")))?;
            }
        }
        Ok(())
    }

    /// Copies of whole relations share a relation whose tombstones are
    /// bounded and compact one with more tombstones than live rows;
    /// `compact_tombstones` compacts exactly the latter in place.
    #[test]
    fn whole_copies_share_bounded_relations_and_compact_the_rest() {
        let (e, f) = (Symbol::intern("E"), Symbol::intern("F"));
        let mut i = Instance::from_atoms((0..4).map(|k| Atom::new(e, vec![Value::null(k)])));
        i.insert(Atom::new(f, vec![v("a")]));
        i.insert(Atom::new(f, vec![v("b")]));
        i.remove(&Atom::new(f, vec![v("a")]));
        let both = Schema::of(&[("E", 1), ("F", 1)]);
        let r = i.reduct(&both);
        assert!(Arc::ptr_eq(&r.rels[&e], &i.rels[&e]));
        assert!(
            Arc::ptr_eq(&r.rels[&f], &i.rels[&f]),
            "one tombstone, one row"
        );
        assert!(Arc::ptr_eq(
            &i.difference(&Instance::new()).rels[&f],
            &i.rels[&f]
        ));
        for k in 0..3 {
            i.remove(&Atom::new(e, vec![Value::null(k)]));
        }
        let r = i.reduct(&both);
        assert_eq!(r.rels[&e].alive, vec![true], "three tombstones, one row");
        assert_eq!(r, i);
        let shared_f = Arc::clone(&i.rels[&f]);
        i.compact_tombstones();
        assert_eq!(i.rels[&e].alive, vec![true]);
        assert!(Arc::ptr_eq(&i.rels[&f], &shared_f));
        assert_eq!(i.cursor().mark(e), 1);
        storage_faults(&i.rels[&e]).unwrap();
    }

    #[test]
    fn storage_matches_a_plain_model() {
        let gen = dex_testkit::prop::Gen::new(|rng| {
            let len = rng.gen_range(10..60);
            Case {
                narrow: rng.gen_bool(0.5),
                ops: (0..len).map(|_| gen_op(rng)).collect(),
                probe_seed: rng.next_u64(),
                fork_writes_clone: rng.gen_bool(0.5),
            }
        });
        dex_testkit::prop::Runner::new(64).run("storage matches a plain model", &gen, run_case);
    }
}
