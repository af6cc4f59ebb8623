//! Relational instances: finite sets of atoms over `Const ∪ Null`
//! (Section 2), with per-relation position indexes for fast trigger
//! matching during chase and query evaluation.
//!
//! Rows are append-only with tombstones: an egd merge rewrites the rows
//! it touches in place ([`Instance::merge_value`]) by tombstoning the old
//! row and re-appending the rewritten one, so rewritten rows re-enter the
//! delta window tracked by [`DeltaCursor`] and semi-naive chase loops see
//! them again.

use crate::atom::Atom;
use crate::hash::{IdMap, IdSet};
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::value::{NullId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The tuples of one relation, with a hash set for O(1) membership and a
/// per-(position, value) inverted index for pattern matching. A `None`
/// slot is a tombstone left behind by [`Instance::merge_value`]; index
/// buckets are kept eagerly clean, so they only ever point at live rows.
#[derive(Clone, Default)]
struct Relation {
    arity: usize,
    rows: Vec<Option<Box<[Value]>>>,
    /// Number of live (non-tombstoned) rows.
    live: usize,
    set: IdSet<Box<[Value]>>,
    /// `(position, value) → indices of live rows`.
    index: IdMap<(u32, Value), Vec<u32>>,
}

impl Relation {
    fn insert(&mut self, row: Box<[Value]>) -> bool {
        if self.set.contains(&row) {
            return false;
        }
        let idx = self.rows.len() as u32;
        for (pos, &v) in row.iter().enumerate() {
            self.index.entry((pos as u32, v)).or_default().push(idx);
        }
        self.set.insert(row.clone());
        self.rows.push(Some(row));
        self.live += 1;
        true
    }

    fn contains(&self, row: &[Value]) -> bool {
        self.set.contains(row)
    }

    /// A copy without tombstones: live rows renumbered densely in log
    /// order, the set and index copied and renumbered rather than
    /// rebuilt, so the copy equals re-inserting the live rows.
    fn compacted(&self) -> Relation {
        if self.live == self.rows.len() {
            return self.clone();
        }
        let mut renumber = vec![u32::MAX; self.rows.len()];
        let mut rows = Vec::with_capacity(self.live);
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                renumber[i] = rows.len() as u32;
                rows.push(Some(row.clone()));
            }
        }
        let mut index = self.index.clone();
        for bucket in index.values_mut() {
            for i in bucket.iter_mut() {
                *i = renumber[*i as usize];
            }
        }
        Relation {
            arity: self.arity,
            rows,
            live: self.live,
            set: self.set.clone(),
            index,
        }
    }

    fn live_rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows.iter().filter_map(|r| r.as_deref())
    }

    /// Removes the row at `idx`, scrubbing it from the set and from every
    /// index bucket it occurs in. Returns the removed row.
    fn tombstone(&mut self, idx: u32) -> Box<[Value]> {
        let row = self.rows[idx as usize]
            .take()
            .expect("tombstoning a dead row");
        self.live -= 1;
        self.set.remove(&row);
        for (pos, &v) in row.iter().enumerate() {
            if let Some(bucket) = self.index.get_mut(&(pos as u32, v)) {
                bucket.retain(|&i| i != idx);
                if bucket.is_empty() {
                    self.index.remove(&(pos as u32, v));
                }
            }
        }
        row
    }

    /// The row-log index of the live row equal to `row`, if present.
    /// Probes the position-0 index bucket (every live row is in it);
    /// arity-0 relations have no index and fall back to a log scan over
    /// their at-most-one live row.
    fn find_live_idx(&self, row: &[Value]) -> Option<u32> {
        match row.first() {
            Some(&v0) => self
                .index
                .get(&(0, v0))?
                .iter()
                .copied()
                .find(|&i| self.rows[i as usize].as_deref() == Some(row)),
            None => self
                .rows
                .iter()
                .position(|r| r.as_deref() == Some(row))
                .map(|i| i as u32),
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
                .map_or(&[][..], Vec::as_slice);
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
                if bucket.is_empty() {
                    break;
                }
            }
        }
        match best {
            Some(ids) => Candidates {
                len: ids.len(),
                walk: Walk::Bucket {
                    rows: &self.rows,
                    ids: ids.iter(),
                },
            },
            None => Candidates {
                len: self.live,
                walk: Walk::Log(self.rows.iter()),
            },
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
pub struct Candidates<'a> {
    len: usize,
    walk: Walk<'a>,
}

enum Walk<'a> {
    Bucket {
        rows: &'a [Option<Box<[Value]>>],
        ids: std::slice::Iter<'a, u32>,
    },
    Log(std::slice::Iter<'a, Option<Box<[Value]>>>),
}

impl<'a> Candidates<'a> {
    /// The probe's candidates with no rows: a relation that is absent or
    /// used at another arity.
    fn none() -> Candidates<'a> {
        Candidates {
            len: 0,
            walk: Walk::Log([].iter()),
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
        match &mut self.walk {
            Walk::Bucket { rows, ids } => ids.next().map(|&i| {
                rows[i as usize]
                    .as_deref()
                    .expect("index bucket points at tombstone")
            }),
            Walk::Log(rows) => rows.find_map(|r| r.as_deref()),
        }
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
/// (insertion order does not matter).
#[derive(Clone, Default)]
pub struct Instance {
    rels: BTreeMap<Symbol, Relation>,
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
        let rel = self.rels.entry(atom.rel).or_insert_with(|| Relation {
            arity: atom.args.len(),
            ..Relation::default()
        });
        assert_eq!(
            rel.arity,
            atom.args.len(),
            "relation {} used with two arities",
            atom.rel
        );
        let added = rel.insert(atom.args);
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
                .map(|(&rel, r)| (rel, r.rows.len()))
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
            let from = mark.min(r.rows.len());
            r.rows[from..]
                .iter()
                .enumerate()
                .filter_map(move |(i, row)| row.as_deref().map(|row| (from + i, row)))
        })
    }

    /// True iff some relation has a live row appended since `cursor`.
    pub fn has_delta_since(&self, cursor: &DeltaCursor) -> bool {
        self.rels.iter().any(|(&rel, r)| {
            let mark = cursor.mark(rel).min(r.rows.len());
            r.rows[mark..].iter().any(Option::is_some)
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
    pub fn probe(&self, rel: Symbol, pattern: &[Option<Value>]) -> Candidates<'_> {
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
        let rels: Vec<Symbol> = self.rels.keys().copied().collect();
        for rel in rels {
            let r = self.rels.get_mut(&rel).expect("relation vanished");
            let mut hit: Vec<u32> = (0..r.arity as u32)
                .filter_map(|pos| r.index.get(&(pos, from)))
                .flatten()
                .copied()
                .collect();
            if hit.is_empty() {
                continue;
            }
            hit.sort_unstable();
            hit.dedup();
            for idx in hit {
                let old = r.tombstone(idx);
                self.atom_count -= 1;
                let new_row: Box<[Value]> = old
                    .iter()
                    .map(|&v| if v == from { to } else { v })
                    .collect();
                if r.insert(new_row) {
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
        if rel.arity != atom.args.len() || !rel.contains(&atom.args) {
            return false;
        }
        let idx = rel
            .find_live_idx(&atom.args)
            .expect("set member has a live row");
        rel.tombstone(idx);
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
        for (&rel, r) in &self.rels {
            for row in r.live_rows() {
                out.insert(Atom::new(
                    rel,
                    row.iter().map(|&v| f(v)).collect::<Vec<_>>(),
                ));
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
        for a in other.atoms() {
            out.insert(a);
        }
        out
    }

    /// The instance `I ∖ {atom}`.
    pub fn without_atom(&self, atom: &Atom) -> Instance {
        let mut out = Instance::new();
        for a in self.atoms() {
            if a != *atom {
                out.insert(a);
            }
        }
        out
    }

    /// The set difference `I ∖ J`, relation by relation: a relation `J`
    /// has no row of is copied whole (its tombstones dropped) without
    /// hashing its rows, so splitting a chase result into its σ-part and
    /// its target costs the rows of the relations the two share, not the
    /// whole instance.
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
                    out.rels.insert(rel, r.compacted());
                }
                Some(o) => {
                    for row in r.live_rows().filter(|row| !o.contains(row)) {
                        out.insert(Atom::new(rel, row));
                    }
                }
            }
        }
        out.generation = out.atom_count as u64;
        out
    }

    /// The `σ`-reduct: atoms whose relation is in `schema`.
    pub fn reduct(&self, schema: &Schema) -> Instance {
        Instance::from_atoms(self.atoms().filter(|a| schema.contains(a.rel)))
    }

    /// True iff every atom of `self` occurs in `other`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.atoms().all(|a| other.contains(&a))
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
            assert_eq!(r.rows, b.rows, "{rel}: rows differ from a rebuild");
            assert_eq!(r.index, b.index, "{rel}: index differs from a rebuild");
            assert_eq!(r.live, r.rows.len());
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
}
