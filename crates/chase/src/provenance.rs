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

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use dex_core::{Atom, Instance, Value};
use dex_obs::JsonValue;

/// How one atom got into the chase result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Derivation {
    /// Present in the source (σ-part) before the chase ran.
    Source,
    /// Inserted by firing dependency `dep` under `valuation`.
    Tgd {
        /// The dependency's name (`d2`, …).
        dep: String,
        /// Its index in the setting's `st_tgds ++ t_tgds` order.
        dep_index: usize,
        /// The full trigger valuation: frontier, body-only and
        /// existential variables, in variable-name order of recording.
        valuation: Vec<(String, Value)>,
        /// The instantiated body atoms (empty for FO bodies, which
        /// have no canonical atom decomposition).
        premises: Vec<Atom>,
    },
}

impl Derivation {
    pub fn is_source(&self) -> bool {
        matches!(self, Derivation::Source)
    }
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

/// Per-atom derivations for one chase run.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    how: HashMap<Atom, Vec<Just>>,
    merges: Vec<MergeRecord>,
    next_merge_id: u64,
}

impl Provenance {
    /// Seeds the map: every source atom derives as [`Derivation::Source`].
    pub fn for_source(source: &Instance) -> Provenance {
        Provenance {
            how: source.atoms().map(|a| (a, vec![Just::source()])).collect(),
            merges: Vec::new(),
            next_merge_id: 0,
        }
    }

    /// Records an atom as (now also) present in the source — used when
    /// incremental maintenance inserts new source atoms into a prior
    /// chase result.
    pub fn record_source(&mut self, atom: Atom) {
        let justs = self.how.entry(atom).or_default();
        if !justs.iter().any(|j| j.derivation.is_source()) {
            justs.push(Just::source());
        }
    }

    /// Records a tgd-derived atom. Every distinct derivation is kept
    /// (the first recorded one is what [`Provenance::derivation`] and
    /// [`Provenance::explain`] report); re-recording an identical
    /// derivation is a no-op.
    pub fn record_derived(
        &mut self,
        atom: Atom,
        dep: &str,
        dep_index: usize,
        valuation: &[(String, Value)],
        premises: &[Atom],
    ) {
        let derivation = Derivation::Tgd {
            dep: dep.to_string(),
            dep_index,
            valuation: valuation.to_vec(),
            premises: premises.to_vec(),
        };
        let justs = self.how.entry(atom).or_default();
        if !justs.iter().any(|j| j.derivation == derivation) {
            justs.push(Just {
                derivation,
                merge_deps: Vec::new(),
            });
        }
    }

    /// Records an egd merge (with the violating trigger's instantiated
    /// body atoms as `premises`) and re-keys every derivation through
    /// the `loser ↦ winner` endomorphism, exactly as
    /// `Instance::merge_value` rewrites the instance's rows. Every
    /// justification the rewrite touches becomes conditional on this
    /// merge (its id lands in the justification's `merge_deps`).
    pub fn record_merge(&mut self, dep: &str, loser: Value, winner: Value, premises: &[Atom]) {
        let id = self.next_merge_id;
        self.next_merge_id += 1;
        let subst = |v: Value| if v == loser { winner } else { v };
        let old = std::mem::take(&mut self.how);
        // Re-keyed atoms can collide with each other or with an atom the
        // merge left alone. They are folded in after every unchanged
        // atom, in atom order, so a collided atom's justification order
        // does not depend on the map's iteration order.
        let mut moved: Vec<(Atom, Atom, Vec<Just>)> = Vec::new();
        for (atom, mut justs) in old {
            let new_atom = atom.map_values(subst);
            let atom_rekeyed = new_atom != atom;
            for j in &mut justs {
                let mut touched = atom_rekeyed;
                if let Derivation::Tgd {
                    premises,
                    valuation,
                    ..
                } = &mut j.derivation
                {
                    for p in premises.iter_mut() {
                        let np = p.map_values(subst);
                        if np != *p {
                            *p = np;
                            touched = true;
                        }
                    }
                    for (_, v) in valuation.iter_mut() {
                        let nv = subst(*v);
                        if nv != *v {
                            *v = nv;
                            touched = true;
                        }
                    }
                }
                if touched {
                    j.merge_deps.push(id);
                }
            }
            if atom_rekeyed {
                moved.push((atom, new_atom, justs));
            } else {
                self.how.insert(new_atom, justs);
            }
        }
        moved.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (_, new_atom, justs) in moved {
            // Two atoms can collapse into one; the surviving atom keeps
            // every distinct justification of both.
            let slot = self.how.entry(new_atom).or_default();
            for j in justs {
                if !slot.contains(&j) {
                    slot.push(j);
                }
            }
        }
        for m in &mut self.merges {
            let mut touched = false;
            for p in m.premises.iter_mut() {
                let np = p.map_values(subst);
                if np != *p {
                    *p = np;
                    touched = true;
                }
            }
            if touched {
                m.merge_deps.push(id);
            }
        }
        self.merges.push(MergeRecord {
            dep: dep.to_string(),
            loser,
            winner,
            id,
            // The trigger's own atoms are rewritten by the merge too.
            premises: premises.iter().map(|p| p.map_values(subst)).collect(),
            merge_deps: Vec::new(),
        });
    }

    /// Number of atoms with a recorded derivation.
    pub fn len(&self) -> usize {
        self.how.len()
    }

    pub fn is_empty(&self) -> bool {
        self.how.is_empty()
    }

    /// The egd merges applied and still justified, in order.
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// The first recorded derivation of `atom`, if any.
    pub fn derivation(&self, atom: &Atom) -> Option<&Derivation> {
        self.how
            .get(atom)
            .and_then(|js| js.first())
            .map(|j| &j.derivation)
    }

    /// Every recorded derivation of `atom`, in recording order.
    pub fn derivations(&self, atom: &Atom) -> impl Iterator<Item = &Derivation> {
        self.how
            .get(atom)
            .into_iter()
            .flat_map(|js| js.iter().map(|j| &j.derivation))
    }

    /// The number of recorded justifications of `atom` (its support
    /// count in the counting/DRed sense).
    pub fn support(&self, atom: &Atom) -> usize {
        self.how.get(atom).map_or(0, Vec::len)
    }

    /// The justification chain of `atom`: the atom's own (first)
    /// derivation followed by those of its premises, transitively,
    /// ending in source atoms. `None` if the atom — or any premise
    /// along the way — has no recorded derivation (which
    /// [`Provenance::verify_justified`] treats as a broken
    /// justification).
    pub fn explain(&self, atom: &Atom) -> Option<JustificationChain> {
        let mut steps = Vec::new();
        let mut seen: HashSet<Atom> = HashSet::new();
        let mut queue: VecDeque<Atom> = VecDeque::new();
        queue.push_back(atom.clone());
        while let Some(a) = queue.pop_front() {
            if !seen.insert(a.clone()) {
                continue;
            }
            let derivation = self.derivation(&a)?.clone();
            if let Derivation::Tgd { premises, .. } = &derivation {
                queue.extend(premises.iter().cloned());
            }
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
    /// atoms and returns every atom that loses its last justification —
    /// the caller removes exactly those atoms from the instance and
    /// re-fires triggers whose heads they satisfied.
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
    pub fn retract_sources(&mut self, deleted: &[Atom]) -> Vec<Atom> {
        let deleted: HashSet<Atom> = deleted.iter().cloned().collect();
        let mut suspect: HashSet<u64> = HashSet::new();
        loop {
            let alive = self.alive_fixpoint(&deleted, &suspect);
            // Grow the suspect-merge set against this aliveness; if it
            // grows, aliveness must be recomputed (monotone, so the
            // outer loop terminates after at most |merges| rounds).
            let mut grew = false;
            loop {
                let mut inner = false;
                for m in &self.merges {
                    if suspect.contains(&m.id) {
                        continue;
                    }
                    let bad = m.merge_deps.iter().any(|d| suspect.contains(d))
                        || m.premises.iter().any(|p| {
                            !alive.contains(p) || self.lost_support(p, &deleted, &suspect, &alive)
                        });
                    if bad {
                        suspect.insert(m.id);
                        inner = true;
                        grew = true;
                    }
                }
                if !inner {
                    break;
                }
            }
            if !grew {
                return self.apply_retraction(&deleted, &suspect, &alive);
            }
        }
    }

    /// True iff the justification is not structurally dead: not a
    /// deleted source entry and not conditional on a suspect merge.
    /// (Premise aliveness is the fixpoint's job, not this check's.)
    fn usable(j: &Just, atom: &Atom, deleted: &HashSet<Atom>, suspect: &HashSet<u64>) -> bool {
        if j.merge_deps.iter().any(|d| suspect.contains(d)) {
            return false;
        }
        match &j.derivation {
            Derivation::Source => !deleted.contains(atom),
            Derivation::Tgd { .. } => true,
        }
    }

    /// True iff some justification of `p` is dead under the current
    /// retraction state — `p` may still be alive, but a merge whose
    /// trigger premise lost *any* support is treated as suspect.
    fn lost_support(
        &self,
        p: &Atom,
        deleted: &HashSet<Atom>,
        suspect: &HashSet<u64>,
        alive: &HashSet<Atom>,
    ) -> bool {
        self.how.get(p).is_none_or(|justs| {
            justs.iter().any(|j| {
                !Self::usable(j, p, deleted, suspect)
                    || match &j.derivation {
                        Derivation::Source => false,
                        Derivation::Tgd { premises, .. } => {
                            premises.iter().any(|q| !alive.contains(q))
                        }
                    }
            })
        })
    }

    /// The values live rows inherited from suspect merges: each suspect
    /// winner resolved through the later merges that rewrote it.
    fn tainted_values(&self, suspect: &HashSet<u64>) -> HashSet<Value> {
        let mut out = HashSet::new();
        for (i, m) in self.merges.iter().enumerate() {
            if !suspect.contains(&m.id) {
                continue;
            }
            let mut w = m.winner;
            for later in &self.merges[i + 1..] {
                if later.loser == w {
                    w = later.winner;
                }
            }
            out.insert(w);
        }
        out
    }

    /// Least-fixpoint aliveness: an atom is alive iff it has a usable
    /// Source justification, or a usable tgd justification whose
    /// premises are all alive — and it is not over-deleted by merge
    /// taint. FO-derived justifications (empty premise list) count as
    /// unconditionally satisfied; callers that maintain deletions fall
    /// back to a full re-chase when FO bodies are in play.
    fn alive_fixpoint(&self, deleted: &HashSet<Atom>, suspect: &HashSet<u64>) -> HashSet<Atom> {
        let tainted = self.tainted_values(suspect);
        let source_alive = |atom: &Atom, justs: &[Just]| {
            justs
                .iter()
                .any(|j| j.derivation.is_source() && Self::usable(j, atom, deleted, suspect))
        };
        let mut alive: HashSet<Atom> = HashSet::new();
        let mut queue: VecDeque<&Atom> = VecDeque::new();
        // Pending tgd justifications: (atom, #premises not yet alive).
        struct Pending<'p> {
            atom: &'p Atom,
            missing: usize,
        }
        let mut pending: Vec<Pending> = Vec::new();
        // premise -> indices into `pending` waiting on it.
        let mut waiters: HashMap<&Atom, Vec<usize>> = HashMap::new();
        for (atom, justs) in &self.how {
            if source_alive(atom, justs) {
                alive.insert(atom.clone());
                queue.push_back(atom);
                continue;
            }
            // Merge taint over-deletes derived atoms outright.
            if atom.args.iter().any(|v| tainted.contains(v)) {
                continue;
            }
            for j in justs {
                if !Self::usable(j, atom, deleted, suspect) {
                    continue;
                }
                let Derivation::Tgd { premises, .. } = &j.derivation else {
                    continue;
                };
                // Register waiters only for premises not alive *now*:
                // an already-alive premise may still be queued for its
                // own drain, and decrementing for it again would count
                // it twice.
                let missing: Vec<&Atom> = premises.iter().filter(|p| !alive.contains(*p)).collect();
                if missing.is_empty() {
                    alive.insert(atom.clone());
                    queue.push_back(atom);
                    break;
                }
                let idx = pending.len();
                pending.push(Pending {
                    atom,
                    missing: missing.len(),
                });
                for p in missing {
                    waiters.entry(p).or_default().push(idx);
                }
            }
        }
        while let Some(a) = queue.pop_front() {
            let Some(waiting) = waiters.get(a) else {
                continue;
            };
            for &wi in waiting {
                let w = &mut pending[wi];
                if alive.contains(w.atom) {
                    continue;
                }
                w.missing -= 1;
                if w.missing == 0 {
                    alive.insert(w.atom.clone());
                    queue.push_back(w.atom);
                }
            }
        }
        alive
    }

    /// Drops everything the retraction killed: dead atoms, their
    /// justifications, dead justifications of surviving atoms, and the
    /// suspect merge records. Returns the removed atoms in atom order.
    fn apply_retraction(
        &mut self,
        deleted: &HashSet<Atom>,
        suspect: &HashSet<u64>,
        alive: &HashSet<Atom>,
    ) -> Vec<Atom> {
        // Sorted: the caller re-derives in this order, and map order
        // differs between processes.
        let mut removed: Vec<Atom> = self
            .how
            .keys()
            .filter(|a| !alive.contains(*a))
            .cloned()
            .collect();
        removed.sort_unstable();
        for a in &removed {
            self.how.remove(a);
        }
        for (atom, justs) in &mut self.how {
            justs.retain(|j| {
                Self::usable(j, atom, deleted, suspect)
                    && match &j.derivation {
                        Derivation::Source => true,
                        Derivation::Tgd { premises, .. } => {
                            premises.iter().all(|p| alive.contains(p))
                        }
                    }
            });
            debug_assert!(
                !justs.is_empty(),
                "surviving atom {atom} retained no justification"
            );
        }
        self.merges.retain(|m| !suspect.contains(&m.id));
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
                            o.push("by", JsonValue::str(dep.clone()));
                            o.push("dep_index", JsonValue::uint(*dep_index as u64));
                            o.push(
                                "valuation",
                                JsonValue::Obj(
                                    valuation
                                        .iter()
                                        .map(|(var, v)| {
                                            (var.clone(), JsonValue::str(v.to_string()))
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

    #[test]
    fn explain_walks_premises_to_sources() {
        let a = atom("E", &[konst("a"), konst("b")]);
        let source = Instance::from_atoms([a.clone()]);
        let mut p = Provenance::for_source(&source);
        let t = atom("T", &[konst("a"), konst("b")]);
        p.record_derived(
            t.clone(),
            "d1",
            0,
            &[("x".into(), konst("a")), ("y".into(), konst("b"))],
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
        p.record_derived(f0.clone(), "d2", 1, &[("z".into(), n0)], &[src.clone()]);
        p.record_derived(f1.clone(), "d2", 1, &[("z".into(), n1)], &[src.clone()]);
        let g = atom("G", &[n1]);
        p.record_derived(g.clone(), "d3", 2, &[("y".into(), n1)], &[f1.clone()]);
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
            "d1",
            0,
            &[("x".into(), konst("a"))],
            &[s1.clone()],
        );
        p.record_derived(
            t.clone(),
            "d2",
            1,
            &[("x".into(), konst("a"))],
            &[s2.clone()],
        );
        // Identical re-recording is a no-op.
        p.record_derived(
            t.clone(),
            "d2",
            1,
            &[("x".into(), konst("a"))],
            &[s2.clone()],
        );
        assert_eq!(p.support(&t), 2);
        assert_eq!(p.derivations(&t).count(), 2);
        // The first derivation is still what explain() reports.
        match p.derivation(&t).unwrap() {
            Derivation::Tgd { dep, .. } => assert_eq!(dep, "d1"),
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
            "d1",
            0,
            &[("x".into(), konst("a"))],
            &[s1.clone()],
        );
        p.record_derived(
            t.clone(),
            "d2",
            1,
            &[("x".into(), konst("a"))],
            &[s2.clone()],
        );
        let u = atom("U", &[konst("a")]);
        p.record_derived(
            u.clone(),
            "d3",
            2,
            &[("x".into(), konst("a"))],
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
            "d1",
            0,
            &[("x".into(), konst("a"))],
            &[s.clone()],
        );
        p.record_derived(
            b.clone(),
            "d2",
            1,
            &[("x".into(), konst("a"))],
            &[a.clone()],
        );
        p.record_derived(
            a.clone(),
            "d3",
            2,
            &[("x".into(), konst("a"))],
            &[b.clone()],
        );
        assert_eq!(p.support(&a), 2);
        let mut removed = p.retract_sources(std::slice::from_ref(&s));
        removed.sort();
        let mut expect = vec![s, a, b];
        expect.sort();
        assert_eq!(removed, expect);
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
            "d1",
            0,
            &[("x".into(), konst("a")), ("z".into(), n1)],
            &[pa.clone()],
        );
        p.record_derived(
            f_c.clone(),
            "d2",
            1,
            &[("x".into(), konst("a")), ("y".into(), konst("c"))],
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
            "d1",
            0,
            &[("x".into(), konst("a")), ("z".into(), n1)],
            &[pa.clone()],
        );
        p.record_derived(
            f_c.clone(),
            "d2",
            1,
            &[("x".into(), konst("a")), ("y".into(), konst("c"))],
            &[qac.clone()],
        );
        p.record_merge("e1", n1, konst("c"), &[f_null, f_c.clone()]);
        p.record_derived(
            g_b.clone(),
            "d3",
            2,
            &[("x".into(), konst("b"))],
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
    }
}
