//! The whole-map provenance maintenance the indexed one replaced, kept
//! as a test reference: every mutating [`Provenance`] call is mirrored
//! into a [`Reference`], and [`Provenance::reference_divergence`]
//! reports the first place where the two disagree. Nothing here is
//! compiled outside tests.
//!
//! `record_merge` rebuilds the whole map on every merge, and
//! `retract_sources` computes its least fixpoint over every atom; both
//! are kept as they were, apart from the derivation's `Symbol` fields.

use std::collections::{HashMap, HashSet, VecDeque};

use dex_core::{Atom, Value};

use super::{Derivation, Just, MergeRecord, Provenance};

#[derive(Clone, Debug, Default)]
pub(super) struct Reference {
    how: HashMap<Atom, Vec<Just>>,
    merges: Vec<MergeRecord>,
    next_merge_id: u64,
    /// The first retraction whose removed list differed.
    removed_mismatch: Option<String>,
}

impl Reference {
    pub(super) fn record_source(&mut self, atom: Atom) {
        let justs = self.how.entry(atom).or_default();
        if !justs.iter().any(|j| j.derivation.is_source()) {
            justs.push(Just::source());
        }
    }

    pub(super) fn record_derived(&mut self, atom: Atom, derivation: &Derivation) {
        let justs = self.how.entry(atom).or_default();
        if !justs.iter().any(|j| j.derivation == *derivation) {
            justs.push(Just {
                derivation: derivation.clone(),
                merge_deps: Vec::new(),
            });
        }
    }

    pub(super) fn record_merge(
        &mut self,
        dep: &str,
        loser: Value,
        winner: Value,
        premises: &[Atom],
    ) {
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

    pub(super) fn retract_sources(&mut self, deleted: &[Atom]) -> Vec<Atom> {
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

    fn usable(j: &Just, atom: &Atom, deleted: &HashSet<Atom>, suspect: &HashSet<u64>) -> bool {
        if j.merge_deps.iter().any(|d| suspect.contains(d)) {
            return false;
        }
        match &j.derivation {
            Derivation::Source => !deleted.contains(atom),
            Derivation::Tgd { .. } => true,
        }
    }

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

    /// Notes the first retraction whose removed list differs from the
    /// reference's.
    pub(super) fn compare_removed(&mut self, removed: &[Atom], expected: &[Atom]) {
        if removed != expected && self.removed_mismatch.is_none() {
            self.removed_mismatch = Some(format!(
                "retraction removed {removed:?}, the reference removed {expected:?}"
            ));
        }
    }
}

impl Provenance {
    /// The first disagreement between this map and the reference run
    /// beside it (removed lists, justifications per atom, merge records),
    /// or between its indexes and the ones its entries imply.
    pub(crate) fn reference_divergence(&self) -> Option<String> {
        let r = &self.reference;
        if let Some(m) = &r.removed_mismatch {
            return Some(m.clone());
        }
        if r.how.len() != self.len() {
            return Some(format!(
                "{} atoms, the reference has {}",
                self.len(),
                r.how.len()
            ));
        }
        for (atom, justs) in &r.how {
            match self.justs(atom) {
                None => return Some(format!("{atom} is missing")),
                Some(ours) if ours != &justs[..] => {
                    return Some(format!(
                        "justifications of {atom}: {ours:?}, the reference has {justs:?}"
                    ))
                }
                Some(_) => {}
            }
        }
        if self.merges != r.merges {
            return Some(format!(
                "merges {:?}, the reference has {:?}",
                self.merges, r.merges
            ));
        }
        self.index_divergence()
    }

    /// The first difference between the maintained indexes and the ones
    /// a rebuild from the entries gives (none while they are unbuilt).
    fn index_divergence(&self) -> Option<String> {
        let live = self.entries.iter().flatten().count();
        for (id, e) in self.entries.iter().enumerate() {
            if e.as_ref()
                .is_some_and(|e| self.find(&e.atom) != Some(id as u32))
            {
                return Some(format!("slot {id} is not keyed to its atom"));
            }
        }
        let keyed: usize = self
            .heads
            .values()
            .map(|&head| {
                let older = |&id: &u32| Some(self.chain[id as usize]).filter(|&o| o != super::NIL);
                std::iter::successors(Some(head), older).count()
            })
            .sum();
        if live != keyed || live + self.free.len() != self.entries.len() {
            return Some("the slot table and the atom keys disagree".into());
        }
        if !self.indexed {
            let empty = self.by_value.is_empty()
                && self.by_loser.is_empty()
                && self.cited_by.is_empty()
                && self.merges_citing.is_empty();
            return (!empty).then(|| "indexes exist before they were built".into());
        }
        let mut rebuilt = Provenance {
            entries: self.entries.clone(),
            free: self.free.clone(),
            heads: self.heads.clone(),
            chain: self.chain.clone(),
            merges: self.merges.clone(),
            ..Provenance::default()
        };
        rebuilt.build_index();
        if rebuilt.by_value != self.by_value {
            return Some("the value index differs from its rebuild".into());
        }
        if rebuilt.by_loser != self.by_loser {
            return Some("the loser index differs from its rebuild".into());
        }
        if rebuilt.cited_by[..] != self.cited_by[..rebuilt.cited_by.len()]
            || self.cited_by[rebuilt.cited_by.len()..]
                .iter()
                .any(|s| !s.is_empty())
        {
            return Some("the premise index differs from its rebuild".into());
        }
        if rebuilt.merges_citing[..] != self.merges_citing[..rebuilt.merges_citing.len()]
            || self.merges_citing[rebuilt.merges_citing.len()..]
                .iter()
                .any(|s| !s.is_empty())
        {
            return Some("the merges citing some atom differ from their rebuild".into());
        }
        None
    }
}

/// The indexed maintenance against the reference over seeded update
/// streams: after the base chase and after every `resume`, the two must
/// agree on the removed atoms (in order), on every atom's
/// justifications (in order), and on the merge records. Replay one seed
/// with `DEX_FAULT_SEED=<seed>`.
mod tests {
    use crate::{ChaseBudget, ChaseEngine, ChaseSuccess};
    use dex_core::Instance;
    use dex_datagen::{
        layered_setting, mapping_scenario, random_source, update_stream, LayeredConfig,
        ScenarioConfig, SourceConfig, UpdateStreamConfig,
    };
    use dex_logic::{parse_setting, Setting};
    use dex_testkit::FaultPlan;

    const SEEDS: u64 = 64;
    const STEPS: usize = 10;

    /// Keys whose merges rewrite nulls into constants, so a dying merge
    /// taints a constant; `kg` merges a null that `d1`'s `F`-atom
    /// mentions in its valuation only.
    const CONST_KEYS: &str = "source { P/2, Q/1 } target { F/2, G/2, H/2 }
        st { d1: P(x,y) -> exists z, w . F(x,z) & G(w,y); d2: Q(x) -> F(x,x); }
        t { d3: G(z,y) & F(x,z) -> H(x,y);
            kf: F(x,y) & F(x,z) -> y = z; kg: G(w,y) & G(v,y) -> w = v; }";

    /// `t1` mirrors every `T`-atom in the same round in which `t2` makes
    /// the `A`-atoms `e` merges on, so when `e` merges `⊥2 ↦ ⊥1` the
    /// atoms `T(⊥1,⊥2)` and `T(⊥2,⊥1)`, justified by different
    /// triggers, both re-key into `T(⊥1,⊥1)`.
    const SYMMETRIC: &str = "source { P/2 } target { T/2, A/2, B/2 }
        st { d1: P(x,y) -> exists u, v . T(u,v) & B(x,u) & B(y,v); }
        t { t1: T(u,v) -> T(v,u); t2: B(x,u) -> A(x,u);
            e: A(x,u) & A(x,v) -> u = v; }";

    fn family(name: &str, seed: u64) -> Setting {
        match name {
            "mapping" => mapping_scenario(&ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            }),
            "join_tower" => layered_setting(&LayeredConfig {
                layers: 3,
                rels_per_layer: 1,
                up_tgds_per_layer: 1,
                join_tgds_per_layer: 2,
                seed,
                ..LayeredConfig::default()
            }),
            "const_keys" => parse_setting(CONST_KEYS).expect("the setting parses"),
            "symmetric" => parse_setting(SYMMETRIC).expect("the setting parses"),
            other => unreachable!("unknown family {other}"),
        }
    }

    fn check(s: &ChaseSuccess, family: &str, seed: u64, step: &str) {
        let prov = s.provenance.as_ref().expect("the run records provenance");
        if let Some(d) = prov.reference_divergence() {
            panic!("family {family}, seed {seed}, step {step}: {d}");
        }
    }

    /// Runs the family's stream for `seed`; returns how many merges the
    /// resumes retracted.
    fn run_stream(family_name: &str, seed: u64) -> usize {
        let setting = family(family_name, seed);
        let engine = ChaseEngine::new(&setting, &ChaseBudget::default()).with_provenance(true);
        let source: Instance = random_source(
            &setting.source,
            &SourceConfig {
                num_constants: 8,
                tuples_per_relation: 12,
                seed,
            },
        );
        let mut prior = engine.run(&source).expect("the base chase succeeds");
        check(&prior, family_name, seed, "base");
        let stream = update_stream(
            &setting.source,
            &source,
            &UpdateStreamConfig {
                steps: STEPS,
                insert_rate: 0.1,
                delete_rate: 0.1,
                num_constants: 8,
                seed,
            },
        );
        let mut merges_retracted = 0;
        for (step, delta) in stream.iter().enumerate() {
            let resumed = engine.resume(&prior, delta).expect("the resume succeeds");
            check(&resumed, family_name, seed, &step.to_string());
            let merges_of = |s: &ChaseSuccess| -> Vec<u64> {
                let p = s.provenance.as_ref().expect("provenance");
                p.merges().iter().map(|m| m.id).collect()
            };
            let after = merges_of(&resumed);
            merges_retracted += merges_of(&prior)
                .iter()
                .filter(|id| !after.contains(id))
                .count();
            prior = resumed;
        }
        merges_retracted
    }

    #[test]
    fn indexed_provenance_matches_the_whole_map_reference() {
        let full_sweep = FaultPlan::env_seed().is_none();
        for name in ["mapping", "join_tower", "const_keys", "symmetric"] {
            let mut merges_retracted = 0;
            for seed in FaultPlan::sweep(0, SEEDS) {
                merges_retracted += run_stream(name, seed);
            }
            // The streams must exercise merges that die and re-merge,
            // or the egd half of retraction goes unchecked.
            if full_sweep && name != "join_tower" {
                assert!(
                    merges_retracted > 0,
                    "family {name}: no resume retracted a merge"
                );
            }
        }
    }
}
