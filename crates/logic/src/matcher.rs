//! Enumeration of the satisfying assignments of a conjunction of
//! relational atoms over an instance — the workhorse behind tgd/egd
//! trigger search, dependency satisfaction checks, and conjunctive query
//! evaluation.
//!
//! The algorithm is a backtracking join: at each step the not-yet-matched
//! atom with the fewest candidate rows under the current partial
//! assignment is expanded (fail-first), candidates being found through the
//! instance's position indexes.

use crate::formula::{Assignment, FAtom, Term, Var};
use dex_core::{Candidates, Instance, Value};

#[cfg(test)]
mod reference;

/// Calls `f` for every assignment extending `base` that maps all `atoms`
/// into `inst`. `f` returns `false` to stop the enumeration early.
/// Returns `false` iff the enumeration was stopped early.
pub fn for_each_match(
    atoms: &[FAtom],
    inst: &Instance,
    base: &Assignment,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    Search::new(atoms, inst, base, None, f).solve()
}

/// All assignments extending `base` that map `atoms` into `inst`.
pub fn all_matches(atoms: &[FAtom], inst: &Instance, base: &Assignment) -> Vec<Assignment> {
    let mut out = Vec::new();
    for_each_match(atoms, inst, base, &mut |env| {
        out.push(env.clone());
        true
    });
    out
}

/// True iff at least one match exists.
pub fn exists_match(atoms: &[FAtom], inst: &Instance, base: &Assignment) -> bool {
    !for_each_match(atoms, inst, base, &mut |_| false)
}

/// The first match (extending `base`) for which `pred` holds, if any —
/// streaming: enumeration stops at the first hit, no `Vec` of matches is
/// ever materialized.
pub fn first_match_where(
    atoms: &[FAtom],
    inst: &Instance,
    base: &Assignment,
    pred: &mut dyn FnMut(&Assignment) -> bool,
) -> Option<Assignment> {
    let mut found = None;
    for_each_match(atoms, inst, base, &mut |env| {
        if pred(env) {
            found = Some(env.clone());
            false
        } else {
            true
        }
    });
    found
}

/// Like [`for_each_match`], but with the body atom at `seed_idx` pinned
/// to the concrete tuple `row` — the semi-naive chase entry point: every
/// match involving a delta row is reachable by seeding each body atom
/// with each delta row in turn. Returns `false` iff stopped early.
pub fn for_each_match_seeded(
    atoms: &[FAtom],
    seed_idx: usize,
    row: &[Value],
    inst: &Instance,
    base: &Assignment,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    if atoms[seed_idx].args.len() != row.len() {
        return true;
    }
    let mut search = Search::new(atoms, inst, base, Some(seed_idx), f);
    !search.unify(&atoms[seed_idx], row) || search.solve()
}

/// Atoms up to this arity build their index-probe pattern on the stack.
const STACK_ARITY: usize = 8;

/// One backtracking join. The rows it tries are borrowed from `inst`'s
/// index buckets; every binding goes into `env` and onto `trail`, and a
/// level undoes its row's bindings by popping the trail back to where
/// the row started. Past the per-call setup nothing is allocated (atoms
/// wider than [`STACK_ARITY`] aside).
struct Search<'a, 'f> {
    atoms: &'a [FAtom],
    inst: &'a Instance,
    env: Assignment,
    /// The variables bound by the rows currently on the search path, in
    /// binding order.
    trail: Vec<Var>,
    /// Indexes of the atoms not yet matched on the current path.
    pending: Vec<usize>,
    f: &'f mut dyn FnMut(&Assignment) -> bool,
}

impl<'a, 'f> Search<'a, 'f> {
    fn new(
        atoms: &'a [FAtom],
        inst: &'a Instance,
        base: &Assignment,
        seeded: Option<usize>,
        f: &'f mut dyn FnMut(&Assignment) -> bool,
    ) -> Search<'a, 'f> {
        let width: usize = atoms.iter().map(|a| a.args.len()).sum();
        let mut env = Assignment::with_capacity(base.len() + width);
        for (v, val) in base.bindings() {
            env.bind(v, val);
        }
        Search {
            atoms,
            inst,
            env,
            trail: Vec::with_capacity(width),
            pending: (0..atoms.len()).filter(|&i| Some(i) != seeded).collect(),
            f,
        }
    }

    fn solve(&mut self) -> bool {
        if self.pending.is_empty() {
            return (self.f)(&self.env);
        }
        // Fail-first: pick the pending atom with fewest candidates, scored
        // by the exact index-bucket length (a truncated row count would
        // make every atom with many candidates tie and degrade selection
        // to declaration order). The first atom wins a tie, and the probe
        // that scored the winner hands over its rows.
        let mut best: Option<(usize, Candidates<'a>)> = None;
        for (slot, &i) in self.pending.iter().enumerate() {
            let rows = probe(self.inst, &self.atoms[i], &self.env);
            if best.as_ref().is_none_or(|(_, b)| rows.len() < b.len()) {
                let empty = rows.is_empty();
                best = Some((slot, rows));
                if empty {
                    break;
                }
            }
        }
        let (slot, rows) = best.expect("pending non-empty");
        let chosen = self.pending.swap_remove(slot);
        let atom = &self.atoms[chosen];
        let mut keep_going = true;
        for row in rows {
            let mark = self.trail.len();
            if self.unify(atom, row) {
                keep_going = self.solve();
            }
            self.undo(mark);
            if !keep_going {
                break;
            }
        }
        self.pending.push(chosen);
        let last = self.pending.len() - 1;
        self.pending.swap(slot, last);
        keep_going
    }

    /// Extends `env` so that `atom` maps onto `row`, trailing each new
    /// binding. On `false` the caller undoes the partial bindings.
    fn unify(&mut self, atom: &FAtom, row: &[Value]) -> bool {
        atom.args.iter().zip(row).all(|(&t, &val)| match t {
            Term::Const(c) => Value::Const(c) == val,
            Term::Var(v) => match self.env.get(v) {
                Some(bound) => bound == val,
                None => {
                    self.env.bind(v, val);
                    self.trail.push(v);
                    true
                }
            },
        })
    }

    /// Unbinds every variable trailed since `mark`.
    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.env.unbind(v);
        }
    }
}

/// Probes `inst` for the rows `atom` can map onto under `env`, with the
/// pattern (constants and bound variables; `None` elsewhere) on the stack.
fn probe<'a>(inst: &'a Instance, atom: &FAtom, env: &Assignment) -> Candidates<'a> {
    let mut stack = [None; STACK_ARITY];
    let mut heap = Vec::new();
    let pattern: &mut [Option<Value>] = match atom.args.len() {
        n if n <= STACK_ARITY => &mut stack[..n],
        n => {
            heap.resize(n, None);
            &mut heap
        }
    };
    for (p, &t) in pattern.iter_mut().zip(&atom.args) {
        *p = env.term(t);
    }
    inst.probe(atom.rel, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::Atom;

    fn inst() -> Instance {
        Instance::from_atoms([
            Atom::of("E", vec![Value::konst("a"), Value::konst("b")]),
            Atom::of("E", vec![Value::konst("b"), Value::konst("c")]),
            Atom::of("E", vec![Value::konst("c"), Value::konst("a")]),
        ])
    }

    fn e(x: &str, y: &str) -> FAtom {
        FAtom::new("E", vec![Term::var(x), Term::var(y)])
    }

    #[test]
    fn single_atom_matches_every_row() {
        let ms = all_matches(&[e("x", "y")], &inst(), &Assignment::new());
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn join_via_shared_variable() {
        // E(x,y) & E(y,z): the 3-cycle gives 3 paths of length 2.
        let ms = all_matches(&[e("x", "y"), e("y", "z")], &inst(), &Assignment::new());
        assert_eq!(ms.len(), 3);
        for m in &ms {
            let x = m.get(Var::new("x")).unwrap();
            let z = m.get(Var::new("z")).unwrap();
            assert_ne!(x, z); // in a 3-cycle, 2 steps never return
        }
    }

    #[test]
    fn base_assignment_restricts() {
        let mut base = Assignment::new();
        base.bind(Var::new("x"), Value::konst("a"));
        let ms = all_matches(&[e("x", "y")], &inst(), &base);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(Var::new("y")), Some(Value::konst("b")));
    }

    #[test]
    fn constants_in_atoms_filter() {
        let atom = FAtom::new("E", vec![Term::konst("b"), Term::var("y")]);
        let ms = all_matches(&[atom], &inst(), &Assignment::new());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(Var::new("y")), Some(Value::konst("c")));
    }

    #[test]
    fn repeated_variable_requires_equal_positions() {
        // E(x,x) has no match in a 3-cycle without self-loops.
        assert!(!exists_match(&[e("x", "x")], &inst(), &Assignment::new()));
        let with_loop = {
            let mut i = inst();
            i.insert(Atom::of("E", vec![Value::konst("d"), Value::konst("d")]));
            i
        };
        let ms = all_matches(&[e("x", "x")], &with_loop, &Assignment::new());
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn early_stop_reports_false() {
        let stopped = !for_each_match(&[e("x", "y")], &inst(), &Assignment::new(), &mut |_| false);
        assert!(stopped);
    }

    #[test]
    fn empty_conjunction_matches_once() {
        let ms = all_matches(&[], &inst(), &Assignment::new());
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn unsatisfiable_conjunction() {
        let atom = FAtom::new("Zebra", vec![Term::var("x")]);
        assert!(!exists_match(&[atom], &inst(), &Assignment::new()));
    }

    #[test]
    fn first_match_where_stops_at_the_predicate() {
        let hit = first_match_where(&[e("x", "y")], &inst(), &Assignment::new(), &mut |env| {
            env.get(Var::new("x")) == Some(Value::konst("c"))
        });
        let hit = hit.expect("a match with x=c exists");
        assert_eq!(hit.get(Var::new("y")), Some(Value::konst("a")));
        let miss = first_match_where(&[e("x", "y")], &inst(), &Assignment::new(), &mut |env| {
            env.get(Var::new("x")) == Some(Value::konst("zzz"))
        });
        assert!(miss.is_none());
    }

    #[test]
    fn seeded_matching_pins_one_atom() {
        // Seed E(y,z) (index 1) with the row (b,c): only the path
        // a→b→c survives the join with E(x,y).
        let row = [Value::konst("b"), Value::konst("c")];
        let mut found = Vec::new();
        for_each_match_seeded(
            &[e("x", "y"), e("y", "z")],
            1,
            &row,
            &inst(),
            &Assignment::new(),
            &mut |env| {
                found.push(env.clone());
                true
            },
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get(Var::new("x")), Some(Value::konst("a")));
        assert_eq!(found[0].get(Var::new("z")), Some(Value::konst("c")));
    }

    #[test]
    fn seeded_matching_rejects_non_unifying_rows() {
        // E(x,x) cannot unify with the row (a,b).
        let row = [Value::konst("a"), Value::konst("b")];
        let not_stopped = for_each_match_seeded(
            &[e("x", "x")],
            0,
            &row,
            &inst(),
            &Assignment::new(),
            &mut |_| false,
        );
        assert!(not_stopped);
        // Arity mismatch is a clean no-match, not a panic.
        let bad = [Value::konst("a")];
        assert!(for_each_match_seeded(
            &[e("x", "y")],
            0,
            &bad,
            &inst(),
            &Assignment::new(),
            &mut |_| false,
        ));
    }

    #[test]
    fn seeded_matching_covers_all_seeds() {
        // Union over seeding each atom with each row = all matches.
        let atoms = [e("x", "y"), e("y", "z")];
        let i = inst();
        let mut seen = std::collections::BTreeSet::new();
        for seed_idx in 0..atoms.len() {
            for row in i.rows_of(dex_core::Symbol::intern("E")) {
                for_each_match_seeded(&atoms, seed_idx, row, &i, &Assignment::new(), &mut |env| {
                    seen.insert(format!("{env:?}"));
                    true
                });
            }
        }
        assert_eq!(
            seen.len(),
            all_matches(&atoms, &i, &Assignment::new()).len()
        );
    }

    /// What one differential case exercised; every field must be hit by
    /// some seed.
    #[derive(Default)]
    struct Coverage {
        nullary: usize,
        wide: usize,
        repeated: usize,
        constants: usize,
        based: usize,
        seeded: usize,
        stopped: usize,
    }

    /// Relations `(name, arity)`: a nullary one, three narrow ones and
    /// one wider than the stack pattern.
    const RELS: [(&str, usize); 5] = [
        ("Z", 0),
        ("P", 1),
        ("E", 2),
        ("T", 3),
        ("W", STACK_ARITY + 2),
    ];

    fn random_value(rng: &mut dex_testkit::rng::TestRng) -> Value {
        match rng.gen_range(0..5u32) {
            0 => Value::konst("a"),
            1 => Value::konst("b"),
            2 => Value::konst("c"),
            3 => Value::null(1),
            _ => Value::null(2),
        }
    }

    /// A random instance over [`RELS`], with a merge that leaves
    /// tombstones in the row logs about half the time.
    fn random_instance(rng: &mut dex_testkit::rng::TestRng) -> Instance {
        let mut i = Instance::new();
        for (rel, arity) in RELS {
            for _ in 0..rng.gen_range(0..10usize) {
                let row: Vec<Value> = (0..arity).map(|_| random_value(rng)).collect();
                i.insert(Atom::of(rel, row));
            }
        }
        if rng.gen_bool(0.5) {
            i.merge_value(Value::null(1), Value::konst("a"));
        }
        i
    }

    /// A random conjunction of 1–4 atoms. Half the atoms abstract an
    /// existing row (equal values share a variable across the body, so
    /// the body joins and has matches); the rest draw variables from a
    /// small pool. Either way a position keeps its constant 1 time in 5.
    fn random_body(rng: &mut dex_testkit::rng::TestRng, inst: &Instance) -> Vec<FAtom> {
        let mut named: Vec<(Value, Var)> = Vec::new();
        let mut body = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            let (rel, arity) = RELS[rng.gen_range(0..RELS.len())];
            let rows: Vec<&[Value]> = inst.rows_of(dex_core::Symbol::intern(rel)).collect();
            let from_row = rng.gen_bool(0.5) && !rows.is_empty();
            let row: Vec<Value> = if from_row {
                rows[rng.gen_range(0..rows.len())].to_vec()
            } else {
                (0..arity).map(|_| random_value(rng)).collect()
            };
            let args = row
                .iter()
                .map(|&val| match val {
                    Value::Const(c) if rng.gen_bool(0.2) => Term::Const(c),
                    _ if !from_row => Term::Var(Var::new(&format!("v{}", rng.gen_range(0..4u32)))),
                    _ => match named.iter().find(|&&(w, _)| w == val) {
                        Some(&(_, v)) => Term::Var(v),
                        None => {
                            let v = Var::new(&format!("x{}", named.len()));
                            named.push((val, v));
                            Term::Var(v)
                        }
                    },
                })
                .collect();
            body.push(FAtom {
                rel: dex_core::Symbol::intern(rel),
                args,
            });
        }
        body
    }

    /// The matches `run` emits, stopping after `stop_after` of them.
    fn collect(
        stop_after: usize,
        run: impl FnOnce(&mut dyn FnMut(&Assignment) -> bool) -> bool,
    ) -> (Vec<Assignment>, bool) {
        let mut out = Vec::new();
        let finished = run(&mut |env| {
            out.push(env.clone());
            out.len() < stop_after
        });
        (out, finished)
    }

    fn differential_case(seed: u64, cov: &mut Coverage) {
        let mut rng = dex_testkit::rng::TestRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let body = random_body(&mut rng, &inst);
        let mut base = Assignment::new();
        if rng.gen_bool(0.3) {
            let v = body.iter().flat_map(|a| a.vars()).next();
            if let Some(v) = v {
                base.bind(v, random_value(&mut rng));
            }
        }
        let ctx = format!("seed {seed}: body {body:?}, base {base:?}");
        let (all, done) = collect(usize::MAX, |f| for_each_match(&body, &inst, &base, f));
        let (want, want_done) = collect(usize::MAX, |f| {
            reference::for_each_match(&body, &inst, &base, f)
        });
        assert_eq!(all, want, "{ctx}");
        assert!(done && want_done, "{ctx}");
        // Early stop at every prefix length.
        for stop in 1..=all.len() {
            let got = collect(stop, |f| for_each_match(&body, &inst, &base, f));
            let want = collect(stop, |f| reference::for_each_match(&body, &inst, &base, f));
            assert_eq!(got, want, "{ctx}, stop after {stop}");
            assert!(!got.1, "{ctx}, stop after {stop} reported finished");
            cov.stopped += 1;
        }
        // Seeded entry: every atom with every row of its relation, plus a
        // row of the wrong arity; stopping after the first match too.
        for (idx, atom) in body.iter().enumerate() {
            let mut rows: Vec<Vec<Value>> = inst.rows_of(atom.rel).map(<[Value]>::to_vec).collect();
            rows.push(vec![Value::konst("a"); atom.args.len() + 1]);
            for row in &rows {
                for stop in [1, usize::MAX] {
                    let got = collect(stop, |f| {
                        for_each_match_seeded(&body, idx, row, &inst, &base, f)
                    });
                    let want = collect(stop, |f| {
                        reference::for_each_match_seeded(&body, idx, row, &inst, &base, f)
                    });
                    assert_eq!(got, want, "{ctx}, seed atom {idx} on {row:?}");
                    cov.seeded += usize::from(!got.0.is_empty());
                }
            }
        }
        let matched = !all.is_empty();
        let vars: Vec<Var> = body.iter().flat_map(|a| a.vars()).collect();
        let distinct: std::collections::BTreeSet<Var> = vars.iter().copied().collect();
        cov.nullary += usize::from(matched && body.iter().any(|a| a.args.is_empty()));
        cov.wide += usize::from(matched && body.iter().any(|a| a.args.len() > STACK_ARITY));
        cov.repeated += usize::from(matched && distinct.len() < vars.len());
        cov.constants += usize::from(
            matched
                && body
                    .iter()
                    .any(|a| a.args.iter().any(|t| matches!(t, Term::Const(_)))),
        );
        cov.based += usize::from(matched && !base.is_empty());
    }

    /// The kernel emits the reference join's matches in the reference's
    /// order — full runs, runs stopped after every prefix, and seeded
    /// runs — over 64 seeds of random instances and bodies.
    #[test]
    fn kernel_matches_the_reference_join_in_order() {
        let mut cov = Coverage::default();
        for seed in 0..64 {
            differential_case(seed, &mut cov);
        }
        let Coverage {
            nullary,
            wide,
            repeated,
            constants,
            based,
            seeded,
            stopped,
        } = cov;
        for (what, hits) in [
            ("arity-0 atom", nullary),
            ("atom wider than the stack pattern", wide),
            ("repeated variable", repeated),
            ("constant in an atom", constants),
            ("pre-bound base", based),
            ("seeded entry", seeded),
            ("early stop", stopped),
        ] {
            assert!(hits > 0, "no seed with a matching body covers: {what}");
        }
    }

    #[test]
    fn matches_against_nulls_bind_nulls() {
        let i = Instance::from_atoms([Atom::of("F", vec![Value::konst("a"), Value::null(3)])]);
        let atom = FAtom::new("F", vec![Term::var("x"), Term::var("y")]);
        let ms = all_matches(&[atom], &i, &Assignment::new());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(Var::new("y")), Some(Value::null(3)));
    }
}
