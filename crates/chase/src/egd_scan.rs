//! The egd violation scan behind every egd fixpoint in the workspace:
//! the standard chase and its resume ([`crate::ChaseEngine::run`],
//! [`crate::ChaseEngine::resume`]), the α-chase
//! ([`crate::ChaseEngine::run_alpha`]), `CanSol` (`dex-cwa`) and the
//! forced-merge stage of □/◇ propagation (`dex-query`). The callers
//! differ only in how they resolve a violation (union-find or the raw
//! merge policy) and what they record; the search is this one.
//!
//! # Why a moving cursor is sound
//!
//! The scan owns a [`DeltaCursor`] and keeps one invariant: **every egd
//! violation of the instance has a body row at or past its relation's
//! mark.** The caller establishes it by starting the scan at a cursor
//! past which everything new was appended (the origin, or the cursor
//! taken when the instance was last egd-clean). Each step keeps it:
//!
//! - *Checking a row clean.* The row at the front of a relation's window
//!   is matched at every seed position (below) of every egd; when no
//!   match violates, the mark moves past it. A violation through that
//!   row would have been found, so every violation still has a row past
//!   the marks.
//! - *Merging.* [`Instance::merge_value`] tombstones every row holding
//!   the loser and re-appends its rewrite, which lands past every mark.
//!   A match of the merged instance either uses a re-appended row, or
//!   uses only rows that were live and unchanged before the merge — then
//!   it was the same violation before, and the invariant already gave it
//!   a row past the marks (a rewrite that collapses into an existing row
//!   leaves that row where it was, unchanged, so the same holds).
//!
//! The row the violation was found at is re-checked after the merge
//! (unless the merge tombstoned it, in which case its rewrite waits at
//! the end of the window), and a sweep over the seed relations repeats
//! until none has a row past its mark. Then no violation is left. Rows
//! before the start cursor are never seeded, and each row past it is
//! seeded once per seed position plus once per merge found at it, so
//! with `n` merges the scan costs O(rows appended + n) seeded matches
//! instead of rescanning the window after every merge.
//!
//! # Symmetric seed positions
//!
//! A violating match `h` has its new row at some body position `j`.
//! Position `j` need not be seeded when an earlier position `i` of the
//! same relation is exchanged with it by a variable swap `σ` that maps
//! the body into itself and `{lhs, rhs}` onto itself: `h ∘ σ` is then a
//! match that violates the same equality and puts `h(a_j)` at position
//! `i`. Key and FD egds (`R(x̄,y,ū) ∧ R(x̄,z,w̄) → y = z`) have this
//! shape, so they are seeded at their first atom only — one seeded
//! match per row, where seeding both atoms would match every row twice.

use dex_core::{DeltaCursor, IdMap, Instance, Symbol, Value};
use dex_logic::{matcher, Assignment, Egd, FAtom, Term, Var};
use std::collections::BTreeMap;

/// An egd trigger whose two sides are unequal.
#[derive(Clone, Debug)]
pub struct EgdViolation {
    /// Index of the violated egd in the scanned list.
    pub egd_index: usize,
    /// The full body match.
    pub env: Assignment,
    /// The value of the egd's left-hand variable.
    pub left: Value,
    /// The value of the egd's right-hand variable (never `left`).
    pub right: Value,
}

/// The semi-naive egd violation scan for one list of egds, with each
/// egd's seed positions computed once.
#[derive(Clone, Debug)]
pub struct EgdScan<'a> {
    egds: &'a [Egd],
    /// Per body relation, the `(egd index, body position)` pairs each of
    /// its rows is seeded at.
    seeds: BTreeMap<Symbol, Vec<(usize, usize)>>,
}

impl<'a> EgdScan<'a> {
    pub fn new(egds: &'a [Egd]) -> EgdScan<'a> {
        let mut seeds: BTreeMap<Symbol, Vec<(usize, usize)>> = BTreeMap::new();
        for (ei, egd) in egds.iter().enumerate() {
            for i in seed_positions(egd) {
                seeds.entry(egd.body[i].rel).or_default().push((ei, i));
            }
        }
        EgdScan { egds, seeds }
    }

    /// Runs the egd fixpoint over `inst`, starting from `clean`: the
    /// caller guarantees every violation has a row appended past it.
    /// Each violation found goes to `resolve`, which either changes the
    /// instance (a merge through [`Instance::merge_value`]) and returns
    /// `Ok(true)`, or returns `Ok(false)` to leave that match alone — the
    /// scan then moves past it and keeps going, so a declined match can
    /// never end the fixpoint early. An `Err` from `resolve` stops the
    /// scan and is returned as is.
    ///
    /// Returns the number of rows seeded into the matcher (each row once
    /// per seed position it was matched at, re-checks included).
    pub fn fixpoint<E>(
        &self,
        inst: &mut Instance,
        clean: DeltaCursor,
        mut resolve: impl FnMut(&mut Instance, EgdViolation) -> Result<bool, E>,
    ) -> Result<usize, E> {
        let mut cursor = clean;
        let mut scanned = 0usize;
        // `(left, right)` pairs `resolve` declined since a row last
        // checked clean.
        let mut declined: Vec<(Value, Value)> = Vec::new();
        loop {
            // A merge in one relation can re-append rows of a relation
            // already swept, so sweep until a pass finds no window.
            let mut idle = true;
            for (&rel, seeds) in &self.seeds {
                loop {
                    let front = inst.delta_rows_indexed(rel, &cursor).next();
                    let Some((idx, row)) = front else {
                        break;
                    };
                    idle = false;
                    match self.violation_at(row, seeds, inst, &declined, &mut scanned) {
                        None => {
                            cursor.set_mark(rel, idx + 1);
                            declined.clear();
                        }
                        Some(v) => {
                            let pair = (v.left, v.right);
                            if !resolve(inst, v)? {
                                declined.push(pair);
                            }
                        }
                    }
                }
            }
            if idle {
                return Ok(scanned);
            }
        }
    }

    /// The first violation through `row` at one of `seeds`, skipping the
    /// declined pairs.
    fn violation_at(
        &self,
        row: &[Value],
        seeds: &[(usize, usize)],
        inst: &Instance,
        declined: &[(Value, Value)],
        scanned: &mut usize,
    ) -> Option<EgdViolation> {
        for &(egd_index, pos) in seeds {
            let egd = &self.egds[egd_index];
            *scanned += 1;
            let mut hit = None;
            matcher::for_each_match_seeded(
                &egd.body,
                pos,
                row,
                inst,
                &Assignment::new(),
                &mut |env| {
                    let l = env.get(egd.lhs).expect("egd body binds lhs");
                    let r = env.get(egd.rhs).expect("egd body binds rhs");
                    if l == r || declined.contains(&(l, r)) {
                        return true;
                    }
                    hit = Some((env.clone(), l, r));
                    false
                },
            );
            if let Some((env, left, right)) = hit {
                return Some(EgdViolation {
                    egd_index,
                    env,
                    left,
                    right,
                });
            }
        }
        None
    }
}

/// The body positions of `egd` the scan seeds: every position except
/// those an earlier position is exchanged with by a symmetry (see the
/// module docs).
fn seed_positions(egd: &Egd) -> Vec<usize> {
    (0..egd.body.len())
        .filter(|&j| !(0..j).any(|i| swaps_positions(egd, i, j)))
        .collect()
}

/// Whether the variable swap `σ` that unifies body atoms `i` and `j`
/// position by position (constants must agree, `σ(x) = y` and
/// `σ(y) = x`) is well defined, maps every body atom to a body atom, and
/// maps `{lhs, rhs}` onto itself.
fn swaps_positions(egd: &Egd, i: usize, j: usize) -> bool {
    let (a, b) = (&egd.body[i], &egd.body[j]);
    if a.rel != b.rel || a.args.len() != b.args.len() {
        return false;
    }
    let mut sigma: IdMap<Var, Var> = IdMap::default();
    for (&s, &t) in a.args.iter().zip(&b.args) {
        match (s, t) {
            (Term::Const(c), Term::Const(d)) if c == d => {}
            (Term::Var(x), Term::Var(y)) => {
                for (from, to) in [(x, y), (y, x)] {
                    if *sigma.entry(from).or_insert(to) != to {
                        return false;
                    }
                }
            }
            _ => return false,
        }
    }
    let map = |v: Var| sigma.get(&v).copied().unwrap_or(v);
    let image = |atom: &FAtom| FAtom {
        rel: atom.rel,
        args: atom
            .args
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Term::Var(map(v)),
                c => c,
            })
            .collect(),
    };
    let (l, r) = (map(egd.lhs), map(egd.rhs));
    ((l, r) == (egd.lhs, egd.rhs) || (l, r) == (egd.rhs, egd.lhs))
        && egd.body.iter().all(|atom| egd.body.contains(&image(atom)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::merge_policy;
    use dex_logic::{parse_instance, parse_setting};

    fn egd_of(t: &str) -> Egd {
        let d = parse_setting(&format!(
            "source {{ P/1 }} target {{ R/2, S/3 }} t {{ {t} }}"
        ))
        .unwrap();
        d.egds[0].clone()
    }

    #[test]
    fn key_and_fd_egds_are_seeded_once() {
        assert_eq!(
            seed_positions(&egd_of("R(x,y) & R(x,z) -> y = z;")),
            vec![0]
        );
        assert_eq!(
            seed_positions(&egd_of("S(x,y,u) & S(x,z,w) -> y = z;")),
            vec![0]
        );
    }

    #[test]
    fn chains_and_constants_are_seeded_at_both_atoms() {
        // The unifier of the two atoms maps y to both x and z.
        assert_eq!(
            seed_positions(&egd_of("R(x,y) & R(y,z) -> x = z;")),
            vec![0, 1]
        );
        // A constant against a variable: no swap exchanges the atoms.
        assert_eq!(
            seed_positions(&egd_of("R(x,'c') & R(x,z) -> x = z;")),
            vec![0, 1]
        );
        // The swap exists but moves the equality off {lhs, rhs}.
        assert_eq!(
            seed_positions(&egd_of("S(x,y,u) & S(x,z,w) -> y = u;")),
            vec![0, 1]
        );
    }

    #[test]
    fn a_declined_match_does_not_end_the_fixpoint() {
        // The resolver declines every violation on key `a`: those rows
        // stay as they are, and the scan still reaches and resolves the
        // violation on key `b` behind them.
        let d =
            parse_setting("source { P/1 } target { F/2 } t { F(x,y) & F(x,z) -> y = z; }").unwrap();
        let mut inst = parse_instance("F(a,_1). F(a,_2). F(b,_3). F(b,_4).").unwrap();
        let mut declined = 0;
        EgdScan::new(&d.egds)
            .fixpoint(&mut inst, DeltaCursor::origin(), |inst, v| {
                if v.env.get(Var::new("x")) == Some(Value::konst("a")) {
                    declined += 1;
                    return Ok::<bool, ()>(false);
                }
                let m = merge_policy(v.left, v.right).unwrap().unwrap();
                inst.merge_value(m.loser, m.winner);
                Ok(true)
            })
            .unwrap();
        assert_eq!(declined, 2); // once from each `a` row
        assert_eq!(inst, parse_instance("F(a,_1). F(a,_2). F(b,_3).").unwrap());
    }
}
