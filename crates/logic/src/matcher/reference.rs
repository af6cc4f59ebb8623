//! The backtracking join the borrowing kernel replaced, kept as a test
//! reference: it copies each level's candidate rows, rebuilds every
//! pattern on the heap and collects each row's new bindings in a fresh
//! vector, but it picks atoms and visits rows in the order the kernel
//! must keep. The differential test in `matcher.rs` checks both emit
//! the same matches in the same order. Nothing here is compiled outside
//! tests.
//!
//! The code is kept as it was, except that atoms are scored by the
//! length of [`Instance::probe`]'s candidates, the count the deleted
//! `Instance::candidate_count` returned.

use crate::formula::{Assignment, FAtom, Term, Var};
use dex_core::{Instance, Value};

pub fn for_each_match(
    atoms: &[FAtom],
    inst: &Instance,
    base: &Assignment,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    let mut env = base.clone();
    let mut pending: Vec<usize> = (0..atoms.len()).collect();
    solve(atoms, inst, &mut env, &mut pending, f)
}

pub fn for_each_match_seeded(
    atoms: &[FAtom],
    seed_idx: usize,
    row: &[Value],
    inst: &Instance,
    base: &Assignment,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    let seed = &atoms[seed_idx];
    if seed.args.len() != row.len() {
        return true;
    }
    let mut env = base.clone();
    let Some(newly) = try_unify(seed, row, &mut env) else {
        return true;
    };
    let mut pending: Vec<usize> = (0..atoms.len()).filter(|&i| i != seed_idx).collect();
    let keep_going = solve(atoms, inst, &mut env, &mut pending, f);
    for v in newly {
        env.unbind(v);
    }
    keep_going
}

fn pattern(atom: &FAtom, env: &Assignment) -> Vec<Option<Value>> {
    atom.args
        .iter()
        .map(|&t| match t {
            Term::Const(c) => Some(Value::Const(c)),
            Term::Var(v) => env.get(v),
        })
        .collect()
}

fn solve(
    atoms: &[FAtom],
    inst: &Instance,
    env: &mut Assignment,
    pending: &mut Vec<usize>,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    if pending.is_empty() {
        return f(env);
    }
    // Fail-first: pick the pending atom with fewest candidates, scored
    // by the exact index-bucket length (O(1) per bound position — a
    // truncated `rows_matching` count would make every atom with many
    // candidates tie and degrade selection to declaration order).
    let (slot, _) = pending
        .iter()
        .enumerate()
        .map(|(slot, &i)| {
            let pat = pattern(&atoms[i], env);
            (slot, inst.probe(atoms[i].rel, &pat).len())
        })
        .min_by_key(|&(_, c)| c)
        .expect("pending non-empty");
    let chosen = pending.swap_remove(slot);
    let atom = &atoms[chosen];
    let pat = pattern(atom, env);
    let rows: Vec<Vec<Value>> = inst
        .rows_matching(atom.rel, &pat)
        .map(|r| r.to_vec())
        .collect();
    let mut keep_going = true;
    for row in rows {
        if let Some(newly) = try_unify(atom, &row, env) {
            keep_going = solve(atoms, inst, env, pending, f);
            for v in newly {
                env.unbind(v);
            }
            if !keep_going {
                break;
            }
        }
    }
    pending.push(chosen);
    let last = pending.len() - 1;
    pending.swap(slot, last);
    keep_going
}

fn try_unify(atom: &FAtom, row: &[Value], env: &mut Assignment) -> Option<Vec<Var>> {
    let mut newly: Vec<Var> = Vec::new();
    for (&t, &val) in atom.args.iter().zip(row) {
        let ok = match t {
            Term::Const(c) => Value::Const(c) == val,
            Term::Var(v) => match env.get(v) {
                Some(bound) => bound == val,
                None => {
                    env.bind(v, val);
                    newly.push(v);
                    true
                }
            },
        };
        if !ok {
            for v in newly {
                env.unbind(v);
            }
            return None;
        }
    }
    Some(newly)
}
