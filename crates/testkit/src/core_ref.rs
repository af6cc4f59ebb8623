//! A naive reference core for differential tests of core retraction.
//!
//! The classical whole-instance retract iteration: while some atom `A` of
//! `T` admits a homomorphism `h: T → T∖{A}`, replace `T` by `h(T)`. Every
//! search maps the whole instance, and the iteration restarts from the
//! first atom after each retract — no block decomposition, no worklist,
//! no memory of earlier searches — so the oracle shares nothing with an
//! engine's core beyond the definition.
//!
//! testkit does not depend on dex-core, so the oracle works on plain
//! atoms of its own ([`RefAtom`]: a relation name and constant or null
//! terms); call sites convert.

use std::collections::BTreeMap;

/// A term: a constant (fixed by every homomorphism) or a labelled null.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    Const(String),
    Null(u32),
}

/// An atom `rel(args)`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefAtom {
    pub rel: String,
    pub args: Vec<Term>,
}

type Bindings = BTreeMap<u32, Term>;

/// The core of the instance `atoms` (duplicates collapse), as a sorted
/// subset of it.
pub fn naive_core(atoms: &[RefAtom]) -> Vec<RefAtom> {
    let mut t = atoms.to_vec();
    t.sort();
    t.dedup();
    'retract: loop {
        for a in 0..t.len() {
            if let Some(h) = hom_avoiding(&t, a) {
                let mut image: Vec<RefAtom> = t.iter().map(|atom| apply(&h, atom)).collect();
                image.sort();
                image.dedup();
                debug_assert!(image.len() < t.len());
                t = image;
                continue 'retract;
            }
        }
        return t;
    }
}

fn is_ground(atom: &RefAtom) -> bool {
    atom.args.iter().all(|x| matches!(x, Term::Const(_)))
}

fn apply(h: &Bindings, atom: &RefAtom) -> RefAtom {
    let args = atom
        .args
        .iter()
        .map(|x| match x {
            Term::Null(n) => h.get(n).cloned().unwrap_or(Term::Null(*n)),
            c => c.clone(),
        })
        .collect();
    RefAtom {
        rel: atom.rel.clone(),
        args,
    }
}

/// A homomorphism `t → t∖{t[forbidden]}`, if one exists.
fn hom_avoiding(t: &[RefAtom], forbidden: usize) -> Option<Bindings> {
    // A ground atom is its own image under every homomorphism.
    if is_ground(&t[forbidden]) {
        return None;
    }
    let order = search_order(t, forbidden);
    let mut h = Bindings::new();
    extend(t, forbidden, &order, &mut h).then_some(h)
}

/// The order the backtracker maps the non-ground atoms in: the forbidden
/// atom, then the atoms reachable from it through shared nulls, then the
/// rest. The order only steers the search — it fails inside the
/// forbidden atom's neighbourhood before binding unrelated nulls, and
/// every atom tries itself as its image first — while every solution is
/// still a homomorphism of the whole instance.
fn search_order(t: &[RefAtom], forbidden: usize) -> Vec<usize> {
    let nulls = |a: &RefAtom| -> Vec<u32> {
        a.args
            .iter()
            .filter_map(|x| match x {
                Term::Null(n) => Some(*n),
                Term::Const(_) => None,
            })
            .collect()
    };
    let mut order = vec![forbidden];
    let mut placed = vec![false; t.len()];
    placed[forbidden] = true;
    let mut next = 0;
    while next < order.len() {
        let shared = nulls(&t[order[next]]);
        for (j, b) in t.iter().enumerate() {
            if !placed[j] && nulls(b).iter().any(|n| shared.contains(n)) {
                placed[j] = true;
                order.push(j);
            }
        }
        next += 1;
    }
    order.extend((0..t.len()).filter(|&j| !placed[j] && !is_ground(&t[j])));
    order
}

fn extend(t: &[RefAtom], forbidden: usize, order: &[usize], h: &mut Bindings) -> bool {
    let Some((&i, rest)) = order.split_first() else {
        return true;
    };
    let atom = &t[i];
    let candidates = std::iter::once(i).chain((0..t.len()).filter(|&j| j != i));
    for j in candidates {
        let image = &t[j];
        if j == forbidden || image.rel != atom.rel || image.args.len() != atom.args.len() {
            continue;
        }
        let mut bound = Vec::new();
        if unify(&atom.args, &image.args, h, &mut bound) && extend(t, forbidden, rest, h) {
            return true;
        }
        for n in bound {
            h.remove(&n);
        }
    }
    false
}

/// Extends `h` so that it maps `from` onto `to`, recording the nulls it
/// newly binds in `bound` (also on failure, for the caller to undo).
fn unify(from: &[Term], to: &[Term], h: &mut Bindings, bound: &mut Vec<u32>) -> bool {
    for (x, y) in from.iter().zip(to) {
        match x {
            Term::Const(_) if x != y => return false,
            Term::Const(_) => {}
            Term::Null(n) => match h.get(n) {
                Some(v) if v != y => return false,
                Some(_) => {}
                None => {
                    h.insert(*n, y.clone());
                    bound.push(*n);
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(rel: &str, args: &[Term]) -> RefAtom {
        RefAtom {
            rel: rel.to_owned(),
            args: args.to_vec(),
        }
    }

    fn c(s: &str) -> Term {
        Term::Const(s.to_owned())
    }

    fn n(id: u32) -> Term {
        Term::Null(id)
    }

    #[test]
    fn redundant_null_atoms_fold_onto_ground_ones() {
        let t = [
            atom("E", &[c("a"), c("b")]),
            atom("E", &[c("a"), n(1)]),
            atom("E", &[c("a"), n(2)]),
        ];
        assert_eq!(naive_core(&t), vec![atom("E", &[c("a"), c("b")])]);
    }

    #[test]
    fn example_2_1_t2_folds_to_t3() {
        let t2 = [
            atom("E", &[c("a"), c("b")]),
            atom("E", &[c("a"), n(1)]),
            atom("E", &[c("a"), n(2)]),
            atom("F", &[c("a"), n(3)]),
            atom("G", &[n(3), n(4)]),
        ];
        assert_eq!(
            naive_core(&t2),
            vec![
                atom("E", &[c("a"), c("b")]),
                atom("F", &[c("a"), n(3)]),
                atom("G", &[n(3), n(4)]),
            ]
        );
    }

    #[test]
    fn two_null_cycles_fold_into_one() {
        let t = [
            atom("E", &[n(1), n(2)]),
            atom("E", &[n(2), n(1)]),
            atom("E", &[n(3), n(4)]),
            atom("E", &[n(4), n(3)]),
        ];
        assert_eq!(naive_core(&t).len(), 2);
    }

    #[test]
    fn a_null_path_folds_onto_a_loop_across_components() {
        // The path and the loop share no null: the retract maps one onto
        // the other.
        let t = [
            atom("E", &[n(1), n(2)]),
            atom("E", &[n(2), n(3)]),
            atom("E", &[n(9), n(9)]),
        ];
        assert_eq!(naive_core(&t), vec![atom("E", &[n(9), n(9)])]);
    }

    #[test]
    fn a_null_triangle_is_a_core() {
        let t = [
            atom("E", &[n(1), n(2)]),
            atom("E", &[n(2), n(3)]),
            atom("E", &[n(3), n(1)]),
        ];
        assert_eq!(naive_core(&t).len(), 3);
    }
}
