//! Weak acyclicity (Definition 6.5, \[FKMP05\]/\[DT03\]) and rich acyclicity
//! (Definition 7.3) of the target dependencies of a setting.
//!
//! Positions over the target schema are nodes of the *dependency graph*;
//! each target tgd contributes ordinary edges (a frontier variable `x`
//! flows from its body positions to its head positions) and existential
//! edges (from `x`'s body positions to every position holding an
//! existential variable in the head). A setting is weakly acyclic iff no
//! cycle passes through an existential edge. The *extended* graph adds
//! existential edges from the positions of non-exported body variables
//! `ȳ`, yielding the strictly stronger notion of rich acyclicity —
//! the condition under which *every* α-chase is finite (Prop 7.4).

use crate::dependency::Body;
use crate::formula::Var;
use crate::setting::Setting;
use dex_core::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A position `(R, i)` over the target schema (0-based here; the paper
/// uses 1-based indices).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position {
    pub rel: Symbol,
    pub idx: usize,
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.rel, self.idx + 1)
    }
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The dependency graph of the target dependencies of a setting.
#[derive(Clone, Debug, Default)]
pub struct DependencyGraph {
    pub nodes: Vec<Position>,
    /// `(from, to, existential)` with indices into `nodes`.
    pub edges: Vec<(usize, usize, bool)>,
}

impl DependencyGraph {
    fn node_id(&mut self, p: Position, index: &mut BTreeMap<Position, usize>) -> usize {
        *index.entry(p).or_insert_with(|| {
            self.nodes.push(p);
            self.nodes.len() - 1
        })
    }

    /// True iff no cycle contains an existential edge: every existential
    /// edge must leave its strongly connected component.
    pub fn no_cycle_through_existential_edge(&self) -> bool {
        let scc = self.scc_ids();
        self.edges.iter().all(|&(u, v, ex)| !ex || scc[u] != scc[v])
    }

    /// Strongly connected component ids (iterative Tarjan).
    fn scc_ids(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v, _) in &self.edges {
            adj[u].push(v);
        }
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp = vec![usize::MAX; n];
        let mut next_index = 0usize;
        let mut next_comp = 0usize;

        // Explicit DFS stack of (node, child cursor).
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
                if *cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *cursor < adj[v].len() {
                    let w = adj[v][*cursor];
                    *cursor += 1;
                    if index[w] == usize::MAX {
                        dfs.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    dfs.pop();
                    if let Some(&mut (parent, _)) = dfs.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        comp
    }
}

/// Positions of `v` in a conjunction of atoms.
fn positions_of(atoms: &[crate::formula::FAtom], v: Var) -> impl Iterator<Item = Position> + '_ {
    atoms.iter().flat_map(move |a| {
        a.args.iter().enumerate().filter_map(move |(i, t)| {
            (t.as_var() == Some(v)).then_some(Position { rel: a.rel, idx: i })
        })
    })
}

fn build_graph(setting: &Setting, extended: bool) -> DependencyGraph {
    let mut g = DependencyGraph::default();
    let mut index: BTreeMap<Position, usize> = BTreeMap::new();
    // Pre-register every target position so the graph is total.
    for (rel, arity) in setting.target.relations() {
        for idx in 0..arity {
            g.node_id(Position { rel, idx }, &mut index);
        }
    }
    for d in &setting.t_tgds {
        let Body::Conj(body_atoms) = &d.body else {
            unreachable!("Setting::new enforces conjunctive target tgd bodies")
        };
        let exist_positions: Vec<Position> = d
            .exist_vars
            .iter()
            .flat_map(|&z| positions_of(&d.head, z))
            .collect();
        // Frontier variables x̄: ordinary + existential edges.
        for &x in d.frontier() {
            let from_positions: Vec<Position> = positions_of(body_atoms, x).collect();
            let to_positions: Vec<Position> = positions_of(&d.head, x).collect();
            for &fp in &from_positions {
                let fi = g.node_id(fp, &mut index);
                for &tp in &to_positions {
                    let ti = g.node_id(tp, &mut index);
                    g.edges.push((fi, ti, false));
                }
                for &ep in &exist_positions {
                    let ei = g.node_id(ep, &mut index);
                    g.edges.push((fi, ei, true));
                }
            }
        }
        // Extended graph: positions of non-exported body variables ȳ also
        // get existential edges to the existential head positions.
        if extended {
            for &y in d.body_only_vars() {
                let from_positions: Vec<Position> = positions_of(body_atoms, y).collect();
                for &fp in &from_positions {
                    let fi = g.node_id(fp, &mut index);
                    for &ep in &exist_positions {
                        let ei = g.node_id(ep, &mut index);
                        g.edges.push((fi, ei, true));
                    }
                }
            }
        }
    }
    g
}

/// The dependency graph of `Σ_t` (Definition 6.5).
pub fn dependency_graph(setting: &Setting) -> DependencyGraph {
    build_graph(setting, false)
}

/// The extended dependency graph of `Σ_t` (Definition 7.3).
pub fn extended_dependency_graph(setting: &Setting) -> DependencyGraph {
    build_graph(setting, true)
}

/// Definition 6.5: no cycle of the dependency graph contains an
/// existential edge.
pub fn is_weakly_acyclic(setting: &Setting) -> bool {
    dependency_graph(setting).no_cycle_through_existential_edge()
}

/// Definition 7.3: no cycle of the *extended* dependency graph contains an
/// existential edge. Every richly acyclic setting is weakly acyclic.
pub fn is_richly_acyclic(setting: &Setting) -> bool {
    extended_dependency_graph(setting).no_cycle_through_existential_edge()
}

/// A rank function for weakly acyclic settings: the maximum number of
/// existential edges on any path ending in each position (the standard
/// stratification used to bound chase length). Returns `None` if the
/// setting is not weakly acyclic.
pub fn position_ranks(setting: &Setting) -> Option<BTreeMap<Position, usize>> {
    let g = dependency_graph(setting);
    if !g.no_cycle_through_existential_edge() {
        return None;
    }
    // Longest-path DP over the DAG of SCCs; within an SCC all edges are
    // non-existential, so ranks are constant on SCCs.
    let scc = g.scc_ids();
    let num_sccs = scc.iter().copied().max().map_or(0, |m| m + 1);
    let mut scc_edges: BTreeSet<(usize, usize, bool)> = BTreeSet::new();
    for &(u, v, ex) in &g.edges {
        if scc[u] != scc[v] {
            scc_edges.insert((scc[u], scc[v], ex));
        }
    }
    // Kahn-style relaxation: since the SCC graph is a DAG, iterate to
    // fixpoint (at most num_sccs rounds).
    let mut rank = vec![0usize; num_sccs];
    for _ in 0..num_sccs {
        let mut changed = false;
        for &(u, v, ex) in &scc_edges {
            let candidate = rank[u] + usize::from(ex);
            if candidate > rank[v] {
                rank[v] = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some(
        g.nodes
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, rank[scc[i]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Tgd;
    use crate::formula::{FAtom, Term};
    use dex_core::Schema;

    fn t(name: &str) -> Term {
        Term::var(name)
    }

    fn setting_with_t_tgds(target: Schema, t_tgds: Vec<Tgd>) -> Setting {
        Setting::new(Schema::of(&[("Src", 1)]), target, vec![], t_tgds, vec![]).unwrap()
    }

    #[test]
    fn example_2_1_is_richly_acyclic() {
        // d3 = F(y,x) → ∃z G(x,z): F-positions feed G-positions, no cycle.
        let target = Schema::of(&[("E", 2), ("F", 2), ("G", 2)]);
        let d3 = Tgd::new(
            "d3",
            Body::Conj(vec![FAtom::new("F", vec![t("y"), t("x")])]),
            vec![Var::new("z")],
            vec![FAtom::new("G", vec![t("x"), t("z")])],
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d3]);
        assert!(is_weakly_acyclic(&s));
        assert!(is_richly_acyclic(&s));
    }

    #[test]
    fn self_feeding_existential_is_not_weakly_acyclic() {
        // E(x,y) → ∃z E(y,z): (E,2)→(E,1) ordinary; (E,1),(E,2)→(E,2)
        // existential; cycle (E,2)→(E,1)→(E,2) passes an existential edge.
        let target = Schema::of(&[("E", 2)]);
        let d = Tgd::new(
            "d",
            Body::Conj(vec![FAtom::new("E", vec![t("x"), t("y")])]),
            vec![Var::new("z")],
            vec![FAtom::new("E", vec![t("y"), t("z")])],
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d]);
        assert!(!is_weakly_acyclic(&s));
        assert!(!is_richly_acyclic(&s));
        assert!(position_ranks(&s).is_none());
    }

    #[test]
    fn full_tgds_are_always_weakly_acyclic() {
        // E(x,y) ∧ E(y,z) → E(x,z) (transitivity): cycles, but no
        // existential edges.
        let target = Schema::of(&[("E", 2)]);
        let d = Tgd::new(
            "trans",
            Body::Conj(vec![
                FAtom::new("E", vec![t("x"), t("y")]),
                FAtom::new("E", vec![t("y"), t("z")]),
            ]),
            vec![],
            vec![FAtom::new("E", vec![t("x"), t("z")])],
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d]);
        assert!(is_weakly_acyclic(&s));
        assert!(is_richly_acyclic(&s));
    }

    #[test]
    fn weakly_but_not_richly_acyclic() {
        // The paper's §7.2 remark: a body variable y (not exported) feeding
        // an existential position that cycles back into y's position.
        //   A(x,y) → ∃z A(z,x)
        // Dependency graph: (A,1)→(A,2) ordinary [x], (A,1)→(A,1)
        // existential [x to z-position]. Wait — that is already a cycle.
        // Use instead: A(x,y) → ∃z B(x,z); B(x,z) → A(z,x)? That makes the
        // y-edge irrelevant. The canonical separating example:
        //   d: A(x,y) → ∃z A(x,z)
        // Ordinary: (A,1)→(A,1) [x]; existential: (A,1)→(A,2).
        // y occurs at (A,2); the extended graph adds (A,2)→(A,2)
        // existential — a cycle through an existential edge.
        let target = Schema::of(&[("A", 2)]);
        let d = Tgd::new(
            "d",
            Body::Conj(vec![FAtom::new("A", vec![t("x"), t("y")])]),
            vec![Var::new("z")],
            vec![FAtom::new("A", vec![t("x"), t("z")])],
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d]);
        assert!(is_weakly_acyclic(&s));
        assert!(!is_richly_acyclic(&s));
    }

    #[test]
    fn ranks_stratify_existential_depth() {
        // P(x) → ∃z Q(x,z); Q(x,z) → ∃w R(z,w): ranks grow along the chain.
        let target = Schema::of(&[("P", 1), ("Q", 2), ("R", 2)]);
        let d1 = Tgd::new(
            "d1",
            Body::Conj(vec![FAtom::new("P", vec![t("x")])]),
            vec![Var::new("z")],
            vec![FAtom::new("Q", vec![t("x"), t("z")])],
        )
        .unwrap();
        let d2 = Tgd::new(
            "d2",
            Body::Conj(vec![FAtom::new("Q", vec![t("x"), t("z")])]),
            vec![Var::new("w")],
            vec![FAtom::new("R", vec![t("z"), t("w")])],
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d1, d2]);
        let ranks = position_ranks(&s).unwrap();
        let q2 = ranks[&Position {
            rel: Symbol::intern("Q"),
            idx: 1,
        }];
        let r2 = ranks[&Position {
            rel: Symbol::intern("R"),
            idx: 1,
        }];
        let p1 = ranks[&Position {
            rel: Symbol::intern("P"),
            idx: 0,
        }];
        assert_eq!(p1, 0);
        assert_eq!(q2, 1);
        assert_eq!(r2, 2);
    }

    #[test]
    fn egds_do_not_affect_acyclicity() {
        let target = Schema::of(&[("F", 2)]);
        let egd = crate::dependency::Egd::new(
            "key",
            vec![
                FAtom::new("F", vec![t("x"), t("y")]),
                FAtom::new("F", vec![t("x"), t("z")]),
            ],
            Var::new("y"),
            Var::new("z"),
        )
        .unwrap();
        let s = Setting::new(Schema::of(&[("Src", 1)]), target, vec![], vec![], vec![egd]).unwrap();
        assert!(is_weakly_acyclic(&s));
        assert!(is_richly_acyclic(&s));
    }

    #[test]
    fn d_emb_is_not_weakly_acyclic() {
        // d_total of Section 6 feeds R' back into itself existentially.
        let target = Schema::of(&[("Rp", 3)]);
        let mut head = Vec::new();
        let mut exist = Vec::new();
        for i in 1..=3 {
            for j in 1..=3 {
                let z = Var::new(&format!("z{i}{j}"));
                exist.push(z);
                head.push(FAtom::new(
                    "Rp",
                    vec![t(&format!("x{i}")), t(&format!("y{j}")), Term::Var(z)],
                ));
            }
        }
        let d_total = Tgd::new(
            "d_total",
            Body::Conj(vec![
                FAtom::new("Rp", vec![t("x1"), t("x2"), t("x3")]),
                FAtom::new("Rp", vec![t("y1"), t("y2"), t("y3")]),
            ]),
            exist,
            head,
        )
        .unwrap();
        let s = setting_with_t_tgds(target, vec![d_total]);
        assert!(!is_weakly_acyclic(&s));
    }
}
