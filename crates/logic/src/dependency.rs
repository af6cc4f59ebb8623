//! Dependencies: tuple-generating dependencies (tgds) and equality-
//! generating dependencies (egds), as in Section 2 of the paper.
//!
//! A tgd is `∀x̄∀ȳ (ϕ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))` where `ψ` is a conjunction of
//! relational atoms. For s-t tgds `ϕ` may be an arbitrary FO formula over
//! the source schema (the paper follows Libkin's definition, footnote 2);
//! for target tgds `ϕ` is a conjunction of relational atoms. An egd is
//! `∀x̄ (ϕ(x̄) → y = z)` with `y, z ∈ x̄`.

use crate::formula::{
    eval, eval_with_domain, quantification_domain, Assignment, FAtom, Formula, Var,
};
use crate::matcher;
use dex_core::{Atom, Instance, Value};
use std::collections::BTreeSet;
use std::fmt;

/// The body `ϕ` of a tgd.
#[derive(Clone, PartialEq, Eq)]
pub enum Body {
    /// A conjunction of relational atoms (always the case for target tgds).
    Conj(Vec<FAtom>),
    /// An arbitrary FO formula (allowed for s-t tgds).
    Fo(Formula),
}

impl Body {
    /// The free variables of the body, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Var> {
        match self {
            Body::Conj(atoms) => {
                let mut out = Vec::new();
                for a in atoms {
                    for v in a.vars() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            }
            Body::Fo(f) => f.free_vars(),
        }
    }

    /// The relation symbols mentioned in the body.
    pub fn relations(&self) -> BTreeSet<dex_core::Symbol> {
        match self {
            Body::Conj(atoms) => atoms.iter().map(|a| a.rel).collect(),
            Body::Fo(f) => {
                let mut out = BTreeSet::new();
                collect_rels(f, &mut out);
                out
            }
        }
    }

    /// Enumerates all assignments of the free variables satisfying the
    /// body in `inst`. For FO bodies this enumerates the active domain
    /// (plus the body's constants) and filters — exponential in the number
    /// of free variables, as the paper's data complexity analysis allows.
    pub fn matches(&self, inst: &Instance) -> Vec<Assignment> {
        match self {
            Body::Conj(atoms) => matcher::all_matches(atoms, inst, &Assignment::new()),
            Body::Fo(f) => {
                let domain = quantification_domain(f, inst);
                self.matches_with_domain(inst, &domain)
            }
        }
    }

    /// Calls `f` on each match of the body in `inst`, in [`Body::matches`]
    /// order, until `f` returns `false`; returns `false` iff stopped
    /// early. Conjunctive bodies stream from the matcher, so a stopped
    /// run never builds the matches it skips; FO bodies are collected
    /// first.
    pub fn for_each_match(&self, inst: &Instance, f: &mut dyn FnMut(&Assignment) -> bool) -> bool {
        match self {
            Body::Conj(atoms) => matcher::for_each_match(atoms, inst, &Assignment::new(), f),
            Body::Fo(_) => self.matches(inst).iter().all(f),
        }
    }

    /// Like [`Body::matches`], but FO bodies evaluate against a
    /// caller-precomputed [`quantification_domain`] — chase loops that
    /// re-match the same body against the same instance several times per
    /// fixpoint round compute the domain once instead of rebuilding it
    /// (with linear-scan constant dedup) per call.
    pub fn matches_with_domain(&self, inst: &Instance, domain: &[Value]) -> Vec<Assignment> {
        match self {
            Body::Conj(atoms) => matcher::all_matches(atoms, inst, &Assignment::new()),
            Body::Fo(f) => {
                let vars = f.free_vars();
                let mut out = Vec::new();
                let mut env = Assignment::new();
                enumerate_assignments(&vars, domain, &mut env, &mut |e| {
                    if eval_with_domain(f, inst, e, domain) {
                        out.push(e.clone());
                    }
                });
                out
            }
        }
    }

    /// Instantiates a conjunctive body under `env` (which must bind all
    /// free variables) into ground premise atoms — the `B` of a
    /// justification `(d, ū, v̄)` with `B ⊆ instance`. FO bodies have no
    /// canonical atom decomposition and return `None`.
    pub fn instantiate(&self, env: &Assignment) -> Option<Vec<Atom>> {
        match self {
            Body::Conj(atoms) => Some(
                atoms
                    .iter()
                    .map(|a| {
                        let args: Vec<Value> = a
                            .args
                            .iter()
                            .map(|&t| {
                                env.term(t)
                                    .expect("unbound variable instantiating tgd body")
                            })
                            .collect();
                        Atom::new(a.rel, args)
                    })
                    .collect(),
            ),
            Body::Fo(_) => None,
        }
    }

    /// The quantification domain FO bodies enumerate over in `inst`;
    /// `None` for plain conjunctive bodies (which never need one).
    pub fn fo_domain(&self, inst: &Instance) -> Option<Vec<Value>> {
        match self {
            Body::Conj(_) => None,
            Body::Fo(f) => Some(quantification_domain(f, inst)),
        }
    }

    /// True iff the body holds in `inst` under `env` (which must bind all
    /// free variables).
    pub fn holds(&self, inst: &Instance, env: &Assignment) -> bool {
        match self {
            Body::Conj(atoms) => atoms.iter().all(|a| {
                let args: Option<Vec<Value>> = a.args.iter().map(|&t| env.term(t)).collect();
                args.is_some_and(|args| inst.contains(&Atom::new(a.rel, args)))
            }),
            Body::Fo(f) => eval(f, inst, env),
        }
    }
}

fn collect_rels(f: &Formula, out: &mut BTreeSet<dex_core::Symbol>) {
    match f {
        Formula::Atom(a) => {
            out.insert(a.rel);
        }
        Formula::Eq(..) => {}
        Formula::Not(g) => collect_rels(g, out),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_rels(g, out)),
        Formula::Exists(_, g) | Formula::Forall(_, g) => collect_rels(g, out),
    }
}

fn enumerate_assignments(
    vars: &[Var],
    domain: &[Value],
    env: &mut Assignment,
    f: &mut impl FnMut(&Assignment),
) {
    match vars.split_first() {
        None => f(env),
        Some((&v, rest)) => {
            for &val in domain {
                env.bind(v, val);
                enumerate_assignments(rest, domain, env, f);
            }
            env.unbind(v);
        }
    }
}

/// Errors raised when constructing dependencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DependencyError {
    /// A head variable is neither free in the body nor existential.
    UnsafeHeadVariable(Var),
    /// An existential variable also occurs free in the body.
    ExistentialClash(Var),
    /// The head of a tgd is empty.
    EmptyHead,
    /// An egd equates a variable not occurring in its body.
    UnknownEgdVariable(Var),
}

impl fmt::Display for DependencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependencyError::UnsafeHeadVariable(v) => {
                write!(
                    f,
                    "head variable {v} is neither free in the body nor existential"
                )
            }
            DependencyError::ExistentialClash(v) => {
                write!(f, "existential variable {v} also occurs free in the body")
            }
            DependencyError::EmptyHead => write!(f, "tgd head is empty"),
            DependencyError::UnknownEgdVariable(v) => {
                write!(f, "egd equates variable {v} not occurring in its body")
            }
        }
    }
}

impl std::error::Error for DependencyError {}

/// A tuple-generating dependency `ϕ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Tgd {
    /// A label (e.g. `d2`) used in displays and justifications.
    pub name: String,
    pub body: Body,
    /// The existential variables `z̄`, in declaration order.
    pub exist_vars: Vec<Var>,
    /// The head conjunction `ψ`.
    pub head: Vec<FAtom>,
    /// `x̄`: free body variables that occur in the head.
    frontier: Vec<Var>,
    /// `ȳ`: free body variables that do not occur in the head.
    body_only: Vec<Var>,
}

impl Tgd {
    pub fn new(
        name: impl Into<String>,
        body: Body,
        exist_vars: Vec<Var>,
        head: Vec<FAtom>,
    ) -> Result<Tgd, DependencyError> {
        if head.is_empty() {
            return Err(DependencyError::EmptyHead);
        }
        let free = body.free_vars();
        for &z in &exist_vars {
            if free.contains(&z) {
                return Err(DependencyError::ExistentialClash(z));
            }
        }
        let head_vars: BTreeSet<Var> = head.iter().flat_map(|a| a.vars()).collect();
        for &v in &head_vars {
            if !free.contains(&v) && !exist_vars.contains(&v) {
                return Err(DependencyError::UnsafeHeadVariable(v));
            }
        }
        let frontier: Vec<Var> = free
            .iter()
            .copied()
            .filter(|v| head_vars.contains(v))
            .collect();
        let body_only: Vec<Var> = free
            .iter()
            .copied()
            .filter(|v| !head_vars.contains(v))
            .collect();
        Ok(Tgd {
            name: name.into(),
            body,
            exist_vars,
            head,
            frontier,
            body_only,
        })
    }

    /// The frontier `x̄`: free body variables exported to the head.
    pub fn frontier(&self) -> &[Var] {
        &self.frontier
    }

    /// `ȳ`: free body variables not exported to the head.
    pub fn body_only_vars(&self) -> &[Var] {
        &self.body_only
    }

    /// True iff the tgd has no existential variables ("full tgd").
    pub fn is_full(&self) -> bool {
        self.exist_vars.is_empty()
    }

    /// Instantiates the head under `env`, which must bind all frontier and
    /// existential variables.
    pub fn instantiate_head(&self, env: &Assignment) -> Vec<Atom> {
        self.head
            .iter()
            .map(|a| {
                let args: Vec<Value> = a
                    .args
                    .iter()
                    .map(|&t| {
                        env.term(t)
                            .expect("unbound variable instantiating tgd head")
                    })
                    .collect();
                Atom::new(a.rel, args)
            })
            .collect()
    }

    /// True iff the head (with its existential quantifiers) holds in
    /// `head_inst` under `env` binding the frontier.
    pub fn head_holds(&self, head_inst: &Instance, env: &Assignment) -> bool {
        matcher::exists_match(&self.head, head_inst, env)
    }

    /// Checks `body_inst ⊨ body ⟹ head_inst ⊨ ∃z̄ ψ` for all assignments:
    /// the tgd is satisfied when bodies are read in `body_inst` and heads
    /// in `head_inst` (for s-t tgds these differ: body over `S`, head over
    /// `S ∪ T`; for target tgds both are `T`).
    pub fn satisfied_across(&self, body_inst: &Instance, head_inst: &Instance) -> bool {
        self.body
            .for_each_match(body_inst, &mut |env| self.head_holds(head_inst, env))
    }

    /// `inst ⊨ d` with body and head over the same instance.
    pub fn satisfied(&self, inst: &Instance) -> bool {
        self.satisfied_across(inst, inst)
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            Body::Conj(atoms) => {
                for (i, a) in atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{a}")?;
                }
            }
            Body::Fo(phi) => write!(f, "{phi}")?,
        }
        write!(f, " -> ")?;
        if !self.exist_vars.is_empty() {
            write!(f, "exists ")?;
            for (i, v) in self.exist_vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, " . ")?;
        }
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.name, self)
    }
}

/// An equality-generating dependency `ϕ(x̄) → y = z`.
#[derive(Clone, PartialEq, Eq)]
pub struct Egd {
    pub name: String,
    pub body: Vec<FAtom>,
    pub lhs: Var,
    pub rhs: Var,
}

impl Egd {
    pub fn new(
        name: impl Into<String>,
        body: Vec<FAtom>,
        lhs: Var,
        rhs: Var,
    ) -> Result<Egd, DependencyError> {
        let vars: BTreeSet<Var> = body.iter().flat_map(|a| a.vars()).collect();
        for v in [lhs, rhs] {
            if !vars.contains(&v) {
                return Err(DependencyError::UnknownEgdVariable(v));
            }
        }
        Ok(Egd {
            name: name.into(),
            body,
            lhs,
            rhs,
        })
    }

    /// The first body match violating the equality, if any.
    pub fn first_violation(&self, inst: &Instance) -> Option<Assignment> {
        let mut found = None;
        matcher::for_each_match(&self.body, inst, &Assignment::new(), &mut |env| {
            if env.get(self.lhs) != env.get(self.rhs) {
                found = Some(env.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// Enumerates body matches violating the equality.
    pub fn violations(&self, inst: &Instance) -> Vec<Assignment> {
        let mut out = Vec::new();
        matcher::for_each_match(&self.body, inst, &Assignment::new(), &mut |env| {
            if env.get(self.lhs) != env.get(self.rhs) {
                out.push(env.clone());
            }
            true
        });
        out
    }

    /// `inst ⊨ d`.
    pub fn satisfied(&self, inst: &Instance) -> bool {
        let mut ok = true;
        matcher::for_each_match(&self.body, inst, &Assignment::new(), &mut |env| {
            if env.get(self.lhs) != env.get(self.rhs) {
                ok = false;
                false
            } else {
                true
            }
        });
        ok
    }
}

impl fmt::Display for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> {} = {}", self.lhs, self.rhs)
    }
}

impl fmt::Debug for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.name, self)
    }
}

/// Either kind of dependency.
#[derive(Clone, PartialEq, Eq)]
pub enum Dependency {
    Tgd(Tgd),
    Egd(Egd),
}

impl Dependency {
    pub fn name(&self) -> &str {
        match self {
            Dependency::Tgd(d) => &d.name,
            Dependency::Egd(d) => &d.name,
        }
    }

    pub fn satisfied(&self, inst: &Instance) -> bool {
        match self {
            Dependency::Tgd(d) => d.satisfied(inst),
            Dependency::Egd(d) => d.satisfied(inst),
        }
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Tgd(d) => write!(f, "{d}"),
            Dependency::Egd(d) => write!(f, "{d}"),
        }
    }
}

impl fmt::Debug for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Tgd(d) => write!(f, "{d:?}"),
            Dependency::Egd(d) => write!(f, "{d:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Term;

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn t(name: &str) -> Term {
        Term::var(name)
    }

    /// d2 of Example 2.1: N(x,y) → ∃z1,z2 . E(x,z1) ∧ F(x,z2).
    fn d2() -> Tgd {
        Tgd::new(
            "d2",
            Body::Conj(vec![FAtom::new("N", vec![t("x"), t("y")])]),
            vec![v("z1"), v("z2")],
            vec![
                FAtom::new("E", vec![t("x"), t("z1")]),
                FAtom::new("F", vec![t("x"), t("z2")]),
            ],
        )
        .unwrap()
    }

    /// d4 of Example 2.1: F(x,y) ∧ F(x,z) → y = z.
    fn d4() -> Egd {
        Egd::new(
            "d4",
            vec![
                FAtom::new("F", vec![t("x"), t("y")]),
                FAtom::new("F", vec![t("x"), t("z")]),
            ],
            v("y"),
            v("z"),
        )
        .unwrap()
    }

    #[test]
    fn frontier_and_body_only_vars() {
        let d = d2();
        assert_eq!(d.frontier(), &[v("x")]);
        assert_eq!(d.body_only_vars(), &[v("y")]);
        assert!(!d.is_full());
    }

    #[test]
    fn tgd_validation_rejects_unsafe_head() {
        let err = Tgd::new(
            "bad",
            Body::Conj(vec![FAtom::new("N", vec![t("x")])]),
            vec![],
            vec![FAtom::new("E", vec![t("x"), t("w")])],
        )
        .unwrap_err();
        assert_eq!(err, DependencyError::UnsafeHeadVariable(v("w")));
    }

    #[test]
    fn tgd_validation_rejects_existential_clash() {
        let err = Tgd::new(
            "bad",
            Body::Conj(vec![FAtom::new("N", vec![t("x")])]),
            vec![v("x")],
            vec![FAtom::new("E", vec![t("x")])],
        )
        .unwrap_err();
        assert_eq!(err, DependencyError::ExistentialClash(v("x")));
    }

    #[test]
    fn tgd_validation_rejects_empty_head() {
        let err = Tgd::new(
            "bad",
            Body::Conj(vec![FAtom::new("N", vec![t("x")])]),
            vec![],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, DependencyError::EmptyHead);
    }

    #[test]
    fn tgd_satisfaction_with_existentials() {
        let d = d2();
        let src = Instance::from_atoms([Atom::of("N", vec![Value::konst("a"), Value::konst("b")])]);
        let tgt_good = Instance::from_atoms([
            Atom::of("E", vec![Value::konst("a"), Value::null(1)]),
            Atom::of("F", vec![Value::konst("a"), Value::null(2)]),
        ]);
        let tgt_bad =
            Instance::from_atoms([Atom::of("E", vec![Value::konst("a"), Value::null(1)])]);
        assert!(d.satisfied_across(&src, &tgt_good));
        assert!(!d.satisfied_across(&src, &tgt_bad));
    }

    #[test]
    fn full_tgd_detection() {
        let d = Tgd::new(
            "full",
            Body::Conj(vec![FAtom::new("N", vec![t("x"), t("y")])]),
            vec![],
            vec![FAtom::new("E", vec![t("y"), t("x")])],
        )
        .unwrap();
        assert!(d.is_full());
    }

    #[test]
    fn instantiate_head_builds_atoms() {
        let d = d2();
        let mut env = Assignment::new();
        env.bind(v("x"), Value::konst("a"));
        env.bind(v("z1"), Value::null(1));
        env.bind(v("z2"), Value::null(2));
        let atoms = d.instantiate_head(&env);
        assert_eq!(
            atoms,
            vec![
                Atom::of("E", vec![Value::konst("a"), Value::null(1)]),
                Atom::of("F", vec![Value::konst("a"), Value::null(2)]),
            ]
        );
    }

    #[test]
    fn egd_satisfaction_and_violations() {
        let d = d4();
        let ok = Instance::from_atoms([Atom::of("F", vec![Value::konst("a"), Value::null(1)])]);
        assert!(d.satisfied(&ok));
        let bad = Instance::from_atoms([
            Atom::of("F", vec![Value::konst("a"), Value::konst("c")]),
            Atom::of("F", vec![Value::konst("a"), Value::konst("d")]),
        ]);
        assert!(!d.satisfied(&bad));
        // Violations come in both orders (y,z) and (z,y).
        assert_eq!(d.violations(&bad).len(), 2);
    }

    #[test]
    fn egd_validation_rejects_unknown_var() {
        let err = Egd::new(
            "bad",
            vec![FAtom::new("F", vec![t("x"), t("y")])],
            v("y"),
            v("w"),
        )
        .unwrap_err();
        assert_eq!(err, DependencyError::UnknownEgdVariable(v("w")));
    }

    #[test]
    fn fo_body_matches() {
        // ¬P(x) ∧ V(x) as an FO body: matches elements of V not in P.
        let body = Body::Fo(Formula::And(vec![
            Formula::Atom(FAtom::new("V", vec![t("x")])),
            Formula::Not(Box::new(Formula::Atom(FAtom::new("P", vec![t("x")])))),
        ]));
        let inst = Instance::from_atoms([
            Atom::of("V", vec![Value::konst("a")]),
            Atom::of("V", vec![Value::konst("b")]),
            Atom::of("P", vec![Value::konst("a")]),
        ]);
        let ms = body.matches(&inst);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(v("x")), Some(Value::konst("b")));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            format!("{}", d2()),
            "N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2)"
        );
        assert_eq!(format!("{}", d4()), "F(x,y) & F(x,z) -> y = z");
    }
}
