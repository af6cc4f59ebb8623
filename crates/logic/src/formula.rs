//! First-order formulas over a relational vocabulary, with active-domain
//! semantics (Section 2).
//!
//! Formulas appear in three roles in the paper: as bodies of s-t tgds
//! (which may be arbitrary FO over the source schema, footnote 2), as
//! conjunctions of relational atoms (tgd heads, egd bodies, conjunctive
//! queries), and as FO queries over the target schema (Section 7).
//! Quantifiers range over the active domain of the instance plus the
//! constants named in the formula, as the paper's footnote 2 requires.

use dex_core::{Instance, Symbol, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A first-order variable (an interned name).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Symbol);

impl Var {
    pub fn new(name: &str) -> Var {
        Var(Symbol::intern(name))
    }

    pub fn name(&self) -> String {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A term: a variable or a constant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Var(Var),
    Const(Symbol),
}

impl Term {
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    pub fn konst(name: &str) -> Term {
        Term::Const(Symbol::intern(name))
    }

    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A relational atom with terms, `R(t₁, …, t_r)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FAtom {
    pub rel: Symbol,
    pub args: Vec<Term>,
}

impl FAtom {
    pub fn new(rel: &str, args: Vec<Term>) -> FAtom {
        FAtom {
            rel: Symbol::intern(rel),
            args,
        }
    }

    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(Term::as_var)
    }

    pub fn constants(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        })
    }
}

impl fmt::Display for FAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for FAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A first-order formula.
#[derive(Clone, PartialEq, Eq)]
pub enum Formula {
    Atom(FAtom),
    Eq(Term, Term),
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Exists(Vec<Var>, Box<Formula>),
    Forall(Vec<Var>, Box<Formula>),
}

impl Formula {
    /// `t ≠ t'` as syntactic sugar.
    pub fn neq(a: Term, b: Term) -> Formula {
        Formula::Not(Box::new(Formula::Eq(a, b)))
    }

    /// The empty conjunction (truth).
    pub fn truth() -> Formula {
        Formula::And(Vec::new())
    }

    /// The free variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut bound = BTreeSet::new();
        self.collect_free(&mut bound, &mut out);
        out
    }

    fn collect_free(&self, bound: &mut BTreeSet<Var>, out: &mut Vec<Var>) {
        let push = |v: Var, bound: &BTreeSet<Var>, out: &mut Vec<Var>| {
            if !bound.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        };
        match self {
            Formula::Atom(a) => {
                for v in a.vars() {
                    push(v, bound, out);
                }
            }
            Formula::Eq(s, t) => {
                for term in [s, t] {
                    if let Some(v) = term.as_var() {
                        push(v, bound, out);
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let newly: Vec<Var> = vs.iter().filter(|v| bound.insert(**v)).copied().collect();
                f.collect_free(bound, out);
                for v in newly {
                    bound.remove(&v);
                }
            }
        }
    }

    /// The constants mentioned anywhere in the formula.
    pub fn constants(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Formula::Atom(a) => out.extend(a.constants()),
            Formula::Eq(s, t) => {
                for term in [s, t] {
                    if let Term::Const(c) = term {
                        out.insert(*c);
                    }
                }
            }
            Formula::Not(f) => f.collect_constants(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_constants(out);
                }
            }
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.collect_constants(out),
        }
    }

    /// If the formula is (equivalent to a flat) conjunction of relational
    /// atoms — possibly wrapped in nested `And`s — returns the atoms.
    pub fn as_conjunction_of_atoms(&self) -> Option<Vec<FAtom>> {
        let mut out = Vec::new();
        if self.flatten_atoms(&mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn flatten_atoms(&self, out: &mut Vec<FAtom>) -> bool {
        match self {
            Formula::Atom(a) => {
                out.push(a.clone());
                true
            }
            Formula::And(fs) => fs.iter().all(|f| f.flatten_atoms(out)),
            _ => false,
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Eq(s, t) => write!(f, "{s} = {t}"),
            Formula::Not(inner) => match inner.as_ref() {
                Formula::Eq(s, t) => write!(f, "{s} != {t}"),
                other => write!(f, "!({other})"),
            },
            Formula::And(fs) => {
                if fs.is_empty() {
                    return write!(f, "true");
                }
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    match sub {
                        Formula::Or(_) | Formula::Exists(..) | Formula::Forall(..) => {
                            write!(f, "({sub})")?
                        }
                        _ => write!(f, "{sub}")?,
                    }
                }
                Ok(())
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    return write!(f, "false");
                }
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{sub}")?;
                }
                Ok(())
            }
            Formula::Exists(vs, body) => {
                write!(f, "exists ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, " . {body}")
            }
            Formula::Forall(vs, body) => {
                write!(f, "forall ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, " . {body}")
            }
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A variable assignment `α`: its bindings as one vector sorted by
/// variable, so a lookup is a binary search over a few words and
/// binding allocates only when the vector outgrows its capacity.
#[derive(Default, PartialEq, Eq)]
pub struct Assignment {
    binds: Vec<(Var, Value)>,
}

impl Clone for Assignment {
    fn clone(&self) -> Assignment {
        Assignment {
            binds: self.binds.clone(),
        }
    }

    /// Reuses `self`'s buffer: a loop that copies each match into one
    /// scratch assignment allocates once.
    fn clone_from(&mut self, source: &Assignment) {
        self.binds.clone_from(&source.binds);
    }
}

impl Assignment {
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// An assignment with room for `n` bindings.
    pub(crate) fn with_capacity(n: usize) -> Assignment {
        Assignment {
            binds: Vec::with_capacity(n),
        }
    }

    /// The assignment binding each variable to the last value it is
    /// paired with.
    pub fn from_bindings(map: impl IntoIterator<Item = (Var, Value)>) -> Assignment {
        let mut out = Assignment::new();
        for (v, val) in map {
            out.bind(v, val);
        }
        out
    }

    fn slot(&self, v: Var) -> Result<usize, usize> {
        self.binds.binary_search_by_key(&v, |&(w, _)| w)
    }

    pub fn bind(&mut self, v: Var, val: Value) {
        match self.slot(v) {
            Ok(i) => self.binds[i].1 = val,
            Err(i) => self.binds.insert(i, (v, val)),
        }
    }

    pub fn unbind(&mut self, v: Var) {
        if let Ok(i) = self.slot(v) {
            self.binds.remove(i);
        }
    }

    pub fn get(&self, v: Var) -> Option<Value> {
        self.slot(v).ok().map(|i| self.binds[i].1)
    }

    /// Resolves a term: constants to themselves, variables via the map.
    /// Returns `None` for unbound variables.
    pub fn term(&self, t: Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(Value::Const(c)),
            Term::Var(v) => self.get(v),
        }
    }

    /// The bindings in variable order.
    pub fn bindings(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.binds.iter().copied()
    }

    pub fn len(&self) -> usize {
        self.binds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.binds.is_empty()
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, val)) in self.bindings().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}↦{val}")?;
        }
        write!(f, "}}")
    }
}

/// Evaluates `phi` in `inst` under `env` with active-domain semantics:
/// quantifiers range over `Dom(inst)` plus the constants of `phi`.
///
/// Nulls in `inst` are treated as ordinary domain elements (the paper
/// evaluates dependencies on instances with nulls this way); equality is
/// syntactic.
pub fn eval(phi: &Formula, inst: &Instance, env: &Assignment) -> bool {
    let domain = quantification_domain(phi, inst);
    eval_with_domain(phi, inst, env, &domain)
}

/// The domain quantifiers of `phi` range over in `inst`: the active
/// domain plus the constants named in `phi` (set-deduplicated). Compute
/// it once per fixpoint round when evaluating the same formula against
/// the same instance repeatedly.
pub fn quantification_domain(phi: &Formula, inst: &Instance) -> Vec<Value> {
    let mut domain: BTreeSet<Value> = inst.active_domain();
    domain.extend(phi.constants().into_iter().map(Value::Const));
    domain.into_iter().collect()
}

/// [`eval`] against a caller-precomputed [`quantification_domain`].
pub fn eval_with_domain(
    phi: &Formula,
    inst: &Instance,
    env: &Assignment,
    domain: &[Value],
) -> bool {
    let mut env = env.clone();
    eval_rec(phi, inst, &mut env, domain)
}

fn eval_rec(phi: &Formula, inst: &Instance, env: &mut Assignment, domain: &[Value]) -> bool {
    match phi {
        Formula::Atom(a) => {
            let args: Option<Vec<Value>> = a.args.iter().map(|&t| env.term(t)).collect();
            match args {
                Some(args) => inst.contains(&dex_core::Atom::new(a.rel, args)),
                None => panic!("unbound variable in atom {a} during evaluation"),
            }
        }
        Formula::Eq(s, t) => {
            let (a, b) = (env.term(*s), env.term(*t));
            match (a, b) {
                (Some(a), Some(b)) => a == b,
                _ => panic!("unbound variable in equality during evaluation"),
            }
        }
        Formula::Not(f) => !eval_rec(f, inst, env, domain),
        Formula::And(fs) => fs.iter().all(|f| eval_rec(f, inst, env, domain)),
        Formula::Or(fs) => fs.iter().any(|f| eval_rec(f, inst, env, domain)),
        Formula::Exists(vs, body) => quantify(vs, body, inst, env, domain, true),
        Formula::Forall(vs, body) => quantify(vs, body, inst, env, domain, false),
    }
}

fn quantify(
    vs: &[Var],
    body: &Formula,
    inst: &Instance,
    env: &mut Assignment,
    domain: &[Value],
    existential: bool,
) -> bool {
    if vs.is_empty() {
        return eval_rec(body, inst, env, domain);
    }
    let (first, rest) = (vs[0], &vs[1..]);
    let saved = env.get(first);
    for &val in domain {
        env.bind(first, val);
        let sub = quantify(rest, body, inst, env, domain, existential);
        if sub == existential {
            restore(env, first, saved);
            return existential;
        }
    }
    restore(env, first, saved);
    !existential
}

fn restore(env: &mut Assignment, v: Var, saved: Option<Value>) {
    match saved {
        Some(val) => env.bind(v, val),
        None => env.unbind(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::Atom;

    fn x() -> Term {
        Term::var("x")
    }

    fn y() -> Term {
        Term::var("y")
    }

    fn sample() -> Instance {
        Instance::from_atoms([
            Atom::of("E", vec![Value::konst("a"), Value::konst("b")]),
            Atom::of("E", vec![Value::konst("b"), Value::konst("c")]),
            Atom::of("P", vec![Value::konst("a")]),
        ])
    }

    #[test]
    fn atom_evaluation() {
        let i = sample();
        let phi = Formula::Atom(FAtom::new("E", vec![x(), y()]));
        let mut env = Assignment::new();
        env.bind(Var::new("x"), Value::konst("a"));
        env.bind(Var::new("y"), Value::konst("b"));
        assert!(eval(&phi, &i, &env));
        env.bind(Var::new("y"), Value::konst("c"));
        assert!(!eval(&phi, &i, &env));
    }

    #[test]
    fn existential_quantification() {
        let i = sample();
        // exists y . E(x, y)
        let phi = Formula::Exists(
            vec![Var::new("y")],
            Box::new(Formula::Atom(FAtom::new("E", vec![x(), y()]))),
        );
        let mut env = Assignment::new();
        env.bind(Var::new("x"), Value::konst("a"));
        assert!(eval(&phi, &i, &env));
        env.bind(Var::new("x"), Value::konst("c"));
        assert!(!eval(&phi, &i, &env));
    }

    #[test]
    fn universal_quantification() {
        let i = sample();
        // forall x . (P(x) | exists y . E(?, ?)) — check something real:
        // forall x,y . E(x,y) -> x != y  encoded as !(E(x,y) & x = y)
        let phi = Formula::Forall(
            vec![Var::new("x"), Var::new("y")],
            Box::new(Formula::Not(Box::new(Formula::And(vec![
                Formula::Atom(FAtom::new("E", vec![x(), y()])),
                Formula::Eq(x(), y()),
            ])))),
        );
        assert!(eval(&phi, &i, &Assignment::new()));
    }

    #[test]
    fn section_3_anomaly_query_shape() {
        // Q(x) = P(x) | exists y,z . (P(y) & E(y,z) & !P(z))
        let q = Formula::Or(vec![
            Formula::Atom(FAtom::new("P", vec![x()])),
            Formula::Exists(
                vec![Var::new("y"), Var::new("z")],
                Box::new(Formula::And(vec![
                    Formula::Atom(FAtom::new("P", vec![y()])),
                    Formula::Atom(FAtom::new("E", vec![y(), Term::var("z")])),
                    Formula::Not(Box::new(Formula::Atom(FAtom::new(
                        "P",
                        vec![Term::var("z")],
                    )))),
                ])),
            ),
        ]);
        let i = sample();
        // P(a) holds and E(a,b) with ¬P(b): both disjuncts true for x=a;
        // for x=c only the second disjunct applies.
        let mut env = Assignment::new();
        env.bind(Var::new("x"), Value::konst("c"));
        assert!(eval(&q, &i, &env));
        assert_eq!(q.free_vars(), vec![Var::new("x")]);
    }

    #[test]
    fn free_vars_respect_binders() {
        let phi = Formula::Exists(
            vec![Var::new("y")],
            Box::new(Formula::And(vec![
                Formula::Atom(FAtom::new("E", vec![x(), y()])),
                Formula::Atom(FAtom::new("E", vec![y(), Term::var("z")])),
            ])),
        );
        assert_eq!(phi.free_vars(), vec![Var::new("x"), Var::new("z")]);
    }

    #[test]
    fn constants_are_collected_and_quantified_over() {
        // exists x . x = 'd' is true even if d is not in the instance:
        // the domain is extended with the formula's constants.
        let phi = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::Eq(x(), Term::konst("d"))),
        );
        assert!(eval(&phi, &sample(), &Assignment::new()));
    }

    #[test]
    fn conjunction_flattening() {
        let phi = Formula::And(vec![
            Formula::Atom(FAtom::new("E", vec![x(), y()])),
            Formula::And(vec![Formula::Atom(FAtom::new("P", vec![x()]))]),
        ]);
        let atoms = phi.as_conjunction_of_atoms().unwrap();
        assert_eq!(atoms.len(), 2);
        let not_conj = Formula::Or(vec![]);
        assert!(not_conj.as_conjunction_of_atoms().is_none());
    }

    #[test]
    fn neq_sugar() {
        let phi = Formula::neq(x(), y());
        let mut env = Assignment::new();
        env.bind(Var::new("x"), Value::konst("a"));
        env.bind(Var::new("y"), Value::konst("b"));
        assert!(eval(&phi, &sample(), &env));
        env.bind(Var::new("y"), Value::konst("a"));
        assert!(!eval(&phi, &sample(), &env));
    }

    #[test]
    fn nulls_are_domain_elements_with_syntactic_equality() {
        let i = Instance::from_atoms([Atom::of("E", vec![Value::null(1), Value::null(2)])]);
        // exists x . E(x,x) is false: _1 ≠ _2 syntactically.
        let phi = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::Atom(FAtom::new("E", vec![x(), x()]))),
        );
        assert!(!eval(&phi, &i, &Assignment::new()));
        // exists x,y . E(x,y) is true.
        let psi = Formula::Exists(
            vec![Var::new("x"), Var::new("y")],
            Box::new(Formula::Atom(FAtom::new("E", vec![x(), y()]))),
        );
        assert!(eval(&psi, &i, &Assignment::new()));
    }

    #[test]
    fn display_round_trip_shapes() {
        let phi = Formula::Exists(
            vec![Var::new("z")],
            Box::new(Formula::And(vec![
                Formula::Atom(FAtom::new("F", vec![Term::konst("a"), Term::var("z")])),
                Formula::Atom(FAtom::new("G", vec![Term::var("z"), Term::konst("b")])),
            ])),
        );
        assert_eq!(format!("{phi}"), "exists z . F('a',z) & G(z,'b')");
    }
}
