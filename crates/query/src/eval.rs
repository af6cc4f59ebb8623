//! Query evaluation on a single instance (possibly with nulls).
//!
//! Nulls are treated as ordinary domain values and equality is syntactic —
//! the standard "naive evaluation" over naive tables. The CWA semantics of
//! Section 7 are layered on top in [`crate::modal`] and
//! [`crate::semantics`].
//!
//! Every CQ and UCQ, with or without its null tuples (`Q(T)` or `Q(T)↓`),
//! is answered by one evaluator, `eval_union`: one kernel search per
//! disjunct, every head tuple appended to one flat buffer, the buffer's
//! rows sorted and deduplicated once at the end.

use dex_core::{Instance, Value};
use dex_logic::formula::{eval as eval_formula, Assignment};
use dex_logic::matcher;
use dex_logic::{ConjunctiveQuery, FAtom, FoQuery, Query, Term, UnionQuery, Var};
use std::borrow::Cow;
use std::collections::BTreeSet;

#[cfg(test)]
mod reference;

/// The answer relation of a query: a set of tuples over `Dom`.
pub type Answers = BTreeSet<Vec<Value>>;

/// Evaluates a conjunctive query (with inequalities) on `inst`.
pub fn eval_cq(q: &ConjunctiveQuery, inst: &Instance) -> Answers {
    eval_union(std::slice::from_ref(q), inst, false)
}

/// Evaluates a union of conjunctive queries on `inst`.
pub fn eval_ucq(q: &UnionQuery, inst: &Instance) -> Answers {
    eval_union(&q.disjuncts, inst, false)
}

/// Evaluates a first-order query on `inst` with active-domain semantics.
pub fn eval_fo(q: &FoQuery, inst: &Instance) -> Answers {
    // Dedup through a set: this runs once per valuation in the modal hot
    // loop, and a `Vec::contains` scan per formula constant is quadratic
    // in the domain size.
    let mut domain: BTreeSet<Value> = inst.active_domain();
    domain.extend(q.formula.constants().into_iter().map(Value::Const));
    let domain: Vec<Value> = domain.into_iter().collect();
    let mut out = Answers::new();
    let mut tuple = vec![Value::null(u32::MAX); q.head_vars.len()];
    enumerate(q, inst, &domain, 0, &mut tuple, &mut out);
    out
}

fn enumerate(
    q: &FoQuery,
    inst: &Instance,
    domain: &[Value],
    idx: usize,
    tuple: &mut Vec<Value>,
    out: &mut Answers,
) {
    if idx == q.head_vars.len() {
        let env = Assignment::from_bindings(q.head_vars.iter().copied().zip(tuple.iter().copied()));
        if eval_formula(&q.formula, inst, &env) {
            out.insert(tuple.clone());
        }
        return;
    }
    for &v in domain {
        tuple[idx] = v;
        enumerate(q, inst, domain, idx + 1, tuple, out);
    }
}

/// Evaluates any query on `inst`.
pub fn eval_query(q: &Query, inst: &Instance) -> Answers {
    match q {
        Query::Cq(q) => eval_cq(q, inst),
        Query::Ucq(q) => eval_ucq(q, inst),
        Query::Fo(q) => eval_fo(q, inst),
    }
}

/// `Q(T)↓`: the answers containing no nulls (Theorem 7.6's notation).
pub fn drop_null_tuples(answers: &Answers) -> Answers {
    answers
        .iter()
        .filter(|t| t.iter().all(Value::is_const))
        .cloned()
        .collect()
}

/// `Q(T)↓` of any query on `inst`. A CQ or UCQ never builds a tuple
/// holding a null; an FO query is evaluated whole, then filtered.
pub(crate) fn eval_null_free(q: &Query, inst: &Instance) -> Answers {
    match q {
        Query::Cq(q) => eval_union(std::slice::from_ref(q), inst, true),
        Query::Ucq(q) => eval_union(&q.disjuncts, inst, true),
        Query::Fo(q) => drop_null_tuples(&eval_fo(q, inst)),
    }
}

/// The answers of the union of `disjuncts` on `inst`, without the
/// tuples holding a null when `null_free`. Each disjunct runs one
/// matcher search over the atoms [`search_body`] leaves it and appends
/// the head tuple of every match that passes its inequalities to one
/// arity-strided buffer; a tuple with a null is never written when
/// `null_free`. A boolean union stops at its first match.
fn eval_union(disjuncts: &[ConjunctiveQuery], inst: &Instance, null_free: bool) -> Answers {
    let arity = disjuncts.first().map_or(0, ConjunctiveQuery::arity);
    debug_assert!(disjuncts.iter().all(|d| d.arity() == arity));
    let mut rows: Vec<Value> = Vec::new();
    let mut holds = false;
    for d in disjuncts {
        let Some(body) = search_body(d, inst) else {
            continue;
        };
        matcher::for_each_match(&body, inst, &Assignment::new(), &mut |env| {
            if d.inequalities
                .iter()
                .any(|&(s, t)| term(env, s) == term(env, t))
            {
                return true;
            }
            holds = true;
            let start = rows.len();
            for &v in &d.head_vars {
                let val = env.get(v).expect("head vars are safe");
                if null_free && val.is_null() {
                    rows.truncate(start);
                    return true;
                }
                rows.push(val);
            }
            arity > 0
        });
        if arity == 0 && holds {
            return Answers::from([Vec::new()]);
        }
    }
    if arity == 0 {
        return Answers::new();
    }
    // Sort the row indices by row, drop repeats, and build the set from
    // sorted distinct rows: one allocation per answer, no tree descent.
    // A row's first values, packed into one integer in `Value`'s order,
    // decide most comparisons without a branch per value.
    let row = |i: usize| &rows[i * arity..(i + 1) * arity];
    let packed = arity.min(PACKED_VALUES);
    let key = |i: usize| {
        row(i)[..packed]
            .iter()
            .fold(0, |k, &v| k << 33 | order_key(v))
    };
    let mut order: Vec<(u128, usize)> = (0..rows.len() / arity).map(|i| (key(i), i)).collect();
    order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| row(a.1)[packed..].cmp(&row(b.1)[packed..]))
    });
    order.dedup_by(|a, b| a.0 == b.0 && row(a.1) == row(b.1));
    debug_assert!(order.windows(2).all(|w| row(w[0].1) < row(w[1].1)));
    order.into_iter().map(|(_, i)| row(i).to_vec()).collect()
}

/// How many leading values of a row [`order_key`] packs into a `u128`.
const PACKED_VALUES: usize = 3;

/// A 33-bit key ordered as `Value`'s derived `Ord`: constants by symbol
/// id, then nulls by id.
fn order_key(v: Value) -> u128 {
    match v {
        Value::Const(c) => u128::from(c.id()),
        Value::Null(n) => 1 << 32 | u128::from(n.0),
    }
}

fn term(env: &Assignment, t: Term) -> Value {
    env.term(t).expect("inequality terms are safe")
}

/// The atoms of `d` its search must enumerate, or `None` if `d` has no
/// match on `inst`. The body falls into components of atoms linked by
/// shared variables. The components holding a head variable or an
/// inequality's variable are searched; any other only has to hold
/// somewhere in `inst`, whatever the rest binds, so it is checked once
/// here and left out of the search; if it fails, so does `d`. An
/// inequality between two constants is decided here too. A body of
/// more than 64 atoms is searched whole.
fn search_body<'q>(d: &'q ConjunctiveQuery, inst: &Instance) -> Option<Cow<'q, [FAtom]>> {
    let atoms = &d.atoms;
    if d.inequalities
        .iter()
        .any(|&(s, t)| s == t && s.as_var().is_none())
    {
        return None;
    }
    let all = match atoms.len() {
        64 => u64::MAX,
        n if n < 64 => (1 << n) - 1,
        _ => return Some(Cow::Borrowed(atoms)),
    };
    let holding = |v: Var| -> u64 {
        (0..atoms.len())
            .filter(|&i| atoms[i].vars().any(|w| w == v))
            .fold(0, |m, i| m | 1 << i)
    };
    let pinned = d
        .head_vars
        .iter()
        .copied()
        .chain(
            d.inequalities
                .iter()
                .flat_map(|&(s, t)| [s, t])
                .filter_map(|t| t.as_var()),
        )
        .fold(0, |m, v| m | holding(v));
    let searched = if pinned == all {
        all
    } else {
        closure(atoms, pinned, all)
    };
    let pick = |m: u64| -> Cow<'q, [FAtom]> {
        if m == all {
            return Cow::Borrowed(atoms);
        }
        (0..atoms.len())
            .filter(|&i| m & 1 << i != 0)
            .map(|i| atoms[i].clone())
            .collect()
    };
    let mut free = all & !searched;
    while free != 0 {
        let component = closure(atoms, free & free.wrapping_neg(), free);
        if !matcher::exists_match(&pick(component), inst, &Assignment::new()) {
            return None;
        }
        free &= !component;
    }
    Some(pick(searched))
}

/// The atoms of `within` (a bit set over `atoms`) that `seed` reaches
/// through shared variables.
fn closure(atoms: &[FAtom], seed: u64, within: u64) -> u64 {
    let mut reached = seed;
    loop {
        let before = reached;
        for i in 0..atoms.len() {
            let linked = within & !reached & 1 << i != 0
                && (0..atoms.len())
                    .filter(|&j| reached & 1 << j != 0)
                    .any(|j| atoms[i].vars().any(|v| atoms[j].vars().any(|w| w == v)));
            if linked {
                reached |= 1 << i;
            }
        }
        if reached == before {
            return reached;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::Atom;
    use dex_logic::{parse_instance, parse_query};

    fn q(text: &str) -> Query {
        parse_query(text).unwrap()
    }

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    #[test]
    fn cq_join_evaluation() {
        let i = parse_instance("E(a,b). E(b,c). P(a).").unwrap();
        let ans = eval_query(&q("Q(x,z) :- E(x,y), E(y,z)"), &i);
        assert_eq!(ans, Answers::from([vec![c("a"), c("c")]]));
    }

    #[test]
    fn cq_with_inequality_filters() {
        let i = parse_instance("E(a,b). E(a,a).").unwrap();
        let ans = eval_query(&q("Q(x,y) :- E(x,y), x != y"), &i);
        assert_eq!(ans, Answers::from([vec![c("a"), c("b")]]));
    }

    #[test]
    fn inequality_on_nulls_is_syntactic() {
        let i = parse_instance("E(a,_1).").unwrap();
        let ans = eval_query(&q("Q(x,y) :- E(x,y), x != y"), &i);
        // a ≠ _1 syntactically, so the tuple (a,_1) is returned.
        assert_eq!(ans.len(), 1);
        let dropped = drop_null_tuples(&ans);
        assert!(dropped.is_empty());
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let i = parse_instance("P(a). R(b,c).").unwrap();
        let ans = eval_query(&q("Q(x) :- P(x); Q(x) :- R(x,y)"), &i);
        assert_eq!(ans, Answers::from([vec![c("a")], vec![c("b")]]));
    }

    #[test]
    fn boolean_query_answers() {
        let i = parse_instance("E(a,b).").unwrap();
        let yes = eval_query(&q("Q() :- E(x,y)"), &i);
        assert_eq!(yes, Answers::from([vec![]]));
        let no = eval_query(&q("Q() :- E(x,x)"), &i);
        assert!(no.is_empty());
    }

    #[test]
    fn fo_query_with_negation() {
        let i = parse_instance("P(a). E(a,b). E(b,c). P(b).").unwrap();
        // Elements reachable in one step from a P-element that is not P.
        let ans = eval_query(&q("Q(z) := exists y . (P(y) & E(y,z) & !P(z))"), &i);
        assert_eq!(ans, Answers::from([vec![c("c")]]));
    }

    #[test]
    fn fo_universal_quantifier() {
        let i = parse_instance("E(a,b). E(a,c). P(b). P(c).").unwrap();
        // x such that all E-successors of x are P.
        let ans = eval_query(&q("Q(x) := E(x,x) | forall y . (!E(x,y) | P(y))"), &i);
        // a: successors b,c both P ✓. b,c: no successors, vacuous ✓.
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn section_3_query_on_the_copy_instance() {
        // Two 9-cycles, P(a4): Q(x) = P(x) | ∃y,z(P(y) ∧ E(y,z) ∧ ¬P(z))
        // answers every node (the second disjunct holds globally).
        let mut text = String::new();
        for i in 0..9 {
            text.push_str(&format!(
                "E(a{},a{}). E(b{},b{}). ",
                i,
                (i + 1) % 9,
                i,
                (i + 1) % 9
            ));
        }
        text.push_str("P(a4).");
        let inst = parse_instance(&text).unwrap();
        let query = q("Q(x) := P(x) | exists y,z . (P(y) & E(y,z) & !P(z))");
        let ans = eval_query(&query, &inst);
        assert_eq!(ans.len(), 18);
    }

    #[test]
    fn fo_eval_on_a_wide_domain() {
        // A few thousand distinct values: the old Vec::contains dedup made
        // domain construction quadratic, and this is inside the modal
        // per-valuation hot loop. Also checks formula constants absent from
        // the instance still enter the enumeration domain exactly once.
        let mut inst = Instance::new();
        for i in 0..3000 {
            inst.insert(Atom::of("P", vec![Value::konst(&format!("v{i}"))]));
        }
        let query = q("Q(x) := P(x) & !P('outside')");
        let ans = eval_query(&query, &inst);
        assert_eq!(ans.len(), 3000);
        assert!(!ans.contains(&vec![c("outside")]));
    }

    #[test]
    fn empty_instance_empty_answers() {
        let i = Instance::new();
        assert!(eval_query(&q("Q(x) :- P(x)"), &i).is_empty());
    }

    /// What the differential's cases exercised; every field must be hit
    /// by some seed.
    #[derive(Default)]
    struct Coverage {
        boolean: usize,
        repeated_head: usize,
        constants: usize,
        head_safe_inequality: usize,
        head_safe_only_link: usize,
        existential_only_link: usize,
        head_free: usize,
        constant_only_atom: usize,
        killed_by_empty: usize,
        shared_answers: usize,
        packed_prefix_shared: usize,
    }

    /// Relations `(name, arity)` the instances fill; `X` stays empty.
    const RELS: [(&str, usize); 5] = [("Z", 0), ("P", 1), ("E", 2), ("T", 3), ("X", 2)];
    const CONSTS: [&str; 3] = ["a", "b", "c"];

    /// One of `pool` values: `a`, `b`, then alternately a constant
    /// outside the queries' and a null.
    fn random_value(rng: &mut dex_testkit::rng::TestRng, pool: u32) -> Value {
        match rng.gen_range(0..pool) {
            i @ 0..=1 => c(CONSTS[i as usize]),
            i if i % 2 == 0 => c(&format!("d{i}")),
            i => Value::null(i),
        }
    }

    /// Mostly a dense instance over 4 values; 1 time in 4 a larger one
    /// over 12, whose answer sets run to dozens of sorted rows.
    fn random_instance(rng: &mut dex_testkit::rng::TestRng) -> Instance {
        let (pool, rows) = if rng.gen_bool(0.25) {
            (12, 40)
        } else {
            (4, 12)
        };
        let mut inst = Instance::new();
        for (rel, arity) in RELS.into_iter().filter(|&(r, _)| r != "X") {
            for _ in 0..rng.gen_range(0..rows) {
                let row: Vec<Value> = (0..arity).map(|_| random_value(rng, pool)).collect();
                inst.insert(Atom::of(rel, row));
            }
        }
        inst
    }

    fn random_const(rng: &mut dex_testkit::rng::TestRng) -> Term {
        Term::konst(CONSTS[rng.gen_range(0..CONSTS.len())])
    }

    /// An atom over a random relation whose positions draw from `vars`,
    /// keeping a constant 1 time in `const_one_in`.
    fn random_atom(rng: &mut dex_testkit::rng::TestRng, vars: &[&str], const_one_in: u32) -> FAtom {
        let (rel, arity) = RELS[rng.gen_range(0..RELS.len() - 1)];
        let args = (0..arity)
            .map(|_| match rng.gen_range(0..const_one_in) {
                0 => random_const(rng),
                _ => Term::var(vars[rng.gen_range(0..vars.len())]),
            })
            .collect();
        FAtom::new(rel, args)
    }

    /// A random disjunct of head arity `arity`: 1–3 atoms over `x0..x3`
    /// (often more than one component), a head drawn from their
    /// variables with repeats, sometimes a head-free component over
    /// `y0, y1` (random, constant-only, or over the empty `X`), a
    /// head-safe inequality, and an inequality over existential
    /// variables (linking the head-free component to the rest).
    fn random_disjunct(rng: &mut dex_testkit::rng::TestRng, arity: usize) -> ConjunctiveQuery {
        let xs = ["x0", "x1", "x2", "x3"];
        let mut atoms: Vec<FAtom> = if rng.gen_bool(0.5) {
            // Two parts no variable connects.
            vec![random_atom(rng, &xs[..2], 5), random_atom(rng, &xs[2..], 5)]
        } else {
            (0..rng.gen_range(1..4usize))
                .map(|_| random_atom(rng, &xs, 5))
                .collect()
        };
        let mut body_vars: Vec<Var> = Vec::new();
        for v in atoms.iter().flat_map(|a| a.vars()) {
            if !body_vars.contains(&v) {
                body_vars.push(v);
            }
        }
        if body_vars.is_empty() && arity > 0 {
            atoms.push(FAtom::new("P", vec![Term::var("x0")]));
            body_vars.push(Var::new("x0"));
        }
        let mut head: Vec<Var> = (0..arity)
            .map(|_| body_vars[rng.gen_range(0..body_vars.len())])
            .collect();
        if arity >= 2 && rng.gen_bool(0.7) {
            // The first and the last body variable, often in two parts.
            head[0] = body_vars[0];
            head[arity - 1] = body_vars[body_vars.len() - 1];
            if arity > PACKED_VALUES {
                // Rows that share the packed key and differ past it.
                head[1..arity - 1].fill(body_vars[0]);
            }
        }
        if rng.gen_bool(0.4) {
            atoms.push(match rng.gen_range(0..3u32) {
                0 => random_atom(rng, &["y0", "y1"], 3),
                1 => random_atom(rng, &["y0"], 1),
                _ => FAtom::new("X", vec![Term::var("y0"), Term::var("y1")]),
            });
        }
        let mut inequalities = Vec::new();
        if rng.gen_bool(0.5) {
            inequalities.push(match head.as_slice() {
                [] => (random_const(rng), random_const(rng)),
                [h] => (Term::Var(*h), random_const(rng)),
                hs => (Term::Var(hs[0]), Term::Var(hs[hs.len() - 1])),
            });
        }
        let all_vars: Vec<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
        if rng.gen_bool(0.3) && !body_vars.is_empty() {
            // Most often from a body variable to the last atom's, which
            // is the head-free component's when there is one.
            let last: Vec<Var> = atoms[atoms.len() - 1].vars().collect();
            let from = if last.is_empty() || rng.gen_bool(0.3) {
                &all_vars
            } else {
                &last
            };
            let s = Term::Var(body_vars[rng.gen_range(0..body_vars.len())]);
            let t = Term::Var(from[rng.gen_range(0..from.len())]);
            inequalities.push((s, t));
        }
        ConjunctiveQuery::new(head, atoms, inequalities).expect("a safe disjunct")
    }

    fn random_query(rng: &mut dex_testkit::rng::TestRng) -> Query {
        let arity = if rng.gen_bool(0.2) {
            PACKED_VALUES + 1
        } else {
            rng.gen_range(0..3usize)
        };
        let disjuncts: Vec<ConjunctiveQuery> = (0..rng.gen_range(1..4usize))
            .map(|_| random_disjunct(rng, arity))
            .collect();
        match disjuncts.as_slice() {
            [d] if rng.gen_bool(0.5) => Query::Cq(d.clone()),
            _ => Query::Ucq(UnionQuery::new(disjuncts).expect("one arity")),
        }
    }

    fn disjuncts_of(q: &Query) -> &[ConjunctiveQuery] {
        match q {
            Query::Cq(d) => std::slice::from_ref(d),
            Query::Ucq(u) => &u.disjuncts,
            Query::Fo(_) => unreachable!("the generator builds no FO query"),
        }
    }

    /// Whether the variables of `(s, t)` lie in components of `atoms`
    /// that no shared variable connects.
    fn only_link(atoms: &[FAtom], (s, t): (Term, Term)) -> bool {
        let (Some(s), Some(t)) = (s.as_var(), t.as_var()) else {
            return false;
        };
        let mut reach = BTreeSet::from([s]);
        loop {
            let before = reach.len();
            for a in atoms {
                if a.vars().any(|v| reach.contains(&v)) {
                    reach.extend(a.vars());
                }
            }
            if reach.len() == before {
                return !reach.contains(&t);
            }
        }
    }

    /// One random instance and [`QUERIES_PER_CASE`] random queries on it.
    fn differential_case(seed: u64, cov: &mut Coverage) -> Result<(), String> {
        let mut rng = dex_testkit::rng::TestRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        for _ in 0..QUERIES_PER_CASE {
            check_query(&random_query(&mut rng), &inst, cov)?;
        }
        Ok(())
    }

    const QUERIES_PER_CASE: usize = 4;

    fn check_query(q: &Query, inst: &Instance, cov: &mut Coverage) -> Result<(), String> {
        let ctx = format!("query {q} on {inst:?}");
        let want = reference::eval_query(q, inst);
        let got = eval_query(q, inst);
        if got != want {
            return Err(format!("eval_query: {got:?} != reference {want:?}; {ctx}"));
        }
        let mut per_disjunct = Vec::new();
        for d in disjuncts_of(q) {
            let (got, want) = (eval_cq(d, inst), reference::eval_cq(d, inst));
            if got != want {
                return Err(format!(
                    "eval_cq({d}): {got:?} != reference {want:?}; {ctx}"
                ));
            }
            let head_free_ok = d
                .atoms
                .iter()
                .any(|a| a.vars().all(|v| v.name().starts_with('y')));
            cov.boolean += usize::from(d.arity() == 0 && !got.is_empty());
            cov.packed_prefix_shared +=
                usize::from(got.iter().zip(got.iter().skip(1)).any(|(a, b)| {
                    a.len() > PACKED_VALUES && a[..PACKED_VALUES] == b[..PACKED_VALUES]
                }));
            cov.repeated_head += usize::from(
                !got.is_empty()
                    && (1..d.head_vars.len())
                        .any(|i| d.head_vars[i..].contains(&d.head_vars[i - 1])),
            );
            cov.constants += usize::from(
                !got.is_empty() && d.atoms.iter().any(|a| a.constants().next().is_some()),
            );
            cov.head_safe_inequality += usize::from(
                !got.is_empty() && !d.inequalities.is_empty() && d.inequalities_are_head_safe(),
            );
            let links = |e: &(Term, Term)| only_link(&d.atoms, *e);
            cov.head_safe_only_link += usize::from(
                !got.is_empty()
                    && d.inequalities_are_head_safe()
                    && d.inequalities.iter().any(links),
            );
            cov.existential_only_link += usize::from(
                !got.is_empty()
                    && !d.inequalities_are_head_safe()
                    && d.inequalities.iter().any(links),
            );
            cov.head_free += usize::from(!got.is_empty() && head_free_ok);
            cov.constant_only_atom +=
                usize::from(!got.is_empty() && d.atoms.iter().any(|a| a.vars().next().is_none()));
            cov.killed_by_empty += usize::from(
                d.atoms
                    .iter()
                    .any(|a| a.rel == dex_core::Symbol::intern("X")),
            );
            per_disjunct.push(got);
        }
        cov.shared_answers += usize::from((1..per_disjunct.len()).any(|i| {
            per_disjunct[..i]
                .iter()
                .any(|a| !a.is_disjoint(&per_disjunct[i]))
        }));
        if q.is_head_safe_ucq() {
            let want = reference::null_free(q, inst);
            let got = crate::modal::ucq_certain_answers(q, inst);
            if got != want {
                return Err(format!(
                    "ucq_certain_answers: {got:?} != reference {want:?}; {ctx}"
                ));
            }
        }
        Ok(())
    }

    /// The one-pass evaluator gives the answers of the per-disjunct
    /// sets it replaced — `eval_cq` per disjunct, `eval_query`, and
    /// `ucq_certain_answers` on head-safe queries — over 64 seeds of
    /// random instances with nulls and random UCQs. Replay one case with
    /// `DEX_PROP_SEED`.
    #[test]
    fn one_pass_evaluator_matches_the_per_disjunct_sets() {
        let cov = std::cell::RefCell::new(Coverage::default());
        let seeds = dex_testkit::prop::Gen::new(|rng| rng.next_u64());
        dex_testkit::prop::Runner::new(64).run("one-pass UCQ evaluation", &seeds, |&seed| {
            differential_case(seed, &mut cov.borrow_mut())
        });
        if std::env::var_os("DEX_PROP_SEED").is_some() {
            return;
        }
        let Coverage {
            boolean,
            repeated_head,
            constants,
            head_safe_inequality,
            head_safe_only_link,
            existential_only_link,
            head_free,
            constant_only_atom,
            killed_by_empty,
            shared_answers,
            packed_prefix_shared,
        } = cov.into_inner();
        for (what, hits) in [
            ("boolean disjunct", boolean),
            ("repeated head variable", repeated_head),
            ("constant in an atom", constants),
            ("head-safe inequality", head_safe_inequality),
            (
                "head-safe inequality as the only link of two components",
                head_safe_only_link,
            ),
            (
                "inequality over existentials as the only link",
                existential_only_link,
            ),
            ("head-free component", head_free),
            ("constant-only atom", constant_only_atom),
            (
                "head-free component over an empty relation",
                killed_by_empty,
            ),
            ("disjuncts sharing answers", shared_answers),
            ("answers equal on the packed sort key", packed_prefix_shared),
        ] {
            assert!(hits > 0, "no seed with answers covers: {what}");
        }
    }
}
