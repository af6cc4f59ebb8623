//! Copying data exchange settings and the Section 3 anomaly.
//!
//! A copying setting maps every source relation `R` to a target copy `R'`
//! via `R(x̄) → R'(x̄)`. Under the classical certain-answers semantics the
//! FO query `Q(x) = P'(x) ∨ ∃y∃z (P'(y) ∧ E'(y,z) ∧ ¬P'(z))` on two
//! disjoint 9-cycles with a single `P`-node answers only the cycle
//! containing the `P`-node — counterintuitively, since the target is just
//! a copy of the source. Under the CWA semantics all nodes are answers,
//! as one would expect.

use dex_core::{Atom, Instance, Schema, Symbol, Value};
use dex_logic::{parse_query, Body, FAtom, Query, Setting, Term, Tgd};
use dex_query::{eval_query, Answers};

/// The target name of a copied relation (`E` becomes `Ep`).
pub fn copy_name(rel: Symbol) -> Symbol {
    Symbol::intern(&format!("{}p", rel.as_str()))
}

/// Builds the copying setting for `source`: target `{R' | R ∈ σ}` and
/// s-t tgds `R(x̄) → R'(x̄)`, no target dependencies.
pub fn copying_setting(source: &Schema) -> Setting {
    let mut target = Schema::new();
    let mut st = Vec::new();
    for (rel, arity) in source.relations() {
        let prime = copy_name(rel);
        target.add(prime, arity);
        let vars: Vec<Term> = (0..arity).map(|i| Term::var(&format!("x{i}"))).collect();
        st.push(
            Tgd::new(
                format!("copy_{rel}"),
                Body::Conj(vec![FAtom {
                    rel,
                    args: vars.clone(),
                }]),
                vec![],
                vec![FAtom {
                    rel: prime,
                    args: vars,
                }],
            )
            .expect("copy tgd is well-formed"),
        );
    }
    Setting::new(source.clone(), target, st, vec![], vec![])
        .expect("copying settings are always well-formed")
}

/// The copy of a source instance over the primed schema.
pub fn copy_instance(s: &Instance) -> Instance {
    Instance::from_atoms(
        s.atoms()
            .map(|a| Atom::new(copy_name(a.rel), a.args.clone())),
    )
}

/// The Section 3 source: two disjoint directed cycles `a₀→…→a_{n-1}→a₀`
/// and `b₀→…→b_{n-1}→b₀`, with `P(a_{⌊n/2⌋})`.
pub fn two_cycles_with_p(n: usize) -> Instance {
    assert!(n >= 2);
    let mut inst = Instance::new();
    for i in 0..n {
        let j = (i + 1) % n;
        inst.insert(Atom::of(
            "E",
            vec![
                Value::konst(&format!("a{i}")),
                Value::konst(&format!("a{j}")),
            ],
        ));
        inst.insert(Atom::of(
            "E",
            vec![
                Value::konst(&format!("b{i}")),
                Value::konst(&format!("b{j}")),
            ],
        ));
    }
    inst.insert(Atom::of("P", vec![Value::konst(&format!("a{}", n / 2))]));
    inst
}

/// The Section 3 query over the copied schema.
pub fn section_3_query() -> Query {
    parse_query("Q(x) := Pp(x) | exists y,z . (Pp(y) & Ep(y,z) & !Pp(z))").unwrap()
}

/// What Section 3 demonstrates, computed concretely.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// `Q` evaluated on the plain copy `S'` — the intuitively right
    /// answer (every node).
    pub on_copy: Answers,
    /// `Q` on the paper's counterexample solution `S''` (the copy plus
    /// `P'(a_i)` for every `i`).
    pub on_counterexample: Answers,
    /// The classical certain answers are contained in
    /// `Q(S') ∩ Q(S'')` — and by the paper's cycle argument equal it:
    /// only the `a`-nodes.
    pub classical_certain: Answers,
    /// The CWA certain answers (all four semantics coincide on copying
    /// settings): every node.
    pub cwa_certain: Answers,
}

/// Reproduces the Section 3 anomaly for cycles of length `n` (the paper
/// uses `n = 9`).
pub fn section_3_anomaly(n: usize) -> AnomalyReport {
    let source_schema = Schema::of(&[("E", 2), ("P", 1)]);
    let setting = copying_setting(&source_schema);
    let s = two_cycles_with_p(n);
    let q = section_3_query();

    let copy = copy_instance(&s);
    let on_copy = eval_query(&q, &copy);

    // The counterexample solution: add P'(a_i) for all i.
    let mut counterexample = copy.clone();
    for i in 0..n {
        counterexample.insert(Atom::of("Pp", vec![Value::konst(&format!("a{i}"))]));
    }
    debug_assert!(setting.is_solution(&s, &counterexample));
    let on_counterexample = eval_query(&q, &counterexample);

    let classical_certain: Answers = on_copy.intersection(&on_counterexample).cloned().collect();

    let cwa_certain = dex_query::answers(&setting, &s, &q, dex_query::Semantics::Certain)
        .expect("copying settings always have solutions");

    AnomalyReport {
        on_copy,
        on_counterexample,
        classical_certain,
        cwa_certain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copying_setting_shape() {
        let sigma = Schema::of(&[("E", 2), ("P", 1)]);
        let d = copying_setting(&sigma);
        assert_eq!(d.st_tgds.len(), 2);
        assert!(d.has_no_target_deps());
        assert!(dex_logic::is_richly_acyclic(&d));
    }

    #[test]
    fn copy_is_the_unique_cwa_solution() {
        let sigma = Schema::of(&[("E", 2), ("P", 1)]);
        let d = copying_setting(&sigma);
        let s = two_cycles_with_p(3);
        let copy = copy_instance(&s);
        let core = dex_cwa::core_solution(&d, &s, &dex_chase::ChaseBudget::default()).unwrap();
        assert_eq!(core, copy);
        // Full s-t tgds: the only CWA-presolution is the copy itself.
        let limits = dex_cwa::EnumLimits::default();
        let (gov, seq) = (dex_core::Governor::unlimited(), dex_core::Pool::seq());
        let (sols, _) = dex_cwa::enumerate_cwa_solutions(&d, &s, &limits, &gov, &seq);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0], copy);
    }

    /// The headline numbers of Section 3 for n = 9: classical certain
    /// answers = the 9 a-nodes; CWA answers = all 18 nodes.
    #[test]
    fn section_3_anomaly_reproduces_paper_numbers() {
        let r = section_3_anomaly(9);
        assert_eq!(r.on_copy.len(), 18);
        assert_eq!(r.classical_certain.len(), 9);
        assert!(r.classical_certain.iter().all(|t| t[0]
            .as_const()
            .unwrap()
            .as_str()
            .starts_with('a')));
        assert_eq!(r.cwa_certain.len(), 18);
        assert_eq!(r.cwa_certain, r.on_copy);
    }

    /// The anomaly is not specific to length 9.
    #[test]
    fn anomaly_holds_for_other_cycle_lengths() {
        for n in [3, 5, 7] {
            let r = section_3_anomaly(n);
            assert_eq!(r.on_copy.len(), 2 * n);
            assert_eq!(r.classical_certain.len(), n);
            assert_eq!(r.cwa_certain.len(), 2 * n);
        }
    }

    #[test]
    fn counterexample_is_a_solution() {
        let sigma = Schema::of(&[("E", 2), ("P", 1)]);
        let d = copying_setting(&sigma);
        let s = two_cycles_with_p(5);
        let mut t = copy_instance(&s);
        for i in 0..5 {
            t.insert(Atom::of("Pp", vec![Value::konst(&format!("a{i}"))]));
        }
        assert!(d.is_solution(&s, &t));
        // But not universal: it has no homomorphism into the plain copy
        // (constants are fixed, and Pp(a0) is absent there).
        let budget = dex_chase::ChaseBudget::default();
        let gov = dex_core::Governor::unlimited();
        assert!(!dex_cwa::is_universal_solution(&d, &s, &t, &budget, &gov).unwrap());
    }
}
