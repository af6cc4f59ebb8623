//! End-to-end reproductions of the paper's worked examples, through the
//! public facade (exercising parser → chase → cores → CWA machinery →
//! query answering across all crates).

use cwa_dex::core::Governor;
use cwa_dex::cwa::maximal_under_image;
use cwa_dex::prelude::*;

fn example_2_1() -> (Setting, Instance) {
    let setting = parse_setting(
        "source { M/2, N/2 }
         target { E/2, F/2, G/2 }
         st {
           d1: M(x1,x2) -> E(x1,x2);
           d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
         }
         t {
           d3: F(y,x) -> exists z . G(x,z);
           d4: F(x,y) & F(x,z) -> y = z;
         }",
    )
    .unwrap();
    let source = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    (setting, source)
}

/// Example 2.1: T1, T2, T3 are solutions; T2, T3 are universal; T1 is not.
#[test]
fn example_2_1_solution_classification() {
    let (d, s) = example_2_1();
    let t1 = parse_instance("E(a,b). E(a,_1). E(c,_2). F(a,d). G(d,_3).").unwrap();
    let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
    let t3 = parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap();
    let budget = ChaseBudget::default();
    let gov = Governor::unlimited();
    for t in [&t1, &t2, &t3] {
        assert!(d.is_solution(&s, t));
    }
    assert!(!is_universal_solution(&d, &s, &t1, &budget, &gov).unwrap());
    assert!(is_universal_solution(&d, &s, &t2, &budget, &gov).unwrap());
    assert!(is_universal_solution(&d, &s, &t3, &budget, &gov).unwrap());
}

/// Example 4.9's full classification grid, via Theorem 4.8.
#[test]
fn example_4_9_classification_grid() {
    let (d, s) = example_2_1();
    let budget = ChaseBudget::default();
    let limits = SearchLimits::default();
    let gov = Governor::unlimited();
    // (instance, is_presolution, is_cwa_solution)
    let cases = [
        // T2: CWA-solution.
        ("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).", true, true),
        // T': presolution, not universal.
        ("E(a,b). F(a,_1). G(_1,b).", true, false),
        // T'': universal, not justified.
        ("E(a,b). E(_3,b). F(a,_1). G(_1,_2).", false, false),
        // Core T3: CWA-solution.
        ("E(a,b). F(a,_1). G(_1,_2).", true, true),
    ];
    for (text, pre, cwa) in cases {
        let t = parse_instance(text).unwrap();
        assert_eq!(
            is_cwa_presolution(&d, &s, &t, &limits, &gov),
            Ok(Some(pre)),
            "presolution status of {text}"
        );
        assert_eq!(
            is_cwa_solution(&d, &s, &t, &budget, &limits, &gov).unwrap(),
            Some(cwa),
            "CWA status of {text}"
        );
    }
}

/// Section 3's point about Libkin's notion: the CWA-solutions computed
/// without the target dependencies are not solutions under the full D.
#[test]
fn section_3_libkin_solutions_fail_target_deps() {
    let (d, s) = example_2_1();
    let reduced = parse_setting(
        "source { M/2, N/2 }
         target { E/2, F/2, G/2 }
         st {
           d1: M(x1,x2) -> E(x1,x2);
           d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
         }",
    )
    .unwrap();
    let (sols, stats) = enumerate_cwa_solutions(&reduced, &s, &EnumLimits::default());
    assert!(!stats.truncated);
    assert!(!sols.is_empty());
    for t in &sols {
        assert!(reduced.is_solution(&s, t));
        assert!(
            !d.is_solution(&s, t),
            "Libkin CWA-solution {t} must violate Σt (no G-atoms)"
        );
    }
}

/// Example 5.3 at n = 1 and n = 2: the count of pairwise-incomparable
/// CWA-solutions is exactly 2ⁿ for this setting.
#[test]
fn example_5_3_incomparable_growth() {
    let setting = parse_setting(
        "source { P/1 }
         target { E/3, F/3 }
         st { d1: P(x) -> exists z1,z2,z3,z4 . E(x,z1,z3) & E(x,z2,z4); }
         t { d2: E(x,x1,y) & E(x,x2,y) -> F(x,x1,x2); }",
    )
    .unwrap();
    let limits = EnumLimits {
        nulls_only: true,
        ..EnumLimits::default()
    };
    let mut counts = Vec::new();
    for n in 1..=2usize {
        let atoms: String = (1..=n).map(|i| format!("P({i}). ")).collect();
        let source = parse_instance(&atoms).unwrap();
        let (sols, stats) = enumerate_cwa_solutions(&setting, &source, &limits);
        assert!(!stats.truncated);
        counts.push(maximal_under_image(&sols).len());
    }
    assert_eq!(counts, vec![2, 4], "2^n incomparable CWA-solutions");
}

/// The core of Example 2.1 equals T3 up to renaming, is a CWA-solution,
/// and every enumerated CWA-solution contains it homomorphically.
#[test]
fn theorem_5_1_on_example_2_1() {
    // One N-atom keeps the full-menu enumeration small; the structure
    // (fan-out + egd merge + d3 chain) is the same as the 3-atom source.
    let d = example_2_1().0;
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    let core = core_solution(&d, &s, &ChaseBudget::default()).unwrap();
    assert!(isomorphic(
        &core,
        &parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap()
    ));
    let limits = EnumLimits::default();
    let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits);
    assert!(!stats.truncated);
    assert!(sols.iter().any(|t| isomorphic(t, &core)));
    for t in &sols {
        // The core maps into every CWA-solution (universality), and every
        // CWA-solution maps onto... at least into the canonical one; the
        // minimality statement: core embeds into t up to renaming — here
        // checked as hom-equivalence plus the core being smallest.
        assert!(dex_core::has_homomorphism(&core, t));
        assert!(t.len() >= core.len());
    }
}

/// Theorem 7.6 / Lemma 7.7 on Example 2.1: UCQ certain answers via the
/// core agree with the brute-force ⋂ over all CWA-solutions and Rep
/// members.
#[test]
fn lemma_7_7_ucq_certain_answers_agree_with_brute_force() {
    let d = example_2_1().0;
    let s = parse_instance("M(a,b). N(a,b).").unwrap();
    let queries = [
        "Q(x,y) :- E(x,y)",
        "Q(x) :- F(x,y), G(y,z)",
        "Q() :- E(x,y), F(x,z)",
        "Q(x) :- E(x,y); Q(x) :- F(x,y)",
    ];
    let engine = AnswerEngine::new(&d, &s, AnswerConfig::default()).unwrap();
    let (sols, stats) = enumerate_cwa_solutions(&d, &s, &EnumLimits::default());
    assert!(!stats.truncated);
    for qt in queries {
        let q = parse_query(qt).unwrap();
        let fast = engine.answers(&q, Semantics::Certain).unwrap();
        // Brute force: ⋂_T □Q(T) via the valuation oracle.
        let mut acc: Option<Answers> = None;
        for t in &sols {
            let pool = dex_query::answer_pool(t, &q, s.constants());
            let gov = dex_query::Governor::unlimited();
            let exec = cwa_dex::core::Pool::seq();
            let a = dex_query::certain_answers(&d, &q, t, &pool, &Default::default(), &gov, &exec)
                .unwrap()
                .expect("Rep nonempty")
                .proven;
            acc = Some(match acc {
                None => a,
                Some(prev) => prev.intersection(&a).cloned().collect(),
            });
        }
        assert_eq!(fast, acc.unwrap(), "query {qt}");
    }
}
