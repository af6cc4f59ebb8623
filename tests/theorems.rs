//! The paper's theorems checked on *generated* (seeded random) inputs —
//! beyond the worked examples.

use cwa_dex::core::{Governor, Pool};
use cwa_dex::datagen::{layered_setting, random_source, LayeredConfig, SourceConfig};
use cwa_dex::prelude::*;

fn small_sources(seed: u64) -> SourceConfig {
    SourceConfig {
        num_constants: 4,
        tuples_per_relation: 3,
        seed,
    }
}

/// Corollary 5.2 + Theorem 5.1 on random weakly acyclic settings: when
/// the chase succeeds, the core is a CWA-solution (universal + justified).
#[test]
fn core_is_a_cwa_solution_on_random_settings() {
    let budget = ChaseBudget::default();
    let limits = SearchLimits::default();
    for seed in 0..6u64 {
        let d = layered_setting(&LayeredConfig {
            seed,
            with_egds: seed % 2 == 0,
            layers: 2,
            ..LayeredConfig::default()
        });
        let s = random_source(&d.source, &small_sources(seed));
        match core_solution(&d, &s, &budget) {
            Ok(core) => {
                let verdict =
                    is_cwa_solution(&d, &s, &core, &budget, &limits, &Governor::unlimited())
                        .unwrap();
                assert_eq!(
                    verdict,
                    Some(true),
                    "seed {seed}: core must be a CWA-solution"
                );
                assert!(dex_core::is_core(&core));
            }
            Err(ChaseError::EgdConflict { .. }) => {
                // Corollary 5.2: no CWA-solution either.
                assert!(!cwa_solution_exists(&d, &s, &budget).unwrap());
            }
            Err(e) => panic!("weakly acyclic chase must terminate: {e}"),
        }
    }
}

/// The chase result is hom-equivalent to its core, and both are
/// solutions (soundness of chase + core on random weakly acyclic inputs).
#[test]
fn chase_and_core_are_hom_equivalent_solutions() {
    for seed in 10..16u64 {
        let d = layered_setting(&LayeredConfig {
            seed,
            ..LayeredConfig::default()
        });
        let s = random_source(&d.source, &small_sources(seed));
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        assert!(d.is_solution(&s, &out.target), "seed {seed}");
        let core = dex_core::core(&out.target);
        assert!(hom_equivalent(&core, &out.target));
        assert!(d.is_solution(&s, &core), "cores of solutions are solutions");
    }
}

/// Corollary 7.2's inclusion chain on random settings and queries.
#[test]
fn corollary_7_2_chain_on_random_settings() {
    for seed in 0..4u64 {
        let d = layered_setting(&LayeredConfig {
            seed,
            layers: 2,
            rels_per_layer: 1,
            up_tgds_per_layer: 1,
            full_tgds_per_layer: 1,
            ..LayeredConfig::default()
        });
        let s = random_source(
            &d.source,
            &SourceConfig {
                num_constants: 3,
                tuples_per_relation: 2,
                seed,
            },
        );
        let Ok(engine) = AnswerEngine::new(&d, &s, AnswerConfig::default()) else {
            continue; // egd conflict: no solutions for this seed
        };
        // A Boolean query with an inequality over the layer-1 relation.
        let q = parse_query("Q() :- T1_0(x,y), x != y").unwrap();
        let config_ok = |r: Result<Answers, _>| r.ok();
        let certain = config_ok(engine.answers(&q, Semantics::Certain));
        let pot = config_ok(engine.answers(&q, Semantics::PotentialCertain));
        let pers = config_ok(engine.answers(&q, Semantics::PersistentMaybe));
        let maybe = config_ok(engine.answers(&q, Semantics::Maybe));
        if let (Some(c), Some(p)) = (&certain, &pot) {
            assert!(c.is_subset(p), "seed {seed}");
        }
        if let (Some(p), Some(m)) = (&pot, &pers) {
            assert!(p.is_subset(m), "seed {seed}");
        }
        if let (Some(m1), Some(m2)) = (&pers, &maybe) {
            assert!(m1.is_subset(m2), "seed {seed}");
        }
    }
}

/// Theorem 4.8 coherence: everything the enumerator outputs passes the
/// independent CWA-solution check, on a setting with egds.
#[test]
fn enumerated_solutions_pass_independent_checks() {
    let d = parse_setting(
        "source { P/1, Q/2 }
         target { F/2, G/2 }
         st {
           d1: P(x) -> exists z . F(x,z);
           d2: Q(x,y) -> F(x,y);
         }
         t {
           d3: F(x,y) -> exists w . G(y,w);
           key: F(x,y) & F(x,z) -> y = z;
         }",
    )
    .unwrap();
    let s = parse_instance("P(a). Q(b,c).").unwrap();
    let (sols, stats) = enumerate_cwa_solutions(
        &d,
        &s,
        &EnumLimits::default(),
        &Governor::unlimited(),
        &Pool::seq(),
    );
    assert!(!stats.truncated);
    assert!(!sols.is_empty());
    let budget = ChaseBudget::default();
    let limits = SearchLimits::default();
    for t in &sols {
        assert_eq!(
            is_cwa_solution(&d, &s, t, &budget, &limits, &Governor::unlimited()).unwrap(),
            Some(true),
            "enumerated instance {t} must be a CWA-solution"
        );
    }
    // And the core is among them.
    let core = core_solution(&d, &s, &budget).unwrap();
    assert!(sols.iter().any(|t| isomorphic(t, &core)));
}

/// Weak/rich acyclicity classification is consistent with chase
/// termination on the generated families.
#[test]
fn acyclicity_classification_vs_termination() {
    for seed in 0..4u64 {
        let d = layered_setting(&LayeredConfig {
            seed,
            rich_breaking: false,
            ..LayeredConfig::default()
        });
        assert!(is_weakly_acyclic(&d));
        assert!(is_richly_acyclic(&d));
        let s = random_source(&d.source, &small_sources(seed));
        assert!(chase(&d, &s, &ChaseBudget::default()).is_ok());
    }
    // Rich-breaking gadget: still weakly acyclic, still chase-terminating
    // (the standard chase is restricted), but not richly acyclic.
    let d = layered_setting(&LayeredConfig {
        rich_breaking: true,
        full_tgds_per_layer: 0,
        ..LayeredConfig::default()
    });
    assert!(is_weakly_acyclic(&d) && !is_richly_acyclic(&d));
    let s = random_source(&d.source, &small_sources(99));
    assert!(chase(&d, &s, &ChaseBudget::default()).is_ok());
}

/// Proposition 5.4: in the egds-only class every enumerated CWA-solution
/// is a homomorphic image of CanSol.
#[test]
fn proposition_5_4_cansol_is_maximal() {
    let d = parse_setting(
        "source { P/1, Q/2 }
         target { F/2 }
         st {
           d1: P(x) -> exists z . F(x,z);
           d2: Q(x,y) -> F(x,y);
         }
         t { key: F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let s = parse_instance("P(a). P(b). Q(b,c).").unwrap();
    let can = cansol(&d, &s, &ChaseBudget::default())
        .unwrap()
        .expect("egds-only class");
    let (sols, stats) = enumerate_cwa_solutions(
        &d,
        &s,
        &EnumLimits::default(),
        &Governor::unlimited(),
        &Pool::seq(),
    );
    assert!(!stats.truncated);
    assert!(!sols.is_empty());
    for t in &sols {
        assert!(
            cwa_dex::cwa::is_homomorphic_image_of(t, &can),
            "{t} must be an image of CanSol = {can}"
        );
    }
}
