//! Property-based tests of the core invariants (cores, homomorphisms,
//! isomorphism, valuations, chase soundness, parser round-trips), driven
//! by the in-tree `dex-testkit` harness.
//!
//! A failing case prints its seed; replay it with
//! `DEX_PROP_SEED=<seed> cargo test -q --test proptest_invariants`.

use cwa_dex::prelude::*;
use dex_core::{find_homomorphism, is_core, iso_signature, NullId, Valuation};
use dex_testkit::prop::{Gen, PropResult, Runner};

const CASES: usize = 64;

fn check(ok: bool, msg: &str) -> PropResult {
    if ok {
        Ok(())
    } else {
        Err(msg.to_owned())
    }
}

/// A random value from a small pool of constants and nulls.
fn gen_value() -> Gen<Value> {
    Gen::one_of(vec![
        Gen::range_u32(0..4).map(|i| Value::konst(&format!("c{i}"))),
        Gen::range_u32(0..4).map(Value::null),
    ])
}

/// A random atom over relations E/2, F/1, G/2.
fn gen_atom() -> Gen<Atom> {
    let v = gen_value();
    Gen::one_of(vec![
        Gen::pair(v.clone(), v.clone()).map(|(a, b)| Atom::of("E", vec![a, b])),
        v.clone().map(|a| Atom::of("F", vec![a])),
        Gen::pair(v.clone(), v).map(|(a, b)| Atom::of("G", vec![a, b])),
    ])
}

/// The core is a hom-equivalent subinstance that is itself a core.
#[test]
fn core_invariants() {
    Runner::new(CASES).run_vec("core_invariants", &gen_atom(), 0..10, |atoms| {
        let inst = Instance::from_atoms(atoms.to_vec());
        let c = dex_core::core(&inst);
        check(c.is_subinstance_of(&inst), "core is not a subinstance")?;
        check(hom_equivalent(&c, &inst), "core is not hom-equivalent")?;
        check(is_core(&c), "core of core is smaller")?;
        check(c.len() <= inst.len(), "core grew")
    });
}

/// Renaming nulls preserves isomorphism and the iso signature.
#[test]
fn renaming_preserves_isomorphism() {
    Runner::new(CASES).run_vec(
        "renaming_preserves_isomorphism",
        &gen_atom(),
        0..10,
        |atoms| {
            let inst = Instance::from_atoms(atoms.to_vec());
            let renamed = inst.map_values(|v| match v {
                Value::Null(NullId(k)) => Value::null(k + 100),
                other => other,
            });
            check(isomorphic(&inst, &renamed), "renaming broke isomorphism")?;
            check(
                iso_signature(&inst) == iso_signature(&renamed),
                "renaming changed the iso signature",
            )
        },
    );
}

/// A total valuation grounds the instance, and is itself a homomorphism
/// into the grounded instance.
#[test]
fn valuations_are_homomorphisms() {
    Runner::new(CASES).run_vec(
        "valuations_are_homomorphisms",
        &gen_atom(),
        0..10,
        |atoms| {
            let inst = Instance::from_atoms(atoms.to_vec());
            let v = Valuation::from_bindings(
                inst.nulls()
                    .into_iter()
                    .map(|n| (n, Symbol::intern(&format!("g{}", n.0)))),
            );
            let ground = v.apply(&inst);
            check(ground.is_ground(), "valuation left nulls behind")?;
            check(
                find_homomorphism(&inst, &ground).is_some(),
                "valuation is not a homomorphism",
            )
        },
    );
}

/// hom composition: if h: A→B via map_values folding nulls to one
/// constant, the image has a hom from A.
#[test]
fn folded_image_admits_homomorphism() {
    Runner::new(CASES).run_vec(
        "folded_image_admits_homomorphism",
        &gen_atom(),
        0..10,
        |atoms| {
            let inst = Instance::from_atoms(atoms.to_vec());
            let folded = inst.map_values(|v| if v.is_null() { Value::konst("fold") } else { v });
            check(
                find_homomorphism(&inst, &folded).is_some(),
                "no homomorphism into folded image",
            )
        },
    );
}

/// Instance text round-trip: print atoms, reparse, same instance.
#[test]
fn instance_parse_round_trip() {
    Runner::new(CASES).run_vec("instance_parse_round_trip", &gen_atom(), 0..10, |atoms| {
        let inst = Instance::from_atoms(atoms.to_vec());
        let text: String = inst
            .sorted_atoms()
            .iter()
            .map(|a| format!("{a}. "))
            .collect();
        let reparsed = parse_instance(&text).map_err(|e| format!("reparse failed: {e}"))?;
        check(reparsed == inst, "round trip changed the instance")
    });
}

/// Union/difference algebra on a pair of instances. Atoms are tagged
/// left/right so the whole input stays one shrinkable vector.
#[test]
fn union_difference_algebra() {
    let tagged = Gen::pair(Gen::range_u32(0..2).map(|t| t == 0), gen_atom());
    Runner::new(CASES).run_vec("union_difference_algebra", &tagged, 0..20, |pairs| {
        let a = Instance::from_atoms(
            pairs
                .iter()
                .filter(|(l, _)| *l)
                .map(|(_, at)| at.clone())
                .collect::<Vec<_>>(),
        );
        let b = Instance::from_atoms(
            pairs
                .iter()
                .filter(|(l, _)| !*l)
                .map(|(_, at)| at.clone())
                .collect::<Vec<_>>(),
        );
        let u = a.union(&b);
        check(a.is_subinstance_of(&u), "a not below union")?;
        check(b.is_subinstance_of(&u), "b not below union")?;
        let d = u.difference(&a);
        check(d.is_subinstance_of(&b), "difference escapes b")?;
        check(u.len() == a.len() + d.len(), "union size mismatch")
    });
}

/// Chase soundness on random weakly acyclic settings: the result is a
/// solution, and so is its core (Thm 5.1).
#[test]
fn chase_soundness_on_random_settings() {
    Runner::new(12).run(
        "chase_soundness_on_random_settings",
        &Gen::new(|rng| rng.gen_range(0..500u64)),
        |&seed| {
            let d = cwa_dex::datagen::layered_setting(&cwa_dex::datagen::LayeredConfig {
                seed,
                layers: 2,
                with_egds: seed % 2 == 0,
                ..Default::default()
            });
            let s = cwa_dex::datagen::random_source(
                &d.source,
                &cwa_dex::datagen::SourceConfig {
                    num_constants: 4,
                    tuples_per_relation: 3,
                    seed,
                },
            );
            match chase(&d, &s, &ChaseBudget::default()) {
                Ok(out) => {
                    check(
                        d.is_solution(&s, &out.target),
                        "chase result is not a solution",
                    )?;
                    let core = dex_core::core(&out.target);
                    check(
                        d.is_solution(&s, &core),
                        "core of chase result is not a solution",
                    )
                }
                Err(ChaseError::EgdConflict { .. }) => Ok(()),
                Err(e) => Err(format!("chase must terminate: {e}")),
            }
        },
    );
}

/// The unification-based maybe-answer decision agrees with the
/// valuation-enumeration oracle on random instances (settings without
/// target dependencies, where Rep is unconstrained).
#[test]
fn possible_fast_path_agrees_with_oracle() {
    let atom = Gen::new(|rng| {
        let v = |rng: &mut dex_testkit::TestRng| {
            let k = rng.gen_range(0..6u32);
            if k.is_multiple_of(2) {
                Value::konst(&format!("c{}", k % 3))
            } else {
                Value::null(k % 3)
            }
        };
        let (a, b) = (v(rng), v(rng));
        Atom::of("E", vec![a, b])
    });
    Runner::new(12).run_vec(
        "possible_fast_path_agrees_with_oracle",
        &atom,
        1..6,
        |atoms| {
            let t = Instance::from_atoms(atoms.to_vec());
            let setting =
                parse_setting("source { P/1 } target { E/2 } st { P(x) -> exists z . E(x,z); }")
                    .unwrap();
            let q = parse_query("Q(x,y) :- E(x,y), E(y,z)").unwrap();
            let Query::Cq(cq_ast) = &q else {
                unreachable!()
            };
            let pool = dex_query::answer_pool(&t, &q, []);
            let gov = dex_query::Governor::unlimited();
            let exec = cwa_dex::core::Pool::seq();
            let oracle =
                dex_query::maybe_answers(&setting, &q, &t, &pool, &Default::default(), &gov, &exec)
                    .map_err(|e| format!("oracle failed: {e}"))?
                    .proven;
            // Check both directions over the pool tuples.
            for a in pool.iter() {
                for b in pool.iter() {
                    let tuple = vec![Value::Const(*a), Value::Const(*b)];
                    let fast = dex_query::cq_is_maybe_answer(cq_ast, &t, &tuple);
                    check(
                        fast == oracle.contains(&tuple),
                        &format!("fast/oracle disagree on {tuple:?} over {t}"),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// Dependency display/parse round trip on the paper's dependencies —
/// the input space is 5 fixed texts, so check them all.
#[test]
fn dependency_round_trip() {
    let texts = [
        "M(x1,x2) -> E(x1,x2)",
        "N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2)",
        "F(y,x) -> exists z . G(x,z)",
        "F(x,y) & F(x,z) -> y = z",
        "E(x,x1,y) & E(x,x2,y) -> F(x,x1,x2)",
    ];
    for text in texts {
        let d1 = parse_dependency(text).unwrap();
        let printed = format!("{d1}");
        let d2 = parse_dependency(&printed).unwrap();
        assert_eq!(format!("{d1}"), format!("{d2}"), "round trip of {text}");
    }
}

/// Two runs with the same seed produce identical instances and settings
/// from every `dex-datagen` generator (the hermetic PRNG is fully
/// deterministic — no ambient randomness anywhere).
#[test]
fn datagen_is_deterministic_per_seed() {
    use cwa_dex::datagen::{
        layered_setting, mapping_scenario, random_3cnf, random_path_system, random_source,
        LayeredConfig, ScenarioConfig, SourceConfig,
    };
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let cfg = SourceConfig {
            num_constants: 8,
            tuples_per_relation: 12,
            seed,
        };
        let schema = dex_core::Schema::of(&[("R", 2), ("S", 3)]);
        assert_eq!(random_source(&schema, &cfg), random_source(&schema, &cfg));

        let lcfg = LayeredConfig {
            seed,
            with_egds: seed % 2 == 0,
            ..Default::default()
        };
        assert_eq!(
            format!("{}", layered_setting(&lcfg)),
            format!("{}", layered_setting(&lcfg)),
        );

        let scfg = ScenarioConfig {
            seed,
            ..Default::default()
        };
        assert_eq!(
            format!("{}", mapping_scenario(&scfg)),
            format!("{}", mapping_scenario(&scfg)),
        );

        assert_eq!(random_3cnf(6, 20, seed), random_3cnf(6, 20, seed));
        assert_eq!(
            random_path_system(12, 3, 18, seed).solvable(),
            random_path_system(12, 3, 18, seed).solvable(),
        );
    }
}
