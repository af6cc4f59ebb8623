//! 64-seed differential suite: the constraint-propagation evaluator
//! against the brute-force valuation oracle.
//!
//! Each seed draws a setting (key egds, a target tgd, or no target
//! dependencies at all), a random null-labeled target instance, and a
//! query slate covering CQs, CQs with head-safe and existential
//! inequalities, UCQs, and FO with negation. The null count is kept low
//! enough that the oracle always completes, so:
//!
//! - ungoverned certain/maybe answers must agree *exactly*, at every
//!   worker-pool width in {1, 2, 8};
//! - governed runs at starvation fuels must produce sound bound pairs:
//!   `lower_bound() ⊆ exact ⊆ upper_bound()` whenever an upper bound is
//!   reported, with the gap closed at unlimited fuel.

use dex_core::{Atom, Governor, Instance, Pool, Value};
use dex_logic::{parse_query, parse_setting, Setting};
use dex_query::{
    answer_pool, certain_answers, certain_answers_propagated, maybe_answers,
    maybe_answers_propagated, Answers, ModalLimits,
};
use dex_testkit::rng::TestRng;

const SETTINGS: [&str; 3] = [
    // Key egd on F only.
    "source { P/1 }
     target { F/2, G/2, H/1 }
     st { P(x) -> exists z . F(x,z); }
     t { F(x,y) & F(x,z) -> y = z; }",
    // Key egd plus a target tgd linking F into G.
    "source { P/1 }
     target { F/2, G/2, H/1 }
     st { P(x) -> exists z . F(x,z); }
     t {
       F(x,y) & F(x,z) -> y = z;
       F(x,y) -> G(y,x);
     }",
    // No target dependencies: Rep is the full valuation space.
    "source { P/1 }
     target { F/2, G/2, H/1 }
     st { P(x) -> exists z . F(x,z); }",
];

/// CQ / UCQ / FO slate; inequalities in both head-safe and existential
/// positions so every evaluator path (fast path, propagation, oracle
/// fallback) is exercised across the suite.
const QUERIES: [&str; 8] = [
    "Q(x,y) :- F(x,y)",
    "Q(x) :- F(x,y), G(y,z)",
    "Q(x,y) :- F(x,y), x != y",
    "Q(x) :- F(x,y), G(y,z), y != z",
    "Q(x) :- F(x,x); Q(x) :- H(x)",
    "Q(x,y) :- F(x,y), x != 'a'; Q(x,y) :- G(x,y), x != y",
    "Q(x) := exists y . (F(x,y) & !H(y))",
    "Q() :- F(x,y), G(y,x)",
];

/// A random target instance: 3–7 atoms over F/2, G/2, H/1 with each
/// argument a constant from a small alphabet or one of at most three
/// nulls. Three nulls keep the oracle's `|pool|^|nulls|` space under ~10³
/// so it always completes.
fn random_instance(rng: &mut TestRng) -> Instance {
    let consts = ["a", "b", "c", "d"];
    let null_count = rng.gen_range(0..=3u32);
    let mut t = Instance::new();
    let n_atoms = rng.gen_range(3..=7usize);
    for _ in 0..n_atoms {
        let arg = |rng: &mut TestRng| -> Value {
            if null_count > 0 && rng.gen_bool(0.4) {
                Value::null(rng.gen_range(0..null_count))
            } else {
                Value::konst(rng.choose(&consts).unwrap())
            }
        };
        let atom = match rng.gen_range(0..3u8) {
            0 => Atom::of("F", vec![arg(rng), arg(rng)]),
            1 => Atom::of("G", vec![arg(rng), arg(rng)]),
            _ => Atom::of("H", vec![arg(rng)]),
        };
        t.insert(atom);
    }
    t
}

fn exact_pair(
    d: &Setting,
    q: &dex_logic::Query,
    t: &Instance,
    pool: &[dex_core::Symbol],
    limits: &ModalLimits,
) -> (Option<Answers>, Answers) {
    let (gov, exec) = (Governor::unlimited(), Pool::seq());
    let b = certain_answers(d, q, t, pool, limits, &gov, &exec).expect("oracle □ must complete");
    let m = maybe_answers(d, q, t, pool, limits, &gov, &exec).expect("oracle ◇ must complete");
    (b.map(|g| g.proven), m.proven)
}

#[test]
fn propagation_matches_oracle_across_64_seeds() {
    let limits = ModalLimits::default();
    let execs = [
        Pool::seq(),
        Pool::new(2).with_threshold_ns(0),
        Pool::new(8).with_threshold_ns(0),
    ];
    for seed in 0..64u64 {
        let mut rng = TestRng::seed_from_u64(seed);
        let d = parse_setting(SETTINGS[rng.gen_range(0..SETTINGS.len())]).unwrap();
        let t = random_instance(&mut rng);
        // Three queries per seed keeps the suite broad without blowing
        // up runtime; the slate rotates with the seed.
        for _ in 0..3 {
            let qt = *rng.choose(&QUERIES).unwrap();
            let q = parse_query(qt).unwrap();
            let pool = answer_pool(&t, &q, []);
            let (oracle_box, oracle_dia) = exact_pair(&d, &q, &t, &pool, &limits);
            for exec in &execs {
                let gov = Governor::unlimited();
                let (pb, _) = certain_answers_propagated(&d, &q, &t, &pool, &limits, &gov, exec)
                    .expect("propagated □");
                assert_eq!(
                    pb.map(|g| g.proven),
                    oracle_box,
                    "□ mismatch: seed {seed}, query {qt}, threads {}",
                    exec.effective_threads()
                );
                let (pd, _) = maybe_answers_propagated(&d, &q, &t, &pool, &limits, &gov, exec)
                    .expect("propagated ◇");
                assert_eq!(
                    pd.proven,
                    oracle_dia,
                    "◇ mismatch: seed {seed}, query {qt}, threads {}",
                    exec.effective_threads()
                );
            }
            // Governed bound pairs at starvation fuels. `u64::MAX` fuel
            // closes the gap entirely.
            for fuel in [1u64, 5, 23, u64::MAX] {
                for exec in &execs {
                    let gov = Governor::unlimited().with_fuel(fuel);
                    let (gb, _) =
                        certain_answers_propagated(&d, &q, &t, &pool, &limits, &gov, exec)
                            .expect("governed □");
                    match (&gb, &oracle_box) {
                        (None, None) => {}
                        (Some(g), None) => {
                            // `Rep_D(T)` is empty, but the fuel ran out
                            // before enumeration could prove it (the
                            // symbolic analysis alone cannot always).
                            // Sound only as a refinable partial result —
                            // `proven` may hold ground witnesses, which
                            // are vacuously certain over zero reps.
                            assert!(
                                fuel != u64::MAX && !g.is_complete(),
                                "unsound □ on empty Rep: seed {seed}, query {qt}, fuel {fuel}"
                            );
                        }
                        (None, Some(_)) => panic!(
                            "□ claims empty Rep on a nonempty one: seed {seed}, query {qt}, fuel {fuel}"
                        ),
                        (Some(g), Some(exact)) => {
                            g.validate().unwrap();
                            assert!(
                                g.lower_bound().is_subset(exact),
                                "□ lower ⊄ exact: seed {seed}, query {qt}, fuel {fuel}"
                            );
                            if let Some(upper) = g.upper_bound() {
                                assert!(
                                    exact.is_subset(&upper),
                                    "□ exact ⊄ upper: seed {seed}, query {qt}, fuel {fuel}"
                                );
                            }
                            if fuel == u64::MAX {
                                assert!(g.is_complete());
                                assert_eq!(g.proven, *exact, "seed {seed}, query {qt}");
                            }
                        }
                    }
                    let gov = Governor::unlimited().with_fuel(fuel);
                    let (gd, _) = maybe_answers_propagated(&d, &q, &t, &pool, &limits, &gov, exec)
                        .expect("governed ◇");
                    gd.validate().unwrap();
                    assert!(
                        gd.lower_bound().is_subset(&oracle_dia),
                        "◇ lower ⊄ exact: seed {seed}, query {qt}, fuel {fuel}"
                    );
                    if let Some(upper) = gd.upper_bound() {
                        assert!(
                            oracle_dia.is_subset(&upper),
                            "◇ exact ⊄ upper: seed {seed}, query {qt}, fuel {fuel}"
                        );
                    }
                    if fuel == u64::MAX {
                        assert!(gd.is_complete());
                        assert_eq!(gd.proven, oracle_dia, "seed {seed}, query {qt}");
                    }
                }
            }
        }
    }
}
