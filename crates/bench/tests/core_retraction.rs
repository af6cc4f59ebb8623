//! Worklist core retraction ([`dex_core::core_parallel_governed`])
//! against an independent oracle, and its cost as a count.
//!
//! The differential runs 64 seeds over four families — layered settings,
//! mapping scenarios, redundant-null instances and Example 2.1 scaled —
//! and checks every core against [`naive_core`], dex-testkit's
//! whole-instance retract iteration, which shares no code with the
//! worklist. Each core is also checked with `is_core`, as a subinstance
//! of its input, and atom for atom at 1/2/4/8 threads and at
//! `DEX_THREADS` with the inline threshold at zero. The count tests pin
//! `components_searched`: each null component is searched once, plus
//! once per piece a retract leaves behind and once per invalidated
//! retract, so a walk that re-searches components after every retract
//! fails here and not only in a timing; a traced core carries the same
//! count to `dex trace`. Every differential failure names its family
//! and seed.
//!
//! The rigid pass is checked for soundness against every endomorphism
//! `HomFinder` enumerates on small random instances, for completeness on
//! the mapping-scenario family (every surrogate key is rigid), and for
//! governance on a large keyed target.

use dex_chase::{ChaseBudget, ChaseEngine};
use dex_core::govern::{Governor, InterruptReason};
use dex_core::{
    core_parallel_governed, is_core, isomorphic, null_blocks, rigid_nulls, Atom, CoreStatus,
    HomFinder, Instance, NullGen, Pool, Symbol, Value,
};
use dex_datagen::{
    example_2_1_scaled, layered_setting, mapping_scenario, random_source, redundant_null_instance,
    LayeredConfig, ScenarioConfig, SourceConfig,
};
use dex_logic::{parse_setting, Setting, Tgd};
use dex_obs::{parse_trace, RingRecorder, TraceProfile, Tracer};
use dex_testkit::core_ref::{naive_core, RefAtom, Term};
use dex_testkit::rng::TestRng;
use std::sync::Arc;

const SEEDS: u64 = 64;

const EXAMPLE_2_1: &str = "source { M/2, N/2 }
    target { E/2, F/2, G/2 }
    st {
      d1: M(x1,x2) -> E(x1,x2);
      d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
    }
    t {
      d3: F(y,x) -> exists z . G(x,z);
      d4: F(x,y) & F(x,z) -> y = z;
    }";

fn to_ref(inst: &Instance) -> Vec<RefAtom> {
    inst.atoms()
        .map(|a| RefAtom {
            rel: a.rel.as_str(),
            args: a
                .args
                .iter()
                .map(|v| match v {
                    Value::Const(c) => Term::Const(c.as_str()),
                    Value::Null(n) => Term::Null(n.0),
                })
                .collect(),
        })
        .collect()
}

fn from_ref(atoms: &[RefAtom]) -> Instance {
    atoms
        .iter()
        .map(|a| {
            let args: Vec<Value> = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Value::konst(c),
                    Term::Null(n) => Value::null(*n),
                })
                .collect();
            Atom::new(Symbol::intern(&a.rel), args)
        })
        .collect()
}

/// Libkin's presolution followed by one oblivious round of the target
/// tgds: every trigger fires once with its own fresh nulls, so nothing
/// is shared and the egds are left unrepaired — on Example 2.1 this is
/// the paper's redundant `T₂` shape, one copy per `N`-atom.
fn oblivious_target(d: &Setting, s: &Instance) -> Instance {
    let mut nulls = NullGen::above(s.values());
    let mut fire = |tgds: &[Tgd], over: &Instance, into: &mut Instance| {
        for tgd in tgds {
            for env in tgd.body.matches(over) {
                let mut full = env.clone();
                for &z in &tgd.exist_vars {
                    full.bind(z, nulls.fresh_value());
                }
                for atom in tgd.instantiate_head(&full) {
                    into.insert(atom);
                }
            }
        }
    };
    let mut t = Instance::new();
    fire(&d.st_tgds, s, &mut t);
    let st_part = t.clone();
    fire(&d.t_tgds, &st_part, &mut t);
    t
}

fn chase_target(d: &Setting, s: &Instance) -> Instance {
    ChaseEngine::new(d, &ChaseBudget::default())
        .run(s)
        .expect("the family's chase succeeds")
        .target
}

/// The four families, each instance drawn from `seed`.
fn families(seed: u64) -> Vec<(&'static str, Instance)> {
    let layered = {
        let d = layered_setting(&LayeredConfig {
            join_tgds_per_layer: (seed % 2) as usize,
            seed,
            ..LayeredConfig::default()
        });
        let s = random_source(
            &d.source,
            &SourceConfig {
                num_constants: 6,
                tuples_per_relation: 8,
                seed,
            },
        );
        chase_target(&d, &s)
    };
    let scenario = {
        let d = mapping_scenario(&ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        });
        let s = random_source(
            &d.source,
            &SourceConfig {
                num_constants: 4,
                tuples_per_relation: 6,
                seed,
            },
        );
        chase_target(&d, &s)
    };
    let redundant = redundant_null_instance(1 + (seed % 4) as usize, 1 + (seed % 5) as usize);
    let example = oblivious_target(
        &parse_setting(EXAMPLE_2_1).unwrap(),
        &example_2_1_scaled(1 + (seed % 8) as usize),
    );
    vec![
        ("layered", layered),
        ("mapping_scenario", scenario),
        ("redundant_null_instance", redundant),
        ("example_2_1_scaled", example),
    ]
}

/// Byte-level identity: the same atoms in the same iteration order.
fn atom_listing(inst: &Instance) -> Vec<Atom> {
    inst.atoms().collect()
}

fn check_core(family: &str, seed: u64, inst: &Instance) -> Result<(), String> {
    let fail = |what: String| Err(format!("{family} seed {seed}: {what}"));
    let got = core_parallel_governed(inst, &Governor::unlimited(), &Pool::seq());
    if !got.is_minimal() {
        return fail("an unlimited core run did not reach the fixpoint".into());
    }
    let reference = from_ref(&naive_core(&to_ref(inst)));
    if !isomorphic(&got.instance, &reference) {
        return fail(format!(
            "worklist core {} is not isomorphic to the reference core {reference}",
            got.instance
        ));
    }
    if !is_core(&got.instance) {
        return fail(format!("is_core fails on the core {}", got.instance));
    }
    if !got.instance.is_subinstance_of(inst) {
        return fail(format!("the core {} left the input", got.instance));
    }
    let pools = [1, 2, 4, 8]
        .map(|threads| Pool::new(threads).with_threshold_ns(0))
        .into_iter()
        .chain([Pool::from_env().with_threshold_ns(0)]);
    for pool in pools {
        let par = core_parallel_governed(inst, &Governor::unlimited(), &pool);
        if atom_listing(&par.instance) != atom_listing(&got.instance) {
            return fail(format!(
                "core at {} threads differs from the sequential core",
                pool.threads()
            ));
        }
        if par.components_searched != got.components_searched {
            return fail(format!(
                "{} components searched at {} threads, {} sequentially",
                par.components_searched,
                pool.threads(),
                got.components_searched
            ));
        }
    }
    Ok(())
}

#[test]
fn worklist_core_matches_the_naive_reference() {
    for seed in 0..SEEDS {
        for (family, inst) in families(seed) {
            if let Err(msg) = check_core(family, seed, &inst) {
                panic!("{msg}");
            }
        }
    }
}

/// `prefix` retract-free components `F(c_i,x) ∧ G(x,y)` with the lowest
/// null ids, so they come first in block order, then `redundant`
/// components `F(d_j,x) ∧ G(x,y) ∧ G(x,z)`, each of which retracts once
/// (`y ↦ z`) and leaves one retract-free piece.
fn prefix_then_redundant(prefix: u32, redundant: u32) -> Instance {
    let mut t = Instance::new();
    let mut null = 0;
    let mut fresh = || {
        null += 1;
        Value::null(null)
    };
    for i in 0..prefix {
        let (x, y) = (fresh(), fresh());
        t.insert(Atom::of("F", vec![Value::konst(&format!("c{i}")), x]));
        t.insert(Atom::of("G", vec![x, y]));
    }
    for j in 0..redundant {
        let (x, y, z) = (fresh(), fresh(), fresh());
        t.insert(Atom::of("F", vec![Value::konst(&format!("d{j}")), x]));
        t.insert(Atom::of("G", vec![x, y]));
        t.insert(Atom::of("G", vec![x, z]));
    }
    t
}

#[test]
fn each_component_is_searched_once_plus_once_per_piece() {
    for (prefix, redundant) in [(0, 1), (1, 0), (20, 30), (100, 5)] {
        let inst = prefix_then_redundant(prefix, redundant);
        let gc = core_parallel_governed(&inst, &Governor::unlimited(), &Pool::seq());
        assert!(gc.is_minimal());
        assert_eq!(gc.instance.len() as u32, 2 * (prefix + redundant));
        // Every component once, and the one piece each retract leaves.
        // A walk that restarts after every retract searches the prefix
        // again per retract: prefix × redundant more.
        assert_eq!(
            gc.components_searched as u32,
            prefix + 2 * redundant,
            "prefix {prefix}, redundant {redundant}"
        );
    }
}

#[test]
fn a_row_of_isomorphic_components_folds_in_one_pass() {
    // `n` copies of `F(a,x) ∧ G(x,y)`: in the first pass every copy finds
    // a retract onto the first copy, which the first retract removes. Each
    // invalidated retract is searched again against the current instance
    // and applied at once, so the copies fold in one pass; re-queueing
    // them would fold one copy per pass, n²/2 searches in all.
    let n = 50;
    let inst: Instance = (0..n)
        .flat_map(|i| {
            let (x, y) = (Value::null(2 * i), Value::null(2 * i + 1));
            [
                Atom::of("F", vec![Value::konst("a"), x]),
                Atom::of("G", vec![x, y]),
            ]
        })
        .collect();
    let gc = core_parallel_governed(&inst, &Governor::unlimited(), &Pool::seq());
    assert!(gc.is_minimal());
    assert_eq!(gc.instance.len(), 2);
    assert_eq!(gc.components_searched as u32, 2 * n - 1);
}

/// The `exchange` benchmark's layered setting, with the source scaled
/// `k`-fold in constants and tuples.
fn layered_exchange_target(k: usize) -> Instance {
    let d = layered_setting(&LayeredConfig {
        source_rels: 2,
        layers: 4,
        rels_per_layer: 2,
        up_tgds_per_layer: 2,
        full_tgds_per_layer: 1,
        join_tgds_per_layer: 1,
        with_egds: false,
        rich_breaking: false,
        seed: 3,
    });
    let s = random_source(
        &d.source,
        &SourceConfig {
            num_constants: 40 * k,
            tuples_per_relation: 120 * k,
            seed: 1,
        },
    );
    chase_target(&d, &s)
}

#[test]
fn components_searched_grows_linearly_on_the_layered_family() {
    let [small, large] = [1, 8].map(|k| {
        let t = layered_exchange_target(k);
        let gc = core_parallel_governed(&t, &Governor::unlimited(), &Pool::seq());
        assert!(gc.is_minimal());
        (t.len(), gc.components_searched)
    });
    assert!(
        large.1 as f64 <= 8.5 * small.1 as f64,
        "components searched: {} at 1× ({} atoms), {} at 8× ({} atoms)",
        small.1,
        small.0,
        large.1,
        large.0
    );
}

#[test]
fn traced_core_reports_its_search_count() {
    let inst = prefix_then_redundant(3, 4);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let gov = Governor::unlimited().with_tracer(Tracer::new(ring.clone()));
    let gc = core_parallel_governed(&inst, &gov, &Pool::seq());
    let profile = TraceProfile::from_lines(&parse_trace(&ring.to_jsonl()).unwrap());
    assert_eq!(profile.events.get("core_completed"), Some(&1));
    assert_eq!(profile.components_searched, gc.components_searched as u64);
    assert_eq!(
        profile.metrics.counter("trace.core.components_searched"),
        gc.components_searched as u128
    );
    // One retract per redundant component, two passes (the retracts,
    // then the pieces they leave).
    assert_eq!(profile.events.get("retract_found"), Some(&4));
    let passes = profile.phases.iter().find(|p| p.name == "retract_step");
    assert_eq!(passes.map(|p| p.count), Some(2));
}

/// A small random instance over `E/2` and `U/1`: up to 10 atoms, their
/// arguments drawn from two constants and at most 8 nulls, so repeated
/// nulls, shared skeletons and unique rows all occur.
fn small_random_instance(seed: u64) -> Instance {
    let mut rng = TestRng::seed_from_u64(seed);
    let nulls = rng.gen_range(1..=8u32);
    let value = |rng: &mut TestRng| match rng.gen_range(0..nulls + 2) {
        0 => Value::konst("a"),
        1 => Value::konst("b"),
        n => Value::null(n - 1),
    };
    let mut t = Instance::new();
    for _ in 0..rng.gen_range(1..=10usize) {
        let atom = if rng.gen_bool(0.75) {
            Atom::of("E", vec![value(&mut rng), value(&mut rng)])
        } else {
            Atom::of("U", vec![value(&mut rng)])
        };
        t.insert(atom);
    }
    t
}

#[test]
fn rigid_nulls_are_fixed_by_every_endomorphism() {
    let (mut rigid_seen, mut free_seen) = (0, 0);
    for seed in 0..SEEDS {
        let t = small_random_instance(seed);
        let rigid = rigid_nulls(&t, &Governor::unlimited()).unwrap();
        rigid_seen += rigid.len();
        free_seen += t.nulls().len() - rigid.len();
        let mut moved = None;
        HomFinder::new(&t, &t)
            .for_each(&Governor::unlimited(), &mut |h| {
                moved = rigid
                    .iter()
                    .find(|&&n| h.apply_value(Value::Null(n)) != Value::Null(n))
                    .map(|&n| (n, h.clone()));
                moved.is_none()
            })
            .unwrap();
        if let Some((n, h)) = moved {
            panic!("seed {seed}: rigid null {n} moved by endomorphism {h:?} of {t}");
        }
    }
    // Neither side is vacuous over the seeds.
    assert!(
        rigid_seen > 0 && free_seen > 0,
        "{rigid_seen} rigid, {free_seen} free"
    );
}

#[test]
fn mapping_scenario_components_all_come_out_rigid() {
    for seed in 0..SEEDS {
        let (_, t) = families(seed)
            .into_iter()
            .find(|(family, _)| *family == "mapping_scenario")
            .unwrap();
        assert_eq!(
            rigid_nulls(&t, &Governor::unlimited()).unwrap().len(),
            t.nulls().len(),
            "seed {seed}"
        );
        let gc = core_parallel_governed(&t, &Governor::unlimited(), &Pool::seq());
        assert!(gc.is_minimal());
        assert_eq!(
            gc.instance, t,
            "seed {seed}: a chased keyed target is its own core"
        );
        assert_eq!(gc.components_searched, null_blocks(&t).len(), "seed {seed}");
        assert_eq!(gc.components_rigid, gc.components_searched, "seed {seed}");
    }
}

#[test]
fn components_rigid_counts_only_components_settled_without_a_search() {
    // The prefix's `F(c_i,x) ∧ G(x,y)` is rigid (`c_i` and then `x` pin
    // each atom); a redundant component and the piece its retract leaves
    // share `G(x,_)` skeletons, so both are searched.
    for (prefix, redundant) in [(0, 1), (1, 0), (20, 30)] {
        let gc = core_parallel_governed(
            &prefix_then_redundant(prefix, redundant),
            &Governor::unlimited(),
            &Pool::seq(),
        );
        assert_eq!(gc.components_rigid as u32, prefix);
        assert_eq!(gc.components_searched as u32, prefix + 2 * redundant);
    }
}

#[test]
fn rigidity_propagates_along_a_null_chain() {
    // `P(c,_1), P(_1,_2), …, P(_29,_30)`, inserted last link first: only
    // `P(c,_1)` is unique at the start, and each link becomes unique once
    // the null before it is rigid, so the pass must re-queue.
    let n = 30;
    let link = |i: u32| {
        let from = if i == 1 {
            Value::konst("c")
        } else {
            Value::null(i - 1)
        };
        Atom::of("P", vec![from, Value::null(i)])
    };
    let t: Instance = (1..=n).rev().map(link).collect();
    let rigid = rigid_nulls(&t, &Governor::unlimited()).unwrap();
    assert_eq!(rigid.len(), n as usize);
    assert!(is_core(&t));
    let gc = core_parallel_governed(&t, &Governor::unlimited(), &Pool::seq());
    assert_eq!((gc.components_searched, gc.components_rigid), (1, 1));
}

/// The `keyed` benchmark's mapping scenario on a large source.
fn large_keyed_target() -> Instance {
    let d = mapping_scenario(&ScenarioConfig {
        copies: 2,
        partitions: 2,
        surrogates: 3,
        seed: 5,
    });
    let s = random_source(
        &d.source,
        &SourceConfig {
            num_constants: 150,
            tuples_per_relation: 150,
            seed: 1,
        },
    );
    chase_target(&d, &s)
}

#[test]
fn fuel_limited_core_stops_inside_the_rigid_pass() {
    let t = large_keyed_target();
    let probes = t.atoms().filter(|a| !a.is_ground()).count() as u64;
    assert!(probes > 500, "{probes} non-ground atoms");
    for threads in [1, 2, 8] {
        let gov = Governor::unlimited().with_fuel(probes / 2);
        let gc = core_parallel_governed(&t, &gov, &Pool::new(threads).with_threshold_ns(0));
        let CoreStatus::MaybeNotMinimal(int) = &gc.status else {
            panic!("fuel {} must interrupt: {:?}", probes / 2, gc.status)
        };
        assert_eq!(int.reason, InterruptReason::Fuel);
        // Stopped before any component entered a pass: nothing removed.
        assert_eq!(gc.components_searched, 0);
        assert_eq!(gc.instance, t);
    }
}
