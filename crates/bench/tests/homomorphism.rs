//! `HomFinder` against brute force, and the trace of one search.
//!
//! The differential runs 64 seeds of small random `from`/`to` pairs: at
//! most 5 nulls in `from`, at most 5 values in `to`'s active domain. For
//! the plain search and under each builder restriction (`forbid_atom`,
//! `nulls_to_nulls`, `nulls_to_nulls` plus `injective_on_nulls`) the
//! homomorphisms `for_each` enumerates must be, without repeats, exactly
//! the null maps that pass the restriction, found by trying every map
//! from `from`'s nulls to `to`'s values; `find` must return one of them
//! iff there is one. Null ids are contiguous for even seeds and spread
//! over the `u32` range for odd ones. The relations include a nullary
//! one, one wider than the kernel's stack pattern and, every eighth
//! seed, one that `to` uses at another arity. Every failure names its
//! seed.

use dex_core::join::STACK_ARITY;
use dex_core::{Atom, Clock, Governor, HomFinder, Homomorphism, Instance, NullId, Value};
use dex_obs::{check_spans_well_formed, parse_trace, Collector, JsonValue, RingRecorder, Tracer};
use dex_testkit::rng::TestRng;
use std::collections::BTreeSet;
use std::sync::Arc;

const SEEDS: u64 = 64;

/// Relations `(name, arity)` of both sides: a nullary one, two narrow
/// ones and one wider than the kernel's stack pattern.
const RELS: [(&str, usize); 4] = [("Z", 0), ("P", 1), ("E", 2), ("W", STACK_ARITY + 2)];

/// On mismatched seeds `from` uses `M` at arity 1 and `to` at arity 2.
const MISMATCHED: &str = "M";

/// A null map, as its sorted bindings.
type Map = Vec<(NullId, Value)>;

struct Case {
    from: Instance,
    to: Instance,
    forbidden: Atom,
}

fn random_atom(rng: &mut TestRng, rels: &[(&'static str, usize)], values: &[Value]) -> Atom {
    let (rel, arity) = rels[rng.gen_range(0..rels.len())];
    let args: Vec<Value> = (0..arity)
        .map(|_| values[rng.gen_range(0..values.len())])
        .collect();
    Atom::of(rel, args)
}

fn case(seed: u64) -> Case {
    let mut rng = TestRng::seed_from_u64(seed);
    let ids: Vec<u32> = if seed % 2 == 1 {
        (0..5u32)
            .map(|i| i * (u32::MAX / 5) + rng.gen_range(0..1000u32))
            .collect()
    } else {
        (1..=5).collect()
    };
    let nulls = rng.gen_range(1..=5usize);
    let mut from_values = vec![Value::konst("a"), Value::konst("b")];
    from_values.extend(ids[..nulls].iter().map(|&id| Value::null(id)));
    let to_values = [
        Value::konst("a"),
        Value::konst("b"),
        Value::null(ids[0]),
        Value::null(ids[1]),
        Value::null(ids[2]),
    ];
    let mismatched = seed % 8 == 3;
    let mut from_rels = RELS.to_vec();
    if mismatched {
        from_rels.push((MISMATCHED, 1));
    }
    let from = Instance::from_atoms(
        (0..rng.gen_range(1..=4usize)).map(|_| random_atom(&mut rng, &from_rels, &from_values)),
    );
    let mut to = Instance::from_atoms(
        (0..rng.gen_range(0..=6usize)).map(|_| random_atom(&mut rng, &RELS, &to_values)),
    );
    if mismatched {
        to.insert(Atom::of(MISMATCHED, vec![to_values[0], to_values[2]]));
    }
    // Most seeds plant the image of `from` under one or two random maps,
    // half of them into `to`'s nulls only, so that homomorphisms exist
    // (wide and nullary atoms included) and some restricted searches
    // have several.
    for _ in 0..rng.gen_range(0..=2usize) {
        let images = match rng.gen_bool(0.5) {
            true => &to_values[2..],
            false => &to_values[..],
        };
        let planted = Homomorphism::from_bindings(
            from.nulls()
                .into_iter()
                .map(|n| (n, images[rng.gen_range(0..images.len())])),
        );
        for a in from.atoms().filter(|a| a.rel.as_str() != MISMATCHED) {
            to.insert(planted.apply_atom(&a));
        }
    }
    let to_atoms: Vec<Atom> = to.atoms().collect();
    let forbidden = match to_atoms.len() {
        0 => Atom::of("E", vec![Value::konst("a"), Value::konst("a")]),
        n => to_atoms[rng.gen_range(0..n)].clone(),
    };
    Case {
        from,
        to,
        forbidden,
    }
}

/// The four searches the differential compares.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Plain,
    Forbid,
    NullsToNulls,
    Injective,
}

const VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Forbid,
    Variant::NullsToNulls,
    Variant::Injective,
];

fn finder<'a>(c: &'a Case, v: Variant) -> HomFinder<'a> {
    let f = HomFinder::new(&c.from, &c.to);
    match v {
        Variant::Plain => f,
        Variant::Forbid => f.forbid_atom(&c.forbidden),
        Variant::NullsToNulls => f.nulls_to_nulls(),
        Variant::Injective => f.nulls_to_nulls().injective_on_nulls(),
    }
}

/// Every map from `from`'s nulls to `to`'s active domain that sends
/// `from` into `to` and passes `v`'s restriction.
fn brute_force(c: &Case, v: Variant) -> BTreeSet<Map> {
    let nulls: Vec<NullId> = c.from.nulls().into_iter().collect();
    let domain: Vec<Value> = c.to.active_domain().into_iter().collect();
    let atoms: Vec<Atom> = c.from.atoms().collect();
    let mut out = BTreeSet::new();
    let mut digits = vec![0usize; nulls.len()];
    if domain.is_empty() && !nulls.is_empty() {
        return out;
    }
    loop {
        let map: Map = nulls
            .iter()
            .zip(&digits)
            .map(|(&n, &d)| (n, domain[d]))
            .collect();
        let h = Homomorphism::from_bindings(map.iter().copied());
        let images: Vec<Atom> = atoms.iter().map(|a| h.apply_atom(a)).collect();
        let values: BTreeSet<Value> = map.iter().map(|&(_, val)| val).collect();
        let ok = images.iter().all(|img| c.to.contains(img))
            && match v {
                Variant::Plain => true,
                Variant::Forbid => images.iter().all(|img| *img != c.forbidden),
                Variant::NullsToNulls => values.iter().all(Value::is_null),
                Variant::Injective => {
                    values.iter().all(Value::is_null) && values.len() == map.len()
                }
            };
        if ok {
            out.insert(map);
        }
        // Next map in mixed radix; done after the last.
        let Some(k) = digits.iter().position(|&d| d + 1 < domain.len()) else {
            return out;
        };
        digits[k] += 1;
        digits[..k].fill(0);
    }
}

fn as_map(h: &Homomorphism) -> Map {
    h.bindings().collect()
}

/// What the differential exercised; every field must be hit by some seed.
#[derive(Default)]
struct Coverage {
    spread_ids: usize,
    wide: usize,
    nullary: usize,
    mismatched: usize,
    none_at_all: usize,
    forbid_bites: usize,
    nulls_to_nulls_bites: usize,
    injective_bites: usize,
    injective_several: usize,
}

fn differential_case(seed: u64, cov: &mut Coverage) {
    let c = case(seed);
    let ctx = format!("seed {seed}: from {:?}, to {:?}", c.from, c.to);
    let gov = Governor::unlimited();
    let mut sets = Vec::new();
    for v in VARIANTS {
        let want = brute_force(&c, v);
        let mut got = Vec::new();
        let finished = finder(&c, v)
            .for_each(&gov, &mut |h| {
                got.push(as_map(h));
                true
            })
            .unwrap();
        assert!(finished, "{ctx}: {v:?} enumeration reported a stop");
        let distinct: BTreeSet<Map> = got.iter().cloned().collect();
        assert_eq!(distinct.len(), got.len(), "{ctx}: {v:?} repeats a map");
        assert_eq!(distinct, want, "{ctx}: {v:?}");
        let found = finder(&c, v).find(&gov).unwrap();
        assert_eq!(found.is_some(), !want.is_empty(), "{ctx}: {v:?} find");
        if let Some(h) = found {
            assert!(want.contains(&as_map(&h)), "{ctx}: {v:?} found {h:?}");
        }
        sets.push(want);
    }
    let [plain, forbid, to_nulls, injective] = &sets[..] else {
        unreachable!()
    };
    let homs = !plain.is_empty();
    let has = |rel: &str| c.from.rows_of_len(dex_core::Symbol::intern(rel)) > 0;
    cov.spread_ids += usize::from(homs && seed % 2 == 1);
    cov.wide += usize::from(homs && has("W"));
    cov.nullary += usize::from(homs && has("Z"));
    cov.mismatched += usize::from(has(MISMATCHED));
    cov.none_at_all += usize::from(!homs);
    cov.forbid_bites += usize::from(forbid.len() < plain.len());
    cov.nulls_to_nulls_bites += usize::from(to_nulls.len() < plain.len());
    cov.injective_bites += usize::from(injective.len() < to_nulls.len());
    cov.injective_several += usize::from(injective.len() > 1);
}

/// `for_each` enumerates exactly the brute-force homomorphisms, and
/// `find` finds one iff there is one, plain and under every restriction.
#[test]
fn hom_finder_matches_brute_force_per_seed() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        differential_case(seed, &mut cov);
    }
    let Coverage {
        spread_ids,
        wide,
        nullary,
        mismatched,
        none_at_all,
        forbid_bites,
        nulls_to_nulls_bites,
        injective_bites,
        injective_several,
    } = cov;
    for (what, hits) in [
        ("spread null ids, some homomorphism", spread_ids),
        ("wide atom, some homomorphism", wide),
        ("nullary atom, some homomorphism", nullary),
        ("relation at a mismatched arity", mismatched),
        ("no homomorphism", none_at_all),
        ("forbid_atom removes one", forbid_bites),
        ("nulls_to_nulls removes one", nulls_to_nulls_bites),
        ("injective_on_nulls removes one", injective_bites),
        ("several injective maps", injective_several),
    ] {
        assert!(hits > 0, "no seed covers: {what}");
    }
}

/// A path of three nulls next to a ground atom, into a 2-cycle that
/// holds the ground atom too: three non-ground atoms.
fn path_into_cycle() -> (Instance, Instance) {
    let (u, v) = (Value::konst("u"), Value::konst("v"));
    let from = Instance::from_atoms([
        Atom::of("E", vec![Value::null(1), Value::null(2)]),
        Atom::of("E", vec![Value::null(2), Value::null(3)]),
        Atom::of("E", vec![Value::null(3), Value::null(4)]),
        Atom::of("G", vec![u]),
    ]);
    let to = Instance::from_atoms([
        Atom::of("E", vec![u, v]),
        Atom::of("E", vec![v, u]),
        Atom::of("G", vec![u]),
    ]);
    (from, to)
}

/// One `find` under a mock clock, traced into a ring.
fn traced_find(from: &Instance, to: &Instance) -> String {
    let (clock, mock) = Clock::mock();
    mock.set_ns(42);
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let gov = Governor::with_clock_now(clock)
        .with_tracer(Tracer::new(Arc::clone(&ring) as Arc<dyn Collector>));
    assert!(HomFinder::new(from, to).find(&gov).unwrap().is_some());
    assert_eq!(ring.dropped(), 0, "ring too small for the search");
    ring.to_jsonl()
}

/// A traced `find` opens one well-formed `hom_search` span, every
/// `hom_extended` depth counts non-ground atoms matched, and two runs
/// trace byte for byte the same.
#[test]
fn a_traced_find_emits_one_hom_search_span_with_bounded_depths() {
    let (from, to) = path_into_cycle();
    let non_ground = from.atoms().filter(|a| !a.is_ground()).count() as u128;
    let text = traced_find(&from, &to);
    let lines = parse_trace(&text).unwrap();
    check_spans_well_formed(&lines).unwrap();
    let field =
        |l: &JsonValue, key: &str| l.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    let spans: Vec<_> = lines
        .iter()
        .filter(|l| field(l, "event").as_deref() == Some("span_opened"))
        .map(|l| field(l, "span"))
        .collect();
    assert_eq!(spans, [Some("hom_search".to_owned())], "{text}");
    let depths: Vec<u128> = lines
        .iter()
        .filter(|l| field(l, "event").as_deref() == Some("hom_extended"))
        .map(|l| l.get("depth").and_then(JsonValue::as_u128).unwrap())
        .collect();
    assert!(!depths.is_empty(), "{text}");
    assert!(
        depths.iter().all(|d| (1..=non_ground).contains(d)),
        "depths {depths:?} outside 1..={non_ground}"
    );
    assert_eq!(traced_find(&from, &to), text);
}
