//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! 1. homomorphism search (fail-first atom ordering, dense binding slab)
//!    on an anchored null chain — the removed static-order and tree-map
//!    alternatives are recorded in EXPERIMENTS.md "Ablations";
//! 2. iso-signature bucketing in isomorphism dedup vs pairwise checks.
//!
//! `cargo bench -p dex-bench --bench ablation`; set `DEX_BENCH_SMOKE=1`
//! for a tiny-size smoke run (any panic exits nonzero).

use dex_core::{isomorphic, Atom, HomFinder, Instance, IsoDeduper, Value};
use dex_testkit::bench::{sizes, Harness};

/// A hom-search instance where ordering matters: a long null chain whose
/// *last* atom is the constrained one.
fn chain_with_anchor(n: usize) -> (Instance, Instance) {
    let mut from = Instance::new();
    for i in 0..n {
        from.insert(Atom::of(
            "E",
            vec![Value::null(i as u32), Value::null(i as u32 + 1)],
        ));
    }
    // Anchor: the chain end must land on a specific constant.
    from.insert(Atom::of("P", vec![Value::null(n as u32)]));
    let mut to = Instance::new();
    for i in 0..n {
        to.insert(Atom::of(
            "E",
            vec![
                Value::konst(&format!("v{i}")),
                Value::konst(&format!("v{}", i + 1)),
            ],
        ));
    }
    to.insert(Atom::of("P", vec![Value::konst(&format!("v{n}"))]));
    (from, to)
}

fn bench_hom_ordering(h: &mut Harness) {
    for n in sizes(&[6, 8, 10], &[4]) {
        let (from, to) = chain_with_anchor(n);
        h.bench(&format!("hom_ordering/fail_first/{n}"), || {
            assert!(HomFinder::new(&from, &to).find().is_some());
        });
    }
}

/// A stream with many isomorphic duplicates across a few classes.
fn iso_stream(classes: usize, copies: usize) -> Vec<Instance> {
    let mut out = Vec::new();
    for class in 0..classes {
        for copy in 0..copies {
            let shift = (copy * 100) as u32;
            let mut inst = Instance::new();
            // Class differs by chain length; copies differ by null labels.
            for i in 0..(class + 2) as u32 {
                inst.insert(Atom::of(
                    "E",
                    vec![Value::null(shift + i), Value::null(shift + i + 1)],
                ));
            }
            out.push(inst);
        }
    }
    out
}

fn bench_iso_dedup(h: &mut Harness) {
    for copies in sizes(&[10, 20, 40], &[4]) {
        let stream = iso_stream(6, copies);
        h.bench(&format!("iso_dedup/signature_buckets/{copies}"), || {
            let mut d = IsoDeduper::new();
            for i in &stream {
                d.insert(i.clone());
            }
            assert_eq!(d.len(), 6);
        });
        h.bench(&format!("iso_dedup/pairwise/{copies}"), || {
            let mut kept: Vec<Instance> = Vec::new();
            for i in &stream {
                if !kept.iter().any(|j| isomorphic(j, i)) {
                    kept.push(i.clone());
                }
            }
            assert_eq!(kept.len(), 6);
        });
    }
}

fn main() {
    let mut h = Harness::new("ablation");
    bench_hom_ordering(&mut h);
    bench_iso_dedup(&mut h);
    h.finish();
}
