//! CWA-machinery benchmarks (experiments E2, E4, E5): core computation,
//! CWA-presolution checking, homomorphism search, and the Example 5.3
//! solution enumeration.
//!
//! `cargo bench -p dex-bench --bench cwa`; set `DEX_BENCH_SMOKE=1` for a
//! tiny-size smoke run (any panic exits nonzero, so CI can gate on it).

use dex_chase::{canonical_universal_solution, ChaseBudget};
use dex_core::{core, Governor};
use dex_cwa::{enumerate_cwa_solutions, is_cwa_presolution, EnumLimits, SearchLimits};
use dex_datagen::example_2_1_scaled;
use dex_logic::{parse_instance, parse_setting, Setting};
use dex_testkit::bench::{sizes, Harness};

fn example_2_1() -> Setting {
    parse_setting(
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
    .unwrap()
}

fn bench_core_scaling(h: &mut Harness) {
    let setting = example_2_1();
    let budget = ChaseBudget::default();
    for n in sizes(&[4, 8, 16], &[4]) {
        let s = example_2_1_scaled(n);
        let canon = canonical_universal_solution(&setting, &s, &budget).unwrap();
        h.bench(&format!("core_of_canonical_solution/{n}"), || {
            core(&canon);
        });
    }
}

fn bench_presolution_check(h: &mut Harness) {
    let setting = example_2_1();
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
    let limits = SearchLimits::default();
    h.bench("is_cwa_presolution_t2", || {
        let gov = Governor::unlimited();
        assert_eq!(
            is_cwa_presolution(&setting, &s, &t2, &limits, &gov),
            Ok(Some(true))
        );
    });
}

fn bench_enumeration_example_5_3(h: &mut Harness) {
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
    for n in sizes(&[1, 2], &[1]) {
        let atoms: String = (1..=n).map(|i| format!("P({i}). ")).collect();
        let s = parse_instance(&atoms).unwrap();
        h.bench(&format!("enumerate_example_5_3/{n}"), || {
            let (sols, _) = enumerate_cwa_solutions(&setting, &s, &limits);
            assert_eq!(sols.len(), [4usize, 16][n - 1]);
        });
    }
}

fn bench_homomorphism_search(h: &mut Harness) {
    // Hom from a 2n-atom null chain into a 2-cycle (satisfiable) — the
    // engine primitive behind universality and core computation.
    for n in sizes(&[8, 16, 32], &[4]) {
        let mut from = dex_core::Instance::new();
        for i in 0..n {
            from.insert(dex_core::Atom::of(
                "E",
                vec![
                    dex_core::Value::null(i as u32),
                    dex_core::Value::null(i as u32 + 1),
                ],
            ));
        }
        let to = parse_instance("E(u,v). E(v,u).").unwrap();
        h.bench(&format!("hom_chain_into_cycle/{n}"), || {
            assert!(dex_core::has_homomorphism(&from, &to));
        });
    }
}

fn main() {
    let mut h = Harness::new("cwa");
    bench_core_scaling(&mut h);
    bench_presolution_check(&mut h);
    bench_enumeration_example_5_3(&mut h);
    bench_homomorphism_search(&mut h);
    h.finish();
}
