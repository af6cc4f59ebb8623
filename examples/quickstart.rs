//! Quickstart: Example 2.1 of the paper, end to end.
//!
//! Builds the data exchange setting D* and source S*, runs the standard
//! chase and the α-chase, checks which of the paper's target instances
//! T₁/T₂/T₃ are solutions / universal solutions / CWA-solutions, and
//! computes the core (the unique minimal CWA-solution, Theorem 5.1).
//!
//! Run with: `cargo run --release --example quickstart`

use cwa_dex::core::Governor;
use cwa_dex::prelude::*;

fn main() {
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
    .expect("Example 2.1 setting parses");
    let source = parse_instance("M(a,b). N(a,b). N(a,c).").expect("source parses");

    println!("=== Example 2.1 (Hernich & Schweikardt, PODS 2007) ===\n");
    println!("Setting D*:\n{setting}");
    println!("Source S* = {source}\n");
    println!(
        "weakly acyclic: {}, richly acyclic: {}\n",
        is_weakly_acyclic(&setting),
        is_richly_acyclic(&setting)
    );

    // The paper's three candidate target instances.
    let t1 = parse_instance("E(a,b). E(a,_1). E(c,_2). F(a,d). G(d,_3).").unwrap();
    let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
    let t3 = parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap();

    let budget = ChaseBudget::default();
    let limits = SearchLimits::default();
    let gov = Governor::unlimited();
    for (name, t) in [("T1", &t1), ("T2", &t2), ("T3", &t3)] {
        let sol = setting.is_solution(&source, t);
        let uni = is_universal_solution(&setting, &source, t, &budget, &gov).unwrap();
        let cwa = is_cwa_solution(&setting, &source, t, &budget, &limits, &gov)
            .unwrap()
            .expect("search within limits");
        println!("{name} = {t}");
        println!("    solution: {sol:5}  universal: {uni:5}  CWA-solution: {cwa:5}\n");
    }

    // The standard chase computes the canonical universal solution.
    let chased = chase(&setting, &source, &budget).expect("chase succeeds");
    println!(
        "canonical universal solution ({} steps): {}",
        chased.steps, chased.target
    );

    // Its core is the minimal CWA-solution (Theorem 5.1) — T3 up to
    // renaming of nulls.
    let core = core_solution(&setting, &source, &budget).unwrap();
    println!("core (minimal CWA-solution):          {core}");
    assert!(isomorphic(&core, &t3));

    // Replay the paper's α₁ (Example 4.4): a successful α-chase whose
    // result is exactly S* ∪ T₂.
    let a = Value::konst("a");
    let b = Value::konst("b");
    let c = Value::konst("c");
    let j = |dep: usize, u: Value, v: Value, z: usize| Justification {
        dep,
        frontier: vec![u],
        body_only: vec![v],
        z_index: z,
    };
    let mut alpha1 = TableAlpha::new([
        (j(1, a, b, 0), Value::null(1)),
        (j(1, a, b, 1), Value::null(3)),
        (j(1, a, c, 0), Value::null(2)),
        (j(1, a, c, 1), Value::null(3)),
        (j(2, Value::null(3), a, 0), Value::null(4)),
    ]);
    let outcome = alpha_chase(&setting, &source, &mut alpha1, &budget);
    let success = outcome.success().expect("α₁-chase succeeds");
    println!("\nα₁-chase of Example 4.4 ({} steps):", success.steps);
    for (i, step) in success.trace.iter().enumerate() {
        println!("  I{} → I{}: {step}", i, i + 1);
    }
    println!("result target = {}", success.target);
    assert_eq!(success.target, t2);

    println!("\nAll assertions hold — Example 2.1 reproduced.");
}
