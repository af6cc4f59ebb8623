//! Example 5.3: maximal CWA-solutions need not exist — already a tiny
//! setting has exponentially many pairwise-incomparable CWA-solutions.
//!
//! This example enumerates all CWA-solutions for S_n = {P(1), …, P(n)}
//! up to isomorphism, identifies the ⊑-maximal ones (not a homomorphic
//! image of any other), and shows the ≥2ⁿ growth the paper proves.
//!
//! Run with: `cargo run --release --example cwa_enumeration`

use cwa_dex::core::{Governor, Pool};
use cwa_dex::cwa::{enumerate_cwa_solutions, maximal_under_image, EnumLimits};
use cwa_dex::prelude::*;

fn main() {
    let setting = parse_setting(
        "source { P/1 }
         target { E/3, F/3 }
         st {
           d1: P(x) -> exists z1,z2,z3,z4 . E(x,z1,z3) & E(x,z2,z4);
         }
         t {
           d2: E(x,x1,y) & E(x,x2,y) -> F(x,x1,x2);
         }",
    )
    .unwrap();
    println!("=== Example 5.3 ===\n{setting}");

    let limits = EnumLimits {
        nulls_only: true, // complete here: no egds, no constants in deps
        ..EnumLimits::default()
    };

    for n in 1..=2usize {
        let atoms: String = (1..=n).map(|i| format!("P({i}). ")).collect();
        let source = parse_instance(&atoms).unwrap();
        let (sols, stats) = enumerate_cwa_solutions(
            &setting,
            &source,
            &limits,
            &Governor::unlimited(),
            &Pool::seq(),
        );
        let maximal = maximal_under_image(&sols);
        println!(
            "n = {n}: {} CWA-solutions up to renaming of nulls, {} of them ⊑-maximal \
             (explored {} α-scripts)",
            sols.len(),
            maximal.len(),
            stats.scripts_explored
        );
        assert!(
            maximal.len() >= 1 << n,
            "the paper proves ≥ 2^n pairwise-incomparable CWA-solutions"
        );
        if n == 1 {
            println!("  the paper's two incomparable witnesses:");
            let t = parse_instance("E(1,_1,_3). E(1,_2,_4). F(1,_1,_1). F(1,_2,_2).").unwrap();
            let t_prime = parse_instance(
                "E(1,_1,_3). E(1,_2,_3). F(1,_1,_1). F(1,_2,_2). F(1,_1,_2). F(1,_2,_1).",
            )
            .unwrap();
            for (name, witness) in [("T ", &t), ("T'", &t_prime)] {
                let found = maximal.iter().any(|x| isomorphic(x, witness));
                println!("    {name} = {witness}   maximal: {found}");
                assert!(found);
            }
        }
    }

    println!(
        "\nContrast: for settings with egds only, or with full tgds only, a unique\n\
         maximal CWA-solution CanSol exists (Proposition 5.4):"
    );
    let restricted = parse_setting(
        "source { P/1, Q/2 }
         target { F/2 }
         st {
           d1: P(x) -> exists z . F(x,z);
           d2: Q(x,y) -> F(x,y);
         }
         t { key: F(x,y) & F(x,z) -> y = z; }",
    )
    .unwrap();
    let source = parse_instance("P(a). Q(a,c). P(b).").unwrap();
    let can = cansol(&restricted, &source, &ChaseBudget::default())
        .unwrap()
        .expect("egds-only class");
    println!("  CanSol = {can}");
}
