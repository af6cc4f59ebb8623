//! Runs every non-Table-1 experiment of EXPERIMENTS.md (E2–E12) and
//! prints the paper-vs-measured comparison in one report.
//!
//! Run with: `cargo run --release -p dex-bench --bin experiments`

use dex_bench::time_micros;
use dex_chase::{alpha_chase, chase, AlphaOutcome, ChaseBudget, TableAlpha};
use dex_core::{isomorphic, Governor, Pool, Value};
use dex_cwa::{core_solution, enumerate_cwa_solutions, maximal_under_image, EnumLimits};
use dex_datagen::{example_2_1_scaled, sat_family};
use dex_logic::{parse_instance, parse_setting};
use dex_reductions::halting::{forever_right, right_walker, zigzag, HaltProbe, RunResult};
use dex_reductions::{
    d_emb, example_6_1_source, probe_halting, section_3_anomaly, solvable_via_certain_answers,
    unsat_via_certain_answers, z_mod_table, PathSystem,
};

fn header(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
}

fn main() {
    println!("Experiment report — CWA-Solutions for Data Exchange Settings");
    println!("(paper expectation vs measured; see EXPERIMENTS.md for discussion)");

    // ---------------------------------------------------------------
    header(
        "E2",
        "Examples 2.1 / 4.4 / 4.9 (α-chases and classification)",
    );
    let d21 = parse_setting(
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
    let s_star = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let a = Value::konst("a");
    let b = Value::konst("b");
    let cc = Value::konst("c");
    let j = |dep: usize, u: Value, v: Value, z: usize| dex_chase::Justification {
        dep,
        frontier: vec![u],
        body_only: vec![v],
        z_index: z,
    };
    let mut alpha1 = TableAlpha::new([
        (j(1, a, b, 0), Value::null(1)),
        (j(1, a, b, 1), Value::null(3)),
        (j(1, a, cc, 0), Value::null(2)),
        (j(1, a, cc, 1), Value::null(3)),
        (j(2, Value::null(3), a, 0), Value::null(4)),
    ]);
    let out1 = alpha_chase(&d21, &s_star, &mut alpha1, &ChaseBudget::default());
    println!(
        "α₁-chase: success = {} (paper: successful, result S ∪ T₂)",
        out1.is_success()
    );
    let mut alpha2 = TableAlpha::new([
        (j(1, a, b, 0), b),
        (j(1, a, b, 1), cc),
        (j(1, a, cc, 0), b),
        (j(1, a, cc, 1), Value::konst("d")),
    ]);
    let out2 = alpha_chase(&d21, &s_star, &mut alpha2, &ChaseBudget::default());
    println!(
        "α₂-chase: failing = {} (paper: failing, c ≠ d)",
        out2.is_failing()
    );
    let mut alpha3 = TableAlpha::new([
        (j(1, a, b, 0), b),
        (j(1, a, b, 1), Value::null(3)),
        (j(1, a, cc, 0), b),
        (j(1, a, cc, 1), Value::null(4)),
        (j(2, Value::null(3), a, 0), Value::null(1)),
        (j(2, Value::null(4), a, 0), Value::null(2)),
    ]);
    let out3 = alpha_chase(&d21, &s_star, &mut alpha3, &ChaseBudget::probe());
    println!(
        "α₃-chase: infinite loop detected = {} (paper: loops forever)",
        matches!(out3, AlphaOutcome::CycleDetected { .. })
    );

    // ---------------------------------------------------------------
    header("E3", "Section 3 anomaly (two 9-cycles, copying setting)");
    let report = section_3_anomaly(9);
    println!(
        "classical certain answers: {} nodes (paper: 9 — only the a-cycle)",
        report.classical_certain.len()
    );
    println!(
        "CWA certain answers:       {} nodes (paper: 18 — all nodes)",
        report.cwa_certain.len()
    );

    // ---------------------------------------------------------------
    header("E4", "Example 5.3: ≥2ⁿ pairwise-incomparable CWA-solutions");
    let d53 = parse_setting(
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
    for n in 1..=2usize {
        let src =
            parse_instance(&(1..=n).map(|i| format!("P({i}). ")).collect::<String>()).unwrap();
        let (sols, _) =
            enumerate_cwa_solutions(&d53, &src, &limits, &Governor::unlimited(), &Pool::seq());
        let maximal = maximal_under_image(&sols).len();
        println!(
            "n = {n}: {} CWA-solutions, {} incomparable maximal (paper: ≥ 2^{n} = {})",
            sols.len(),
            maximal,
            1 << n
        );
    }

    // ---------------------------------------------------------------
    header(
        "E5",
        "Theorem 5.1: the core is the minimal CWA-solution (timings)",
    );
    for n in [4usize, 8, 16] {
        let s = example_2_1_scaled(n);
        let micros = time_micros(3, || {
            let core = core_solution(&d21, &s, &ChaseBudget::default()).unwrap();
            std::hint::black_box(core);
        });
        println!(
            "chase+core for |S| = {}: {micros}µs (polynomial route, Prop 6.6)",
            n + 1
        );
    }

    // ---------------------------------------------------------------
    header("E6", "Prop 6.6: chase scaling on weakly acyclic settings");
    for n in [8usize, 16, 32, 64] {
        let s = example_2_1_scaled(n);
        let micros = time_micros(3, || {
            std::hint::black_box(chase(&d21, &s, &ChaseBudget::default()).unwrap());
        });
        println!("|S| = {:3}: {micros}µs", n + 1);
    }

    // ---------------------------------------------------------------
    header("E7", "Theorem 6.2: D_halt simulates Turing machines");
    for (name, tm) in [("walker(3)", right_walker(3)), ("zigzag", zigzag())] {
        let RunResult::Halted { trace } = tm.run_empty(1000) else {
            unreachable!()
        };
        let HaltProbe::Halts {
            chase_trace,
            chase_steps,
        } = probe_halting(&tm, &ChaseBudget::default())
        else {
            unreachable!("halting machine")
        };
        println!(
            "{name}: direct {} TM steps; chase {} steps; traces equal = {}",
            trace.len() - 1,
            chase_steps,
            chase_trace == trace
        );
    }
    let unknown = matches!(
        probe_halting(&forever_right(), &ChaseBudget::probe()),
        HaltProbe::Unknown { .. }
    );
    println!(
        "forever_right: budget exhausted = {unknown} (no CWA-solution; undecidable in general)"
    );

    // ---------------------------------------------------------------
    header("E8", "Example 6.1: D_emb has solutions but no CWA-solution");
    let demb = d_emb();
    let s61 = example_6_1_source();
    println!(
        "ℤ_3, ℤ_4, ℤ_5 are solutions: {}",
        [3usize, 4, 5]
            .iter()
            .all(|&k| demb.is_solution(&s61, &z_mod_table(k)))
    );
    println!(
        "ℤ_3 ↛ ℤ_4 (not universal): {}",
        !dex_core::has_homomorphism(&z_mod_table(3), &z_mod_table(4))
    );
    println!(
        "chase diverges: {}",
        chase(&demb, &s61, &ChaseBudget::probe()).is_err()
    );

    // ---------------------------------------------------------------
    header("E9", "Theorem 7.5: certain answers decide 3-SAT (vs DPLL)");
    let (sat, unsat) = sat_family(4, 4.3, 2, 77);
    let mut agreements = 0;
    let total = sat.len() + unsat.len();
    for c in sat.iter().chain(&unsat) {
        if unsat_via_certain_answers(c).unwrap() != c.is_satisfiable() {
            agreements += 1;
        }
    }
    println!("reduction agrees with DPLL on {agreements}/{total} labelled formulas");

    // ---------------------------------------------------------------
    header("E10/E12", "Theorem 7.6 + Prop 7.8: path systems in PTIME");
    for n in [16usize, 32, 64] {
        let ps = PathSystem::chain(n);
        let micros = time_micros(3, || {
            std::hint::black_box(solvable_via_certain_answers(&ps).unwrap());
        });
        println!(
            "chain({n}): certain answers in {micros}µs, all {} nodes solvable",
            n + 2
        );
    }

    // ---------------------------------------------------------------
    header("E11", "Theorem 7.1 / Corollary 7.2 sanity (see tests/)");
    let core = core_solution(&d21, &s_star, &ChaseBudget::default()).unwrap();
    println!(
        "core of Example 2.1 = T₃ up to renaming: {}",
        isomorphic(
            &core,
            &parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap()
        )
    );
    println!("\nDone.");
}
