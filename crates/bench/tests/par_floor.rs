//! Spawn-floor regression guards (ISSUE 6): paper-sized jobs must never
//! reach the worker pool. The original scoped runtime spawned threads for
//! every `map`/`find_first`, which made parallel `core_of` ~10× *slower*
//! than sequential at Example 2.1 size. With the calibrated fallback,
//! below-threshold jobs run inline on the calling thread — no job
//! dispatch, no worker spawn, and parallel timing within noise of the
//! sequential reference.
//!
//! This lives in its own integration-test binary (its own process) so the
//! process-global `jobs_dispatched`/`workers_spawned` counters are not
//! perturbed by the threshold-zero differential suite in `tests/par.rs`.

use dex_chase::{canonical_universal_solution, ChaseBudget};
use dex_core::govern::Governor;
use dex_core::{
    core, core_parallel_governed, par_jobs_dispatched, par_workers_spawned, Instance, Pool,
};
use dex_logic::{parse_setting, Setting};
use std::time::Instant;

/// The Example 2.1 setting used by the core scaling bench.
fn example_setting() -> Setting {
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

fn paper_sized_canonical() -> Instance {
    let setting = example_setting();
    let s = dex_datagen::example_2_1_scaled(16);
    canonical_universal_solution(&setting, &s, &ChaseBudget::default()).unwrap()
}

/// Below-threshold jobs execute inline: a production-configured 8-thread
/// pool running `core_of` at paper size dispatches zero pool jobs and
/// spawns zero workers.
#[test]
fn paper_sized_core_runs_inline() {
    let canon = paper_sized_canonical();
    let pool = Pool::new(8);
    let jobs_before = par_jobs_dispatched();
    let spawned_before = par_workers_spawned();
    let c = core_parallel_governed(&canon, &Governor::unlimited(), &pool).instance;
    assert_eq!(c, core(&canon));
    assert_eq!(
        par_jobs_dispatched(),
        jobs_before,
        "paper-sized core_of dispatched a pool job; the sequential fallback regressed"
    );
    assert_eq!(
        par_workers_spawned(),
        spawned_before,
        "paper-sized core_of spawned pool workers; the spawn floor regressed"
    );
}

/// Parallel `core_of` at Example 2.1 size stays within noise of the
/// sequential reference (the 0.09–0.12× regression this PR fixes). The
/// inline fallback makes the two paths nearly identical, so a generous
/// 3× median bound plus absolute slack keeps this stable on loaded CI.
#[test]
fn paper_sized_parallel_core_within_noise_of_sequential() {
    let canon = paper_sized_canonical();
    let pool = Pool::new(8);
    let median_of = |f: &mut dyn FnMut()| {
        let mut samples: Vec<u128> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let seq_ns = median_of(&mut || {
        std::hint::black_box(core(&canon));
    });
    let par_ns = median_of(&mut || {
        std::hint::black_box(core_parallel_governed(
            &canon,
            &Governor::unlimited(),
            &pool,
        ));
    });
    assert!(
        par_ns <= seq_ns * 3 + 50_000,
        "parallel core_of {par_ns}ns vs sequential {seq_ns}ns at paper size \
         — beyond noise; the sequential fallback is not engaging"
    );
}
