//! # dex-testkit
//!
//! In-tree, zero-dependency test infrastructure so the workspace builds
//! and tests hermetically — no registry, no network, no vendor dir:
//!
//! - [`rng`]: a seeded xoshiro256++ PRNG (SplitMix64 seed expansion) with
//!   the small slice of the `rand` API the workload generators use
//!   (`gen_range`, `gen_bool`, `shuffle`, `choose`);
//! - [`prop`]: a minimal property-testing harness — composable
//!   generators, a seeded case runner that reports the failing case's
//!   seed, and greedy input shrinking for `Vec`-shaped inputs;
//! - [`bench`](mod@bench): a wall-clock bench harness (warmup + median/p95 over N
//!   runs, text report) for the `harness = false` bench mains in
//!   `crates/bench/benches/`;
//! - [`fault`]: seeded fault-injection plans (`FaultPlan`) that decide,
//!   deterministically per seed, where a governed search gets tripped —
//!   replayable via `DEX_FAULT_SEED`;
//! - [`core_ref`]: a naive reference core (the whole-instance retract
//!   iteration) over plain atoms, the oracle core retraction is
//!   differential-tested against.
//!
//! Everything is deterministic given a seed; nothing here reads the
//! system RNG or the clock except the bench timer.

pub mod bench;
pub mod core_ref;
pub mod fault;
pub mod prop;
pub mod rng;

pub use bench::Harness;
pub use fault::FaultPlan;
pub use prop::{Gen, Runner};
pub use rng::TestRng;
