//! # dex-core
//!
//! Foundations for relational data exchange with incomplete information,
//! following Hernich & Schweikardt, *CWA-Solutions for Data Exchange
//! Settings with Target Dependencies* (PODS 2007), Section 2:
//!
//! - the value universe `Dom = Const ∪ Null` ([`value`], [`symbol`]),
//! - atoms, schemas and instances ([`atom`](mod@atom), [`schema`], [`instance`]),
//! - homomorphisms and homomorphic equivalence ([`homomorphism`]),
//! - cores of instances ([`core_of`]),
//! - isomorphism up to renaming of nulls ([`isomorphism`]),
//! - valuations and `Rep`-style enumeration ([`valuation`]),
//! - the word hasher of every id-keyed map ([`hash`]).
//!
//! Higher layers (dependencies, the chase, CWA-solutions, query answering)
//! live in the `dex-logic`, `dex-chase`, `dex-cwa` and `dex-query` crates.

pub mod atom;
pub mod core_of;
pub mod delta;
pub mod govern;
pub mod hash;
pub mod homomorphism;
pub mod instance;
pub mod isomorphism;
pub mod schema;
pub mod symbol;
pub mod unionfind;
pub mod valuation;
pub mod value;

pub use atom::Atom;
pub use core_of::{
    core, core_parallel_governed, is_core, null_blocks, rigid_nulls, CoreStatus, GovernedCore,
};
pub use delta::SourceDelta;
pub use hash::{IdMap, IdSet};
// Re-exported so higher layers can size worker pools without a separate
// `dex-par` dependency line.
pub use dex_par::{
    chunk_ranges, export_metrics as par_export_metrics, jobs_dispatched as par_jobs_dispatched,
    jobs_inline as par_jobs_inline, range_cost, set_pool_tracer,
    workers_spawned as par_workers_spawned, Cost, Pool,
};
pub use govern::{
    Clock, Governor, Interrupt, InterruptReason, MockClock, Progress, Verdict, CHECK_INTERVAL,
};
pub use homomorphism::{
    find_homomorphism, has_homomorphism, hom_equivalent, HomFinder, Homomorphism,
};
pub use instance::{Candidates, DeltaCursor, Instance};
pub use isomorphism::{dedup_up_to_iso, iso_signature, isomorphic, IsoDeduper};
pub use schema::{Schema, SchemaError};
pub use symbol::Symbol;
pub use unionfind::{merge_policy, MergeOutcome, ValueUnionFind};
pub use valuation::{
    fresh_constant_pool, standard_pool, Bounded, BoundedExt, MixedRadixValuations, Valuation,
    ValuationIter,
};
pub use value::{NullGen, NullId, Value};
