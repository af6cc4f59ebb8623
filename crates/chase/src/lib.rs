//! # dex-chase
//!
//! Chase procedures for data exchange:
//!
//! - the classical restricted chase with tgds and egds ([`standard`]),
//!   which computes canonical universal solutions and detects egd
//!   failures (Section 2);
//! - the α-chase of Hernich & Schweikardt (Definitions 4.1/4.2), in which
//!   each existential value is fixed by a justification through a mapping
//!   `α: J_D → Dom` ([`alpha`]) — the device defining CWA-presolutions.
//!
//! All chases are budgeted ([`budget`]) because general settings can make
//! them run forever (Theorem 6.2).

pub mod alpha;
pub mod budget;
pub mod egd_scan;
pub mod engine;
pub mod provenance;
pub mod standard;
pub mod stats;
pub mod witness;

pub use alpha::{
    alpha_chase, alpha_chase_naive, canonical_presolution, AlphaOutcome, AlphaSource, AlphaSuccess,
    ChaseStep, FreshAlpha, Justification, TableAlpha,
};
pub use budget::{ChaseBudget, ChaseLimitsExt};
pub use egd_scan::{EgdScan, EgdViolation};
pub use engine::ChaseEngine;
pub use provenance::{ChainStep, Derivation, JustificationChain, MergeRecord, Provenance};
pub use standard::{
    canonical_universal_solution, chase, chase_naive, egd_step, ChaseError, ChaseSuccess, EgdRepair,
};
pub use stats::ChaseStats;
pub use witness::ConflictWitness;
