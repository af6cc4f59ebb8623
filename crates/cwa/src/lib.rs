//! # dex-cwa
//!
//! CWA-presolutions and CWA-solutions for data exchange settings with
//! target dependencies (Hernich & Schweikardt, PODS 2007, Sections 4-5):
//!
//! - deciding CWA-presolutionship by derivation search and extracting
//!   witnessing α-tables ([`presolution`]);
//! - CWA-solution checks via Theorem 4.8, existence via Corollary 5.2,
//!   and the core as the unique minimal CWA-solution per Theorem 5.1
//!   ([`solution`]);
//! - the canonical maximal solution `CanSol` for Proposition 5.4's
//!   restricted setting classes ([`cansol`](mod@cansol));
//! - exhaustive enumeration of CWA-solutions up to isomorphism, used to
//!   reproduce Example 5.3's exponentially many incomparable solutions
//!   ([`enumerate`]).

pub mod cansol;
pub mod enumerate;
pub mod presolution;
pub mod solution;

pub use cansol::{cansol, cansol_class, CanSolClass};
pub use enumerate::{
    enumerate_cwa_presolutions, enumerate_cwa_solutions, maximal_under_image, EnumLimits, EnumStats,
};
pub use presolution::{
    is_cwa_presolution, presolution_alpha_table, presolution_justifications, SearchLimits,
};
pub use solution::{
    core_solution, core_solution_governed, cwa_solution_exists, is_cwa_solution,
    is_homomorphic_image_of, is_minimal_cwa_solution, is_universal_solution,
};
