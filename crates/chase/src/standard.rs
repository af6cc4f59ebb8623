//! The standard (restricted) chase with tgds and egds (Section 2, as in
//! \[FKMP05\]): from a ground source instance it computes the canonical
//! universal solution, fails on an egd equating distinct constants, or
//! exceeds its budget (necessarily so for non-terminating settings).
//!
//! The restricted chase fires a tgd trigger only when the head is not
//! already satisfiable in the current instance (condition (2) of the
//! paper's Remark 4.3) — the classical procedure that terminates in
//! polynomially many steps on weakly acyclic settings.
//!
//! [`chase`] runs the delta-driven [`ChaseEngine`]. The reference
//! [`chase_naive`] runs the one naive driver of [`crate::alpha`] under
//! its restricted policy (fresh nulls, fire when the head does not hold).

use crate::alpha::{naive_chase, AlphaOutcome, NaivePolicy};
use crate::budget::ChaseBudget;
use crate::engine::ChaseEngine;
use crate::stats::ChaseStats;
use crate::witness::ConflictWitness;
use dex_core::govern::{Clock, Interrupt};
use dex_core::{Instance, NullGen, Value};
use dex_logic::Setting;
use std::fmt;

/// Why a chase run did not produce a solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// An egd tried to equate two distinct constants — no solution
    /// exists. The witness carries the violating trigger and (when the
    /// run recorded provenance) the source-atom conflict set.
    EgdConflict { witness: Box<ConflictWitness> },
    /// The step/atom budget was exhausted; the chase may be
    /// non-terminating. (Enforced exactly, unlike `Interrupted`.)
    BudgetExceeded { steps: usize, atoms: usize },
    /// The budget's deadline passed or its cancel flag was raised.
    Interrupted(Interrupt),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::EgdConflict { witness } => {
                write!(
                    f,
                    "egd {} failed: cannot identify constants {} and {}",
                    witness.egd, witness.left, witness.right
                )
            }
            ChaseError::BudgetExceeded { steps, atoms } => {
                write!(
                    f,
                    "chase budget exceeded after {steps} steps ({atoms} atoms)"
                )
            }
            ChaseError::Interrupted(i) => write!(f, "chase {i}"),
        }
    }
}

impl std::error::Error for ChaseError {}

impl From<Interrupt> for ChaseError {
    fn from(i: Interrupt) -> ChaseError {
        ChaseError::Interrupted(i)
    }
}

/// A successful chase run.
#[derive(Clone, Debug)]
pub struct ChaseSuccess {
    /// The full result over `σ ∪ τ`.
    pub result: Instance,
    /// The target part (the canonical universal solution).
    pub target: Instance,
    /// Number of chase steps performed.
    pub steps: usize,
    /// Observability counters for the run.
    pub stats: ChaseStats,
    /// Per-atom derivations, when the run was started with
    /// [`crate::ChaseEngine::with_provenance`] (the naive drivers never
    /// record any).
    pub provenance: Option<crate::provenance::Provenance>,
}

/// One applied egd repair: the new instance and what was renamed.
#[derive(Clone, Debug)]
pub struct EgdRepair {
    pub instance: Instance,
    pub egd: String,
    pub from: Value,
    pub to: Value,
}

/// Resolves one egd violation. Returns:
/// - `Ok(Some(repair))` if a violation was found and repaired,
/// - `Ok(None)` if no violation exists,
/// - `Err(..)` if a violation equates distinct constants.
pub fn egd_step(setting: &Setting, inst: &Instance) -> Result<Option<EgdRepair>, ChaseError> {
    for (ei, egd) in setting.egds.iter().enumerate() {
        if let Some(env) = egd.first_violation(inst).as_ref() {
            let l = env.get(egd.lhs).expect("egd body binds lhs");
            let r = env.get(egd.rhs).expect("egd body binds rhs");
            let (from, to) = match (l, r) {
                (Value::Const(_), Value::Const(_)) => {
                    return Err(ChaseError::EgdConflict {
                        witness: Box::new(ConflictWitness::from_trigger(egd, ei, env, l, r)),
                    })
                }
                // Replace the null by the other value; when both are nulls
                // the larger label is replaced by the smaller (footnote 4).
                (Value::Null(a), Value::Null(b)) => {
                    if a > b {
                        (l, r)
                    } else {
                        (r, l)
                    }
                }
                (Value::Null(_), Value::Const(_)) => (l, r),
                (Value::Const(_), Value::Null(_)) => (r, l),
            };
            return Ok(Some(EgdRepair {
                instance: inst.rename_value(from, to),
                egd: egd.name.clone(),
                from,
                to,
            }));
        }
    }
    Ok(None)
}

/// Runs the standard restricted chase of `source` with the dependencies of
/// `setting`, using the delta-driven [`ChaseEngine`].
pub fn chase(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<ChaseSuccess, ChaseError> {
    ChaseEngine::new(setting, budget).run(source)
}

/// The naive reference chase: `alpha::naive_chase` under the
/// restricted policy. Retained as the differential-testing and ablation
/// baseline for [`chase`]; same outcome contract.
pub fn chase_naive(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<ChaseSuccess, ChaseError> {
    let nulls = NullGen::above(source.values());
    match naive_chase(
        setting,
        source,
        NaivePolicy::Restricted(nulls),
        budget,
        &budget.governor(&Clock::real()),
    ) {
        AlphaOutcome::Success(s) => Ok(ChaseSuccess {
            result: s.result,
            target: s.target,
            steps: s.steps,
            stats: s.stats,
            provenance: None,
        }),
        AlphaOutcome::Failing { witness, .. } => Err(ChaseError::EgdConflict { witness }),
        AlphaOutcome::BudgetExceeded { steps, atoms } => {
            Err(ChaseError::BudgetExceeded { steps, atoms })
        }
        AlphaOutcome::Interrupted(i) => Err(ChaseError::Interrupted(i)),
        AlphaOutcome::CycleDetected { .. } => {
            unreachable!("the restricted policy keeps no state hashes")
        }
    }
}

/// The canonical universal solution for `source` under `setting`, if the
/// chase succeeds within budget.
pub fn canonical_universal_solution(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<Instance, ChaseError> {
    chase(setting, source, budget).map(|s| s.target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{hom_equivalent, Atom};
    use dex_logic::{parse_instance, parse_setting};

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

    fn s_star() -> Instance {
        parse_instance("M(a,b). N(a,b). N(a,c).").unwrap()
    }

    #[test]
    fn example_2_1_chase_succeeds_with_solution() {
        let d = example_2_1();
        let s = s_star();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        assert!(d.is_solution(&s, &out.target));
        // The canonical solution is hom-equivalent to T2 of the paper.
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        assert!(hom_equivalent(&out.target, &t2));
    }

    #[test]
    fn egds_merge_f_successors() {
        // N(a,b) and N(a,c) both create F(a,·) nulls; d4 merges them.
        let d = example_2_1();
        let out = chase(&d, &s_star(), &ChaseBudget::default()).unwrap();
        assert_eq!(out.target.rows_of_len("F".into()), 1);
    }

    #[test]
    fn egd_conflict_on_constants_fails() {
        let d = parse_setting(
            "source { P/2 }
             target { F/2 }
             st { P(x,y) -> F(x,y); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a,b). P(a,c).").unwrap();
        let err = chase(&d, &s, &ChaseBudget::default()).unwrap_err();
        assert!(matches!(err, ChaseError::EgdConflict { .. }));
    }

    #[test]
    fn egd_null_const_merge_succeeds() {
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               P(x) -> exists z . F(x,z);
               Q(x,y) -> F(x,y);
             }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,b).").unwrap();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        // The null created for P(a) is merged with b.
        assert_eq!(out.target.len(), 1);
        assert!(out
            .target
            .contains(&Atom::of("F", vec![Value::konst("a"), Value::konst("b")])));
    }

    #[test]
    fn restricted_chase_does_not_refire_satisfied_triggers() {
        // P(x) -> exists z. E(x,z) with E already derivable once: one null.
        let d = parse_setting(
            "source { P/1 }
             target { E/2 }
             st { P(x) -> exists z . E(x,z); }",
        )
        .unwrap();
        let s = parse_instance("P(a).").unwrap();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        assert_eq!(out.target.len(), 1);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn non_terminating_setting_exceeds_budget() {
        // E(x,y) → ∃z E(y,z) on a cycle-free source grows forever under
        // the *oblivious* chase but the restricted chase terminates...
        // Use the genuinely diverging variant with two relations:
        // A(x) → ∃z B(x,z); B(x,z) → A(z).
        let d = parse_setting(
            "source { S/1 }
             target { A/1, B/2 }
             st { S(x) -> A(x); }
             t {
               A(x) -> exists z . B(x,z);
               B(x,z) -> A(z);
             }",
        )
        .unwrap();
        let s = parse_instance("S(a).").unwrap();
        let err = chase(&d, &s, &ChaseBudget::probe()).unwrap_err();
        assert!(matches!(err, ChaseError::BudgetExceeded { .. }));
    }

    #[test]
    fn restricted_chase_terminates_on_self_loop_source() {
        // E'(x,y) → ∃z E'(y,z): with a self-loop E'(a,a) in the source the
        // head is already satisfied — restricted chase stops immediately.
        let d = parse_setting(
            "source { E/2 }
             target { Ep/2 }
             st { E(x,y) -> Ep(x,y); }
             t { Ep(x,y) -> exists z . Ep(y,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,a).").unwrap();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        assert_eq!(out.target.len(), 1);
    }

    #[test]
    fn full_tgds_compute_datalog_closure() {
        // Transitive closure via a full target tgd.
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        assert_eq!(out.target.len(), 6); // all pairs (i<j) of the path
        assert!(out
            .target
            .contains(&Atom::of("T", vec![Value::konst("a"), Value::konst("d")])));
    }

    #[test]
    fn empty_source_has_empty_solution() {
        let d = example_2_1();
        let out = chase(&d, &Instance::new(), &ChaseBudget::default()).unwrap();
        assert!(out.target.is_empty());
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn atom_budget_enforced_at_insertion_time() {
        // A single wide-head firing may overshoot the atom budget by at
        // most one atom (the insert that trips the check), in both the
        // delta engine and the naive driver. Before insertion-time
        // enforcement, one firing of this 8-atom head blew past a budget
        // of 2 by 7 atoms unchecked.
        let d = parse_setting(
            "source { P/1 }
             target { Q1/1, Q2/1, Q3/1, Q4/1, Q5/1, Q6/1, Q7/1, Q8/1 }
             st {
               P(x) -> Q1(x) & Q2(x) & Q3(x) & Q4(x)
                     & Q5(x) & Q6(x) & Q7(x) & Q8(x);
             }",
        )
        .unwrap();
        let s = parse_instance("P(a).").unwrap();
        let budget = ChaseBudget::new(100, 2);
        for (which, result) in [
            ("engine", chase(&d, &s, &budget)),
            ("naive", chase_naive(&d, &s, &budget)),
        ] {
            match result.unwrap_err() {
                ChaseError::BudgetExceeded { atoms, .. } => assert!(
                    atoms <= budget.max_atoms + 1,
                    "{which}: overshoot to {atoms} atoms (budget {})",
                    budget.max_atoms
                ),
                other => panic!("{which}: expected budget error, got {other:?}"),
            }
        }
    }

    #[test]
    fn naive_and_engine_agree_on_example_2_1() {
        let d = example_2_1();
        let s = s_star();
        let fast = chase(&d, &s, &ChaseBudget::default()).unwrap();
        let slow = chase_naive(&d, &s, &ChaseBudget::default()).unwrap();
        assert!(hom_equivalent(&fast.target, &slow.target));
        assert!(fast.stats.validate().is_ok());
        assert!(slow.stats.validate().is_ok());
    }

    #[test]
    fn chase_result_is_universal_maps_into_other_solutions() {
        let d = example_2_1();
        let s = s_star();
        let out = chase(&d, &s, &ChaseBudget::default()).unwrap();
        // T1 from the paper is a solution; the canonical solution must map
        // into it.
        let t1 = parse_instance("E(a,b). E(a,_1). E(c,_2). F(a,d). G(d,_3).").unwrap();
        assert!(d.is_solution(&s, &t1));
        assert!(dex_core::has_homomorphism(&out.target, &t1));
    }
}
