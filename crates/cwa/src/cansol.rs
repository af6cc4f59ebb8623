//! The canonical (maximal) CWA-solution `CanSol_D(S)` for the restricted
//! setting classes of Proposition 5.4:
//!
//! 1. `Σ_t` consists of egds only, or
//! 2. `Σ_st` and `Σ_t` consist of egds and full tgds.
//!
//! For class 1, `CanSol` is Libkin's canonical solution (every
//! justification instantiated with its own fresh nulls) followed by egd
//! merging: the merge is folded *into* α (each justification maps directly
//! to the merged value), which is exactly why the naive fresh-α chase may
//! diverge while `CanSol` still exists. The merging runs through the
//! chase's semi-naive [`EgdScan`]: one pass over the presolution that
//! re-checks only the rows each merge rewrites, instead of a full egd
//! join per merge. For class 2 there are no existential variables at
//! all, so the (unique) CWA-presolution is the standard chase result.

use dex_chase::{ChaseBudget, ChaseError, EgdScan};
use dex_core::{merge_policy, DeltaCursor, Instance, NullGen, Value};
use dex_logic::Setting;

/// Which of Proposition 5.4's classes a setting falls into.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CanSolClass {
    /// Target dependencies are egds only (arbitrary s-t tgds).
    EgdsOnlyTarget,
    /// All tgds (s-t and target) are full; target may also have egds.
    FullTgdsAndEgds,
    /// Neither — a unique maximal CWA-solution is not guaranteed
    /// (Example 5.3 exhibits exponentially many incomparable ones).
    NotGuaranteed,
}

/// Classifies `setting` per Proposition 5.4.
pub fn cansol_class(setting: &Setting) -> CanSolClass {
    if setting.t_tgds.is_empty() {
        return CanSolClass::EgdsOnlyTarget;
    }
    if setting.is_full_st() && setting.target_tgds_are_full() {
        return CanSolClass::FullTgdsAndEgds;
    }
    CanSolClass::NotGuaranteed
}

/// Computes `CanSol_D(S)` for settings in Proposition 5.4's classes.
/// Returns `Ok(None)` when the setting is in neither class, and
/// `Err(EgdConflict)` when no solution exists.
pub fn cansol(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<Option<Instance>, ChaseError> {
    match cansol_class(setting) {
        CanSolClass::NotGuaranteed => Ok(None),
        CanSolClass::FullTgdsAndEgds => {
            // No existentials anywhere: the standard chase result is the
            // unique CWA-presolution (and CanSol).
            let s = dex_chase::chase(setting, source, budget)?;
            Ok(Some(s.target))
        }
        CanSolClass::EgdsOnlyTarget => {
            let gov = budget.governor(&dex_core::govern::Clock::real());
            // 1. Libkin's canonical presolution: fire every s-t trigger
            //    once with fresh nulls (no target tgds exist). The target
            //    is built alone: the schemas are disjoint and the egds
            //    mention target relations only.
            //    The s-t matches stream from the source while the target
            //    is written.
            let mut inst = Instance::new();
            let mut nulls = NullGen::above(source.values());
            let mut full = dex_logic::Assignment::new();
            for tgd in &setting.st_tgds {
                let mut checked = Ok(());
                tgd.body.for_each_match(source, &mut |env| {
                    checked = gov.check();
                    if checked.is_err() {
                        return false;
                    }
                    full.clone_from(env);
                    for &z in &tgd.exist_vars {
                        full.bind(z, nulls.fresh_value());
                    }
                    for atom in tgd.instantiate_head(&full) {
                        inst.insert(atom);
                    }
                    true
                });
                checked?;
            }
            // 2. Egd merging to fixpoint, in place: each violation the
            //    scan finds is resolved by the footnote-4 policy (the raw
            //    pair, as in the α-chase) and applied through
            //    `Instance::merge_value`, whose re-appended rows are all
            //    the scan re-checks. The merge homomorphism composed with
            //    the fresh α is the witnessing α for the result.
            gov.force_check()?;
            let mut steps = 0usize;
            EgdScan::new(&setting.egds).fixpoint(&mut inst, DeltaCursor::origin(), |inst, v| {
                gov.force_check()?;
                if steps >= budget.max_steps {
                    return Err(ChaseError::BudgetExceeded {
                        steps,
                        atoms: inst.len(),
                    });
                }
                match merge_policy(v.left, v.right) {
                    Err((c, d)) => Err(ChaseError::EgdConflict {
                        witness: Box::new(dex_chase::ConflictWitness::from_trigger(
                            &setting.egds[v.egd_index],
                            v.egd_index,
                            &v.env,
                            Value::Const(c),
                            Value::Const(d),
                        )),
                    }),
                    Ok(Some(m)) => {
                        inst.merge_value(m.loser, m.winner);
                        steps += 1;
                        Ok(true)
                    }
                    Ok(None) => unreachable!("the egd scan reports unequal sides only"),
                }
            })?;
            Ok(Some(inst))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presolution::{is_cwa_presolution, SearchLimits};
    use crate::solution::{is_cwa_solution, is_homomorphic_image_of};
    use dex_core::{Governor, Value};
    use dex_logic::{parse_instance, parse_setting};

    #[test]
    fn classification() {
        let egds_only = parse_setting(
            "source { P/1 }
             target { F/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        assert_eq!(cansol_class(&egds_only), CanSolClass::EgdsOnlyTarget);

        let full = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        assert_eq!(cansol_class(&full), CanSolClass::FullTgdsAndEgds);

        let general = parse_setting(
            "source { P/1 }
             target { F/2, G/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) -> exists w . G(y,w); }",
        )
        .unwrap();
        assert_eq!(cansol_class(&general), CanSolClass::NotGuaranteed);
    }

    /// Egds-only class: CanSol exists even when the fresh-α chase
    /// diverges (the egd folds nulls onto a constant).
    #[test]
    fn cansol_with_constant_forcing_egd() {
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               d1: P(x) -> exists z . F(x,z);
               d2: Q(x,y) -> F(x,y);
             }
             t { key: F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,c).").unwrap();
        let t = cansol(&d, &s, &ChaseBudget::default()).unwrap().unwrap();
        assert_eq!(t, parse_instance("F(a,c).").unwrap());
        // It really is a CWA-solution (and here the only one).
        assert_eq!(
            is_cwa_solution(
                &d,
                &s,
                &t,
                &ChaseBudget::default(),
                &SearchLimits::default(),
                &Governor::unlimited(),
            )
            .unwrap(),
            Some(true)
        );
    }

    /// Without egds the CanSol is Libkin's canonical solution, and every
    /// CWA-solution is a homomorphic image of it (Proposition 5.4).
    #[test]
    fn cansol_without_target_deps_is_maximal() {
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }",
        )
        .unwrap();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        let can = cansol(&d, &s, &ChaseBudget::default()).unwrap().unwrap();
        // E(a,b) + E(a,_1) + F(a,_2).
        assert_eq!(can.len(), 3);
        // The three Libkin CWA-solutions are images of CanSol.
        for t in ["E(a,b). F(a,_1).", "E(a,b). E(a,_1). F(a,_2)."] {
            let t = parse_instance(t).unwrap();
            assert_eq!(
                is_cwa_presolution(&d, &s, &t, &SearchLimits::default(), &Governor::unlimited()),
                Ok(Some(true))
            );
            assert!(is_homomorphic_image_of(&t, &can));
        }
    }

    #[test]
    fn cansol_full_class_is_the_chase_result() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c).").unwrap();
        let t = cansol(&d, &s, &ChaseBudget::default()).unwrap().unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.contains(&dex_core::Atom::of(
            "T",
            vec![Value::konst("a"), Value::konst("c")]
        )));
    }

    #[test]
    fn cansol_not_guaranteed_returns_none() {
        let d = parse_setting(
            "source { P/1 }
             target { F/2, G/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) -> exists w . G(y,w); }",
        )
        .unwrap();
        let s = parse_instance("P(a).").unwrap();
        assert_eq!(cansol(&d, &s, &ChaseBudget::default()).unwrap(), None);
    }

    #[test]
    fn cansol_honors_cancel_flag() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let d = parse_setting(
            "source { P/1 }
             target { F/2 }
             st { P(x) -> exists z . F(x,z); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(1). P(2).").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let budget = ChaseBudget::default().with_cancel(flag);
        match cansol(&d, &s, &budget) {
            Err(ChaseError::Interrupted(i)) => {
                assert_eq!(i.reason, dex_core::govern::InterruptReason::Cancelled);
            }
            other => panic!("expected interrupt, got {other:?}"),
        }
    }

    #[test]
    fn cansol_conflict_propagates() {
        let d = parse_setting(
            "source { Q/2 }
             target { F/2 }
             st { Q(x,y) -> F(x,y); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("Q(a,b). Q(a,c).").unwrap();
        assert!(matches!(
            cansol(&d, &s, &ChaseBudget::default()),
            Err(ChaseError::EgdConflict { .. })
        ));
    }
}
