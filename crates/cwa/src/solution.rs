//! CWA-solutions (Definition 4.7 / Theorem 4.8) and the basic results of
//! Section 5: existence, the core as the unique minimal CWA-solution
//! (Theorem 5.1, Corollary 5.2), and the minimal/maximal relations between
//! CWA-solutions.

use crate::presolution::{is_cwa_presolution, is_cwa_presolution_governed, SearchLimits};
use dex_chase::{canonical_universal_solution, ChaseBudget, ChaseError};
use dex_core::govern::Governor;
use dex_core::{
    core, core_parallel_governed, has_homomorphism, isomorphic, GovernedCore, Instance, Pool,
};
use dex_logic::Setting;

/// True iff `t` is a *universal* solution for `source` under `setting`:
/// a solution admitting a homomorphism into every solution — equivalently
/// (given that the canonical universal solution exists) into the canonical
/// universal solution.
pub fn is_universal_solution(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    budget: &ChaseBudget,
) -> Result<bool, ChaseError> {
    if !setting.is_solution(source, t) {
        return Ok(false);
    }
    match canonical_universal_solution(setting, source, budget) {
        Ok(canon) => Ok(has_homomorphism(t, &canon)),
        // Chase failure means no solution exists at all — contradiction
        // with `t` being one, so only budget/interrupt errors propagate.
        Err(ChaseError::EgdConflict { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// [`is_universal_solution`] under a [`Governor`]: the NP-hard
/// homomorphism test into the canonical universal solution ticks the
/// governor, surfacing trips as [`ChaseError::Interrupted`].
pub fn is_universal_solution_governed(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    budget: &ChaseBudget,
    gov: &Governor,
) -> Result<bool, ChaseError> {
    if !setting.is_solution(source, t) {
        return Ok(false);
    }
    match canonical_universal_solution(setting, source, budget) {
        Ok(canon) => Ok(dex_core::HomFinder::new(t, &canon)
            .find_governed(gov)?
            .is_some()),
        Err(ChaseError::EgdConflict { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Theorem 4.8: `t` is a CWA-solution iff it is a universal solution *and*
/// a CWA-presolution. `None` when a search limit was hit.
pub fn is_cwa_solution(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    budget: &ChaseBudget,
    limits: &SearchLimits,
) -> Result<Option<bool>, ChaseError> {
    if !is_universal_solution(setting, source, t, budget)? {
        return Ok(Some(false));
    }
    Ok(is_cwa_presolution(setting, source, t, limits))
}

/// [`is_cwa_solution`] under a [`Governor`] governing both NP-hard legs
/// (the hom test of universality and the presolution derivation search).
/// The chase itself additionally honors the budget's deadline/cancel.
pub fn is_cwa_solution_governed(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    budget: &ChaseBudget,
    limits: &SearchLimits,
    gov: &Governor,
) -> Result<Option<bool>, ChaseError> {
    if !is_universal_solution_governed(setting, source, t, budget, gov)? {
        return Ok(Some(false));
    }
    Ok(is_cwa_presolution_governed(
        setting, source, t, limits, gov,
    )?)
}

/// Corollary 5.2: CWA-solutions exist iff universal solutions exist iff
/// the core of the universal solutions exists — for weakly acyclic
/// settings, decidable by running the standard chase.
pub fn cwa_solution_exists(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<bool, ChaseError> {
    match canonical_universal_solution(setting, source, budget) {
        Ok(_) => Ok(true),
        Err(ChaseError::EgdConflict { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Theorem 5.1: the core of the universal solutions is a CWA-solution —
/// in fact the unique minimal one. Computed as chase-then-core
/// (Proposition 6.6's polynomial route for weakly acyclic settings).
pub fn core_solution(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> Result<Instance, ChaseError> {
    let canon = canonical_universal_solution(setting, source, budget)?;
    Ok(core(&canon))
}

/// [`core_solution`] under a [`Governor`]: if the governor trips during
/// core computation, the best retract found so far is returned tagged
/// `MaybeNotMinimal` — still a universal solution, possibly not minimal.
pub fn core_solution_governed(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
    gov: &Governor,
) -> Result<GovernedCore, ChaseError> {
    let canon = canonical_universal_solution(setting, source, budget)?;
    Ok(core_parallel_governed(&canon, gov, &Pool::seq()))
}

/// A CWA-solution `t` is *minimal* if it is contained, up to renaming of
/// nulls, in every CWA-solution; by Theorem 5.1 this is exactly being
/// isomorphic to [`core_solution`].
pub fn is_minimal_cwa_solution(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    budget: &ChaseBudget,
) -> Result<bool, ChaseError> {
    let c = core_solution(setting, source, budget)?;
    Ok(isomorphic(t, &c))
}

/// The "homomorphic image" preorder on CWA-solutions: `a` subsumes `b`
/// when `b` is a homomorphic image of `a` (i.e. some hom maps `a` *onto*
/// `b`). Maximal CWA-solutions subsume all others (Section 5).
pub fn is_homomorphic_image_of(b: &Instance, a: &Instance) -> bool {
    image_search(a, b)
}

/// Searches for a homomorphism `h: a → b` with `h(a) = b` by enumerating
/// homomorphisms and checking atom-surjectivity of the image.
fn image_search(a: &Instance, b: &Instance) -> bool {
    if b.len() > a.len() {
        return false; // images cannot grow
    }
    if a.nulls().is_empty() {
        return a == b;
    }
    let mut found = false;
    dex_core::HomFinder::new(a, b).for_each(&mut |h| {
        if h.apply(a) == *b {
            found = true;
            false
        } else {
            true
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn t2() -> Instance {
        parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap()
    }

    fn t3() -> Instance {
        parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap()
    }

    fn budget() -> ChaseBudget {
        ChaseBudget::default()
    }

    fn limits() -> SearchLimits {
        SearchLimits::default()
    }

    #[test]
    fn t2_and_t3_are_universal_t1_is_not() {
        let d = example_2_1();
        let s = s_star();
        assert!(is_universal_solution(&d, &s, &t2(), &budget()).unwrap());
        assert!(is_universal_solution(&d, &s, &t3(), &budget()).unwrap());
        let t1 = parse_instance("E(a,b). E(a,_1). E(c,_2). F(a,d). G(d,_3).").unwrap();
        assert!(!is_universal_solution(&d, &s, &t1, &budget()).unwrap());
    }

    /// Example 4.9: T₂ is a CWA-solution.
    #[test]
    fn t2_is_a_cwa_solution() {
        let d = example_2_1();
        assert_eq!(
            is_cwa_solution(&d, &s_star(), &t2(), &budget(), &limits()).unwrap(),
            Some(true)
        );
    }

    /// Example 4.9: T' = {E(a,b), F(a,_1), G(_1,b)} is a CWA-presolution
    /// but not a CWA-solution (the F-G-path of length 2 from a to b does
    /// not follow from S and Σ — it is not universal).
    #[test]
    fn presolution_but_not_universal_is_not_cwa_solution() {
        let d = example_2_1();
        let s = s_star();
        let t = parse_instance("E(a,b). F(a,_1). G(_1,b).").unwrap();
        assert_eq!(
            crate::presolution::is_cwa_presolution(&d, &s, &t, &limits()),
            Some(true)
        );
        assert_eq!(
            is_cwa_solution(&d, &s, &t, &budget(), &limits()).unwrap(),
            Some(false)
        );
    }

    /// Example 4.9: T'' = {E(a,b), E(_3,b), F(b,_1), G(_1,_2)} is a
    /// universal solution but not a CWA-presolution (E(_3,b) unjustified).
    #[test]
    fn universal_but_unjustified_is_not_cwa_solution() {
        let d = example_2_1();
        let s = s_star();
        let t = parse_instance("E(a,b). E(_3,b). F(a,_1). G(_1,_2).").unwrap();
        assert!(is_universal_solution(&d, &s, &t, &budget()).unwrap());
        assert_eq!(
            is_cwa_solution(&d, &s, &t, &budget(), &limits()).unwrap(),
            Some(false)
        );
    }

    /// Theorem 5.1 on Example 2.1: the core (= T₃ up to renaming) is a
    /// CWA-solution, and it is the minimal one.
    #[test]
    fn core_is_the_minimal_cwa_solution() {
        let d = example_2_1();
        let s = s_star();
        let c = core_solution(&d, &s, &budget()).unwrap();
        assert!(isomorphic(&c, &t3()));
        assert_eq!(
            is_cwa_solution(&d, &s, &c, &budget(), &limits()).unwrap(),
            Some(true)
        );
        assert!(is_minimal_cwa_solution(&d, &s, &c, &budget()).unwrap());
        assert!(!is_minimal_cwa_solution(&d, &s, &t2(), &budget()).unwrap());
    }

    #[test]
    fn governed_checks_match_ungoverned_when_unlimited() {
        let d = example_2_1();
        let s = s_star();
        let gov = Governor::unlimited();
        assert!(is_universal_solution_governed(&d, &s, &t2(), &budget(), &gov).unwrap());
        assert_eq!(
            is_cwa_solution_governed(&d, &s, &t2(), &budget(), &limits(), &gov).unwrap(),
            Some(true)
        );
        let core = core_solution_governed(&d, &s, &budget(), &gov).unwrap();
        assert!(core.is_minimal());
        assert!(isomorphic(&core.instance, &t3()));
    }

    #[test]
    fn tripped_governor_degrades_gracefully() {
        let d = example_2_1();
        let s = s_star();
        // Exhausted fuel: the solution checks report the interrupt...
        let gov = Governor::unlimited().with_fuel(0);
        assert!(matches!(
            is_cwa_solution_governed(&d, &s, &t2(), &budget(), &limits(), &gov),
            Err(ChaseError::Interrupted(_))
        ));
        // ...while the core degrades to a sound, possibly-non-minimal
        // universal solution rather than failing.
        let gov = Governor::unlimited().with_fuel(0);
        let core = core_solution_governed(&d, &s, &budget(), &gov).unwrap();
        assert!(!core.is_minimal());
        assert!(is_universal_solution(&d, &s, &core.instance, &budget()).unwrap());
    }

    #[test]
    fn existence_tracks_chase_success() {
        let d = example_2_1();
        assert!(cwa_solution_exists(&d, &s_star(), &budget()).unwrap());
        // A failing setting: key conflict on constants.
        let bad = parse_setting(
            "source { P/2 }
             target { F/2 }
             st { P(x,y) -> F(x,y); }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a,b). P(a,c).").unwrap();
        assert!(!cwa_solution_exists(&bad, &s, &budget()).unwrap());
    }

    #[test]
    fn homomorphic_image_relation() {
        // T₃ is a homomorphic image of T₂ (fold the extra E-nulls onto b).
        assert!(is_homomorphic_image_of(&t3(), &t2()));
        // But T₂ is not an image of T₃ (images cannot grow).
        assert!(!is_homomorphic_image_of(&t2(), &t3()));
    }

    #[test]
    fn ground_image_check_is_equality() {
        let a = parse_instance("E(a,b).").unwrap();
        let b = parse_instance("E(a,b).").unwrap();
        assert!(is_homomorphic_image_of(&b, &a));
        let c = parse_instance("E(a,c).").unwrap();
        assert!(!is_homomorphic_image_of(&c, &a));
    }
}
