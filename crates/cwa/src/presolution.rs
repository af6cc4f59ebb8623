//! Deciding whether a target instance is a CWA-presolution
//! (Definition 4.6): does some `α: J_D → Dom` exist such that `S ∪ T` is
//! the result of a successful α-chase of `S` with `Σ`?
//!
//! The decision procedure searches for a *derivation*: a per-trigger
//! choice of existential witnesses (the α-values) whose heads stay inside
//! `S ∪ T`, such that firing the chosen triggers from `S` derives every
//! atom of `T`. By Lemma 4.5 successful α-chases apply only tgds, and
//! because tgd firing is monotone and commutative once the choices are
//! fixed, the firing order is irrelevant — the search branches only on
//! the witness choices. This matches the NP upper bound the paper sketches
//! at the end of Section 6.

use dex_core::govern::{Governor, Interrupt};
use dex_core::{Atom, Instance, Value};
use dex_logic::{Assignment, Setting, Tgd, Var};
use std::collections::HashSet;

/// Limits for the derivation search.
#[derive(Copy, Clone, Debug)]
pub struct SearchLimits {
    /// Maximum number of DFS nodes to explore.
    pub max_nodes: usize,
}

impl Default for SearchLimits {
    fn default() -> SearchLimits {
        SearchLimits { max_nodes: 200_000 }
    }
}

/// One tgd trigger `(d, ū, v̄)` over `S ∪ T` with its possible α-heads.
struct Trigger {
    /// Body assignment (binds frontier and body-only variables).
    env: Assignment,
    /// Index into the tgd list.
    tgd: usize,
    /// The possible instantiated heads (each a choice of `w̄` keeping all
    /// head atoms inside `S ∪ T`), deduplicated.
    options: Vec<Vec<Atom>>,
    /// The existential witnesses `w̄` of each option, in the same order.
    witnesses: Vec<Vec<Value>>,
}

/// What the derivation search concluded about a target.
enum Derivation {
    /// A witnessing α: every trigger over `S ∪ T`, and per trigger the
    /// option it fired with (`None`: not fired).
    Found {
        triggers: Vec<Trigger>,
        choices: Vec<Option<usize>>,
    },
    /// No α-chase staying inside `S ∪ T` derives `T`.
    Refuted,
    /// The search hit its node limit without an answer.
    Undecided,
}

/// The derivation search shared by [`is_cwa_presolution`] and
/// [`presolution_alpha_table`]: cheap rejections, then every trigger
/// over the final universe with its head options, then the DFS over
/// witness choices. Ticks `gov` per enumerated trigger and per explored
/// node, and checks it (cancel flag and deadline included) once before
/// starting.
fn derive(
    setting: &Setting,
    source: &Instance,
    target: &Instance,
    limits: &SearchLimits,
    gov: &Governor,
) -> Result<Derivation, Interrupt> {
    gov.force_check()?;
    // The result of a successful chase satisfies Σ; cheap rejections first.
    if target.check_against(&setting.target).is_err() {
        return Ok(Derivation::Refuted);
    }
    let universe = source.union(target);
    if !setting.egds.iter().all(|e| e.satisfied(&universe)) {
        return Ok(Derivation::Refuted);
    }
    let tgds: Vec<&Tgd> = setting.all_tgds().collect();
    let st_count = setting.st_tgds.len();

    // Enumerate all triggers over the final universe with their options.
    let mut triggers: Vec<Trigger> = Vec::new();
    for (ti, tgd) in tgds.iter().enumerate() {
        let body_inst = if ti < st_count { source } else { &universe };
        for env in tgd.body.matches(body_inst) {
            gov.check()?;
            let (options, witnesses) = head_options(tgd, &universe, &env);
            if options.is_empty() {
                // Some trigger can never have its ᾱ-head inside S ∪ T:
                // no α-chase staying within the universe satisfies it.
                return Ok(Derivation::Refuted);
            }
            triggers.push(Trigger {
                env,
                tgd: ti,
                options,
                witnesses,
            });
        }
    }

    // Derivation search.
    let mut search = Search {
        tgds: &tgds,
        st_count,
        source,
        universe: &universe,
        triggers: &triggers,
        nodes: 0,
        max_nodes: limits.max_nodes,
        seen: HashSet::new(),
        exhausted: false,
        solution: None,
        gov,
        interrupt: None,
    };
    let found = search.dfs(source.clone(), vec![None; triggers.len()]);
    if let Some(i) = search.interrupt {
        debug_assert!(!found);
        return Err(i);
    }
    Ok(match search.solution {
        Some(choices) => Derivation::Found { triggers, choices },
        None if search.exhausted => Derivation::Undecided,
        None => Derivation::Refuted,
    })
}

/// Decides whether `target` is a CWA-presolution for `source` under
/// `setting`. Conservative under resource exhaustion: returns `Ok(None)`
/// if the search hits `limits` without an answer. The NP-hard derivation
/// search ticks `gov` per explored node and per enumerated trigger,
/// returning `Err` with the interrupt when fuel, deadline or a cancel
/// flag trips before the node limit does.
pub fn is_cwa_presolution(
    setting: &Setting,
    source: &Instance,
    target: &Instance,
    limits: &SearchLimits,
    gov: &Governor,
) -> Result<Option<bool>, Interrupt> {
    Ok(match derive(setting, source, target, limits, gov)? {
        Derivation::Found { .. } => Some(true),
        Derivation::Refuted => Some(false),
        Derivation::Undecided => None,
    })
}

/// Like [`is_cwa_presolution`], but on success also returns the witnessing
/// per-trigger choices as an α-table: one entry per fired justification
/// `(d, ū, v̄, zᵢ)` mapping to the chosen witness value. `Ok(None)` when
/// `target` is not a presolution or the search hit `limits`; `Err` when
/// `gov` trips first.
pub fn presolution_alpha_table(
    setting: &Setting,
    source: &Instance,
    target: &Instance,
    limits: &SearchLimits,
    gov: &Governor,
) -> Result<Option<Vec<(dex_chase::Justification, Value)>>, Interrupt> {
    let Derivation::Found { triggers, choices } = derive(setting, source, target, limits, gov)?
    else {
        return Ok(None);
    };
    let tgds: Vec<&Tgd> = setting.all_tgds().collect();
    let mut table = Vec::new();
    for (t, choice) in triggers.iter().zip(&choices) {
        let Some(opt_idx) = choice else { continue };
        let tgd = tgds[t.tgd];
        let frontier: Vec<Value> = tgd
            .frontier()
            .iter()
            .map(|&v: &Var| t.env.get(v).expect("bound"))
            .collect();
        let body_only: Vec<Value> = tgd
            .body_only_vars()
            .iter()
            .map(|&v| t.env.get(v).expect("bound"))
            .collect();
        for (zi, &w) in t.witnesses[*opt_idx].iter().enumerate() {
            table.push((
                dex_chase::Justification {
                    dep: t.tgd,
                    frontier: frontier.clone(),
                    body_only: body_only.clone(),
                    z_index: zi,
                },
                w,
            ));
        }
    }
    Ok(Some(table))
}

/// The justification cross-check of Definition 4.6 made executable:
/// extract a witnessing α-table for `target`, replay it through the
/// provenance-recording delta engine, and verify that *every* atom of
/// the replayed result `S ∪ T` carries a recorded justification chain.
/// Returns the provenance on success; `Ok(None)` if `target` is not a
/// presolution (or the search hit its limits), `Err` if `gov` tripped
/// during the search or the replay, which both run under it. A `Some`
/// answer is strictly stronger than [`is_cwa_presolution`] returning
/// `Ok(Some(true))`: the witnessing α has actually been replayed and
/// audited atom by atom.
pub fn presolution_justifications(
    setting: &Setting,
    source: &Instance,
    target: &Instance,
    limits: &SearchLimits,
    gov: &Governor,
) -> Result<Option<dex_chase::Provenance>, Interrupt> {
    let Some(table) = presolution_alpha_table(setting, source, target, limits, gov)? else {
        return Ok(None);
    };
    let mut alpha = dex_chase::TableAlpha::new(table);
    let engine = dex_chase::ChaseEngine::new(setting, &dex_chase::ChaseBudget::default())
        .with_governor(gov)
        .with_provenance(true);
    let success = match engine.run_alpha(source, &mut alpha) {
        dex_chase::AlphaOutcome::Success(s) => s,
        dex_chase::AlphaOutcome::Interrupted(i) => return Err(i),
        _ => return Ok(None),
    };
    let prov = success.provenance.expect("provenance was enabled");
    Ok(prov.verify_justified(&success.result).ok().map(|()| prov))
}

/// All distinct instantiated heads of `tgd` under `env` whose atoms lie in
/// `universe` (one per choice of existential witnesses `w̄`), together
/// with those witness tuples.
fn head_options(
    tgd: &Tgd,
    universe: &Instance,
    env: &Assignment,
) -> (Vec<Vec<Atom>>, Vec<Vec<Value>>) {
    let matches = dex_logic::matcher::all_matches(&tgd.head, universe, env);
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut opts = Vec::new();
    let mut ws = Vec::new();
    for m in matches {
        let w: Vec<Value> = tgd
            .exist_vars
            .iter()
            .map(|&z| m.get(z).expect("head match binds existentials"))
            .collect();
        if seen.insert(w.clone()) {
            opts.push(tgd.instantiate_head(&m));
            ws.push(w);
        }
    }
    (opts, ws)
}

struct Search<'a> {
    tgds: &'a [&'a Tgd],
    st_count: usize,
    source: &'a Instance,
    universe: &'a Instance,
    triggers: &'a [Trigger],
    nodes: usize,
    max_nodes: usize,
    seen: HashSet<(Vec<Atom>, Vec<bool>)>,
    exhausted: bool,
    /// On success: the option index chosen per fired trigger.
    solution: Option<Vec<Option<usize>>>,
    /// Ticked once per explored node.
    gov: &'a Governor,
    /// Set when the governor trips; the search unwinds without an answer.
    interrupt: Option<Interrupt>,
}

impl Search<'_> {
    /// True iff the body of trigger `t` is satisfied in `derived`.
    fn body_ready(&self, t: &Trigger, derived: &Instance) -> bool {
        let tgd = self.tgds[t.tgd];
        if t.tgd < self.st_count {
            // s-t bodies are matched over the (fully derived) source.
            let _ = derived;
            tgd.body.holds(self.source, &t.env)
        } else {
            tgd.body.holds(derived, &t.env)
        }
    }

    fn dfs(&mut self, mut derived: Instance, mut fired: Vec<Option<usize>>) -> bool {
        if let Err(i) = self.gov.check() {
            self.interrupt = Some(i);
            return false;
        }
        if self.nodes >= self.max_nodes {
            self.exhausted = true;
            return false;
        }
        self.nodes += 1;

        // Saturate forced moves: fire every ready trigger with exactly one
        // option (any α must use it, and firing is monotone).
        loop {
            let mut progressed = false;
            for (i, t) in self.triggers.iter().enumerate() {
                if fired[i].is_none() && t.options.len() == 1 && self.body_ready(t, &derived) {
                    fired[i] = Some(0);
                    for a in &t.options[0] {
                        derived.insert(a.clone());
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if derived.len() == self.universe.len() {
            self.solution = Some(fired);
            return true;
        }
        // Memo key: derived atoms *and* which triggers are spent — the
        // same derived set is more promising with fewer triggers fired.
        let key = (
            derived.sorted_atoms(),
            fired.iter().map(Option::is_some).collect::<Vec<bool>>(),
        );
        if !self.seen.insert(key) {
            return false;
        }
        // Branch on some ready multi-option trigger, preferring ones that
        // can add an uncovered atom.
        let candidates: Vec<usize> = (0..self.triggers.len())
            .filter(|&i| fired[i].is_none() && self.body_ready(&self.triggers[i], &derived))
            .collect();
        let branch = candidates
            .iter()
            .copied()
            .find(|&i| {
                self.triggers[i]
                    .options
                    .iter()
                    .any(|opt| opt.iter().any(|a| !derived.contains(a)))
            })
            .or_else(|| candidates.first().copied());
        let Some(i) = branch else {
            // Nothing ready and not all of T derived: some atom of T is
            // unjustified for every α extending this prefix.
            return false;
        };
        let options = self.triggers[i].options.clone();
        for (oi, opt) in options.iter().enumerate() {
            let mut next = derived.clone();
            for a in opt {
                next.insert(a.clone());
            }
            let mut next_fired = fired.clone();
            next_fired[i] = Some(oi);
            if self.dfs(next, next_fired) {
                return true;
            }
            if self.exhausted || self.interrupt.is_some() {
                return false;
            }
        }
        false
    }
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

    fn check(t: &str) -> bool {
        is_cwa_presolution(
            &example_2_1(),
            &s_star(),
            &parse_instance(t).unwrap(),
            &SearchLimits::default(),
            &Governor::unlimited(),
        )
        .unwrap()
        .expect("search within limits")
    }

    /// T₂ of Example 2.1 is a CWA-presolution (witnessed by α₁).
    #[test]
    fn t2_is_a_presolution() {
        assert!(check("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4)."));
    }

    /// Example 4.9: T' = {E(a,b), F(a,_1), G(_1,b)} is a CWA-presolution
    /// (α maps d3's z to the constant b).
    #[test]
    fn t_prime_with_constant_g_is_a_presolution() {
        assert!(check("E(a,b). F(a,_1). G(_1,b)."));
    }

    /// Example 4.9: T'' contains the unjustified atom E(_3,b) — not a
    /// CWA-presolution.
    #[test]
    fn unjustified_atom_is_rejected() {
        assert!(!check("E(a,b). E(_3,b). F(b,_1). G(_1,_2)."));
    }

    /// T₃ (the core) is a presolution: α maps d2's z1 for both triggers to
    /// the existing values and shares the F-null.
    #[test]
    fn t3_core_is_a_presolution() {
        assert!(check("E(a,b). F(a,_1). G(_1,_2)."));
    }

    /// T₁ of Example 2.1 invents constants c/d in existential positions —
    /// those are justifiable as α-values, but E(c,_2) requires a trigger
    /// with frontier c, which no source atom provides... except d2 with
    /// N(a,c)? No: d2's frontier is x=a for both triggers. E(c,_2) is
    /// unjustified.
    #[test]
    fn t1_is_not_a_presolution() {
        assert!(!check("E(a,b). E(a,_1). E(c,_2). F(a,d). G(d,_3)."));
    }

    /// A solution that is "too small" — missing d3's G-atom — fails the
    /// upfront option check (it is not even a solution).
    #[test]
    fn missing_required_head_is_rejected() {
        assert!(!check("E(a,b). E(a,_1). E(a,_2). F(a,_3)."));
    }

    /// Extra unjustified duplicates are rejected: two F-atoms would
    /// violate the egd d4, failing the universe check.
    #[test]
    fn egd_violating_target_is_rejected() {
        assert!(!check(
            "E(a,b). E(a,_1). F(a,_2). F(a,_3). G(_2,_4). G(_3,_5)."
        ));
    }

    /// The empty target for a non-empty source is not a presolution (the
    /// s-t triggers have no options).
    #[test]
    fn empty_target_is_rejected() {
        assert!(!check("E(a,b)."));
    }

    #[test]
    fn unlimited_search_ticks_the_governor() {
        let d = example_2_1();
        let s = s_star();
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let gov = Governor::unlimited();
        assert_eq!(
            is_cwa_presolution(&d, &s, &t2, &SearchLimits::default(), &gov),
            Ok(Some(true))
        );
        assert!(gov.ticks() > 0);
    }

    #[test]
    fn governed_search_reports_fuel_interrupt() {
        let d = example_2_1();
        let s = s_star();
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let gov = Governor::unlimited().with_fuel(2);
        let err = is_cwa_presolution(&d, &s, &t2, &SearchLimits::default(), &gov)
            .expect_err("2 ticks cannot finish the search");
        assert_eq!(err.reason, dex_core::govern::InterruptReason::Fuel);
    }

    #[test]
    fn alpha_table_replays_to_the_same_presolution() {
        let d = example_2_1();
        let s = s_star();
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let table = presolution_alpha_table(
            &d,
            &s,
            &t2,
            &SearchLimits::default(),
            &Governor::unlimited(),
        )
        .unwrap()
        .expect("T2 is a presolution");
        assert!(!table.is_empty());
        // Replaying the extracted α through the real α-chase reproduces
        // S ∪ T₂ exactly (Definition 4.6).
        let mut alpha = dex_chase::TableAlpha::new(table);
        let out = dex_chase::alpha_chase(&d, &s, &mut alpha, &dex_chase::ChaseBudget::default());
        let success = out.success().expect("replay succeeds");
        assert_eq!(success.target, t2);
    }

    /// The α-table search and the audit built on it stop on the
    /// governor: one tick of fuel or a cancel flag raised before the
    /// call interrupts them, and nothing is reported as a presolution.
    #[test]
    fn alpha_table_search_stops_on_the_governor() {
        use dex_core::govern::InterruptReason;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let d = example_2_1();
        let s = s_star();
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let lim = SearchLimits::default();
        fn cancelled() -> Governor {
            Governor::unlimited().with_cancel(Arc::new(AtomicBool::new(true)))
        }
        fn fuel1() -> Governor {
            Governor::unlimited().with_fuel(1)
        }
        for (gov, reason) in [
            (fuel1 as fn() -> Governor, InterruptReason::Fuel),
            (cancelled, InterruptReason::Cancelled),
        ] {
            let err = presolution_alpha_table(&d, &s, &t2, &lim, &gov()).unwrap_err();
            assert_eq!(err.reason, reason);
            let err = presolution_justifications(&d, &s, &t2, &lim, &gov()).unwrap_err();
            assert_eq!(err.reason, reason);
        }
    }

    /// The provenance cross-check: replaying T₂'s witnessing α records a
    /// justification chain for every atom of S ∪ T₂, each bottoming out
    /// in source atoms.
    #[test]
    fn presolution_justifications_audit_t2() {
        let d = example_2_1();
        let s = s_star();
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let audit = |t: &Instance| {
            presolution_justifications(&d, &s, t, &SearchLimits::default(), &Governor::unlimited())
                .unwrap()
        };
        let prov = audit(&t2).expect("T2 is a presolution with a full justification audit");
        for atom in s.union(&t2).atoms() {
            let chain = prov.explain(&atom).expect("every atom is justified");
            assert!(chain.ends_in_sources(), "chain for {atom} has dead ends");
        }
        // A non-presolution yields no audit at all.
        let t_bad = parse_instance("E(a,b). E(_3,b). F(b,_1). G(_1,_2).").unwrap();
        assert!(audit(&t_bad).is_none());
    }

    /// Settings without target dependencies coincide with Libkin's notion:
    /// every subset obtained by per-justification choices is a
    /// presolution; the full fresh instantiation certainly is.
    #[test]
    fn no_target_deps_matches_libkin() {
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2, G/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }",
        )
        .unwrap();
        let s = s_star();
        let lim = SearchLimits::default();
        let check = |t: &Instance| is_cwa_presolution(&d, &s, t, &lim, &Governor::unlimited());
        let t_full = parse_instance("E(a,b). E(a,_1). F(a,_2). E(a,_3). F(a,_4).").unwrap();
        assert_eq!(check(&t_full), Ok(Some(true)));
        // Libkin's Section 3 list: {E(a,b), E(a,_1), F(a,_2)} (z1 of both
        // triggers folded onto existing values).
        let t_small = parse_instance("E(a,b). E(a,_1), F(a,_2).").unwrap();
        assert_eq!(check(&t_small), Ok(Some(true)));
        // But dropping the F-atom is not (d2's head needs an F-atom).
        let t_bad = parse_instance("E(a,b). E(a,_1).").unwrap();
        assert_eq!(check(&t_bad), Ok(Some(false)));
    }
}
