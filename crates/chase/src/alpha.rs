//! The α-chase (Definitions 4.1 and 4.2) — the paper's controlled chase
//! in which every value introduced for an existential variable is fixed by
//! a *justification* `(d, ū, v̄, z)` through a mapping `α: J_D → Dom`.
//!
//! `J_D` is infinite, so `α` is represented lazily as an [`AlphaSource`]
//! that is queried per encountered justification:
//!
//! - [`FreshAlpha`] memoizes a fresh null per justification — its
//!   successful chases produce the *canonical CWA-presolution*;
//! - [`TableAlpha`] consults an explicit finite table first (used to
//!   replay the paper's α₁/α₂/α₃ of Example 4.4 verbatim) and falls back
//!   to fresh nulls.
//!
//! By Lemma 4.5, for a fixed `α` either some (equivalently: every) α-chase
//! of a ground instance succeeds with one common result, or some α-chase
//! is failing or infinite. [`alpha_chase`] runs the delta-driven
//! [`ChaseEngine`]. This module also holds the one naive reference
//! driver, `naive_chase`, behind both [`alpha_chase_naive`] and
//! [`crate::chase_naive`]: it uses a deterministic strategy (egds
//! eagerly, tgds in declaration order) under an α policy or a restricted
//! policy, and reports the outcomes as success / failing /
//! budget-exceeded / cycle / interrupted.

use crate::budget::ChaseBudget;
use crate::engine::ChaseEngine;
use crate::standard::{egd_step, ChaseError};
use crate::stats::ChaseStats;
use dex_core::govern::{Clock, Governor, Interrupt};
use dex_core::{Atom, IdMap, IdSet, Instance, NullGen, Value};
use dex_logic::{Assignment, Setting, Tgd};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A potential justification `(d, ū, v̄, z)` for introducing a value:
/// tgd index (in `Σ_st` then `Σ_t` order), the values `ū` of the frontier
/// variables `x̄`, the values `v̄` of the remaining body variables `ȳ`, and
/// the index of the existential variable `z` in `z̄`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Justification {
    pub dep: usize,
    pub frontier: Vec<Value>,
    pub body_only: Vec<Value>,
    pub z_index: usize,
}

impl fmt::Debug for Justification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(d#{}, {:?}, {:?}, z{})",
            self.dep,
            self.frontier,
            self.body_only,
            self.z_index + 1
        )
    }
}

/// A lazily-evaluated `α: J_D → Dom`.
pub trait AlphaSource {
    /// The value `α(j)`. Must be deterministic per justification within a
    /// chase run (requirement CWA2: one justification, one value). The
    /// current chase instance is passed so that enumeration strategies can
    /// offer "reuse an existing value" choices; plain sources ignore it.
    fn value(&mut self, j: &Justification, inst: &Instance) -> Value;
}

/// Assigns a memoized fresh null per justification.
pub struct FreshAlpha {
    gen: NullGen,
    memo: IdMap<Justification, Value>,
}

impl FreshAlpha {
    pub fn new(gen: NullGen) -> FreshAlpha {
        FreshAlpha {
            gen,
            memo: IdMap::default(),
        }
    }

    /// Starts fresh nulls above everything in `inst`.
    pub fn above(inst: &Instance) -> FreshAlpha {
        FreshAlpha::new(NullGen::above(inst.values()))
    }

    /// Number of justifications assigned so far.
    pub fn assigned(&self) -> usize {
        self.memo.len()
    }
}

impl AlphaSource for FreshAlpha {
    fn value(&mut self, j: &Justification, _inst: &Instance) -> Value {
        if let Some(&v) = self.memo.get(j) {
            return v;
        }
        let v = self.gen.fresh_value();
        self.memo.insert(j.clone(), v);
        v
    }
}

/// Consults an explicit table first, falling back to fresh nulls for
/// justifications outside the table (the paper's `*` entries).
pub struct TableAlpha {
    table: IdMap<Justification, Value>,
    fallback: FreshAlpha,
}

impl TableAlpha {
    /// Builds a table α. Fresh fallback nulls are minted above every null
    /// mentioned in the table so they never collide.
    pub fn new(entries: impl IntoIterator<Item = (Justification, Value)>) -> TableAlpha {
        let table: IdMap<Justification, Value> = entries.into_iter().collect();
        let gen = NullGen::above(table.values().copied());
        TableAlpha {
            table,
            fallback: FreshAlpha::new(gen),
        }
    }
}

impl AlphaSource for TableAlpha {
    fn value(&mut self, j: &Justification, inst: &Instance) -> Value {
        if let Some(&v) = self.table.get(j) {
            return v;
        }
        self.fallback.value(j, inst)
    }
}

/// One recorded chase step, for displaying runs like Example 4.4's
/// `I₀, I₁, …` sequences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseStep {
    /// A tgd was α-applied, adding `added` (atoms not previously present).
    TgdApplied { dep: String, added: Vec<Atom> },
    /// An egd was applied, replacing `from` by `to` everywhere.
    EgdApplied { dep: String, from: Value, to: Value },
}

impl fmt::Display for ChaseStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseStep::TgdApplied { dep, added } => {
                write!(f, "α-apply {dep}: +{{")?;
                for (i, a) in added.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "}}")
            }
            ChaseStep::EgdApplied { dep, from, to } => {
                write!(f, "apply {dep}: {from} ↦ {to}")
            }
        }
    }
}

/// A successful α-chase.
#[derive(Clone, Debug)]
pub struct AlphaSuccess {
    /// The result over `σ ∪ τ`.
    pub result: Instance,
    /// The target part: the CWA-presolution `T` with `S ∪ T` the result.
    pub target: Instance,
    pub steps: usize,
    pub trace: Vec<ChaseStep>,
    /// Observability counters for the run.
    pub stats: ChaseStats,
    /// Per-atom derivations, when the run was started with
    /// [`crate::ChaseEngine::with_provenance`] (the naive driver never
    /// records any).
    pub provenance: Option<crate::provenance::Provenance>,
}

/// The three possible outcomes of a (budgeted) α-chase run.
#[derive(Clone, Debug)]
pub enum AlphaOutcome {
    /// Definition 4.2(1): finite, result satisfies Σ, no tgd α-applicable.
    Success(AlphaSuccess),
    /// Definition 4.2(2): an egd tried to identify distinct constants.
    /// The witness is the same structured diagnosis the standard chase
    /// reports (trigger assignment, premises, provenance chains).
    Failing {
        witness: Box<crate::witness::ConflictWitness>,
        steps: usize,
    },
    /// Budget exhausted — with a correct budget for the setting class this
    /// indicates an infinite α-chase (e.g. an ever-growing one).
    BudgetExceeded { steps: usize, atoms: usize },
    /// The chase revisited a previous instance state: under the
    /// deterministic strategy it is provably infinite (e.g. Example 4.4's
    /// α₃, which loops through egd-merge / re-apply forever).
    CycleDetected { steps: usize },
    /// The run was stopped by its governor (deadline or cancellation)
    /// before reaching any of the outcomes above. Unlike
    /// `BudgetExceeded`, this says nothing about the chase itself — a
    /// re-run with a later deadline may yet succeed or fail.
    Interrupted(Interrupt),
}

impl AlphaOutcome {
    pub fn success(self) -> Option<AlphaSuccess> {
        match self {
            AlphaOutcome::Success(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_success(&self) -> bool {
        matches!(self, AlphaOutcome::Success(_))
    }

    pub fn is_failing(&self) -> bool {
        matches!(self, AlphaOutcome::Failing { .. })
    }
}

/// Runs an α-chase of the ground `source` with the dependencies of
/// `setting` under the given `α`, using the delta-driven [`ChaseEngine`].
pub fn alpha_chase(
    setting: &Setting,
    source: &Instance,
    alpha: &mut dyn AlphaSource,
    budget: &ChaseBudget,
) -> AlphaOutcome {
    ChaseEngine::new(setting, budget).run_alpha(source, alpha)
}

/// The naive reference α-chase: `naive_chase` under the α policy.
/// Retained as the differential-testing and ablation baseline for
/// [`alpha_chase`]; same outcome contract.
pub fn alpha_chase_naive(
    setting: &Setting,
    source: &Instance,
    alpha: &mut dyn AlphaSource,
    budget: &ChaseBudget,
) -> AlphaOutcome {
    naive_chase(
        setting,
        source,
        NaivePolicy::alpha(alpha),
        budget,
        &budget.governor(&Clock::real()),
    )
}

/// How `naive_chase` fires a trigger.
pub(crate) enum NaivePolicy<'p> {
    /// The restricted chase: a trigger fires when its head does not hold,
    /// with fresh nulls for the existential variables.
    Restricted(NullGen),
    /// The α-chase (Definition 4.1): a trigger fires when its ᾱ-head is
    /// not already present. Each step is logged in `log` and each
    /// state's hash kept in `seen`.
    Alpha {
        alpha: &'p mut dyn AlphaSource,
        log: Vec<ChaseStep>,
        seen: IdSet<u64>,
    },
}

impl<'p> NaivePolicy<'p> {
    fn alpha(alpha: &'p mut dyn AlphaSource) -> NaivePolicy<'p> {
        NaivePolicy::Alpha {
            alpha,
            log: Vec::new(),
            seen: IdSet::default(),
        }
    }

    /// The head atoms that trigger `env` of tgd number `dep` adds to
    /// `inst`, or `None` when the trigger is not applicable.
    fn fire(
        &mut self,
        dep: usize,
        tgd: &Tgd,
        env: &Assignment,
        inst: &Instance,
    ) -> Option<Vec<Atom>> {
        match self {
            NaivePolicy::Restricted(nulls) => {
                if tgd.head_holds(inst, env) {
                    return None;
                }
                let mut full = env.clone();
                for &z in &tgd.exist_vars {
                    full.bind(z, nulls.fresh_value());
                }
                Some(tgd.instantiate_head(&full))
            }
            NaivePolicy::Alpha { alpha, .. } => {
                let frontier: Vec<Value> = tgd
                    .frontier()
                    .iter()
                    .map(|&v| env.get(v).expect("body match binds frontier"))
                    .collect();
                let body_only: Vec<Value> = tgd
                    .body_only_vars()
                    .iter()
                    .map(|&v| env.get(v).expect("body match binds body vars"))
                    .collect();
                let mut full = env.clone();
                for (zi, &z) in tgd.exist_vars.iter().enumerate() {
                    let j = Justification {
                        dep,
                        frontier: frontier.clone(),
                        body_only: body_only.clone(),
                        z_index: zi,
                    };
                    full.bind(z, alpha.value(&j, inst));
                }
                let head = tgd.instantiate_head(&full);
                head.iter().any(|a| !inst.contains(a)).then_some(head)
            }
        }
    }

    /// True iff the α policy met `inst` before: the α-chase is a
    /// deterministic function of the current instance (given α), so a
    /// repeated state proves it runs forever.
    fn repeats(&mut self, inst: &Instance) -> bool {
        let NaivePolicy::Alpha { seen, .. } = self else {
            return false;
        };
        let mut h = DefaultHasher::new();
        inst.sorted_atoms().hash(&mut h);
        !seen.insert(h.finish())
    }

    /// Records a step in the α policy's log.
    fn log(&mut self, step: impl FnOnce() -> ChaseStep) {
        if let NaivePolicy::Alpha { log, .. } = self {
            log.push(step());
        }
    }

    fn into_log(self) -> Vec<ChaseStep> {
        match self {
            NaivePolicy::Alpha { log, .. } => log,
            NaivePolicy::Restricted(_) => Vec::new(),
        }
    }
}

/// The naive reference driver behind [`alpha_chase_naive`] and
/// [`crate::chase_naive`]: a full trigger rescan per step and
/// clone-per-repair egd handling, under a deterministic strategy (egds
/// eagerly, then the first applicable trigger in tgd declaration
/// order). It shares nothing with [`ChaseEngine`] beyond
/// [`egd_step`], so it stays an independent oracle. `gov` carries the
/// budget's deadline and cancel flag and times the phases; the step
/// and atom limits are enforced exactly.
pub(crate) fn naive_chase(
    setting: &Setting,
    source: &Instance,
    mut policy: NaivePolicy<'_>,
    budget: &ChaseBudget,
    gov: &Governor,
) -> AlphaOutcome {
    debug_assert!(
        matches!(policy, NaivePolicy::Restricted(_)) || source.is_ground(),
        "α-chase starts from ground instances"
    );
    let clock = gov.clock();
    let t_total = clock.now_ns();
    let mut stats = ChaseStats::default();
    let sigma_part = source.clone();
    let tgds: Vec<&Tgd> = setting.all_tgds().collect();
    let st_count = setting.st_tgds.len();
    let mut inst = source.clone();
    stats.peak_atoms = inst.len();
    let mut steps = 0usize;
    loop {
        if let Err(i) = gov.force_check() {
            return AlphaOutcome::Interrupted(i);
        }
        if steps >= budget.max_steps {
            return AlphaOutcome::BudgetExceeded {
                steps,
                atoms: inst.len(),
            };
        }
        if policy.repeats(&inst) {
            return AlphaOutcome::CycleDetected { steps };
        }
        // Egds first: they only shrink the instance, and by Lemma 4.5 the
        // strategy does not affect the α-chase's outcome.
        let t_phase = clock.now_ns();
        let repair = egd_step(setting, &inst);
        stats.egd_time_ns += (clock.now_ns() - t_phase) as u128;
        match repair {
            Ok(Some(repair)) => {
                policy.log(|| ChaseStep::EgdApplied {
                    dep: repair.egd,
                    from: repair.from,
                    to: repair.to,
                });
                inst = repair.instance;
                steps += 1;
                stats.egd_steps += 1;
                continue;
            }
            Ok(None) => {}
            Err(ChaseError::EgdConflict { witness }) => {
                return AlphaOutcome::Failing { witness, steps };
            }
            // `egd_step` performs a single bounded repair pass, so it can
            // never exhaust a step budget or trip a governor itself; still,
            // propagate rather than panic if its contract ever widens.
            Err(ChaseError::BudgetExceeded { steps, atoms }) => {
                return AlphaOutcome::BudgetExceeded { steps, atoms };
            }
            Err(ChaseError::Interrupted(i)) => return AlphaOutcome::Interrupted(i),
            Err(ChaseError::InvalidSource(e)) => unreachable!("egd_step checks no schema: {e}"),
        }
        // Then the first applicable tgd trigger, s-t (matched over σ)
        // before target.
        let t_phase = clock.now_ns();
        let mut fired: Option<(&Tgd, Vec<Atom>)> = None;
        'search: for (dep, tgd) in tgds.iter().enumerate() {
            let body_inst = if dep < st_count { &sigma_part } else { &inst };
            for env in tgd.body.matches(body_inst) {
                if let Err(i) = gov.check() {
                    return AlphaOutcome::Interrupted(i);
                }
                stats.triggers_examined += 1;
                if let Some(head) = policy.fire(dep, tgd, &env, &inst) {
                    fired = Some((tgd, head));
                    break 'search;
                }
            }
        }
        stats.tgd_time_ns += (clock.now_ns() - t_phase) as u128;
        let Some((tgd, head)) = fired else {
            // Egds hold and no trigger is applicable, so every tgd is
            // satisfied: success.
            stats.total_time_ns = (clock.now_ns() - t_total) as u128;
            let target = inst.difference(&sigma_part);
            return AlphaOutcome::Success(AlphaSuccess {
                result: inst,
                target,
                steps,
                trace: policy.into_log(),
                stats,
                provenance: None,
            });
        };
        policy.log(|| ChaseStep::TgdApplied {
            dep: tgd.name.clone(),
            added: head.iter().filter(|a| !inst.contains(a)).cloned().collect(),
        });
        for atom in head {
            if inst.insert(atom) {
                stats.atoms_inserted += 1;
                stats.peak_atoms = stats.peak_atoms.max(inst.len());
                if inst.len() > budget.max_atoms {
                    return AlphaOutcome::BudgetExceeded {
                        steps,
                        atoms: inst.len(),
                    };
                }
            }
        }
        steps += 1;
        stats.tgd_steps += 1;
        stats.triggers_fired += 1;
    }
}

/// Runs the α-chase with memoized fresh nulls; a success yields the
/// *canonical CWA-presolution* for `source` under `setting`.
pub fn canonical_presolution(
    setting: &Setting,
    source: &Instance,
    budget: &ChaseBudget,
) -> AlphaOutcome {
    let mut alpha = FreshAlpha::above(source);
    alpha_chase(setting, source, &mut alpha, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::isomorphic;
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

    fn c(name: &str) -> Value {
        Value::konst(name)
    }

    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// Justification helper for the Example 2.1 setting:
    /// dep indices are d1=0, d2=1 (s-t), d3=2 (target).
    fn j(dep: usize, frontier: &[Value], body_only: &[Value], z: usize) -> Justification {
        Justification {
            dep,
            frontier: frontier.to_vec(),
            body_only: body_only.to_vec(),
            z_index: z,
        }
    }

    /// Example 4.4, α₁: a successful α-chase whose result is
    /// S ∪ {E(a,b), E(a,_1), E(a,_2), F(a,_3), G(_3,_4)} = S ∪ T₂.
    #[test]
    fn example_4_4_alpha1_succeeds_with_t2() {
        let d = example_2_1();
        let mut alpha = TableAlpha::new([
            (j(1, &[c("a")], &[c("b")], 0), n(1)),
            (j(1, &[c("a")], &[c("b")], 1), n(3)),
            (j(1, &[c("a")], &[c("c")], 0), n(2)),
            (j(1, &[c("a")], &[c("c")], 1), n(3)),
            (j(2, &[n(3)], &[c("a")], 0), n(4)),
        ]);
        let out = alpha_chase(&d, &s_star(), &mut alpha, &ChaseBudget::default());
        let success = out.success().expect("α₁-chase succeeds");
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        assert_eq!(success.target, t2);
        assert!(d.is_solution(&s_star(), &success.target));
    }

    /// Example 4.4, α₂: a failing α-chase — F(a,c) and F(a,d) cannot be
    /// identified by the egd d4.
    #[test]
    fn example_4_4_alpha2_fails() {
        let d = example_2_1();
        let mut alpha = TableAlpha::new([
            (j(1, &[c("a")], &[c("b")], 0), c("b")),
            (j(1, &[c("a")], &[c("b")], 1), c("c")),
            (j(1, &[c("a")], &[c("c")], 0), c("b")),
            (j(1, &[c("a")], &[c("c")], 1), c("d")),
        ]);
        let out = alpha_chase(&d, &s_star(), &mut alpha, &ChaseBudget::default());
        match out {
            AlphaOutcome::Failing { witness, .. } => {
                assert_eq!(witness.egd, "d4");
                assert!(witness.left.is_const() && witness.right.is_const());
                // The trigger assignment and premises are reported.
                assert!(!witness.assignment.is_empty());
                assert_eq!(witness.premises.len(), 2);
            }
            other => panic!("expected failing chase, got {other:?}"),
        }
    }

    /// Example 4.4, α₃: every α₃-chase loops forever — the egd d4 keeps
    /// merging the two F-nulls, which re-enables d2, and so on.
    #[test]
    fn example_4_4_alpha3_loops_forever() {
        let d = example_2_1();
        let mut alpha = TableAlpha::new([
            (j(1, &[c("a")], &[c("b")], 0), c("b")),
            (j(1, &[c("a")], &[c("b")], 1), n(3)),
            (j(1, &[c("a")], &[c("c")], 0), c("b")),
            (j(1, &[c("a")], &[c("c")], 1), n(4)),
            (j(2, &[n(3)], &[c("a")], 0), n(1)),
            (j(2, &[n(4)], &[c("a")], 0), n(2)),
        ]);
        let out = alpha_chase(&d, &s_star(), &mut alpha, &ChaseBudget::probe());
        assert!(matches!(out, AlphaOutcome::CycleDetected { .. }));
    }

    /// The §7.2 remark in action: Example 2.1 is richly acyclic, yet the
    /// *fresh-per-justification* α has no finite α-chase — d4 keeps
    /// merging the two F-nulls, which re-enables d2's (a,c) trigger whose
    /// fixed ᾱ-value was renamed away. Only an α that shares the value
    /// across the two justifications (like the paper's α₁) succeeds.
    #[test]
    fn fresh_alpha_diverges_on_example_2_1_because_of_the_egd() {
        let d = example_2_1();
        let out = canonical_presolution(&d, &s_star(), &ChaseBudget::probe());
        assert!(matches!(out, AlphaOutcome::CycleDetected { .. }));
    }

    /// Without the egd d4, the fresh-α chase is Libkin's canonical
    /// CWA-presolution construction and succeeds.
    #[test]
    fn canonical_presolution_without_egd_succeeds() {
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2, G/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }
             t {
               d3: F(y,x) -> exists z . G(x,z);
             }",
        )
        .unwrap();
        let out = canonical_presolution(&d, &s_star(), &ChaseBudget::default());
        let success = out.success().expect("fresh-α chase succeeds without egds");
        assert!(d.is_solution(&s_star(), &success.target));
        let expected =
            parse_instance("E(a,b). E(a,_1). F(a,_2). E(a,_3). F(a,_4). G(_2,_5). G(_4,_6).")
                .unwrap();
        assert!(isomorphic(&success.target, &expected));
    }

    #[test]
    fn fresh_alpha_memoizes_per_justification() {
        let mut alpha = FreshAlpha::new(NullGen::new());
        let just = j(1, &[c("a")], &[c("b")], 0);
        let empty = Instance::new();
        let v1 = alpha.value(&just, &empty);
        let v2 = alpha.value(&just, &empty);
        assert_eq!(v1, v2);
        let other = j(1, &[c("a")], &[c("b")], 1);
        assert_ne!(alpha.value(&other, &empty), v1);
        assert_eq!(alpha.assigned(), 2);
    }

    #[test]
    fn trace_records_steps() {
        // Replay α₁: the trace lists the tgd applications of Example 4.4's
        // chase C (no egd ever fires because both F-values coincide).
        let d = example_2_1();
        let mut alpha = TableAlpha::new([
            (j(1, &[c("a")], &[c("b")], 0), n(1)),
            (j(1, &[c("a")], &[c("b")], 1), n(3)),
            (j(1, &[c("a")], &[c("c")], 0), n(2)),
            (j(1, &[c("a")], &[c("c")], 1), n(3)),
            (j(2, &[n(3)], &[c("a")], 0), n(4)),
        ]);
        let out = alpha_chase(&d, &s_star(), &mut alpha, &ChaseBudget::default());
        let success = out.success().unwrap();
        assert_eq!(success.trace.len(), success.steps);
        assert!(success
            .trace
            .iter()
            .all(|s| matches!(s, ChaseStep::TgdApplied { .. })));
        assert!(success
            .trace
            .iter()
            .any(|s| matches!(s, ChaseStep::TgdApplied { dep, .. } if dep == "d3")));
    }

    #[test]
    fn alpha_pointing_at_existing_atoms_blocks_firing() {
        // If α sends d2's z1/z2 for (a,b) to values already forming the
        // head, the trigger is never α-applicable, shrinking the result.
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2, G/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }",
        )
        .unwrap();
        let s = parse_instance("M(a,b). N(a,b).").unwrap();
        // α(d2,a,b,z1) = b: head E(a,b) present via d1; z2 fresh.
        let mut alpha = TableAlpha::new([(j(1, &[c("a")], &[c("b")], 0), c("b"))]);
        let out = alpha_chase(&d, &s, &mut alpha, &ChaseBudget::default());
        let success = out.success().unwrap();
        // Target: E(a,b) plus one F-atom; no E(a,null).
        assert_eq!(success.target.rows_of_len("E".into()), 1);
        assert_eq!(success.target.rows_of_len("F".into()), 1);
    }

    /// The naive driver's governor path: a raised cancel flag interrupts
    /// both policies before their first step, and a step limit of 0
    /// stops both before any step.
    #[test]
    fn naive_driver_honors_cancel_flag_and_step_limit() {
        use crate::standard::{chase_naive, ChaseError};
        use dex_core::govern::InterruptReason;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let d = example_2_1();
        let s = s_star();
        let cancelled = ChaseBudget::default().with_cancel(Arc::new(AtomicBool::new(true)));
        match chase_naive(&d, &s, &cancelled) {
            Err(ChaseError::Interrupted(i)) => assert_eq!(i.reason, InterruptReason::Cancelled),
            other => panic!("expected a cancelled chase, got {other:?}"),
        }
        match alpha_chase_naive(&d, &s, &mut FreshAlpha::above(&s), &cancelled) {
            AlphaOutcome::Interrupted(i) => assert_eq!(i.reason, InterruptReason::Cancelled),
            other => panic!("expected a cancelled α-chase, got {other:?}"),
        }
        let no_steps = ChaseBudget::new(0, 1_000);
        assert!(matches!(
            chase_naive(&d, &s, &no_steps),
            Err(ChaseError::BudgetExceeded { steps: 0, .. })
        ));
        assert!(matches!(
            alpha_chase_naive(&d, &s, &mut FreshAlpha::above(&s), &no_steps),
            AlphaOutcome::BudgetExceeded { steps: 0, .. }
        ));
    }

    #[test]
    fn empty_source_succeeds_immediately() {
        let d = example_2_1();
        let out = canonical_presolution(&d, &Instance::new(), &ChaseBudget::default());
        let success = out.success().unwrap();
        assert!(success.target.is_empty());
        assert_eq!(success.steps, 0);
    }
}
