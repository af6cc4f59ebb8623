//! Exhaustive enumeration of CWA-(pre)solutions up to isomorphism, by
//! systematic exploration of the α-choices (Section 5, Example 5.3).
//!
//! Every CWA-presolution is the result of a successful α-chase; under the
//! deterministic chase strategy the run is a function of the sequence of
//! values α returns for the justifications *in the order they are first
//! queried*. Each query's meaningful choices, up to renaming of nulls,
//! are: a fresh null, any value of the current instance, or a constant
//! from the dependency vocabulary — choosing a null minted later is
//! isomorphic to the later justification reusing this one's fresh null.
//! The enumerator therefore DFS-explores *choice scripts*: it replays a
//! script through the real α-chase, and whenever the chase asks for a
//! choice beyond the script's end it forks one child script per menu
//! entry. By Lemma 4.5 the result per α is strategy-independent, so
//! enumerating scripts enumerates all CWA-presolutions (up to iso) within
//! the limits.
//!
//! Replays are independent — each is a pure function of its script — so
//! the enumerator fans waves of pending scripts out over a [`Pool`]. The
//! wave size is a fixed constant and outcomes are consumed strictly in
//! submission order, so results, stats and traces are byte-identical for
//! every thread count.
//!
//! The whole enumeration runs under the caller's [`Governor`]. It is
//! force-checked once per wave and ticked once per consumed replay, on
//! the consuming loop, so a fuel or fault trip lands on the same replay
//! at every thread count. Replays stay private: each one's chase runs
//! under its own governor for the per-replay [`ChaseBudget`] on the
//! caller's clock, and traces into a private ring that is re-emitted
//! into the caller's tracer in submission order.

use dex_chase::{
    AlphaOutcome, AlphaSource, ChaseBudget, ChaseEngine, ChaseError, ChaseStats, Justification,
};
use dex_core::govern::Interrupt;
use dex_core::{
    has_homomorphism, Clock, Governor, Instance, IsoDeduper, NullGen, Pool, Symbol, Value,
};
use dex_logic::Setting;
use dex_obs::{RingRecorder, Tracer};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Limits for the enumeration.
#[derive(Clone, Debug)]
pub struct EnumLimits {
    /// Stop after this many distinct (up-to-iso) presolutions.
    pub max_results: usize,
    /// Stop after exploring this many scripts.
    pub max_scripts: usize,
    /// Budget per individual α-chase replay.
    pub chase_budget: ChaseBudget,
    /// Restrict choice menus to fresh/existing *nulls* (complete for
    /// settings without egds, where no constant can be forced into an
    /// existential position of a universal solution; much faster).
    pub nulls_only: bool,
}

impl Default for EnumLimits {
    fn default() -> EnumLimits {
        EnumLimits {
            max_results: 10_000,
            max_scripts: 1_000_000,
            chase_budget: ChaseBudget::probe(),
            nulls_only: false,
        }
    }
}

/// Scripts replayed per fan-out wave. Deliberately a constant — never
/// derived from the pool's thread count — so the set of scripts explored
/// (and therefore results and stats) is identical for every
/// `DEX_THREADS`, and big enough to keep 8 workers busy per wave.
const WAVE: usize = 64;

/// Events retained per replay's private trace ring. Oversized replays
/// drop their oldest events exactly as a shared ring of the same
/// capacity would.
const REPLAY_RING_CAPACITY: usize = 4096;

/// An α driven by a finite choice script. Each *new* justification
/// consumes one script entry indexing into the menu
/// `[fresh, v₁, …, v_k, c₁, …]` (current domain values, then vocabulary
/// constants not in the domain). When the script is exhausted, the first
/// overrun records the menu size and falls back to fresh nulls.
struct ScriptAlpha<'a> {
    script: &'a [usize],
    pos: usize,
    memo: HashMap<Justification, Value>,
    gen: NullGen,
    pool: &'a [Symbol],
    nulls_only: bool,
    overrun_menu: Option<usize>,
}

impl ScriptAlpha<'_> {
    fn menu(&self, inst: &Instance) -> Vec<Value> {
        // Reusable values: the current active domain plus values already
        // assigned to other justifications in this run (a tgd's head atoms
        // are inserted only after *all* its existentials are assigned, so
        // intra-trigger sharing — Example 5.3's z3 = z4 — must see them).
        let mut domain: BTreeSet<Value> = inst.active_domain();
        domain.extend(self.memo.values().copied());
        let mut m: Vec<Value> = Vec::new();
        if self.nulls_only {
            m.extend(domain.iter().copied().filter(Value::is_null));
        } else {
            m.extend(domain.iter().copied());
            for &c in self.pool {
                if !domain.contains(&Value::Const(c)) {
                    m.push(Value::Const(c));
                }
            }
        }
        m
    }
}

impl AlphaSource for ScriptAlpha<'_> {
    fn value(&mut self, j: &Justification, inst: &Instance) -> Value {
        if let Some(&v) = self.memo.get(j) {
            return v;
        }
        let menu = self.menu(inst);
        let v = if self.pos < self.script.len() {
            let choice = self.script[self.pos];
            self.pos += 1;
            if choice == 0 {
                self.gen.fresh_value()
            } else {
                menu[choice - 1]
            }
        } else {
            if self.overrun_menu.is_none() {
                // Menu size + 1 for the "fresh" option at index 0.
                self.overrun_menu = Some(menu.len() + 1);
            }
            self.gen.fresh_value()
        };
        self.memo.insert(j.clone(), v);
        v
    }
}

/// Constants of the dependency vocabulary (offered as α-choices even when
/// not yet in the instance).
fn vocabulary_constants(setting: &Setting) -> Vec<Symbol> {
    let mut out: BTreeSet<Symbol> = BTreeSet::new();
    for tgd in setting.all_tgds() {
        for a in &tgd.head {
            out.extend(a.constants());
        }
        if let dex_logic::Body::Conj(atoms) = &tgd.body {
            for a in atoms {
                out.extend(a.constants());
            }
        }
    }
    for egd in &setting.egds {
        for a in &egd.body {
            out.extend(a.constants());
        }
    }
    out.into_iter().collect()
}

/// Statistics from an enumeration run.
#[derive(Clone, Debug, Default)]
pub struct EnumStats {
    pub scripts_explored: usize,
    pub chases_succeeded: usize,
    /// Replays that *definitely* yield no presolution: a failing chase
    /// (egd conflict on constants) or a provably infinite one (state
    /// cycle under the deterministic strategy).
    pub chases_failed: usize,
    /// Replays that exhausted their per-replay step/atom budget. Unlike
    /// `chases_failed`, these say nothing definite: a presolution
    /// reachable only through such a script is missing from the results.
    pub chases_unfinished: usize,
    /// Replays stopped by an interrupt: the per-replay budget's deadline
    /// or cancel flag, or the enumeration's governor tripping at them.
    pub chases_interrupted: usize,
    pub truncated: bool,
    /// Set when the run was cut short by an interrupt (in a replay, on
    /// the enumeration's governor, or, for [`enumerate_cwa_solutions`],
    /// while computing the canonical universal solution).
    pub interrupted: Option<Interrupt>,
    /// Per-replay [`ChaseStats`] of every *successful* chase, merged via
    /// [`ChaseStats::merge`] in submission order. Counter fields are
    /// deterministic across thread counts; `*_time_ns` are wall-clock.
    pub chase: ChaseStats,
}

impl EnumStats {
    /// True iff the result list is *complete*: every CWA-presolution
    /// (up to iso) reachable within the limits was found and no replay
    /// ended indeterminately.
    pub fn is_complete(&self) -> bool {
        !self.truncated && self.chases_unfinished == 0 && self.interrupted.is_none()
    }

    /// Counts one more script as explored and interrupted by `i`: the
    /// one at which the enumeration's governor tripped.
    fn interrupted_at(&mut self, i: Interrupt) {
        self.scripts_explored += 1;
        self.chases_interrupted += 1;
        self.interrupted = Some(i);
    }

    /// Internal consistency invariants; the governed test sweep asserts
    /// this on every enumeration outcome.
    pub fn validate(&self) -> Result<(), String> {
        let outcomes = self.chases_succeeded
            + self.chases_failed
            + self.chases_unfinished
            + self.chases_interrupted;
        // Every script accounts for at most one outcome; the solutions
        // path can add one more for the canonical-solution chase, which
        // runs without a script of its own.
        if outcomes > self.scripts_explored + 1 {
            return Err(format!(
                "{outcomes} chase outcomes from {} scripts (max {})",
                self.scripts_explored,
                self.scripts_explored + 1
            ));
        }
        if (self.chases_interrupted > 0) != self.interrupted.is_some() {
            return Err(format!(
                "chases_interrupted = {} but interrupted = {:?}",
                self.chases_interrupted, self.interrupted
            ));
        }
        if self.interrupted.is_some() && self.is_complete() {
            return Err("interrupted run claims completeness".to_string());
        }
        self.chase
            .validate()
            .map_err(|e| format!("merged chase stats: {e}"))?;
        Ok(())
    }

    /// The counters as a flat JSON object; `interrupted` is `null` or
    /// the interrupt's own object shape.
    pub fn to_json(&self) -> dex_obs::JsonValue {
        use dex_obs::JsonValue;
        JsonValue::obj()
            .with(
                "scripts_explored",
                JsonValue::uint(self.scripts_explored as u64),
            )
            .with(
                "chases_succeeded",
                JsonValue::uint(self.chases_succeeded as u64),
            )
            .with("chases_failed", JsonValue::uint(self.chases_failed as u64))
            .with(
                "chases_unfinished",
                JsonValue::uint(self.chases_unfinished as u64),
            )
            .with(
                "chases_interrupted",
                JsonValue::uint(self.chases_interrupted as u64),
            )
            .with("truncated", JsonValue::Bool(self.truncated))
            .with("complete", JsonValue::Bool(self.is_complete()))
            .with(
                "interrupted",
                self.interrupted
                    .as_ref()
                    .map_or(JsonValue::Null, Interrupt::to_json),
            )
            .with("chase", self.chase.json_value())
    }
}

/// One replayed script's outcome as produced by a pool worker, ready to
/// be consumed by the sequential bookkeeping loop.
struct Replay {
    outcome: AlphaOutcome,
    overrun_menu: Option<usize>,
    ring: Option<Arc<RingRecorder>>,
}

/// Replays one choice script through the α-chase. Pure in `script` for
/// fixed setting/source/limits — this is what makes wave fan-out safe:
/// workers share nothing but read-only inputs. The chase runs under its
/// own governor for `limits.chase_budget` on `clock` (deadline and
/// timings) whether or not it is traced; with `traced`, events go to a
/// private ring for deterministic re-emission after the join.
fn replay_script(
    setting: &Setting,
    source: &Instance,
    script: &[usize],
    vocab: &[Symbol],
    fresh_base: u32,
    limits: &EnumLimits,
    traced: bool,
    clock: &Clock,
) -> Replay {
    // Fresh nulls must start above the source's values.
    let mut gen = NullGen::new();
    for _ in 0..fresh_base {
        gen.fresh();
    }
    let mut alpha = ScriptAlpha {
        script,
        pos: 0,
        memo: HashMap::new(),
        gen,
        pool: vocab,
        nulls_only: limits.nulls_only,
        overrun_menu: None,
    };
    let ring = traced.then(|| Arc::new(RingRecorder::new(REPLAY_RING_CAPACITY)));
    let tracer = ring
        .as_ref()
        .map_or_else(Tracer::off, |r| Tracer::new(Arc::clone(r) as _));
    let gov = limits
        .chase_budget
        .governor(clock)
        .with_tracer(tracer.clone());
    let outcome = ChaseEngine::new(setting, &limits.chase_budget)
        .with_governor(&gov)
        .run_alpha(source, &mut alpha);
    // A terminal outcome mid-round (budget, conflict, cycle) leaks the
    // round's span guards; close them so every replayed ring is a
    // well-formed stream.
    tracer.close_open_spans(clock.now_ns());
    Replay {
        outcome,
        overrun_menu: alpha.overrun_menu,
        ring,
    }
}

/// Enumerates the CWA-presolutions for `source` under `setting`, up to
/// isomorphism, within `limits`, under `gov`. Pending scripts are
/// replayed in waves on `pool` and their outcomes consumed strictly in
/// submission order, so the result list, stats and trace stream (on
/// `gov`'s tracer) are byte-identical for every thread count.
pub fn enumerate_cwa_presolutions(
    setting: &Setting,
    source: &Instance,
    limits: &EnumLimits,
    gov: &Governor,
    pool: &Pool,
) -> (Vec<Instance>, EnumStats) {
    let vocab = vocabulary_constants(setting);
    let fresh_base = NullGen::above(source.values()).peek();
    let (clock, tracer) = (gov.clock(), gov.tracer());
    let traced = tracer.enabled();
    let mut stats = EnumStats::default();
    let mut results = IsoDeduper::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while !stack.is_empty() {
        if stats.scripts_explored >= limits.max_scripts || results.len() >= limits.max_results {
            stats.truncated = true;
            break;
        }
        // Deadline and cancel are evaluated at once here, not only every
        // CHECK_INTERVAL ticks.
        if let Err(i) = gov.force_check() {
            stats.interrupted_at(i);
            break;
        }
        // Take a wave of scripts off the top of the stack and replay them
        // on the pool. Capping the wave by the remaining script budget
        // keeps speculative work bounded; capping by WAVE (a constant)
        // keeps the exploration order thread-count independent.
        let batch = stack
            .len()
            .min(WAVE)
            .min(limits.max_scripts - stats.scripts_explored);
        let wave: Vec<Vec<usize>> = (0..batch).map(|_| stack.pop().unwrap()).collect();
        // One span per wave wraps the replayed event stream, stamped
        // from the enumeration clock like the replays inside it.
        let sp_wave = tracer.span("wave", clock.now_ns());
        // Each wave item is a full α-chase replay — heavy enough that
        // any multi-script wave clears the pool's inline threshold.
        let replays = pool.map(&wave, dex_core::Cost::Heavy, |_, script| {
            replay_script(
                setting, source, script, &vocab, fresh_base, limits, traced, clock,
            )
        });
        // Consume outcomes strictly in submission order — this loop is
        // the sequential enumeration verbatim. Replays past a truncation
        // or interrupt point are speculative work that is discarded
        // without being counted anywhere.
        let stop = 'wave: {
            for (script, replay) in wave.iter().zip(replays) {
                if stats.scripts_explored >= limits.max_scripts
                    || results.len() >= limits.max_results
                {
                    stats.truncated = true;
                    break 'wave true;
                }
                // One tick per consumed replay; the replay at which the
                // governor trips counts as explored and interrupted.
                if let Err(i) = gov.check() {
                    stats.interrupted_at(i);
                    break 'wave true;
                }
                stats.scripts_explored += 1;
                if let Some(ring) = &replay.ring {
                    ring.replay_into(tracer);
                }
                if let Some(menu_size) = replay.overrun_menu {
                    // The script was too short: fork one child per choice.
                    // Pushed in reverse so choice 0 (fresh) is explored first.
                    for choice in (0..menu_size).rev() {
                        let mut child = script.clone();
                        child.push(choice);
                        stack.push(child);
                    }
                    continue;
                }
                match replay.outcome {
                    AlphaOutcome::Success(s) => {
                        stats.chases_succeeded += 1;
                        stats.chase.merge(&s.stats);
                        // Dedup up to isomorphism online: the raw result
                        // stream repeats each class many times (different
                        // scripts, same α up to renaming of nulls).
                        results.insert(s.target);
                    }
                    // Both are definite negatives: a failing chase, or one
                    // that provably runs forever — either way this α admits
                    // no successful chase, hence no presolution
                    // (Definition 4.6).
                    AlphaOutcome::Failing { .. } | AlphaOutcome::CycleDetected { .. } => {
                        stats.chases_failed += 1
                    }
                    AlphaOutcome::BudgetExceeded { .. } => {
                        // Indeterminate: a presolution reachable only through
                        // this script may be missing from the results.
                        stats.chases_unfinished += 1;
                    }
                    AlphaOutcome::Interrupted(i) => {
                        // Deadline/cancel: stop the whole enumeration —
                        // every further replay would trip the same way.
                        stats.chases_interrupted += 1;
                        stats.interrupted = Some(i);
                        break 'wave true;
                    }
                }
            }
            false
        };
        sp_wave.close(clock.now_ns());
        if stop {
            break;
        }
    }
    (results.into_representatives(), stats)
}

/// Enumerates the CWA-*solutions* (Theorem 4.8: the universal ones among
/// the presolutions), up to isomorphism, under `gov`: the presolution
/// enumeration of [`enumerate_cwa_presolutions`], then one chase for the
/// canonical universal solution, then the universality filter, whose
/// per-presolution checks fan out on `pool`. An interrupted run returns
/// no solutions.
pub fn enumerate_cwa_solutions(
    setting: &Setting,
    source: &Instance,
    limits: &EnumLimits,
    gov: &Governor,
    pool: &Pool,
) -> (Vec<Instance>, EnumStats) {
    let (pres, mut stats) = enumerate_cwa_presolutions(setting, source, limits, gov, pool);
    if stats.interrupted.is_some() {
        return (Vec::new(), stats);
    }
    // Theorem 4.8: filter to the universal presolutions. The canonical
    // universal solution is computed once; a presolution is universal iff
    // it is a solution mapping homomorphically into it.
    let canon = match ChaseEngine::new(setting, &ChaseBudget::default())
        .with_governor(gov)
        .run(source)
    {
        Ok(chased) => chased.target,
        // A failing chase is definite: no solutions at all exist.
        Err(ChaseError::EgdConflict { .. }) => return (Vec::new(), stats),
        // Budget/interrupt is NOT "no CWA-solutions" — report the run as
        // cut short rather than returning a silently-empty answer.
        Err(ChaseError::BudgetExceeded { .. }) => {
            stats.chases_unfinished += 1;
            stats.truncated = true;
            return (Vec::new(), stats);
        }
        Err(ChaseError::Interrupted(i)) => {
            stats.chases_interrupted += 1;
            stats.interrupted = Some(i);
            return (Vec::new(), stats);
        }
    };
    // Each presolution's universality check is independent; fan them out
    // and keep the original order (map preserves submission order).
    // Per-presolution cost: a solution check plus a hom search into the
    // canonical solution — scales with the instance size, so the handful
    // of paper-example presolutions stay inline.
    let keep_cost =
        dex_core::Cost::EstimateNs((canon.len() as u64).saturating_mul(canon.len() as u64));
    let keep = pool.map(&pres, keep_cost, |_, t| {
        setting.is_solution(source, t) && has_homomorphism(t, &canon)
    });
    let sols = pres
        .into_iter()
        .zip(keep)
        .filter_map(|(t, k)| k.then_some(t))
        .collect();
    (sols, stats)
}

/// The subsets of `solutions` that are *not* a homomorphic image of any
/// other listed solution — the pairwise-incomparable witnesses of
/// Example 5.3.
pub fn maximal_under_image(solutions: &[Instance]) -> Vec<Instance> {
    solutions
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !solutions
                .iter()
                .enumerate()
                .any(|(j, u)| j != *i && crate::solution::is_homomorphic_image_of(t, u))
        })
        .map(|(_, t)| t.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::isomorphic;
    use dex_logic::{parse_instance, parse_setting};

    fn unlimited() -> Governor {
        Governor::unlimited()
    }

    /// The setting of Example 5.3.
    fn example_5_3() -> Setting {
        parse_setting(
            "source { P/1 }
             target { E/3, F/3 }
             st {
               d1: P(x) -> exists z1,z2,z3,z4 . E(x,z1,z3) & E(x,z2,z4);
             }
             t {
               d2: E(x,x1,y) & E(x,x2,y) -> F(x,x1,x2);
             }",
        )
        .unwrap()
    }

    #[test]
    fn example_5_3_has_the_papers_t_and_t_prime() {
        let d = example_5_3();
        let s = parse_instance("P(1).").unwrap();
        let limits = EnumLimits {
            nulls_only: true,
            ..EnumLimits::default()
        };
        let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        assert!(!stats.truncated);
        let t = parse_instance("E(1,_1,_3). E(1,_2,_4). F(1,_1,_1). F(1,_2,_2).").unwrap();
        let t_prime = parse_instance(
            "E(1,_1,_3). E(1,_2,_3). F(1,_1,_1). F(1,_2,_2). F(1,_1,_2). F(1,_2,_1).",
        )
        .unwrap();
        assert!(
            sols.iter().any(|x| isomorphic(x, &t)),
            "T missing: {sols:?}"
        );
        assert!(sols.iter().any(|x| isomorphic(x, &t_prime)), "T' missing");
        // Both are maximal under the image preorder — incomparable.
        let maximal = maximal_under_image(&sols);
        assert!(maximal.iter().any(|x| isomorphic(x, &t)));
        assert!(maximal.iter().any(|x| isomorphic(x, &t_prime)));
        assert!(maximal.len() >= 2, "at least 2 incomparable CWA-solutions");
    }

    /// For the Libkin fragment of Example 2.1 (no target dependencies) the
    /// enumeration finds exactly the three CWA-solutions of Section 3, up
    /// to isomorphism.
    #[test]
    fn libkin_fragment_has_exactly_three_cwa_solutions() {
        let d = parse_setting(
            "source { M/2, N/2 }
             target { E/2, F/2, G/2 }
             st {
               d1: M(x1,x2) -> E(x1,x2);
               d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
             }",
        )
        .unwrap();
        let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
        let (sols, stats) =
            enumerate_cwa_solutions(&d, &s, &EnumLimits::default(), &unlimited(), &Pool::seq());
        assert!(!stats.truncated);
        // By Definitions 4.6/4.7 + Theorem 4.8 the CWA-solutions are the
        // universal CWA-presolutions: E(a,b), plus 0-2 null E-successors
        // of a, plus 1-2 null F-successors — six up to renaming of nulls.
        // (The paper's Section 3 recap prints three of these shapes; the
        // other three differ only in keeping the two triggers' F-nulls
        // distinct, which the formal definitions clearly admit.)
        let expected = [
            "E(a,b). F(a,_1).",
            "E(a,b). E(a,_1). F(a,_2).",
            "E(a,b). E(a,_1). E(a,_2). F(a,_3).",
            "E(a,b). F(a,_1). F(a,_2).",
            "E(a,b). E(a,_1). F(a,_2). F(a,_3).",
            "E(a,b). E(a,_1). E(a,_2). F(a,_3). F(a,_4).",
        ];
        assert_eq!(sols.len(), 6, "got {sols:?}");
        for e in expected {
            let e = parse_instance(e).unwrap();
            assert!(sols.iter().any(|x| isomorphic(x, &e)), "missing {e}");
        }
    }

    /// Example 2.1 in full: T₂ is the single ⊑-maximal CWA-solution shape
    /// found, and the core T₃ is among the solutions.
    #[test]
    fn example_2_1_enumeration_contains_core_and_t2() {
        let d = parse_setting(
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
        .unwrap();
        let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
        // Full menus: T3 needs d2's z1 to reuse the *constant* b so that
        // no extra E-atom is created.
        let (sols, stats) =
            enumerate_cwa_solutions(&d, &s, &EnumLimits::default(), &unlimited(), &Pool::seq());
        assert!(!stats.truncated);
        let t2 = parse_instance("E(a,b). E(a,_1). E(a,_2). F(a,_3). G(_3,_4).").unwrap();
        let t3 = parse_instance("E(a,b). F(a,_1). G(_1,_2).").unwrap();
        assert!(sols.iter().any(|x| isomorphic(x, &t2)), "T2 missing");
        assert!(sols.iter().any(|x| isomorphic(x, &t3)), "T3 missing");
    }

    /// The enumeration reads its governor's clock alone: replays, traced
    /// or not, check their budget's deadline on it (parked, a 1 ns
    /// deadline never passes, so the traced and untraced runs agree and
    /// neither is interrupted), and every event, wave spans included, is
    /// stamped from it.
    #[test]
    fn enumeration_reads_the_governor_clock() {
        let d = example_5_3();
        let s = parse_instance("P(1).").unwrap();
        let limits = EnumLimits {
            nulls_only: true,
            chase_budget: ChaseBudget::probe().with_deadline(std::time::Duration::from_nanos(1)),
            ..EnumLimits::default()
        };
        let (clock, mock) = Clock::mock();
        mock.set_ns(7_000);
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let untraced = Governor::with_clock_now(clock.clone());
        let traced = Governor::with_clock_now(clock).with_tracer(Tracer::new(ring.clone()));
        let seq = Pool::seq();
        let (sols_u, stats_u) = enumerate_cwa_presolutions(&d, &s, &limits, &untraced, &seq);
        let (sols_t, stats_t) = enumerate_cwa_presolutions(&d, &s, &limits, &traced, &seq);
        assert!(stats_u.interrupted.is_none(), "{stats_u:?}");
        assert_eq!(format!("{stats_u:?}"), format!("{stats_t:?}"));
        assert_eq!(sols_u, sols_t);
        let events = ring.events();
        let wave = dex_obs::EventKind::SpanOpened {
            name: "wave".into(),
        };
        assert!(events.iter().any(|e| e.kind == wave));
        assert!(events.iter().all(|e| e.at_ns == 7_000));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn empty_source_has_single_empty_solution() {
        let d = example_5_3();
        let (sols, _) = enumerate_cwa_solutions(
            &d,
            &Instance::new(),
            &EnumLimits::default(),
            &unlimited(),
            &Pool::seq(),
        );
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    /// A replay that exhausts its step budget must surface as
    /// `chases_unfinished` (answer possibly incomplete), not be lumped
    /// into the definite `chases_failed` bucket.
    #[test]
    fn budget_exceeded_replay_is_not_mislabeled_as_failed() {
        // Transitive closure over a chain: no existentials (so scripts
        // never fork), but the closure needs more steps than the budget.
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(1,2). E(2,3). E(3,4). E(4,5). E(5,6).").unwrap();
        let limits = EnumLimits {
            chase_budget: dex_chase::ChaseBudget::new(3, 1_000),
            ..EnumLimits::default()
        };
        let (pres, stats) = enumerate_cwa_presolutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        assert!(pres.is_empty());
        assert_eq!(stats.chases_unfinished, 1);
        assert_eq!(stats.chases_failed, 0);
        assert!(!stats.is_complete());
        // A generous budget decides the same setting completely.
        let (pres, stats) =
            enumerate_cwa_presolutions(&d, &s, &EnumLimits::default(), &unlimited(), &Pool::seq());
        assert_eq!(pres.len(), 1);
        assert!(stats.is_complete());
    }

    /// A cancelled run reports the interrupt instead of a silently-empty
    /// "no CWA-solutions" answer.
    #[test]
    fn cancelled_run_reports_interrupt_not_empty_answer() {
        use dex_core::govern::InterruptReason;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let d = example_5_3();
        let s = parse_instance("P(1).").unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        flag.store(true, Ordering::Relaxed);
        let limits = EnumLimits {
            chase_budget: dex_chase::ChaseBudget::probe().with_cancel(Arc::clone(&flag)),
            nulls_only: true,
            ..EnumLimits::default()
        };
        let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        assert!(sols.is_empty());
        let i = stats.interrupted.expect("cancel must be reported");
        assert_eq!(i.reason, InterruptReason::Cancelled);
        assert!(!stats.is_complete());
        // Without the flag raised the same limits enumerate normally.
        flag.store(false, Ordering::Relaxed);
        let (sols, stats) = enumerate_cwa_solutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        assert!(!sols.is_empty());
        assert!(stats.is_complete());
    }

    /// `EnumStats::validate` accepts every real enumeration outcome and
    /// rejects books that don't balance.
    #[test]
    fn enum_stats_validate_and_json() {
        let d = example_5_3();
        let s = parse_instance("P(1).").unwrap();
        let limits = EnumLimits {
            nulls_only: true,
            ..EnumLimits::default()
        };
        let (_, stats) = enumerate_cwa_solutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        stats.validate().expect("real run validates");
        let j = stats.to_json();
        assert_eq!(
            j.get("scripts_explored").and_then(|v| v.as_u128()),
            Some(stats.scripts_explored as u128)
        );
        assert_eq!(j.get("interrupted"), Some(&dex_obs::JsonValue::Null));
        // The JSON round-trips through the in-tree parser.
        assert_eq!(dex_obs::parse(&j.dump()).unwrap(), j);
        // More outcomes than scripts (+1 for the canonical chase) is
        // inconsistent bookkeeping.
        let bad = EnumStats {
            scripts_explored: 1,
            chases_succeeded: 2,
            chases_failed: 1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // An interrupt count without the interrupt itself (or vice versa)
        // is inconsistent.
        let bad = EnumStats {
            scripts_explored: 3,
            chases_interrupted: 1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    /// Truncation bookkeeping must also be thread-count independent:
    /// speculative replays beyond the cut are discarded, not counted.
    #[test]
    fn parallel_truncation_is_thread_count_independent() {
        let d = example_5_3();
        let s = parse_instance("P(1). P(2). P(3).").unwrap();
        let limits = EnumLimits {
            max_scripts: 50,
            nulls_only: true,
            ..EnumLimits::default()
        };
        let (base, base_stats) =
            enumerate_cwa_presolutions(&d, &s, &limits, &unlimited(), &Pool::seq());
        assert!(base_stats.truncated);
        assert_eq!(base_stats.scripts_explored, 50);
        for threads in [2, 8] {
            let pool = Pool::new(threads);
            let (pres, stats) = enumerate_cwa_presolutions(&d, &s, &limits, &unlimited(), &pool);
            assert_eq!(pres, base);
            assert_eq!(stats.scripts_explored, 50);
            assert!(stats.truncated);
        }
    }
}
