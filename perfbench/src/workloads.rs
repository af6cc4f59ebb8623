//! The four workloads. Each one builds its inputs from the run seed with
//! `dex-datagen` (untimed), names its program set-up calls, and splits a
//! request into a write (the exchange step) and a read (a query batch
//! over what the write produced). Settings are fixed per workload; the
//! seed varies only the source content, so every run does work of one
//! size class.

use crate::trace::Spans;
use dex_chase::{chase_naive, ChaseBudget, ChaseEngine, ChaseStats, ChaseSuccess};
use dex_core::govern::{Clock, Governor};
use dex_core::{core, core_parallel_governed, isomorphic, Atom, Instance, Pool, Symbol};
use dex_cwa::{cansol, core_solution};
use dex_datagen::{
    conflicting_keyed_instance, conflicting_keyed_setting, layered_setting, mapping_scenario,
    random_source, update_stream, LayeredConfig, ScenarioConfig, SourceConfig, UpdateStreamConfig,
};
use dex_logic::{
    instance_to_dsl, parse_delta, parse_instance, parse_query, parse_setting, setting_to_dsl,
    Query, Setting,
};
use dex_query::{
    drop_null_tuples, eval_query, ucq_certain_answers, AnswerConfig, AnswerEngine, Answers,
    Semantics,
};
use dex_repair::{naive_repairs, XrEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Per-call deadline. Ops take milliseconds to tens of milliseconds; a
/// call that runs into this is a regression over a cost cliff and counts
/// as a failed op instead of hanging the run.
pub const OP_BUDGET: Duration = Duration::from_secs(2);

/// Work counters of one request. For a given seed they must repeat
/// exactly from run to run.
pub type Work = BTreeMap<&'static str, u64>;

fn budget() -> ChaseBudget {
    ChaseBudget::default().with_deadline(OP_BUDGET)
}

fn governor() -> Governor {
    Governor::with_clock_now(Clock::real()).with_deadline(OP_BUDGET)
}

fn answer_config() -> AnswerConfig {
    AnswerConfig {
        chase_budget: budget(),
        pool: Pool::seq(),
        ..AnswerConfig::default()
    }
}

/// SplitMix64 of `(seed, i)`: the per-op input seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn add(work: &mut Work, key: &'static str, n: usize) {
    *work.entry(key).or_insert(0) += n as u64;
}

fn add_chase(work: &mut Work, s: &ChaseStats) {
    add(work, "triggers_examined", s.triggers_examined);
    add(work, "triggers_fired", s.triggers_fired);
    add(work, "egd_steps", s.egd_steps);
    add(work, "atoms_inserted", s.atoms_inserted);
    add(work, "atoms_retracted", s.atoms_retracted);
    add(work, "atoms_rederived", s.atoms_rederived);
}

fn parse_queries(texts: &[String]) -> Result<Vec<Query>, String> {
    texts
        .iter()
        .map(|q| parse_query(q).map_err(|e| format!("query `{q}`: {e}")))
        .collect()
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// One workload: inputs built at construction, then set-up and requests.
pub trait Workload {
    /// What the text-level set-up calls produce (parsed setting, queries).
    type Prepared;
    /// Live state over a prepared set-up, replayed from scratch each pass.
    type State<'a>
    where
        Self: 'a;
    /// What a write hands to its read and to the output check.
    type Written<'a>
    where
        Self: 'a;

    /// Number of request inputs built.
    fn inputs(&self) -> usize;
    /// Set-up calls on text: parse the setting and the query batch.
    fn prepare(&self) -> Result<Self::Prepared, String>;
    /// Set-up calls that build state (`update`: the initial chase and the
    /// answer engine).
    fn open<'a>(&'a self, p: &'a Self::Prepared) -> Result<Self::State<'a>, String>;
    /// The write of request `i`.
    fn write<'a>(
        &'a self,
        st: &mut Self::State<'a>,
        i: usize,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<Self::Written<'a>, String>;
    /// The read issued after the write: one answer set per query.
    fn read<'a>(
        &'a self,
        st: &Self::State<'a>,
        out: &Self::Written<'a>,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<Vec<Answers>, String>;
    /// Output check, run outside the timed window. `deep` adds the
    /// comparison against an independent reference implementation.
    fn check<'a>(
        &'a self,
        st: &Self::State<'a>,
        i: usize,
        out: &Self::Written<'a>,
        answers: &[Answers],
        deep: bool,
    ) -> Result<(), String>;
}

/// Every result must be a solution for its source.
fn check_solution(
    setting: &Setting,
    source: &Instance,
    t: &Instance,
    what: &str,
) -> Result<(), String> {
    if setting.is_solution(source, t) {
        Ok(())
    } else {
        Err(format!("{what} is not a solution for its source"))
    }
}

/// The reference core: the naive chase, then core retraction.
fn check_core_reference(
    setting: &Setting,
    source: &Instance,
    got: &Instance,
) -> Result<(), String> {
    let naive = chase_naive(setting, source, &ChaseBudget::default())
        .map_err(|e| err("reference naive chase", e))?;
    if isomorphic(&core(&naive.target), got) {
        Ok(())
    } else {
        Err("core differs from core(chase_naive(..)) up to isomorphism".to_owned())
    }
}

/// UCQ certain answers agree on every universal solution, so the chase
/// target answers as the core does.
fn check_answers_reference(
    queries: &[Query],
    universal: &Instance,
    got: &[Answers],
) -> Result<(), String> {
    for (q, a) in queries.iter().zip(got) {
        if &drop_null_tuples(&eval_query(q, universal)) != a {
            return Err(format!("answers of `{q}` differ from the chase target's"));
        }
    }
    Ok(())
}

/// Parse → chase → core, then a UCQ batch over the core: what `dex core`
/// does, followed by querying the materialized minimal CWA-solution.
/// `keyed` adds `cansol` to the write.
pub struct Exchange {
    setting_dsl: String,
    query_dsl: Vec<String>,
    sources: Vec<String>,
    with_cansol: bool,
}

pub struct Prepared {
    setting: Setting,
    queries: Vec<Query>,
}

pub struct ExchangeOut {
    source: Instance,
    chased: ChaseSuccess,
    core: Instance,
    cansol: Option<Instance>,
}

/// The `exchange` family: a layered setting with existential up-tgds,
/// swap tgds and full join tgds, so the core retraction dominates.
pub fn exchange(seed: u64, ops: usize) -> Exchange {
    let setting = layered_setting(&LayeredConfig {
        source_rels: 2,
        layers: 4,
        rels_per_layer: 2,
        up_tgds_per_layer: 2,
        full_tgds_per_layer: 1,
        join_tgds_per_layer: 1,
        with_egds: false,
        rich_breaking: false,
        seed: 3,
    });
    let queries = (0..4)
        .map(|l| format!("Q(x,y) :- T{l}_0(x,z), T{l}_1(z,y); Q(x,y) :- T{l}_1(x,z), T{l}_0(z,y)"))
        .collect();
    sources_for(setting, queries, seed, ops, 40, 120, false)
}

/// The `keyed` family: copies, vertical partitions and surrogate keys
/// with key egds; chase- and `cansol`-bound.
pub fn keyed(seed: u64, ops: usize) -> Exchange {
    let queries = vec![
        "Q(x,y) :- Lookup0(k,x), Rest0(k,y)".to_owned(),
        "Q(x,y) :- Lookup1(k,x), Rest1(k,y)".to_owned(),
        "Q(x,y) :- Lookup2(k,x), Rest2(k,y)".to_owned(),
        "Q(k,a,b) :- PartA0(k,a), PartB0(k,b)".to_owned(),
        "Q(k,a,b) :- PartA1(k,a), PartB1(k,b)".to_owned(),
    ];
    sources_for(scenario(), queries, seed, ops, 150, 150, true)
}

fn scenario() -> Setting {
    mapping_scenario(&ScenarioConfig {
        copies: 2,
        partitions: 2,
        surrogates: 3,
        seed: 5,
    })
}

fn sources_for(
    setting: Setting,
    query_dsl: Vec<String>,
    seed: u64,
    ops: usize,
    num_constants: usize,
    tuples_per_relation: usize,
    with_cansol: bool,
) -> Exchange {
    let sources = (0..ops)
        .map(|i| {
            instance_to_dsl(&random_source(
                &setting.source,
                &SourceConfig {
                    num_constants,
                    tuples_per_relation,
                    seed: mix(seed, i as u64),
                },
            ))
        })
        .collect();
    Exchange {
        setting_dsl: setting_to_dsl(&setting),
        query_dsl,
        sources,
        with_cansol,
    }
}

impl Workload for Exchange {
    type Prepared = Prepared;
    type State<'a> = &'a Prepared;
    type Written<'a> = ExchangeOut;

    fn inputs(&self) -> usize {
        self.sources.len()
    }

    fn prepare(&self) -> Result<Prepared, String> {
        Ok(Prepared {
            setting: parse_setting(&self.setting_dsl).map_err(|e| err("setting", e))?,
            queries: parse_queries(&self.query_dsl)?,
        })
    }

    fn open<'a>(&'a self, p: &'a Prepared) -> Result<&'a Prepared, String> {
        Ok(p)
    }

    fn write<'a>(
        &'a self,
        st: &mut &'a Prepared,
        i: usize,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<ExchangeOut, String> {
        let setting = &st.setting;
        let source = sp
            .layer("logic.parse", || parse_instance(&self.sources[i]))
            .map_err(|e| err("source", e))?;
        let chased = sp
            .layer("chase.run", || {
                ChaseEngine::new(setting, &budget()).run(&source)
            })
            .map_err(|e| err("chase", e))?;
        let gc = sp.layer("core.core", || {
            core_parallel_governed(&chased.target, &governor(), &Pool::seq())
        });
        if !gc.is_minimal() {
            return Err("core retraction ran out of its budget".to_owned());
        }
        let cansol = if self.with_cansol {
            let c = sp
                .layer("cwa.cansol", || cansol(setting, &source, &budget()))
                .map_err(|e| err("cansol", e))?;
            Some(c.ok_or("setting has no CanSol class")?)
        } else {
            None
        };
        add_chase(work, &chased.stats);
        add(work, "target_atoms", chased.target.len());
        add(work, "core_atoms", gc.instance.len());
        if let Some(c) = &cansol {
            add(work, "cansol_atoms", c.len());
        }
        Ok(ExchangeOut {
            source,
            chased,
            core: gc.instance,
            cansol,
        })
    }

    fn read<'a>(
        &'a self,
        st: &&'a Prepared,
        out: &ExchangeOut,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<Vec<Answers>, String> {
        let answers: Vec<Answers> = st
            .queries
            .iter()
            .map(|q| sp.layer("query.answer", || ucq_certain_answers(q, &out.core)))
            .collect();
        add(work, "answer_rows", answers.iter().map(|a| a.len()).sum());
        Ok(answers)
    }

    fn check<'a>(
        &'a self,
        st: &&'a Prepared,
        _i: usize,
        out: &ExchangeOut,
        answers: &[Answers],
        deep: bool,
    ) -> Result<(), String> {
        let setting = &st.setting;
        check_solution(setting, &out.source, &out.chased.target, "chase target")?;
        check_solution(setting, &out.source, &out.core, "core")?;
        if let Some(c) = &out.cansol {
            check_solution(setting, &out.source, c, "cansol")?;
        }
        if deep {
            check_core_reference(setting, &out.source, &out.core)?;
            check_answers_reference(&st.queries, &out.chased.target, answers)?;
        }
        Ok(())
    }
}

/// `update`: a base source chased once with provenance, then a seeded
/// 1%-insert/1%-delete stream applied delta by delta through
/// `parse_delta` → `resume` → `refresh_from_resume`, each write followed
/// by a UCQ batch through the answer engine.
pub struct Update {
    setting_dsl: String,
    query_dsl: Vec<String>,
    base_dsl: String,
    deltas: Vec<String>,
    /// `sources[k]`: the source after `k` deltas (the answer engine
    /// borrows its source, so the sequence is built up front).
    sources: Vec<Instance>,
}

pub struct UpdateState<'a> {
    prepared: &'a UpdatePrepared,
    prior: ChaseSuccess,
    answers: AnswerEngine<'a>,
}

pub struct UpdatePrepared {
    base: Prepared,
    source: Instance,
}

pub fn update(seed: u64, ops: usize) -> Update {
    const CONSTANTS: usize = 128;
    let setting = scenario();
    let base = random_source(
        &setting.source,
        &SourceConfig {
            num_constants: CONSTANTS,
            tuples_per_relation: 128,
            seed: mix(seed, u64::MAX),
        },
    );
    let stream = update_stream(
        &setting.source,
        &base,
        &UpdateStreamConfig {
            steps: ops,
            insert_rate: 0.01,
            delete_rate: 0.01,
            num_constants: CONSTANTS,
            seed,
        },
    );
    let mut sources = vec![base.clone()];
    for d in &stream {
        let next = d.applied(sources.last().expect("starts with the base"));
        sources.push(next);
    }
    // Joins across surrogate keys: what one source attribute value maps
    // to in two flattened relations. Sized so a batch takes milliseconds.
    let mut query_dsl = vec![
        "Q(x,y) :- Lookup0(k,x), Rest0(k,y); Q(x,y) :- Lookup1(k,x), Rest1(k,y); Q(x,y) :- Lookup2(k,x), Rest2(k,y)".to_owned(),
        "Q(k,a,b) :- PartA0(k,a), PartB0(k,b), PartA1(k,c)".to_owned(),
    ];
    for (i, j) in [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)] {
        query_dsl.push(format!(
            "Q(x,a,b) :- Lookup{i}(k,x), Rest{i}(k,a), Lookup{j}(m,x), Rest{j}(m,b)"
        ));
        query_dsl.push(format!(
            "Q(x,z) :- Lookup{i}(k,x), Rest{i}(k,y), Lookup{j}(m,y), Rest{j}(m,z)"
        ));
    }
    query_dsl.push("Q(a,c) :- PartA0(k,a), PartB0(k,b), PartA1(m,b), PartB1(m,c)".to_owned());
    Update {
        setting_dsl: setting_to_dsl(&setting),
        query_dsl,
        base_dsl: instance_to_dsl(&base),
        deltas: stream.iter().map(|d| d.to_string()).collect(),
        sources,
    }
}

impl Workload for Update {
    type Prepared = UpdatePrepared;
    type State<'a> = UpdateState<'a>;
    /// The replaced result, dropped after the timed window.
    type Written<'a> = ChaseSuccess;

    fn inputs(&self) -> usize {
        self.deltas.len()
    }

    fn prepare(&self) -> Result<UpdatePrepared, String> {
        Ok(UpdatePrepared {
            base: Prepared {
                setting: parse_setting(&self.setting_dsl).map_err(|e| err("setting", e))?,
                queries: parse_queries(&self.query_dsl)?,
            },
            source: parse_instance(&self.base_dsl).map_err(|e| err("base source", e))?,
        })
    }

    fn open<'a>(&'a self, p: &'a UpdatePrepared) -> Result<UpdateState<'a>, String> {
        let setting = &p.base.setting;
        let prior = ChaseEngine::new(setting, &budget())
            .with_provenance(true)
            .run(&p.source)
            .map_err(|e| err("initial chase", e))?;
        let answers = AnswerEngine::new(setting, &p.source, answer_config())
            .map_err(|e| err("answer engine", e))?;
        Ok(UpdateState {
            prepared: p,
            prior,
            answers,
        })
    }

    fn write<'a>(
        &'a self,
        st: &mut UpdateState<'a>,
        i: usize,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<ChaseSuccess, String> {
        let setting = &st.prepared.base.setting;
        let delta = sp
            .layer("logic.parse", || parse_delta(&self.deltas[i]))
            .map_err(|e| err("delta", e))?;
        let resumed = sp
            .layer("chase.resume", || {
                ChaseEngine::new(setting, &budget())
                    .with_provenance(true)
                    .resume(&st.prior, &delta)
            })
            .map_err(|e| err("resume", e))?;
        let answers = &mut st.answers;
        sp.layer("query.refresh", || {
            answers.refresh_from_resume(&resumed, &self.sources[i + 1])
        })
        .map_err(|e| err("refresh", e))?;
        add_chase(work, &resumed.stats);
        add(work, "target_atoms", resumed.target.len());
        add(work, "core_atoms", st.answers.core().len());
        Ok(std::mem::replace(&mut st.prior, resumed))
    }

    fn read<'a>(
        &'a self,
        st: &UpdateState<'a>,
        _out: &ChaseSuccess,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<Vec<Answers>, String> {
        let mut out = Vec::new();
        for q in &st.prepared.base.queries {
            let a = sp
                .layer("query.answer", || st.answers.answers(q, Semantics::Certain))
                .map_err(|e| err("answers", e))?;
            out.push(a);
        }
        add(work, "answer_rows", out.iter().map(|a| a.len()).sum());
        Ok(out)
    }

    fn check<'a>(
        &'a self,
        st: &UpdateState<'a>,
        i: usize,
        _out: &ChaseSuccess,
        answers: &[Answers],
        deep: bool,
    ) -> Result<(), String> {
        let setting = &st.prepared.base.setting;
        let source = &self.sources[i + 1];
        if &st.prior.result.difference(&st.prior.target) != source {
            return Err("resumed source part differs from the updated source".to_owned());
        }
        check_solution(setting, source, &st.prior.target, "resumed target")?;
        check_solution(setting, source, st.answers.core(), "refreshed core")?;
        if deep {
            check_core_reference(setting, source, st.answers.core())?;
            check_answers_reference(&st.prepared.base.queries, &st.prior.target, answers)?;
        }
        Ok(())
    }
}

/// `repair`: inconsistent keyed sources. A write runs the HS-tree repair
/// search (`XrEngine::new`); the read asks XR-certain answers.
pub struct Repair {
    setting_dsl: String,
    query_dsl: Vec<String>,
    sources: Vec<String>,
}

pub struct RepairOut<'a> {
    source: Instance,
    xr: XrEngine<'a>,
}

/// Keys per source and contesting atoms per source: with 200 keys the
/// contesters nearly always hit distinct keys, so a source has 3
/// contested keys and 8 repairs.
const REPAIR_KEYS: usize = 200;
const REPAIR_CONTESTERS: usize = 3;

pub fn repair(seed: u64, ops: usize) -> Repair {
    Repair {
        setting_dsl: conflicting_keyed_setting().to_owned(),
        query_dsl: vec![
            "Q(x,y) :- F(x,y)".to_owned(),
            "Q(x,y) :- F(x,y), G(u,v); Q(x,y) :- G(x,y)".to_owned(),
        ],
        sources: (0..ops)
            .map(|i| {
                instance_to_dsl(&conflicting_keyed_instance(
                    REPAIR_KEYS,
                    REPAIR_CONTESTERS,
                    mix(seed, i as u64),
                ))
            })
            .collect(),
    }
}

/// The atoms of keys held by more than one `P` atom.
fn contested(source: &Instance) -> BTreeSet<Atom> {
    let p = Symbol::intern("P");
    let mut by_key: BTreeMap<_, Vec<Atom>> = BTreeMap::new();
    for a in source.sorted_atoms().into_iter().filter(|a| a.rel == p) {
        by_key.entry(a.args[0]).or_default().push(a);
    }
    by_key
        .into_values()
        .filter(|v| v.len() > 1)
        .flatten()
        .collect()
}

impl Workload for Repair {
    type Prepared = Prepared;
    type State<'a> = &'a Prepared;
    type Written<'a> = RepairOut<'a>;

    fn inputs(&self) -> usize {
        self.sources.len()
    }

    fn prepare(&self) -> Result<Prepared, String> {
        Ok(Prepared {
            setting: parse_setting(&self.setting_dsl).map_err(|e| err("setting", e))?,
            queries: parse_queries(&self.query_dsl)?,
        })
    }

    fn open<'a>(&'a self, p: &'a Prepared) -> Result<&'a Prepared, String> {
        Ok(p)
    }

    fn write<'a>(
        &'a self,
        st: &mut &'a Prepared,
        i: usize,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<RepairOut<'a>, String> {
        let p = *st;
        let source = sp
            .layer("logic.parse", || parse_instance(&self.sources[i]))
            .map_err(|e| err("source", e))?;
        let xr = sp
            .layer("repair.repairs", || {
                XrEngine::new(&p.setting, &source, answer_config(), &governor())
            })
            .map_err(|e| err("repairs", e))?;
        let outcome = xr.outcome();
        if !outcome.complete {
            return Err("repair search ran out of its budget".to_owned());
        }
        add(work, "candidates_chased", outcome.stats.candidates_chased);
        add(work, "repairs", outcome.repairs.len());
        Ok(RepairOut { source, xr })
    }

    fn read<'a>(
        &'a self,
        st: &&'a Prepared,
        out: &RepairOut<'a>,
        sp: &mut Spans,
        work: &mut Work,
    ) -> Result<Vec<Answers>, String> {
        let mut answers = Vec::new();
        for q in &st.queries {
            let a = sp
                .layer("repair.xr_certain", || out.xr.certain(q))
                .map_err(|e| err("XR-certain answers", e))?;
            answers.push(a);
        }
        add(work, "answer_rows", answers.iter().map(|a| a.len()).sum());
        Ok(answers)
    }

    fn check<'a>(
        &'a self,
        st: &&'a Prepared,
        _i: usize,
        out: &RepairOut<'a>,
        answers: &[Answers],
        deep: bool,
    ) -> Result<(), String> {
        let setting = &st.setting;
        for r in &out.xr.outcome().repairs {
            check_solution(setting, &r.kept, &r.chase.target, "repair chase target")?;
        }
        if !deep {
            return Ok(());
        }
        // Conflicts sit only among the contested atoms, so the repairs are
        // the uncontested atoms plus each maximal consistent subset of the
        // contested ones, which the brute-force search finds on its own.
        let hot = contested(&out.source);
        let cold = Instance::from_atoms(out.source.atoms().filter(|a| !hot.contains(a)));
        let (naive, _) = naive_repairs(
            setting,
            &Instance::from_atoms(hot.iter().cloned()),
            &ChaseBudget::default(),
        );
        let expected: BTreeSet<Vec<Atom>> = naive.iter().map(|r| r.sorted_atoms()).collect();
        let got: BTreeSet<Vec<Atom>> = out
            .xr
            .outcome()
            .repairs
            .iter()
            .map(|r| r.kept.difference(&cold).sorted_atoms())
            .collect();
        if got != expected
            || out
                .xr
                .outcome()
                .repairs
                .iter()
                .any(|r| !cold.is_subinstance_of(&r.kept))
        {
            return Err("repairs differ from naive_repairs on the contested atoms".to_owned());
        }
        for (q, a) in st.queries.iter().zip(answers) {
            let mut acc: Option<Answers> = None;
            for r in &naive {
                let kept = Instance::from_atoms(cold.atoms().chain(r.atoms()));
                let c = core_solution(setting, &kept, &ChaseBudget::default())
                    .map_err(|e| err("reference core", e))?;
                let ans = ucq_certain_answers(q, &c);
                acc = Some(match acc {
                    None => ans,
                    Some(prev) => prev.intersection(&ans).cloned().collect(),
                });
            }
            if acc.as_ref() != Some(a) {
                return Err(format!(
                    "XR-certain answers of `{q}` differ from the reference"
                ));
            }
        }
        Ok(())
    }
}
