//! `dex` — a command-line front end for the CWA data-exchange engine.
//!
//! ```text
//! dex analyze   <setting>                      acyclicity + classification
//! dex chase     <setting> <source>             canonical universal solution
//! dex update    <setting> <source> <delta> [--stats] incremental re-exchange (resume)
//! dex explain   <setting> <source> [--conflict] chase + justification chains (§4)
//! dex core      <setting> <source>             minimal CWA-solution (Thm 5.1)
//! dex cansol    <setting> <source>             maximal CWA-solution (Prop 5.4)
//! dex check     <setting> <source> <target>    classify a target instance
//! dex answer    <setting> <source> <query> [--semantics ...] [--engine propagate|oracle] [--repair]
//! dex enumerate <setting> <source> [--nulls-only] [--max N]
//! dex repair    <setting> <source>             maximal consistent source subsets
//! dex trace     <trace.jsonl> [--tree] [--json] [--metrics] [--top K]
//! ```
//!
//! `<setting>`, `<source>`, `<target>` and `<query>` are file paths; if a
//! path does not exist the argument itself is parsed as inline DSL text.
//!
//! `DEX_TRACE=<path>` makes `chase`, `update`, `explain`, `core`, `answer`,
//! `enumerate` and `repair` write a JSONL event trace of the run (see
//! `dex-obs`); `dex trace <path>` aggregates it into a profile.
//!
//! `core`, `answer` and `enumerate` accept `--threads N` to run their
//! search on a deterministic worker pool (`dex-par`); with no flag the
//! `DEX_THREADS` environment variable decides (default: sequential).
//! Output is byte-identical for every thread count.

use cwa_dex::core::govern::Governor;
use cwa_dex::cwa::maximal_under_image;
use cwa_dex::prelude::*;
use std::process::ExitCode;

// `println!`/`print!` that end the process quietly when stdout is
// closed (`dex chase … | head -1`) instead of panicking on the broken
// pipe. They shadow the std macros for the rest of this file.
macro_rules! println {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(e);
        }
    }};
}

macro_rules! print {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = write!(std::io::stdout(), $($arg)*) {
            stdout_failed(e);
        }
    }};
}

/// Exits on a failed stdout write: silently (status 0) when the reader
/// went away, with an error otherwise.
fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: writing to stdout: {e}");
    std::process::exit(1);
}

fn load(arg: &str) -> String {
    match std::fs::read_to_string(arg) {
        Ok(text) => text,
        Err(_) => arg.to_owned(),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(1)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  dex analyze   <setting>
  dex chase     <setting> <source>
  dex update    <setting> <source> <delta> [--stats]
  dex explain   <setting> <source> [--conflict]
  dex core      <setting> <source> [--threads N]
  dex cansol    <setting> <source>
  dex check     <setting> <source> <target>
  dex answer    <setting> <source> <query> [--semantics certain|potential|persistent|maybe] [--threads N] [--engine propagate|oracle] [--repair]
  dex enumerate <setting> <source> [--nulls-only] [--max N] [--threads N]
  dex repair    <setting> <source> [--threads N] [--json]
  dex trace     <trace.jsonl> [--tree] [--json] [--metrics] [--top K]

Arguments are file paths, or inline DSL when no such file exists.
`update` chases the source, then applies the delta (`+ P(a).` inserts,
`- Q(b,c).` deletes) by incremental maintenance instead of re-chasing,
and prints the updated target (--stats adds the resume's counters as JSON);
--threads defaults to $DEX_THREADS (sequential when unset); results are
identical for every thread count.
`answer --repair` computes XR-certain answers (certain answers
intersected over every maximal consistent subset of the source);
`explain --conflict` prints the provenance-backed conflict witness of an
inconsistent source;
`trace` aggregates a DEX_TRACE=<path> JSONL trace into a profile
(per-phase time, hottest dependencies, governor trips, pool stats);
--tree adds the span waterfall, --metrics the Prometheus-style text
exposition, --json the machine-readable profile."
    );
    ExitCode::from(1)
}

fn parse_setting_arg(arg: &str) -> Result<Setting, String> {
    parse_setting(&load(arg)).map_err(|e| format!("setting: {e}"))
}

fn parse_instance_arg(arg: &str) -> Result<Instance, String> {
    parse_instance(&load(arg)).map_err(|e| format!("instance: {e}"))
}

/// Parses a `--threads` value into a worker pool.
fn parse_threads_arg(it: &mut std::slice::Iter<'_, String>) -> Result<cwa_dex::core::Pool, String> {
    let Some(v) = it.next() else {
        return Err("--threads needs a value".into());
    };
    let n: usize = v
        .parse()
        .map_err(|_| "invalid --threads value".to_owned())?;
    if n == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(cwa_dex::core::Pool::new(n))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match (cmd.as_str(), &args[1..]) {
        ("analyze", [setting]) => cmd_analyze(setting),
        ("chase", [setting, source]) => cmd_chase(setting, source),
        ("update", [setting, source, delta, rest @ ..]) => cmd_update(setting, source, delta, rest),
        ("explain", [setting, source, rest @ ..]) => cmd_explain(setting, source, rest),
        ("core", [setting, source, rest @ ..]) => cmd_core(setting, source, rest),
        ("cansol", [setting, source]) => cmd_cansol(setting, source),
        ("check", [setting, source, target]) => cmd_check(setting, source, target),
        ("answer", [setting, source, query, rest @ ..]) => cmd_answer(setting, source, query, rest),
        ("enumerate", [setting, source, rest @ ..]) => cmd_enumerate(setting, source, rest),
        ("repair", [setting, source, rest @ ..]) => cmd_repair(setting, source, rest),
        ("trace", [file, rest @ ..]) => cmd_trace(file, rest),
        ("help" | "--help" | "-h", _) => return usage(),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}

fn cmd_analyze(setting: &str) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    println!("{d}");
    println!("weakly acyclic:  {}", is_weakly_acyclic(&d));
    println!("richly acyclic:  {}", is_richly_acyclic(&d));
    println!("no target deps:  {}", d.has_no_target_deps());
    println!(
        "CanSol class:    {:?} (Proposition 5.4)",
        cwa_dex::cwa::cansol_class(&d)
    );
    println!(
        "s-t tgds: {}   target tgds: {}   egds: {}",
        d.st_tgds.len(),
        d.t_tgds.len(),
        d.egds.len()
    );
    if let Some(ranks) = cwa_dex::logic::position_ranks(&d) {
        let max = ranks.values().copied().max().unwrap_or(0);
        println!("max existential rank: {max} (chase depth stratification)");
    }
    Ok(())
}

/// The message for a failed chase; an egd conflict prints its witness
/// to stderr first.
fn describe_chase_error(e: ChaseError) -> String {
    match e {
        ChaseError::EgdConflict { witness } => {
            eprintln!("{witness}");
            "inconsistent source: no solution exists (diagnosis above; \
             `dex repair` enumerates the maximal consistent subsets)"
                .to_owned()
        }
        e => e.to_string(),
    }
}

/// Refuses a source atom outside the setting's source schema with the
/// message `dex chase` gives (`ChaseEngine::run` checks the same way).
/// Subcommands whose searches swallow chase errors call it first.
fn check_source(d: &Setting, s: &Instance) -> Result<(), String> {
    s.check_against(&d.source)
        .map_err(|e| ChaseError::InvalidSource(e).to_string())
}

fn cmd_chase(setting: &str, source: &str) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let gov = Governor::unlimited().with_tracer(cwa_dex::obs::Tracer::from_env());
    // Provenance is on so an egd conflict comes back with the full
    // witness (trigger, justification chains, source conflict set).
    let out = ChaseEngine::new(&d, &ChaseBudget::default())
        .with_governor(&gov)
        .with_provenance(true)
        .run(&s)
        .map_err(describe_chase_error)?;
    println!("steps: {}", out.steps);
    println!("{}", cwa_dex::logic::instance_to_dsl(&out.target));
    Ok(())
}

fn cmd_update(setting: &str, source: &str, delta: &str, rest: &[String]) -> Result<(), String> {
    let mut stats = false;
    for flag in rest {
        match flag.as_str() {
            "--stats" => stats = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let delta = parse_delta(&load(delta)).map_err(|e| format!("delta: {e}"))?;
    let gov = Governor::unlimited().with_tracer(cwa_dex::obs::Tracer::from_env());
    let engine = ChaseEngine::new(&d, &ChaseBudget::default())
        .with_governor(&gov)
        .with_provenance(true);
    let prior = engine.run(&s).map_err(describe_chase_error)?;
    let resumed = engine
        .resume(&prior, &delta)
        .map_err(describe_chase_error)?;
    println!(
        "applied: {} insert(s), {} delete(s)",
        delta.inserts.len(),
        delta.deletes.len()
    );
    println!(
        "resume: {} steps, {} atoms retracted, {} re-derived",
        resumed.steps, resumed.stats.atoms_retracted, resumed.stats.atoms_rederived
    );
    if stats {
        println!("stats: {}", resumed.stats.to_json());
    }
    println!("{}", cwa_dex::logic::instance_to_dsl(&resumed.target));
    Ok(())
}

fn cmd_explain(setting: &str, source: &str, rest: &[String]) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let mut conflict_mode = false;
    for flag in rest {
        match flag.as_str() {
            "--conflict" => conflict_mode = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let gov = Governor::unlimited().with_tracer(cwa_dex::obs::Tracer::from_env());
    let run = ChaseEngine::new(&d, &ChaseBudget::default())
        .with_governor(&gov)
        .with_provenance(true)
        .run(&s);
    if conflict_mode {
        return match run {
            Ok(_) => {
                println!("consistent: the chase succeeds, no egd conflict");
                Ok(())
            }
            Err(ChaseError::EgdConflict { witness }) => {
                println!("{witness}");
                println!("{}", witness.to_json());
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        };
    }
    let out = run.map_err(|e| e.to_string())?;
    let prov = out
        .provenance
        .as_ref()
        .expect("provenance was enabled on the engine");
    for atom in out.target.sorted_atoms() {
        let chain = prov
            .explain(&atom)
            .ok_or_else(|| format!("no justification chain for {atom}"))?;
        println!("{chain}");
        println!();
    }
    prov.verify_justified(&out.target)?;
    println!(
        "-- every atom justified ({} derivations, {} egd merges)",
        prov.len(),
        prov.merges().len()
    );
    Ok(())
}

fn cmd_core(setting: &str, source: &str, rest: &[String]) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let mut pool = cwa_dex::core::Pool::from_env();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => pool = parse_threads_arg(&mut it)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // One tracer per run: `from_env` truncates the DEX_TRACE file, so
    // the chase, the core search and the pool must share a clone.
    let tracer = cwa_dex::obs::Tracer::from_env();
    if tracer.enabled() {
        cwa_dex::core::set_pool_tracer(tracer.clone());
    }
    let gov = Governor::unlimited().with_tracer(tracer);
    let out = ChaseEngine::new(&d, &ChaseBudget::default())
        .with_governor(&gov)
        .run(&s)
        .map_err(|e| e.to_string())?;
    let gc = cwa_dex::core::core_parallel_governed(&out.target, &gov, &pool);
    println!("{}", cwa_dex::logic::instance_to_dsl(&gc.instance));
    Ok(())
}

fn cmd_cansol(setting: &str, source: &str) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    match cansol(&d, &s, &ChaseBudget::default()).map_err(|e| e.to_string())? {
        Some(t) => {
            println!("{}", cwa_dex::logic::instance_to_dsl(&t));
            Ok(())
        }
        None => Err(
            "setting is in neither class of Proposition 5.4 — no CanSol guaranteed \
                     (use `enumerate` to explore the CWA-solution space)"
                .to_owned(),
        ),
    }
}

fn cmd_check(setting: &str, source: &str, target: &str) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let t = parse_instance_arg(target)?;
    let budget = ChaseBudget::default();
    let limits = SearchLimits::default();
    let solution = d.is_solution(&s, &t);
    println!("solution:        {solution}");
    if !solution {
        println!("universal:       false");
        println!("CWA-solution:    false");
        return Ok(());
    }
    let gov = Governor::unlimited();
    let universal = is_universal_solution(&d, &s, &t, &budget, &gov).map_err(|e| e.to_string())?;
    let presolution = is_cwa_presolution(&d, &s, &t, &limits, &gov).map_err(|e| e.to_string())?;
    println!("universal:       {universal}");
    match presolution {
        Some(p) => println!("CWA-presolution: {p}"),
        None => println!("CWA-presolution: unknown (search limit)"),
    }
    match (universal, presolution) {
        (u, Some(p)) => println!("CWA-solution:    {} (Theorem 4.8)", u && p),
        _ => println!("CWA-solution:    unknown"),
    }
    Ok(())
}

fn cmd_answer(setting: &str, source: &str, query: &str, rest: &[String]) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let q = parse_query(&load(query)).map_err(|e| format!("query: {e}"))?;
    let mut semantics = Semantics::Certain;
    let mut pool = cwa_dex::core::Pool::from_env();
    let mut eval_engine = EvalEngine::default();
    let mut repair_mode = false;
    let mut semantics_set = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--repair" => repair_mode = true,
            "--semantics" => {
                let Some(v) = it.next() else {
                    return Err("--semantics needs a value".into());
                };
                semantics = match v.as_str() {
                    "certain" => Semantics::Certain,
                    "potential" => Semantics::PotentialCertain,
                    "persistent" => Semantics::PersistentMaybe,
                    "maybe" => Semantics::Maybe,
                    other => return Err(format!("unknown semantics `{other}`")),
                };
                semantics_set = true;
            }
            "--threads" => pool = parse_threads_arg(&mut it)?,
            "--engine" => {
                let Some(v) = it.next() else {
                    return Err("--engine needs a value".into());
                };
                eval_engine = match v.as_str() {
                    "propagate" => EvalEngine::Propagate,
                    "oracle" => EvalEngine::Oracle,
                    other => return Err(format!("unknown engine `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // One tracer per run: chase spans, propagation-stage spans, repair
    // search and pool events all append to the same DEX_TRACE file.
    let tracer = cwa_dex::obs::Tracer::from_env();
    if tracer.enabled() {
        cwa_dex::core::set_pool_tracer(tracer.clone());
    }
    let gov = Governor::unlimited().with_tracer(tracer);
    let config = AnswerConfig {
        pool,
        engine: eval_engine,
        ..AnswerConfig::default()
    };
    if repair_mode {
        if semantics_set && semantics != Semantics::Certain {
            return Err(
                "--repair computes XR-certain answers; only `--semantics certain` applies".into(),
            );
        }
        check_source(&d, &s)?;
        let xr = XrEngine::new(&d, &s, config, &gov).map_err(|e| e.to_string())?;
        let g = xr.certain_governed(&q, &gov).map_err(|e| e.to_string())?;
        if !xr.outcome().complete {
            // The search was undecided (a candidate chase exhausted its
            // budget), so maximal repairs may be missing and the
            // intersection is only an upper bound. certain_governed
            // reports that soundly: nothing proven, survivors
            // undetermined — never print the upper bound as exact.
            if q.arity() == 0 {
                // An empty upper bound refutes the boolean query;
                // a non-empty one decides nothing.
                println!(
                    "{}",
                    if g.proven.is_empty() && g.undetermined.is_empty() {
                        "false"
                    } else {
                        "unknown"
                    }
                );
            } else {
                for tuple in &g.undetermined {
                    let row: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                    println!("({})", row.join(", "));
                }
                println!(
                    "-- {} candidate XR-certain answers over {} repairs \
                     (INCOMPLETE: repair search undecided, upper bound only)",
                    g.undetermined.len(),
                    xr.repair_count()
                );
            }
            return Ok(());
        }
        let ans = g.proven;
        if q.arity() == 0 {
            println!("{}", !ans.is_empty());
        } else {
            for tuple in &ans {
                let row: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                println!("({})", row.join(", "));
            }
            println!(
                "-- {} XR-certain answers over {} repairs",
                ans.len(),
                xr.repair_count()
            );
        }
        return Ok(());
    }
    let engine = AnswerEngine::new(&d, &s, config).map_err(|e| e.to_string())?;
    let ans = engine
        .answers_governed(&q, semantics, &gov)
        .map_err(|e| e.to_string())?
        .proven;
    if q.arity() == 0 {
        println!("{}", !ans.is_empty());
    } else {
        for tuple in &ans {
            let row: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
            println!("({})", row.join(", "));
        }
        println!("-- {} answers under {semantics:?}", ans.len());
    }
    // Diagnostics go to stderr so the answer stream stays machine-parsable
    // (boolean queries print exactly `true`/`false` on stdout).
    if let Some(r) = engine.last_propagation() {
        eprintln!(
            "-- propagation: {} nulls ({} merged, {} inert), residual {} of {} valuations, {} diseqs{}",
            r.nulls,
            r.merged,
            r.inert,
            r.residual_valuations,
            r.oracle_valuations,
            r.diseqs,
            if r.fell_back { " [fell back to oracle]" } else { "" },
        );
    }
    Ok(())
}

fn cmd_enumerate(setting: &str, source: &str, rest: &[String]) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let mut limits = EnumLimits::default();
    let mut pool = cwa_dex::core::Pool::from_env();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--nulls-only" => limits.nulls_only = true,
            "--max" => {
                let Some(v) = it.next() else {
                    return Err("--max needs a value".into());
                };
                limits.max_results = v.parse().map_err(|_| "invalid --max value".to_owned())?;
            }
            "--threads" => pool = parse_threads_arg(&mut it)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    check_source(&d, &s)?;
    let tracer = cwa_dex::obs::Tracer::from_env();
    if tracer.enabled() {
        cwa_dex::core::set_pool_tracer(tracer.clone());
    }
    let gov = Governor::unlimited().with_tracer(tracer);
    let (sols, stats) = cwa_dex::cwa::enumerate_cwa_solutions(&d, &s, &limits, &gov, &pool);
    let maximal = maximal_under_image(&sols);
    for t in &sols {
        let is_max = maximal.iter().any(|m| isomorphic(m, t));
        println!(
            "{}{}",
            if is_max { "[maximal] " } else { "          " },
            cwa_dex::logic::instance_to_dsl(t)
        );
    }
    // Any unfinished or interrupted replay may hide solutions, so the
    // count is only exhaustive when the enumeration is complete.
    let incomplete = if stats.truncated {
        ", TRUNCATED".to_owned()
    } else if let Some(i) = &stats.interrupted {
        format!(", INCOMPLETE: interrupted ({i})")
    } else if !stats.is_complete() {
        format!(
            ", INCOMPLETE: {} replay(s) exhausted the chase budget",
            stats.chases_unfinished
        )
    } else {
        String::new()
    };
    println!(
        "-- {} CWA-solutions up to renaming of nulls ({} scripts explored{incomplete})",
        sols.len(),
        stats.scripts_explored,
    );
    Ok(())
}

fn cmd_repair(setting: &str, source: &str, rest: &[String]) -> Result<(), String> {
    let d = parse_setting_arg(setting)?;
    let s = parse_instance_arg(source)?;
    let mut pool = cwa_dex::core::Pool::from_env();
    let mut json = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => pool = parse_threads_arg(&mut it)?,
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    check_source(&d, &s)?;
    let gov = Governor::unlimited().with_tracer(cwa_dex::obs::Tracer::from_env());
    let outcome = RepairEngine::new(&d, &ChaseBudget::default())
        .with_pool(pool)
        .repairs(&s, &gov);
    outcome.validate(&s)?;
    if json {
        use cwa_dex::obs::JsonValue;
        // The summary counts plus the repairs themselves (as the list of
        // removed source atoms each — kept = source minus removed).
        let removed = JsonValue::Arr(
            outcome
                .repairs
                .iter()
                .map(|r| {
                    JsonValue::Arr(
                        r.removed
                            .iter()
                            .map(|a| JsonValue::str(a.to_string()))
                            .collect(),
                    )
                })
                .collect(),
        );
        println!("{}", outcome.to_json().with("removed", removed));
        return Ok(());
    }
    for (i, repair) in outcome.repairs.iter().enumerate() {
        let removed: Vec<String> = repair.removed.iter().map(|a| a.to_string()).collect();
        println!(
            "repair {i}: kept {} of {} atoms, removed {{ {} }}",
            repair.kept.len(),
            s.len(),
            removed.join(", ")
        );
    }
    let st = &outcome.stats;
    println!(
        "-- {} maximal repair(s){}; {} candidates chased, {} conflicts extracted, {} conflicts reused, {} pruned",
        outcome.repairs.len(),
        if outcome.complete {
            ""
        } else {
            " (INCOMPLETE)"
        },
        st.candidates_chased,
        st.conflicts_extracted,
        st.conflicts_reused,
        st.pruned_superset + st.pruned_duplicate,
    );
    Ok(())
}

fn cmd_trace(file: &str, rest: &[String]) -> Result<(), String> {
    let mut tree = false;
    let mut json = false;
    let mut metrics = false;
    let mut top = 10usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tree" => tree = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--top" => {
                let Some(v) = it.next() else {
                    return Err("--top needs a value".into());
                };
                top = v.parse().map_err(|_| "invalid --top value".to_owned())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("cannot read trace {file}: {e}"))?;
    let lines = cwa_dex::obs::parse_trace(&text)?;
    let profile = cwa_dex::obs::TraceProfile::from_lines(&lines);
    if json {
        println!("{}", profile.to_json());
        return Ok(());
    }
    if metrics {
        print!("{}", profile.metrics.expose_text());
        return Ok(());
    }
    print!("{}", profile.render_text(top, tree));
    Ok(())
}
