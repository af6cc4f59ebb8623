//! End-to-end data-exchange benchmark over the workspace crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exchange --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One process, one thread, one client in a closed loop: each request is
//! a write followed by a read, and the next request starts when the read
//! returns. Inputs are built from `--seed` before anything is timed, and
//! every output is checked outside the timed window. The last line of
//! standard output is the result; the line before it records the host,
//! the build and the run. See `perfbench/README.md`.

mod clock;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Spans;
use workloads::{mix, Work, Workload, OP_BUDGET};

/// Nominal requests per second of each workload on the reference host
/// (2 vCPUs, shared). `--seconds` times this, split over the passes, is
/// the run's fixed request count, so two builds given the same arguments
/// do identical work; a run is never time-boxed.
const WORKLOADS: [(&str, f64); 4] = [
    ("exchange", 28.0),
    ("keyed", 22.0),
    ("update", 40.0),
    ("repair", 30.0),
];

/// Timed passes per run. Each replays every request from a fresh set-up;
/// a request's latency is its median over the passes.
const PASSES: usize = 3;

/// Set-ups take microseconds to ~0.1 s, too short for most to time one
/// by one, so they run back to back in batches of at least this much CPU
/// time and each batch gives the mean over its set-ups.
const SETUP_BATCH_NS: u64 = 5_000_000;

/// Set-up batches timed per run, before the passes: at least the first
/// figure, and more until they took the second in CPU seconds, up to
/// the third.
const SETUP_BATCHES: (usize, f64, usize) = (5, 0.5, 60);

/// Requests per run, picked by the seed, that also get the check
/// against a reference implementation (the naive chase is slow, so the
/// sample is a fixed count rather than a share).
const DEEP_CHECKS: usize = 3;

/// No request starts later than this after process start, so a run
/// that crosses a cost cliff still exits in time; the requests it does
/// not issue count as failed.
const RUN_CAP_S: u64 = 150;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let started = Instant::now();
    let args = parse_args()?;
    let rate = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, rate)| rate)
        .ok_or(format!("unknown workload {}", args.workload))?;
    let ops = ((args.seconds as f64 * rate / PASSES as f64).round() as usize).max(40);
    let seed = args.seed;
    let cfg = Cfg {
        args: &args,
        started,
    };
    match args.workload.as_str() {
        "exchange" => bench(|| primed(workloads::exchange, seed, ops), &cfg),
        "keyed" => bench(|| primed(workloads::keyed, seed, ops), &cfg),
        "update" => bench(|| primed(workloads::update, seed, ops), &cfg),
        _ => bench(|| primed(workloads::repair, seed, ops), &cfg),
    }
}

/// Builds and drops a few inputs from a fixed seed before the run's own.
/// Symbols order by when they were first interned, and the program's
/// searches follow that order, so without this the order of the constant
/// pool, and with it every request's cost, would move with `--seed`
/// (by up to ±4% on `exchange`).
fn primed<W>(make: fn(u64, usize) -> W, seed: u64, ops: usize) -> W {
    drop(make(0, 4));
    make(seed, ops)
}

struct Cfg<'a> {
    args: &'a Args,
    started: Instant,
}

/// The outcome of replaying the request sequence once.
struct Pass {
    /// Per request: write and read CPU time, `None` when it failed.
    lat: Vec<Option<(u64, u64)>>,
    /// Per request: write and read wall time, `None` when it failed.
    wall: Vec<Option<(u64, u64)>>,
    /// Per request: CPU time of the reference computation run right
    /// after its read, 0 when the write failed.
    refs: Vec<u64>,
    work: Vec<Work>,
    failed: usize,
    mismatches: usize,
    errors: Vec<String>,
    spans: Spans,
    check_ns: u64,
}

impl Pass {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Per request: write and read cost in ms, each CPU time priced by
    /// the reference computation run right after the request.
    fn costs(&self) -> Vec<Option<(f64, f64)>> {
        self.lat
            .iter()
            .zip(&self.refs)
            .map(|(l, &r)| {
                l.map(|(w, rd)| {
                    (
                        clock::price(w as f64, r as f64),
                        clock::price(rd as f64, r as f64),
                    )
                })
            })
            .collect()
    }
}

/// Set-up cost in ms, one figure per batch of set-ups, each priced by
/// the reference computation run right after it; and the number of
/// set-ups timed.
fn setup_costs<W: Workload>(w: &W) -> Result<(Vec<f64>, usize), String> {
    let once = || -> Result<(), String> {
        let prepared = w.prepare()?;
        drop(w.open(&prepared)?);
        Ok(())
    };
    // The first set-up warms up and sizes the batches; it is not timed.
    let t = clock::cpu_ns();
    once()?;
    let k = (SETUP_BATCH_NS / (clock::cpu_ns() - t).max(1)).clamp(1, 1000);
    let (min_batches, min_s, max_batches) = SETUP_BATCHES;
    let (mut batches, mut spent) = (Vec::new(), 0u64);
    while batches.len() < max_batches
        && (batches.len() < min_batches || (spent as f64) < min_s * 1e9)
    {
        let t = clock::cpu_ns();
        for _ in 0..k {
            once()?;
        }
        let cpu = clock::cpu_ns() - t;
        spent += cpu;
        batches.push(clock::price(
            cpu as f64 / k as f64,
            clock::reference_ns() as f64,
        ));
    }
    let timed = batches.len() * k as usize;
    Ok((batches, timed))
}

fn ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Set up afresh, then issue requests `0..n` in order. Requests in `deep`
/// get the reference check too.
fn pass<W: Workload>(
    w: &W,
    n: usize,
    traced: bool,
    deep: &[usize],
    cfg: &Cfg,
) -> Result<Pass, String> {
    let prepared = w.prepare()?;
    let mut st = w.open(&prepared)?;
    let cap = cfg.started + std::time::Duration::from_secs(RUN_CAP_S);
    let mut p = Pass {
        lat: vec![None; n],
        wall: vec![None; n],
        refs: vec![0; n],
        work: Vec::with_capacity(n),
        failed: 0,
        mismatches: 0,
        errors: Vec::new(),
        spans: Spans::new(traced),
        check_ns: 0,
    };
    for i in 0..n {
        if Instant::now() >= cap {
            p.failed += n - i;
            p.errors.push(format!(
                "run cap of {RUN_CAP_S} s reached; {} requests not issued",
                n - i
            ));
            break;
        }
        let mut work = Work::new();
        let t0 = Instant::now();
        let c0 = clock::cpu_ns();
        p.spans.begin(i, "write", t0);
        let written = w.write(&mut st, i, &mut p.spans, &mut work);
        let write_cpu = clock::cpu_ns() - c0;
        let write_ns = ns(t0);
        p.spans.end(Instant::now());
        let out = match written {
            Ok(out) => out,
            Err(e) => {
                p.work.push(work);
                p.fail(format!("request {i} write: {e}"));
                continue;
            }
        };
        let t1 = Instant::now();
        let c1 = clock::cpu_ns();
        p.spans.begin(i, "read", t1);
        let answers = w.read(&st, &out, &mut p.spans, &mut work);
        let read_cpu = clock::cpu_ns() - c1;
        let read_ns = ns(t1);
        p.spans.end(Instant::now());
        p.refs[i] = clock::reference_ns();
        p.work.push(work);
        let answers = match answers {
            Ok(a) => a,
            Err(e) => {
                p.fail(format!("request {i} read: {e}"));
                continue;
            }
        };
        if u128::from(write_ns + read_ns) > OP_BUDGET.as_nanos() {
            p.fail(format!(
                "request {i} took longer than its {OP_BUDGET:?} budget"
            ));
            continue;
        }
        let tc = Instant::now();
        let checked = w.check(&st, i, &out, &answers, deep.contains(&i));
        p.check_ns += ns(tc);
        if let Err(e) = checked {
            p.mismatches += 1;
            p.fail(format!("request {i} check: {e}"));
            continue;
        }
        p.lat[i] = Some((write_cpu, read_cpu));
        p.wall[i] = Some((write_ns, read_ns));
    }
    Ok(p)
}

/// Per request that succeeded in every pass: the median over passes of
/// its write and of its read cost, in ms. A burst of load from elsewhere
/// on the host then has to hit the same request in most passes to count.
fn per_request(passes: &[Pass]) -> Vec<(f64, f64)> {
    let costs: Vec<_> = passes.iter().map(Pass::costs).collect();
    let n = costs.first().map_or(0, Vec::len);
    (0..n)
        .filter_map(|i| {
            let c: Option<Vec<(f64, f64)>> = costs.iter().map(|p| p[i]).collect();
            let c = c?;
            Some((
                median_of(c.iter().map(|x| x.0)),
                median_of(c.iter().map(|x| x.1)),
            ))
        })
        .collect()
}

/// The median write and read wall time of the passes' requests, in ms,
/// for the record.
fn wall_p50(passes: &[Pass], f: fn(&(u64, u64)) -> u64) -> f64 {
    median_of(
        passes
            .iter()
            .flat_map(|p| p.wall.iter().flatten())
            .map(|x| f(x) as f64 / 1e6),
    )
}

/// Requests per second of request time, from the per-request medians.
fn ops_per_s(requests: &[(f64, f64)]) -> f64 {
    requests.len() as f64 / (requests.iter().map(|(w, r)| w + r).sum::<f64>() / 1e3)
}

/// Builds the inputs (untimed), then runs and reports.
fn bench<W: Workload>(make: impl FnOnce() -> W, cfg: &Cfg) -> Result<(), String> {
    let t = Instant::now();
    let w = &make();
    let inputs_s = t.elapsed().as_secs_f64();
    let n = w.inputs();
    let warm = (n / 20).max(3);
    let (setup_ms, setups) = setup_costs(w)?;
    let deep: Vec<usize> = (0..DEEP_CHECKS as u64)
        .map(|k| (mix(cfg.args.seed ^ 0x5eed_c0de, k) % n as u64) as usize)
        .collect();
    // Warm-up: the first requests once, before timing. Then the timed
    // passes, each replaying the whole sequence from a fresh set-up; a
    // traced run interleaves a traced pass after each untraced one.
    let warmup = pass(w, warm, false, &[], cfg)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for k in 0..PASSES {
        untraced.push(pass(w, n, false, if k == 0 { &deep } else { &[] }, cfg)?);
        if cfg.args.trace {
            traced.push(pass(w, n, true, &[], cfg)?);
        }
    }

    // Every pass does the same work, request by request.
    let mut repeat_errors = Vec::new();
    let reference = &untraced[0].work;
    if warmup.work[..] != reference[..warmup.work.len().min(reference.len())] {
        repeat_errors.push("warm-up work differs from the timed passes".to_owned());
    }
    if untraced.iter().chain(&traced).any(|p| &p.work != reference) {
        repeat_errors.push("work differs between passes of one run".to_owned());
    }
    let totals = work_totals(reference);
    let fingerprint = source_fingerprint();
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let attempted = all.len() * n;
    let failed: usize = all.iter().map(|p| p.failed).sum();
    let mismatches: usize = warmup.mismatches + all.iter().map(|p| p.mismatches).sum::<usize>();
    if failed == 0 {
        if let Err(e) = check_repeat(cfg, n, fingerprint, &totals) {
            repeat_errors.push(e);
        }
    }
    for e in std::iter::once(&warmup)
        .chain(all.iter().copied())
        .flat_map(|p| &p.errors)
        .chain(&repeat_errors)
    {
        eprintln!("perfbench: {e}");
    }

    let requests = per_request(&untraced);
    if requests.is_empty() {
        return Err("no request completed in every pass".to_owned());
    }
    let mut writes: Vec<f64> = requests.iter().map(|r| r.0).collect();
    let mut reads: Vec<f64> = requests.iter().map(|r| r.1).collect();
    writes.sort_by(f64::total_cmp);
    reads.sort_by(f64::total_cmp);
    let (op_p, op_tail, op_beyond) = tail(&writes);
    let (read_p, read_tail, read_beyond) = tail(&reads);
    let refs_ms = median_of(
        untraced
            .iter()
            .flat_map(|p| &p.refs)
            .filter(|&&x| x > 0)
            .map(|&x| x as f64 / 1e6),
    );

    let mut metrics = Metrics::default();
    if cfg.args.trace {
        per_layer(&traced, &mut metrics);
        let slowdown = ops_per_s(&requests) / ops_per_s(&per_request(&traced));
        metrics.put("bench.trace_overhead_pct", (slowdown - 1.0) * 100.0, "%");
        write_spans(cfg, &traced);
    } else {
        metrics.put("op_p50_ms", median(&writes), "ms");
        metrics.put("op_tail_ms", op_tail, "ms");
        metrics.put("read_p50_ms", median(&reads), "ms");
        metrics.put("read_tail_ms", read_tail, "ms");
        metrics.put("ops_per_s", ops_per_s(&requests), "1/s");
        metrics.put("setup_s", median_of(setup_ms.iter().copied()) / 1e3, "s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"requests_per_pass\":{n},\"passes\":{},\"warmup_requests\":{warm},\"setups\":{},\
         \"deep_checks\":{deep:?},\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\
         \"commit\":\"source-fnv1a64:{fingerprint:016x}\",\
         \"op_tail\":{{\"percentile\":{op_p},\"samples\":{},\"beyond\":{op_beyond}}},\
         \"read_tail\":{{\"percentile\":{read_p},\"samples\":{},\"beyond\":{read_beyond}}},\
         \"wall_op_p50_ms\":{:.3},\"wall_read_p50_ms\":{:.3},\"reference_ms\":{refs_ms:.4},\
         \"inputs_s\":{inputs_s:.3},\"check_s\":{:.3},\"mismatches\":{mismatches},\
         \"repeat_errors\":{},\"work\":{{{}}}}}}}",
        cfg.args.workload,
        cfg.args.seed,
        cfg.args.seconds,
        u8::from(cfg.args.trace),
        all.len(),
        setups,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        rustc_version(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        writes.len(),
        reads.len(),
        wall_p50(&untraced, |x| x.0),
        wall_p50(&untraced, |x| x.1),
        all.iter().map(|p| p.check_ns).sum::<u64>() as f64 / 1e9,
        repeat_errors.len(),
        totals
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!("{record}");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        mismatches == 0 && repeat_errors.is_empty(),
        metrics.0.join(",")
    );
    Ok(())
}

#[derive(Default)]
struct Metrics(Vec<String>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    median(&v)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it (nearest rank): `(percentile, value, beyond)`.
fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (50.0, 0.0, 0);
    }
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= 10 || p == 50.0 {
            return (p, sorted[rank - 1], n - rank);
        }
    }
    unreachable!("the ladder ends at the median")
}

/// The layer spans, named after the call each one wraps.
const LAYERS: [&str; 9] = [
    "logic.parse",
    "chase.run",
    "chase.resume",
    "core.core",
    "cwa.cansol",
    "query.refresh",
    "query.answer",
    "repair.repairs",
    "repair.xr_certain",
];

/// Work counters reported per layer: (metric, counter).
const COUNTS: [(&str, &str); 8] = [
    ("chase.triggers_examined", "triggers_examined"),
    ("chase.triggers_fired", "triggers_fired"),
    ("chase.egd_steps", "egd_steps"),
    ("chase.atoms_inserted", "atoms_inserted"),
    ("chase.atoms_retracted", "atoms_retracted"),
    ("chase.atoms_rederived", "atoms_rederived"),
    ("query.answer_rows", "answer_rows"),
    ("repair.candidates_chased", "candidates_chased"),
];

/// Useful-to-attempted ratios: (metric, numerator, denominator).
const RATIOS: [(&str, &str, &str); 3] = [
    ("chase.fire_ratio", "triggers_fired", "triggers_examined"),
    ("core.kept_ratio", "core_atoms", "target_atoms"),
    ("repair.useful_ratio", "repairs", "candidates_chased"),
];

/// Request time and per-layer self time of every request in one pass.
fn split(p: &Pass) -> (Vec<u64>, BTreeMap<&'static str, Vec<u64>>) {
    let n = p.lat.len();
    let mut request = vec![0u64; n];
    let mut layers: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in &p.spans.list {
        match s.parent {
            None => request[s.op] += s.ns(),
            Some(_) => layers.entry(s.name).or_insert_with(|| vec![0; n])[s.op] += s.ns(),
        }
    }
    let attributed: Vec<u64> = (0..n)
        .map(|i| layers.values().map(|v| v[i]).sum())
        .collect();
    let unattributed = request
        .iter()
        .zip(&attributed)
        .map(|(r, a)| r.saturating_sub(*a))
        .collect();
    layers.insert("bench.unattributed", unattributed);
    (request, layers)
}

/// Per-layer metrics of the traced passes: for each layer the median per
/// request of its time (each request's time the median over passes) and
/// its share of request time; then the work counters and ratios.
fn per_layer(traced: &[Pass], metrics: &mut Metrics) {
    let splits: Vec<_> = traced.iter().map(split).collect();
    let n = traced[0].lat.len();
    let ok: Vec<usize> = (0..n)
        .filter(|&i| traced.iter().all(|p| p.lat[i].is_some()))
        .collect();
    let med_of = |f: &dyn Fn(usize) -> Vec<u64>| -> Vec<f64> {
        ok.iter()
            .map(|&i| {
                let mut v: Vec<f64> = f(i).iter().map(|&x| x as f64 / 1e6).collect();
                v.sort_by(f64::total_cmp);
                median(&v)
            })
            .collect()
    };
    let request = med_of(&|i| splits.iter().map(|(r, _)| r[i]).collect());
    let total: f64 = request.iter().sum();
    for name in LAYERS.iter().copied().chain(["bench.unattributed"]) {
        let per_op = med_of(&|i| {
            splits
                .iter()
                .map(|(_, l)| l.get(name).map_or(0, |v| v[i]))
                .collect()
        });
        let share = per_op.iter().sum::<f64>() / total * 100.0;
        let mut sorted = per_op;
        sorted.sort_by(f64::total_cmp);
        metrics.put(&format!("{name}_ms"), median(&sorted), "ms");
        metrics.put(&format!("{name}_pct"), share, "%");
    }
    let work = &traced[0].work;
    for (metric, counter) in COUNTS {
        let mut per_op: Vec<f64> = work
            .iter()
            .map(|w| w.get(counter).copied().unwrap_or(0) as f64)
            .collect();
        per_op.sort_by(f64::total_cmp);
        metrics.put(metric, median(&per_op), "count");
    }
    let totals = work_totals(work);
    for (metric, num, den) in RATIOS {
        let get = |k: &str| totals.get(k).copied().unwrap_or(0) as f64;
        let ratio = if get(den) > 0.0 {
            get(num) / get(den)
        } else {
            0.0
        };
        metrics.put(metric, ratio, "ratio");
    }
}

fn work_totals(work: &[Work]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for w in work {
        for (&k, &v) in w {
            *totals.entry(k).or_insert(0) += v;
        }
    }
    totals
}

/// Where the built benchmark keeps what it leaves behind: next to its
/// executable, inside the build directory.
fn state_dir(sub: &str) -> Option<PathBuf> {
    let dir = std::env::current_exe().ok()?.parent()?.join(sub);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// The exact-repeat gate across runs: the first run of a (workload,
/// seed, request count, source) stores its work totals, and every later
/// run must reproduce them.
fn check_repeat(
    cfg: &Cfg,
    n: usize,
    fingerprint: u64,
    totals: &BTreeMap<&str, u64>,
) -> Result<(), String> {
    let Some(dir) = state_dir("perfbench-work") else {
        return Ok(());
    };
    let file = dir.join(format!(
        "{}-{}-{n}-{fingerprint:016x}.txt",
        cfg.args.workload, cfg.args.seed
    ));
    let text: String = totals.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&file) {
        Ok(prev) if prev != text => Err(format!(
            "work counters differ from an earlier run with the same seed:\nearlier:\n{prev}now:\n{text}"
        )),
        Ok(_) => Ok(()),
        Err(_) => std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display())),
    }
}

/// Writes the spans of the traced passes, one file per pass.
fn write_spans(cfg: &Cfg, traced: &[Pass]) {
    let Some(dir) = state_dir("perfbench-trace") else {
        return;
    };
    for (k, t) in traced.iter().enumerate() {
        let file = dir.join(format!("{}-{}-{k}.jsonl", cfg.args.workload, cfg.args.seed));
        if let Err(e) = std::fs::write(&file, t.spans.to_jsonl()) {
            eprintln!("perfbench: {}: {e}", file.display());
        }
    }
}

/// The checkout holds no git metadata, so the build is identified by an
/// FNV-1a hash over the manifests and sources it was built from.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.push(root.join("perfbench").join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().replace('"', "'"))
}

/// Process high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
