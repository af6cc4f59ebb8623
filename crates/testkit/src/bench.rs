//! A wall-clock benchmark harness for `harness = false` bench mains.
//!
//! Each benchmark runs `warmup` untimed iterations and then `runs` timed
//! ones; the report gives median and p95 nanoseconds per iteration. Two
//! environment knobs:
//!
//! - `DEX_BENCH_RUNS=<n>` overrides the timed-run count;
//! - `DEX_BENCH_SMOKE=1` switches to smoke mode (1 warmup, 3 runs), and
//!   [`smoke`] lets bench mains also pick tiny input sizes — CI uses this
//!   to execute every benchmark body cheaply. A panic anywhere in a
//!   bench main exits the process nonzero, so smoke runs double as tests.
//!
//! ```no_run
//! let mut h = dex_testkit::bench::Harness::new("example");
//! for n in dex_testkit::bench::sizes(&[8, 16, 32], &[2]) {
//!     h.bench(&format!("work/{n}"), || {
//!         std::hint::black_box((0..n).sum::<usize>());
//!     });
//! }
//! h.finish();
//! ```

use std::time::Instant;

/// True when `DEX_BENCH_SMOKE=1`: bench mains should use tiny sizes.
pub fn smoke() -> bool {
    std::env::var("DEX_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Where a bench main should write its JSON artifact named `file`.
///
/// `DEX_BENCH_OUT=<dir>` routes the dump into `<dir>` (created on
/// demand) — `ci.sh` points smoke runs at `target/bench-smoke` so they
/// never clobber the committed baselines at the workspace root. Without
/// the override the dump lands in `workspace_root` (the committed
/// baseline location, used when re-baselining on a quiet machine).
pub fn bench_out_path(workspace_root: &std::path::Path, file: &str) -> std::path::PathBuf {
    match std::env::var("DEX_BENCH_OUT") {
        Ok(dir) if !dir.is_empty() => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir).expect("create DEX_BENCH_OUT directory");
            dir.join(file)
        }
        _ => workspace_root.join(file),
    }
}

/// Picks `full` sizes normally, `tiny` sizes under [`smoke`] mode.
pub fn sizes(full: &[usize], tiny: &[usize]) -> Vec<usize> {
    if smoke() {
        tiny.to_vec()
    } else {
        full.to_vec()
    }
}

/// One measured benchmark: name plus per-iteration nanosecond samples.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub name: String,
    /// Sorted per-iteration wall-clock nanoseconds.
    pub samples_ns: Vec<u128>,
}

impl Measurement {
    pub fn median_ns(&self) -> u128 {
        self.samples_ns[self.samples_ns.len() / 2]
    }

    pub fn p95_ns(&self) -> u128 {
        // Nearest-rank p95 on the sorted samples.
        let idx = (self.samples_ns.len() * 95).div_ceil(100).max(1) - 1;
        self.samples_ns[idx.min(self.samples_ns.len() - 1)]
    }

    /// [`Measurement::p95_ns`] only when there are enough samples for a
    /// tail quantile to mean anything. With fewer than 10 runs the
    /// nearest-rank p95 is just the maximum (or close to it) — report
    /// `None` instead of a number that looks like a measured tail.
    pub fn p95_ns_checked(&self) -> Option<u128> {
        (self.samples_ns.len() >= 10).then(|| self.p95_ns())
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Collects measurements and prints a text report.
pub struct Harness {
    group: String,
    warmup: usize,
    runs: usize,
    results: Vec<Measurement>,
}

impl Harness {
    /// A harness with default budget: 3 warmup + 20 timed runs (or the
    /// `DEX_BENCH_RUNS` / `DEX_BENCH_SMOKE` overrides).
    pub fn new(group: &str) -> Harness {
        let (mut warmup, mut runs) = (3, 20);
        if smoke() {
            (warmup, runs) = (1, 3);
        }
        if let Some(r) = std::env::var("DEX_BENCH_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            runs = r;
        }
        Harness {
            group: group.to_owned(),
            warmup,
            runs: 1.max(runs),
            results: Vec::new(),
        }
    }

    /// Overrides the per-benchmark run counts (smoke mode still wins).
    pub fn with_budget(mut self, warmup: usize, runs: usize) -> Harness {
        if !smoke() && std::env::var("DEX_BENCH_RUNS").is_err() {
            self.warmup = warmup;
            self.runs = 1.max(runs);
        }
        self
    }

    /// Raises the timed-run count to at least `n`, even in smoke mode.
    /// Groups whose consumers need a real tail quantile (p95 is `null`
    /// below 10 samples) use this so their JSON dump always carries one.
    pub fn with_min_runs(mut self, n: usize) -> Harness {
        self.runs = self.runs.max(n);
        self
    }

    /// Times `f`, printing one report line immediately.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        for _ in 0..self.warmup {
            f();
        }
        let mut samples: Vec<u128> = (0..self.runs)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        self.record(name, samples);
    }

    /// Stores one measurement of sorted samples and prints its line.
    fn record(&mut self, name: &str, samples: Vec<u128>) {
        let m = Measurement {
            name: format!("{}/{}", self.group, name),
            samples_ns: samples,
        };
        println!(
            "{:<52} median {:>10}  p95 {:>10}  ({} runs)",
            m.name,
            fmt_ns(m.median_ns()),
            fmt_ns(m.p95_ns()),
            self.runs
        );
        self.results.push(m);
    }

    /// Times `fa` and `fb` in alternating pairs, flipping which runs
    /// first every pair, and records both as measurements. Returns the
    /// per-pair ratios `fb / fa`, sorted: the host's speed drifts less
    /// within one pair than between two separately timed benchmarks, so
    /// the ratios resolve a difference of a few percent that two
    /// medians taken minutes apart cannot.
    pub fn bench_pair(
        &mut self,
        a: &str,
        b: &str,
        mut fa: impl FnMut(),
        mut fb: impl FnMut(),
    ) -> Vec<f64> {
        for _ in 0..self.warmup {
            fa();
            fb();
        }
        let time = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        };
        let mut pairs: Vec<(u128, u128)> = Vec::with_capacity(self.runs);
        for i in 0..self.runs {
            pairs.push(if i % 2 == 0 {
                let ta = time(&mut fa);
                (ta, time(&mut fb))
            } else {
                let tb = time(&mut fb);
                (time(&mut fa), tb)
            });
        }
        let mut ratios: Vec<f64> = pairs
            .iter()
            .map(|&(ta, tb)| tb as f64 / ta.max(1) as f64)
            .collect();
        ratios.sort_unstable_by(f64::total_cmp);
        let (mut sa, mut sb): (Vec<u128>, Vec<u128>) = pairs.into_iter().unzip();
        sa.sort_unstable();
        sb.sort_unstable();
        self.record(a, sa);
        self.record(b, sb);
        ratios
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the closing summary line. Call at the end of `main` — a
    /// normal return after `finish` is the benchmark's success exit;
    /// any panic before it makes `cargo bench` fail nonzero.
    pub fn finish(self) {
        println!(
            "{}: {} benchmarks, {} timed runs each",
            self.group,
            self.results.len(),
            self.runs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p95_on_known_samples() {
        let m = Measurement {
            name: "m".into(),
            samples_ns: (1..=100).collect(),
        };
        assert_eq!(m.median_ns(), 51);
        assert_eq!(m.p95_ns(), 95);
    }

    #[test]
    fn single_sample_stats() {
        let m = Measurement {
            name: "m".into(),
            samples_ns: vec![42],
        };
        assert_eq!(m.median_ns(), 42);
        assert_eq!(m.p95_ns(), 42);
    }

    #[test]
    fn p95_needs_ten_samples() {
        let m = Measurement {
            name: "t".into(),
            samples_ns: (0..3).collect(),
        };
        assert_eq!(m.p95_ns_checked(), None);
        let m = Measurement {
            name: "t".into(),
            samples_ns: (0..10).collect(),
        };
        assert_eq!(m.p95_ns_checked(), Some(m.p95_ns()));
    }

    #[test]
    fn harness_runs_the_closure() {
        let mut h = Harness::new("t").with_budget(0, 5);
        let mut count = 0u32;
        h.bench("count", || count += 1);
        // with_budget is a no-op under DEX_BENCH_RUNS/SMOKE; accept any
        // positive run count but require warmup+timed consistency.
        assert!(count > 0);
        assert_eq!(h.results().len(), 1);
        assert!(h.results()[0].samples_ns.len() >= 1);
    }

    #[test]
    fn paired_runs_alternate_and_record_both_sides() {
        let mut h = Harness::new("t").with_budget(0, 1).with_min_runs(6);
        let order = std::cell::RefCell::new(String::new());
        let ratios = h.bench_pair(
            "a",
            "b",
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        let runs = h.results()[0].samples_ns.len();
        assert_eq!(ratios.len(), runs);
        assert!(
            ratios.windows(2).all(|w| w[0] <= w[1]),
            "ratios come sorted"
        );
        assert_eq!(h.results().len(), 2);
        assert_eq!(h.results()[1].name, "t/b");
        // Timed pairs flip their order: ab, ba, ab, ...
        let timed = &order.borrow()[order.borrow().len() - 2 * runs..];
        assert!(timed.starts_with("abbaab"), "{timed}");
    }

    #[test]
    fn min_runs_floor_guarantees_p95_samples() {
        let mut h = Harness::new("t").with_budget(0, 1).with_min_runs(10);
        h.bench("noop", || {});
        // The floor wins over every budget/smoke override, so the dump
        // always has enough samples for a non-null p95.
        assert!(h.results()[0].samples_ns.len() >= 10);
        assert!(h.results()[0].p95_ns_checked().is_some());
    }

    #[test]
    fn formatting_scales_units() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(5_000), "5.000µs");
        assert_eq!(fmt_ns(5_000_000), "5.000ms");
        assert_eq!(fmt_ns(5_000_000_000), "5.000s");
    }

    #[test]
    fn sizes_honours_smoke_flag() {
        // Can't set the env var here without racing other tests; just
        // check the non-smoke path returns `full` verbatim.
        if !smoke() {
            assert_eq!(sizes(&[8, 16], &[2]), vec![8, 16]);
        }
    }
}
