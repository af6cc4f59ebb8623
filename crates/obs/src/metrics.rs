//! A unified metrics registry: named counters, gauges and
//! log₂-bucketed latency histograms.
//!
//! The stats structs scattered across the workspace (`ChaseStats`,
//! `EnumStats`, `GovernedAnswers`, governor trip counts) each export
//! *views* into one of these registries via their `export_metrics`
//! methods, so a bench run can merge everything into a single JSON
//! document. Histograms store only 65 bucket counts — p50/p95/p99 are
//! derivable without retaining per-sample wall-clock data.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// A latency histogram with power-of-two buckets. Bucket `k ≥ 1`
/// counts samples in `[2^(k-1), 2^k - 1]`; bucket `0` counts zeros.
///
/// # Quantile semantics on log₂ buckets
///
/// [`Histogram::quantile`] is nearest-rank over the bucket counts,
/// reported as the *inclusive upper bound* of the bucket the rank
/// lands in (`Histogram::bucket_hi`): `0` for bucket 0, `2^k - 1`
/// for bucket `k`, saturating at `u64::MAX`. Consequences callers can
/// rely on:
///
/// - an **empty** histogram has no quantiles — every `quantile(q)`
///   is `None`;
/// - a **single sample** `v` makes every quantile the upper bound of
///   `v`'s bucket (e.g. one sample of `5` reports `7` at any `q`);
/// - the report **over-approximates by at most 2×**: a sample in
///   `[2^(k-1), 2^k - 1]` is reported as `2^k - 1`;
/// - [`Histogram::merge`] sums bucket counts, so quantiles of the
///   merged histogram equal quantiles of the concatenated sample
///   streams (bucketing first loses nothing further).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
    total: u64,
    /// Sum of raw (pre-bucketing) sample values — kept exact so the
    /// Prometheus `_sum` series is not a bucket approximation.
    sum: u128,
}

// `[u64; 65]` has no derived `Default` (arrays cap at 32).
impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `k` (the value a quantile
    /// query reports for samples landing in it).
    fn bucket_hi(k: usize) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::bucket(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded sample values (exact, not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The nearest-rank quantile, reported as the upper bound of the
    /// bucket the rank falls in (so it is an over-approximation by at
    /// most 2x — the price of log₂ bucketing).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Histogram::bucket_hi(k));
            }
        }
        unreachable!("total is the sum of the buckets");
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one (bucket-wise sum).
    /// Quantiles of the result equal quantiles of the concatenated
    /// sample streams — see the type-level docs.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// `{"count":…, "p50":…, "p95":…, "p99":…, "buckets":[[k,count],…]}`
    /// with only non-empty buckets listed.
    pub fn to_json(&self) -> JsonValue {
        let quant = |v: Option<u64>| v.map_or(JsonValue::Null, JsonValue::uint);
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| JsonValue::Arr(vec![JsonValue::uint(k as u64), JsonValue::uint(c)]))
            .collect();
        JsonValue::obj()
            .with("count", JsonValue::uint(self.total))
            .with("sum", JsonValue::UInt(self.sum))
            .with("p50", quant(self.p50()))
            .with("p95", quant(self.p95()))
            .with("p99", quant(self.p99()))
            .with("buckets", JsonValue::Arr(buckets))
    }
}

/// Named counters, gauges and histograms. Key order is sorted
/// (`BTreeMap`), so `to_json()` output is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u128>,
    gauges: BTreeMap<String, i128>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u128) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: i128) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    pub fn counter(&self, name: &str) -> u128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<i128> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges a pre-aggregated histogram into `name` bucket-wise —
    /// for exporters that maintain their own `Histogram` and fold it
    /// in at exposition time.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry: counters add, gauges last-write-win,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// `{"counters":{…},"gauges":{…},"histograms":{…}}`, keys sorted.
    pub fn to_json(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| {
                let v =
                    i64::try_from(v).map_or_else(|_| JsonValue::Float(v as f64), JsonValue::Int);
                (k.clone(), v)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        JsonValue::obj()
            .with("counters", JsonValue::Obj(counters))
            .with("gauges", JsonValue::Obj(gauges))
            .with("histograms", JsonValue::Obj(histograms))
    }

    /// Prometheus text exposition (format 0.0.4): each counter and
    /// gauge as a `# TYPE` line plus one sample, each histogram as
    /// cumulative `le`-labelled buckets over the log₂ upper bounds,
    /// a `+Inf` bucket, `_count` and `_sum`. Metric names are
    /// sanitized to the Prometheus charset (`.` and other separators
    /// become `_`; distinct registry keys that sanitize identically
    /// will collide, so exporters should stick to the charset). This
    /// is the `/metrics` body `dex serve` will mount; `dex trace
    /// --metrics` prints it today.
    pub fn expose_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let n = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, &v) in &self.gauges {
            let n = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (k, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let hi = Histogram::bucket_hi(k);
                let _ = writeln!(out, "{n}_bucket{{le=\"{hi}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.total);
            let _ = writeln!(out, "{n}_count {}", h.total);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
        }
        out
    }
}

/// Maps an arbitrary registry key onto the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: out-of-charset bytes become
/// `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// An in-tree line-grammar check for Prometheus text exposition —
/// what the acceptance tests assert [`MetricsRegistry::expose_text`]
/// against, in lieu of a real scrape. Verifies per line that comments
/// are well-formed `# TYPE`/`# HELP`, sample lines are
/// `name{labels} value` with names/labels in the Prometheus charset
/// and a parseable value, and per histogram that bucket counts are
/// cumulative (non-decreasing), a `+Inf` bucket exists, and `_count`
/// equals the `+Inf` bucket.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    struct HistCheck {
        name: String,
        last_cum: f64,
        inf: Option<f64>,
        count: Option<f64>,
        saw_sum: bool,
    }
    fn close_hist(h: Option<HistCheck>) -> Result<(), String> {
        let Some(h) = h else { return Ok(()) };
        let inf = h
            .inf
            .ok_or_else(|| format!("histogram {}: no +Inf bucket", h.name))?;
        let count = h
            .count
            .ok_or_else(|| format!("histogram {}: no _count", h.name))?;
        if (inf - count).abs() > f64::EPSILON {
            return Err(format!(
                "histogram {}: +Inf bucket {} != _count {}",
                h.name, inf, count
            ));
        }
        if !h.saw_sum {
            return Err(format!("histogram {}: no _sum", h.name));
        }
        Ok(())
    }

    /// Splits `name{labels} value` into its parts; labels optional.
    fn parse_sample(line: &str) -> Result<(String, Vec<(String, String)>, f64), String> {
        let (head, labels) = match line.find('{') {
            Some(b) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("unclosed label set: {line}"))?;
                if close < b {
                    return Err(format!("malformed label set: {line}"));
                }
                let mut pairs = Vec::new();
                let body = &line[b + 1..close];
                for part in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = part
                        .split_once('=')
                        .ok_or_else(|| format!("label without '=': {part}"))?;
                    if !valid_name(k) {
                        return Err(format!("bad label name: {k}"));
                    }
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("unquoted label value: {part}"))?;
                    pairs.push((k.to_string(), v.to_string()));
                }
                let rest = line[close + 1..].trim_start();
                (format!("{} {rest}", &line[..b]), pairs)
            }
            None => (line.to_string(), Vec::new()),
        };
        let (name, value) = head
            .split_once(' ')
            .ok_or_else(|| format!("sample without value: {line}"))?;
        if !valid_name(name) {
            return Err(format!("bad metric name: {name}"));
        }
        // A sample line may carry an optional trailing timestamp; only
        // the first token after the name is the value.
        let value = value
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("sample without value: {line}"))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("unparseable sample value: {v}"))?,
        };
        Ok((name.to_string(), labels, value))
    }

    let mut hist: Option<HistCheck> = None;
    for raw in text.lines() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("TYPE without name: {line}"))?;
                    if !valid_name(name) {
                        return Err(format!("bad TYPE name: {name}"));
                    }
                    let ty = parts
                        .next()
                        .ok_or_else(|| format!("TYPE without type: {line}"))?;
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("unknown metric type: {ty}"));
                    }
                    close_hist(hist.take())?;
                    if ty == "histogram" {
                        hist = Some(HistCheck {
                            name: name.to_string(),
                            last_cum: 0.0,
                            inf: None,
                            count: None,
                            saw_sum: false,
                        });
                    }
                }
                Some("HELP") => {}
                _ => return Err(format!("unrecognised comment: {line}")),
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        if let Some(h) = &mut hist {
            if name == format!("{}_bucket", h.name) {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("bucket without le label: {line}"))?;
                if value < h.last_cum {
                    return Err(format!(
                        "histogram {}: bucket counts not cumulative at le={le}",
                        h.name
                    ));
                }
                h.last_cum = value;
                if le == "+Inf" {
                    h.inf = Some(value);
                }
                continue;
            } else if name == format!("{}_count", h.name) {
                h.count = Some(value);
                continue;
            } else if name == format!("{}_sum", h.name) {
                h.saw_sum = true;
                continue;
            }
            return Err(format!(
                "histogram {}: unexpected sample {name} inside its block",
                h.name
            ));
        }
    }
    close_hist(hist.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn quantiles_over_approximate_by_at_most_2x() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50().unwrap();
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        let p99 = h.p99().unwrap();
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), Some(1023));
        assert_eq!(Histogram::new().p95(), None);
    }

    #[test]
    fn registry_merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.inc("chase.rounds", 2);
        a.observe("lat", 100);
        a.set_gauge("peak", 5);
        let mut b = MetricsRegistry::new();
        b.inc("chase.rounds", 3);
        b.observe("lat", 200);
        b.set_gauge("peak", 9);
        a.merge(&b);
        assert_eq!(a.counter("chase.rounds"), 5);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.gauge("peak"), Some(9));
    }

    #[test]
    fn quantile_edges_on_log2_buckets() {
        // Empty histogram: no quantiles at any q.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        assert_eq!(empty.sum(), 0);
        // Single sample: every quantile is its bucket's upper bound.
        let mut one = Histogram::new();
        one.record(5); // bucket 3 = [4,7]
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(7), "q = {q}");
        }
        assert_eq!(one.sum(), 5);
        // Bucket-upper-bound rounding: exact powers sit in the next
        // bucket up, so 8 reports 15 while 7 reports 7.
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.quantile(1.0), Some(7));
        h.record(8);
        assert_eq!(h.quantile(1.0), Some(15));
        // Zero has its own bucket and reports exactly 0.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.p50(), Some(0));
        // merge preserves quantiles: quantiles of the merged histogram
        // equal those of recording both streams into one.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0u64, 3, 9, 100, 1000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 40, 64, 5000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.sum(), both.sum());
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn expose_text_round_trips_through_the_grammar_check() {
        let mut r = MetricsRegistry::new();
        r.inc("chase.rounds", 7);
        r.set_gauge("pool.workers", 3);
        let mut samples = Vec::new();
        for v in [0u64, 5, 5, 900, 70_000] {
            r.observe("dispatch latency.ns", v);
            samples.push(v);
        }
        let text = r.expose_text();
        validate_prometheus_text(&text).unwrap();
        // The odd key was sanitized into the Prometheus charset.
        assert!(text.contains("# TYPE dispatch_latency_ns histogram"));
        assert!(text.contains("# TYPE chase_rounds counter\nchase_rounds 7\n"));
        assert!(text.contains("pool_workers 3\n"));
        // Round-trip the histogram: _count, _sum, and the +Inf bucket
        // all reproduce the recorded stream.
        let line = |prefix: &str| {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(line("dispatch_latency_ns_count"), samples.len().to_string());
        assert_eq!(
            line("dispatch_latency_ns_sum"),
            samples
                .iter()
                .map(|&v| u128::from(v))
                .sum::<u128>()
                .to_string()
        );
        assert_eq!(
            line("dispatch_latency_ns_bucket{le=\"+Inf\"}"),
            samples.len().to_string()
        );
        // Cumulative buckets reconstruct the quantiles: the first
        // bucket whose cumulative count reaches the rank is exactly
        // what Histogram::quantile reports.
        let h = r.histogram("dispatch latency.ns").unwrap();
        let buckets: Vec<(u64, u64)> = text
            .lines()
            .filter(|l| l.starts_with("dispatch_latency_ns_bucket{le=\"") && !l.contains("+Inf"))
            .map(|l| {
                let le = l.split('"').nth(1).unwrap().parse::<u64>().unwrap();
                let c = l.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
                (le, c)
            })
            .collect();
        for q in [0.5, 0.95, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as u64).clamp(1, samples.len() as u64);
            let from_text = buckets.iter().find(|&&(_, c)| c >= rank).unwrap().0;
            assert_eq!(Some(from_text), h.quantile(q), "q = {q}");
        }
        // The validator rejects broken exposition.
        assert!(validate_prometheus_text("9bad_name 1").is_err());
        assert!(validate_prometheus_text("# TYPE h histogram\nh_bucket{le=\"1\"} 2\n").is_err());
        assert!(validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 3\n"
        )
        .is_err());
    }

    #[test]
    fn registry_json_is_sorted_and_parses() {
        let mut r = MetricsRegistry::new();
        r.inc("b.count", 1);
        r.inc("a.count", 2);
        r.observe("lat_ns", 7);
        let j = r.to_json();
        let dumped = j.dump();
        assert!(dumped.find("\"a.count\"").unwrap() < dumped.find("\"b.count\"").unwrap());
        assert_eq!(crate::json::parse(&dumped).unwrap(), j);
    }
}
