//! Trace analysis: turns a JSONL event stream back into an answer to
//! "where did the time go?".
//!
//! The analyzer works at the [`JsonValue`] level rather than
//! reconstructing [`crate::event::EventKind`] values: a trace file may
//! come from a newer or older writer, and a profile should degrade
//! gracefully (unknown events still count, still carry time) instead
//! of failing to parse. Everything it derives is deterministic in the
//! input bytes — aggregation maps are `BTreeMap`s and rendering is
//! plain string formatting — so a `MockClock` trace produces a
//! byte-identical report on every rerun, which is what the 64-seed
//! determinism sweep in `crates/bench/tests/obs.rs` pins.
//!
//! Span trees are rebuilt by **stack discipline, not global ids**:
//! replayed worker segments (see `RingRecorder::replay_into`) carry
//! span ids from their own private tracers, which restart at 1 and may
//! collide with the outer tracer's ids. Each segment is internally
//! balanced, so nesting by open/close order recovers the true tree.

use std::collections::BTreeMap;

use crate::json::{parse, JsonValue};
use crate::metrics::MetricsRegistry;

/// One node of the reconstructed span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    pub start_ns: u64,
    /// Duration from the `span_closed` event (`start` to trace end for
    /// spans a truncated trace never closes).
    pub dur_ns: u64,
    /// Ordinary (non-span) events emitted directly under this span.
    pub events: u64,
    pub children: Vec<SpanNode>,
}

/// Aggregate over every span sharing a name — the "per-phase" rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus time spent in child spans (clamped at zero).
    pub self_ns: u64,
}

/// Aggregate over every event naming a dependency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepAgg {
    pub dep: String,
    pub examined: u64,
    pub fired: u64,
    pub merged: u64,
    /// Inter-event time attributed to this dependency: each event's
    /// `at_ns` minus the previous event's, charged to the event's
    /// `dep`. Zero under a frozen `MockClock`.
    pub time_ns: u64,
}

/// Pool activity summarised from `job_dispatched`/`job_completed`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobAgg {
    pub dispatched: u64,
    pub completions: u64,
    pub busy_ns: u64,
    pub dispatch_ns: u64,
    pub queue_ns: u64,
}

/// The aggregated profile of one trace.
#[derive(Clone, Debug, Default)]
pub struct TraceProfile {
    /// Event count per `"event"` name — the reconciliation surface:
    /// `events["trigger_examined"]` must equal the run's
    /// `ChaseStats.triggers_examined`, and so on.
    pub events: BTreeMap<String, u64>,
    pub total_events: u64,
    pub first_ns: u64,
    pub last_ns: u64,
    /// Per-span-name aggregates, hottest (by total time) first; ties
    /// break by name so the order is total.
    pub phases: Vec<PhaseAgg>,
    /// Per-dependency aggregates, hottest first (time, then
    /// examinations, then name).
    pub deps: Vec<DepAgg>,
    /// Governor trips by reason.
    pub governor: BTreeMap<String, u64>,
    /// Rows seeded into the egd matcher, summed over `chase_completed`
    /// events — equals the runs' `ChaseStats.egd_rows_scanned`.
    pub egd_rows_scanned: u64,
    /// Retract searches of null components, summed over
    /// `core_completed` events — equals the runs'
    /// `GovernedCore.components_searched`.
    pub components_searched: u64,
    /// The components among them settled by the rigid pass alone,
    /// summed likewise (0 on traces older than the field).
    pub components_rigid: u64,
    /// Total count carried by `events_dropped` markers.
    pub dropped: u64,
    pub truncated: bool,
    pub jobs: JobAgg,
    /// Root spans in emission order.
    pub roots: Vec<SpanNode>,
    /// Counters and histograms derived from the trace: one counter per
    /// event name, span-duration histograms per phase, and the pool
    /// latency histograms — the `dex trace --metrics` body.
    pub metrics: MetricsRegistry,
}

/// Parses a JSONL trace into its lines. Blank lines are skipped; a
/// malformed line aborts with its (1-based) line number.
pub fn parse_trace(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        if v.get("event").and_then(JsonValue::as_str).is_none() {
            return Err(format!("line {}: missing \"event\" key", i + 1));
        }
        out.push(v);
    }
    Ok(out)
}

fn u64_of(line: &JsonValue, key: &str) -> u64 {
    line.get(key)
        .and_then(JsonValue::as_u128)
        .map_or(0, |v| v as u64)
}

fn str_of<'a>(line: &'a JsonValue, key: &str) -> Option<&'a str> {
    line.get(key).and_then(JsonValue::as_str)
}

/// Checks the span stream is well-formed: every `span_opened` names a
/// parent that is currently open (or none), every `span_closed`
/// matches the innermost open span (LIFO), ordinary events carry
/// either no span or an open one, and nothing is left open at the
/// end. The determinism sweep runs this over every reassembled trace.
pub fn check_spans_well_formed(lines: &[JsonValue]) -> Result<(), String> {
    let mut open: Vec<u64> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let event = str_of(line, "event").unwrap_or("");
        let span_id = u64_of(line, "span_id");
        let parent = u64_of(line, "parent");
        match event {
            "span_opened" => {
                if span_id == 0 {
                    return Err(format!("line {}: span_opened without span_id", i + 1));
                }
                if parent != 0 && !open.contains(&parent) {
                    return Err(format!(
                        "line {}: parent {parent} is not an open span",
                        i + 1
                    ));
                }
                open.push(span_id);
            }
            "span_closed" => match open.last() {
                Some(&top) if top == span_id => {
                    open.pop();
                }
                top => {
                    return Err(format!(
                        "line {}: span_closed {span_id} violates LIFO (innermost open: {top:?})",
                        i + 1
                    ));
                }
            },
            _ => {
                if span_id != 0 && !open.contains(&span_id) {
                    return Err(format!(
                        "line {}: event attributed to unopened span {span_id}",
                        i + 1
                    ));
                }
            }
        }
    }
    if !open.is_empty() {
        return Err(format!("{} spans left open at end of trace", open.len()));
    }
    Ok(())
}

impl TraceProfile {
    /// Builds the profile from parsed trace lines.
    pub fn from_lines(lines: &[JsonValue]) -> TraceProfile {
        let mut p = TraceProfile {
            first_ns: lines.first().map_or(0, |l| u64_of(l, "at_ns")),
            last_ns: lines.last().map_or(0, |l| u64_of(l, "at_ns")),
            ..TraceProfile::default()
        };
        let mut phases: BTreeMap<String, PhaseAgg> = BTreeMap::new();
        let mut deps: BTreeMap<String, DepAgg> = BTreeMap::new();
        // Open-span stack for tree reconstruction; `child_ns` is time
        // covered by already-closed children, for self-time.
        struct Open {
            node: SpanNode,
            id: u64,
            child_ns: u64,
        }
        let mut stack: Vec<Open> = Vec::new();
        let mut prev_ns = p.first_ns;
        for line in lines {
            let event = str_of(line, "event").unwrap_or("");
            let at_ns = u64_of(line, "at_ns");
            // Pool events are stamped on the pool's own monotonic epoch
            // and drop markers carry a synthetic timestamp; neither may
            // feed the inter-event deltas that charge time to deps.
            let foreign_clock =
                matches!(event, "job_dispatched" | "job_completed" | "events_dropped");
            let delta = if foreign_clock {
                0
            } else {
                let d = at_ns.saturating_sub(prev_ns);
                prev_ns = at_ns;
                d
            };
            p.total_events += 1;
            *p.events.entry(event.to_string()).or_insert(0) += 1;
            p.metrics.inc(&format!("trace.events.{event}"), 1);
            if let Some(dep) = str_of(line, "dep") {
                let agg = deps.entry(dep.to_string()).or_insert_with(|| DepAgg {
                    dep: dep.to_string(),
                    ..DepAgg::default()
                });
                agg.time_ns += delta;
                match event {
                    "trigger_examined" => agg.examined += 1,
                    "tgd_fired" => agg.fired += 1,
                    "egd_merged" => agg.merged += 1,
                    _ => {}
                }
            }
            match event {
                "span_opened" => {
                    stack.push(Open {
                        node: SpanNode {
                            name: str_of(line, "span").unwrap_or("?").to_string(),
                            start_ns: at_ns,
                            dur_ns: 0,
                            events: 0,
                            children: Vec::new(),
                        },
                        id: u64_of(line, "span_id"),
                        child_ns: 0,
                    });
                }
                "span_closed" => {
                    let span_id = u64_of(line, "span_id");
                    // Tolerate non-LIFO closes (truncated traces):
                    // close the innermost matching span, or ignore.
                    let Some(pos) = stack.iter().rposition(|o| o.id == span_id) else {
                        continue;
                    };
                    let mut open = stack.remove(pos);
                    open.node.dur_ns = u64_of(line, "dur_ns");
                    let agg = phases
                        .entry(open.node.name.clone())
                        .or_insert_with(|| PhaseAgg {
                            name: open.node.name.clone(),
                            ..PhaseAgg::default()
                        });
                    agg.count += 1;
                    agg.total_ns += open.node.dur_ns;
                    agg.self_ns += open.node.dur_ns.saturating_sub(open.child_ns);
                    p.metrics.observe(
                        &format!("trace.span.{}.dur_ns", open.node.name),
                        open.node.dur_ns,
                    );
                    match stack.last_mut() {
                        Some(parent) => {
                            parent.child_ns += open.node.dur_ns;
                            parent.node.children.push(open.node);
                        }
                        None => p.roots.push(open.node),
                    }
                }
                "chase_completed" => {
                    let n = u64_of(line, "egd_rows_scanned");
                    p.egd_rows_scanned += n;
                    p.metrics.inc("trace.chase.egd_rows_scanned", u128::from(n));
                }
                "core_completed" => {
                    let n = u64_of(line, "components_searched");
                    p.components_searched += n;
                    p.metrics
                        .inc("trace.core.components_searched", u128::from(n));
                    let n = u64_of(line, "components_rigid");
                    p.components_rigid += n;
                    p.metrics.inc("trace.core.components_rigid", u128::from(n));
                }
                "governor_tripped" => {
                    let reason = str_of(line, "reason").unwrap_or("?").to_string();
                    *p.governor.entry(reason).or_insert(0) += 1;
                }
                "events_dropped" => {
                    p.dropped += u64_of(line, "count");
                }
                "job_dispatched" => {
                    p.jobs.dispatched += 1;
                    let d = u64_of(line, "dispatch_ns");
                    p.jobs.dispatch_ns += d;
                    p.metrics.observe("pool.dispatch_latency_ns", d);
                }
                "job_completed" => {
                    p.jobs.completions += 1;
                    let busy = u64_of(line, "busy_ns");
                    let queue = u64_of(line, "queue_ns");
                    p.jobs.busy_ns += busy;
                    p.jobs.queue_ns += queue;
                    p.metrics.observe("pool.queue_wait_ns", queue);
                    p.metrics.observe("pool.worker_busy_ns", busy);
                }
                _ => {}
            }
            if !matches!(event, "span_opened" | "span_closed") {
                if let Some(top) = stack.last_mut() {
                    top.node.events += 1;
                }
            }
        }
        // Spans a truncated trace never closed: extend to trace end
        // and attach bottom-up so the tree stays printable.
        while let Some(mut open) = stack.pop() {
            open.node.dur_ns = p.last_ns.saturating_sub(open.node.start_ns);
            match stack.last_mut() {
                Some(parent) => parent.node.children.push(open.node),
                None => p.roots.push(open.node),
            }
        }
        p.truncated = p.dropped > 0;
        let mut phases: Vec<PhaseAgg> = phases.into_values().collect();
        phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        p.phases = phases;
        let mut deps: Vec<DepAgg> = deps.into_values().collect();
        deps.sort_by(|a, b| {
            b.time_ns
                .cmp(&a.time_ns)
                .then(b.examined.cmp(&a.examined))
                .then(a.dep.cmp(&b.dep))
        });
        p.deps = deps;
        p
    }

    /// The total wall-clock span of the trace.
    pub fn elapsed_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.first_ns)
    }

    /// The human-readable profile. `top` caps the dependency table;
    /// `tree` appends the span waterfall.
    pub fn render_text(&self, top: usize, tree: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} ns elapsed",
            self.total_events,
            self.elapsed_ns()
        );
        if self.truncated {
            let _ = writeln!(
                out,
                "WARNING: {} events dropped — profile is partial",
                self.dropped
            );
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases (by total time):");
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>14} {:>14}",
                "span", "count", "total_ns", "self_ns"
            );
            for ph in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>14} {:>14}",
                    ph.name, ph.count, ph.total_ns, ph.self_ns
                );
            }
        }
        if !self.deps.is_empty() {
            let _ = writeln!(out, "\nhottest dependencies (top {top}):");
            let _ = writeln!(
                out,
                "  {:<24} {:>9} {:>7} {:>7} {:>14}",
                "dep", "examined", "fired", "merged", "time_ns"
            );
            for d in self.deps.iter().take(top) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>9} {:>7} {:>7} {:>14}",
                    d.dep, d.examined, d.fired, d.merged, d.time_ns
                );
            }
        }
        if !self.governor.is_empty() {
            let _ = writeln!(out, "\ngovernor trips:");
            for (reason, n) in &self.governor {
                let _ = writeln!(out, "  {reason} x{n}");
            }
        }
        if self.jobs.dispatched > 0 || self.jobs.completions > 0 {
            let _ = writeln!(
                out,
                "\npool: {} jobs dispatched, {} completions, {} ns busy, {} ns dispatch, {} ns queued",
                self.jobs.dispatched,
                self.jobs.completions,
                self.jobs.busy_ns,
                self.jobs.dispatch_ns,
                self.jobs.queue_ns
            );
        }
        let _ = writeln!(out, "\nevents:");
        for (name, n) in &self.events {
            let _ = writeln!(out, "  {name:<24} {n:>8}");
        }
        if self.events.contains_key("chase_completed") {
            let _ = writeln!(out, "\nchase counters:");
            let _ = writeln!(
                out,
                "  {:<24} {:>8}",
                "egd_rows_scanned", self.egd_rows_scanned
            );
        }
        if self.events.contains_key("core_completed") {
            let _ = writeln!(out, "\ncore counters:");
            let _ = writeln!(
                out,
                "  {:<24} {:>8}",
                "components_searched", self.components_searched
            );
            let _ = writeln!(
                out,
                "  {:<24} {:>8}",
                "components_rigid", self.components_rigid
            );
        }
        if tree && !self.roots.is_empty() {
            let _ = writeln!(out, "\nspan tree:");
            for root in &self.roots {
                render_node(&mut out, root, 1);
            }
        }
        out
    }

    /// The machine-readable profile, deterministic key order.
    pub fn to_json(&self) -> JsonValue {
        let events = self
            .events
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::uint(v)))
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|ph| {
                JsonValue::obj()
                    .with("span", JsonValue::str(ph.name.clone()))
                    .with("count", JsonValue::uint(ph.count))
                    .with("total_ns", JsonValue::uint(ph.total_ns))
                    .with("self_ns", JsonValue::uint(ph.self_ns))
            })
            .collect();
        let deps = self
            .deps
            .iter()
            .map(|d| {
                JsonValue::obj()
                    .with("dep", JsonValue::str(d.dep.clone()))
                    .with("examined", JsonValue::uint(d.examined))
                    .with("fired", JsonValue::uint(d.fired))
                    .with("merged", JsonValue::uint(d.merged))
                    .with("time_ns", JsonValue::uint(d.time_ns))
            })
            .collect();
        let governor = self
            .governor
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::uint(v)))
            .collect();
        let pool = JsonValue::obj()
            .with("dispatched", JsonValue::uint(self.jobs.dispatched))
            .with("completions", JsonValue::uint(self.jobs.completions))
            .with("busy_ns", JsonValue::uint(self.jobs.busy_ns))
            .with("dispatch_ns", JsonValue::uint(self.jobs.dispatch_ns))
            .with("queue_ns", JsonValue::uint(self.jobs.queue_ns));
        JsonValue::obj()
            .with("total_events", JsonValue::uint(self.total_events))
            .with("elapsed_ns", JsonValue::uint(self.elapsed_ns()))
            .with("truncated", JsonValue::Bool(self.truncated))
            .with("dropped", JsonValue::uint(self.dropped))
            .with("events", JsonValue::Obj(events))
            .with("phases", JsonValue::Arr(phases))
            .with("deps", JsonValue::Arr(deps))
            .with("governor", JsonValue::Obj(governor))
            .with("egd_rows_scanned", JsonValue::uint(self.egd_rows_scanned))
            .with(
                "components_searched",
                JsonValue::uint(self.components_searched),
            )
            .with("components_rigid", JsonValue::uint(self.components_rigid))
            .with("pool", pool)
            .with(
                "tree",
                JsonValue::Arr(self.roots.iter().map(node_json).collect()),
            )
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{:indent$}{} {} ns ({} events)",
        "",
        node.name,
        node.dur_ns,
        node.events,
        indent = depth * 2
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn node_json(node: &SpanNode) -> JsonValue {
    JsonValue::obj()
        .with("span", JsonValue::str(node.name.clone()))
        .with("start_ns", JsonValue::uint(node.start_ns))
        .with("dur_ns", JsonValue::uint(node.dur_ns))
        .with("events", JsonValue::uint(node.events))
        .with(
            "children",
            JsonValue::Arr(node.children.iter().map(node_json).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{RingRecorder, Tracer};
    use crate::event::EventKind;
    use std::sync::Arc;

    fn lines_of(ring: &RingRecorder) -> Vec<JsonValue> {
        parse_trace(&ring.to_jsonl()).unwrap()
    }

    #[test]
    fn profile_reconstructs_the_span_tree_and_phase_totals() {
        let ring = Arc::new(RingRecorder::new(64));
        let t = Tracer::new(ring.clone());
        let run = t.span("run", 0);
        let round = t.span("round", 10);
        t.emit(12, EventKind::TriggerExamined { dep: "d1".into() });
        t.emit(
            15,
            EventKind::TgdFired {
                dep: "d1".into(),
                atoms_added: 2,
            },
        );
        round.close(20);
        let round2 = t.span("round", 20);
        t.emit(26, EventKind::TriggerExamined { dep: "d2".into() });
        round2.close(30);
        run.close(32);
        let lines = lines_of(&ring);
        check_spans_well_formed(&lines).unwrap();
        let p = TraceProfile::from_lines(&lines);
        assert_eq!(p.total_events, 9);
        assert_eq!(p.events["trigger_examined"], 2);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "run");
        assert_eq!(p.roots[0].children.len(), 2);
        assert_eq!(p.roots[0].children[0].events, 2);
        // Phase rows: run 32 ns total with 20 ns inside the two round
        // children; round 10+10 total.
        let run_ph = p.phases.iter().find(|ph| ph.name == "run").unwrap();
        assert_eq!((run_ph.count, run_ph.total_ns, run_ph.self_ns), (1, 32, 12));
        let round_ph = p.phases.iter().find(|ph| ph.name == "round").unwrap();
        assert_eq!((round_ph.count, round_ph.total_ns), (2, 20));
        // Dep table: d1 is charged 10→12 and 12→15 (5 ns); d2 the
        // 20→26 delta (6 ns), which ranks it hotter.
        assert_eq!(p.deps[0].dep, "d2");
        assert_eq!(p.deps[0].time_ns, 6);
        let d1 = p.deps.iter().find(|d| d.dep == "d1").unwrap();
        assert_eq!((d1.examined, d1.fired, d1.time_ns), (1, 1, 5));
        assert!(!p.truncated);
        // Rendering is pure in the profile: two calls, same bytes.
        assert_eq!(p.render_text(5, true), p.render_text(5, true));
        assert!(p.render_text(5, true).contains("span tree:"));
        assert!(!p.render_text(5, false).contains("span tree:"));
        // Derived metrics parse as Prometheus text.
        crate::metrics::validate_prometheus_text(&p.metrics.expose_text()).unwrap();
        assert_eq!(p.metrics.counter("trace.events.trigger_examined"), 2);
        assert_eq!(
            p.metrics
                .histogram("trace.span.round.dur_ns")
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn egd_rows_scanned_sums_over_completed_chases() {
        let ring = Arc::new(RingRecorder::new(8));
        let t = Tracer::new(ring.clone());
        for (at, scanned) in [(1, 5), (2, 7)] {
            t.emit(
                at,
                EventKind::ChaseCompleted {
                    atoms: 3,
                    steps: 2,
                    egd_rows_scanned: scanned,
                },
            );
        }
        let p = TraceProfile::from_lines(&lines_of(&ring));
        assert_eq!(p.egd_rows_scanned, 12);
        assert_eq!(p.metrics.counter("trace.chase.egd_rows_scanned"), 12);
        assert!(p.render_text(5, false).contains("egd_rows_scanned"));
        assert_eq!(
            p.to_json()
                .get("egd_rows_scanned")
                .and_then(JsonValue::as_u128),
            Some(12)
        );
    }

    #[test]
    fn components_searched_sums_over_completed_cores() {
        let ring = Arc::new(RingRecorder::new(8));
        let t = Tracer::new(ring.clone());
        for (at, searched) in [(1, 4), (2, 9)] {
            t.emit(
                at,
                EventKind::CoreCompleted {
                    atoms: 3,
                    components_searched: searched,
                    components_rigid: searched / 2,
                },
            );
        }
        let p = TraceProfile::from_lines(&lines_of(&ring));
        assert_eq!(p.components_searched, 13);
        assert_eq!(p.metrics.counter("trace.core.components_searched"), 13);
        assert!(p.render_text(5, false).contains("components_searched"));
        assert_eq!(
            p.to_json()
                .get("components_searched")
                .and_then(JsonValue::as_u128),
            Some(13)
        );
        assert_eq!(p.components_rigid, 6);
        assert_eq!(p.metrics.counter("trace.core.components_rigid"), 6);
        assert!(p.render_text(5, false).contains("components_rigid"));
        assert_eq!(
            p.to_json()
                .get("components_rigid")
                .and_then(JsonValue::as_u128),
            Some(6)
        );
    }

    #[test]
    fn traces_without_components_rigid_read_zero() {
        let line =
            parse(r#"{"event":"core_completed","at_ns":1,"atoms":3,"components_searched":4}"#)
                .unwrap();
        let p = TraceProfile::from_lines(&[line]);
        assert_eq!((p.components_searched, p.components_rigid), (4, 0));
    }

    #[test]
    fn truncated_traces_are_flagged() {
        let ring = Arc::new(RingRecorder::new(2));
        let t = Tracer::new(ring.clone());
        for depth in 0..5 {
            t.emit(depth as u64, EventKind::HomExtended { depth });
        }
        let lines = lines_of(&ring);
        let p = TraceProfile::from_lines(&lines);
        assert!(p.truncated);
        assert_eq!(p.dropped, 3);
        assert!(p
            .render_text(5, false)
            .contains("WARNING: 3 events dropped"));
        assert_eq!(p.to_json().get("truncated"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn well_formedness_rejects_bad_streams() {
        // Closing a span that is not innermost.
        let bad = "\
{\"at_ns\":0,\"event\":\"span_opened\",\"span_id\":1,\"span\":\"a\"}
{\"at_ns\":1,\"event\":\"span_opened\",\"span_id\":2,\"parent\":1,\"span\":\"b\"}
{\"at_ns\":2,\"event\":\"span_closed\",\"span_id\":1,\"span\":\"a\",\"dur_ns\":2}";
        let lines = parse_trace(bad).unwrap();
        assert!(check_spans_well_formed(&lines).is_err());
        // A parent that was never opened.
        let bad =
            "{\"at_ns\":0,\"event\":\"span_opened\",\"span_id\":3,\"parent\":9,\"span\":\"x\"}";
        assert!(check_spans_well_formed(&parse_trace(bad).unwrap()).is_err());
        // Replay-style duplicate ids are fine as long as closes are LIFO.
        let ok = "\
{\"at_ns\":0,\"event\":\"span_opened\",\"span_id\":1,\"span\":\"wave\"}
{\"at_ns\":1,\"event\":\"span_opened\",\"span_id\":1,\"span\":\"replayed\"}
{\"at_ns\":2,\"event\":\"span_closed\",\"span_id\":1,\"span\":\"replayed\",\"dur_ns\":1}
{\"at_ns\":3,\"event\":\"span_closed\",\"span_id\":1,\"span\":\"wave\",\"dur_ns\":3}";
        check_spans_well_formed(&parse_trace(ok).unwrap()).unwrap();
    }
}
