//! Typed trace events.
//!
//! Events carry only primitives (names as `String`, counts as
//! integers): `dex-obs` sits *below* `dex-core`, so it cannot name
//! core's types, and keeping payloads flat is what makes the JSONL
//! export line-per-event trivial. Timestamps are **caller-stamped**:
//! every emitter reads its own `govern::Clock`, so a run under
//! `MockClock` produces byte-identical streams.

use crate::json::JsonValue;

/// One timestamped trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the emitting engine's clock epoch
    /// (`govern::Clock::now_ns` at the emission site; `0` when the
    /// emitter runs ungoverned and has no clock).
    pub at_ns: u64,
    /// The span this event belongs to: for `SpanOpened`/`SpanClosed`
    /// the span's own id, for ordinary events the innermost span open
    /// on the emitting tracer. `0` means "no span" — ids are monotone
    /// from a per-tracer counter starting at 1, so traces from a
    /// fresh tracer are reproducible independent of global state.
    pub span_id: u64,
    /// For `SpanOpened`/`SpanClosed`: the enclosing span's id (`0` at
    /// the root). Always `0` for non-span events — their nesting is
    /// already carried by `span_id`.
    pub parent: u64,
    pub kind: EventKind,
}

/// What happened. Variants mirror the observable steps of the paper's
/// machinery: trigger examination and firing (chase §2/§3), egd
/// merging, semi-naive rounds, governor trips, and the two search
/// primitives underneath (homomorphism extension, core retraction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A chase driver started on `atoms` source atoms.
    ChaseStarted { driver: String, atoms: usize },
    /// A candidate trigger for dependency `dep` was examined.
    TriggerExamined { dep: String },
    /// A tgd trigger fired, inserting `atoms_added` new atoms.
    TgdFired { dep: String, atoms_added: usize },
    /// An egd merged `loser` into `winner`, rewriting `rows_rewritten` rows.
    EgdMerged {
        dep: String,
        loser: String,
        winner: String,
        rows_rewritten: usize,
    },
    /// A semi-naive round finished having processed `delta_rows`.
    RoundCompleted { round: usize, delta_rows: usize },
    /// A chase driver finished with `atoms` atoms after `steps` steps,
    /// having seeded `egd_rows_scanned` rows into the egd matcher.
    ChaseCompleted {
        atoms: usize,
        steps: usize,
        egd_rows_scanned: usize,
    },
    /// An incremental resume applied a netted source delta: `inserts`
    /// new and `deletes` retracted source atoms, with `atoms_retracted`
    /// target atoms withdrawn and `atoms_rederived` re-fired back in.
    ResumeApplied {
        inserts: usize,
        deletes: usize,
        atoms_retracted: usize,
        atoms_rederived: usize,
    },
    /// A governor raised an interrupt after `ticks` ticks.
    GovernorTripped { reason: String, ticks: u64 },
    /// The homomorphism search extended a partial map to `depth` atoms.
    HomExtended { depth: usize },
    /// The core search found a proper retract.
    RetractFound {
        atoms_before: usize,
        atoms_after: usize,
    },
    /// A core computation ended with `atoms` atoms after
    /// `components_searched` retract searches of null components, of
    /// which `components_rigid` the rigid pass settled without a search.
    CoreCompleted {
        atoms: usize,
        components_searched: usize,
        components_rigid: usize,
    },
    /// A named span opened.
    SpanOpened { name: String },
    /// A named span closed after `dur_ns`.
    SpanClosed { name: String, dur_ns: u64 },
    /// A repair search started over `source_atoms` source atoms.
    RepairSearchStarted { source_atoms: usize },
    /// A repair candidate (source minus `removed` atoms) was decided;
    /// `outcome` is `"success"`, `"conflict"` or `"budget"` from its
    /// chase, or `"reused"` when a known conflict set decided it
    /// without one.
    RepairCandidateChased { removed: usize, outcome: String },
    /// A ⊆-maximal repair was accepted, keeping `kept` source atoms.
    RepairFound { removed: usize, kept: usize },
    /// The repair search finished with `repairs` repairs after chasing
    /// `candidates` candidates; `complete` is false on interrupt.
    RepairSearchCompleted {
        repairs: usize,
        candidates: usize,
        complete: bool,
    },
    /// A replay ring (or other lossy collector) evicted `count` events
    /// before they reached this stream — the profile downstream is
    /// partial and analyzers must say so.
    EventsDropped { count: u64 },
    /// The worker pool published a job to `width` participants after
    /// `dispatch_ns` of setup (slot publication + unparking).
    JobDispatched {
        job: u64,
        width: usize,
        dispatch_ns: u64,
    },
    /// One participant finished its share of job `job` after waiting
    /// `queue_ns` between publication and its body starting.
    JobCompleted {
        job: u64,
        worker: usize,
        busy_ns: u64,
        queue_ns: u64,
    },
}

impl EventKind {
    /// The stable snake_case name used as the `"event"` key in JSONL.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ChaseStarted { .. } => "chase_started",
            EventKind::TriggerExamined { .. } => "trigger_examined",
            EventKind::TgdFired { .. } => "tgd_fired",
            EventKind::EgdMerged { .. } => "egd_merged",
            EventKind::RoundCompleted { .. } => "round_completed",
            EventKind::ChaseCompleted { .. } => "chase_completed",
            EventKind::ResumeApplied { .. } => "resume_applied",
            EventKind::GovernorTripped { .. } => "governor_tripped",
            EventKind::HomExtended { .. } => "hom_extended",
            EventKind::RetractFound { .. } => "retract_found",
            EventKind::CoreCompleted { .. } => "core_completed",
            EventKind::SpanOpened { .. } => "span_opened",
            EventKind::SpanClosed { .. } => "span_closed",
            EventKind::RepairSearchStarted { .. } => "repair_search_started",
            EventKind::RepairCandidateChased { .. } => "repair_candidate_chased",
            EventKind::RepairFound { .. } => "repair_found",
            EventKind::RepairSearchCompleted { .. } => "repair_search_completed",
            EventKind::EventsDropped { .. } => "events_dropped",
            EventKind::JobDispatched { .. } => "job_dispatched",
            EventKind::JobCompleted { .. } => "job_completed",
        }
    }
}

impl Event {
    /// The event as one flat JSON object (one JSONL line, pre-newline).
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj()
            .with("at_ns", JsonValue::uint(self.at_ns))
            .with("event", JsonValue::str(self.kind.name()));
        // Span attribution is opt-in per event: omitting the zero case
        // keeps span-free traces byte-identical to the pre-span format.
        if self.span_id != 0 {
            o.push("span_id", JsonValue::uint(self.span_id));
        }
        if self.parent != 0 {
            o.push("parent", JsonValue::uint(self.parent));
        }
        match &self.kind {
            EventKind::ChaseStarted { driver, atoms } => {
                o.push("driver", JsonValue::str(driver.clone()));
                o.push("atoms", JsonValue::uint(*atoms as u64));
            }
            EventKind::TriggerExamined { dep } => {
                o.push("dep", JsonValue::str(dep.clone()));
            }
            EventKind::TgdFired { dep, atoms_added } => {
                o.push("dep", JsonValue::str(dep.clone()));
                o.push("atoms_added", JsonValue::uint(*atoms_added as u64));
            }
            EventKind::EgdMerged {
                dep,
                loser,
                winner,
                rows_rewritten,
            } => {
                o.push("dep", JsonValue::str(dep.clone()));
                o.push("loser", JsonValue::str(loser.clone()));
                o.push("winner", JsonValue::str(winner.clone()));
                o.push("rows_rewritten", JsonValue::uint(*rows_rewritten as u64));
            }
            EventKind::RoundCompleted { round, delta_rows } => {
                o.push("round", JsonValue::uint(*round as u64));
                o.push("delta_rows", JsonValue::uint(*delta_rows as u64));
            }
            EventKind::ChaseCompleted {
                atoms,
                steps,
                egd_rows_scanned,
            } => {
                o.push("atoms", JsonValue::uint(*atoms as u64));
                o.push("steps", JsonValue::uint(*steps as u64));
                o.push(
                    "egd_rows_scanned",
                    JsonValue::uint(*egd_rows_scanned as u64),
                );
            }
            EventKind::ResumeApplied {
                inserts,
                deletes,
                atoms_retracted,
                atoms_rederived,
            } => {
                o.push("inserts", JsonValue::uint(*inserts as u64));
                o.push("deletes", JsonValue::uint(*deletes as u64));
                o.push("atoms_retracted", JsonValue::uint(*atoms_retracted as u64));
                o.push("atoms_rederived", JsonValue::uint(*atoms_rederived as u64));
            }
            EventKind::GovernorTripped { reason, ticks } => {
                o.push("reason", JsonValue::str(reason.clone()));
                o.push("ticks", JsonValue::uint(*ticks));
            }
            EventKind::HomExtended { depth } => {
                o.push("depth", JsonValue::uint(*depth as u64));
            }
            EventKind::RetractFound {
                atoms_before,
                atoms_after,
            } => {
                o.push("atoms_before", JsonValue::uint(*atoms_before as u64));
                o.push("atoms_after", JsonValue::uint(*atoms_after as u64));
            }
            EventKind::CoreCompleted {
                atoms,
                components_searched,
                components_rigid,
            } => {
                o.push("atoms", JsonValue::uint(*atoms as u64));
                o.push(
                    "components_searched",
                    JsonValue::uint(*components_searched as u64),
                );
                o.push(
                    "components_rigid",
                    JsonValue::uint(*components_rigid as u64),
                );
            }
            EventKind::SpanOpened { name } => {
                o.push("span", JsonValue::str(name.clone()));
            }
            EventKind::SpanClosed { name, dur_ns } => {
                o.push("span", JsonValue::str(name.clone()));
                o.push("dur_ns", JsonValue::uint(*dur_ns));
            }
            EventKind::RepairSearchStarted { source_atoms } => {
                o.push("source_atoms", JsonValue::uint(*source_atoms as u64));
            }
            EventKind::RepairCandidateChased { removed, outcome } => {
                o.push("removed", JsonValue::uint(*removed as u64));
                o.push("outcome", JsonValue::str(outcome.clone()));
            }
            EventKind::RepairFound { removed, kept } => {
                o.push("removed", JsonValue::uint(*removed as u64));
                o.push("kept", JsonValue::uint(*kept as u64));
            }
            EventKind::RepairSearchCompleted {
                repairs,
                candidates,
                complete,
            } => {
                o.push("repairs", JsonValue::uint(*repairs as u64));
                o.push("candidates", JsonValue::uint(*candidates as u64));
                o.push("complete", JsonValue::Bool(*complete));
            }
            EventKind::EventsDropped { count } => {
                o.push("count", JsonValue::uint(*count));
            }
            EventKind::JobDispatched {
                job,
                width,
                dispatch_ns,
            } => {
                o.push("job", JsonValue::uint(*job));
                o.push("width", JsonValue::uint(*width as u64));
                o.push("dispatch_ns", JsonValue::uint(*dispatch_ns));
            }
            EventKind::JobCompleted {
                job,
                worker,
                busy_ns,
                queue_ns,
            } => {
                o.push("job", JsonValue::uint(*job));
                o.push("worker", JsonValue::uint(*worker as u64));
                o.push("busy_ns", JsonValue::uint(*busy_ns));
                o.push("queue_ns", JsonValue::uint(*queue_ns));
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_serialises_with_its_name() {
        let kinds = vec![
            EventKind::ChaseStarted {
                driver: "delta".into(),
                atoms: 3,
            },
            EventKind::TriggerExamined { dep: "d1".into() },
            EventKind::TgdFired {
                dep: "d2".into(),
                atoms_added: 2,
            },
            EventKind::EgdMerged {
                dep: "d4".into(),
                loser: "⊥1".into(),
                winner: "⊥0".into(),
                rows_rewritten: 1,
            },
            EventKind::RoundCompleted {
                round: 1,
                delta_rows: 5,
            },
            EventKind::ChaseCompleted {
                atoms: 9,
                steps: 4,
                egd_rows_scanned: 6,
            },
            EventKind::ResumeApplied {
                inserts: 3,
                deletes: 2,
                atoms_retracted: 4,
                atoms_rederived: 1,
            },
            EventKind::GovernorTripped {
                reason: "fuel".into(),
                ticks: 64,
            },
            EventKind::HomExtended { depth: 2 },
            EventKind::RetractFound {
                atoms_before: 5,
                atoms_after: 4,
            },
            EventKind::CoreCompleted {
                atoms: 4,
                components_searched: 3,
                components_rigid: 1,
            },
            EventKind::SpanOpened { name: "st".into() },
            EventKind::SpanClosed {
                name: "st".into(),
                dur_ns: 10,
            },
            EventKind::RepairSearchStarted { source_atoms: 6 },
            EventKind::RepairCandidateChased {
                removed: 1,
                outcome: "conflict".into(),
            },
            EventKind::RepairFound {
                removed: 1,
                kept: 5,
            },
            EventKind::RepairSearchCompleted {
                repairs: 2,
                candidates: 7,
                complete: true,
            },
            EventKind::EventsDropped { count: 12 },
            EventKind::JobDispatched {
                job: 3,
                width: 4,
                dispatch_ns: 900,
            },
            EventKind::JobCompleted {
                job: 3,
                worker: 1,
                busy_ns: 5_000,
                queue_ns: 250,
            },
        ];
        for kind in kinds {
            let name = kind.name();
            let e = Event {
                at_ns: 7,
                span_id: 0,
                parent: 0,
                kind,
            };
            let j = e.to_json();
            assert_eq!(j.get("event").unwrap().as_str(), Some(name));
            assert_eq!(j.get("at_ns").unwrap().as_u128(), Some(7));
            // Zero span attribution is omitted from the line entirely.
            assert!(j.get("span_id").is_none());
            assert!(j.get("parent").is_none());
            // Each line must parse back on its own.
            assert_eq!(crate::json::parse(&j.dump()).unwrap(), j);
        }
    }

    #[test]
    fn span_attribution_serialises_only_when_nonzero() {
        let e = Event {
            at_ns: 3,
            span_id: 9,
            parent: 2,
            kind: EventKind::SpanOpened {
                name: "round".into(),
            },
        };
        let j = e.to_json();
        assert_eq!(j.get("span_id").unwrap().as_u128(), Some(9));
        assert_eq!(j.get("parent").unwrap().as_u128(), Some(2));
        assert_eq!(crate::json::parse(&j.dump()).unwrap(), j);
    }
}
