//! Observability counters for chase runs.
//!
//! Every chase driver (the delta-driven [`crate::engine::ChaseEngine`]
//! and the retained naive drivers) fills a [`ChaseStats`], threaded
//! through [`crate::ChaseSuccess`] / [`crate::AlphaSuccess`]. The bench
//! harness dumps them into `BENCH_chase.json` and CI asserts
//! [`ChaseStats::validate`] on every smoke run.

/// Counters and phase timings for one chase run. All counters are
/// cumulative over the run; `*_time_ns` are wall-clock nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Tgd applications performed (equals `triggers_fired`).
    pub tgd_steps: usize,
    /// Egd repairs (value merges) performed.
    pub egd_steps: usize,
    /// Body matches examined as potential tgd triggers.
    pub triggers_examined: usize,
    /// Examined triggers that actually fired.
    pub triggers_fired: usize,
    /// Semi-naive fixpoint rounds (0 for the naive drivers).
    pub rounds: usize,
    /// Delta rows handed to the seeded matcher, summed over rounds.
    pub delta_rows_processed: usize,
    /// Largest per-round delta, in rows.
    pub max_round_delta_rows: usize,
    /// Atoms actually added to the instance (inserts that were not
    /// already present).
    pub atoms_inserted: usize,
    /// Rows rewritten in place by egd merges.
    pub rows_rewritten: usize,
    /// Rows seeded into the egd matcher, once per seed position and
    /// re-check: linear in the rows appended, not rows × merges.
    pub egd_rows_scanned: usize,
    /// Atoms retracted by incremental deletion propagation (0 for
    /// from-scratch runs).
    pub atoms_retracted: usize,
    /// Atoms re-inserted by re-firing triggers after a retraction
    /// over-deleted them (0 for from-scratch runs).
    pub atoms_rederived: usize,
    /// Largest instance size observed during the run.
    pub peak_atoms: usize,
    /// Wall time spent searching/applying egds.
    pub egd_time_ns: u128,
    /// Wall time spent searching/applying tgds.
    pub tgd_time_ns: u128,
    /// Wall time for the whole run.
    pub total_time_ns: u128,
}

impl ChaseStats {
    /// Internal consistency invariants; CI fails a bench smoke run on a
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.triggers_fired > self.triggers_examined {
            return Err(format!(
                "triggers fired ({}) > triggers examined ({})",
                self.triggers_fired, self.triggers_examined
            ));
        }
        if self.tgd_steps != self.triggers_fired {
            return Err(format!(
                "tgd steps ({}) != triggers fired ({})",
                self.tgd_steps, self.triggers_fired
            ));
        }
        if self.max_round_delta_rows > self.delta_rows_processed {
            return Err(format!(
                "max round delta ({}) > total delta rows processed ({})",
                self.max_round_delta_rows, self.delta_rows_processed
            ));
        }
        if self.egd_time_ns + self.tgd_time_ns > self.total_time_ns {
            return Err(format!(
                "phase times ({} + {} ns) exceed total time ({} ns)",
                self.egd_time_ns, self.tgd_time_ns, self.total_time_ns
            ));
        }
        if self.atoms_inserted > self.peak_atoms {
            // Every insert raises the instance to a new size that peak
            // immediately absorbs, and peak starts at the source size.
            return Err(format!(
                "atoms inserted ({}) > peak atoms ({})",
                self.atoms_inserted, self.peak_atoms
            ));
        }
        if self.atoms_rederived > self.atoms_inserted {
            // Re-derivation inserts through the same counted path, so
            // it can never exceed the total insert count.
            return Err(format!(
                "atoms rederived ({}) > atoms inserted ({})",
                self.atoms_rederived, self.atoms_inserted
            ));
        }
        if self.rounds == 0 && self.delta_rows_processed > 0 {
            // Only semi-naive rounds process delta rows; the naive
            // drivers report 0 rounds and must report 0 delta rows.
            return Err(format!(
                "0 rounds but {} delta rows processed",
                self.delta_rows_processed
            ));
        }
        Ok(())
    }

    /// Folds another run's counters into this one. Used by `dex-cwa`'s
    /// parallel enumerator to combine per-replay stats after a fan-out
    /// join; every field merge is commutative and associative, so the
    /// aggregate is independent of worker scheduling. Counters and phase
    /// times sum. `peak_atoms` also sums: the replays ran concurrently,
    /// so the sum of per-run peaks bounds the process-wide peak and
    /// keeps `atoms_inserted <= peak_atoms` valid. `max_round_delta_rows`
    /// takes the max (it is a per-round high-water mark, not a total).
    pub fn merge(&mut self, other: &ChaseStats) {
        self.tgd_steps += other.tgd_steps;
        self.egd_steps += other.egd_steps;
        self.triggers_examined += other.triggers_examined;
        self.triggers_fired += other.triggers_fired;
        self.rounds += other.rounds;
        self.delta_rows_processed += other.delta_rows_processed;
        self.max_round_delta_rows = self.max_round_delta_rows.max(other.max_round_delta_rows);
        self.atoms_inserted += other.atoms_inserted;
        self.rows_rewritten += other.rows_rewritten;
        self.egd_rows_scanned += other.egd_rows_scanned;
        self.atoms_retracted += other.atoms_retracted;
        self.atoms_rederived += other.atoms_rederived;
        self.peak_atoms += other.peak_atoms;
        self.egd_time_ns += other.egd_time_ns;
        self.tgd_time_ns += other.tgd_time_ns;
        self.total_time_ns += other.total_time_ns;
    }

    /// The counters as a flat JSON object.
    pub fn json_value(&self) -> dex_obs::JsonValue {
        use dex_obs::JsonValue;
        JsonValue::obj()
            .with("tgd_steps", JsonValue::uint(self.tgd_steps as u64))
            .with("egd_steps", JsonValue::uint(self.egd_steps as u64))
            .with(
                "triggers_examined",
                JsonValue::uint(self.triggers_examined as u64),
            )
            .with(
                "triggers_fired",
                JsonValue::uint(self.triggers_fired as u64),
            )
            .with("rounds", JsonValue::uint(self.rounds as u64))
            .with(
                "delta_rows_processed",
                JsonValue::uint(self.delta_rows_processed as u64),
            )
            .with(
                "max_round_delta_rows",
                JsonValue::uint(self.max_round_delta_rows as u64),
            )
            .with(
                "atoms_inserted",
                JsonValue::uint(self.atoms_inserted as u64),
            )
            .with(
                "rows_rewritten",
                JsonValue::uint(self.rows_rewritten as u64),
            )
            .with(
                "egd_rows_scanned",
                JsonValue::uint(self.egd_rows_scanned as u64),
            )
            .with(
                "atoms_retracted",
                JsonValue::uint(self.atoms_retracted as u64),
            )
            .with(
                "atoms_rederived",
                JsonValue::uint(self.atoms_rederived as u64),
            )
            .with("peak_atoms", JsonValue::uint(self.peak_atoms as u64))
            .with("egd_time_ns", JsonValue::UInt(self.egd_time_ns))
            .with("tgd_time_ns", JsonValue::UInt(self.tgd_time_ns))
            .with("total_time_ns", JsonValue::UInt(self.total_time_ns))
    }

    /// [`ChaseStats::json_value`] serialised (the shape `BENCH_chase.json`
    /// embeds).
    pub fn to_json(&self) -> String {
        self.json_value().dump()
    }

    /// Exports the counters as a view into a metrics registry under
    /// `prefix` (e.g. `prefix = "chase"` yields `chase.rounds`), with
    /// phase times recorded into log₂ latency histograms.
    pub fn export_metrics(&self, registry: &mut dex_obs::MetricsRegistry, prefix: &str) {
        let counters: [(&str, usize); 12] = [
            ("tgd_steps", self.tgd_steps),
            ("egd_steps", self.egd_steps),
            ("triggers_examined", self.triggers_examined),
            ("triggers_fired", self.triggers_fired),
            ("rounds", self.rounds),
            ("delta_rows_processed", self.delta_rows_processed),
            ("max_round_delta_rows", self.max_round_delta_rows),
            ("atoms_inserted", self.atoms_inserted),
            ("rows_rewritten", self.rows_rewritten),
            ("egd_rows_scanned", self.egd_rows_scanned),
            ("atoms_retracted", self.atoms_retracted),
            ("atoms_rederived", self.atoms_rederived),
        ];
        for (name, v) in counters {
            registry.inc(&format!("{prefix}.{name}"), v as u128);
        }
        registry.set_gauge(&format!("{prefix}.peak_atoms"), self.peak_atoms as i128);
        registry.observe(
            &format!("{prefix}.egd_time_ns"),
            u64::try_from(self.egd_time_ns).unwrap_or(u64::MAX),
        );
        registry.observe(
            &format!("{prefix}.tgd_time_ns"),
            u64::try_from(self.tgd_time_ns).unwrap_or(u64::MAX),
        );
        registry.observe(
            &format!("{prefix}.total_time_ns"),
            u64::try_from(self.total_time_ns).unwrap_or(u64::MAX),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_validate() {
        assert!(ChaseStats::default().validate().is_ok());
    }

    #[test]
    fn fired_beyond_examined_is_invalid() {
        let s = ChaseStats {
            triggers_examined: 1,
            triggers_fired: 2,
            tgd_steps: 2,
            ..Default::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn phase_times_beyond_total_are_invalid() {
        let s = ChaseStats {
            egd_time_ns: 5,
            tgd_time_ns: 6,
            total_time_ns: 10,
            ..Default::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn inserted_beyond_peak_is_invalid() {
        let s = ChaseStats {
            atoms_inserted: 5,
            peak_atoms: 4,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let ok = ChaseStats {
            atoms_inserted: 4,
            peak_atoms: 4,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn rederived_beyond_inserted_is_invalid() {
        let s = ChaseStats {
            atoms_rederived: 3,
            atoms_inserted: 2,
            peak_atoms: 2,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let ok = ChaseStats {
            atoms_rederived: 2,
            atoms_inserted: 2,
            peak_atoms: 2,
            atoms_retracted: 7,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn delta_rows_without_rounds_is_invalid() {
        let s = ChaseStats {
            rounds: 0,
            delta_rows_processed: 3,
            max_round_delta_rows: 3,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let ok = ChaseStats {
            rounds: 1,
            delta_rows_processed: 3,
            max_round_delta_rows: 3,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn merge_preserves_validity_and_is_order_independent() {
        let a = ChaseStats {
            tgd_steps: 3,
            triggers_fired: 3,
            triggers_examined: 7,
            rounds: 2,
            delta_rows_processed: 10,
            max_round_delta_rows: 6,
            atoms_inserted: 3,
            peak_atoms: 12,
            egd_time_ns: 5,
            tgd_time_ns: 7,
            total_time_ns: 20,
            ..Default::default()
        };
        let b = ChaseStats {
            tgd_steps: 1,
            triggers_fired: 1,
            triggers_examined: 4,
            egd_steps: 2,
            rounds: 1,
            delta_rows_processed: 4,
            max_round_delta_rows: 4,
            atoms_inserted: 1,
            rows_rewritten: 2,
            peak_atoms: 5,
            egd_time_ns: 1,
            tgd_time_ns: 2,
            total_time_ns: 9,
            ..Default::default()
        };
        assert!(a.validate().is_ok() && b.validate().is_ok());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert!(ab.validate().is_ok());
        assert_eq!(ab.tgd_steps, 4);
        assert_eq!(ab.rounds, 3);
        assert_eq!(ab.max_round_delta_rows, 6); // max, not sum
        assert_eq!(ab.peak_atoms, 17); // sum: replays run concurrently
        assert_eq!(ab.total_time_ns, 29);
        // Merging the default is the identity.
        let mut id = a.clone();
        id.merge(&ChaseStats::default());
        assert_eq!(id, a);
    }

    #[test]
    fn json_value_parses_and_matches_dump() {
        let s = ChaseStats {
            tgd_steps: 2,
            triggers_fired: 2,
            triggers_examined: 3,
            peak_atoms: 9,
            atoms_inserted: 4,
            total_time_ns: u128::from(u64::MAX) + 7,
            ..Default::default()
        };
        let parsed = dex_obs::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s.json_value());
        // u128 counters survive without rounding through f64.
        assert_eq!(
            parsed.get("total_time_ns").unwrap().as_u128(),
            Some(u128::from(u64::MAX) + 7)
        );
    }

    #[test]
    fn export_metrics_views_the_counters() {
        let s = ChaseStats {
            tgd_steps: 2,
            triggers_fired: 2,
            triggers_examined: 3,
            rounds: 1,
            peak_atoms: 9,
            atoms_inserted: 4,
            total_time_ns: 1000,
            ..Default::default()
        };
        let mut reg = dex_obs::MetricsRegistry::new();
        s.export_metrics(&mut reg, "chase");
        assert_eq!(reg.counter("chase.triggers_examined"), 3);
        assert_eq!(reg.gauge("chase.peak_atoms"), Some(9));
        assert_eq!(reg.histogram("chase.total_time_ns").unwrap().count(), 1);
    }

    #[test]
    fn json_is_flat_and_complete() {
        let s = ChaseStats {
            tgd_steps: 3,
            triggers_fired: 3,
            triggers_examined: 7,
            total_time_ns: 123,
            ..Default::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "tgd_steps",
            "egd_steps",
            "triggers_examined",
            "triggers_fired",
            "rounds",
            "delta_rows_processed",
            "max_round_delta_rows",
            "atoms_inserted",
            "rows_rewritten",
            "egd_rows_scanned",
            "atoms_retracted",
            "atoms_rederived",
            "peak_atoms",
            "egd_time_ns",
            "tgd_time_ns",
            "total_time_ns",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(j.contains("\"triggers_examined\":7"));
    }
}
