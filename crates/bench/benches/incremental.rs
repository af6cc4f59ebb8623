//! Incremental-exchange benchmarks (EXPERIMENTS.md E-inc): resume-vs-
//! re-chase on seeded update batches of 0.1%, 1% and 10% of the source,
//! over the layered tgd-tower family and the keyed (surrogate-key egd)
//! mapping family.
//!
//! `cargo bench -p dex-bench --bench incremental`; `DEX_BENCH_SMOKE=1`
//! switches to tiny sizes. Every run dumps `BENCH_inc.json` at the
//! workspace root. Full runs (not smoke) assert the ISSUE 10 perf gate:
//! resume is at least 10x faster than re-chase at 1% batches on both
//! families.

use dex_chase::{ChaseBudget, ChaseEngine};
use dex_core::{core, isomorphic};
use dex_datagen::{
    layered_setting, mapping_scenario, random_source, update_stream, LayeredConfig, ScenarioConfig,
    SourceConfig, UpdateStreamConfig,
};
use dex_logic::Setting;
use dex_obs::JsonValue;
use dex_testkit::bench::{smoke, Harness, Measurement};

/// One resume-vs-re-chase comparison row for `BENCH_inc.json`.
struct IncRow {
    bench: String,
    rate: f64,
    batch: usize,
    source_atoms: usize,
    target_atoms: usize,
    resume_median_ns: u128,
    rechase_median_ns: u128,
    atoms_retracted: usize,
    atoms_rederived: usize,
}

/// The batch rate at which resume must beat re-chase by [`GATE_SPEEDUP`].
const GATE_RATE: f64 = 0.01;
const GATE_SPEEDUP: f64 = 10.0;

impl IncRow {
    /// `Some(met)` on the rows the speedup gate judges.
    fn gate_met(&self) -> Option<bool> {
        (self.rate == GATE_RATE).then(|| self.speedup() >= GATE_SPEEDUP)
    }

    fn speedup(&self) -> f64 {
        if self.resume_median_ns == 0 {
            return f64::INFINITY;
        }
        self.rechase_median_ns as f64 / self.resume_median_ns as f64
    }
}

/// (name, setting, constant-pool size, tuples per source relation).
/// The layered family is a single-relation-per-layer tower (chains never
/// dead-end on an unpopulated relation) over a deliberately *dense*
/// source (tuples ≫ constants): the boundary self-joins then have real
/// fan-out, so re-chase pays superlinear work while resume only walks
/// the delta's cone.
fn families() -> Vec<(&'static str, Setting, usize, usize)> {
    let (layered_nc, layered_nt, keyed_n) = if smoke() { (6, 24, 16) } else { (16, 256, 128) };
    vec![
        (
            "layered",
            layered_setting(&LayeredConfig {
                with_egds: false,
                layers: 5,
                rels_per_layer: 1,
                up_tgds_per_layer: 1,
                join_tgds_per_layer: 2,
                seed: 5,
                ..LayeredConfig::default()
            }),
            layered_nc,
            layered_nt,
        ),
        (
            "keyed",
            mapping_scenario(&ScenarioConfig {
                copies: 2,
                partitions: 2,
                surrogates: 3,
                seed: 5,
            }),
            keyed_n,
            keyed_n,
        ),
    ]
}

fn bench_family(
    h: &mut Harness,
    name: &str,
    setting: &Setting,
    num_constants: usize,
    tuples: usize,
) -> Vec<IncRow> {
    let budget = ChaseBudget::default();
    let engine = ChaseEngine::new(setting, &budget).with_provenance(true);
    let base = random_source(
        &setting.source,
        &SourceConfig {
            num_constants,
            tuples_per_relation: tuples,
            seed: 5,
        },
    );
    let prior = engine.run(&base).unwrap();
    let mut rows = Vec::new();
    for rate in [0.001, 0.01, 0.10] {
        let delta = update_stream(
            &setting.source,
            &base,
            &UpdateStreamConfig {
                steps: 1,
                insert_rate: rate,
                delete_rate: rate,
                num_constants,
                seed: 5,
            },
        )
        .swap_remove(0);
        let updated = delta.applied(&base);
        let tag = format!("{name}/{rate}");
        h.bench(&format!("resume/{tag}"), || {
            engine.resume(&prior, &delta).unwrap();
        });
        h.bench(&format!("rechase/{tag}"), || {
            engine.run(&updated).unwrap();
        });
        let (resume_ns, rechase_ns) = {
            let r = h.results();
            (r[r.len() - 2].median_ns(), r[r.len() - 1].median_ns())
        };
        // Correctness spot-check rides along: what we timed must be a
        // valid solution for the updated source. Restricted-chase
        // firing order is not confluent once full join tgds race
        // existential witnesses (whichever fires first suppresses or
        // multiplies fresh nulls), so at these sizes resume can
        // legitimately land on a *smaller*, homomorphically equivalent
        // target than a fresh re-chase. Homomorphically equivalent
        // instances have isomorphic cores, so the cores must agree.
        let resumed = engine.resume(&prior, &delta).unwrap();
        let rechased = engine.run(&updated).unwrap();
        assert!(
            setting.is_solution(&updated, &resumed.target),
            "{tag}: resumed target is not a solution for the updated source"
        );
        assert!(
            isomorphic(&core(&resumed.target), &core(&rechased.target)),
            "{tag}: core of the resumed target is not isomorphic to the re-chase's"
        );
        resumed.stats.validate().unwrap();
        rows.push(IncRow {
            bench: tag,
            rate,
            batch: delta.len(),
            source_atoms: base.len(),
            target_atoms: rechased.target.len(),
            resume_median_ns: resume_ns,
            rechase_median_ns: rechase_ns,
            atoms_retracted: resumed.stats.atoms_retracted,
            atoms_rederived: resumed.stats.atoms_rederived,
        });
    }
    rows
}

fn measurement_json(m: &Measurement) -> JsonValue {
    JsonValue::obj()
        .with("name", JsonValue::str(m.name.clone()))
        .with("median_ns", JsonValue::UInt(m.median_ns()))
        .with(
            "p95_ns",
            m.p95_ns_checked().map_or(JsonValue::Null, JsonValue::UInt),
        )
        .with("runs", JsonValue::uint(m.samples_ns.len() as u64))
}

fn dump_json(measurements: &[Measurement], rows: &[IncRow], gate_armed: bool) {
    let doc = JsonValue::obj()
        .with("group", JsonValue::str("incremental"))
        .with("gate_armed", JsonValue::Bool(gate_armed))
        .with(
            "benches",
            JsonValue::Arr(measurements.iter().map(measurement_json).collect()),
        )
        .with(
            "resume_vs_rechase",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .with("bench", JsonValue::str(r.bench.clone()))
                            .with("rate", JsonValue::Float(r.rate))
                            .with("batch", JsonValue::uint(r.batch as u64))
                            .with("source_atoms", JsonValue::uint(r.source_atoms as u64))
                            .with("target_atoms", JsonValue::uint(r.target_atoms as u64))
                            .with("resume_median_ns", JsonValue::UInt(r.resume_median_ns))
                            .with("rechase_median_ns", JsonValue::UInt(r.rechase_median_ns))
                            .with("speedup", JsonValue::Float(r.speedup()))
                            .with("atoms_retracted", JsonValue::uint(r.atoms_retracted as u64))
                            .with("atoms_rederived", JsonValue::uint(r.atoms_rederived as u64))
                            .with(
                                "gate_met",
                                r.gate_met().map_or(JsonValue::Null, JsonValue::Bool),
                            )
                    })
                    .collect(),
            ),
        );
    let out = doc.pretty() + "\n";
    dex_obs::parse(&out).expect("BENCH_inc.json must be valid JSON");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = dex_testkit::bench::bench_out_path(&root, "BENCH_inc.json");
    std::fs::write(&path, out).expect("write BENCH_inc.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut h = Harness::new("incremental");
    let mut rows = Vec::new();
    for (name, setting, nc, nt) in families() {
        rows.extend(bench_family(&mut h, name, &setting, nc, nt));
    }
    for r in &rows {
        println!(
            "incremental {}: resume {}ns vs rechase {}ns — {:.1}x \
             (batch {}, retracted {}, re-derived {})",
            r.bench,
            r.resume_median_ns,
            r.rechase_median_ns,
            r.speedup(),
            r.batch,
            r.atoms_retracted,
            r.atoms_rederived
        );
    }
    // The resume-vs-re-chase gate arms on full runs only: the smoke
    // sizes are too tiny for the ratio to be meaningful. The rows, and
    // whether each gated row met the gate, are written before the gate
    // is checked, so a failing gate still leaves its measurements behind.
    let gate_armed = !smoke();
    let measurements = h.results().to_vec();
    dump_json(&measurements, &rows, gate_armed);
    if gate_armed {
        for r in &rows {
            assert!(
                r.gate_met() != Some(false),
                "perf gate: {} resumed only {:.1}x faster than re-chase (need {GATE_SPEEDUP}x)",
                r.bench,
                r.speedup()
            );
        }
    }
    h.finish();
}
