//! Scaling benchmark for the deterministic parallel per-VM engine:
//! trains and queries per-VM anomaly predictors for 64/256/1024-VM
//! fleets at 1/2/4/8 workers, and emits `BENCH_scaling.json`.
//!
//! Two hot paths are measured, mirroring what `PrepareController` shards
//! in production: per-VM model training (discretizer fit + 13 Markov
//! chains + TAN) and per-VM look-ahead prediction. The engine guarantees
//! bit-identical results at every worker count — this binary re-verifies
//! that on the fly and refuses to report numbers for diverging runs.
//!
//! Speedup is hardware-bound: on a single-core container every worker
//! count serializes onto one CPU and the sharded runs only add thread
//! overhead. `hardware_workers` in the JSON records the machine's
//! available parallelism so readers can judge the speedup column.
//!
//! Every timed section runs best-of-N ([`TRIALS`]) after untimed warmup,
//! the same discipline as the `hotpath` bench: a one-shot measurement on
//! a shared machine regularly showed noise-driven "slowdowns" between
//! worker counts that vanish under the minimum. The predict leg times the
//! steady-state scoring round (transition snapshots already built); the
//! per-tick rebuild cost after an `observe` is what `hotpath` measures.

#![forbid(unsafe_code)]

use prepare_anomaly::{AnomalyPredictor, FleetTrainer, Prediction, PredictorConfig};
use prepare_bench::harness::{measured_ms, write_bench_json};
use prepare_cloudsim::{FleetSim, FleetSpec, TickMode};
use prepare_metrics::{
    AttributeKind, Duration, Label, MetricSample, MetricVector, SloLog, TimeSeries, Timestamp,
};
use prepare_par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fleet sizes swept (number of per-VM models).
const FLEETS: [usize; 3] = [64, 256, 1024];

/// Worker counts swept.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Samples per VM series (5 s interval → 20 simulated minutes).
const SAMPLES: u64 = 240;

/// Timed trials per cell; the best (minimum) is reported.
const TRIALS: usize = 3;

/// Simulator fleet sizes swept (number of simulated VMs).
const SIM_FLEETS: [usize; 3] = [4096, 16384, 65536];

/// Largest fleet the dense referee runs at. Above this the dense pass
/// would dominate the whole bench's wall clock, so bigger rows run the
/// sparse path only, audited for determinism against a second sparse
/// run instead of against a dense referee (the sparse-vs-dense
/// equivalence itself is established on the smaller rows and in the
/// fleet differential test suite).
const DENSE_AUDIT_MAX_VMS: usize = 16384;

/// Simulated ticks (seconds) per fleet run — 50 simulated minutes, long
/// enough that the start-up transient (every VM awake until its Load5
/// ring saturates, ~30 ticks) stops dominating the sparse path's
/// steady-state active fraction.
const SIM_TICKS: u64 = 3000;

/// Timed trials per fleet cell (each trial is a full fresh run).
const SIM_TRIALS: usize = 2;

/// One VM's training trace: a noisy baseline with a mid-run anomalous
/// window (CPU pinned), phase-shifted per VM so models differ.
fn vm_trace(vm: usize, rng: &mut StdRng) -> TimeSeries {
    let mut series = TimeSeries::new();
    let phase = vm % 7;
    for i in 0..SAMPLES {
        let t = Timestamp::from_secs(i * 5);
        let anomalous = (80..160).contains(&i);
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => {
                if anomalous {
                    88.0 + rng.gen_range(0.0..12.0)
                } else {
                    25.0 + phase as f64 + rng.gen_range(0.0..10.0)
                }
            }
            AttributeKind::Load1 => {
                if anomalous {
                    1.4 + rng.gen_range(0.0..0.4)
                } else {
                    0.3 + rng.gen_range(0.0..0.2)
                }
            }
            _ => rng.gen_range(0.0..100.0),
        });
        series.push(MetricSample::new(t, v));
    }
    series
}

/// The shared SLO timeline matching [`vm_trace`]'s anomalous window.
fn slo_log() -> SloLog {
    let mut slo = SloLog::new();
    for i in 0..SAMPLES {
        let t = Timestamp::from_secs(i * 5);
        slo.record(t, (80..160).contains(&i));
    }
    slo
}

struct Cell {
    vms: usize,
    workers: usize,
    train_ms: f64,
    online_ms: f64,
    predict_ms: f64,
}

struct FleetCell {
    vms: usize,
    ticks: u64,
    /// `None` above [`DENSE_AUDIT_MAX_VMS`]: the dense referee is gated
    /// off and the row reports the sparse path only.
    dense_ms: Option<f64>,
    sparse_ms: f64,
    active_fraction: f64,
    dense_vm_ticks_per_sec: Option<f64>,
    sparse_vm_ticks_per_sec: f64,
}

/// One timed cloudsim fleet run in the given tick mode. Every run builds
/// a fresh simulator so trials are independent; returns the trace (for
/// the bit-identity audit), the wall-clock milliseconds, and the
/// fraction of logical VM-ticks the mode actually stepped.
fn fleet_run(
    spec: &FleetSpec,
    mode: TickMode,
    par: &ParConfig,
) -> (prepare_cloudsim::FleetTrace, f64, f64) {
    let mut sim = match FleetSim::new(spec.clone()) {
        Ok(sim) => sim,
        Err(err) => {
            eprintln!("fleet spec does not fit its hosts: {err:?}");
            std::process::exit(1);
        }
    };
    let t0 = Instant::now();
    let trace = sim.run(mode, par);
    let wall_ms = measured_ms(t0);
    (trace, wall_ms, sim.active_fraction())
}

fn main() {
    let hardware_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("== Parallel engine scaling: per-VM train + predict ==");
    println!("hardware available parallelism: {hardware_workers}");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "VMs", "workers", "train (ms)", "online (ms)", "predict(ms)", "train x", "online x"
    );

    let slo = slo_log();
    let config = PredictorConfig::default();
    let mut cells: Vec<Cell> = Vec::new();

    for &n_vms in &FLEETS {
        let mut rng = StdRng::seed_from_u64(42);
        let traces: Vec<TimeSeries> = (0..n_vms).map(|vm| vm_trace(vm, &mut rng)).collect();
        let mut baseline: Option<(f64, Vec<u64>)> = None;

        // Untimed warmup: fault in the traces and warm the allocator so
        // the first timed configuration (workers = 1) is not penalized.
        let warmup =
            prepare_par::par_map(&ParConfig::serial(), traces.iter().collect(), |series| {
                AnomalyPredictor::train(series, &slo, &config).is_ok()
            });
        drop(warmup);

        // The incremental trainer's steady state (untimed setup): every
        // sample folded into the per-slot count arenas at ingest, basis
        // stable since the last refresh. A retrain round is then pure
        // derivation from the maintained statistics — the `online`
        // column times exactly that, against the full-rescan `train`
        // column at the same worker count.
        let mut trainer = FleetTrainer::new(n_vms, &config);
        for (slot, series) in traces.iter().enumerate() {
            for s in series.iter() {
                trainer.push(slot, s, Label::from_violation(slo.is_violated_at(s.time)));
            }
        }
        trainer.refresh(&ParConfig::serial());

        for &workers in &WORKERS {
            let par = ParConfig::with_workers(workers);

            // Best-of-N training: every trial refits the whole fleet; the
            // minimum discards scheduler noise. The last trial's models
            // proceed to the predict leg (all trials are bit-identical).
            let mut train_ms = f64::INFINITY;
            let mut models: Vec<AnomalyPredictor> = Vec::new();
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                let trained = prepare_par::par_map(&par, traces.iter().collect(), |series| {
                    AnomalyPredictor::train(series, &slo, &config)
                });
                let elapsed_ms = measured_ms(t0);
                match trained.into_iter().collect() {
                    Ok(fleet) => models = fleet,
                    Err(err) => {
                        eprintln!("training failed (trace should contain both classes): {err}");
                        std::process::exit(1);
                    }
                }
                train_ms = train_ms.min(elapsed_ms);
            }

            // Incremental retrain: derive the whole fleet's models from
            // the trainer's maintained arenas (refresh included — with a
            // stable basis it is a no-op scan over the dirty flags, which
            // is exactly the controller's steady-state retrain cost).
            let mut online_ms = f64::INFINITY;
            let mut derived: Vec<AnomalyPredictor> = Vec::new();
            for _ in 0..TRIALS {
                let t2 = Instant::now();
                trainer.refresh(&par);
                let out = prepare_par::par_map(&par, (0..n_vms).collect(), |slot| {
                    trainer
                        .derive(slot)
                        .expect("bench trace contains both classes") // xtask-allow: expect -- bench aborts loudly on impossible input
                });
                online_ms = online_ms.min(measured_ms(t2));
                derived = out;
            }
            // Equivalence audit: the derived models must be bit-identical
            // to the full-rescan models, or the online column is timing a
            // different computation.
            assert!(
                derived == models,
                "online-derived models diverged from full retrain at workers={workers}"
            );
            drop(derived);

            // Re-anchor each model onto the tail of its own trace, then
            // time the per-VM look-ahead scoring round (the controller's
            // per-tick hot path). One untimed pass first builds the
            // transition snapshots so every trial times the steady state.
            let mut anchored: Vec<(AnomalyPredictor, &TimeSeries)> =
                models.into_iter().zip(traces.iter()).collect();
            prepare_par::par_for_each_mut(&par, &mut anchored, |(m, series)| {
                for s in series.iter().skip(SAMPLES as usize - 20) {
                    m.observe(s);
                }
            });
            let warm = prepare_par::par_map(&par, anchored.iter().collect(), |(m, _)| {
                m.predict(Duration::from_secs(60))
            });
            drop(warm);
            let mut predict_ms = f64::INFINITY;
            let mut predictions = Vec::new();
            for _ in 0..TRIALS {
                let t1 = Instant::now();
                let preds = prepare_par::par_map(&par, anchored.iter().collect(), |(m, _)| {
                    m.predict(Duration::from_secs(60))
                });
                predict_ms = predict_ms.min(measured_ms(t1));
                predictions = preds;
            }

            // Determinism audit: every worker count must reproduce the
            // sequential run bit-for-bit. The streaming FNV fingerprint
            // replaces the old per-prediction Debug strings — no String
            // allocation on the audited predict leg.
            let fingerprint: Vec<u64> = predictions.iter().map(Prediction::fingerprint).collect();
            let base_train = match &baseline {
                None => {
                    baseline = Some((train_ms, fingerprint));
                    train_ms
                }
                Some((bt, base_fp)) => {
                    assert!(
                        fingerprint == *base_fp,
                        "predictions diverged from sequential at workers={workers}"
                    );
                    *bt
                }
            };
            println!(
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>10.2} {:>10.2}",
                n_vms,
                workers,
                train_ms,
                online_ms,
                predict_ms,
                base_train / train_ms,
                train_ms / online_ms
            );
            cells.push(Cell {
                vms: n_vms,
                workers,
                train_ms,
                online_ms,
                predict_ms,
            });
        }
    }

    // Fleet-scale simulator sweep: the same simulated fleet run dense
    // (every VM stepped every tick — the referee) and sparse (provably
    // quiescent VMs skipped, their samples backfilled in closed form).
    // The sparse trace must equal the dense trace byte for byte before
    // any number is reported; throughput is logical VM-ticks per second
    // of wall clock, so the sparse column credits skipped-but-accounted
    // VM-ticks only because the audit proves skipping changed nothing.
    println!("\n== Fleet-scale cloudsim: dense referee vs sparse event-driven ticks ==");
    println!(
        "{:>7} {:>7} {:>11} {:>11} {:>9} {:>14} {:>14}",
        "VMs", "ticks", "dense (ms)", "sparse(ms)", "active", "dense VMt/s", "sparse VMt/s"
    );
    let mut fleet_cells: Vec<FleetCell> = Vec::new();
    let fleet_par = ParConfig::with_workers(1);
    for &n_vms in &SIM_FLEETS {
        let mut spec = FleetSpec::new(n_vms, SIM_TICKS, 0xF1EE7 + n_vms as u64);
        // Mostly-quiescent composition: keep the default ~6% hot VM
        // population but shift their workload every 2 simulated minutes
        // instead of every 40 s. With 40-tick epochs a hot VM spends
        // ~25 ticks re-saturating its Load5 ring after each shift and
        // never actually goes quiet.
        spec.epoch_ticks = 120;
        let with_dense = n_vms <= DENSE_AUDIT_MAX_VMS;
        // Untimed warmup pass (also anchors the audit trace): the dense
        // referee where it runs, otherwise a sparse run — the gated rows
        // still refuse to report numbers for non-reproducing runs.
        let reference = if with_dense {
            fleet_run(&spec, TickMode::Dense, &fleet_par).0
        } else {
            fleet_run(&spec, TickMode::Sparse, &fleet_par).0
        };
        let mut dense_ms: Option<f64> = None;
        let mut sparse_ms = f64::INFINITY;
        let mut active_fraction = 1.0;
        for _ in 0..SIM_TRIALS {
            if with_dense {
                let (dense_trace, d_ms, _) = fleet_run(&spec, TickMode::Dense, &fleet_par);
                assert!(
                    dense_trace == reference,
                    "dense fleet trace diverged at vms={n_vms}"
                );
                dense_ms = Some(dense_ms.map_or(d_ms, |best: f64| best.min(d_ms)));
            }
            let (sparse_trace, s_ms, active) = fleet_run(&spec, TickMode::Sparse, &fleet_par);
            // Bit-identity audit gates every reported number.
            assert!(
                sparse_trace == reference,
                "sparse fleet trace diverged at vms={n_vms}"
            );
            sparse_ms = sparse_ms.min(s_ms);
            active_fraction = active;
        }
        let vm_ticks = (n_vms as u64 * SIM_TICKS) as f64;
        let cell = FleetCell {
            vms: n_vms,
            ticks: SIM_TICKS,
            dense_ms,
            sparse_ms,
            active_fraction,
            dense_vm_ticks_per_sec: dense_ms.map(|ms| vm_ticks / (ms / 1000.0)),
            sparse_vm_ticks_per_sec: vm_ticks / (sparse_ms / 1000.0),
        };
        let fmt_opt = |v: Option<f64>, digits: usize| match v {
            Some(v) => format!("{v:.digits$}"),
            None => "-".to_string(),
        };
        println!(
            "{:>7} {:>7} {:>11} {:>11.1} {:>9.3} {:>14} {:>14.0}",
            cell.vms,
            cell.ticks,
            fmt_opt(cell.dense_ms, 1),
            cell.sparse_ms,
            cell.active_fraction,
            fmt_opt(cell.dense_vm_ticks_per_sec, 0),
            cell.sparse_vm_ticks_per_sec,
        );
        fleet_cells.push(cell);
    }
    // The tentpole claim: on a mostly-quiescent 4096-VM fleet at one
    // worker the sparse path must be at least 3× the dense wall clock.
    if let Some(c) = fleet_cells.iter().find(|c| c.vms == 4096) {
        if let Some(dense_ms) = c.dense_ms {
            assert!(
                dense_ms >= 3.0 * c.sparse_ms,
                "sparse tick path under 3x dense at 4096 VMs: dense {:.1} ms, sparse {:.1} ms",
                dense_ms,
                c.sparse_ms
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"scaling\",\n");
    json.push_str(&format!("  \"hardware_workers\": {hardware_workers},\n"));
    json.push_str(
        "  \"note\": \"speedup is bounded by hardware_workers; identical outputs at every \
         worker count are asserted before numbers are reported; every cell is best-of-N \
         trials after untimed warmup; online_ms times an incremental retrain (derive from \
         delta-maintained count arenas, asserted bit-identical to the full rescan) and \
         online_speedup is train_ms / online_ms at the same worker count\",\n",
    );
    json.push_str(&format!("  \"trials\": {TRIALS},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let (base_train, base_predict) = cells
            .iter()
            .find(|b| b.vms == c.vms && b.workers == 1)
            .map_or((c.train_ms, c.predict_ms), |b| (b.train_ms, b.predict_ms));
        json.push_str(&format!(
            "    {{\"vms\": {}, \"workers\": {}, \"train_ms\": {:.3}, \"online_ms\": {:.3}, \
             \"predict_ms\": {:.3}, \"train_speedup\": {:.3}, \"predict_speedup\": {:.3}, \
             \"online_speedup\": {:.3}}}{}\n",
            c.vms,
            c.workers,
            c.train_ms,
            c.online_ms,
            c.predict_ms,
            base_train / c.train_ms,
            base_predict / c.predict_ms,
            c.train_ms / c.online_ms,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"fleet_note\": \"cloudsim fleet throughput in logical VM-ticks per second of wall \
         clock at one worker; the sparse event-driven path skips provably quiescent VMs and is \
         asserted byte-identical to the dense referee before numbers are reported; \
         active_fraction is the share of VM-ticks the sparse path actually stepped; rows \
         larger than dense_audit_max_vms gate the dense referee off (dense columns null) and \
         audit the sparse path against a second sparse run instead\",\n",
    );
    json.push_str(&format!(
        "  \"dense_audit_max_vms\": {DENSE_AUDIT_MAX_VMS},\n"
    ));
    json.push_str("  \"fleet\": [\n");
    let json_opt = |v: Option<f64>, digits: usize| match v {
        Some(v) => format!("{v:.digits$}"),
        None => "null".to_string(),
    };
    for (i, c) in fleet_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"vms\": {}, \"ticks\": {}, \"dense_ms\": {}, \"sparse_ms\": {:.3}, \
             \"active_fraction\": {:.4}, \"dense_vm_ticks_per_sec\": {}, \
             \"sparse_vm_ticks_per_sec\": {:.0}, \"sparse_speedup\": {}}}{}\n",
            c.vms,
            c.ticks,
            json_opt(c.dense_ms, 3),
            c.sparse_ms,
            c.active_fraction,
            json_opt(c.dense_vm_ticks_per_sec, 0),
            c.sparse_vm_ticks_per_sec,
            json_opt(c.dense_ms.map(|d| d / c.sparse_ms), 3),
            if i + 1 == fleet_cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json("BENCH_scaling.json", &json);
}
