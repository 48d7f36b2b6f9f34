//! Closed-loop control-round benchmark for the PREPARE reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>] [--reps <n>]
//! ```
//!
//! Each repetition builds a seeded fleet, warms the controller up until
//! its first `ModelsTrained` round (the timed set-up) and drives the
//! workload's fixed number of timed control rounds. A run makes
//! [`REPS`] repetitions (`--reps` overrides). The run length is fixed by
//! the workload, not by `--seconds`, which is accepted for the
//! benchmark's command-line interface only: the round counts are sized
//! so the timed rounds of a run take about ten seconds on a 2-core host.
//! Prints a human-readable report
//! and, as its last line, `PERFBENCH <json>` with the environment, the
//! per-run digests, the check tally and every metric. `perfbench/run.py`
//! turns that into the benchmark's result line.

#![forbid(unsafe_code)]

mod clock;
mod fleet;
mod gen;
mod stats;
mod trace;

use clock::Clock;
use fleet::{event_digest, Class, Fleet, Measure, RoundRecord};
use prepare_core::{ControllerEvent, PrepareConfig};
use prepare_metrics::json::JsonValue;
use prepare_metrics::Timestamp;
use trace::Tracer;

/// Repetitions per run, each a set-up plus a timed region; `setup_s` is
/// the median set-up.
const REPS: usize = 3;

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Command-line options.
struct Args {
    workload: gen::Workload,
    seed: u64,
    trace: bool,
    spans: Option<String>,
    reps: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut spans = None;
    let mut reps = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(gen::workload(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value == "1",
            "--spans" => spans = Some(value),
            "--reps" => reps = Some(value.parse().map_err(|e| format!("--reps: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
        spans,
        reps,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, where it is a statistic.
    n: Option<usize>,
    /// Extra detail (the tail's percentile).
    note: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
        note: None,
    }
}

/// A count metric.
fn count(name: &'static str, value: f64) -> Metric {
    metric(name, value, "count", None)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Wall times of the rounds of one class.
fn class_ms(rounds: &[RoundRecord], class: Class) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.class == class)
        .map(|r| r.ms)
        .collect()
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Event counts of the timed region.
#[derive(Default)]
struct Counts {
    raised: u64,
    confirmed: u64,
    issued: u64,
    failed: u64,
    retried: u64,
    rolled_back: u64,
    abandoned: u64,
    degraded: u64,
    validated_ok: u64,
    validated_bad: u64,
}

fn count_events(events: &[ControllerEvent], from: Timestamp) -> Counts {
    let mut c = Counts::default();
    for e in events.iter().filter(|e| e.time() >= from) {
        let slot = match e {
            ControllerEvent::AlertRaised { .. } => &mut c.raised,
            ControllerEvent::AlertConfirmed { .. } => &mut c.confirmed,
            ControllerEvent::ActionIssued { .. } => &mut c.issued,
            ControllerEvent::ActionFailed { .. } => &mut c.failed,
            ControllerEvent::ActionRetried { .. } => &mut c.retried,
            ControllerEvent::ActionRolledBack { .. } => &mut c.rolled_back,
            ControllerEvent::ActionAbandoned { .. } => &mut c.abandoned,
            ControllerEvent::MonitoringDegraded { .. } => &mut c.degraded,
            ControllerEvent::ValidationSucceeded { .. } => &mut c.validated_ok,
            ControllerEvent::ValidationIneffective { .. } => &mut c.validated_bad,
            ControllerEvent::ModelsTrained { .. }
            | ControllerEvent::WorkloadChangeInferred { .. }
            | ControllerEvent::ReactiveTriggered { .. }
            | ControllerEvent::MonitoringRecovered { .. }
            | ControllerEvent::ControllerCrashed { .. }
            | ControllerEvent::CheckpointTaken { .. }
            | ControllerEvent::JournalTruncated { .. }
            | ControllerEvent::RecoveryCompleted { .. } => continue,
        };
        *slot += 1;
    }
    c
}

/// Per-layer metrics that only spans can give.
struct SpanMetrics {
    step_ms: Vec<f64>,
    sample_ms: Vec<f64>,
    loop_self_ms: Vec<f64>,
    core_ms: f64,
}

/// Folds the timed rounds' spans into per-round layer times.
fn span_metrics(tracer: &Tracer, first_timed: u64) -> SpanMetrics {
    let spans = tracer.spans();
    let self_ms = tracer.self_times();
    let mut out = SpanMetrics {
        step_ms: Vec::new(),
        sample_ms: Vec::new(),
        loop_self_ms: Vec::new(),
        core_ms: 0.0,
    };
    // Rounds are recorded in order, so per-round sums close when the
    // next round's root span opens.
    let mut step = 0.0;
    let mut in_round = false;
    for (s, own) in spans.iter().zip(self_ms) {
        if s.round < first_timed {
            continue;
        }
        match s.name {
            "loop.round" => {
                if in_round {
                    out.step_ms.push(step);
                }
                step = 0.0;
                in_round = true;
                out.loop_self_ms.push(own);
            }
            "cloudsim.step" => step += s.ms(),
            "cloudsim.sample" => out.sample_ms.push(s.ms()),
            "core.round" => out.core_ms += s.ms(),
            _ => {}
        }
    }
    if in_round {
        out.step_ms.push(step);
    }
    out
}

/// A JSON number; non-finite values become `null`.
fn json_num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Number(v)
    } else {
        JsonValue::Null
    }
}

/// A JSON object from string keys.
fn json_obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let w = args.workload;
    let rounds = w.rounds_per_rep;
    let reps = args.reps.map_or(REPS, |r| r.max(1));
    let clock = Clock::start();
    let mut tracer = Tracer::new(args.trace);
    let mut measure = Measure::default();

    // Repetitions: each builds a fresh fleet and controller from the
    // seed, warms it up (the timed set-up) and drives the timed rounds.
    // Every repetition is fed the same inputs, so each must make the
    // same decisions. Round samples are pooled; the tail and the
    // throughput are taken per repetition and their median reported, so
    // one repetition hit by a slow spell of a shared host cannot move
    // them.
    let mut setup_s = Vec::new();
    let mut rep_tails = Vec::new();
    let mut slow_rounds = 0;
    let mut rep_throughput = Vec::new();
    let mut rep_digests = Vec::new();
    let mut fleet: Option<Fleet> = None;
    let mut first_timed = 0;
    for rep in 0..reps {
        drop(fleet.take());
        tracer.set_rep(rep);
        let s0 = clock.now_ms();
        let mut f = Fleet::setup(w, args.seed, &clock, &mut tracer, &mut measure)?;
        setup_s.push((clock.now_ms() - s0) / 1000.0);
        first_timed = f.round();
        f.start_timed(rounds);
        let (r0, busy0, samples0) = (
            measure.rounds.len(),
            measure.loop_ms - measure.checks_ms,
            measure.vm_samples,
        );
        for _ in 0..rounds {
            f.timed_round(&clock, &mut tracer, &mut measure);
        }
        let rep_ms: Vec<f64> = measure.rounds.iter().skip(r0).map(|r| r.ms).collect();
        slow_rounds = measure
            .rounds
            .iter()
            .skip(r0)
            .filter(|r| matches!(r.class, Class::Train | Class::Seal))
            .count();
        rep_tails.push(stats::tail(&rep_ms, TAIL_MIN_BEYOND));
        let busy_s = (measure.loop_ms - measure.checks_ms - busy0) / 1000.0;
        rep_throughput.push(ratio((measure.vm_samples - samples0) as f64, busy_s));
        let mut actions = gen::Digest::default();
        for a in f.cluster().actions() {
            actions.text(&format!("{a:?}"));
        }
        rep_digests.push((
            f.input_digest(),
            event_digest(f.controller().events()),
            actions.value(),
            f.violated_secs(),
        ));
        fleet = Some(f);
    }
    let fleet = fleet.ok_or("no repetition ran")?;
    let first_rep = rep_digests.first().copied();
    measure.check(rep_digests.iter().all(|d| Some(*d) == first_rep), || {
        format!("repetitions diverged: {rep_digests:x?}")
    });
    let timed_from = Timestamp::from_secs(first_timed * gen::SAMPLING_SECS);
    let peak_rss = peak_rss_mb();
    measure.check(peak_rss.is_some(), || "VmHWM unreadable".into());

    // Output checks on the final state, outside the timed region.
    let events = fleet.controller().events();
    let properties = prepare_tlc::properties::standard_properties();
    for p in &properties {
        let violations = prepare_tlc::check_all(std::slice::from_ref(p), events);
        measure.check(violations.is_empty(), || {
            format!("temporal property violated: {}", violations.len())
        });
    }
    let recovers = measure.recover_ms.len();
    // Only a full run reports the recovery median; a run with fewer
    // repetitions (the single-worker baseline) has fewer crashes.
    if w.chaos.is_some() && args.reps.is_none() {
        measure.check(recovers >= 2 * TAIL_MIN_BEYOND, || {
            format!("only {recovers} recoveries; the median needs ten beyond it")
        });
    }
    let round_ms: Vec<f64> = measure.rounds.iter().map(|r| r.ms).collect();
    let tails: Vec<stats::Tail> = rep_tails.iter().flatten().copied().collect();
    measure.check(tails.len() == reps, || "too few rounds for a tail".into());
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let tail = tails.first().copied();

    let (input_digest, event_log_digest, action_digest, _) = first_rep.unwrap_or_default();
    let model_fingerprint = fleet.controller().model_fingerprint();

    // Metrics.
    let med = |v: &[f64]| prepare_metrics::percentile(v, 50.0);
    let loop_s = (measure.loop_ms - measure.checks_ms) / 1000.0;
    let predict = class_ms(&measure.rounds, Class::Predict);
    let seal = class_ms(&measure.rounds, Class::Seal);
    let actuate = class_ms(&measure.rounds, Class::Actuate);
    let mut train = class_ms(&measure.setup_rounds, Class::Train);
    train.extend(class_ms(&measure.rounds, Class::Train));
    let cold = class_ms(&measure.setup_rounds, Class::Cold);
    let counts = count_events(events, timed_from);
    let chaos = fleet.chaos_stats();
    let predictors = fleet.predictors();
    let attempted = measure.attempted;
    let failed = measure.failures.len() as u64;
    let mut metrics = vec![
        metric("setup_s", med(&setup_s), "s", Some(setup_s.len())),
        metric("round_p50_ms", med(&round_ms), "ms", Some(round_ms.len())),
        Metric {
            note: tail.map(|t| format!("{} per repetition, median of {reps}", t.label())),
            ..metric("round_tail_ms", med(&tail_ms), "ms", tail.map(|t| t.n))
        },
        metric(
            "vm_samples_per_s",
            med(&rep_throughput),
            "1/s",
            Some(rep_throughput.len()),
        ),
        metric("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB", None),
        metric("slo_violation_s", fleet.violated_secs() as f64, "s", None),
        metric(
            "failed_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
            Some(attempted as usize),
        ),
    ];
    if w.chaos.is_some() {
        metrics.push(metric(
            "recover_p50_ms",
            med(&measure.recover_ms),
            "ms",
            Some(recovers),
        ));
        metrics.push(metric(
            "checkpoint_mb",
            fleet.checkpoint_bytes() as f64 / 1e6,
            "MB",
            None,
        ));
    }
    let predict_p50 = med(&predict);
    // Counts are per repetition (the repetitions are identical); the `n`
    // of a statistic counts the samples pooled over all repetitions.
    let per_rep = |count: usize| count as f64 / reps as f64;
    metrics.extend([
        count("cloudsim.actions", fleet.cluster().actions().len() as f64),
        count("cloudsim.chaos_dropped", chaos.dropped as f64),
        count("cloudsim.chaos_delayed", chaos.delayed as f64),
        count("cloudsim.chaos_busy_ticks", chaos.busy_ticks as f64),
        count("cloudsim.chaos_crashes", chaos.controller_crashes as f64),
        metric("core.cold_round_p50_ms", med(&cold), "ms", Some(cold.len())),
        metric(
            "core.predict_round_p50_ms",
            predict_p50,
            "ms",
            Some(predict.len()),
        ),
        metric(
            "core.predict_round_p99_ms",
            prepare_metrics::percentile(&predict, 99.0),
            "ms",
            Some(predict.len()),
        ),
        metric("core.train_round_ms", med(&train), "ms", Some(train.len())),
        count("core.train_rounds", per_rep(train.len())),
        metric(
            "core.actuate_round_p50_ms",
            med(&actuate),
            "ms",
            Some(actuate.len()),
        ),
        count("core.actuate_rounds", per_rep(actuate.len())),
        count("core.predictors", predictors as f64),
        count("core.alerts_raised", counts.raised as f64),
        count("core.alerts_confirmed", counts.confirmed as f64),
        count("core.actions_issued", counts.issued as f64),
        count("core.actions_failed", counts.failed as f64),
        count("core.actions_retried", counts.retried as f64),
        count("core.actions_rolled_back", counts.rolled_back as f64),
        count("core.actions_abandoned", counts.abandoned as f64),
        count("core.degraded_events", counts.degraded as f64),
        metric(
            "core.alert_confirm_ratio",
            ratio(counts.confirmed as f64, counts.raised as f64),
            "ratio",
            Some(counts.raised as usize),
        ),
        metric(
            "core.action_effective_ratio",
            ratio(
                counts.validated_ok as f64,
                (counts.validated_ok + counts.validated_bad) as f64,
            ),
            "ratio",
            Some((counts.validated_ok + counts.validated_bad) as usize),
        ),
        metric(
            "recovery.seal_round_p50_ms",
            med(&seal),
            "ms",
            Some(seal.len()),
        ),
        metric(
            "recovery.seal_overhead_ms",
            if seal.is_empty() {
                0.0
            } else {
                med(&seal) - predict_p50
            },
            "ms",
            Some(seal.len()),
        ),
        count("recovery.seals", per_rep(seal.len())),
        metric(
            "recovery.checkpoint_bytes",
            fleet.checkpoint_bytes() as f64,
            "bytes",
            None,
        ),
        metric(
            "recovery.journal_bytes_per_record",
            ratio(measure.journal_bytes as f64, measure.replayed as f64),
            "bytes",
            Some(measure.replayed as usize),
        ),
        metric(
            "recovery.crash_image_ms",
            med(&measure.crash_image_ms),
            "ms",
            Some(recovers),
        ),
        metric(
            "recovery.recover_ms",
            med(&measure.recover_ms),
            "ms",
            Some(recovers),
        ),
        count(
            "recovery.replayed_records",
            per_rep(measure.replayed as usize),
        ),
        count("recovery.recovers", per_rep(recovers)),
        count("par.workers", fleet.workers() as f64),
    ]);
    if args.trace {
        let s = span_metrics(&tracer, first_timed);
        metrics.extend([
            metric(
                "cloudsim.step_ms",
                med(&s.step_ms),
                "ms",
                Some(s.step_ms.len()),
            ),
            metric(
                "cloudsim.sample_ms",
                med(&s.sample_ms),
                "ms",
                Some(s.sample_ms.len()),
            ),
            metric(
                "core.busy_share",
                ratio(s.core_ms / 1000.0, loop_s),
                "ratio",
                None,
            ),
            metric(
                "bench.loop_self_ms",
                med(&s.loop_self_ms),
                "ms",
                Some(s.loop_self_ms.len()),
            ),
        ]);
        if let Some(path) = &args.spans {
            let jsonl = tracer.to_jsonl().map_err(|e| format!("spans: {e}"))?;
            std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
        }
    }

    // Report.
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let online = PrepareConfig::default().online_training;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench {} seed={} vms={} reps={reps} rounds_per_rep={rounds} trace={}",
        w.name,
        args.seed,
        fleet.vms(),
        u8::from(args.trace)
    );
    println!(
        "environment: available_parallelism={available} workers={} online_training={online} \
         profile={profile}",
        fleet.workers()
    );
    println!(
        "digests: inputs={:016x} events={event_log_digest:016x} model={model_fingerprint:016x} \
         actions={:016x}",
        input_digest, action_digest
    );
    for m in &metrics {
        let n = m.n.map_or(String::new(), |n| format!(" n={n}"));
        let note = m.note.as_ref().map_or(String::new(), |s| format!(" ({s})"));
        println!("  {:<36} {:>16.6} {}{n}{note}", m.name, m.value, m.unit);
    }
    // The tail must not sit where the slow round classes (train, seal)
    // give way to the rest: report how far it is from that boundary.
    if let Some(t) = tail {
        println!(
            "tail: {} of {} rounds per repetition, {} beyond it; train and seal rounds per \
             repetition: {slow_rounds} (margin {})",
            t.label(),
            t.n,
            t.beyond,
            slow_rounds.abs_diff(t.beyond + 1)
        );
    }
    println!("checks: attempted={attempted} failed={failed}");
    for f in &measure.failures {
        println!("  FAILED: {f}");
    }

    let text = |v: &str| JsonValue::String(v.to_string());
    let hex = |v: u64| JsonValue::String(format!("{v:016x}"));
    let env = json_obj([
        ("workload", text(w.name)),
        ("seed", json_num(args.seed as f64)),
        ("vms", json_num(fleet.vms() as f64)),
        ("reps", json_num(reps as f64)),
        ("timed_rounds", json_num((rounds * reps as u64) as f64)),
        ("available_parallelism", json_num(available as f64)),
        ("workers", json_num(fleet.workers() as f64)),
        ("online_training", JsonValue::Bool(online)),
        ("profile", text(profile)),
        ("trace", JsonValue::Bool(args.trace)),
    ]);
    let digests = json_obj([
        ("inputs", hex(input_digest)),
        ("events", hex(event_log_digest)),
        ("model", hex(model_fingerprint)),
        ("actions", hex(action_digest)),
    ]);
    let metrics = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), json_num(m.value)),
                ("unit".to_string(), text(m.unit)),
            ];
            if let Some(n) = m.n {
                fields.push(("n".to_string(), json_num(n as f64)));
            }
            if let Some(note) = &m.note {
                fields.push(("percentile".to_string(), text(note)));
            }
            (m.name.to_string(), JsonValue::Object(fields))
        })
        .collect();
    let json = json_obj([
        ("env", env),
        ("digests", digests),
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", json_num(attempted as f64)),
        ("failed", json_num(failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .to_string()
    .map_err(|e| format!("result: {e}"))?;
    println!("PERFBENCH {json}");
    Ok(failed == 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
