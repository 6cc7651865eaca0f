//! `perfbench`: the open-loop serving benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload safe_churn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over loopback TCP;
//! `--trace 1` runs the per-layer ladder. Every run checks the
//! program's outputs and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod check;
mod deploy;
mod host;
mod json;
mod ladder;
mod openloop;
mod stats;
mod tcp;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use risgraph_common::metrics::{HistogramSummary, MetricValue};
use risgraph_common::Result;
use risgraph_net::NetClient;

use crate::check::Multiset;
use crate::deploy::{Deployed, Leader};
use crate::json::Obj;
use crate::stats::{median, Digest, Tally};
use crate::tcp::{OpenLoopLog, Verdict};
use crate::workload::{Deployment, Inputs, Op, Slot, Traffic, Workload};

/// Independent segments per end-to-end run, each with its own set-up.
const SEGMENTS: usize = 9;
/// Segments an end-to-end figure is the median over: those with the
/// least CPU steal, so a neighbour's burst on a shared host does not
/// read as a regression.
const KEPT: usize = 7;
/// Share of `--seconds` given to the open loop; the closed loop gets
/// the rest, as a fixed number of updates sized to take about that
/// long on a 2-vCPU host.
const OPEN_SHARE: f64 = 0.6;
/// Leading part of the open loop excluded from latency digests while
/// caches fill (its requests still count as attempted).
const WARMUP: Duration = Duration::from_secs(1);
/// How long the follower may take to catch up before the check fails.
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Metrics printed in the final JSON line of a `--trace 0` run, as
/// `BENCHMARK.json` lists them under `end_to_end`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_ops_s",
    "update_p50_us",
    "update_cpu_us",
    "peak_rss_mb",
];

/// Metrics printed in the final JSON line of a `--trace 1` run, as
/// `BENCHMARK.json` lists them under `per_layer`.
const PER_LAYER: &[&str] = &[
    "loadgen.late_p99_us",
    "loadgen.late_max_us",
    "protocol.encode_ns_p50",
    "protocol.decode_ns_p50",
    "net.overhead_p50_us",
    "net.overhead_p99_us",
    "epoch.phase.reactor_drain_ns_p99",
    "server.update_p50_us",
    "server.update_p99_us",
    "epoch.phase.safe_execute_ns_p50",
    "epoch.phase.safe_execute_ns_p99",
    "epoch.phase.barrier_wait_ns_p50",
    "epoch.phase.barrier_wait_ns_p99",
    "epoch.phase.finalize_ns_p50",
    "epoch.phase.finalize_ns_p99",
    "epoch.total_ns_p50",
    "epoch.total_ns_p99",
    "server.updates_per_epoch",
    "engine.classify_ns_p50",
    "engine.safe_apply_ns_p50",
    "engine.safe_apply_ns_p99",
    "engine.load_edges_ms",
    "engine.updates_per_s",
    "storage.insert_ns_p50",
    "storage.insert_ns_p99",
    "storage.delete_ns_p50",
    "storage.delete_ns_p99",
    "storage.scan_out_ns_p50",
    "history.get_value_ns_p50",
    "history.get_value_ns_p99",
    "history.get_modified_ns_p50",
    "history.get_modified_ns_p99",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 40.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds < 2.0 {
                    return Err("--seconds must be at least 2".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The printed result: named metrics with units, a tally and the
/// outcome of the checks.
struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
    tally: Tally,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            tally: Tally::default(),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics
            .push((name.to_string(), value, unit, note.into()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// No request failed, no check found a mismatch, and every metric
    /// in `keep` was measured.
    fn correct(&self, keep: &[&str]) -> bool {
        self.tally.failures() == 0 && keep.iter().all(|k| self.get(k).is_some_and(f64::is_finite))
    }

    /// Median and tail of a nanosecond population, in microseconds.
    fn latency(&mut self, prefix: &str, samples: Vec<u64>, tails: &[(f64, &str)]) {
        let d = Digest::new(samples);
        let n = d.count();
        if let Some(r) = d.at(0.5) {
            self.put(
                &format!("{prefix}_p50_us"),
                r.value as f64 / 1e3,
                "us",
                format!("n={n}"),
            );
        }
        for &(q, suffix) in tails {
            if let Some(r) = d.at(q) {
                let note = if r.used == q {
                    format!("n={n}")
                } else {
                    format!("n={n}; sample supports only p{:.2}", r.used * 100.0)
                };
                self.put(
                    &format!("{prefix}_{suffix}_us"),
                    r.value as f64 / 1e3,
                    "us",
                    note,
                );
            }
        }
    }

    /// p50/p99/... of a nanosecond population, kept in nanoseconds.
    fn nanos(&mut self, name: &str, samples: Vec<u64>, qs: &[(f64, &str)]) {
        let d = Digest::new(samples);
        let n = d.count();
        for &(q, suffix) in qs {
            if let Some(r) = d.at(q) {
                self.put(
                    &format!("{name}_{suffix}"),
                    r.value as f64,
                    "ns",
                    format!("n={n}"),
                );
            }
        }
    }

    fn print(&self, header: &Obj, keep: &[&str]) {
        println!("# {}", header.render());
        for (name, value, unit, note) in &self.metrics {
            println!("{name:<40} {:>14} {unit:<9} {note}", json::number(*value));
        }
        println!(
            "{:<40} {:>14} {:<9} attempted={} failed={} busy={} missing={} wrong={} mismatches={}",
            "failed_frac",
            json::number(self.tally.failed_frac()),
            "ratio",
            self.tally.attempted,
            self.tally.failed,
            self.tally.busy,
            self.tally.missing,
            self.tally.wrong,
            self.tally.mismatches
        );
        for n in &self.notes {
            println!("# {n}");
        }
        let mut metrics = Obj::new();
        for &name in keep {
            if let Some((_, value, unit, _)) = self.metrics.iter().find(|m| m.0 == name) {
                metrics = metrics.raw(
                    name,
                    Obj::new().num("value", *value).str("unit", unit).render(),
                );
            }
        }
        println!(
            "{}",
            Obj::new()
                .bool("correct", self.correct(keep))
                .num("attempted", self.tally.attempted.max(1) as f64)
                .num("failed", self.tally.failures() as f64)
                .raw("metrics", metrics.render())
                .render()
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <safe_churn|paper_mix|paper_mix_leader|road_sssp> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let header = Obj::new()
        .str("workload", args.workload.name())
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .num("nproc", host::nproc() as f64)
        .str("kernel", &host::kernel())
        .str("git_rev", &host::git_rev())
        .raw(
            "config",
            Deployment::pinned(args.workload, Some("wal".into()))
                .describe()
                .render(),
        );
    let result = if args.trace {
        trace_run(&args).map(|r| (r, PER_LAYER))
    } else {
        end_to_end(&args).map(|r| (r, END_TO_END))
    };
    let _ = std::fs::remove_dir_all(deploy::SCRATCH_DIR);
    match result {
        Ok((report, keep)) => {
            report.print(&header, keep);
            if report.correct(keep) {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness checks failed or a metric is missing");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Open-loop and closed-loop durations for `--seconds`.
fn phases(seconds: f64) -> (Duration, Duration) {
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    (open, Duration::from_secs_f64(seconds) - open)
}

/// Due time before which samples are warm-up: [`WARMUP`], or a tenth
/// of a short schedule.
fn warmup_ns(slots: &[Slot]) -> u64 {
    (WARMUP.as_nanos() as u64).min(slots.last().map_or(0, |s| s.due_ns) / 10)
}

/// Latency samples of the open-loop slots matching `pick`, after the
/// warm-up; failed and missing requests count as infinitely slow.
fn open_loop_samples(slots: &[Slot], log: &OpenLoopLog, pick: impl Fn(&Slot) -> bool) -> Vec<u64> {
    let warm = warmup_ns(slots);
    slots
        .iter()
        .zip(log.verdicts.iter().zip(&log.latency_ns))
        .filter(|(s, _)| pick(s) && s.due_ns >= warm)
        .map(|(_, (v, &l))| if v.ok() { l } else { u64::MAX })
        .collect()
}

/// Count the open loop's requests into `report` and fold its applied
/// updates into `expected`.
fn account(report: &mut Report, slots: &[Slot], log: &OpenLoopLog, expected: &mut Multiset) {
    for (s, v) in slots.iter().zip(&log.verdicts) {
        v.count(&mut report.tally);
        if let (Op::Update { update, .. }, true) = (s.op, v.ok()) {
            expected.apply(&update);
        }
    }
}

/// Generator lateness (P50, P99 and maximum, us) and the share of
/// applied updates the server ran on the unsafe path.
fn loadgen_figures(slots: &[Slot], log: &OpenLoopLog) -> [(&'static str, f64, &'static str); 4] {
    let late = Digest::new(log.late_ns.clone());
    let p50 = late.at(0.5).map_or(f64::NAN, |r| r.value as f64 / 1e3);
    let p99 = late.at(0.99).map_or(f64::NAN, |r| r.value as f64 / 1e3);
    let (mut unsafe_n, mut applied) = (0u64, 0u64);
    for (s, v) in slots.iter().zip(&log.verdicts) {
        if s.is_update() && v.ok() {
            applied += 1;
            unsafe_n += u64::from(*v == Verdict::AppliedUnsafe);
        }
    }
    [
        ("loadgen.late_p50_us", p50, "us"),
        ("loadgen.late_p99_us", p99, "us"),
        ("loadgen.late_max_us", late.max() as f64 / 1e3, "us"),
        (
            "server.unsafe_frac",
            unsafe_n as f64 / applied.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Check the leader (and the follower) after the traffic, outside the
/// timed region; mismatches are counted into the report's tally.
fn verify(
    report: &mut Report,
    inputs: &Inputs,
    d: &Deployed,
    expected: &Multiset,
) -> Option<Duration> {
    let leader = d.server();
    let mut catchup = None;
    if let Some(f) = &d.follower {
        let target = leader.current_version();
        catchup = check::await_version(|| f.replica().current_version(), target, CATCHUP_TIMEOUT);
        let bad = match catchup {
            Some(_) => {
                check::follower_mismatches(inputs.capacity, leader.engine(), f.replica().engine())
            }
            None => inputs.capacity as u64,
        };

        if bad > 0 {
            report.notes.push(format!(
                "follower check: {bad} mismatches (caught up: {})",
                catchup.is_some()
            ));
        }
        report.tally.mismatches += bad;
    }
    let bad = check::oracle_mismatches(inputs, leader.engine(), expected);
    if bad > 0 {
        report.notes.push(format!(
            "oracle check: {bad} vertices differ from the reference"
        ));
    }
    report.tally.mismatches += bad;
    catchup
}

/// One segment of an end-to-end run: its own set-up, open loop, closed
/// loop and checks.
struct Segment {
    /// `(name, value, unit)` of every figure the segment measured.
    figures: Vec<(&'static str, f64, &'static str)>,
    /// Requests, failures and mismatches.
    tally: Tally,
    /// Check findings.
    notes: Vec<String>,
    /// `load_edges` wall times (leader, then follower), ms.
    load_ms: Vec<f64>,
    /// Updates in the workload's base stream.
    stream_len: usize,
}

/// Set up a fresh deployment, drive it open-loop for `open` at the
/// workload's rates, then closed-loop for `closed_updates` updates, and
/// check the outputs.
fn segment(
    w: Workload,
    seed: u64,
    tag: &str,
    open: Duration,
    closed_updates: u64,
) -> Result<Segment> {
    let steal0 = host::cpu_steal_total();
    let t0 = Instant::now();
    let inputs = Inputs::generate(w, seed);
    let d = Deployed::start(&inputs, tag)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut traffic = Traffic::new(&inputs);
    let slots = traffic.open_loop(open);
    let log = tcp::open_loop(d.addr(), &slots, false)?;
    let cpu0 = host::process_cpu_us();
    let cl = tcp::closed_loop(d.addr(), &mut traffic, closed_updates)?;
    let cpu_us = host::process_cpu_us() - cpu0;
    let steal1 = host::cpu_steal_total();
    // Before the checks, whose reference computation allocates too.
    let rss_mb = host::peak_rss_mb();

    let mut r = Report::new();
    let took_s = cl.completions.iter().max().copied().unwrap_or(0) as f64 / 1e9;
    let mut figures = vec![
        ("setup_s", setup_s, "s"),
        (
            "peak_ops_s",
            cl.completions.len() as f64 / took_s,
            "updates/s",
        ),
        (
            "update_cpu_us",
            cpu_us as f64 / cl.completions.len().max(1) as f64,
            "us",
        ),
    ];
    let mut tails = vec![
        ("update", 0.5, "update_p50_us"),
        ("update", 0.99, "update_p99_us"),
        ("update", 0.999, "update_p999_us"),
    ];
    if w.query_rate() > 0.0 {
        tails.extend([
            ("query", 0.5, "query_p50_us"),
            ("query", 0.99, "query_p99_us"),
        ]);
    }
    let updates = Digest::new(open_loop_samples(&slots, &log, Slot::is_update));
    let queries = Digest::new(open_loop_samples(&slots, &log, |s| !s.is_update()));
    figures.push(("update_samples", updates.count() as f64, "count"));
    if w.query_rate() > 0.0 {
        figures.push(("query_samples", queries.count() as f64, "count"));
    }
    for (kind, q, name) in tails {
        let d = if kind == "update" { &updates } else { &queries };
        if let Some(rep) = d.at(q) {
            if rep.used < q {
                r.notes.push(format!(
                    "{tag}: {name} reports p{:.2}, the highest percentile {} samples support",
                    rep.used * 100.0,
                    d.count()
                ));
            }
            figures.push((name, rep.value as f64 / 1e3, "us"));
        }
    }
    figures.extend(loadgen_figures(&slots, &log));
    figures.push(("host.steal_frac", host::steal_frac(steal0, steal1), "ratio"));

    let mut expected = Multiset::of(&inputs.preload);
    account(&mut r, &slots, &log, &mut expected);
    r.tally.add(&cl.tally);
    for u in &cl.applied {
        expected.apply(u);
    }
    if let Some(c) = verify(&mut r, &inputs, &d, &expected) {
        figures.push(("replica.catchup_ms", c.as_secs_f64() * 1e3, "ms"));
    }
    figures.push(("peak_rss_mb", rss_mb, "MB"));
    let load_ms = d.load_ms.clone();
    d.shutdown();
    Ok(Segment {
        figures,
        tally: r.tally,
        notes: r.notes,
        load_ms,
        stream_len: inputs.stream_len,
    })
}

/// Indices of the `keep` smallest steal shares, in segment order.
fn least_stolen(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

/// The end-to-end run: [`SEGMENTS`] independent segments, each set up
/// from scratch; every figure is the median over the [`KEPT`] segments
/// with the least CPU steal (maxima take the maximum).
fn end_to_end(args: &Args) -> Result<Report> {
    let w = args.workload;
    let (open, closed) = phases(args.seconds);
    let seg_open = open / SEGMENTS as u32;
    let seg_closed = w.closed_loop_updates(closed.as_secs_f64() / SEGMENTS as f64);
    let mut report = Report::new();
    let mut segments = Vec::new();
    for i in 0..SEGMENTS {
        segments.push(segment(
            w,
            args.seed,
            &format!("segment{i}"),
            seg_open,
            seg_closed,
        )?);
    }
    let figure = |s: &Segment, name: &str| {
        s.figures
            .iter()
            .find(|f| f.0 == name)
            .map_or(f64::NAN, |f| f.1)
    };
    let kept = least_stolen(
        &segments
            .iter()
            .map(|s| figure(s, "host.steal_frac"))
            .collect::<Vec<_>>(),
        KEPT,
    );
    report.notes.push(format!(
        "figures are over segments {kept:?} (the {KEPT} of {SEGMENTS} with the least CPU steal)"
    ));
    for (name, _, unit) in segments[0].figures.clone() {
        if name == "peak_rss_mb" {
            // The high-water mark only grows; the first segment's is the
            // peak of one deployment and its traffic in a fresh process.
            let all: Vec<String> = segments
                .iter()
                .map(|s| format!("{:.1}", figure(s, name)))
                .collect();
            report.put(
                name,
                figure(&segments[0], name),
                unit,
                format!(
                    "VmHWM after the first segment; after each: [{}]",
                    all.join(", ")
                ),
            );
            continue;
        }
        let all: Vec<f64> = segments.iter().map(|s| figure(s, name)).collect();
        let values: Vec<f64> = kept.iter().map(|&i| all[i]).collect();
        let (value, how) = if name.ends_with("_max_us") {
            (values.iter().copied().fold(0.0, f64::max), "max")
        } else {
            (median(&values), "median")
        };
        let shown: Vec<String> = all.iter().map(|v| format!("{v:.4}")).collect();
        report.put(
            name,
            value,
            unit,
            format!("{how} of kept segments; all: [{}]", shown.join(", ")),
        );
    }
    let load_ms: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.load_ms.iter().copied())
        .collect();
    report.put(
        "engine.load_edges_ms",
        median(&load_ms),
        "ms",
        format!("median; all loads: {load_ms:.1?}"),
    );
    report.put(
        "engine.load_edges_max_ms",
        load_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        "",
    );
    for s in &segments {
        report.tally.add(&s.tally);
        report.notes.extend(s.notes.iter().cloned());
    }
    report.notes.push(format!(
        "{SEGMENTS} segments, each: set-up, {} updates/s + {} queries/s open loop for {:.2} s (the first {:.2} s warm-up), then a closed loop of {seg_closed} updates (16 sessions x 16 in flight); base stream of {} updates, cycled",
        w.update_rate(),
        w.query_rate(),
        seg_open.as_secs_f64(),
        WARMUP.min(seg_open / 10).as_secs_f64(),
        segments[0].stream_len,
    ));
    Ok(report)
}

fn find<'a>(snapshot: &'a [(String, MetricValue)], name: &str) -> Option<&'a MetricValue> {
    snapshot.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn hist(snapshot: &[(String, MetricValue)], name: &str) -> Option<HistogramSummary> {
    match find(snapshot, name) {
        Some(MetricValue::Histogram(h)) => Some(*h),
        _ => None,
    }
}

fn scalar(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    match find(snapshot, name) {
        Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => Some(*v),
        _ => None,
    }
}

/// The registry's view of the traced TCP rung, read over `METRICS`.
fn registry_metrics(report: &mut Report, snapshot: &[(String, MetricValue)]) {
    if let Some(h) = hist(snapshot, "core.update_latency_ns") {
        report.put(
            "server.update_p50_us",
            h.p50_ns as f64 / 1e3,
            "us",
            format!("n={}", h.count),
        );
        report.put(
            "server.update_p99_us",
            h.p99_ns as f64 / 1e3,
            "us",
            format!("n={}", h.count),
        );
    }
    for phase in [
        "safe_execute",
        "barrier_wait",
        "unsafe_probe",
        "unsafe_execute",
        "finalize",
        "wal_append",
        "feed_publish",
        "reactor_drain",
    ] {
        let name = format!("epoch.phase.{phase}_ns");
        if let Some(h) = hist(snapshot, &name).filter(|h| h.count > 0) {
            let note = format!("n={}", h.count);
            report.put(&format!("{name}_p50"), h.p50_ns as f64, "ns", note.clone());
            report.put(&format!("{name}_p99"), h.p99_ns as f64, "ns", note);
        }
    }
    if let Some(h) = hist(snapshot, "epoch.total_ns") {
        report.put(
            "epoch.total_ns_p50",
            h.p50_ns as f64,
            "ns",
            format!("n={}", h.count),
        );
        report.put(
            "epoch.total_ns_p99",
            h.p99_ns as f64,
            "ns",
            format!("n={}", h.count),
        );
    }
    let safe = scalar(snapshot, "core.safe_executed").unwrap_or(0);
    let unsafe_n = scalar(snapshot, "core.unsafe_executed").unwrap_or(0);
    let epochs = scalar(snapshot, "core.epochs").unwrap_or(0);
    report.put(
        "server.updates_per_epoch",
        (safe + unsafe_n) as f64 / epochs.max(1) as f64,
        "updates",
        format!("{} updates in {epochs} epochs", safe + unsafe_n),
    );
    for counter in [
        "core.demotions",
        "wal.records",
        "net.admission.shed_budget",
        "net.admission.shed_quota",
        "net.admission.shed_overload",
        "net.admission.evicted",
    ] {
        if let Some(v) = scalar(snapshot, counter) {
            report.put(counter, v as f64, "count", "registry");
        }
    }
}

/// Replica staleness: for each acknowledged version, the time from the
/// ack until the follower was first seen at or past it.
fn staleness_ns(acks: &[(u64, Instant)], seen: &[(Instant, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(acks.len());
    for &(v, at) in acks {
        let i = seen.partition_point(|&(_, sv)| sv < v);
        if let Some(&(t, _)) = seen.get(i) {
            out.push(t.saturating_duration_since(at).as_nanos() as u64);
        }
    }
    out
}

/// The traced run: the untraced and traced TCP rungs, then the
/// in-process, engine, store and protocol rungs, all on the same
/// inputs and open-loop schedule.
fn trace_run(args: &Args) -> Result<Report> {
    let w = args.workload;
    let mut report = Report::new();
    let inputs = Inputs::generate(w, args.seed);
    // Each rung replays half the end-to-end run's open-loop time.
    let (open, _) = phases(args.seconds / 2.0);
    let slots = Traffic::new(&inputs).open_loop(open);
    let mut load_ms = Vec::new();

    // Rung 1, untraced: the baseline for the tracing overhead.
    let d = Deployed::start(&inputs, "untraced")?;
    load_ms.extend(d.load_ms.iter().copied());
    let plain = tcp::open_loop(d.addr(), &slots, false)?;
    let mut expected = Multiset::of(&inputs.preload);
    let mut scratch = Report::new();
    account(&mut scratch, &slots, &plain, &mut expected);
    verify(&mut scratch, &inputs, &d, &expected);
    report.tally.add(&scratch.tally);
    d.shutdown();
    let plain_p50 = Digest::new(open_loop_samples(&slots, &plain, Slot::is_update))
        .at(0.5)
        .map_or(f64::NAN, |r| r.value as f64 / 1e3);

    // Rung 1, traced: TCP to the NetServer, spans around the codec
    // calls, follower staleness sampled on the side, registry read
    // over METRICS at the end.
    let d = Deployed::start(&inputs, "traced")?;
    load_ms.extend(d.load_ms.iter().copied());
    let steal0 = host::cpu_steal_total();
    let stop = AtomicBool::new(false);
    let (log, seen) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut seen: Vec<(Instant, u64)> = Vec::new();
            let Some(f) = &d.follower else { return seen };
            while !stop.load(Ordering::Relaxed) {
                let v = f.replica().current_version();
                if seen.last().is_none_or(|&(_, last)| v > last) {
                    seen.push((Instant::now(), v));
                }
                std::thread::sleep(Duration::from_micros(250));
            }
            seen
        });
        let log = tcp::open_loop(d.addr(), &slots, true);
        // Keep sampling until the follower has caught up.
        if let Some(f) = &d.follower {
            let target = d.server().current_version();
            let _ = check::await_version(|| f.replica().current_version(), target, CATCHUP_TIMEOUT);
        }
        stop.store(true, Ordering::Relaxed);
        (log, sampler.join().expect("sampler panicked"))
    });
    let log = log?;
    let steal1 = host::cpu_steal_total();
    let snapshot = NetClient::connect(d.addr())?.metrics()?;
    let update = Digest::new(open_loop_samples(&slots, &log, Slot::is_update));
    let (tcp_p50, tcp_p99) = (
        update.at(0.5).map_or(f64::NAN, |r| r.value as f64 / 1e3),
        update.at(0.99).map_or(f64::NAN, |r| r.value as f64 / 1e3),
    );
    report.put(
        "rung1.tcp.update_p50_us",
        tcp_p50,
        "us",
        format!("n={}", update.count()),
    );
    report.put(
        "rung1.tcp.update_p99_us",
        tcp_p99,
        "us",
        format!("n={}", update.count()),
    );
    report.put(
        "trace.overhead_p50_us",
        tcp_p50 - plain_p50,
        "us",
        format!("traced TCP rung p50 minus untraced ({plain_p50:.1} us)"),
    );
    for (name, value, unit) in loadgen_figures(&slots, &log) {
        report.put(name, value, unit, "traced TCP rung");
    }
    report.put(
        "host.steal_frac",
        host::steal_frac(steal0, steal1),
        "ratio",
        "/proc/stat, traced TCP rung",
    );
    report.nanos("loadgen.encode_ns", log.encode_ns.clone(), &[(0.5, "p50")]);
    report.nanos("loadgen.decode_ns", log.decode_ns.clone(), &[(0.5, "p50")]);
    registry_metrics(&mut report, &snapshot);
    if let Some(f) = &d.follower {
        let st = staleness_ns(&log.acks, &seen);
        report.latency("replica.staleness", st, &[(0.99, "p99")]);
        let last_ack = log.acks.iter().map(|a| a.1).max();
        let caught = seen.last().map(|s| s.0);
        if let (Some(a), Some(c)) = (last_ack, caught) {
            report.put(
                "replica.catchup_ms",
                c.saturating_duration_since(a).as_secs_f64() * 1e3,
                "ms",
                "last ack to follower at the leader's version",
            );
        }
        report.put(
            "replica.records_applied",
            f.stats().records_applied.load(Ordering::Relaxed) as f64,
            "count",
            "",
        );
    }
    let mut expected = Multiset::of(&inputs.preload);
    let mut scratch = Report::new();
    account(&mut scratch, &slots, &log, &mut expected);
    verify(&mut scratch, &inputs, &d, &expected);
    report.tally.add(&scratch.tally);
    report.notes.extend(scratch.notes);
    d.shutdown();

    // Rung 2: in-process sessions on the same schedule.
    let leader = Leader::start(&inputs, "inproc")?;
    load_ms.push(leader.load_ms);
    let ip = ladder::in_process(&leader.server, &inputs, &slots);
    let warm = warmup_ns(&slots);
    let ip_updates: Vec<u64> = slots
        .iter()
        .filter(|s| s.is_update())
        .zip(&ip.update_ns)
        .filter(|(s, _)| s.due_ns >= warm)
        .map(|(_, &l)| l)
        .collect();
    let ipd = Digest::new(ip_updates);
    let (ip_p50, ip_p99) = (
        ipd.at(0.5).map_or(f64::NAN, |r| r.value as f64 / 1e3),
        ipd.at(0.99).map_or(f64::NAN, |r| r.value as f64 / 1e3),
    );
    report.put(
        "rung2.inproc.update_p50_us",
        ip_p50,
        "us",
        format!("n={}", ipd.count()),
    );
    report.put(
        "rung2.inproc.update_p99_us",
        ip_p99,
        "us",
        format!("n={}", ipd.count()),
    );
    report.put(
        "net.overhead_p50_us",
        tcp_p50 - ip_p50,
        "us",
        "TCP rung minus in-process rung",
    );
    report.put(
        "net.overhead_p99_us",
        tcp_p99 - ip_p99,
        "us",
        "TCP rung minus in-process rung",
    );
    if !ip.query_ns.is_empty() {
        report.latency("rung2.inproc.query", ip.query_ns.clone(), &[(0.99, "p99")]);
    }
    report.nanos(
        "history.get_value_ns",
        ip.get_value_ns.clone(),
        &[(0.5, "p50"), (0.99, "p99")],
    );
    report.nanos(
        "history.get_modified_ns",
        ip.get_modified_ns.clone(),
        &[(0.5, "p50"), (0.99, "p99")],
    );
    report.tally.add(&ip.tally);
    let bad = check::oracle_mismatches(&inputs, leader.server.engine(), &ip.expected);
    report.tally.mismatches += bad;
    leader.shutdown();

    // Rung 3: single-writer engine.
    let eng = ladder::engine_rung(&inputs, &slots, open / 2)?;
    load_ms.push(eng.load_ms);
    report.nanos("engine.classify_ns", eng.classify_ns, &[(0.5, "p50")]);
    report.nanos(
        "engine.safe_apply_ns",
        eng.safe_ns,
        &[(0.5, "p50"), (0.99, "p99")],
    );
    let unsafe_n = eng.unsafe_ns.len();
    report.nanos(
        "engine.unsafe_apply_ns",
        eng.unsafe_ns,
        &[(0.5, "p50"), (0.99, "p99"), (0.999, "p999")],
    );
    report.put(
        "engine.unsafe_frac",
        unsafe_n as f64 / eng.applied.max(1) as f64,
        "ratio",
        format!("{unsafe_n} of {} updates", eng.applied),
    );
    report.put(
        "engine.updates_per_s",
        eng.applied as f64 / eng.elapsed.as_secs_f64(),
        "updates/s",
        "single writer, no schedule",
    );
    report.tally.add(&eng.tally);
    report.put(
        "engine.load_edges_ms",
        median(&load_ms),
        "ms",
        format!("median; all loads: {load_ms:.1?}"),
    );
    report.put(
        "engine.load_edges_max_ms",
        load_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        "",
    );

    // Rung 4: bare store.
    let st = ladder::store_rung(&inputs, &slots, open / 4)?;
    report.nanos(
        "storage.insert_ns",
        st.insert_ns,
        &[(0.5, "p50"), (0.99, "p99")],
    );
    report.nanos(
        "storage.delete_ns",
        st.delete_ns,
        &[(0.5, "p50"), (0.99, "p99")],
    );
    report.nanos("storage.scan_out_ns", st.scan_ns, &[(0.5, "p50")]);
    report.tally.add(&st.tally);

    // Rung 5: protocol codec.
    let pr = ladder::protocol_rung(&slots, Duration::from_secs(1));
    report.put(
        "protocol.encode_ns_p50",
        median(&pr.encode_ns),
        "ns",
        format!("request + reply, {} batches", pr.encode_ns.len()),
    );
    report.put(
        "protocol.decode_ns_p50",
        median(&pr.decode_ns),
        "ns",
        format!("request + reply, {} batches", pr.decode_ns.len()),
    );
    report.tally.add(&pr.tally);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let listed = text.matches("\"name\": ").count();
        let workloads = text.matches("\"why\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in Workload::ALL {
            if text.contains(&format!("\"name\": \"{}\"", w.name())) {
                assert!(Workload::parse(w.name()).is_some());
            }
        }
    }

    #[test]
    fn the_least_stolen_segments_are_kept_in_order() {
        assert_eq!(least_stolen(&[0.3, 0.0, 0.1, 0.0, 0.2], 3), vec![1, 2, 3]);
        assert_eq!(least_stolen(&[0.0; 4], 2), vec![0, 1]);
    }

    #[test]
    fn staleness_pairs_each_ack_with_the_first_sighting() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let acks = [(1, ms(0)), (2, ms(1)), (5, ms(2)), (9, ms(3))];
        let seen = [(ms(1), 1), (ms(4), 5), (ms(6), 7)];
        let st = staleness_ns(&acks, &seen);
        // v1 seen 1 ms after its ack, v2 and v5 at 4 ms, v9 never.
        assert_eq!(st, vec![1_000_000, 3_000_000, 2_000_000]);
    }
}
