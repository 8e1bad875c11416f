//! End-to-end benchmark of the closed Erms control loop.
//!
//! ```text
//! erms-perfbench --workload <taobao-inproc|taobao-sharded|daemon-loop>
//!                --seed <n> --seconds <s> --trace <0|1> [--tiny] [--perturb]
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--tiny` runs the self-test sizes, and `--perturb` adds one container
//! to the first checked plan (the digest gate must then fail). The digest
//! line is printed in the pin table's format; `--seconds 0` runs only the
//! checked rounds.
//! `perfbench/README.md` documents the workloads and metrics.

mod daemon;
mod heap;
mod inproc;
mod runner;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use runner::{drive, Counts, Driven, Loop};
use trace::{LayerStat, ROUND};
use util::{median, summarize};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Expected digests: `workload size seed digest`, one per line.
const PINNED: &str = include_str!("../expected_digests.tsv");

/// Set-ups per run; `setup_s` is their median. A Taobao set-up takes
/// about 4.5 s, so three keep the set-ups to a third of a run. The
/// daemon's set-up takes about 80 ms and varied by ±20% within a run, so
/// it repeats more often.
const SETUPS: usize = 3;
const DAEMON_SETUPS: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    TaobaoInproc,
    TaobaoSharded,
    DaemonLoop,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "taobao-inproc" => Some(Self::TaobaoInproc),
            "taobao-sharded" => Some(Self::TaobaoSharded),
            "daemon-loop" => Some(Self::DaemonLoop),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TaobaoInproc => "taobao-inproc",
            Self::TaobaoSharded => "taobao-sharded",
            Self::DaemonLoop => "daemon-loop",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be taobao-inproc, taobao-sharded or daemon-loop")?;
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let flag = |f: &str| argv.iter().any(|a| a == f);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny: flag("--tiny"),
        perturb: flag("--perturb"),
    })
}

/// The loop under test, plus its set-up timings (one entry per set-up).
struct Prepared {
    lp: Box<dyn Loop>,
    episode_rounds: u64,
    setup_s: Vec<f64>,
    setup: BTreeMap<&'static str, Vec<f64>>,
    config: String,
}

fn prepare(a: &Args) -> Prepared {
    let setups = match a.workload {
        Workload::DaemonLoop => DAEMON_SETUPS,
        _ => SETUPS,
    };
    let mut setup_s = Vec::new();
    let mut setup: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last: Option<(Box<dyn Loop>, u64, String)> = None;
    for _ in 0..setups {
        // Drop the previous instance first, so set-ups do not overlap.
        drop(last.take());
        let mut counts = Counts::default();
        let t = Instant::now();
        let built: (Box<dyn Loop>, u64, String) = match a.workload {
            Workload::TaobaoInproc | Workload::TaobaoSharded => {
                let shards = (a.workload == Workload::TaobaoSharded).then_some(2);
                let cfg = inproc::Config::taobao(shards, a.tiny);
                let desc = format!(
                    "microservices={} services={} hosts={} window_ms={} sampling={} shards={} threads={}",
                    cfg.synth.microservices,
                    cfg.synth.services,
                    cfg.hosts,
                    cfg.window_ms,
                    cfg.sampling,
                    shards.unwrap_or(1),
                    if shards.is_some() { inproc::SHARD_THREADS } else { 1 },
                );
                let lp = inproc::InProc::setup(&cfg, a.seed, a.perturb, &mut counts);
                (Box::new(lp), cfg.episode_rounds, desc)
            }
            Workload::DaemonLoop => {
                let cfg = daemon::Config::new(a.tiny);
                let desc = cfg.describe();
                let lp = daemon::Daemon::setup(&cfg, a.seed, a.perturb, &mut counts);
                (Box::new(lp), cfg.episode_rounds, desc)
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        for (name, v) in counts.0 {
            setup.entry(name).or_default().push(v);
        }
        last = Some(built);
    }
    let (lp, episode_rounds, config) = last.expect("at least one set-up");
    Prepared {
        lp,
        episode_rounds,
        setup_s,
        setup,
        config,
    }
}

fn pinned(workload: Workload, tiny: bool, seed: u64) -> Option<u64> {
    let size = if tiny { "tiny" } else { "full" };
    PINNED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[0] == workload.name() && f[1] == size && f[2] == seed.to_string())
            .then(|| f[3].parse().ok())
            .flatten()
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn noted(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn tail_note(s: &util::Summary, what: &str) -> String {
    format!("p{:.1} of {} {what}", s.tail_pct, s.count)
}

/// Zero for a metric the workload does not exercise (no samples).
fn or0(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn end_to_end(p: &Prepared, d: &Driven) -> Vec<Metric> {
    let rounds = summarize(&d.rounds_ms);
    let ingest = summarize(&d.measure.ingest_ms);
    let replan = summarize(&d.measure.replan_ms);
    let c = &d.checked;
    vec![
        noted(
            "setup_s",
            median(&p.setup_s),
            "s",
            format!("median of {} set-ups", p.setup_s.len()),
        ),
        noted(
            "round_tail_ms",
            rounds.tail,
            "ms",
            tail_note(&rounds, "rounds"),
        ),
        noted(
            "containers_mean",
            c.containers_mean,
            "count",
            format!("simulated; {} checked rounds", c.rounds),
        ),
        noted(
            "p95_sla_share_pct",
            100.0 * c.sla.p95_share_sum / c.sla.cells.max(1) as f64,
            "%",
            format!(
                "simulated; mean window P95 / SLA over {} cells",
                c.sla.cells
            ),
        ),
        noted(
            "peak_heap_mb",
            d.peak_heap_mb,
            "MiB",
            "live heap, from start to the end of the checked rounds".to_string(),
        ),
        noted(
            "ingest_tail_ms",
            ingest.tail,
            "ms",
            tail_note(&ingest, "ingests"),
        ),
        noted(
            "replan_tail_ms",
            replan.tail,
            "ms",
            tail_note(&replan, "replans"),
        ),
    ]
}

fn per_layer(p: &Prepared, d: &Driven, error_rate: f64) -> Vec<Metric> {
    let layers: BTreeMap<&'static str, LayerStat> =
        d.tracer.as_ref().map(|t| t.layers()).unwrap_or_default();
    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let round = get(ROUND);
    let traced = round.calls.max(1) as f64;
    let wall = round.total_ms.max(f64::MIN_POSITIVE);
    let per_round = |n: &str| get(n).self_ms / traced;
    let share = |names: &[&str]| 100.0 * names.iter().map(|n| get(n).self_ms).sum::<f64>() / wall;
    let c = &d.counts;
    let checked = d.checked.rounds.max(1) as f64;
    let setup = |n: &str| p.setup.get(n).map_or(0.0, |v| median(v));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let http = |n: &str| d.measure.http.get(n).copied().unwrap_or_default();
    let http_ms = |n: &str| {
        let e = http(n);
        ratio(e.total_ms, e.calls as f64)
    };
    let rounds = summarize(&d.rounds_ms);
    let ingest = summarize(&d.measure.ingest_ms);
    let replan = summarize(&d.measure.replan_ms);
    let reload = summarize(&d.measure.reload_ms);
    let read = summarize(&d.measure.read_ms);
    let late = summarize(&d.measure.late_ms);
    let sim_ms_per_round = per_round("sim");
    let http_spans = [
        "http.get_plan",
        "http.post_spans",
        "http.workloads",
        "http.replan",
        "http.snapshot",
        "http.reload",
    ];
    vec![
        m("sim.busy_ms", sim_ms_per_round, "ms"),
        m("sim.share", share(&["sim"]), "%"),
        m("sim.events", c.get("sim.events"), "count"),
        m(
            "sim.events_per_s",
            ratio(c.get("sim.events") / checked, sim_ms_per_round / 1e3),
            "1/s",
        ),
        m("sim.completed", c.get("sim.completed"), "count"),
        m("shard.windows", c.get("shard.windows"), "count"),
        m("shard.messages", c.get("shard.messages"), "count"),
        m(
            "shard.messages_per_window",
            ratio(c.get("shard.messages"), c.get("shard.windows")),
            "count",
        ),
        m("shard.cut_edges", setup("shard.cut_edges"), "count"),
        m("partition.ms", setup("partition.ms"), "ms"),
        m(
            "telemetry.spans_seen",
            c.get("telemetry.spans_seen"),
            "count",
        ),
        m(
            "telemetry.spans_kept",
            c.get("telemetry.spans_kept"),
            "count",
        ),
        m(
            "telemetry.ring_overwritten",
            c.get("telemetry.ring_overwritten"),
            "count",
        ),
        m("telemetry.share", share(&["telemetry"]), "%"),
        m("refit.ingest_ms", per_round("refit.ingest"), "ms"),
        m("refit.fit_ms", per_round("refit.fit"), "ms"),
        m("refit.samples_added", c.get("refit.samples_added"), "count"),
        m(
            "refit.samples_per_span",
            ratio(c.get("refit.samples_added"), c.get("telemetry.spans_kept")),
            "ratio",
        ),
        m("refit.refitted_ms", c.get("refit.refitted_ms"), "count"),
        m("refit.share", share(&["refit.ingest", "refit.fit"]), "%"),
        m("plan.cold_ms", setup("plan.cold_ms"), "ms"),
        m("plan.round_ms", per_round("plan"), "ms"),
        m(
            "plan.services_replanned",
            c.get("plan.services_replanned"),
            "count",
        ),
        m(
            "plan.services_reused",
            c.get("plan.services_reused"),
            "count",
        ),
        m(
            "plan.reuse_ratio",
            ratio(
                c.get("plan.services_reused"),
                c.get("plan.services_reused") + c.get("plan.services_replanned"),
            ),
            "ratio",
        ),
        m("plan.full_builds", c.get("plan.full_builds"), "count"),
        m("plan.dirty_leaves", c.get("plan.dirty_leaves"), "count"),
        m(
            "plan.cache_hit_rate",
            ratio(
                c.get("plan.cache_hits"),
                c.get("plan.cache_hits") + c.get("plan.cache_misses"),
            ),
            "ratio",
        ),
        m(
            "plan.degraded_rounds",
            c.get("plan.degraded_rounds"),
            "count",
        ),
        m("plan.skipped_rounds", c.get("plan.skipped_rounds"), "count"),
        m("plan.share", share(&["plan"]), "%"),
        m("codec.encode_ms", per_round("codec.encode"), "ms"),
        m("codec.decode_ms", per_round("codec.decode"), "ms"),
        m("codec.share", share(&["codec.encode", "codec.decode"]), "%"),
        m("http.get_plan_ms", http_ms("get_plan"), "ms"),
        m("http.get_plan_calls", c.get("http.get_plan_calls"), "count"),
        m("http.post_spans_ms", http_ms("post_spans"), "ms"),
        m(
            "http.post_spans_calls",
            c.get("http.post_spans_calls"),
            "count",
        ),
        m("http.replan_ms", http_ms("replan"), "ms"),
        m("http.replan_calls", c.get("http.replan_calls"), "count"),
        m("http.metrics_ms", http_ms("metrics"), "ms"),
        m("http.snapshot_ms", http_ms("snapshot"), "ms"),
        m("http.snapshot_calls", c.get("http.snapshot_calls"), "count"),
        m("http.reload_ms", http_ms("reload"), "ms"),
        m("http.reload_calls", c.get("http.reload_calls"), "count"),
        m("http.bytes_in", c.get("http.bytes_in"), "bytes"),
        m("http.bytes_out", c.get("http.bytes_out"), "bytes"),
        m("http.non2xx", d.measure.non2xx as f64, "count"),
        m("http.share", share(&http_spans), "%"),
        noted(
            "round_p50_ms",
            rounds.p50,
            "ms",
            format!("{} untraced rounds", rounds.count),
        ),
        noted(
            "ingest_p50_ms",
            ingest.p50,
            "ms",
            format!("{} ingests", ingest.count),
        ),
        noted(
            "replan_p50_ms",
            replan.p50,
            "ms",
            format!("{} replans", replan.count),
        ),
        m("reload_p50_ms", or0(reload.p50), "ms"),
        m("read_p50_ms", or0(read.p50), "ms"),
        noted(
            "read_tail_ms",
            or0(read.tail),
            "ms",
            tail_note(&read, "reads"),
        ),
        m(
            "gen.reads_per_s",
            ratio(d.measure.read_ms.len() as f64, d.measure.reader_s),
            "1/s",
        ),
        m(
            "gen.retries_per_s",
            ratio(d.measure.retries as f64, d.measure.reader_s),
            "1/s",
        ),
        m("gen.late_p50_ms", or0(late.p50), "ms"),
        noted(
            "gen.late_tail_ms",
            or0(late.tail),
            "ms",
            tail_note(&late, "reads"),
        ),
        m(
            "trace.overhead_pct",
            100.0 * (median(&d.traced_rounds_ms) / median(&d.rounds_ms) - 1.0),
            "%",
        ),
        m("trace.unattributed_pct", share(&[ROUND]), "%"),
        noted(
            "sla_violation_pct",
            100.0 * d.checked.sla.violations as f64 / d.checked.sla.cells.max(1) as f64,
            "%",
            format!(
                "simulated; {} of {} cells",
                d.checked.sla.violations, d.checked.sla.cells
            ),
        ),
        m("error_rate", error_rate, "ratio"),
    ]
}

fn print_metrics<'a>(title: &str, metrics: impl IntoIterator<Item = &'a Metric>) {
    println!("{title}:");
    for x in metrics {
        println!(
            "  {:<28} {:>16.4} {:<6} {}",
            x.name, x.value, x.unit, x.note
        );
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("erms-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if a.workload == Workload::TaobaoSharded {
        // The sharded engine sizes its worker pool from this variable.
        std::env::set_var("RAYON_NUM_THREADS", inproc::SHARD_THREADS.to_string());
    }
    let mut p = prepare(&a);
    println!(
        "workload {} seed {}: {}",
        a.workload.name(),
        a.seed,
        p.config
    );
    let d = drive(p.lp.as_mut(), p.episode_rounds, a.seconds, a.trace);
    let digest = d.checked.digest;

    // The digest line, in the pin table's columns, then the verdict.
    let size = if a.tiny { "tiny" } else { "full" };
    let verdict = match pinned(a.workload, a.tiny, a.seed) {
        Some(e) if e == digest => "matches the pinned digest for this seed".to_string(),
        Some(e) => format!("MISMATCH, pinned {e}"),
        None => "no pinned digest for this seed".to_string(),
    };
    println!(
        "digest\t{}\t{size}\t{}\t{digest}\t{verdict}",
        a.workload.name(),
        a.seed
    );
    let digest_ok = !verdict.starts_with("MISMATCH");
    // A digest mismatch counts as one failed operation.
    let failed = d.measure.failed + u64::from(!digest_ok);
    for f in &d.measure.failures {
        println!("failure: {f}");
    }
    let attempted = d.measure.attempted.max(1);
    let error_rate = failed as f64 / attempted as f64;
    println!(
        "{} rounds in {} episode(s); {} operations, {} failed (error_rate {error_rate})",
        d.rounds_ms.len() + d.traced_rounds_ms.len(),
        d.episodes,
        attempted,
        failed
    );

    let e2e = end_to_end(&p, &d);
    let layer = per_layer(&p, &d, error_rate);
    if a.trace {
        if let Some(t) = &d.tracer {
            let layers = t.layers();
            let wall = layers.get(ROUND).map_or(0.0, |r| r.total_ms);
            println!("traced rounds: {wall:.1} ms of round wall time");
            println!(
                "  {:<18} {:>12} {:>8} {:>8}",
                "layer", "self_ms", "calls", "share%"
            );
            for (name, s) in &layers {
                let label = if *name == ROUND {
                    "(unattributed)"
                } else {
                    name
                };
                println!(
                    "  {:<18} {:>12.3} {:>8} {:>8.2}",
                    label,
                    s.self_ms,
                    s.calls,
                    100.0 * s.self_ms / wall.max(f64::MIN_POSITIVE)
                );
            }
            let dir = std::path::Path::new(".bench_trace");
            let path = dir.join(format!("{}-{}.tsv", a.workload.name(), a.seed));
            match std::fs::create_dir_all(dir).and_then(|()| t.write(&path)) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written: {e}"),
            }
        }
        print_metrics("per-layer metrics", &layer);
    } else {
        print_metrics("end-to-end metrics", &e2e);
        // The medians and the daemon-only numbers are listed among the
        // per-layer metrics of BENCHMARK.json; show them here too.
        let also = [
            "round_p50_ms",
            "ingest_p50_ms",
            "replan_p50_ms",
            "reload_p50_ms",
            "read_p50_ms",
            "read_tail_ms",
            "sla_violation_pct",
            "error_rate",
        ];
        print_metrics("also", layer.iter().filter(|x| also.contains(&x.name)));
    }

    let chosen = if a.trace { &layer } else { &e2e };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
