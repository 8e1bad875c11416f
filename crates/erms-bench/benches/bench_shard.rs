//! Shard-scaling harness for the parallel DES engine: runs the
//! Taobao-scale synthetic topology (500 services over a 5000-microservice
//! pool) through `Simulation::run_sharded_with_partition_and_sinks` across
//! a K × threads grid of `id % K` partitions, compares modulo vs
//! topology-aware partitions (`partition_compare`: cut-edge fraction,
//! window/message counts and serial wall time at K∈{2,4,8}), and emits
//! `BENCH_shard.json`.
//!
//! Usage (as a `harness = false` bench target):
//!
//! ```text
//! cargo bench -p erms-bench --bench bench_shard            # full run
//! cargo bench -p erms-bench --bench bench_shard -- --quick # CI smoke
//! cargo bench -p erms-bench --bench bench_shard -- --out /tmp/b.json
//! ```
//!
//! Before any number is written, every grid cell's result is asserted
//! bit-identical to the K=1 cell *and* to a pinned golden digest — the
//! scaling curve is honestly "same answer, faster". The ≥2.5× speedup
//! target at 4 shards × 4 threads is asserted only when the host actually
//! offers ≥4 hardware threads (the committed snapshot records the host's
//! `available_parallelism` so a 1-CPU number explains itself).

use std::collections::BTreeMap;
use std::time::Instant;

use erms_core::app::App;
use erms_core::latency::Interference;
use erms_core::prelude::{MicroserviceId, RequestRate, WorkloadVector};
use erms_sim::runtime::{SimConfig, SimResult, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::{replicate, NullSink, Partition, ShardStats};
use erms_trace::synth::{generate, SynthConfig};
use erms_workload::apps::fig5_app;

/// Pinned digest of the full-mode scenario at K=1 (captured when the
/// sharded engine landed). Guards the whole grid against silent drift:
/// a changed digest means changed simulation semantics, not speed.
const GOLDEN_DIGEST_FULL: u64 = 1053468884979842434;
/// Same pin for the `--quick` scenario (shorter duration, same topology).
const GOLDEN_DIGEST_QUICK: u64 = 17990143025672229869;

/// FNV-1a digest over counters and the sorted latency distribution —
/// the same form `tests/golden_sim.rs` pins.
fn digest(result: &SimResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(result.generated);
    eat(result.completed);
    eat(result.dropped);
    eat(result.timed_out);
    eat(result.crash_violations);
    eat(result.crashed_containers);
    eat(result.lost_spans);
    eat(result.events);
    eat(result.trace_store.trace_count() as u64);
    eat(result.trace_store.span_count() as u64);
    for (sid, latencies) in &result.service_latencies {
        eat(sid.index() as u64);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        for l in sorted {
            eat(l.to_bits());
        }
    }
    h
}

struct Scenario {
    app: App,
    workloads: WorkloadVector,
    containers: BTreeMap<MicroserviceId, u32>,
    duration_ms: f64,
}

/// The Taobao-scale scenario: every microservice gets one container and a
/// uniform service-time model; `network_delay_ms` is raised to 1 ms so
/// the conservative windows stay coarse (hundreds of events per window)
/// rather than the 0.1 ms LAN default.
fn scenario(duration_ms: f64, rate_per_min: f64) -> Scenario {
    let g = generate(&SynthConfig::taobao_scale(17));
    let app = g.app;
    let mut workloads = WorkloadVector::new();
    for (sid, _) in app.services() {
        workloads.set(sid, RequestRate::per_minute(rate_per_min));
    }
    let containers: BTreeMap<_, _> = app.microservices().map(|(ms, _)| (ms, 1u32)).collect();
    Scenario {
        app,
        workloads,
        containers,
        duration_ms,
    }
}

fn build_sim(sc: &Scenario, seed: u64) -> Simulation<'_> {
    let mut sim = Simulation::new(
        &sc.app,
        SimConfig {
            duration_ms: sc.duration_ms,
            warmup_ms: 0.0,
            seed,
            trace_sampling: 0.0,
            network_delay_ms: 1.0,
            ..SimConfig::default()
        },
    );
    for (ms, _) in sc.app.microservices() {
        sim.set_service_time(ms, ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5));
    }
    sim.set_uniform_interference(Interference::new(0.2, 0.2));
    sim
}

/// Runs the scenario sharded by `partition`, without telemetry.
fn run_partitioned(
    sim: &Simulation<'_>,
    sc: &Scenario,
    partition: &Partition,
) -> (SimResult, ShardStats) {
    let mut sinks = vec![NullSink; partition.shards()];
    sim.run_sharded_with_partition_and_sinks(
        &sc.workloads,
        &sc.containers,
        &BTreeMap::new(),
        partition,
        &mut sinks,
    )
    .expect("sharded run")
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_shard.json".to_string());

    let (duration_ms, rate_per_min, reps) = if quick {
        (2_000.0, 300.0, 1)
    } else {
        (15_000.0, 600.0, 3)
    };
    let golden = if quick {
        GOLDEN_DIGEST_QUICK
    } else {
        GOLDEN_DIGEST_FULL
    };
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "bench_shard: {duration_ms} ms sim x {reps} reps, {rate_per_min} req/min/service, \
         available_parallelism={avail}{}",
        if quick { ", quick mode" } else { "" }
    );

    let sc = scenario(duration_ms, rate_per_min);
    let nodes: usize = sc.app.services().map(|(_, svc)| svc.graph.len()).sum();
    println!(
        "topology: {} microservices, {} services, {} graph nodes",
        sc.app.microservice_count(),
        sc.app.service_count(),
        nodes
    );
    let sim = build_sim(&sc, 7);
    let modulo = |k: usize| Partition::modulo(sc.app.microservice_count(), k);

    // --- The K × threads scaling grid. ---
    let shard_counts = [1usize, 2, 4, 8];
    let thread_counts = [1usize, 2, 4];
    let mut wall = BTreeMap::new();
    let mut base_digest = None;
    let mut events = 0u64;
    // Interleave reps across cells so host throttling spreads evenly.
    for rep in 0..reps {
        for &t in &thread_counts {
            std::env::set_var("RAYON_NUM_THREADS", t.to_string());
            for &k in &shard_counts {
                let partition = modulo(k);
                let start = Instant::now();
                let (result, _) = run_partitioned(&sim, &sc, &partition);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let slot = wall.entry((k, t)).or_insert(f64::INFINITY);
                *slot = slot.min(ms);
                if rep == 0 {
                    // Bit-identity gate: every cell must equal the first
                    // cell and the pinned golden digest.
                    let d = digest(&result);
                    match base_digest {
                        None => {
                            assert!(
                                golden == 0 || d == golden,
                                "scenario drifted from the pinned golden digest \
                                 (got {d}, pinned {golden})"
                            );
                            if golden == 0 {
                                println!("UNPINNED golden digest: {d}");
                            }
                            base_digest = Some(d);
                            events = result.events;
                        }
                        Some(want) => assert!(
                            d == want,
                            "K={k} threads={t} diverged from the K=1 run ({d} vs {want})"
                        ),
                    }
                }
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let base_wall = wall[&(1, 1)];
    println!("grid ({events} events/run, all cells bit-identical):");
    let mut grid_json = Vec::new();
    for &k in &shard_counts {
        for &t in &thread_counts {
            let w = wall[&(k, t)];
            let speedup = base_wall / w.max(1e-9);
            let eps = events as f64 / (w / 1e3).max(1e-9);
            println!(
                "  K={k} threads={t}: {w:.1} ms wall, {eps:.0} ev/s, {speedup:.2}x vs K=1/T=1"
            );
            grid_json.push(format!(
                "    {{\"shards\": {k}, \"threads\": {t}, \"wall_ms\": {}, \
                 \"events_per_sec\": {}, \"speedup_vs_serial\": {}, \"bit_identical\": true}}",
                json_f(w),
                json_f(eps),
                json_f(speedup)
            ));
        }
    }
    let speedup_4x4 = base_wall / wall[&(4, 4)].max(1e-9);
    let target_checked = avail >= 4;
    if target_checked {
        assert!(
            speedup_4x4 >= 2.5,
            "4-shard/4-thread speedup {speedup_4x4:.2}x misses the 2.5x target \
             on a {avail}-thread host"
        );
    } else {
        println!(
            "speedup target not asserted: host offers {avail} hardware thread(s), \
             4x4 measured {speedup_4x4:.2}x"
        );
    }

    // --- Small single-shard runs must not regress: the fig5 scenario at
    // K=1 vs the sequential engine. Different engines (different RNG
    // streams), so wall-clocks are compared, not bits. ---
    let (small_app, _, [s1, s2]) = fig5_app(300.0);
    let mut small_w = WorkloadVector::new();
    small_w.set(s1, RequestRate::per_minute(20_000.0));
    small_w.set(s2, RequestRate::per_minute(20_000.0));
    let small_cs: BTreeMap<_, _> = small_app
        .microservices()
        .map(|(ms, _)| (ms, 2u32))
        .collect();
    let mut small_sim = Simulation::new(
        &small_app,
        SimConfig {
            duration_ms: if quick { 4_000.0 } else { 20_000.0 },
            warmup_ms: 0.0,
            seed: 7,
            trace_sampling: 0.0,
            ..SimConfig::default()
        },
    );
    for (ms, _) in small_app.microservices() {
        small_sim.set_service_time(ms, ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5));
    }
    let small_reps = if quick { 2 } else { 5 };
    let mut run_wall = f64::INFINITY;
    let mut k1_wall = f64::INFINITY;
    let mut run_events = 0u64;
    let mut k1_events = 0u64;
    let small_one = Partition::modulo(small_app.microservice_count(), 1);
    for _ in 0..small_reps {
        let start = Instant::now();
        let r = small_sim
            .run(&small_w, &small_cs, &BTreeMap::new())
            .expect("sequential run");
        run_wall = run_wall.min(start.elapsed().as_secs_f64() * 1e3);
        run_events = r.events;
        let start = Instant::now();
        let (r, _) = small_sim
            .run_sharded_with_partition_and_sinks(
                &small_w,
                &small_cs,
                &BTreeMap::new(),
                &small_one,
                &mut [NullSink],
            )
            .expect("K=1 run");
        k1_wall = k1_wall.min(start.elapsed().as_secs_f64() * 1e3);
        k1_events = r.events;
    }
    let run_eps = run_events as f64 / (run_wall / 1e3).max(1e-9);
    let k1_eps = k1_events as f64 / (k1_wall / 1e3).max(1e-9);
    println!(
        "small single-shard: run() {run_wall:.1} ms ({run_eps:.0} ev/s) vs \
         sharded K=1 {k1_wall:.1} ms ({k1_eps:.0} ev/s) — sequential \
         engine untouched"
    );

    // --- Modulo vs topology-aware partitioning, serial (T=1). Both sides
    // run the same windows (one window rule), so the comparison isolates
    // the partition quality; every run is asserted bit-identical to the
    // pinned golden before any number is written. ---
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let want = base_digest.expect("grid ran");
    let mut pc_json = Vec::new();
    println!("partition_compare (serial):");
    for &k in &[2usize, 4, 8] {
        let candidates = [
            ("modulo", modulo(k)),
            (
                "topology",
                Partition::topology_aware(&sc.app, &sc.workloads, k),
            ),
        ];
        let mut cells = Vec::new();
        for (name, part) in &candidates {
            let mut best = f64::INFINITY;
            let mut last_stats = None;
            for _ in 0..reps {
                let start = Instant::now();
                let (result, stats) = run_partitioned(&sim, &sc, part);
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
                let d = digest(&result);
                assert!(
                    d == want,
                    "{name} partition at K={k} diverged from the K=1 run ({d} vs {want})"
                );
                last_stats = Some(stats);
            }
            let stats = last_stats.expect("at least one rep");
            let (cut, total) = part.cut_edges(&sc.app);
            println!(
                "  K={k} {name}: cut {:.3} ({cut}/{total} edges), {} windows, {} msgs \
                 ({:.1}/window), {best:.1} ms wall",
                part.cut_edge_fraction(&sc.app),
                stats.windows,
                stats.messages,
                stats.messages_per_window(),
            );
            cells.push((cut, stats, best));
        }
        let (mcut, mstats, mwall) = cells[0];
        let (tcut, tstats, twall) = cells[1];
        let cut_reduction = if mcut == 0 {
            0.0
        } else {
            1.0 - tcut as f64 / mcut as f64
        };
        println!(
            "  K={k}: topology cuts {:.1}% fewer edges, wall {:.2}x of modulo",
            cut_reduction * 100.0,
            twall / mwall.max(1e-9)
        );
        if k == 4 {
            assert!(
                cut_reduction >= 0.40,
                "topology-aware partition at K=4 cut only {:.1}% fewer cross-shard \
                 edges than modulo (target >= 40%)",
                cut_reduction * 100.0
            );
        }
        if !quick {
            assert!(
                twall <= mwall * 1.10,
                "topology-aware partition at K={k} ran {twall:.1} ms vs modulo \
                 {mwall:.1} ms — more than 10% slower despite fewer cut edges"
            );
        }
        assert_eq!(
            mstats.windows, tstats.windows,
            "K={k}: the window sequence must not depend on the partition"
        );
        let cell_json = |part: &Partition, stats: ShardStats, wall: f64| {
            let (cut, total) = part.cut_edges(&sc.app);
            format!(
                "{{\"cut_fraction\": {}, \"cut_edges\": {cut}, \"total_edges\": {total}, \
                 \"windows\": {}, \"messages\": {}, \"messages_per_window\": {}, \
                 \"wall_ms\": {}}}",
                json_f(part.cut_edge_fraction(&sc.app)),
                stats.windows,
                stats.messages,
                json_f(stats.messages_per_window()),
                json_f(wall)
            )
        };
        pc_json.push(format!(
            "    {{\"shards\": {k}, \"modulo\": {}, \"topology\": {}, \
             \"cut_reduction\": {}, \"bit_identical\": true}}",
            cell_json(&candidates[0].1, mstats, mwall),
            cell_json(&candidates[1].1, tstats, twall),
            json_f(cut_reduction)
        ));
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // --- Replication sanity: the fan-out harness still composes with the
    // sharded engine (each replica is itself a K=2 run). ---
    let halves = modulo(2);
    let rep_results = replicate(21, 2, |seed, _| {
        run_partitioned(&build_sim(&sc, seed), &sc, &halves)
            .0
            .events
    });
    assert_eq!(rep_results.len(), 2);

    let frac_json: Vec<String> = [2usize, 4, 8]
        .iter()
        .map(|&k| format!("\"{k}\": {}", json_f(modulo(k).cut_edge_fraction(&sc.app))))
        .collect();
    let json = format!(
        "{{\n  \"env\": {env},\n  \"quick\": {quick},\n  \"topology\": {{\n    \
         \"microservices\": {ms_count},\n    \"services\": {svc_count},\n    \
         \"graph_nodes\": {nodes},\n    \"cross_shard_edge_fraction\": {{{frac}}}\n  }},\n  \
         \"scenario\": {{\n    \"duration_ms\": {duration_ms},\n    \
         \"rate_per_service_per_min\": {rate_per_min},\n    \"network_delay_ms\": 1.0,\n    \
         \"events\": {events},\n    \"golden_digest\": {gd}\n  }},\n  \
         \"grid\": [\n{grid}\n  ],\n  \"partition_compare\": [\n{pc}\n  ],\n  \
         \"single_shard_overhead\": {{\n    \
         \"sequential_wall_ms\": {rw},\n    \"sequential_events_per_sec\": {re},\n    \
         \"sharded_k1_wall_ms\": {kw},\n    \"sharded_k1_events_per_sec\": {ke}\n  }},\n  \
         \"speedup_4shards_4threads\": {s44},\n  \"target_speedup\": 2.5,\n  \
         \"target_checked\": {target_checked}\n}}\n",
        env = erms_bench::env_json(),
        ms_count = sc.app.microservice_count(),
        svc_count = sc.app.service_count(),
        frac = frac_json.join(", "),
        gd = base_digest.expect("grid ran"),
        grid = grid_json.join(",\n"),
        pc = pc_json.join(",\n"),
        rw = json_f(run_wall),
        re = json_f(run_eps),
        kw = json_f(k1_wall),
        ke = json_f(k1_eps),
        s44 = json_f(speedup_4x4),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_shard.json");
    println!("wrote {out_path}");
}
