//! Determinism suite for the sharded parallel DES engine.
//!
//! The sharded engine (`Simulation::run_sharded_with_partition_and_sinks`)
//! must return bit-identical output at every shard count `K` and every
//! thread count. The main test sweeps a matrix of (app, rate, fault
//! plan, seed) configurations across `K ∈ {1, 2, 3, 8}` while forcing 1-,
//! 2- and 4-thread pools in sequence (one `#[test]` holds the whole
//! sweep: `RAYON_NUM_THREADS` is process-global state, and cargo runs
//! tests within a binary concurrently). CI additionally runs this binary
//! under `RAYON_NUM_THREADS=1`, `2` and `4`.

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::{Interference, LatencyProfile};
use erms_core::resources::Resources;
use erms_sim::faults::FaultPlan;
use erms_sim::partition::Partition;
use erms_sim::runtime::{SimConfig, SimResult, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::NullSink;

/// Chain app: s → a → c (sequential).
fn chain_app() -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("shard-chain");
    let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
    let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
    let s = b.service("s", Sla::p95_ms(100.0), |g| {
        let root = g.entry(a);
        g.call_seq(root, c);
    });
    (b.build().unwrap(), vec![a, c], vec![s])
}

/// Shared app: two services contending for one prioritised microservice,
/// with a parallel fan-out stage — covers the priority-class path and
/// joins whose siblings live on different shards.
fn shared_app() -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("shard-shared");
    let u = b.microservice("u", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let h = b.microservice("h", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let p = b.microservice("p", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let q = b.microservice("q", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let s1 = b.service("s1", Sla::p95_ms(100.0), |g| {
        let root = g.entry(u);
        g.call_par(root, &[p, q]);
    });
    let s2 = b.service("s2", Sla::p95_ms(100.0), |g| {
        let root = g.entry(h);
        g.call_seq(root, p);
    });
    (b.build().unwrap(), vec![u, h, p, q], vec![s1, s2])
}

/// Runs `sim` sharded `id % k` over `app`'s microservices, without
/// telemetry.
fn run_modulo(
    sim: &Simulation<'_>,
    app: &App,
    w: &WorkloadVector,
    cs: &BTreeMap<MicroserviceId, u32>,
    priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    k: usize,
) -> erms_core::error::Result<SimResult> {
    let partition = Partition::modulo(app.microservice_count(), k);
    let mut sinks = vec![NullSink; partition.shards()];
    sim.run_sharded_with_partition_and_sinks(w, cs, priorities, &partition, &mut sinks)
        .map(|(result, _)| result)
}

fn containers_for(app: &App, n: u32) -> BTreeMap<MicroserviceId, u32> {
    app.microservices().map(|(ms, _)| (ms, n)).collect()
}

/// Strict bit-level equality of two sharded results.
fn assert_bit_identical(got: &SimResult, want: &SimResult, label: &str) {
    assert_eq!(got.generated, want.generated, "{label}: generated");
    assert_eq!(got.completed, want.completed, "{label}: completed");
    assert_eq!(got.dropped, want.dropped, "{label}: dropped");
    assert_eq!(got.timed_out, want.timed_out, "{label}: timed_out");
    assert_eq!(
        got.crash_violations, want.crash_violations,
        "{label}: crash_violations"
    );
    assert_eq!(
        got.crashed_containers, want.crashed_containers,
        "{label}: crashed_containers"
    );
    assert_eq!(got.lost_spans, want.lost_spans, "{label}: lost_spans");
    assert_eq!(got.events, want.events, "{label}: events");

    let g_keys: Vec<_> = got.service_latencies.keys().collect();
    let w_keys: Vec<_> = want.service_latencies.keys().collect();
    assert_eq!(g_keys, w_keys, "{label}: service-latency key sets");
    for (sid, g_lat) in &got.service_latencies {
        let w_lat = &want.service_latencies[sid];
        assert_eq!(g_lat.len(), w_lat.len(), "{label}: {sid} sample count");
        for (i, (g, w)) in g_lat.iter().zip(w_lat).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: {sid} latency sample {i} diverged ({g} vs {w})"
            );
        }
    }

    let g_keys: Vec<_> = got.ms_own_latencies.keys().collect();
    let w_keys: Vec<_> = want.ms_own_latencies.keys().collect();
    assert_eq!(g_keys, w_keys, "{label}: own-latency key sets");
    for (ms, g_rows) in &got.ms_own_latencies {
        let w_rows = &want.ms_own_latencies[ms];
        assert_eq!(g_rows.len(), w_rows.len(), "{label}: {ms} row count");
        for (i, (g, w)) in g_rows.iter().zip(w_rows).enumerate() {
            assert_eq!(g.0.to_bits(), w.0.to_bits(), "{label}: {ms} row {i} at_ms");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "{label}: {ms} row {i} own");
            assert_eq!(g.2, w.2, "{label}: {ms} row {i} service");
        }
    }

    assert_eq!(
        got.trace_store.trace_count(),
        want.trace_store.trace_count(),
        "{label}: trace count"
    );
    assert_eq!(
        got.trace_store.span_count(),
        want.trace_store.span_count(),
        "{label}: span count"
    );
    for ((g_id, g_spans), (w_id, w_spans)) in got.trace_store.iter().zip(want.trace_store.iter()) {
        assert_eq!(g_id, w_id, "{label}: trace id order");
        assert_eq!(g_spans.len(), w_spans.len(), "{label}: {g_id:?} span count");
        for (g, w) in g_spans.iter().zip(w_spans) {
            assert_eq!(g.span_id, w.span_id, "{label}: {g_id:?} span id order");
            assert_eq!(
                g.start_ms.to_bits(),
                w.start_ms.to_bits(),
                "{label}: {g_id:?} span {:?} start",
                g.span_id
            );
            assert_eq!(
                g.end_ms.to_bits(),
                w.end_ms.to_bits(),
                "{label}: {g_id:?} span {:?} end",
                g.span_id
            );
        }
    }
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        duration_ms: 20_000.0,
        warmup_ms: 2_000.0,
        seed,
        trace_sampling: 0.1,
        ..SimConfig::default()
    }
}

fn fault_plan(ms: MicroserviceId) -> FaultPlan {
    FaultPlan::new()
        .crash(ms, 9_000.0, 1)
        .cold_start(ms, 1, 2_500.0)
        .with_drop_probability(0.05)
        .with_span_loss(0.1)
        .with_deadline_ms(250.0)
}

/// The whole sweep: every (app, rate, faults, seed) cell is run at K = 1
/// and compared bit for bit against K ∈ {2, 3, 8}, under forced 1-, 2-
/// and 4-thread pools.
#[test]
fn sharded_runs_are_bit_identical_across_k_and_threads() {
    type AppBuild = fn() -> (App, Vec<MicroserviceId>, Vec<ServiceId>);
    let apps: [(&str, AppBuild); 2] = [("chain", chain_app), ("shared", shared_app)];
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for (app_name, build) in apps {
            let (app, ms_ids, services) = build();
            let cs = containers_for(&app, 2);
            for rate in [600.0, 9_000.0] {
                for with_faults in [false, true] {
                    let seed = 7u64;
                    let mut sim = Simulation::new(&app, base_config(seed));
                    for &ms in &ms_ids {
                        sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.4, 1.0, 0.5));
                    }
                    sim.set_uniform_interference(Interference::new(0.3, 0.25));
                    if with_faults {
                        sim.set_fault_plan(fault_plan(*ms_ids.last().unwrap()));
                    }
                    let mut w = WorkloadVector::new();
                    for &sid in &services {
                        w.set(sid, RequestRate::per_minute(rate));
                    }
                    let mut priorities = BTreeMap::new();
                    if services.len() > 1 {
                        priorities.insert(ms_ids[2], services.clone());
                    }
                    let base = run_modulo(&sim, &app, &w, &cs, &priorities, 1).unwrap();
                    assert!(base.generated > 0, "sweep cell generated nothing");
                    for k in [2usize, 3, 8] {
                        let label = format!(
                            "{app_name} rate={rate} faults={with_faults} \
                             seed={seed} K={k} threads={threads}"
                        );
                        let sharded = run_modulo(&sim, &app, &w, &cs, &priorities, k).unwrap();
                        assert_bit_identical(&sharded, &base, &label);
                    }
                }
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// The sharded engine consumes different RNG streams than `run`, so its
/// results differ bit-wise — but they must agree statistically: same
/// arrival law, same service-time law, same completion behaviour.
#[test]
fn sharded_engine_agrees_statistically_with_sequential_run() {
    let (app, ms_ids, services) = chain_app();
    let cs = containers_for(&app, 4);
    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms: 60_000.0,
            warmup_ms: 5_000.0,
            seed: 11,
            ..SimConfig::default()
        },
    );
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.3, 1.0, 0.5));
    }
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(6_000.0));
    let seq = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
    let sharded = run_modulo(&sim, &app, &w, &cs, &BTreeMap::new(), 2).unwrap();
    let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b as f64);
    assert!(
        rel(sharded.generated, seq.generated) < 0.1,
        "generated diverged: sharded {} vs sequential {}",
        sharded.generated,
        seq.generated
    );
    assert!(
        rel(sharded.completed, seq.completed) < 0.1,
        "completed diverged: sharded {} vs sequential {}",
        sharded.completed,
        seq.completed
    );
    let p95 = |r: &SimResult| r.latency_percentile(services[0], 0.95);
    let (a, b) = (p95(&sharded), p95(&seq));
    assert!(
        (a - b).abs() / b < 0.25,
        "P95 diverged: sharded {a:.2} vs sequential {b:.2}"
    );
}

/// A host failure whose losses span microservices on *different* shards
/// (the in-sim lowering of `ClusterFault::FailDomain`) must cordon and
/// kill all its containers atomically within one sync window: the K = 2
/// run — where the loss map splits across both shards — must equal the
/// K = 1 run bit for bit, and the full domain must be down afterwards.
#[test]
fn domain_failure_spanning_shards_is_atomic() {
    let (app, ms_ids, services) = shared_app();
    let cs = containers_for(&app, 3);
    let mut config = base_config(99);
    config.trace_sampling = 1.0;
    let mut sim = Simulation::new(&app, config);
    // ms_ids[1] ("h") and ms_ids[2] ("p") have different shard parity
    // under K = 2, so this one fault event owns containers on both shards.
    let halves = Partition::modulo(app.microservice_count(), 2);
    assert_ne!(
        halves.shard_of(ms_ids[1]),
        halves.shard_of(ms_ids[2]),
        "fixture must span both shards"
    );
    let mut losses = BTreeMap::new();
    losses.insert(ms_ids[1], 1u32);
    losses.insert(ms_ids[2], 2u32);
    sim.set_fault_plan(FaultPlan::new().host_failure(8_000.0, losses));
    let mut w = WorkloadVector::new();
    for &sid in &services {
        w.set(sid, RequestRate::per_minute(6_000.0));
    }
    let base = run_modulo(&sim, &app, &w, &cs, &BTreeMap::new(), 1).unwrap();
    assert_eq!(base.crashed_containers, 3, "domain not fully killed");
    for k in [2usize, 4] {
        let sharded = run_modulo(&sim, &app, &w, &cs, &BTreeMap::new(), k).unwrap();
        assert_bit_identical(&sharded, &base, &format!("domain-failure K={k}"));
    }
}

/// A zero (or negative, or sub-ULP) network delay gives the conservative
/// protocol no lookahead; the sharded engine must reject it rather than
/// silently serialise or deadlock.
#[test]
fn degenerate_lookahead_is_rejected() {
    let (app, _, services) = chain_app();
    let cs = containers_for(&app, 2);
    for bad_net in [0.0, -1.0, f64::NAN] {
        let mut config = base_config(1);
        config.network_delay_ms = bad_net;
        let sim = Simulation::new(&app, config);
        let mut w = WorkloadVector::new();
        w.set(services[0], RequestRate::per_minute(600.0));
        let err = run_modulo(&sim, &app, &w, &cs, &BTreeMap::new(), 2);
        assert!(err.is_err(), "net={bad_net} must be rejected");
    }
}

/// `shards = 0` is invalid: no partition can be built with zero shards
/// (`modulo` clamps to one), and the engine rejects a partition or sink
/// list that does not fit the app.
#[test]
fn zero_shards_is_rejected() {
    let (app, _, services) = chain_app();
    let n = app.microservice_count();
    assert!(Partition::from_assignment(vec![0; n], 0).is_err());
    assert_eq!(Partition::modulo(n, 0).shards(), 1);
    let cs = containers_for(&app, 2);
    let sim = Simulation::new(&app, base_config(1));
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(600.0));
    let empty = BTreeMap::new();
    let short = Partition::modulo(n - 1, 1);
    let mut one = [NullSink];
    assert!(sim
        .run_sharded_with_partition_and_sinks(&w, &cs, &empty, &short, &mut one)
        .is_err());
    let two = Partition::modulo(n, 2);
    assert!(sim
        .run_sharded_with_partition_and_sinks(&w, &cs, &empty, &two, &mut one)
        .is_err());
}
