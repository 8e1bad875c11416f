//! Property test: sharded runs are bit-identical to unsharded across
//! random (app, rate, fault plan, seed, K, thread count) tuples.
//!
//! The deterministic suite (`shard_determinism.rs`) sweeps a fixed
//! matrix; this one drives the same oracle — the `id % K` run equals the
//! K=1 run, field for field, `f64` bit for `f64` bit, in the same number
//! of windows — from
//! randomly grown dependency trees with random call multiplicities
//! (including fractional ones), random workloads and random fault plans.
//! Everything lives in one `#[test]`: `RAYON_NUM_THREADS` is
//! process-global state and cases mutate it.

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;
use erms_sim::faults::FaultPlan;
use erms_sim::partition::Partition;
use erms_sim::runtime::{SimConfig, SimResult, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::{NullSink, ShardStats};
use proptest::prelude::*;

/// Growth instructions for a random two-service app over a shared pool of
/// microservices: each instruction hangs a child (sequential, parallel
/// pair, or fractional / multi-call) off an existing node.
#[derive(Debug, Clone)]
struct AppSpec {
    instructions: Vec<(u16, u8)>,
    rate_per_min: f64,
    with_faults: bool,
    seed: u64,
    shards: usize,
    threads: u8,
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec((any::<u16>(), 0u8..4), 0..8),
        100.0f64..6_000.0,
        any::<bool>(),
        any::<u64>(),
        1usize..=8,
        1u8..=4,
    )
        .prop_map(
            |(instructions, rate_per_min, with_faults, seed, shards, threads)| AppSpec {
                instructions,
                rate_per_min,
                with_faults,
                seed,
                shards,
                threads,
            },
        )
}

/// Builds the app described by a spec: two services sharing one
/// microservice pool, so requests routinely cross shard boundaries.
fn build_app(spec: &AppSpec) -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("shard-prop");
    let pool: Vec<MicroserviceId> = (0..6)
        .map(|i| {
            b.microservice(
                format!("m{i}"),
                LatencyProfile::linear(0.01, 1.0),
                Resources::default(),
            )
        })
        .collect();
    let mut services = Vec::new();
    for (si, root_ms) in [(0usize, pool[0]), (1, pool[1])] {
        let instructions = spec.instructions.clone();
        let pool = pool.clone();
        services.push(b.service(format!("s{si}"), Sla::p95_ms(200.0), move |g| {
            let root = g.entry(root_ms);
            let mut nodes = vec![root];
            for (sel, kind) in instructions {
                let parent = nodes[(sel as usize) % nodes.len()];
                let ms = pool[(sel as usize / 7) % pool.len()];
                match kind {
                    0 => nodes.push(g.call_seq(parent, ms)),
                    1 => {
                        let other = pool[(sel as usize / 11) % pool.len()];
                        nodes.extend(g.call_par(parent, &[ms, other]));
                    }
                    2 => nodes.push(g.call_seq_n(parent, ms, 2.0)),
                    _ => nodes.push(g.call_seq_n(parent, ms, 0.4)),
                }
            }
        }));
    }
    (b.build().unwrap(), pool, services)
}

/// Compact FNV-1a digest over every deterministic field of a result.
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
    for (sid, latencies) in &result.service_latencies {
        eat(sid.index() as u64);
        eat(latencies.len() as u64);
        for l in latencies {
            eat(l.to_bits());
        }
    }
    for (ms, rows) in &result.ms_own_latencies {
        eat(ms.index() as u64);
        eat(rows.len() as u64);
        for (at, own, sid) in rows {
            eat(at.to_bits());
            eat(own.to_bits());
            eat(sid.index() as u64);
        }
    }
    for (id, spans) in result.trace_store.iter() {
        eat(id.0);
        eat(spans.len() as u64);
        for s in spans {
            eat(s.span_id.0);
            eat(s.start_ms.to_bits());
            eat(s.end_ms.to_bits());
        }
    }
    h
}

/// Runs `sim` sharded `id % k` over `app`'s microservices, without
/// telemetry.
fn run_modulo(
    sim: &Simulation<'_>,
    app: &App,
    w: &WorkloadVector,
    containers: &BTreeMap<MicroserviceId, u32>,
    k: usize,
) -> (SimResult, ShardStats) {
    let partition = Partition::modulo(app.microservice_count(), k);
    let mut sinks = vec![NullSink; partition.shards()];
    sim.run_sharded_with_partition_and_sinks(
        w,
        containers,
        &BTreeMap::new(),
        &partition,
        &mut sinks,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_sharded_runs_match_unsharded(spec in app_spec()) {
        std::env::set_var("RAYON_NUM_THREADS", spec.threads.to_string());
        let (app, pool, services) = build_app(&spec);
        let mut sim = Simulation::new(&app, SimConfig {
            duration_ms: 6_000.0,
            warmup_ms: 500.0,
            seed: spec.seed,
            trace_sampling: 0.2,
            ..SimConfig::default()
        });
        for &ms in &pool {
            sim.set_service_time(ms, ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5));
        }
        if spec.with_faults {
            let mut losses = BTreeMap::new();
            losses.insert(pool[2], 1u32);
            losses.insert(pool[3], 1u32);
            sim.set_fault_plan(
                FaultPlan::new()
                    .crash(pool[0], 3_000.0, 1)
                    .host_failure(4_000.0, losses)
                    .with_drop_probability(0.02)
                    .with_span_loss(0.05)
                    .with_deadline_ms(400.0),
            );
        }
        let containers: BTreeMap<_, _> = pool.iter().map(|&ms| (ms, 2u32)).collect();
        let mut w = WorkloadVector::new();
        for &sid in &services {
            w.set(sid, RequestRate::per_minute(spec.rate_per_min));
        }
        let (base, base_stats) = run_modulo(&sim, &app, &w, &containers, 1);
        let (sharded, stats) = run_modulo(&sim, &app, &w, &containers, spec.shards);
        let (got, want) = (digest(&sharded), digest(&base));
        prop_assert!(
            got == want,
            "K={} threads={} diverged from K=1 ({got:#x} vs {want:#x})",
            spec.shards,
            spec.threads
        );
        prop_assert_eq!(stats.windows, base_stats.windows);
    }
}
