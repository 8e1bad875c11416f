//! Property tests for the topology-aware partitioner and the sharded
//! engine under arbitrary partitions.
//!
//! Two oracles:
//!
//! 1. **Partitioner invariants** — for random synthetic topologies and
//!    workloads, every [`Partition::topology_aware`] table is *total*
//!    (covers every microservice, every entry in range), *balanced*
//!    (max shard weight within the documented envelope
//!    `max(avg × (1 + tol), avg + w_max)`), and *deterministic*
//!    (repeated calls are equal — it is a pure function, so equality is
//!    exact, not approximate).
//! 2. **Bit-identity** — `run_sharded_with_partition_and_sinks` equals
//!    the K=1 run field for field, `f64` bit for `f64` bit, and executes
//!    the same number of windows, for random apps × partition kinds
//!    (modulo, topology-aware, arbitrary random tables) × fault plans ×
//!    1/2/4 threads — partitions the modulo goldens never see.
//!
//! Everything lives in one `#[test]` per oracle: `RAYON_NUM_THREADS` is
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
use erms_trace::synth::{generate, SynthConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct AppSpec {
    instructions: Vec<(u16, u8)>,
    rate_per_min: f64,
    with_faults: bool,
    seed: u64,
    shards: usize,
    threads: u8,
    /// 0 = modulo, 1 = topology-aware, 2+ = random assignment (the value
    /// seeds the table).
    partition_kind: u8,
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec((any::<u16>(), 0u8..4), 0..8),
        100.0f64..6_000.0,
        any::<bool>(),
        any::<u64>(),
        1usize..=8,
        (0u8..3).prop_map(|e| 1u8 << e),
        0u8..8,
    )
        .prop_map(
            |(instructions, rate_per_min, with_faults, seed, shards, threads, partition_kind)| {
                AppSpec {
                    instructions,
                    rate_per_min,
                    with_faults,
                    seed,
                    shards,
                    threads,
                    partition_kind,
                }
            },
        )
}

/// Builds the app described by a spec: two services sharing one
/// microservice pool, so requests routinely cross shard boundaries.
fn build_app(spec: &AppSpec) -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("partition-prop");
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

/// The partition under test for a spec: modulo, topology-aware, or an
/// arbitrary (but deterministic) random-looking table — bit-identity must
/// hold under *any* partition, not just the ones the partitioner emits.
fn build_partition(spec: &AppSpec, app: &App, workloads: &WorkloadVector) -> Partition {
    let n = app.microservice_count();
    match spec.partition_kind {
        0 => Partition::modulo(n, spec.shards),
        1 => Partition::topology_aware(app, workloads, spec.shards),
        k => {
            let mix = |i: usize| {
                let mut z = (i as u64)
                    .wrapping_add(u64::from(k))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ spec.seed;
                z ^= z >> 31;
                (z % spec.shards as u64) as u32
            };
            Partition::from_assignment((0..n).map(mix).collect(), spec.shards).unwrap()
        }
    }
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

/// Runs `sim` sharded by `partition`, without telemetry.
fn run_partitioned(
    sim: &Simulation<'_>,
    w: &WorkloadVector,
    containers: &BTreeMap<MicroserviceId, u32>,
    partition: &Partition,
) -> (SimResult, ShardStats) {
    let mut sinks = vec![NullSink; partition.shards()];
    sim.run_sharded_with_partition_and_sinks(w, containers, &BTreeMap::new(), partition, &mut sinks)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topology_aware_partitions_are_total_balanced_and_pure(
        ms_count in 8usize..200,
        topo_seed in any::<u64>(),
        rate_per_min in 1.0f64..100_000.0,
        shards in 1usize..=8,
    ) {
        let g = generate(&SynthConfig::scaled(ms_count, topo_seed));
        let mut w = WorkloadVector::new();
        for (sid, _) in g.app.services() {
            w.set(sid, RequestRate::per_minute(rate_per_min));
        }
        let p = Partition::topology_aware(&g.app, &w, shards);
        // Total: one entry per microservice, all in range.
        prop_assert_eq!(p.len(), g.app.microservice_count());
        prop_assert!(p.assignment().iter().all(|&s| (s as usize) < shards));
        // Balanced: within the documented envelope on the exact weights
        // the partitioner used.
        let (load, limit) = p.balance_report(&g.app, &w);
        let max = load.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(
            max <= limit * (1.0 + 1e-9),
            "K={shards}: max load {max} over envelope {limit} ({load:?})"
        );
        // Pure: repeated runs produce the identical table.
        prop_assert_eq!(p, Partition::topology_aware(&g.app, &w, shards));
    }

    #[test]
    fn partitioned_runs_match_unsharded_window_for_window(spec in app_spec()) {
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
        let partition = build_partition(&spec, &app, &w);
        let one = Partition::modulo(app.microservice_count(), 1);
        let (base, base_stats) = run_partitioned(&sim, &w, &containers, &one);
        let (sharded, stats) = run_partitioned(&sim, &w, &containers, &partition);
        let (got, want) = (digest(&sharded), digest(&base));
        prop_assert!(
            got == want,
            "kind={} K={} threads={} diverged from K=1 ({got:#x} vs {want:#x}; stats {stats:?})",
            spec.partition_kind,
            spec.shards,
            spec.threads
        );
        // One window rule: the window sequence is the global schedule's,
        // whatever the partition cuts.
        prop_assert!(
            stats.windows == base_stats.windows,
            "kind={} K={} threads={}: {} windows vs {} at K=1",
            spec.partition_kind,
            spec.shards,
            spec.threads,
            stats.windows,
            base_stats.windows
        );
        // Messages only cross cut edges.
        if partition.cut_edges(&app).0 == 0 {
            prop_assert_eq!(stats.messages, 0);
        }
    }
}
