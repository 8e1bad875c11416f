//! Integration: discrete-event simulation → span extraction → per-minute
//! aggregation → piecewise profiling (the Tracing Coordinator + Offline
//! Profiling pipeline of Fig. 6).

use std::collections::BTreeMap;

use erms::core::prelude::*;
use erms::profilers::dataset::Sample;
use erms::profilers::metrics::accuracy;
use erms::profilers::piecewise::PiecewiseFitter;
use erms::sim::runtime::{SimConfig, Simulation};
use erms::sim::service_time::ServiceTimeModel;
use erms::trace::aggregate::per_minute_observations;
use erms::trace::extract::{extract_trace_graph, merge_service_graphs, own_latencies};

fn two_tier_app() -> (App, [MicroserviceId; 2], ServiceId) {
    let mut b = AppBuilder::new("pipeline");
    let front = b.microservice(
        "front",
        LatencyProfile::linear(0.001, 1.0),
        Resources::default(),
    );
    let back = b.microservice(
        "back",
        LatencyProfile::linear(0.001, 1.0),
        Resources::default(),
    );
    let svc = b.service("api", Sla::p95_ms(100.0), |g| {
        let root = g.entry(front);
        g.call_seq(root, back);
    });
    (b.build().unwrap(), [front, back], svc)
}

fn run_sim(
    app: &App,
    svc: ServiceId,
    rate: f64,
    seed: u64,
    containers: &BTreeMap<MicroserviceId, u32>,
) -> erms::sim::SimResult {
    let mut sim = Simulation::new(
        app,
        SimConfig {
            duration_ms: 260_000.0,
            warmup_ms: 20_000.0,
            seed,
            trace_sampling: 0.2,
            default_threads: 2,
            ..SimConfig::default()
        },
    );
    for (ms, _) in app.microservices() {
        sim.set_service_time(ms, ServiceTimeModel::new(2.5, 0.5, 1.0, 0.8));
    }
    sim.set_uniform_interference(Interference::new(0.3, 0.3));
    let mut w = WorkloadVector::new();
    w.set(svc, RequestRate::per_minute(rate));
    sim.run(&w, containers, &BTreeMap::new()).unwrap()
}

#[test]
fn traces_reconstruct_the_dependency_graph() {
    let (app, [front, back], svc) = two_tier_app();
    let containers: BTreeMap<_, _> = [(front, 1u32), (back, 1)].into_iter().collect();
    let result = run_sim(&app, svc, 3_000.0, 1, &containers);
    assert!(result.trace_store.trace_count() > 20);
    // Single-trace extraction.
    let (_, spans) = result.trace_store.iter().next().unwrap();
    let extracted = extract_trace_graph(spans).expect("root span exists");
    assert_eq!(extracted.graph.len(), 2);
    assert_eq!(
        extracted.graph.node(extracted.graph.root()).microservice,
        front
    );
    // Multi-trace union matches too.
    let traces: Vec<&[erms::trace::span::Span]> =
        result.trace_store.iter().map(|(_, s)| s).collect();
    let merged = merge_service_graphs(traces).expect("traces exist");
    assert_eq!(merged.graph.len(), 2);
}

#[test]
fn eq1_latencies_compose_to_end_to_end() {
    // The sum of extracted own-latencies along the chain must equal the
    // root server span duration (within network delays).
    let (app, [front, back], svc) = two_tier_app();
    let containers: BTreeMap<_, _> = [(front, 1u32), (back, 1)].into_iter().collect();
    let result = run_sim(&app, svc, 3_000.0, 2, &containers);
    let (_, spans) = result.trace_store.iter().next().unwrap();
    let obs = own_latencies(spans);
    let total_own: f64 = obs.iter().map(|o| o.latency_ms).sum();
    let root = erms::trace::extract::root_span(spans).unwrap();
    let e2e = root.duration_ms();
    assert!(
        (total_own - e2e).abs() < 1.0,
        "own latencies {total_own} vs e2e {e2e} (front={front:?}, back={back:?})"
    );
}

#[test]
fn profiling_recovers_the_latency_curve() {
    let (app, [front, back], svc) = two_tier_app();
    let containers: BTreeMap<_, _> = [(front, 1u32), (back, 1)].into_iter().collect();
    let itf = Interference::new(0.3, 0.3);
    // Capacity: 2 threads / (2.5ms * slowdown 1.54) ≈ 31k calls/min.
    let mut samples: Vec<Sample> = Vec::new();
    let mut truth_points: Vec<(f64, f64)> = Vec::new();
    for (i, rate) in [4_000.0, 9_000.0, 14_000.0, 19_000.0, 24_000.0, 28_000.0]
        .into_iter()
        .enumerate()
    {
        let result = run_sim(&app, svc, rate, 10 + i as u64, &containers);
        let mut observations = Vec::new();
        for (_, spans) in result.trace_store.iter() {
            observations.extend(own_latencies(spans));
        }
        let minute_obs = per_minute_observations(&observations, &containers, itf, 0.95);
        for o in &minute_obs {
            if o.microservice == back && o.samples >= 30 {
                // Scale the sampled per-container rate back up by the
                // sampling factor.
                samples.push(Sample::new(
                    o.p95_ms,
                    o.calls_per_container / 0.2,
                    o.cpu,
                    o.mem,
                ));
            }
        }
        let back_lat: Vec<f64> = result.ms_own_latencies[&back]
            .iter()
            .map(|(_, l, _)| *l)
            .collect();
        truth_points.push((rate, erms::core::stats::percentile(&back_lat, 0.95)));
        let _ = front;
    }
    let profile = PiecewiseFitter::default()
        .fit(&samples)
        .expect("enough samples");
    let truths: Vec<f64> = truth_points.iter().map(|(_, t)| *t).collect();
    let fits: Vec<f64> = truth_points
        .iter()
        .map(|(r, _)| profile.eval(*r, itf))
        .collect();
    let acc = accuracy(&truths, &fits);
    assert!(
        acc > 0.6,
        "profiling accuracy {acc}: truths {truths:?} fits {fits:?}"
    );
}

#[test]
fn sampled_store_is_a_subset_of_full_store() {
    let (app, [front, back], svc) = two_tier_app();
    let containers: BTreeMap<_, _> = [(front, 2u32), (back, 2)].into_iter().collect();
    let result = run_sim(&app, svc, 6_000.0, 3, &containers);
    // 20% sampling of ~8k requests.
    let expected = result.completed as f64 * 0.2;
    let kept = result.trace_store.trace_count() as f64;
    assert!(
        (kept - expected).abs() < expected * 0.25,
        "kept {kept}, expected ~{expected}"
    );
}
