//! Cross-crate statistics agreement.
//!
//! Every crate that answers a percentile/mean question must answer it
//! through the shared `erms_core::stats` implementation (one documented
//! nearest-rank quantile definition). This suite pins the public entry
//! points against each other — `erms_trace::aggregate::percentile`
//! (delegating, in-place sort), `SimResult::latency_percentile` and its
//! sorted `PercentileView` — on common fixtures including the empty and
//! single-sample edge cases.

use std::collections::BTreeMap;

use erms::core::ids::ServiceId;
use erms::core::stats;
use erms::sim::SimResult;
use erms::trace::aggregate;
use erms::trace::store::TraceStore;

/// A simulation result holding `samples` as service 0's latencies.
fn sim_result(samples: &[f64]) -> SimResult {
    SimResult {
        service_latencies: BTreeMap::from([(ServiceId::new(0), samples.to_vec())]),
        ms_own_latencies: BTreeMap::new(),
        trace_store: TraceStore::new(),
        generated: 0,
        completed: 0,
        dropped: 0,
        timed_out: 0,
        crash_violations: 0,
        crashed_containers: 0,
        reclaimed_containers: 0,
        lost_spans: 0,
        events: 0,
    }
}

/// Service 0's percentile through both `SimResult` entry points, which
/// must agree with each other bit for bit.
fn sim_percentile(samples: &[f64], p: f64) -> f64 {
    let result = sim_result(samples);
    let direct = result.latency_percentile(ServiceId::new(0), p);
    let viewed = result
        .percentile_view()
        .latency_percentile(ServiceId::new(0), p);
    assert_eq!(direct.to_bits(), viewed.to_bits(), "p={p}: percentile view");
    direct
}

fn fixtures() -> Vec<Vec<f64>> {
    vec![
        vec![],
        vec![3.25],
        vec![2.0, 1.0],
        (1..=20).map(|i| i as f64).collect(),
        // Pseudo-shuffled with duplicates.
        (0..257).map(|i| ((i * 7919) % 263) as f64 * 0.5).collect(),
    ]
}

const PS: [f64; 8] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];

#[test]
fn percentile_entry_points_agree_bit_for_bit() {
    for (fi, v) in fixtures().into_iter().enumerate() {
        for p in PS {
            let core = stats::percentile(&v, p);
            // The simulator's result accessors.
            let sim = sim_percentile(&v, p);
            // erms-trace sorts in place, then selects the same rank.
            let mut scratch = v.clone();
            let trace = aggregate::percentile(&mut scratch, p);
            // Sorted-query path.
            let mut sorted = v.clone();
            stats::sort_samples(&mut sorted);
            let via_sorted = stats::percentile_sorted(&sorted, p);
            assert_eq!(core.to_bits(), sim.to_bits(), "fixture {fi}, p={p}: sim");
            assert_eq!(
                core.to_bits(),
                trace.to_bits(),
                "fixture {fi}, p={p}: trace"
            );
            assert_eq!(
                core.to_bits(),
                via_sorted.to_bits(),
                "fixture {fi}, p={p}: sorted"
            );
        }
    }
}

#[test]
fn empty_input_is_zero_everywhere() {
    assert_eq!(stats::percentile(&[], 0.95), 0.0);
    assert_eq!(sim_percentile(&[], 0.95), 0.0);
    assert_eq!(aggregate::percentile(&mut [], 0.95), 0.0);
    assert_eq!(stats::percentile_sorted(&[], 0.95), 0.0);
    assert_eq!(stats::mean(&[]), 0.0);
    assert_eq!(stats::variance(&[]), 0.0);
    assert_eq!(stats::pearson(&[], &[]), 0.0);
    assert_eq!(stats::fraction_above(&[], 1.0), 0.0);
    assert_eq!(stats::fraction_above_sorted(&[], 1.0), 0.0);
}

#[test]
fn single_sample_is_every_percentile_everywhere() {
    for p in PS {
        assert_eq!(stats::percentile(&[3.25], p), 3.25, "core p={p}");
        assert_eq!(sim_percentile(&[3.25], p), 3.25, "sim p={p}");
        assert_eq!(aggregate::percentile(&mut [3.25], p), 3.25, "trace p={p}");
        assert_eq!(stats::percentile_sorted(&[3.25], p), 3.25, "sorted p={p}");
    }
    // Correlation of single-sample series is undefined → 0 by definition.
    assert_eq!(stats::pearson(&[1.0], &[2.0]), 0.0);
    assert_eq!(stats::variance(&[5.0]), 0.0);
}

#[test]
fn moments_agree_with_naive_formulas() {
    for (fi, v) in fixtures().into_iter().enumerate() {
        if v.is_empty() {
            continue;
        }
        let naive_mean = v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(
            stats::mean(&v).to_bits(),
            naive_mean.to_bits(),
            "fixture {fi}"
        );
        let naive_var = v.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert_eq!(
            stats::variance(&v).to_bits(),
            naive_var.to_bits(),
            "fixture {fi}"
        );
    }
}
