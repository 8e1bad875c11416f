//! Small deterministic helpers: the seeded generator that makes every
//! input, the FNV-1a output digest, and the percentile rules the report
//! uses.

use std::collections::BTreeMap;

use erms_core::autoscaler::ScalingPlan;
use erms_core::prelude::{App, MicroserviceId, ServiceId};

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone and never on a library RNG that a later change might
/// alter.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one labelled stream of one seed.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut g = Self(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// What a simulation window is run with: containers per microservice and
/// the priority order at every prioritised shared microservice.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    pub containers: BTreeMap<MicroserviceId, u32>,
    pub priorities: BTreeMap<MicroserviceId, Vec<ServiceId>>,
}

impl Deployment {
    pub fn of(app: &App, plan: &ScalingPlan) -> Self {
        let containers = app
            .microservices()
            .map(|(ms, _)| (ms, plan.containers(ms).max(1)))
            .collect();
        let priorities = app
            .microservices()
            .filter_map(|(ms, _)| plan.priority_order(ms).map(|o| (ms, o.to_vec())))
            .collect();
        Self {
            containers,
            priorities,
        }
    }

    pub fn total_containers(&self) -> u64 {
        self.containers.values().map(|&c| u64::from(c)).sum()
    }

    pub fn hash_into(&self, d: &mut Digest) {
        for (ms, &c) in &self.containers {
            d.eat(ms.index() as u64);
            d.eat(u64::from(c));
        }
        for (ms, order) in &self.priorities {
            d.eat(ms.index() as u64 | 1 << 40);
            for sid in order {
                d.eat(sid.index() as u64);
            }
        }
    }

    /// The correctness gate's own test: one extra container on the first
    /// microservice, so the digest must no longer match.
    pub fn perturb(&mut self) {
        if let Some(c) = self.containers.values_mut().next() {
            *c += 1;
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and tail of a sample: the tail is the highest percentile that
/// still leaves at least ten samples above it (none below 20 samples).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub count: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = percentile(&sorted, 0.5);
    if n < 20 {
        return Summary {
            p50,
            tail: f64::NAN,
            tail_pct: f64::NAN,
            count: n,
        };
    }
    // Rank n-10 (1-based) leaves exactly ten samples above it.
    let rank = n - 10;
    Summary {
        p50,
        tail: sorted[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
        count: n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// SLA outcome of simulated `(service, window)` cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlaCells {
    /// Cells with at least one completion.
    pub cells: u64,
    /// Cells whose P95 exceeds the service's SLA.
    pub violations: u64,
    /// Sum over cells of P95 / SLA.
    pub p95_share_sum: f64,
}

/// Hashes each service's sorted window latencies into `d` and scores the
/// cells against the services' SLAs.
pub fn hash_latencies(
    app: &App,
    latencies: &BTreeMap<ServiceId, Vec<f64>>,
    d: &mut Digest,
    sla: &mut SlaCells,
) {
    for (sid, lat) in latencies {
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        d.eat(sid.index() as u64);
        d.eat(sorted.len() as u64);
        for &l in &sorted {
            d.eat_f64(l);
        }
        if sorted.is_empty() {
            continue;
        }
        let threshold = app
            .service(*sid)
            .map_or(f64::INFINITY, |s| s.sla.threshold_ms);
        let p95 = percentile(&sorted, 0.95);
        sla.cells += 1;
        sla.violations += u64::from(p95 > threshold);
        sla.p95_share_sum += p95 / threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert!(summarize(&xs[..19]).tail.is_nan());
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::stream(7, 1).next_u64(),
            SplitMix::stream(7, 2).next_u64()
        );
    }
}
