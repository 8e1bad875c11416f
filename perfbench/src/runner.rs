//! The measurement loop shared by every workload: time rounds until the
//! run's seconds are spent, fold each round's outputs into the digest,
//! and keep the counters of the checked rounds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use erms_core::prelude::{App, ServiceId};

use crate::trace::{Tracer, ROUND};
use crate::util::{hash_latencies, Deployment, Digest, SlaCells};

/// Named sums (counters of the checked rounds, set-up timings).
#[derive(Debug, Clone, Default)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, x: f64) {
        *self.0.entry(name).or_insert(0.0) += x;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Client-side view of one HTTP endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct Endpoint {
    pub calls: u64,
    pub total_ms: f64,
}

/// Host-time samples and operation outcomes of a run.
#[derive(Debug, Default)]
pub struct Measure {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub ingest_ms: Vec<f64>,
    pub replan_ms: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Client-side times per endpoint over the whole run.
    pub http: BTreeMap<&'static str, Endpoint>,
    /// Non-2xx replies that count as failures.
    pub non2xx: u64,
    /// The open-loop reader's 503s during reload drains, each retried.
    pub retries: u64,
    /// How long the open-loop reader ran.
    pub reader_s: f64,
}

impl Measure {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn http_call(&mut self, endpoint: &'static str, ms: f64) {
        let e = self.http.entry(endpoint).or_default();
        e.calls += 1;
        e.total_ms += ms;
    }

    /// Folds another thread's measure (the open-loop reader's) into this.
    pub fn absorb(&mut self, other: Measure) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.read_ms.extend(other.read_ms);
        self.late_ms.extend(other.late_ms);
        for (name, e) in other.http {
            let mine = self.http.entry(name).or_default();
            mine.calls += e.calls;
            mine.total_ms += e.total_ms;
        }
        self.non2xx += other.non2xx;
        self.retries += other.retries;
        self.reader_s += other.reader_s;
    }
}

/// What a round hands to the correctness gate: for each simulated
/// window, the tenant it belongs to, the deployment it ran and the
/// per-service end-to-end latencies it produced.
#[derive(Debug, Default)]
pub struct RoundCheck {
    pub windows: Vec<(usize, Deployment, BTreeMap<ServiceId, Vec<f64>>)>,
}

/// One closed control loop.
pub trait Loop {
    /// The application whose SLAs judge `tenant`'s windows.
    fn app(&self, tenant: usize) -> &App;

    /// Runs round `round` (counted from 0 within an episode). `counts` is
    /// `Some` in the first episode, whose counters are reported.
    fn round(
        &mut self,
        round: u64,
        tracer: &mut Tracer,
        m: &mut Measure,
        counts: Option<&mut Counts>,
    ) -> RoundCheck;

    /// Returns the loop to its post-set-up state before an episode.
    fn reset(&mut self, m: &mut Measure);

    /// Called once before the first timed round and once after the last.
    fn start(&mut self) {}
    fn stop(&mut self, _m: &mut Measure) {}
}

/// Result of the first episode's rounds, the checked ones.
#[derive(Debug, Default)]
pub struct Checked {
    pub rounds: u64,
    pub digest: u64,
    pub containers_mean: f64,
    pub sla: SlaCells,
}

#[derive(Debug, Default)]
pub struct Driven {
    pub checked: Checked,
    pub counts: Counts,
    pub rounds_ms: Vec<f64>,
    pub traced_rounds_ms: Vec<f64>,
    pub measure: Measure,
    pub tracer: Option<Tracer>,
    pub episodes: u64,
    /// Peak live heap up to the end of the checked rounds: a fixed amount
    /// of work, so the figure does not grow with the rounds a fast build
    /// fits into the run.
    pub peak_heap_mb: f64,
}

#[derive(Default)]
struct Accum {
    digest: Digest,
    containers: u64,
    sla: SlaCells,
    rounds: u64,
}

impl Accum {
    fn fold(&mut self, lp: &dyn Loop, check: &RoundCheck) {
        self.rounds += 1;
        for (tenant, dep, lat) in &check.windows {
            self.digest.eat(*tenant as u64);
            dep.hash_into(&mut self.digest);
            self.containers += dep.total_containers();
            hash_latencies(lp.app(*tenant), lat, &mut self.digest, &mut self.sla);
        }
    }

    fn finish(self) -> Checked {
        Checked {
            rounds: self.rounds,
            digest: self.digest.value(),
            containers_mean: self.containers as f64 / self.rounds.max(1) as f64,
            sla: self.sla,
        }
    }
}

/// Runs `lp` in episodes of `rounds` rounds until `seconds` have passed
/// (at least one episode, so `seconds` of 0 runs only the checked
/// rounds). The loop is reset before each episode, and every episode
/// must reproduce the first one's digest. With `trace`, every other
/// round is recorded, so traced and untraced rounds interleave and their
/// medians give the tracing overhead.
pub fn drive(lp: &mut dyn Loop, rounds: u64, seconds: f64, trace: bool) -> Driven {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut out = Driven::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut first: Option<Checked> = None;
    lp.start();
    let started = Instant::now();
    loop {
        lp.reset(&mut out.measure);
        let mut acc = Accum::default();
        for round in 0..rounds {
            let traced = trace && (out.episodes + round) % 2 == 1;
            tracer.set_recording(traced);
            let counts = first.is_none().then_some(&mut out.counts);
            let t0 = Instant::now();
            let token = tracer.begin(ROUND);
            let check = lp.round(round, &mut tracer, &mut out.measure, counts);
            tracer.end(token);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.set_recording(false);
            if traced {
                out.traced_rounds_ms.push(ms);
            } else {
                out.rounds_ms.push(ms);
            }
            acc.fold(lp, &check);
        }
        out.episodes += 1;
        let this = acc.finish();
        match &first {
            None => {
                out.peak_heap_mb = crate::heap::peak_mb();
                first = Some(this);
            }
            Some(f) if f.digest != this.digest => out.measure.fail(format!(
                "episode {} digest {:016x} differs from the first episode's {:016x}",
                out.episodes, this.digest, f.digest
            )),
            Some(_) => {}
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    lp.stop(&mut out.measure);
    out.checked = first.unwrap_or_default();
    if trace {
        out.tracer = Some(tracer);
    }
    out
}
