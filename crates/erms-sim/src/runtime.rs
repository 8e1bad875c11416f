//! The discrete-event microservice runtime.
//!
//! Requests arrive as Poisson streams per service, walk the service's
//! dependency graph (own processing first, then each stage's calls — calls
//! within a stage fan out in parallel, stages run sequentially), and queue
//! for the finite thread pools of the microservice's containers. Scheduling
//! at each container is FCFS or the δ-probabilistic priority policy of
//! §5.3.2. The simulator emits Jaeger-style spans (sampled) and raw
//! per-microservice latency observations for the profiling pipeline.
//!
//! The engine keeps *dense* state: every per-event lookup — deployment,
//! arrival rate, priority class, result row — is a `Vec` index on the
//! dense `u32` ids (the internal `SimTables`), built once per run;
//! the public [`SimResult`] map API is produced by one conversion at the
//! end of `run()`. The pre-refactor map-based engine is kept verbatim in
//! [`crate::reference`] and the golden-seed suite asserts both produce
//! bit-identical results.

use std::collections::{BTreeMap, VecDeque};

use erms_core::app::{App, WorkloadVector};
use erms_core::error::{Error, Result};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::Interference;
use erms_core::stats;
use erms_trace::extract::LatencyObservation;
use erms_trace::span::{Span, SpanId, SpanKind, TraceId};
use erms_trace::store::TraceStore;
use rand::Rng;
use rand::SeedableRng;

use crate::equeue::{CalendarQueue, Popped};
use crate::faults::FaultPlan;
use crate::service_time::ServiceTimeModel;
use crate::tables::SimTables;
use crate::telemetry::{NullSink, RequestRecord, SpanRecord, TelemetrySink};
use crate::timekey::{key_time, time_key};

/// Request scheduling policy at each container (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheduling {
    /// First-come-first-serve across all services.
    Fcfs,
    /// δ-probabilistic priority: when a thread frees up, the request from
    /// the service with the `l`-th highest priority is picked with
    /// probability `δ^(l−1)·(1−δ)`. The paper sets δ = 0.05.
    Priority {
        /// The starvation-avoidance parameter δ ∈ [0, 1).
        delta: f64,
    },
}

impl Default for Scheduling {
    fn default() -> Self {
        Scheduling::Priority { delta: 0.05 }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulated duration in ms (arrivals stop after this).
    pub duration_ms: f64,
    /// Warm-up period excluded from statistics.
    pub warmup_ms: f64,
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Fraction of traces recorded as spans (Jaeger uses 0.1, §5.1).
    pub trace_sampling: f64,
    /// Scheduling policy at containers.
    pub scheduling: Scheduling,
    /// One-way network delay per call, in ms.
    pub network_delay_ms: f64,
    /// Threads per container when no per-microservice override is set.
    pub default_threads: usize,
    /// Hard event-count cap (guards against accidental overload loops).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration_ms: 60_000.0,
            warmup_ms: 5_000.0,
            seed: 42,
            trace_sampling: 0.1,
            scheduling: Scheduling::default(),
            network_delay_ms: 0.1,
            default_threads: 4,
            max_events: 200_000_000,
        }
    }
}

/// A configured simulation bound to an application.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    pub(crate) app: &'a App,
    pub(crate) config: SimConfig,
    pub(crate) service_times: BTreeMap<MicroserviceId, ServiceTimeModel>,
    pub(crate) threads: BTreeMap<MicroserviceId, usize>,
    pub(crate) interference: BTreeMap<MicroserviceId, Interference>,
    pub(crate) uniform_itf: Interference,
    pub(crate) faults: FaultPlan,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with default service times (2 ms mean) for all
    /// microservices.
    pub fn new(app: &'a App, config: SimConfig) -> Self {
        Self {
            app,
            config,
            service_times: BTreeMap::new(),
            threads: BTreeMap::new(),
            interference: BTreeMap::new(),
            uniform_itf: Interference::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Sets the service-time model of a microservice.
    pub fn set_service_time(&mut self, ms: MicroserviceId, model: ServiceTimeModel) -> &mut Self {
        self.service_times.insert(ms, model);
        self
    }

    /// Sets the per-container thread count of a microservice.
    pub fn set_threads(&mut self, ms: MicroserviceId, threads: usize) -> &mut Self {
        self.threads.insert(ms, threads.max(1));
        self
    }

    /// Sets the interference every microservice experiences.
    pub fn set_uniform_interference(&mut self, itf: Interference) -> &mut Self {
        self.uniform_itf = itf;
        self
    }

    /// Overrides the interference one microservice's containers experience
    /// (containers on differently-loaded hosts, §5.4).
    pub fn set_interference(&mut self, ms: MicroserviceId, itf: Interference) -> &mut Self {
        self.interference.insert(ms, itf);
        self
    }

    /// Injects a fault scenario into the next [`Simulation::run`].
    ///
    /// An empty plan (the default) leaves runs bit-for-bit identical to a
    /// simulation without one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Runs the simulation.
    ///
    /// `containers` gives the deployment size per microservice;
    /// `priorities` the service order (highest first) at prioritised
    /// microservices — pass an empty map for FCFS everywhere.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations before any event is processed:
    ///
    /// * [`Error::UnknownService`] / [`Error::UnknownMicroservice`] — a
    ///   workload or container entry names an id the app does not have;
    /// * [`Error::ZeroContainers`] — a microservice on the call path of a
    ///   service with positive workload is deployed with zero containers
    ///   (an explicit scale-to-zero next to live demand is a configuration
    ///   error; *losing* all containers mid-run is not — that surfaces as
    ///   [`SimResult::dropped`]);
    /// * [`Error::InvalidParameter`] — non-finite or negative rates,
    ///   service-time parameters or fault-plan probabilities.
    pub fn run(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    ) -> Result<SimResult> {
        self.run_with_sink(workloads, containers, priorities, NullSink)
    }

    /// Runs the simulation with a [`TelemetrySink`] observing every
    /// post-warm-up span and request completion.
    ///
    /// `run` is exactly this with [`NullSink`]: the sink's
    /// [`ENABLED`](TelemetrySink::ENABLED) constant compiles the hooks
    /// out, and an enabled sink never touches the engine's RNG, so the
    /// [`SimResult`] is bit-identical either way. Pass `&mut collector`
    /// to keep access to the sink after the run.
    ///
    /// # Errors
    ///
    /// Same validation failures as [`run`](Self::run).
    pub fn run_with_sink<S: TelemetrySink>(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
        sink: S,
    ) -> Result<SimResult> {
        self.validate(workloads, containers)?;
        let tables = SimTables::build(self, workloads, priorities);
        Ok(Engine::new(self, &tables, containers, sink).run())
    }

    /// Checks everything user-supplied before the engine starts, so the
    /// event loop itself only ever sees internally-consistent state.
    pub(crate) fn validate(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
    ) -> Result<()> {
        for &ms in containers.keys() {
            self.app.microservice(ms)?;
        }
        for (&ms, model) in &self.service_times {
            self.app.microservice(ms)?;
            let ok = model.base_ms.is_finite()
                && model.base_ms > 0.0
                && model.cv.is_finite()
                && model.cv >= 0.0
                && model.cpu_sensitivity.is_finite()
                && model.mem_sensitivity.is_finite();
            if !ok {
                return Err(Error::InvalidParameter(format!(
                    "service-time model for {ms} has non-finite or non-positive parameters"
                )));
            }
        }
        for (sid, rate) in workloads.iter() {
            let lambda = rate.as_per_ms();
            if !lambda.is_finite() || lambda < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "request rate for service {sid} must be finite and non-negative, got {lambda}/ms"
                )));
            }
            if lambda == 0.0 {
                continue;
            }
            let svc = self.app.service(sid)?;
            for ms in svc.graph.microservices() {
                if containers.get(&ms).copied().unwrap_or(0) == 0 {
                    return Err(Error::ZeroContainers { microservice: ms });
                }
            }
        }
        let p = &self.faults;
        if !(0.0..=1.0).contains(&p.drop_probability) || !(0.0..=1.0).contains(&p.span_loss) {
            return Err(Error::InvalidParameter(
                "fault probabilities must lie in [0, 1]".into(),
            ));
        }
        if let Some(d) = p.deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "request deadline must be finite and positive, got {d} ms"
                )));
            }
        }
        for crash in &p.container_crashes {
            self.app.microservice(crash.ms)?;
            if !crash.at_ms.is_finite() || crash.at_ms < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "crash time must be finite and non-negative, got {} ms",
                    crash.at_ms
                )));
            }
        }
        for failure in &p.host_failures {
            if !failure.at_ms.is_finite() || failure.at_ms < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "host-failure time must be finite and non-negative, got {} ms",
                    failure.at_ms
                )));
            }
            for &ms in failure.losses.keys() {
                self.app.microservice(ms)?;
            }
        }
        for cold in &p.cold_starts {
            self.app.microservice(cold.ms)?;
            if !cold.delay_ms.is_finite() || cold.delay_ms < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "cold-start delay must be finite and non-negative, got {} ms",
                    cold.delay_ms
                )));
            }
        }
        for sr in &p.spot_reclamations {
            self.app.microservice(sr.ms)?;
            let ok = sr.at_ms.is_finite()
                && sr.at_ms >= 0.0
                && sr.grace_ms.is_finite()
                && sr.grace_ms >= 0.0;
            if !ok {
                return Err(Error::InvalidParameter(format!(
                    "spot-reclamation times must be finite and non-negative, got \
                     notice {} ms with grace {} ms",
                    sr.at_ms, sr.grace_ms
                )));
            }
        }
        Ok(())
    }
}

/// Aggregated output of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end latencies per service (post-warm-up completions).
    pub service_latencies: BTreeMap<ServiceId, Vec<f64>>,
    /// Per-microservice own latencies: `(arrival time, own latency,
    /// service)`.
    pub ms_own_latencies: BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>>,
    /// Sampled spans (Jaeger stand-in).
    pub trace_store: TraceStore,
    /// Requests generated (arrivals).
    pub generated: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped: front-door drops
    /// ([`FaultPlan::drop_probability`]) plus calls that found no live
    /// container (all crashed mid-run).
    pub dropped: u64,
    /// Requests that completed past the [`FaultPlan::deadline_ms`]
    /// deadline; excluded from `completed` and the latency statistics.
    pub timed_out: u64,
    /// Calls disrupted by a container crash — queued on or being served by
    /// a container at the moment it died. Each is an SLA violation the
    /// latency percentiles cannot see.
    pub crash_violations: u64,
    /// Containers lost to crashes and host failures over the run.
    pub crashed_containers: u64,
    /// Containers taken back by spot reclamations
    /// ([`FaultPlan::spot_reclamations`]) after their grace window — the
    /// elastic-capacity counterpart of `crashed_containers`.
    pub reclaimed_containers: u64,
    /// Spans dropped before reaching the trace store
    /// ([`FaultPlan::span_loss`]).
    pub lost_spans: u64,
    /// Discrete events processed by the engine (arrivals, ready, done and
    /// fault firings) — the denominator of events/sec throughput figures.
    pub events: u64,
}

impl SimResult {
    /// Tail latency of a service (nearest-rank percentile).
    pub fn latency_percentile(&self, service: ServiceId, p: f64) -> f64 {
        self.service_latencies
            .get(&service)
            .map(|v| stats::percentile(v, p))
            .unwrap_or(0.0)
    }

    /// Fraction of a service's requests exceeding `threshold_ms`.
    pub fn violation_rate(&self, service: ServiceId, threshold_ms: f64) -> f64 {
        self.service_latencies
            .get(&service)
            .map(|v| stats::fraction_above(v, threshold_ms))
            .unwrap_or(0.0)
    }

    /// Builds a sorted per-service view of the latency samples: sorts each
    /// service's vector once, after which any number of percentile and
    /// violation-rate queries cost O(1) / O(log n) instead of a copy+sort
    /// per call. Answers agree exactly with [`Self::latency_percentile`]
    /// and [`Self::violation_rate`].
    pub fn percentile_view(&self) -> PercentileView {
        PercentileView {
            sorted: self
                .service_latencies
                .iter()
                .map(|(&sid, v)| {
                    let mut sorted = v.clone();
                    stats::sort_samples(&mut sorted);
                    (sid, sorted)
                })
                .collect(),
        }
    }

    /// Flattens the per-microservice observations into the trace crate's
    /// [`LatencyObservation`] form for aggregation and profiling.
    pub fn latency_observations(&self) -> Vec<LatencyObservation> {
        let mut out = Vec::new();
        for (&ms, rows) in &self.ms_own_latencies {
            for &(at_ms, latency_ms, service) in rows {
                out.push(LatencyObservation {
                    microservice: ms,
                    service,
                    at_ms,
                    latency_ms,
                });
            }
        }
        out
    }
}

/// Sorted per-service latency samples from [`SimResult::percentile_view`]:
/// sort once, query many percentiles.
#[derive(Debug, Clone)]
pub struct PercentileView {
    sorted: BTreeMap<ServiceId, Vec<f64>>,
}

impl PercentileView {
    /// Tail latency of a service (nearest-rank percentile; 0 for services
    /// with no samples).
    pub fn latency_percentile(&self, service: ServiceId, p: f64) -> f64 {
        self.sorted
            .get(&service)
            .map(|v| stats::percentile_sorted(v, p))
            .unwrap_or(0.0)
    }

    /// Fraction of a service's requests exceeding `threshold_ms`.
    pub fn violation_rate(&self, service: ServiceId, threshold_ms: f64) -> f64 {
        self.sorted
            .get(&service)
            .map(|v| stats::fraction_above_sorted(v, threshold_ms))
            .unwrap_or(0.0)
    }

    /// The sorted samples of one service, if it completed any requests.
    pub fn sorted_latencies(&self, service: ServiceId) -> Option<&[f64]> {
        self.sorted.get(&service).map(Vec::as_slice)
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Next Poisson arrival of a service.
    Arrival(ServiceId),
    /// A call reaches its deployment and tries to grab a thread.
    Ready(u32),
    /// A call's own processing finished on its container thread.
    Done(u32),
    /// A scheduled fault fires (index into the engine's fault schedule).
    Fault(u32),
}

/// What a scheduled fault does when it fires. Shared with the sharded
/// engine ([`crate::shard`]), which lowers the same `FaultPlan` through
/// [`lower_fault_schedule`] so both engines fire identical schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineFaultKind {
    /// Kill containers outright: drain queues, void in-service calls.
    Crash,
    /// Spot-reclamation notice: mark containers draining — they keep
    /// serving queued work but accept nothing new.
    Drain,
    /// Spot-reclamation execution: kill containers still draining,
    /// through the crash path.
    Reclaim,
}

/// A fault lowered into engine form: host failures become a batch of
/// per-microservice losses so crash-style kinds share one path, and each
/// spot reclamation lowers to a `Drain`/`Reclaim` pair bracketing its
/// grace window.
#[derive(Debug, Clone)]
pub(crate) struct EngineFault {
    pub(crate) at_ms: f64,
    pub(crate) kind: EngineFaultKind,
    pub(crate) losses: Vec<(MicroserviceId, u32)>,
}

/// Lowers a [`FaultPlan`](crate::FaultPlan) into the engine-event schedule,
/// sorted by fire time. Used by both the sequential engine and the sharded
/// engine so a given plan produces the same schedule in both.
pub(crate) fn lower_fault_schedule(sim: &Simulation<'_>) -> Vec<EngineFault> {
    // Crash-style faults become ordinary events in the heap, so they
    // interleave with arrivals and completions deterministically.
    let mut fault_schedule: Vec<EngineFault> = sim
        .faults
        .container_crashes
        .iter()
        .filter(|c| c.at_ms <= sim.config.duration_ms)
        .map(|c| EngineFault {
            at_ms: c.at_ms,
            kind: EngineFaultKind::Crash,
            losses: vec![(c.ms, c.count)],
        })
        .chain(
            sim.faults
                .host_failures
                .iter()
                .filter(|h| h.at_ms <= sim.config.duration_ms)
                .map(|h| EngineFault {
                    at_ms: h.at_ms,
                    kind: EngineFaultKind::Crash,
                    losses: h.losses.iter().map(|(&m, &c)| (m, c)).collect(),
                }),
        )
        .collect();
    // Each spot reclamation lowers to a notice (`Drain`) at `at_ms` and,
    // when the grace window closes inside the horizon, an execution
    // (`Reclaim`) at `at_ms + grace_ms`. A notice whose execution falls
    // past the horizon still drains: real providers post notices
    // regardless of when the experiment ends.
    for sr in &sim.faults.spot_reclamations {
        if sr.at_ms > sim.config.duration_ms {
            continue;
        }
        fault_schedule.push(EngineFault {
            at_ms: sr.at_ms,
            kind: EngineFaultKind::Drain,
            losses: vec![(sr.ms, sr.count)],
        });
        let exec_at = sr.at_ms + sr.grace_ms;
        if exec_at <= sim.config.duration_ms {
            fault_schedule.push(EngineFault {
                at_ms: exec_at,
                kind: EngineFaultKind::Reclaim,
                losses: vec![(sr.ms, sr.count)],
            });
        }
    }
    fault_schedule.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    fault_schedule
}

// `Copy` is load-bearing for the hot path: `complete()` reads the call out
// of the arena by value, with no per-event heap traffic.
#[derive(Debug, Clone, Copy)]
struct Call {
    service: ServiceId,
    node: NodeId,
    ms: MicroserviceId,
    parent: Option<u32>,
    container: u32,
    arrive: f64,
    client_start: f64,
    stage: u32,
    pending: u32,
    root_start: f64,
    trace: Option<(TraceId, SpanId)>,
    in_use: bool,
    /// Currently holding a container thread (a `Done` event is in flight).
    in_service: bool,
    /// While `in_service`: this call's slot in its container's
    /// `in_service` vector, so leaving service is O(1) instead of a scan.
    /// Stale once the call leaves service or its container crashes
    /// (crashes void the whole vector), and never read in those states.
    svc_pos: u32,
    /// The serving container crashed; the pending `Done` is void.
    killed: bool,
}

#[derive(Debug)]
pub(crate) struct Container {
    pub(crate) busy: usize,
    pub(crate) queues: Vec<VecDeque<u32>>,
    /// Calls currently holding one of this container's threads (their
    /// `Done` event is in flight). At most `threads` entries, so a crash
    /// voids in-service victims in O(threads) instead of scanning the
    /// whole call arena.
    pub(crate) in_service: Vec<u32>,
    /// Crashed mid-run: receives no further calls. Kept in place so
    /// container indices held by in-flight calls stay stable.
    pub(crate) failed: bool,
    /// Under a spot-reclamation notice: receives no *new* calls but keeps
    /// serving its queues until the grace window closes.
    pub(crate) draining: bool,
    /// Cold-start gate: processing cannot begin before this time.
    pub(crate) available_from: f64,
}

/// Mutable per-deployment state, indexed by `MicroserviceId::index()`
/// alongside the immutable [`SimTables`] entry of the same index.
#[derive(Debug)]
pub(crate) struct DeploymentState {
    pub(crate) containers: Vec<Container>,
    pub(crate) rr: usize,
}

/// One service's pending Poisson arrival (see `Engine::arrivals`).
#[derive(Clone, Copy)]
struct ArrivalSlot {
    key: u64,
    seq: u64,
    time: f64,
}

struct Engine<'e, S: TelemetrySink> {
    /// Future events keyed by packed time ([`time_key`]) with the
    /// monotone push counter `seq` as tiebreak — the calendar queue pops
    /// in exactly the `(time_key, seq)` total order the old binary heap
    /// produced (golden digests pin this end to end).
    queue: CalendarQueue<u64, Event>,
    seq: u64,
    /// The same-instant group being dispatched. `pop_batch` proves every
    /// queued event with `batch_key` is already in this buffer, and `seq`
    /// is monotone, so an event pushed *at* the dispatched instant (the
    /// common `Ready`-now case) is a plain append here — no queue touch —
    /// and still pops in exactly the old heap's `(time_key, seq)` order.
    batch_items: Vec<(u64, Event)>,
    /// Packed key of the live batch; `u64::MAX` when idle (a real packed
    /// time key of a finite event time can never equal it).
    batch_key: u64,
    /// Per-service next Poisson arrival, kept out of the calendar queue:
    /// each service's stream is time-monotone, so one slot per service
    /// replaces a third of all queue traffic. `key == u64::MAX` marks an
    /// exhausted stream. `seq` is assigned at schedule time exactly as a
    /// queue push would be, so merging [`Self::arr_min`] against the
    /// queue front by `(key, seq)` reproduces the heap's total order.
    arrivals: Vec<ArrivalSlot>,
    /// Cached minimum over `arrivals` as `(key, seq, service index)`.
    arr_min: (u64, u64, u32),
    /// Hot configuration scalars copied out of `sim` at setup, so the
    /// event loop reads engine-local fields instead of chasing the
    /// `&Simulation` reference per event.
    max_events: u64,
    duration_ms: f64,
    warmup_ms: f64,
    net_ms: f64,
    drop_p: f64,
    span_loss: f64,
    deadline_ms: Option<f64>,
    /// δ of priority scheduling; 0 under FCFS (where `pick_next` reduces
    /// to strict front-of-queue order without consulting the RNG).
    delta: f64,
    calls: Vec<Call>,
    free: Vec<u32>,
    /// Immutable dense lookup tables (rates, threads, classes, samplers,
    /// flattened graphs). Borrowed so handlers can copy the `&` out and
    /// iterate table spans while mutating the rest of the engine.
    tables: &'e SimTables,
    /// Mutable deployment state by `MicroserviceId::index()`.
    state: Vec<DeploymentState>,
    rng: rand::rngs::StdRng,
    store: TraceStore,
    next_trace: u64,
    next_span: u64,
    /// Latency samples by `ServiceId::index()`; converted to the public
    /// map form (skipping untouched services) at the end of the run.
    result_latencies: Vec<Vec<f64>>,
    /// Own-latency rows by `MicroserviceId::index()`; converted like
    /// `result_latencies`.
    result_own: Vec<Vec<(f64, f64, ServiceId)>>,
    generated: u64,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    crash_violations: u64,
    crashed_containers: u64,
    reclaimed_containers: u64,
    lost_spans: u64,
    fault_schedule: Vec<EngineFault>,
    /// Telemetry observer; [`NullSink`] (the `run` path) compiles every
    /// hook out via `S::ENABLED`.
    sink: S,
}

impl<'e, S: TelemetrySink> Engine<'e, S> {
    fn new(
        sim: &'e Simulation<'e>,
        tables: &'e SimTables,
        containers: &BTreeMap<MicroserviceId, u32>,
        sink: S,
    ) -> Self {
        let state: Vec<DeploymentState> = sim
            .app
            .microservices()
            .map(|(ms, _)| {
                let n = containers.get(&ms).copied().unwrap_or(0) as usize;
                let n_classes = tables.cold.n_classes[ms.index()] as usize;
                DeploymentState {
                    containers: (0..n)
                        .map(|_| Container {
                            busy: 0,
                            queues: (0..n_classes).map(|_| VecDeque::new()).collect(),
                            in_service: Vec::new(),
                            failed: false,
                            draining: false,
                            available_from: 0.0,
                        })
                        .collect(),
                    rr: 0,
                }
            })
            .collect();
        let mut state = state;
        // Cold starts gate the *newest* containers of a deployment — the
        // ones a scale-up just added.
        for cold in &sim.faults.cold_starts {
            if let Some(dep) = state.get_mut(cold.ms.index()) {
                let n = dep.containers.len();
                let first = n.saturating_sub(cold.count as usize);
                for container in &mut dep.containers[first..] {
                    container.available_from = container.available_from.max(cold.delay_ms);
                }
            }
        }
        let fault_schedule = lower_fault_schedule(sim);
        let service_count = sim.app.service_count();
        let ms_count = sim.app.microservice_count();
        // Reserve the result tables near their Poisson-expected sizes so
        // steady-state pushes never trigger a doubling memcpy mid-run;
        // contents are unaffected. Capped so a mis-sized config cannot
        // balloon the reservation.
        let horizon_ms = (sim.config.duration_ms - sim.config.warmup_ms).max(0.0);
        let result_latencies: Vec<Vec<f64>> = tables
            .hot
            .rate_per_ms
            .iter()
            .map(|rate| Vec::with_capacity(((rate * horizon_ms) as usize + 16).min(1 << 21)))
            .collect();
        let total_rate: f64 = tables.hot.rate_per_ms.iter().sum();
        let own_cap = ((total_rate * horizon_ms) as usize + 16).min(1 << 21);
        let result_own: Vec<Vec<(f64, f64, ServiceId)>> =
            (0..ms_count).map(|_| Vec::with_capacity(own_cap)).collect();
        Self {
            queue: CalendarQueue::new(),
            batch_items: Vec::new(),
            batch_key: u64::MAX,
            arrivals: vec![
                ArrivalSlot {
                    key: u64::MAX,
                    seq: u64::MAX,
                    time: 0.0,
                };
                service_count
            ],
            arr_min: (u64::MAX, u64::MAX, 0),
            seq: 0,
            max_events: sim.config.max_events,
            duration_ms: sim.config.duration_ms,
            warmup_ms: sim.config.warmup_ms,
            net_ms: sim.config.network_delay_ms,
            drop_p: sim.faults.drop_probability,
            span_loss: sim.faults.span_loss,
            deadline_ms: sim.faults.deadline_ms,
            delta: match sim.config.scheduling {
                Scheduling::Priority { delta } => delta,
                Scheduling::Fcfs => 0.0,
            },
            calls: Vec::new(),
            free: Vec::new(),
            tables,
            state,
            rng: rand::rngs::StdRng::seed_from_u64(sim.config.seed),
            store: TraceStore::with_sampling(sim.config.trace_sampling, sim.config.seed ^ 0xA5A5),
            next_trace: 1,
            next_span: 1,
            result_latencies,
            result_own,
            generated: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            crash_violations: 0,
            crashed_containers: 0,
            reclaimed_containers: 0,
            lost_spans: 0,
            fault_schedule,
            sink,
        }
    }

    fn push(&mut self, time: f64, event: Event) {
        self.seq += 1;
        let key = time_key(time);
        if key == self.batch_key {
            // Scheduled at the instant being dispatched: joins the live
            // batch. `seq` is monotone, so this is always an append.
            self.batch_items.push((self.seq, event));
        } else {
            self.queue.push(key, self.seq, event);
        }
    }

    /// Arms service `sid`'s arrival slot for `time` — the arrival-stream
    /// equivalent of [`Self::push`], consuming one `seq` at the same
    /// point so the merged total order is the heap's.
    fn push_arrival(&mut self, sid: ServiceId, time: f64) {
        self.seq += 1;
        let key = time_key(time);
        let slot = &mut self.arrivals[sid.index()];
        slot.key = key;
        slot.seq = self.seq;
        slot.time = time;
        if (key, self.seq) < (self.arr_min.0, self.arr_min.1) {
            self.arr_min = (key, self.seq, sid.index() as u32);
        }
    }

    /// Re-derives [`Self::arr_min`] after the minimum slot was consumed.
    fn rescan_arrivals(&mut self) {
        let mut best = (u64::MAX, u64::MAX, 0u32);
        for (i, s) in self.arrivals.iter().enumerate() {
            if (s.key, s.seq) < (best.0, best.1) {
                best = (s.key, s.seq, i as u32);
            }
        }
        self.arr_min = best;
    }

    fn alloc_call(&mut self, call: Call) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.calls[idx as usize] = call;
            idx
        } else {
            self.calls.push(call);
            (self.calls.len() - 1) as u32
        }
    }

    fn release_call(&mut self, idx: u32) {
        self.calls[idx as usize].in_use = false;
        self.free.push(idx);
    }

    fn next_span_id(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }

    /// Dispatches the live batch (which may grow while it runs) in tie
    /// order; returns `false` when the event budget is exhausted.
    #[inline(always)]
    fn drain_batch(&mut self, time: f64, events: &mut u64) -> bool {
        let mut i = 0;
        while i < self.batch_items.len() {
            let (_, event) = self.batch_items[i];
            i += 1;
            *events += 1;
            if *events > self.max_events {
                return false;
            }
            match event {
                Event::Arrival(sid) => self.on_arrival(sid, time),
                Event::Ready(call) => self.on_ready(call, time),
                Event::Done(call) => self.on_done(call, time),
                Event::Fault(i) => self.on_fault(i as usize),
            }
        }
        self.batch_key = u64::MAX;
        true
    }

    fn run(mut self) -> SimResult {
        // Seed one arrival per active service. Index order equals the id
        // order of the old `WorkloadVector` iteration, so RNG consumption
        // matches the reference engine draw for draw.
        for i in 0..self.tables.hot.rate_per_ms.len() {
            let lambda = self.tables.hot.rate_per_ms[i];
            if lambda > 0.0 {
                let dt = exp_sample(lambda, &mut self.rng);
                self.push_arrival(ServiceId::new(i as u32), dt);
            }
        }
        for i in 0..self.fault_schedule.len() {
            let at = self.fault_schedule[i].at_ms;
            self.push(at, Event::Fault(i as u32));
        }
        let mut events = 0u64;
        // Outer loop: one queue touch per same-instant group — the
        // key→time decode is paid once per batch, not per event. The
        // arrival streams merge in at the top by `(key, seq)`; events
        // pushed at the current instant mid-batch append to
        // `batch_items` and `drain_batch` picks them up by index.
        'run: loop {
            let (akey, aseq, asid) = self.arr_min;
            self.batch_items.clear();
            // A queue group with key strictly below the next arrival
            // dispatches first; an exact key tie also pops the group, and
            // the arrival is seq-interleaved into it below, so equal-key
            // pushes landing mid-batch still follow every queued peer.
            match self.queue.pop_upto(akey, &mut self.batch_items) {
                Popped::One(key, seq, event) => {
                    self.batch_key = key;
                    let time = key_time(key);
                    if akey == key {
                        // An arrival whose packed key exactly ties the
                        // popped entry: order the pair by `seq`
                        // (measure-zero with continuous draws, but the
                        // order contract is exact).
                        let arr = (aseq, Event::Arrival(ServiceId::new(asid)));
                        if aseq < seq {
                            self.batch_items.push(arr);
                            self.batch_items.push((seq, event));
                        } else {
                            self.batch_items.push((seq, event));
                            self.batch_items.push(arr);
                        }
                        let slot = &mut self.arrivals[asid as usize];
                        slot.key = u64::MAX;
                        slot.seq = u64::MAX;
                        self.rescan_arrivals();
                        if !self.drain_batch(time, &mut events) {
                            break 'run;
                        }
                        continue 'run;
                    }
                    // Dominant case: a lone event at this instant.
                    // Dispatch it straight off the queue; same-instant
                    // pushes from its handler land in `batch_items` and
                    // `drain_batch` sweeps them up.
                    events += 1;
                    if events > self.max_events {
                        break 'run;
                    }
                    match event {
                        Event::Arrival(sid) => self.on_arrival(sid, time),
                        Event::Ready(call) => self.on_ready(call, time),
                        Event::Done(call) => self.on_done(call, time),
                        Event::Fault(i) => self.on_fault(i as usize),
                    }
                    if !self.drain_batch(time, &mut events) {
                        break 'run;
                    }
                }
                Popped::Group(key) => {
                    self.batch_key = key;
                    if akey == key {
                        // Same tie contract as above, for a multi-entry
                        // group: insert at the arrival's `seq` position.
                        let at = self.batch_items.partition_point(|&(s, _)| s < aseq);
                        self.batch_items
                            .insert(at, (aseq, Event::Arrival(ServiceId::new(asid))));
                        let slot = &mut self.arrivals[asid as usize];
                        slot.key = u64::MAX;
                        slot.seq = u64::MAX;
                        self.rescan_arrivals();
                    }
                    if !self.drain_batch(key_time(key), &mut events) {
                        break 'run;
                    }
                }
                Popped::None if akey != u64::MAX => {
                    // Next arrival precedes everything queued: dispatch
                    // it straight from its slot — no queue pop and no
                    // batch materialization on this path.
                    let slot = &mut self.arrivals[asid as usize];
                    let time = slot.time;
                    slot.key = u64::MAX;
                    slot.seq = u64::MAX;
                    self.batch_key = akey;
                    events += 1;
                    if events > self.max_events {
                        break 'run;
                    }
                    self.on_arrival(ServiceId::new(asid), time);
                    if !self.drain_batch(time, &mut events) {
                        break 'run;
                    }
                    self.rescan_arrivals();
                }
                Popped::None => break 'run,
            }
        }
        // Densely-indexed result tables fold back into the public map API.
        // Only touched indices become entries — the map-based engine
        // created entries through `entry().or_default().push(..)`, so an
        // entry existed exactly when at least one sample was recorded.
        let service_latencies: BTreeMap<ServiceId, Vec<f64>> = self
            .result_latencies
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| (ServiceId::new(i as u32), v))
            .collect();
        let ms_own_latencies: BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>> = self
            .result_own
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| (MicroserviceId::new(i as u32), v))
            .collect();
        SimResult {
            service_latencies,
            ms_own_latencies,
            trace_store: self.store,
            generated: self.generated,
            completed: self.completed,
            dropped: self.dropped,
            timed_out: self.timed_out,
            crash_violations: self.crash_violations,
            crashed_containers: self.crashed_containers,
            reclaimed_containers: self.reclaimed_containers,
            lost_spans: self.lost_spans,
            events,
        }
    }

    /// Fires one scheduled fault. Crash-style kinds mark containers
    /// failed, drain their queues and void their in-service calls;
    /// `Drain` only flags containers, and `Reclaim` is a crash restricted
    /// to draining containers. Killing more containers than a deployment
    /// has degrades to losing them all.
    ///
    /// Victims are found through the per-container in-service lists, so a
    /// fault costs O(victims) — independent of the size of the call arena.
    /// The marking order (per container, in service-entry order) differs
    /// from the old whole-arena scan's call-index order, but marking
    /// consumes no randomness and only sets flags and counters, so results
    /// are unchanged.
    fn on_fault(&mut self, index: usize) {
        // Each schedule entry fires exactly once (one `Fault` event pushed
        // in `run`), so taking the losses out avoids cloning the vector.
        let kind = self.fault_schedule[index].kind;
        let losses = std::mem::take(&mut self.fault_schedule[index].losses);
        if kind == EngineFaultKind::Drain {
            // A reclamation notice marks the *newest* containers draining
            // — spot capacity is the capacity a scale-up added last. No
            // calls are harmed and no randomness is consumed.
            for (ms, count) in losses {
                let Some(dep) = self.state.get_mut(ms.index()) else {
                    continue;
                };
                let mut marked = 0u32;
                for container in dep.containers.iter_mut().rev() {
                    if marked == count {
                        break;
                    }
                    if container.failed || container.draining {
                        continue;
                    }
                    container.draining = true;
                    marked += 1;
                }
            }
            return;
        }
        // `Crash` kills any live container; `Reclaim` only takes back
        // containers still under a notice (draining).
        let reclaim = kind == EngineFaultKind::Reclaim;
        for (ms, count) in losses {
            let Some(dep) = self.state.get_mut(ms.index()) else {
                continue;
            };
            let mut failed = 0u32;
            let mut victims: Vec<u32> = Vec::new();
            let mut in_service_victims: Vec<u32> = Vec::new();
            for container in &mut dep.containers {
                if failed == count {
                    break;
                }
                if container.failed || (reclaim && !container.draining) {
                    continue;
                }
                container.failed = true;
                failed += 1;
                container.busy = 0;
                for queue in &mut container.queues {
                    victims.extend(queue.drain(..));
                }
                in_service_victims.append(&mut container.in_service);
            }
            if reclaim {
                self.reclaimed_containers += u64::from(failed);
            } else {
                self.crashed_containers += u64::from(failed);
            }
            // Queued victims unwind immediately; in-service victims keep
            // their pending `Done` event, which `on_done` voids via the
            // `killed` flag.
            for idx in in_service_victims {
                self.calls[idx as usize].killed = true;
                self.crash_violations += 1;
            }
            for idx in victims {
                self.crash_violations += 1;
                self.abandon(idx);
            }
        }
    }

    fn on_arrival(&mut self, sid: ServiceId, time: f64) {
        // Schedule the next arrival while inside the horizon.
        let lambda = self.tables.hot.rate_per_ms[sid.index()];
        if lambda > 0.0 {
            let next = time + exp_sample(lambda, &mut self.rng);
            if next <= self.duration_ms {
                self.push_arrival(sid, next);
            }
        }
        self.generated += 1;
        // Front-door drop (load-balancer error). The RNG is only consulted
        // when the fault is armed, so an empty plan stays bit-identical.
        let drop_p = self.drop_p;
        if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
            self.dropped += 1;
            return;
        }
        // `validate` established the service exists.
        let st = &self.tables.services[sid.index()];
        let (root_node, ms) = (st.root_node, st.root_ms);
        let trace = {
            let trace_id = TraceId(self.next_trace);
            self.next_trace += 1;
            if self.store.is_sampled(trace_id) {
                let span = self.next_span_id();
                Some((trace_id, span))
            } else {
                None
            }
        };
        let call = self.alloc_call(Call {
            service: sid,
            node: root_node,
            ms,
            parent: None,
            container: 0,
            arrive: time,
            client_start: time,
            stage: 0,
            pending: 0,
            root_start: time,
            trace,
            in_use: true,
            in_service: false,
            svc_pos: 0,
            killed: false,
        });
        self.push(time, Event::Ready(call));
    }

    fn on_ready(&mut self, idx: u32, time: f64) {
        let (ms, service) = {
            let call = &self.calls[idx as usize];
            (call.ms, call.service)
        };
        let mi = ms.index();
        // Round-robin container choice over live containers; crashed ones
        // stay in the vec (indices held by in-flight calls must remain
        // stable) but receive nothing.
        let dep = &mut self.state[mi];
        let n = dep.containers.len();
        let mut c_idx = None;
        // Conditional wrap instead of `%`: `rr < n` always holds, so each
        // candidate stays in range — same visiting order, no division on
        // the hot path.
        let mut cand = dep.rr;
        for _ in 0..n {
            cand += 1;
            if cand >= n {
                cand = 0;
            }
            let c = &dep.containers[cand];
            if !c.failed && !c.draining {
                c_idx = Some(cand);
                break;
            }
        }
        let Some(c_idx) = c_idx else {
            // Zero configured containers (caught by `validate` for loaded
            // services) or every container crashed mid-run: the request is
            // lost, not an error.
            self.dropped += 1;
            self.abandon(idx);
            return;
        };
        dep.rr = c_idx;
        {
            let call = &mut self.calls[idx as usize];
            call.container = c_idx as u32;
            call.arrive = time;
        }
        let hot = &self.tables.hot;
        let threads = hot.threads(mi);
        let sampler = hot.samplers[mi];
        let container = &mut self.state[mi].containers[c_idx];
        if container.busy < threads {
            container.busy += 1;
            let pos = container.in_service.len() as u32;
            container.in_service.push(idx);
            // A cold container accepts work but cannot process it before
            // its start-up completes.
            let start = time.max(container.available_from);
            let dt = sampler.sample(&mut self.rng);
            let call = &mut self.calls[idx as usize];
            call.in_service = true;
            call.svc_pos = pos;
            self.push(start + dt, Event::Done(idx));
        } else {
            // The class column is only consulted on the enqueue path; a
            // free thread serves regardless of priority.
            let class = self.tables.hot.class(mi, service);
            self.state[mi].containers[c_idx].queues[class].push_back(idx);
        }
    }

    fn on_done(&mut self, idx: u32, time: f64) {
        // One borrow covers the killed check, the in-service reset and the
        // routing reads — three separate index operations otherwise.
        let (ms, container_idx, arrive, service, svc_pos) = {
            let call = &mut self.calls[idx as usize];
            // The serving container crashed while this call held a thread:
            // the crash already counted the violation and reset the
            // container's bookkeeping, so the finished work is simply void.
            if call.killed {
                self.abandon(idx);
                return;
            }
            call.in_service = false;
            (
                call.ms,
                call.container as usize,
                call.arrive,
                call.service,
                call.svc_pos as usize,
            )
        };
        let mi = ms.index();
        let next_start = {
            let delta = self.delta;
            let container = &mut self.state[mi].containers[container_idx];
            if container.failed {
                // Defensive: a crash voids in-service calls via `killed`
                // above, so a live call on a failed container cannot reach
                // here; never touch a dead container's bookkeeping.
                None
            } else {
                // This call leaves service: drop it from the container's
                // in-service index in O(1) via its tracked slot, patching
                // the slot of the entry `swap_remove` moved into its place.
                debug_assert_eq!(container.in_service.get(svc_pos).copied(), Some(idx));
                container.in_service.swap_remove(svc_pos);
                if let Some(&moved) = container.in_service.get(svc_pos) {
                    self.calls[moved as usize].svc_pos = svc_pos as u32;
                }
                let picked = pick_next(&mut container.queues, delta, &mut self.rng);
                match picked {
                    Some(next) => {
                        let pos = container.in_service.len() as u32;
                        container.in_service.push(next);
                        let dt = self.tables.hot.samplers[mi].sample(&mut self.rng);
                        Some((next, dt, pos))
                    }
                    None => {
                        container.busy -= 1;
                        None
                    }
                }
            }
        };
        if let Some((next, dt, pos)) = next_start {
            let call = &mut self.calls[next as usize];
            call.in_service = true;
            call.svc_pos = pos;
            self.push(time + dt, Event::Done(next));
        }

        // Record own latency (queueing + processing).
        if arrive >= self.warmup_ms {
            self.result_own[mi].push((arrive, time - arrive, service));
            if S::ENABLED {
                self.sink.on_span(&SpanRecord {
                    service,
                    microservice: ms,
                    container: container_idx as u32,
                    priority_class: self.tables.hot.class(mi, service) as u32,
                    start_ms: arrive,
                    end_ms: time,
                });
            }
        }

        // Fan out the first stage, or complete immediately.
        self.advance_stages(idx, time, 0);
    }

    /// Starts stage `stage` of `idx`'s node, or completes the call when all
    /// stages are done.
    fn advance_stages(&mut self, idx: u32, time: f64, stage: usize) {
        let (service, node_id, trace, root_start) = {
            let call = &self.calls[idx as usize];
            (call.service, call.node, call.trace, call.root_start)
        };
        // Copying the `&SimTables` out of `self` decouples the flattened
        // graph borrow from the `&mut self` calls below, so the stage's
        // child span is iterated in place instead of cloned per event.
        let tables = self.tables;
        let st = &tables.services[service.index()];
        let (stages_start, stages_count) = st.node_stages[node_id.index()];
        if stage >= stages_count as usize {
            self.complete(idx, time);
            return;
        }
        let mut spawned = 0usize;
        let net = self.net_ms;
        let (children_start, children_count) = st.stage_spans[stages_start as usize + stage];
        let child_span = children_start as usize..(children_start + children_count) as usize;
        for &child_node in &st.children[child_span] {
            // Fractional multiplicities spawn the extra copy
            // probabilistically; the RNG is consulted only when the
            // fractional part is non-zero.
            let ci = child_node.index();
            let frac = st.node_frac[ci];
            let copies =
                st.node_whole[ci] as usize + usize::from(frac > 0.0 && self.rng.gen_bool(frac));
            for _ in 0..copies {
                let child_ms = st.node_ms[ci];
                let trace = trace.map(|(trace_id, _)| (trace_id, self.next_span_id()));
                let child = self.alloc_call(Call {
                    service,
                    node: child_node,
                    ms: child_ms,
                    parent: Some(idx),
                    container: 0,
                    arrive: time + net,
                    client_start: time,
                    stage: 0,
                    pending: 0,
                    root_start,
                    trace,
                    in_use: true,
                    in_service: false,
                    svc_pos: 0,
                    killed: false,
                });
                self.push(time + net, Event::Ready(child));
                spawned += 1;
            }
        }
        if spawned == 0 {
            // Empty stage (possible with probabilistic multiplicities):
            // move on immediately.
            self.advance_stages(idx, time, stage + 1);
            return;
        }
        let call = &mut self.calls[idx as usize];
        call.stage = stage as u32;
        call.pending = spawned as u32;
    }

    /// A call finished all its stages: emit spans, notify the parent or
    /// finish the request.
    fn complete(&mut self, idx: u32, time: f64) {
        // Only the routing scalars are read on the hot (untraced) path;
        // span emission re-reads the full call in its own (rare) branch
        // instead of copying the whole struct per completion.
        let (trace, parent, root_start, service) = {
            let call = &self.calls[idx as usize];
            (call.trace, call.parent, call.root_start, call.service)
        };
        // Server span: arrival at this microservice to response sent.
        if let Some((trace_id, span_id)) = trace {
            let call = self.calls[idx as usize];
            let parent_span = call
                .parent
                .and_then(|p| self.calls[p as usize].trace.map(|(_, s)| s));
            let span = Span {
                trace_id,
                span_id,
                parent: parent_span,
                microservice: call.ms,
                service: call.service,
                kind: SpanKind::Server,
                start_ms: call.arrive,
                end_ms: time,
            };
            self.record_span(span);
        }
        let net = self.net_ms;
        match parent {
            None => {
                // End-to-end completion — unless the client already gave
                // up (deadline exceeded): then it is a timeout, invisible
                // to the latency percentiles.
                let e2e = time - root_start;
                if self.deadline_ms.is_some_and(|deadline| e2e > deadline) {
                    self.timed_out += 1;
                } else {
                    self.completed += 1;
                    if root_start >= self.warmup_ms {
                        self.result_latencies[service.index()].push(e2e);
                        if S::ENABLED {
                            self.sink.on_request(&RequestRecord {
                                service,
                                start_ms: root_start,
                                end_ms: time,
                            });
                        }
                    }
                }
                self.release_call(idx);
            }
            Some(parent) => {
                // Client span at the parent side.
                if let (Some((trace_id, _)), Some((_, parent_server))) =
                    (trace, self.calls[parent as usize].trace)
                {
                    let call = self.calls[idx as usize];
                    let client_span = self.next_span_id();
                    let span = Span {
                        trace_id,
                        span_id: client_span,
                        parent: Some(parent_server),
                        microservice: call.ms,
                        service: call.service,
                        kind: SpanKind::Client,
                        start_ms: call.client_start,
                        end_ms: time + net,
                    };
                    self.record_span(span);
                }
                self.release_call(idx);
                let parent_call = &mut self.calls[parent as usize];
                debug_assert!(parent_call.in_use);
                parent_call.pending -= 1;
                let next_stage = parent_call.stage as usize + 1;
                if parent_call.pending == 0 {
                    self.advance_stages(parent, time + net, next_stage);
                }
            }
        }
    }

    /// Records a span unless the fault plan loses it on the way to the
    /// collector. The RNG is only consulted when span loss is armed.
    fn record_span(&mut self, span: Span) {
        let loss = self.span_loss;
        if loss > 0.0 && self.rng.gen_bool(loss) {
            self.lost_spans += 1;
        } else {
            self.store.record(span);
        }
    }

    /// A call that cannot be served (no containers): unwind the request.
    fn abandon(&mut self, idx: u32) {
        let parent = self.calls[idx as usize].parent;
        self.release_call(idx);
        if let Some(p) = parent {
            let parent_call = &mut self.calls[p as usize];
            parent_call.pending = parent_call.pending.saturating_sub(1);
            // The request is effectively failed; do not advance stages, so
            // no latency is recorded for it.
        }
    }
}

/// Picks the next queued call according to the δ-probabilistic priority
/// rule (§5.3.2): walk classes from highest priority; pick a non-empty
/// class with probability `1−δ`, otherwise move on; wrap to the first
/// non-empty class if all were skipped.
pub(crate) fn pick_next(
    queues: &mut [VecDeque<u32>],
    delta: f64,
    rng: &mut impl Rng,
) -> Option<u32> {
    let first_non_empty = queues.iter().position(|q| !q.is_empty())?;
    if delta > 0.0 {
        for queue in queues.iter_mut().skip(first_non_empty) {
            if queue.is_empty() {
                continue;
            }
            if rng.gen_bool(1.0 - delta) {
                return queue.pop_front();
            }
        }
    }
    queues[first_non_empty].pop_front()
}

/// Exponential inter-arrival sample with rate `lambda` (per ms).
pub(crate) fn exp_sample(lambda: f64, rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, RequestRate, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;

    fn chain_app() -> (App, [MicroserviceId; 2], ServiceId) {
        let mut b = AppBuilder::new("sim");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq(root, c);
        });
        (b.build().unwrap(), [a, c], s)
    }

    fn containers(pairs: &[(MicroserviceId, u32)]) -> BTreeMap<MicroserviceId, u32> {
        pairs.iter().copied().collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            duration_ms: 30_000.0,
            warmup_ms: 2_000.0,
            seed: 7,
            trace_sampling: 1.0,
            network_delay_ms: 0.1,
            ..SimConfig::default()
        }
    }

    #[test]
    fn light_load_latency_near_service_time_sum() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(3.0, 0.0, 0.0, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0)); // 10/s, far below capacity
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(result.completed > 100);
        assert_eq!(result.dropped, 0);
        let p50 = result.latency_percentile(s, 0.5);
        // 2 + 3 ms service + 2 network hops (0.1 each way on the inner
        // call) ≈ 5.2 ms with no queueing.
        assert!((p50 - 5.2).abs() < 0.5, "p50 {p50}");
    }

    #[test]
    fn queueing_grows_latency_beyond_knee() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // One container, one thread -> capacity 500 req/s... rate per ms:
        // capacity = 1/2ms = 0.5/ms = 30000/min. Light: 6000/min; heavy:
        // 27000/min (90% utilisation).
        let mut light = WorkloadVector::new();
        light.set(s, RequestRate::per_minute(6_000.0));
        let mut heavy = WorkloadVector::new();
        heavy.set(s, RequestRate::per_minute(27_000.0));
        let cs = containers(&[(a, 1), (c, 1)]);
        let r_light = sim.run(&light, &cs, &BTreeMap::new()).unwrap();
        let r_heavy = sim.run(&heavy, &cs, &BTreeMap::new()).unwrap();
        let p95_light = r_light.latency_percentile(s, 0.95);
        let p95_heavy = r_heavy.latency_percentile(s, 0.95);
        assert!(
            p95_heavy > 2.0 * p95_light,
            "queueing should dominate: light {p95_light}, heavy {p95_heavy}"
        );
    }

    #[test]
    fn priority_scheduling_protects_high_priority_service() {
        // Two services share microservice P; service 0 gets priority.
        let mut b = AppBuilder::new("share");
        let u = b.microservice("u", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let h = b.microservice("h", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let p = b.microservice("p", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let s1 = b.service("s1", Sla::p95_ms(100.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        let s2 = b.service("s2", Sla::p95_ms(100.0), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.default_threads = 1;
        config.scheduling = Scheduling::Priority { delta: 0.05 };
        let mut sim = Simulation::new(&app, config.clone());
        for ms in [u, h, p] {
            sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.3, 0.0, 0.0));
        }
        // P is the bottleneck: 2 containers, combined load ~85% of its
        // capacity.
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(20_000.0));
        w.set(s2, RequestRate::per_minute(20_000.0));
        let cs = containers(&[(u, 2), (h, 2), (p, 2)]);
        let mut priorities = BTreeMap::new();
        priorities.insert(p, vec![s1, s2]);
        let with_prio = sim.run(&w, &cs, &priorities).unwrap();
        let no_prio = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        let own = |r: &SimResult, svc: ServiceId| -> f64 {
            let rows = &r.ms_own_latencies[&p];
            let v: Vec<f64> = rows
                .iter()
                .filter(|(_, _, s)| *s == svc)
                .map(|(_, l, _)| *l)
                .collect();
            stats::percentile(&v, 0.95)
        };
        let prio_high = own(&with_prio, s1);
        let fcfs_high = own(&no_prio, s1);
        assert!(
            prio_high < fcfs_high,
            "priority should cut the high-priority service's P latency: {prio_high} vs {fcfs_high}"
        );
    }

    #[test]
    fn spans_reconstruct_the_graph() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.trace_sampling = 1.0;
        config.duration_ms = 5_000.0;
        config.warmup_ms = 0.0;
        let sim = Simulation::new(&app, config);
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(result.trace_store.trace_count() > 10);
        let (_, spans) = result.trace_store.iter().next().unwrap();
        let extracted = erms_trace::extract::extract_trace_graph(spans).unwrap();
        assert_eq!(extracted.graph.len(), 2);
        assert_eq!(extracted.graph.node(extracted.graph.root()).microservice, a);
        let _ = c;
    }

    #[test]
    fn zero_containers_for_loaded_service_is_config_error() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let err = sim
            .run(&w, &containers(&[(a, 1), (c, 0)]), &BTreeMap::new())
            .unwrap_err();
        assert_eq!(err, Error::ZeroContainers { microservice: c });
        // A zero-rate service tolerates zero containers on its path.
        let idle = WorkloadVector::new();
        assert!(sim
            .run(&idle, &containers(&[(a, 1), (c, 0)]), &BTreeMap::new())
            .is_ok());
    }

    #[test]
    fn unknown_ids_and_bad_rates_are_rejected() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let mut cs = containers(&[(a, 1), (c, 1)]);
        cs.insert(MicroserviceId::new(99), 1);
        assert_eq!(
            sim.run(&w, &cs, &BTreeMap::new()).unwrap_err(),
            Error::UnknownMicroservice(MicroserviceId::new(99))
        );
        // NaN is sanitised to zero by `RequestRate::per_minute`; infinity
        // survives it and must be caught here.
        let mut bad = WorkloadVector::new();
        bad.set(s, RequestRate::per_minute(f64::INFINITY));
        assert!(matches!(
            sim.run(&bad, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new()),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn crash_to_zero_drops_instead_of_erroring() {
        // Losing every container mid-run is a fault, not a config error:
        // requests after the crash are dropped, ones before it complete.
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().crash(c, 10_000.0, 1));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(result.completed > 0, "pre-crash traffic completes");
        assert!(result.dropped > 0, "post-crash traffic is dropped");
        assert_eq!(result.crashed_containers, 1);
    }

    #[test]
    fn crash_counts_violations_and_reduces_capacity() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // Load c to ~80% of its 4-container capacity, then kill 3 of the 4
        // mid-run: queued and in-flight work is disrupted and the survivor
        // saturates.
        sim.set_fault_plan(FaultPlan::new().crash(c, 15_000.0, 3));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let cs = containers(&[(a, 4), (c, 4)]);
        let faulty = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(faulty.crashed_containers, 3);
        assert!(
            faulty.crash_violations > 0,
            "a loaded deployment must have calls disrupted by the crash"
        );
        sim.set_fault_plan(FaultPlan::new());
        let clean = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert!(
            faulty.latency_percentile(s, 0.95) > clean.latency_percentile(s, 0.95),
            "post-crash queueing must raise the tail"
        );
    }

    #[test]
    fn host_failure_takes_correlated_losses() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        let mut losses = BTreeMap::new();
        losses.insert(a, 1u32);
        losses.insert(c, 1u32);
        sim.set_fault_plan(FaultPlan::new().host_failure(10_000.0, losses));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.crashed_containers, 2);
        assert!(result.completed > 0, "survivors keep serving");
    }

    #[test]
    fn spot_reclamation_drains_then_takes_the_container() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        // One of c's two containers gets a notice at 10 s and is taken
        // back at 12 s; the survivor carries the rest of the run.
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 10_000.0, 1, 2_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 1);
        assert_eq!(result.crashed_containers, 0, "a reclaim is not a crash");
        assert!(result.completed > 0, "the on-demand survivor keeps serving");
    }

    #[test]
    fn reclamation_grace_window_lets_queued_work_finish() {
        // Under light load a draining container empties its queue well
        // inside a generous grace window, so the execution finds nothing
        // in flight and no calls are disrupted.
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 10_000.0, 1, 5_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 1);
        assert_eq!(
            result.crash_violations, 0,
            "an idle draining container dies empty"
        );
    }

    #[test]
    fn zero_grace_reclamation_disrupts_like_a_crash() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // No advance notice: the execution lands the same instant as the
        // drain, so loaded containers die with work on board.
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 15_000.0, 3, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let result = sim
            .run(&w, &containers(&[(a, 4), (c, 4)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 3);
        assert!(
            result.crash_violations > 0,
            "zero-grace reclamation must disrupt in-flight work"
        );
    }

    #[test]
    fn reclamations_beyond_horizon_leave_runs_bit_identical() {
        let (app, [a, c], s) = chain_app();
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let clean = Simulation::new(&app, quick_config())
            .run(&w, &cs, &BTreeMap::new())
            .unwrap();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 1e9, 1, 100.0));
        let unfired = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(clean.events, unfired.events);
        assert_eq!(clean.generated, unfired.generated);
        assert_eq!(clean.completed, unfired.completed);
        assert_eq!(clean.service_latencies, unfired.service_latencies);
        assert_eq!(unfired.reclaimed_containers, 0);
    }

    #[test]
    fn cold_start_delays_early_requests() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        // One of c's two containers serves nothing for the first 5 s; with
        // round-robin routing, early requests landing on it wait.
        sim.set_fault_plan(FaultPlan::new().cold_start(c, 1, 5_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let cold = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        sim.set_fault_plan(FaultPlan::new());
        let warm = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(
            cold.latency_percentile(s, 0.99) > warm.latency_percentile(s, 0.99),
            "cold-start waits must show in the tail"
        );
    }

    #[test]
    fn drops_and_deadline_are_accounted() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(
            FaultPlan::new()
                .with_drop_probability(0.2)
                .with_deadline_ms(4.0), // below the ~5.2 ms typical e2e
        );
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(result.dropped > 0, "front-door drops");
        assert!(result.timed_out > 0, "deadline violations");
        let frac = result.dropped as f64 / result.generated as f64;
        assert!((frac - 0.2).abs() < 0.05, "drop fraction {frac}");
    }

    #[test]
    fn crashing_an_idle_deployment_costs_only_its_victims() {
        // Regression test for the fault handler's victim scan: the old
        // engine walked the entire call arena on every crash, so killing
        // an idle deployment cost O(live calls). The engine now keeps a
        // per-container in-service index and must find exactly zero
        // victims here without touching the (large) population of calls
        // queued on the busy deployments.
        let mut b = AppBuilder::new("idle-crash");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let idle = b.microservice(
            "idle",
            LatencyProfile::linear(0.01, 2.0),
            Resources::default(),
        );
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq(root, c);
        });
        let _idle_svc = b.service("s-idle", Sla::p95_ms(100.0), |g| {
            g.entry(idle);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_fault_plan(FaultPlan::new().crash(idle, 15_000.0, 2));
        // Heavy traffic on s keeps many calls live in the arena; s-idle
        // gets no workload, so idle's containers hold nothing to disrupt.
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let cs = containers(&[(a, 4), (c, 4), (idle, 2)]);
        let result = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(result.crashed_containers, 2, "both idle containers die");
        assert_eq!(
            result.crash_violations, 0,
            "an idle crash must not claim victims from other deployments"
        );
        assert!(result.completed > 0, "the busy service is unaffected");
    }

    #[test]
    fn span_loss_thins_the_trace_store() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.duration_ms = 10_000.0;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_fault_plan(FaultPlan::new().with_span_loss(0.5));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let lossy = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(lossy.lost_spans > 0);
        sim.set_fault_plan(FaultPlan::new());
        let clean = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(clean.trace_store.span_count() > lossy.trace_store.span_count());
        assert_eq!(clean.lost_spans, 0);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let (app, [a, c], s) = chain_app();
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let plain = Simulation::new(&app, quick_config())
            .run(&w, &cs, &BTreeMap::new())
            .unwrap();
        let mut with_plan = Simulation::new(&app, quick_config());
        with_plan.set_fault_plan(FaultPlan::new());
        let planned = with_plan.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(plain.completed, planned.completed);
        assert_eq!(plain.service_latencies, planned.service_latencies);
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(
            FaultPlan::new()
                .crash(c, 8_000.0, 1)
                .with_drop_probability(0.1)
                .with_span_loss(0.2),
        );
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let r1 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        let r2 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.dropped, r2.dropped);
        assert_eq!(r1.crash_violations, r2.crash_violations);
        assert_eq!(r1.service_latencies, r2.service_latencies);
    }

    #[test]
    fn deterministic_given_seed() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let r1 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        let r2 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(
            r1.latency_percentile(s, 0.95),
            r2.latency_percentile(s, 0.95)
        );
    }

    #[test]
    fn interference_slows_everything_down() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.2, 1.0, 0.5));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.2, 1.0, 0.5));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(2_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        sim.set_uniform_interference(Interference::new(0.1, 0.1));
        let calm = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        sim.set_uniform_interference(Interference::new(0.9, 0.9));
        let busy = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert!(
            busy.latency_percentile(s, 0.95) > calm.latency_percentile(s, 0.95),
            "interference must slow the service"
        );
    }

    #[test]
    fn parallel_stage_joins_before_next() {
        let mut b = AppBuilder::new("par");
        let root_ms = b.microservice("r", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let x = b.microservice("x", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let y = b.microservice("y", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let r = g.entry(root_ms);
            g.call_par(r, &[x, y]);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.duration_ms = 10_000.0;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(root_ms, ServiceTimeModel::new(1.0, 0.0, 0.0, 0.0));
        sim.set_service_time(x, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(y, ServiceTimeModel::new(8.0, 0.0, 0.0, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(
                &w,
                &containers(&[(root_ms, 2), (x, 2), (y, 2)]),
                &BTreeMap::new(),
            )
            .unwrap();
        // E2E ≈ root 1ms + max(2, 8) + 2 network hops = ~9.2.
        let p50 = result.latency_percentile(s, 0.5);
        assert!((p50 - 9.2).abs() < 0.5, "p50 {p50}");
    }
}
