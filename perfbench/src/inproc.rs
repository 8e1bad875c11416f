//! The in-process loop on the Taobao-scale topology (`taobao-inproc`) and
//! its sharded-DES variant (`taobao-sharded`).
//!
//! One round: walk the request rates, simulate one window of the
//! deployment the previous round applied, window its sampled spans into
//! the online profiler, re-fit, and run one resilient planning round on
//! the re-fitted app. The next round simulates the plan this round
//! applied, so a plan is always judged on a window whose rates moved
//! after it was made, as in production.
//!
//! Each episode restarts from a copy of the post-set-up state, taken
//! outside the timed rounds, so every episode does the same work: the
//! profiler's samples never pile up into a different regime late in a
//! long run, and every episode must reproduce the first one's digest.

use std::time::Instant;

use erms_core::prelude::{
    App, ClusterState, Interference, RequestRate, ResilienceConfig, ResilientManager, ServiceId,
    WorkloadVector,
};
use erms_sim::service_time::{derive_from_profile, ServiceTimeModel};
use erms_sim::{Partition, SimConfig, SimResult, Simulation};
use erms_telemetry::{OnlineProfiler, TelemetryCollector, TelemetryConfig};
use erms_trace::synth::{generate, heterogeneous_cluster, SynthConfig};

use crate::runner::{Counts, Loop, Measure, RoundCheck};
use crate::trace::Tracer;
use crate::util::{Deployment, SplitMix};

/// Sizes of one in-process workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub synth: SynthConfig,
    pub hosts: usize,
    /// Range of the per-service base request rates, per minute. Each
    /// service's base rate is drawn uniformly from it.
    pub rates_per_min: (f64, f64),
    /// Share of services whose rate is redrawn each round.
    pub walk_fraction: f64,
    /// Simulated window per round.
    pub window_ms: f64,
    /// Span sampling of the telemetry collector.
    pub sampling: f64,
    /// `Some(k)`: run the DES sharded over `k` shards.
    pub shards: Option<usize>,
    /// Rounds per episode. The first round after set-up re-plans about
    /// 2.5× longer than the rest. Over 8-round episodes those rounds were
    /// the slowest 12.5% of a run, where the tail's rank falls, so the
    /// tail jumped between the two kinds of round. At 16 they are 6%.
    pub episode_rounds: u64,
}

/// Worker threads of the sharded DES. With one, both shards run through
/// the engine's serial window loop. On a 2-vCPU host, two workers that
/// meet at a barrier every window ran at about 250 ms or 420 ms per
/// round depending on whether either vCPU was slowed by the host. Over
/// five seeds run alternately, the tail's spread was 0.29 with two
/// workers and 0.13 with one.
/// The windows, messages and results are the same at any thread count.
pub const SHARD_THREADS: usize = 1;

/// The topology is fixed; the seed drives rates, their walk and every
/// simulation and sampling stream.
const TOPOLOGY_SEED: u64 = 17;

impl Config {
    pub fn taobao(shards: Option<usize>, tiny: bool) -> Self {
        let synth = if tiny {
            SynthConfig::scaled(300, TOPOLOGY_SEED)
        } else {
            SynthConfig::taobao_scale(TOPOLOGY_SEED)
        };
        Self {
            synth,
            hosts: if tiny { 40 } else { 600 },
            // The low end of the per-service rates the repository's
            // trace-driven Taobao benchmark draws (fig16: 1,000-12,000
            // req/min). Its full range at this scale costs about 30 s of
            // cold planning per set-up and 2.9 GB of live heap.
            rates_per_min: (1_000.0, 3_000.0),
            walk_fraction: 0.01,
            window_ms: 500.0,
            // The sampling of the repository's telemetry benchmark.
            sampling: 0.01,
            shards,
            episode_rounds: if tiny { 4 } else { 16 },
        }
    }
}

/// Everything the loop carries from one round to the next.
#[derive(Clone)]
struct State {
    fitted: App,
    manager: ResilientManager,
    cluster: ClusterState,
    profiler: OnlineProfiler,
    workloads: WorkloadVector,
    deployment: Deployment,
    itf: Interference,
}

pub struct InProc {
    cfg: Config,
    seed: u64,
    app: App,
    mechanics: Vec<(ServiceTimeModel, usize)>,
    sids: Vec<ServiceId>,
    base_rates: Vec<f64>,
    partition: Option<Partition>,
    /// The post-set-up state every episode starts from.
    base: State,
    state: State,
    perturb: bool,
    episode: u64,
}

impl InProc {
    /// The timed set-up: topology, cluster, initial rates, the cold plan
    /// and (sharded) the partition. Returns the loop and the set-up's own
    /// layer timings.
    pub fn setup(cfg: &Config, seed: u64, perturb: bool, setup: &mut Counts) -> Self {
        let app = generate(&cfg.synth).app;
        let cluster = heterogeneous_cluster(cfg.hosts, 0.0, 4, TOPOLOGY_SEED);
        let sids: Vec<ServiceId> = app.services().map(|(sid, _)| sid).collect();
        let mut rng = SplitMix::stream(seed, 1);
        let base_rates: Vec<f64> = sids
            .iter()
            .map(|_| rng.range(cfg.rates_per_min.0, cfg.rates_per_min.1))
            .collect();
        let mut workloads = WorkloadVector::new();
        for (&sid, &r) in sids.iter().zip(&base_rates) {
            workloads.set(sid, RequestRate::per_minute(r));
        }
        let mut cluster = cluster;
        let mut manager = ResilientManager::new(ResilienceConfig::default());
        let t = Instant::now();
        let outcome = manager.run_round(&app, &mut cluster, &workloads);
        setup.add("plan.cold_ms", t.elapsed().as_secs_f64() * 1e3);
        let plan = outcome
            .plan
            .expect("the cold plan of the set-up must apply");
        let deployment = Deployment::of(&app, &plan);
        let itf = cluster.average_interference(&app);
        // Ground truth of the simulated system: the service times the
        // offline profiles describe, at the interference of the set-up.
        let mechanics = app
            .microservices()
            .map(|(_, m)| derive_from_profile(&m.profile, itf, 0.75))
            .collect();
        let partition = cfg.shards.map(|k| {
            let t = Instant::now();
            let p = Partition::topology_aware(&app, &workloads, k);
            setup.add("partition.ms", t.elapsed().as_secs_f64() * 1e3);
            let (cut, _) = p.cut_edges(&app);
            setup.add("shard.cut_edges", cut as f64);
            p
        });
        let state = State {
            fitted: app.clone(),
            manager,
            cluster,
            profiler: OnlineProfiler::new(),
            workloads,
            deployment,
            itf,
        };
        Self {
            cfg: cfg.clone(),
            seed,
            app,
            mechanics,
            sids,
            base_rates,
            partition,
            base: state.clone(),
            state,
            perturb,
            episode: 0,
        }
    }

    fn simulation(&self, round: u64) -> Simulation<'_> {
        let mut sim = Simulation::new(
            &self.app,
            SimConfig {
                duration_ms: self.cfg.window_ms,
                warmup_ms: self.cfg.window_ms * 0.1,
                seed: self.seed.wrapping_mul(1_000_003).wrapping_add(round),
                trace_sampling: 0.0,
                network_delay_ms: 1.0,
                ..SimConfig::default()
            },
        );
        for ((ms, _), &(model, threads)) in self.app.microservices().zip(&self.mechanics) {
            sim.set_service_time(ms, model);
            sim.set_threads(ms, threads);
        }
        sim.set_uniform_interference(self.state.itf);
        sim
    }

    fn collector(&self, round: u64, shard: u64) -> TelemetryCollector {
        TelemetryCollector::for_app(
            &self.app,
            TelemetryConfig {
                sampling: self.cfg.sampling,
                ring_capacity: 1 << 16,
                seed: self.seed ^ (round << 20) ^ shard,
                relative_error: 0.01,
            },
        )
    }

    /// Redraws the rate of a `walk_fraction` share of services around
    /// its base rate (a stationary walk: rates never drift away).
    fn walk(&mut self, round: u64) {
        let mut rng = SplitMix::stream(self.seed, 1_000 + round);
        let n = ((self.sids.len() as f64 * self.cfg.walk_fraction).ceil() as usize).max(1);
        for _ in 0..n {
            let i = rng.index(self.sids.len());
            let r = self.base_rates[i] * rng.range(0.93, 1.07);
            self.state
                .workloads
                .set(self.sids[i], RequestRate::per_minute(r));
        }
    }
}

impl Loop for InProc {
    fn app(&self, _tenant: usize) -> &App {
        &self.app
    }

    fn reset(&mut self, _m: &mut Measure) {
        self.state = self.base.clone();
        self.episode += 1;
    }

    fn round(
        &mut self,
        round: u64,
        tracer: &mut Tracer,
        m: &mut Measure,
        counts: Option<&mut Counts>,
    ) -> RoundCheck {
        self.walk(round);
        let mut deployment = self.state.deployment.clone();
        if self.perturb && round == 0 && self.episode == 1 {
            deployment.perturb();
        }

        // DES.
        let t = tracer.begin("sim");
        let sim = self.simulation(round);
        let mut collectors: Vec<TelemetryCollector> = (0..self.cfg.shards.unwrap_or(1) as u64)
            .map(|s| self.collector(round, s))
            .collect();
        let (result, shard_stats) = match &self.partition {
            None => (
                sim.run_with_sink(
                    &self.state.workloads,
                    &deployment.containers,
                    &deployment.priorities,
                    &mut collectors[0],
                ),
                None,
            ),
            Some(p) => match sim.run_sharded_with_partition_and_sinks(
                &self.state.workloads,
                &deployment.containers,
                &deployment.priorities,
                p,
                &mut collectors,
            ) {
                Ok((r, s)) => (Ok(r), Some(s)),
                Err(e) => (Err(e), None),
            },
        };
        tracer.end(t);
        m.attempted += 1;
        let result: Option<SimResult> = match result {
            Ok(r) => Some(r),
            Err(e) => {
                m.fail(format!("round {round}: simulation failed: {e}"));
                None
            }
        };

        // Telemetry: fold the per-shard collectors into one.
        let t = tracer.begin("telemetry");
        let mut collector = collectors.remove(0);
        for other in &collectors {
            m.attempted += 1;
            if let Err(e) = collector.merge(other) {
                m.fail(format!("round {round}: collector merge failed: {e}"));
            }
        }
        tracer.end(t);

        // Online profiling.
        let ingest_started = Instant::now();
        let added = tracer.span("refit.ingest", || {
            self.state
                .profiler
                .ingest(&collector, &deployment.containers, self.state.itf)
        });
        let refit = tracer.span("refit.fit", || {
            self.state.profiler.refit(&self.state.fitted)
        });
        m.ingest_ms
            .push(ingest_started.elapsed().as_secs_f64() * 1e3);
        let refitted = refit.refitted.len();
        self.state.fitted = refit.app;

        // Planning and provisioning.
        let before = self.state.manager.planner_metrics();
        let cache_before = (
            self.state.manager.plan_cache().hits(),
            self.state.manager.plan_cache().misses(),
        );
        let plan_started = Instant::now();
        let t = tracer.begin("plan");
        let outcome = self.state.manager.run_round(
            &self.state.fitted,
            &mut self.state.cluster,
            &self.state.workloads,
        );
        if let Some(plan) = &outcome.plan {
            self.state.deployment = Deployment::of(&self.state.fitted, plan);
        }
        self.state.itf = self.state.cluster.average_interference(&self.state.fitted);
        tracer.end(t);
        m.replan_ms.push(plan_started.elapsed().as_secs_f64() * 1e3);
        m.attempted += 1;
        if outcome.report.skipped() {
            m.fail(format!("round {round}: planner skipped the round"));
        }

        if let Some(c) = counts {
            if let Some(r) = &result {
                c.add("sim.events", r.events as f64);
                c.add("sim.completed", r.completed as f64);
            }
            if let Some(s) = shard_stats {
                c.add("shard.windows", s.windows as f64);
                c.add("shard.messages", s.messages as f64);
            }
            c.add("telemetry.spans_seen", collector.spans_seen() as f64);
            c.add("telemetry.spans_kept", collector.spans_sampled() as f64);
            c.add(
                "telemetry.ring_overwritten",
                collector.ring().overwritten() as f64,
            );
            c.add("refit.samples_added", added as f64);
            c.add("refit.refitted_ms", refitted as f64);
            let after = self.state.manager.planner_metrics();
            c.add(
                "plan.services_replanned",
                (after.services_replanned - before.services_replanned) as f64,
            );
            c.add(
                "plan.services_reused",
                (after.services_reused - before.services_reused) as f64,
            );
            c.add(
                "plan.full_builds",
                (after.full_builds - before.full_builds) as f64,
            );
            c.add(
                "plan.dirty_leaves",
                (after.dirty_leaves - before.dirty_leaves) as f64,
            );
            c.add(
                "plan.cache_hits",
                (self.state.manager.plan_cache().hits() - cache_before.0) as f64,
            );
            c.add(
                "plan.cache_misses",
                (self.state.manager.plan_cache().misses() - cache_before.1) as f64,
            );
            c.add(
                "plan.degraded_rounds",
                f64::from(u8::from(outcome.report.degraded())),
            );
            c.add(
                "plan.skipped_rounds",
                f64::from(u8::from(outcome.report.skipped())),
            );
        }

        RoundCheck {
            windows: vec![(
                0,
                deployment,
                result.map(|r| r.service_latencies).unwrap_or_default(),
            )],
        }
    }
}
