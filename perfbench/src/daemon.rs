//! The control-plane loop (`daemon-loop`): several tenants share one
//! `erms-control` daemon over loopback HTTP.
//!
//! The agent (the benchmark's main thread) is a closed loop. For each
//! tenant, one round is: GET the plan, decode it, simulate one window of
//! it at full span sampling, encode the spans and POST them in batches,
//! then POST a replan. A seeded drift slows one shared microservice per
//! tenant from the drift round on, so re-fitting has something to find.
//! Once per episode the agent snapshots the daemon and reloads it, which
//! makes the next replan of every tenant a cold one.
//!
//! Beside it, an open-loop reader thread issues GET plan and `/metrics`
//! (which locks every tenant) at a fixed rate, each request timed from
//! when it was due.
//!
//! Each episode starts from the same baseline snapshot, written back and
//! reloaded outside the timed rounds, so every episode does the same work
//! and must reproduce the first episode's digest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use erms_control::codec::{app_to_json, plan_from_json, span_batch_to_json, SpanBatch};
use erms_control::{Client, ControlPlane, ControlPlaneConfig, Json, Registry};
use erms_core::prelude::{
    App, Interference, MicroserviceId, PlannerMetrics, RequestRate, ServiceId, WorkloadVector,
};
use erms_sim::service_time::{derive_from_profile, ServiceTimeModel};
use erms_sim::{SimConfig, Simulation};
use erms_telemetry::{TelemetryCollector, TelemetryConfig};
use erms_trace::synth::{generate, SynthConfig};

use crate::runner::{Counts, Loop, Measure, RoundCheck};
use crate::trace::Tracer;
use crate::util::{Deployment, SplitMix};

/// Sizes of the daemon workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub tenants: usize,
    pub microservices: usize,
    /// Mean request rate per service, per minute; each service's base
    /// rate is drawn within ±20% of it. At the in-process loops' rates
    /// (1,000-3,000 req/min), 6 of seeds 0-47 skipped planner rounds: the
    /// re-fitted profiles implied latency floors far above the SLAs.
    pub rate_per_min: f64,
    /// Each round scales a tenant's base rates by a seeded load level in
    /// this range. Varying load gives the online profiler windows at
    /// several operating points; at one fixed rate its fits degenerate,
    /// and the latency floors they imply can exceed the SLAs (seed 15
    /// skipped planner rounds that way).
    pub load_range: (f64, f64),
    /// Simulated window per tenant and round. The profiler windows spans
    /// per simulated second, so a window of `n` seconds adds `n` samples
    /// per microservice.
    pub window_ms: f64,
    /// Spans per POST.
    pub batch_spans: usize,
    /// Rounds per episode. Rounds from the re-fit on (round 3) take about
    /// 1.5× as long as the first three. Over 6-round episodes the two
    /// kinds were half of the rounds each, so the median jumped between
    /// them; at 8, the median falls among the slower rounds.
    pub episode_rounds: u64,
    /// First round simulated with the drifted microservice.
    pub drift_round: u64,
    /// Slow-down of the drifted microservice's service time. At 3× the
    /// re-fitted latency floors of some tenants rose above their SLAs
    /// (seeds 38 and 42), planning failed and rounds were skipped.
    pub drift_factor: f64,
    /// Round that starts with a snapshot and a reload.
    pub reload_round: u64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Open-loop reads per second.
    pub read_hz: f64,
}

/// Tenant topologies are fixed; the seed drives rates, drift and every
/// simulation and sampling stream.
const TOPOLOGY_SEED: u64 = 300;

impl Config {
    pub fn new(tiny: bool) -> Self {
        Self {
            tenants: if tiny { 2 } else { 4 },
            microservices: if tiny { 60 } else { 300 },
            rate_per_min: 1_200.0,
            load_range: (0.6, 1.2),
            window_ms: if tiny { 2_000.0 } else { 4_000.0 },
            batch_spans: 8_192,
            episode_rounds: 8,
            drift_round: 1,
            drift_factor: 2.0,
            reload_round: 4,
            workers: 2,
            read_hz: 40.0,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "tenants={} microservices_per_tenant={} window_ms={} batch_spans={} episode_rounds={} \
             reload_round={} workers={} read_hz={} threads=agent+reader+{}",
            self.tenants,
            self.microservices,
            self.window_ms,
            self.batch_spans,
            self.episode_rounds,
            self.reload_round,
            self.workers,
            self.read_hz,
            self.workers
        )
    }
}

struct TenantInputs {
    index: u64,
    id: String,
    app: App,
    /// Ground truth before and after the drift.
    mechanics: Vec<(ServiceTimeModel, usize)>,
    drifted: Vec<(ServiceTimeModel, usize)>,
    itf: Interference,
    base_rates: Vec<(ServiceId, f64)>,
}

struct Reader {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Measure>,
}

pub struct Daemon {
    cfg: Config,
    seed: u64,
    tenants: Vec<TenantInputs>,
    plane: Option<ControlPlane>,
    client: Client,
    work_dir: PathBuf,
    snapshot_path: PathBuf,
    baseline: Vec<u8>,
    perturb: bool,
    episode: u64,
    reader: Option<Reader>,
    /// Planner counters per tenant at its last replan; they restart from
    /// zero whenever the daemon reloads.
    planner: Vec<(PlannerMetrics, u64, u64)>,
}

/// One HTTP exchange, timed into `m` under `endpoint` and into a tracer
/// span named `span`; a non-2xx status or transport error is a failure.
#[allow(clippy::too_many_arguments)]
fn call(
    client: &mut Client,
    tracer: &mut Tracer,
    m: &mut Measure,
    span: &'static str,
    endpoint: &'static str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Option<Vec<u8>> {
    let t = tracer.begin(span);
    let started = Instant::now();
    let r = client.request(method, path, body);
    m.http_call(endpoint, started.elapsed().as_secs_f64() * 1e3);
    tracer.end(t);
    m.attempted += 1;
    match r {
        Ok((status, reply)) if (200..300).contains(&status) => Some(reply),
        Ok((status, reply)) => {
            m.non2xx += 1;
            m.fail(format!(
                "{method} {path}: HTTP {status}: {}",
                String::from_utf8_lossy(&reply)
                    .chars()
                    .take(200)
                    .collect::<String>()
            ));
            None
        }
        Err(e) => {
            m.fail(format!("{method} {path}: {e}"));
            None
        }
    }
}

/// A tenant's base rates scaled by `load`, and the same as a workloads
/// request body.
fn scaled(base: &[(ServiceId, f64)], load: f64) -> (WorkloadVector, String) {
    let mut w = WorkloadVector::new();
    let mut pairs = Vec::with_capacity(base.len());
    for &(sid, rate) in base {
        w.set(sid, RequestRate::per_minute(rate * load));
        pairs.push(Json::Arr(vec![
            Json::Num(sid.index() as f64),
            Json::Num(rate * load),
        ]));
    }
    (w, Json::Arr(pairs).render())
}

fn json(reply: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(reply).ok()?).ok()
}

impl Daemon {
    pub fn setup(cfg: &Config, seed: u64, perturb: bool, setup: &mut Counts) -> Self {
        static INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let work_dir = PathBuf::from(".bench_work").join(format!(
            "daemon-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&work_dir).expect("create the benchmark's work directory");
        let snapshot_path = work_dir.join("registry.json");
        let plane = ControlPlane::start(
            ControlPlaneConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: cfg.workers,
                snapshot_path: Some(snapshot_path.clone()),
            },
            Registry::paper_pool(),
        )
        .expect("start the control plane on loopback");
        let mut client = Client::new(plane.addr()).expect("loopback address");
        let mut m = Measure::default();
        let mut tracer = Tracer::new(Instant::now());
        let mut rng = SplitMix::stream(seed, 2);
        let mut tenants = Vec::with_capacity(cfg.tenants);
        let mut cold_ms = 0.0;
        for t in 0..cfg.tenants {
            let id = format!("tenant-{t}");
            let app = generate(&SynthConfig::scaled(
                cfg.microservices,
                TOPOLOGY_SEED + t as u64,
            ))
            .app;
            let body = Json::obj(vec![("id", Json::str(&id)), ("app", app_to_json(&app))]).render();
            call(
                &mut client,
                &mut tracer,
                &mut m,
                "http",
                "create",
                "POST",
                "/v1/tenants",
                Some(body.as_bytes()),
            )
            .expect("create tenant");
            let base_rates: Vec<(ServiceId, f64)> = app
                .services()
                .map(|(sid, _)| (sid, cfg.rate_per_min * rng.range(0.8, 1.2)))
                .collect();
            let (_, body) = scaled(&base_rates, 1.0);
            call(
                &mut client,
                &mut tracer,
                &mut m,
                "http",
                "workloads",
                "POST",
                &format!("/v1/tenants/{id}/workloads"),
                Some(body.as_bytes()),
            )
            .expect("set workloads");
            let started = Instant::now();
            call(
                &mut client,
                &mut tracer,
                &mut m,
                "http",
                "replan",
                "POST",
                &format!("/v1/tenants/{id}/replan"),
                None,
            )
            .expect("cold replan");
            cold_ms += started.elapsed().as_secs_f64() * 1e3;
            let itf = plane
                .with_tenant(&id, |tenant| {
                    tenant.cluster.average_interference(&tenant.app)
                })
                .expect("tenant exists");
            let mechanics: Vec<(ServiceTimeModel, usize)> = app
                .microservices()
                .map(|(_, micro)| derive_from_profile(&micro.profile, itf, 0.75))
                .collect();
            let shared = app.shared_microservices();
            let victim: MicroserviceId = shared[rng.index(shared.len())];
            let mut drifted = mechanics.clone();
            let (model, threads) = drifted[victim.index()];
            drifted[victim.index()] = (
                ServiceTimeModel::new(
                    model.base_ms * cfg.drift_factor,
                    model.cv,
                    model.cpu_sensitivity,
                    model.mem_sensitivity,
                ),
                threads,
            );
            tenants.push(TenantInputs {
                index: t as u64,
                id,
                app,
                mechanics,
                drifted,
                itf,
                base_rates,
            });
        }
        setup.add("plan.cold_ms", cold_ms);
        call(
            &mut client,
            &mut tracer,
            &mut m,
            "http",
            "snapshot",
            "POST",
            "/v1/snapshot",
            None,
        )
        .expect("baseline snapshot");
        let baseline = std::fs::read(&snapshot_path).expect("read the baseline snapshot");
        assert_eq!(m.failed, 0, "set-up failed: {:?}", m.failures);
        Self {
            cfg: cfg.clone(),
            seed,
            tenants,
            plane: Some(plane),
            client,
            work_dir,
            snapshot_path,
            baseline,
            perturb,
            episode: 0,
            reader: None,
            planner: vec![Default::default(); cfg.tenants],
        }
    }

    fn simulation<'a>(&self, t: &'a TenantInputs, round: u64) -> Simulation<'a> {
        let mut sim = Simulation::new(
            &t.app,
            SimConfig {
                duration_ms: self.cfg.window_ms,
                warmup_ms: 0.0,
                seed: self
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(round * 64 + t.index),
                trace_sampling: 0.0,
                ..SimConfig::default()
            },
        );
        let truth = if round >= self.cfg.drift_round {
            &t.drifted
        } else {
            &t.mechanics
        };
        for ((ms, _), &(model, threads)) in t.app.microservices().zip(truth) {
            sim.set_service_time(ms, model);
            sim.set_threads(ms, threads);
        }
        sim.set_uniform_interference(t.itf);
        sim
    }
}

/// The open-loop reader: GET plan round-robin over tenants, every fourth
/// request `/metrics`, at `hz` requests per second. A 503 while the
/// daemon drains for a reload is retried, as the daemon asks; the read's
/// latency then includes the wait. Its calls are timed under endpoints of
/// their own (`read_plan`, `metrics`), and only the attempt that
/// succeeded, so retries stay out of the endpoint times.
fn read_loop(addr: std::net::SocketAddr, ids: Vec<String>, hz: f64, stop: &AtomicBool) -> Measure {
    let mut m = Measure::default();
    let mut client = Client::new(addr).expect("loopback address");
    let period = Duration::from_secs_f64(1.0 / hz);
    let t0 = Instant::now();
    let mut k: u32 = 0;
    let mut plan_reads = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let due = t0 + period * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        let (path, endpoint) = if k % 4 == 3 {
            ("/metrics".to_string(), "metrics")
        } else {
            plan_reads += 1;
            (
                format!("/v1/tenants/{}/plan", ids[plan_reads % ids.len()]),
                "read_plan",
            )
        };
        let started = Instant::now();
        m.late_ms.push((started - due).as_secs_f64() * 1e3);
        m.attempted += 1;
        loop {
            let attempt = Instant::now();
            let r = client.request("GET", &path, None);
            match r {
                Ok((status, _)) if (200..300).contains(&status) => {
                    m.http_call(endpoint, attempt.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                Ok((503, _)) if started.elapsed() < Duration::from_secs(10) => {
                    m.retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok((status, _)) => {
                    m.non2xx += 1;
                    m.fail(format!("GET {path}: HTTP {status}"));
                    break;
                }
                Err(e) => {
                    m.fail(format!("GET {path}: {e}"));
                    break;
                }
            }
        }
        m.read_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
        k += 1;
    }
    m.reader_s = t0.elapsed().as_secs_f64();
    m
}

/// The agent's endpoints whose calls are counted in the checked episode,
/// with the counter each feeds.
const COUNTED: [(&str, &str); 5] = [
    ("get_plan", "http.get_plan_calls"),
    ("post_spans", "http.post_spans_calls"),
    ("replan", "http.replan_calls"),
    ("snapshot", "http.snapshot_calls"),
    ("reload", "http.reload_calls"),
];

fn calls(m: &Measure) -> [u64; COUNTED.len()] {
    COUNTED.map(|(endpoint, _)| m.http.get(endpoint).map_or(0, |e| e.calls))
}

impl Loop for Daemon {
    fn app(&self, tenant: usize) -> &App {
        &self.tenants[tenant].app
    }

    fn start(&mut self) {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.plane.as_ref().expect("daemon running").addr();
        let ids: Vec<String> = self.tenants.iter().map(|t| t.id.clone()).collect();
        let hz = self.cfg.read_hz;
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || read_loop(addr, ids, hz, &flag));
        self.reader = Some(Reader { stop, handle });
    }

    fn stop(&mut self, m: &mut Measure) {
        if let Some(r) = self.reader.take() {
            r.stop.store(true, Ordering::SeqCst);
            let reads = r.handle.join().expect("the reader thread panicked");
            m.absorb(reads);
        }
    }

    fn reset(&mut self, m: &mut Measure) {
        // Back to the baseline: write it where the daemon reloads from.
        std::fs::write(&self.snapshot_path, &self.baseline).expect("restore the baseline snapshot");
        let mut quiet = Tracer::new(Instant::now());
        call(
            &mut self.client,
            &mut quiet,
            m,
            "http",
            "reset",
            "POST",
            "/v1/reload",
            None,
        );
        self.planner.fill(Default::default());
        self.episode += 1;
    }

    fn round(
        &mut self,
        round: u64,
        tracer: &mut Tracer,
        m: &mut Measure,
        mut counts: Option<&mut Counts>,
    ) -> RoundCheck {
        let mut check = RoundCheck::default();
        let calls_before = calls(m);
        if round == self.cfg.reload_round {
            call(
                &mut self.client,
                tracer,
                m,
                "http.snapshot",
                "snapshot",
                "POST",
                "/v1/snapshot",
                None,
            );
            let started = Instant::now();
            call(
                &mut self.client,
                tracer,
                m,
                "http.reload",
                "reload",
                "POST",
                "/v1/reload",
                None,
            );
            m.reload_ms.push(started.elapsed().as_secs_f64() * 1e3);
            self.planner.fill(Default::default());
        }
        for ti in 0..self.tenants.len() {
            let id = self.tenants[ti].id.clone();
            // Read the applied plan.
            let Some(reply) = call(
                &mut self.client,
                tracer,
                m,
                "http.get_plan",
                "get_plan",
                "GET",
                &format!("/v1/tenants/{id}/plan"),
                None,
            ) else {
                continue;
            };
            let t = tracer.begin("codec.decode");
            let plan = json(&reply).and_then(|j| plan_from_json(&j).ok());
            tracer.end(t);
            m.attempted += 1;
            let Some(plan) = plan else {
                m.fail(format!("round {round}: undecodable plan for {id}"));
                continue;
            };
            let mut deployment = Deployment::of(&self.tenants[ti].app, &plan);
            if self.perturb && round == 0 && ti == 0 && self.episode == 1 {
                deployment.perturb();
            }

            // Simulate one window of it at this round's load.
            let (lo, hi) = self.cfg.load_range;
            let load = SplitMix::stream(self.seed, 3_000 + 64 * ti as u64 + round).range(lo, hi);
            let (workloads, workloads_body) = scaled(&self.tenants[ti].base_rates, load);
            let t = tracer.begin("sim");
            let sim = self.simulation(&self.tenants[ti], round);
            let mut collector = TelemetryCollector::for_app(
                &self.tenants[ti].app,
                TelemetryConfig {
                    sampling: 1.0,
                    ring_capacity: 1 << 17,
                    seed: self.seed ^ (round << 8) ^ ti as u64,
                    relative_error: 0.01,
                },
            );
            let result = sim.run_with_sink(
                &workloads,
                &deployment.containers,
                &deployment.priorities,
                &mut collector,
            );
            tracer.end(t);
            m.attempted += 1;
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    m.fail(format!("round {round}: simulation of {id} failed: {e}"));
                    continue;
                }
            };

            // Ship the spans.
            let ingest_started = Instant::now();
            let spans: Vec<_> = collector.spans().copied().collect();
            let mut samples_added = 0.0;
            let mut bytes_out = 0usize;
            let mut bytes_in = 0usize;
            for chunk in spans.chunks(self.cfg.batch_spans) {
                let t = tracer.begin("codec.encode");
                let body = span_batch_to_json(&SpanBatch {
                    sampling: 1.0,
                    containers: deployment.containers.clone(),
                    spans: chunk.to_vec(),
                })
                .render();
                tracer.end(t);
                bytes_out += body.len();
                if let Some(reply) = call(
                    &mut self.client,
                    tracer,
                    m,
                    "http.post_spans",
                    "post_spans",
                    "POST",
                    &format!("/v1/tenants/{id}/spans"),
                    Some(body.as_bytes()),
                ) {
                    bytes_in += reply.len();
                    let t = tracer.begin("codec.decode");
                    samples_added += json(&reply)
                        .and_then(|j| j.get("samples_added").and_then(Json::as_f64))
                        .unwrap_or(0.0);
                    tracer.end(t);
                }
            }
            m.ingest_ms
                .push(ingest_started.elapsed().as_secs_f64() * 1e3);

            // Report the observed load, then re-fit and re-plan for it.
            call(
                &mut self.client,
                tracer,
                m,
                "http.workloads",
                "workloads",
                "POST",
                &format!("/v1/tenants/{id}/workloads"),
                Some(workloads_body.as_bytes()),
            );
            let started = Instant::now();
            let reply = call(
                &mut self.client,
                tracer,
                m,
                "http.replan",
                "replan",
                "POST",
                &format!("/v1/tenants/{id}/replan"),
                None,
            );
            m.replan_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let t = tracer.begin("codec.decode");
            let decision = reply
                .as_deref()
                .and_then(json)
                .and_then(|j| j.get("decision").cloned());
            tracer.end(t);
            let field = |k: &str| {
                decision
                    .as_ref()
                    .and_then(|d| d.get(k))
                    .and_then(|v| v.as_f64().or_else(|| v.as_bool().map(f64::from)))
                    .unwrap_or(0.0)
            };
            if field("skipped") > 0.0 {
                m.fail(format!("round {round}: planner skipped {id}'s round"));
            }
            if let Some(c) = counts.as_deref_mut() {
                let now = self
                    .plane
                    .as_ref()
                    .and_then(|p| {
                        p.with_tenant(&id, |t| {
                            let cache = t.manager.plan_cache();
                            (t.manager.planner_metrics(), cache.hits(), cache.misses())
                        })
                    })
                    .unwrap_or_default();
                let (before, hits, misses) = std::mem::replace(&mut self.planner[ti], now);
                let after = now.0;
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
                c.add("plan.cache_hits", (now.1 - hits) as f64);
                c.add("plan.cache_misses", (now.2 - misses) as f64);
                c.add("sim.events", result.events as f64);
                c.add("sim.completed", result.completed as f64);
                c.add("telemetry.spans_seen", collector.spans_seen() as f64);
                c.add("telemetry.spans_kept", spans.len() as f64);
                c.add(
                    "telemetry.ring_overwritten",
                    collector.ring().overwritten() as f64,
                );
                c.add("refit.samples_added", samples_added);
                c.add("refit.refitted_ms", field("refitted"));
                c.add("plan.degraded_rounds", field("degraded"));
                c.add("plan.skipped_rounds", field("skipped"));
                c.add("http.bytes_out", bytes_out as f64);
                c.add(
                    "http.bytes_in",
                    (bytes_in + reply.as_ref().map_or(0, Vec::len)) as f64,
                );
            }
            check
                .windows
                .push((ti, deployment, result.service_latencies));
        }
        if let Some(c) = counts {
            let after = calls(m);
            for (i, (_, name)) in COUNTED.iter().enumerate() {
                c.add(name, (after[i] - calls_before[i]) as f64);
            }
        }
        check
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(r) = self.reader.take() {
            r.stop.store(true, Ordering::SeqCst);
            let _ = r.handle.join();
        }
        if let Some(plane) = self.plane.take() {
            // Close the agent's keep-alive connection first: the daemon's
            // shutdown joins the worker serving it, which otherwise waits
            // out the idle timeout.
            if let Ok(unconnected) = Client::new(plane.addr()) {
                self.client = unconnected;
            }
            plane.stop();
        }
        let _ = std::fs::remove_dir_all(&self.work_dir);
        if let Some(parent) = self.work_dir.parent() {
            // Removed only when no other instance still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
