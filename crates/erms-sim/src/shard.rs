//! Sharded parallel DES with conservative time-window synchronization.
//!
//! [`Simulation::run_sharded_with_partition_and_sinks`] partitions the
//! microservices (and with them their containers and all events they
//! serve) into `K` shards, each with its own calendar queue
//! ([`crate::equeue`]), mutable deployment state and RNG streams, and runs
//! the shards under a conservative time-window protocol. The result is
//! **bit-identical for every partition, every shard count `K` and every
//! thread count**: the K-shard run equals the 1-shard run field for field,
//! `f64` bit for `f64` bit.
//!
//! Sharding parallelises *one big* simulation; for many independent runs
//! use [`crate::replicate::replicate`] instead, which fans replicas out
//! over rayon — and transparently falls back to a serial loop for small
//! batches (see its docs), so both layers stay cheap at small scale.
//!
//! # Partition
//!
//! Microservice ownership is a [`Partition`] lookup table:
//! [`Partition::modulo`] (`m.index() % K`), the topology-aware min-cut
//! tables of [`crate::partition`], or any table from
//! [`Partition::from_assignment`]. Every event of a call executes on the
//! shard of the microservice that serves it; a request walks shards as its
//! dependency graph walks microservices. Cross-microservice interactions —
//! spawning a child call, reporting a child's completion (or abandonment)
//! back to its parent — are *always* scheduled events at
//! `t + network_delay_ms`, whether the two microservices share a shard or
//! not, so the logical event schedule does not depend on the partition,
//! and results are bit-identical under *every* partition of the same
//! simulation.
//!
//! # Conservative windows
//!
//! The only cross-shard effects are those `+net` messages, so
//! `network_delay_ms` is the protocol's *lookahead* `L`. Each window, all
//! shards agree on the global minimum next-event time `g` and process
//! every local event with `t < g + L`; any message generated by such an
//! event carries `t' = t + net ≥ g + L` (rounding is monotone, so this
//! holds in `f64` exactly), i.e. it is strictly beyond the window edge and
//! is delivered — through per-pair mailboxes — before any shard starts the
//! window that could observe it. Barriers at the window edges make this
//! safe under any thread count; `net = 0` is rejected because the
//! lookahead would degenerate.
//!
//! There is one window rule, `end = g + L`, for every partition, `K` and
//! thread count. At each window edge every message has been delivered, so
//! the union of the shards' pending events is the same set the K=1 run
//! holds; `g`, and with it the whole window sequence, depends only on the
//! global event schedule. [`ShardStats::windows`] is therefore
//! partition-invariant, and so is truncation by
//! [`SimConfig::max_events`](crate::runtime::SimConfig::max_events),
//! which is checked at window edges against the K-invariant event total:
//! a capped run stops after the same window, with the same result, under
//! any partition.
//!
//! Wider windows do not pay. Widening past `g + L` while no event that
//! could emit a cross-shard message is pending within `L` saved 37 of
//! 9,200 windows per episode (0.4%) on the Taobao-scale closed loop (K=2,
//! topology-aware, one thread, 6 interleaved seeds), left the message
//! count unchanged and did not move the round tail (463 ms widened vs
//! 457 ms fixed, median): at about 5 arrivals/ms such an event is almost
//! always pending. Running a cut-free partition in one window would make
//! a capped run overshoot `max_events` (8,865 events instead of 5,002
//! with a 5,000 cap) and break the partition invariance above.
//!
//! # Determinism argument
//!
//! Bit-identity across `K` and thread counts rests on three mechanisms:
//!
//! 1. **A global total order on events.** Every event has a unique key
//!    `(time_key, kind, ident)` where `ident` packs the request id and the
//!    call's flat instance index. Queues pop in this order, and mailbox
//!    drains only insert events the receiving shard has not reached, so
//!    the interleaving that any shard observes is the restriction of one
//!    fixed global schedule — independent of sharding and scheduling.
//! 2. **Entity-keyed RNG streams.** Randomness is drawn from per-entity
//!    streams — per-service arrival streams (inter-arrival gaps, drop
//!    coins), per-microservice streams (service times, queue picks), and
//!    per-call streams (fractional fan-out, span-loss coins) — seeded by
//!    mixing the base seed with the entity's id. An entity's events all
//!    execute on one shard in global-order sequence, so each stream is
//!    consumed in the same order no matter how entities are partitioned.
//! 3. **Canonical merge.** Latency vectors are owned wholly by one shard
//!    (a service's end-to-end samples live with its root microservice; a
//!    microservice's own-latency rows live with it). Trace stores are
//!    absorbed and every trace's spans sorted by span id — at every `K`,
//!    including 1 — and counters are summed, with fault firings counted
//!    once globally.
//!
//! The sequential engine ([`Simulation::run`]) consumes one global RNG
//! stream in arrival order, which no partition can reproduce; the sharded
//! engine is therefore a *separate* engine with its own golden digests
//! (`tests/golden_sim.rs`), while `run`/`run_reference` and their digests
//! stay untouched.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex};

use erms_core::app::WorkloadVector;
use erms_core::error::{Error, Result};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_trace::span::{Span, SpanId, SpanKind, TraceId};
use erms_trace::store::TraceStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::equeue::{Batch, CalendarQueue};
use crate::partition::Partition;
use crate::runtime::{
    exp_sample, lower_fault_schedule, pick_next, Container, DeploymentState, EngineFault,
    EngineFaultKind, Scheduling, SimResult, Simulation,
};
use crate::tables::SimTables;
use crate::telemetry::{RequestRecord, SpanRecord, TelemetrySink};
use crate::timekey::{key_time, time_key};

/// Execution statistics of one sharded run
/// ([`Simulation::run_sharded_with_partition_and_sinks`]): what the window
/// protocol paid. How much a partition cuts is a property of the table
/// alone — see [`Partition::cut_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Conservative windows executed; the same under every partition of
    /// the same simulation.
    pub windows: u64,
    /// Cross-shard messages sent through the mailboxes.
    pub messages: u64,
}

impl ShardStats {
    /// Mean cross-shard messages per window, 0 for window-free runs.
    #[must_use]
    pub fn messages_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.messages as f64 / self.windows as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic identities
// ---------------------------------------------------------------------------

/// Event kind ranks: the tie-break order of simultaneous events.
const KIND_FAULT: u8 = 0;
const KIND_ARRIVAL: u8 = 1;
const KIND_READY: u8 = 2;
const KIND_DONE: u8 = 3;
const KIND_JOIN: u8 = 4;

/// Stream tags keep the arrival / microservice / call stream families
/// disjoint even when their entity ids collide numerically.
const TAG_ARRIVAL: u64 = 1;
const TAG_MS: u64 = 2;
const TAG_CALL: u64 = 3;

/// SplitMix64-style finalizer: full-avalanche bijection on `u64`.
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one entity-keyed RNG stream: a deterministic mix of the
/// base seed, a stream-family tag and up to two entity words.
#[inline]
fn stream_seed(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    avalanche(
        avalanche(avalanche(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(a))
            .wrapping_add(b),
    )
}

/// Bits of a request id reserved for the per-service arrival counter.
const RID_COUNTER_BITS: u32 = 40;

/// Request id of the `n`-th arrival of service `sid`: globally unique and
/// identical at every shard count (each service's arrivals are generated
/// by one shard from one stream, in time order).
#[inline]
fn request_id(sid: ServiceId, n: u64) -> u64 {
    ((sid.index() as u64) << RID_COUNTER_BITS) | n
}

/// Per-service static instance numbering: assigns every possible call
/// instance of a dependency graph a *flat index* unique within a request,
/// computable locally by the spawning shard.
///
/// A node can be instantiated several times per request when an ancestor
/// has multiplicity > 1, so `(node, copy)` alone is ambiguous. Instead
/// each node gets `width = Π ancestor copy-caps` instance slots starting
/// at `base`; a child instance derives from its parent's instance as
/// `inst = parent_inst * cap(child) + copy`. Flat indices seed the
/// per-call RNG streams, form span ids (`server = flat << 1`,
/// `client = flat << 1 | 1`) and break event-key ties.
#[derive(Debug, Clone)]
struct InstanceTable {
    /// Per node: maximum copies per parent instance.
    cap: Vec<u64>,
    /// Per node: first flat index of its instance range.
    base: Vec<u64>,
}

impl InstanceTable {
    /// Builds the numbering for one service graph. Errors when the
    /// instance space overflows the span-id packing (practically
    /// unreachable: it requires astronomically deep multiplicity chains).
    fn build(st: &crate::tables::ServiceTable) -> Result<Self> {
        let n = st.node_ms.len();
        let mut width = vec![0u64; n];
        let mut cap = vec![0u64; n];
        for (i, c) in cap.iter_mut().enumerate() {
            *c = st.node_whole[i] as u64 + u64::from(st.node_frac[i] > 0.0);
        }
        let overflow = || {
            Error::InvalidParameter(
                "dependency graph call-instance space overflows the sharded engine's \
                 64-bit span numbering"
                    .into(),
            )
        };
        width[st.root_node.index()] = 1;
        // The graph is a tree with parents preceding children in stage
        // order; a BFS from the root visits parents first.
        let mut queue = VecDeque::new();
        queue.push_back(st.root_node);
        while let Some(node) = queue.pop_front() {
            let w = width[node.index()];
            let (stages_start, stages_count) = st.node_stages[node.index()];
            for stage in 0..stages_count as usize {
                let (children_start, children_count) =
                    st.stage_spans[stages_start as usize + stage];
                let span = children_start as usize..(children_start + children_count) as usize;
                for &child in &st.children[span] {
                    let ci = child.index();
                    width[ci] = w.checked_mul(cap[ci]).ok_or_else(overflow)?;
                    queue.push_back(child);
                }
            }
        }
        let mut base = vec![0u64; n];
        let mut acc = 0u64;
        for i in 0..n {
            base[i] = acc;
            acc = acc.checked_add(width[i]).ok_or_else(overflow)?;
        }
        // Span ids shift the flat index left once for the client bit.
        if acc > u64::MAX >> 1 {
            return Err(overflow());
        }
        Ok(Self { cap, base })
    }
}

// ---------------------------------------------------------------------------
// Events, calls, messages
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum SEvent {
    /// Next Poisson arrival of a service (owned by its root's shard).
    Arrival(ServiceId),
    /// A call reaches its deployment and tries to grab a thread.
    Ready(u32),
    /// A call's own processing finished on its container thread.
    Done(u32),
    /// A child call finished (`ok`) or was abandoned (`!ok`); settle the
    /// parent call in arena slot `parent`.
    Join { parent: u32, ok: bool },
    /// A scheduled fault fires (index into the global fault schedule).
    Fault(u32),
}

/// Queue tiebreak under the global `(time_key, kind, ident)` key. Keys
/// are unique across the whole simulation, so pop order is independent of
/// insertion order — the property that makes mailbox drains and thread
/// scheduling invisible to results. Unlike the sequential engine's
/// monotone push counter, a same-instant push can tie-sort *before*
/// not-yet-dispatched peers; [`Batch::insert`] handles that ordering.
type ShardTie = (u8, u128);

/// Event identity for call-carrying events: request id and flat instance.
#[inline]
fn call_ident(rid: u64, flat: u64) -> u128 {
    ((rid as u128) << 64) | flat as u128
}

/// One in-flight call in a shard's arena. Unlike the sequential engine's
/// `Call` this is not `Copy` — it carries the call's own RNG stream — but
/// it still holds no heap storage, so arena reuse allocates nothing.
#[derive(Debug, Clone)]
struct SCall {
    service: ServiceId,
    node: NodeId,
    ms: MicroserviceId,
    rid: u64,
    inst: u64,
    flat: u64,
    parent_shard: u32,
    parent_slot: u32,
    parent_flat: u64,
    has_parent: bool,
    container: u32,
    arrive: f64,
    client_start: f64,
    root_start: f64,
    stage: u32,
    pending: u32,
    traced: bool,
    /// Per-call stream: fractional fan-out coins, span-loss coins.
    rng: StdRng,
    in_use: bool,
    in_service: bool,
    killed: bool,
}

/// A spawned call on the wire: everything the owning shard needs to
/// materialize it in its arena. Also used for same-shard spawns, so local
/// and remote children follow one code path.
#[derive(Debug, Clone, Copy)]
struct WireCall {
    at_ms: f64,
    service: ServiceId,
    node: NodeId,
    ms: MicroserviceId,
    rid: u64,
    inst: u64,
    flat: u64,
    parent_shard: u32,
    parent_slot: u32,
    parent_flat: u64,
    client_start: f64,
    root_start: f64,
    traced: bool,
}

/// A cross-shard message, delivered through per-pair mailboxes at window
/// edges. Timestamps are always `>= window_end` by the lookahead argument.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Spawn a child call on the receiving (owning) shard.
    Ready(WireCall),
    /// Settle a parent call on the receiving shard: a child completed
    /// (`ok`) or was abandoned (`!ok`).
    Join {
        at_ms: f64,
        rid: u64,
        flat: u64,
        parent_slot: u32,
        ok: bool,
    },
}

// ---------------------------------------------------------------------------
// The per-shard engine
// ---------------------------------------------------------------------------

struct ShardEngine<'e, S: TelemetrySink> {
    id: usize,
    /// Microservice → shard ownership table.
    partition: &'e Partition,
    /// Future local events in `(time_key, kind, ident)` order — the same
    /// calendar queue as the sequential engine, tie-broken by the global
    /// identity instead of a push counter.
    queue: CalendarQueue<ShardTie, SEvent>,
    /// Same-instant group being dispatched (see the sequential engine).
    batch: Batch<ShardTie, SEvent>,
    duration_ms: f64,
    warmup_ms: f64,
    net_ms: f64,
    drop_p: f64,
    span_loss: f64,
    deadline_ms: Option<f64>,
    delta: f64,
    seed: u64,
    calls: Vec<SCall>,
    free: Vec<u32>,
    tables: &'e SimTables,
    insts: &'e [InstanceTable],
    schedule: &'e [EngineFault],
    /// Deployment state for owned microservices; foreign slots hold empty
    /// container vectors and are never touched.
    state: Vec<DeploymentState>,
    /// Per-service arrival streams (consumed only for owned roots).
    arrival_rng: Vec<StdRng>,
    /// Per-service arrival counters (request-id numbering).
    arrival_count: Vec<u64>,
    /// Per-microservice streams (service times, queue picks; owned only).
    ms_rng: Vec<StdRng>,
    store: TraceStore,
    result_latencies: Vec<Vec<f64>>,
    result_own: Vec<Vec<(f64, f64, ServiceId)>>,
    generated: u64,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    crash_violations: u64,
    crashed_containers: u64,
    reclaimed_containers: u64,
    lost_spans: u64,
    /// Non-fault events popped by this shard (fault firings are counted
    /// once globally at merge, not per shard, so the sum is K-invariant).
    events: u64,
    /// Outgoing messages per destination shard, reused across windows.
    outbox: Vec<Vec<Msg>>,
    /// Cross-shard messages pushed into `outbox` over the whole run.
    msgs_sent: u64,
    sink: S,
}

impl<'e, S: TelemetrySink> ShardEngine<'e, S> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        sim: &Simulation<'_>,
        tables: &'e SimTables,
        insts: &'e [InstanceTable],
        schedule: &'e [EngineFault],
        containers: &BTreeMap<MicroserviceId, u32>,
        id: usize,
        partition: &'e Partition,
        sink: S,
    ) -> Self {
        let ms_count = tables.hot.threads.len();
        let service_count = tables.services.len();
        let shards = partition.shards();
        let seed = sim.config.seed;
        let mut state: Vec<DeploymentState> = (0..ms_count)
            .map(|mi| {
                let owned = partition.shard_of(MicroserviceId::new(mi as u32)) == id;
                let n = if owned {
                    containers
                        .get(&MicroserviceId::new(mi as u32))
                        .copied()
                        .unwrap_or(0) as usize
                } else {
                    0
                };
                let n_classes = tables.cold.n_classes[mi] as usize;
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
        // Cold starts gate the newest containers of owned deployments.
        for cold in &sim.faults.cold_starts {
            if partition.shard_of(cold.ms) != id {
                continue;
            }
            if let Some(dep) = state.get_mut(cold.ms.index()) {
                let n = dep.containers.len();
                let first = n.saturating_sub(cold.count as usize);
                for container in &mut dep.containers[first..] {
                    container.available_from = container.available_from.max(cold.delay_ms);
                }
            }
        }
        Self {
            id,
            partition,
            queue: CalendarQueue::new(),
            batch: Batch::new(),
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
            seed,
            calls: Vec::new(),
            free: Vec::new(),
            tables,
            insts,
            schedule,
            state,
            arrival_rng: (0..service_count)
                .map(|i| StdRng::seed_from_u64(stream_seed(seed, TAG_ARRIVAL, i as u64, 0)))
                .collect(),
            arrival_count: vec![0; service_count],
            ms_rng: (0..ms_count)
                .map(|i| StdRng::seed_from_u64(stream_seed(seed, TAG_MS, i as u64, 0)))
                .collect(),
            store: TraceStore::with_sampling(sim.config.trace_sampling, seed ^ 0xA5A5),
            result_latencies: vec![Vec::new(); service_count],
            result_own: vec![Vec::new(); ms_count],
            generated: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            crash_violations: 0,
            crashed_containers: 0,
            reclaimed_containers: 0,
            lost_spans: 0,
            events: 0,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            msgs_sent: 0,
            sink,
        }
    }

    /// Seeds the first arrival of every owned root service and the fault
    /// events of every schedule entry that touches an owned microservice.
    fn seed_initial(&mut self) {
        for i in 0..self.tables.hot.rate_per_ms.len() {
            let lambda = self.tables.hot.rate_per_ms[i];
            if lambda <= 0.0 {
                continue;
            }
            let root_ms = self.tables.services[i].root_ms;
            if self.partition.shard_of(root_ms) != self.id {
                continue;
            }
            let dt = exp_sample(lambda, &mut self.arrival_rng[i]);
            self.push(
                dt,
                KIND_ARRIVAL,
                i as u128,
                SEvent::Arrival(ServiceId::new(i as u32)),
            );
        }
        for (i, fault) in self.schedule.iter().enumerate() {
            if fault
                .losses
                .iter()
                .any(|&(ms, _)| self.partition.shard_of(ms) == self.id)
            {
                self.push(fault.at_ms, KIND_FAULT, i as u128, SEvent::Fault(i as u32));
            }
        }
    }

    /// Pushes an event under its global `(time_key, kind, ident)` key.
    fn push(&mut self, time: f64, kind: u8, ident: u128, event: SEvent) {
        let key = time_key(time);
        if self.batch.accepts(key) {
            // Scheduled at the instant being dispatched: tie-order insert
            // into the live batch — `(kind, ident)` is not monotone in
            // push order, so this may land before unprocessed peers,
            // exactly where the heap would have popped it.
            self.batch.insert((kind, ident), event);
        } else {
            self.queue.push(key, (kind, ident), event);
        }
    }

    /// Time key of the next local event (`u64::MAX` when idle). Only
    /// called at window boundaries, where the batch is always exhausted.
    fn next_key(&mut self) -> u64 {
        self.queue.peek_key().unwrap_or(u64::MAX)
    }

    /// Processes every local event strictly before `end_key`, filling the
    /// outboxes with cross-shard messages (all timestamped `>= end`).
    fn process_window(&mut self, end_key: u64) {
        loop {
            match self.queue.peek_key() {
                Some(key) if key < end_key => {}
                _ => break,
            }
            let refilled = self.batch.refill(&mut self.queue);
            debug_assert!(refilled, "peeked key must be poppable");
            let time = key_time(self.batch.key());
            while let Some((_, event)) = self.batch.pop_front() {
                match event {
                    SEvent::Arrival(sid) => {
                        self.events += 1;
                        self.on_arrival(sid, time);
                    }
                    SEvent::Ready(idx) => {
                        self.events += 1;
                        self.on_ready(idx, time);
                    }
                    SEvent::Done(idx) => {
                        self.events += 1;
                        self.on_done(idx, time);
                    }
                    SEvent::Join { parent, ok } => {
                        self.events += 1;
                        self.on_join(parent, ok, time);
                    }
                    SEvent::Fault(i) => self.on_fault(i as usize, time),
                }
            }
        }
    }

    /// Drains one delivered mailbox batch into the local heap, returning
    /// the (now empty) vector for buffer reuse.
    fn deliver(&mut self, mut msgs: Vec<Msg>) -> Vec<Msg> {
        for msg in msgs.drain(..) {
            match msg {
                Msg::Ready(wire) => self.accept_ready(wire),
                Msg::Join {
                    at_ms,
                    rid,
                    flat,
                    parent_slot,
                    ok,
                } => self.push(
                    at_ms,
                    KIND_JOIN,
                    call_ident(rid, flat),
                    SEvent::Join {
                        parent: parent_slot,
                        ok,
                    },
                ),
            }
        }
        msgs
    }

    fn alloc_call(&mut self, call: SCall) -> u32 {
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

    /// Materializes a spawned child call in the local arena and schedules
    /// its `Ready`.
    fn accept_ready(&mut self, w: WireCall) {
        let rng = StdRng::seed_from_u64(stream_seed(self.seed, TAG_CALL, w.rid, w.flat));
        let idx = self.alloc_call(SCall {
            service: w.service,
            node: w.node,
            ms: w.ms,
            rid: w.rid,
            inst: w.inst,
            flat: w.flat,
            parent_shard: w.parent_shard,
            parent_slot: w.parent_slot,
            parent_flat: w.parent_flat,
            has_parent: true,
            container: 0,
            arrive: w.at_ms,
            client_start: w.client_start,
            root_start: w.root_start,
            stage: 0,
            pending: 0,
            traced: w.traced,
            rng,
            in_use: true,
            in_service: false,
            killed: false,
        });
        self.push(
            w.at_ms,
            KIND_READY,
            call_ident(w.rid, w.flat),
            SEvent::Ready(idx),
        );
    }

    fn on_arrival(&mut self, sid: ServiceId, time: f64) {
        let si = sid.index();
        let lambda = self.tables.hot.rate_per_ms[si];
        if lambda > 0.0 {
            let next = time + exp_sample(lambda, &mut self.arrival_rng[si]);
            if next <= self.duration_ms {
                self.push(next, KIND_ARRIVAL, si as u128, SEvent::Arrival(sid));
            }
        }
        self.generated += 1;
        let rid = request_id(sid, self.arrival_count[si]);
        self.arrival_count[si] += 1;
        // Front-door drop: the stream is only consulted when armed.
        let drop_p = self.drop_p;
        if drop_p > 0.0 && self.arrival_rng[si].gen_bool(drop_p) {
            self.dropped += 1;
            return;
        }
        let st = &self.tables.services[si];
        let (root_node, ms) = (st.root_node, st.root_ms);
        let traced = self.store.is_sampled(TraceId(rid));
        let flat = self.insts[si].base[root_node.index()];
        let rng = StdRng::seed_from_u64(stream_seed(self.seed, TAG_CALL, rid, flat));
        let idx = self.alloc_call(SCall {
            service: sid,
            node: root_node,
            ms,
            rid,
            inst: 0,
            flat,
            parent_shard: 0,
            parent_slot: 0,
            parent_flat: 0,
            has_parent: false,
            container: 0,
            arrive: time,
            client_start: time,
            root_start: time,
            stage: 0,
            pending: 0,
            traced,
            rng,
            in_use: true,
            in_service: false,
            killed: false,
        });
        self.push(time, KIND_READY, call_ident(rid, flat), SEvent::Ready(idx));
    }

    fn on_ready(&mut self, idx: u32, time: f64) {
        let (ms, service) = {
            let call = &self.calls[idx as usize];
            (call.ms, call.service)
        };
        let mi = ms.index();
        let dep = &mut self.state[mi];
        let n = dep.containers.len();
        let mut c_idx = None;
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
            self.dropped += 1;
            self.abandon(idx, time);
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
        let class = hot.class(mi, service);
        let container = &mut self.state[mi].containers[c_idx];
        if container.busy < threads {
            container.busy += 1;
            container.in_service.push(idx);
            let start = time.max(container.available_from);
            let dt = sampler.sample(&mut self.ms_rng[mi]);
            let (rid, flat) = {
                let call = &mut self.calls[idx as usize];
                call.in_service = true;
                (call.rid, call.flat)
            };
            self.push(
                start + dt,
                KIND_DONE,
                call_ident(rid, flat),
                SEvent::Done(idx),
            );
        } else {
            container.queues[class].push_back(idx);
        }
    }

    fn on_done(&mut self, idx: u32, time: f64) {
        let (ms, container_idx, arrive, service) = {
            let call = &mut self.calls[idx as usize];
            if call.killed {
                self.abandon(idx, time);
                return;
            }
            call.in_service = false;
            (call.ms, call.container as usize, call.arrive, call.service)
        };
        let mi = ms.index();
        let sampler = self.tables.hot.samplers[mi];
        let next_start = {
            let delta = self.delta;
            let container = &mut self.state[mi].containers[container_idx];
            if container.failed {
                None
            } else {
                if let Some(pos) = container.in_service.iter().position(|&c| c == idx) {
                    container.in_service.swap_remove(pos);
                }
                let picked = pick_next(&mut container.queues, delta, &mut self.ms_rng[mi]);
                match picked {
                    Some(next) => {
                        container.in_service.push(next);
                        let dt = sampler.sample(&mut self.ms_rng[mi]);
                        Some((next, dt))
                    }
                    None => {
                        container.busy -= 1;
                        None
                    }
                }
            }
        };
        if let Some((next, dt)) = next_start {
            let (rid, flat) = {
                let call = &mut self.calls[next as usize];
                call.in_service = true;
                (call.rid, call.flat)
            };
            self.push(
                time + dt,
                KIND_DONE,
                call_ident(rid, flat),
                SEvent::Done(next),
            );
        }
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
        self.advance_stages(idx, time, 0);
    }

    /// A child call settled: `ok` decrements the parent's outstanding
    /// count and advances its stages when the last child lands; `!ok`
    /// (abandonment) only decrements, so the stage never advances through
    /// a failed child — mirroring the sequential engine's semantics.
    fn on_join(&mut self, parent: u32, ok: bool, time: f64) {
        let parent_call = &mut self.calls[parent as usize];
        debug_assert!(parent_call.in_use);
        if ok {
            parent_call.pending -= 1;
            let next_stage = parent_call.stage as usize + 1;
            if parent_call.pending == 0 {
                self.advance_stages(parent, time, next_stage);
            }
        } else {
            parent_call.pending = parent_call.pending.saturating_sub(1);
        }
    }

    /// Starts stage `stage` of `idx`'s node, or completes the call when
    /// all stages are done. Children are spawned at `time + net` through
    /// the uniform wire path, local or remote.
    fn advance_stages(&mut self, idx: u32, time: f64, stage: usize) {
        let (service, node_id, rid, inst, flat, traced, root_start) = {
            let call = &self.calls[idx as usize];
            (
                call.service,
                call.node,
                call.rid,
                call.inst,
                call.flat,
                call.traced,
                call.root_start,
            )
        };
        let tables = self.tables;
        let st = &tables.services[service.index()];
        let it = &self.insts[service.index()];
        let (stages_start, stages_count) = st.node_stages[node_id.index()];
        if stage >= stages_count as usize {
            self.complete(idx, time);
            return;
        }
        let mut spawned = 0usize;
        let net = self.net_ms;
        let at = time + net;
        let (children_start, children_count) = st.stage_spans[stages_start as usize + stage];
        let child_span = children_start as usize..(children_start + children_count) as usize;
        for &child_node in &st.children[child_span] {
            let ci = child_node.index();
            let frac = st.node_frac[ci];
            // Fractional multiplicities draw the extra-copy coin from the
            // *parent call's* stream, so the draw order is fixed by the
            // call's own event sequence regardless of partition.
            let copies = st.node_whole[ci] as usize
                + usize::from(frac > 0.0 && self.calls[idx as usize].rng.gen_bool(frac));
            let child_ms = st.node_ms[ci];
            let dst = self.partition.shard_of(child_ms);
            for copy in 0..copies {
                let child_inst = inst * it.cap[ci] + copy as u64;
                let wire = WireCall {
                    at_ms: at,
                    service,
                    node: child_node,
                    ms: child_ms,
                    rid,
                    inst: child_inst,
                    flat: it.base[ci] + child_inst,
                    parent_shard: self.id as u32,
                    parent_slot: idx,
                    parent_flat: flat,
                    client_start: time,
                    root_start,
                    traced,
                };
                if dst == self.id {
                    self.accept_ready(wire);
                } else {
                    self.outbox[dst].push(Msg::Ready(wire));
                    self.msgs_sent += 1;
                }
                spawned += 1;
            }
        }
        if spawned == 0 {
            self.advance_stages(idx, time, stage + 1);
            return;
        }
        let call = &mut self.calls[idx as usize];
        call.stage = stage as u32;
        call.pending = spawned as u32;
    }

    /// A call finished all its stages: emit spans, notify the parent (a
    /// `Join` at `time + net`) or finish the request.
    fn complete(&mut self, idx: u32, time: f64) {
        let (traced, has_parent, root_start, service) = {
            let call = &self.calls[idx as usize];
            (call.traced, call.has_parent, call.root_start, call.service)
        };
        if traced {
            let call = &self.calls[idx as usize];
            let span = Span {
                trace_id: TraceId(call.rid),
                span_id: SpanId(call.flat << 1),
                parent: call.has_parent.then_some(SpanId(call.parent_flat << 1)),
                microservice: call.ms,
                service: call.service,
                kind: SpanKind::Server,
                start_ms: call.arrive,
                end_ms: time,
            };
            self.record_span(idx, span);
        }
        let net = self.net_ms;
        if !has_parent {
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
            return;
        }
        if traced {
            let call = &self.calls[idx as usize];
            let span = Span {
                trace_id: TraceId(call.rid),
                span_id: SpanId((call.flat << 1) | 1),
                parent: Some(SpanId(call.parent_flat << 1)),
                microservice: call.ms,
                service: call.service,
                kind: SpanKind::Client,
                start_ms: call.client_start,
                end_ms: time + net,
            };
            self.record_span(idx, span);
        }
        self.settle_parent(idx, time, true);
    }

    /// Sends the parent's `Join` (local push or outbox) and releases the
    /// child's arena slot.
    fn settle_parent(&mut self, idx: u32, time: f64, ok: bool) {
        let (rid, flat, parent_shard, parent_slot) = {
            let call = &self.calls[idx as usize];
            (
                call.rid,
                call.flat,
                call.parent_shard as usize,
                call.parent_slot,
            )
        };
        self.release_call(idx);
        let at = time + self.net_ms;
        if parent_shard == self.id {
            self.push(
                at,
                KIND_JOIN,
                call_ident(rid, flat),
                SEvent::Join {
                    parent: parent_slot,
                    ok,
                },
            );
        } else {
            self.outbox[parent_shard].push(Msg::Join {
                at_ms: at,
                rid,
                flat,
                parent_slot,
                ok,
            });
            self.msgs_sent += 1;
        }
    }

    /// Records a span unless the fault plan loses it on the way to the
    /// collector. The loss coin comes from the call's own stream.
    fn record_span(&mut self, idx: u32, span: Span) {
        let loss = self.span_loss;
        if loss > 0.0 && self.calls[idx as usize].rng.gen_bool(loss) {
            self.lost_spans += 1;
        } else {
            self.store.record(span);
        }
    }

    /// A call that cannot be served: unwind, notifying a parent with a
    /// not-ok `Join` so the failed branch never advances the stage.
    fn abandon(&mut self, idx: u32, time: f64) {
        if self.calls[idx as usize].has_parent {
            self.settle_parent(idx, time, false);
        } else {
            self.release_call(idx);
        }
    }

    /// Fires one scheduled fault, restricted to the owned microservices of
    /// the entry. All shards touched by a multi-shard entry fire it at the
    /// same timestamp — and therefore inside the same window — so domain
    /// failures cordon and kill atomically across shards.
    fn on_fault(&mut self, index: usize, time: f64) {
        let schedule = self.schedule;
        let entry = &schedule[index];
        if entry.kind == EngineFaultKind::Drain {
            for &(ms, count) in &entry.losses {
                if self.partition.shard_of(ms) != self.id {
                    continue;
                }
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
        let reclaim = entry.kind == EngineFaultKind::Reclaim;
        for &(ms, count) in &entry.losses {
            if self.partition.shard_of(ms) != self.id {
                continue;
            }
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
            for idx in in_service_victims {
                self.calls[idx as usize].killed = true;
                self.crash_violations += 1;
            }
            for idx in victims {
                self.crash_violations += 1;
                self.abandon(idx, time);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Window drivers
// ---------------------------------------------------------------------------

/// The exclusive end key of the window starting at global minimum `gmin`:
/// `gmin + lookahead`, with a one-ulp floor so the loop always advances
/// even for degenerate time/lookahead ratios.
#[inline]
fn window_end(gmin: u64, net_ms: f64) -> u64 {
    let end = time_key(key_time(gmin) + net_ms);
    if end <= gmin {
        gmin + 1
    } else {
        end
    }
}

/// Advances `fired` past every schedule entry firing before `end_key` and
/// returns the K-invariant global event total used for the `max_events`
/// check at window boundaries.
#[inline]
fn window_total(fired: &mut usize, schedule_keys: &[u64], end_key: u64, events: u64) -> u64 {
    while *fired < schedule_keys.len() && schedule_keys[*fired] < end_key {
        *fired += 1;
    }
    events + *fired as u64
}

/// Single-threaded window loop: same windows, same delivery order, no
/// synchronization. Returns the number of schedule entries fired and the
/// number of windows executed.
fn run_windows_serial<S: TelemetrySink>(
    engines: &mut [ShardEngine<'_, S>],
    net_ms: f64,
    max_events: u64,
    schedule_keys: &[u64],
) -> (usize, u64) {
    let k = engines.len();
    let mut fired = 0usize;
    let mut windows = 0u64;
    loop {
        let gmin = engines
            .iter_mut()
            .map(|e| e.next_key())
            .min()
            .unwrap_or(u64::MAX);
        if gmin == u64::MAX {
            break;
        }
        let end_key = window_end(gmin, net_ms);
        windows += 1;
        for engine in engines.iter_mut() {
            engine.process_window(end_key);
        }
        for src in 0..k {
            for dst in 0..k {
                if src == dst || engines[src].outbox[dst].is_empty() {
                    continue;
                }
                let msgs = std::mem::take(&mut engines[src].outbox[dst]);
                let empty = engines[dst].deliver(msgs);
                engines[src].outbox[dst] = empty;
            }
        }
        let events: u64 = engines.iter().map(|e| e.events).sum();
        if window_total(&mut fired, schedule_keys, end_key, events) > max_events {
            break;
        }
    }
    (fired, windows)
}

/// Multi-threaded window loop: shard `i` is pinned to worker `i % t`, and
/// two barriers per window separate (process + outbox publish) from
/// (mailbox drain + next-time posting). Every worker derives the same
/// window sequence from the posted next-times, so the loop terminates and
/// caps identically on all workers.
fn run_windows_threaded<'e, S: TelemetrySink + Send>(
    mut engines: Vec<ShardEngine<'e, S>>,
    t: usize,
    net_ms: f64,
    max_events: u64,
    schedule_keys: &[u64],
) -> (Vec<ShardEngine<'e, S>>, usize, u64) {
    let k = engines.len();
    let next_keys: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
    let event_counts: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    for engine in &mut engines {
        next_keys[engine.id].store(engine.next_key(), AtomicOrdering::Relaxed);
    }
    // Mailboxes indexed [dst][src]; the diagonal is never used.
    let mailboxes: Vec<Vec<Mutex<Vec<Msg>>>> = (0..k)
        .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let barrier = Barrier::new(t);
    let mut buckets: Vec<Vec<ShardEngine<'e, S>>> = (0..t).map(|_| Vec::new()).collect();
    for engine in engines {
        let slot = engine.id % t;
        buckets[slot].push(engine);
    }
    let (mut out, fired, windows) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let next_keys = &next_keys;
        let event_counts = &event_counts;
        let mailboxes = &mailboxes;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|mut bucket| {
                scope.spawn(move || {
                    let mut fired = 0usize;
                    let mut windows = 0u64;
                    loop {
                        let gmin = next_keys
                            .iter()
                            .map(|a| a.load(AtomicOrdering::Relaxed))
                            .min()
                            .unwrap_or(u64::MAX);
                        if gmin == u64::MAX {
                            break;
                        }
                        // Every worker reads the same posted keys, so all
                        // derive the identical window edge.
                        let end_key = window_end(gmin, net_ms);
                        windows += 1;
                        for engine in bucket.iter_mut() {
                            engine.process_window(end_key);
                            for (dst, row) in mailboxes.iter().enumerate() {
                                if dst == engine.id || engine.outbox[dst].is_empty() {
                                    continue;
                                }
                                let mut slot = row[engine.id].lock().expect("mailbox poisoned");
                                debug_assert!(slot.is_empty());
                                std::mem::swap(&mut *slot, &mut engine.outbox[dst]);
                            }
                        }
                        barrier.wait();
                        for engine in bucket.iter_mut() {
                            for (src, cell) in mailboxes[engine.id].iter().enumerate() {
                                if src == engine.id {
                                    continue;
                                }
                                let mut slot = cell.lock().expect("mailbox poisoned");
                                if slot.is_empty() {
                                    continue;
                                }
                                let msgs = std::mem::take(&mut *slot);
                                *slot = engine.deliver(msgs);
                            }
                            next_keys[engine.id].store(engine.next_key(), AtomicOrdering::Relaxed);
                            event_counts[engine.id].store(engine.events, AtomicOrdering::Relaxed);
                        }
                        barrier.wait();
                        let events: u64 = event_counts
                            .iter()
                            .map(|a| a.load(AtomicOrdering::Relaxed))
                            .sum();
                        if window_total(&mut fired, schedule_keys, end_key, events) > max_events {
                            break;
                        }
                    }
                    (bucket, fired, windows)
                })
            })
            .collect();
        let mut engines = Vec::with_capacity(k);
        let mut fired = 0usize;
        let mut windows = 0u64;
        for handle in handles {
            let (bucket, worker_fired, worker_windows) =
                handle.join().expect("shard worker panicked");
            engines.extend(bucket);
            fired = worker_fired;
            windows = worker_windows;
        }
        (engines, fired, windows)
    });
    out.sort_by_key(|e| e.id);
    (out, fired, windows)
}

// ---------------------------------------------------------------------------
// Public entry point
// ---------------------------------------------------------------------------

impl Simulation<'_> {
    /// Runs the simulation sharded by `partition` — e.g.
    /// [`Partition::modulo`] or [`Partition::topology_aware`] — under the
    /// conservative time-window protocol, using up to
    /// `min(partition.shards(), rayon threads)` OS threads, with one
    /// [`TelemetrySink`] per shard (`sinks.len()` must equal
    /// `partition.shards()`; pass [`NullSink`](crate::telemetry::NullSink)s
    /// for none). Shard `i`'s sink observes the completions of the
    /// microservices the partition assigns to shard `i`; merge the sinks
    /// afterwards for a global view (e.g. `TelemetryCollector::merge`,
    /// which is ingestion-order invariant).
    ///
    /// The result and the returned [`ShardStats::windows`] are
    /// bit-identical under every partition and every `RAYON_NUM_THREADS`
    /// — but the result is *not* equal to [`Simulation::run`], whose
    /// single sequential RNG stream no partition can reproduce; the
    /// sharded engine has its own pinned golden digests.
    ///
    /// # Errors
    ///
    /// Everything [`Simulation::run`] rejects, plus
    /// [`Error::InvalidParameter`] when the partition does not cover
    /// exactly the app's microservices, when the sink count differs from
    /// the shard count, or when `network_delay_ms` (the protocol's
    /// lookahead) is zero, negative, non-finite, or too small to advance
    /// the clock at the horizon.
    pub fn run_sharded_with_partition_and_sinks<S: TelemetrySink + Send>(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
        partition: &Partition,
        sinks: &mut [S],
    ) -> Result<(SimResult, ShardStats)> {
        let shards = partition.shards();
        if partition.len() != self.app.microservice_count() {
            return Err(Error::InvalidParameter(format!(
                "partition covers {} microservice(s) but the app has {}",
                partition.len(),
                self.app.microservice_count()
            )));
        }
        if sinks.len() != shards {
            return Err(Error::InvalidParameter(format!(
                "expected one telemetry sink per shard ({shards}), got {}",
                sinks.len()
            )));
        }
        let net = self.config.network_delay_ms;
        if !net.is_finite()
            || net <= 0.0
            || self.config.duration_ms + net == self.config.duration_ms
        {
            return Err(Error::InvalidParameter(format!(
                "sharded runs need a positive network delay as lookahead; \
                 {net} ms cannot advance the clock at the horizon"
            )));
        }
        self.validate(workloads, containers)?;
        let tables = SimTables::build(self, workloads, priorities);
        let insts: Vec<InstanceTable> = tables
            .services
            .iter()
            .map(InstanceTable::build)
            .collect::<Result<_>>()?;
        let schedule = lower_fault_schedule(self);
        let schedule_keys: Vec<u64> = schedule.iter().map(|f| time_key(f.at_ms)).collect();
        let mut engines: Vec<ShardEngine<'_, &mut S>> = sinks
            .iter_mut()
            .enumerate()
            .map(|(i, sink)| {
                let mut engine = ShardEngine::new(
                    self, &tables, &insts, &schedule, containers, i, partition, sink,
                );
                engine.seed_initial();
                engine
            })
            .collect();
        let threads = rayon::current_num_threads().clamp(1, shards);
        let (engines, fired, windows) = if threads <= 1 || shards == 1 {
            let (fired, windows) =
                run_windows_serial(&mut engines, net, self.config.max_events, &schedule_keys);
            (engines, fired, windows)
        } else {
            run_windows_threaded(
                engines,
                threads,
                net,
                self.config.max_events,
                &schedule_keys,
            )
        };
        let messages: u64 = engines.iter().map(|e| e.msgs_sent).sum();
        let stats = ShardStats { windows, messages };
        Ok((merge_outputs(self, engines, fired), stats))
    }
}

/// Folds the per-shard outputs into one [`SimResult`], in shard-id order.
/// Every latency vector is owned wholly by one shard; trace stores are
/// absorbed and canonicalized (spans sorted by span id — at `K = 1` too,
/// so the canonical form is K-invariant); counters are summed, with fault
/// firings counted once globally.
fn merge_outputs<S: TelemetrySink>(
    sim: &Simulation<'_>,
    engines: Vec<ShardEngine<'_, S>>,
    fired: usize,
) -> SimResult {
    let mut service_latencies: BTreeMap<ServiceId, Vec<f64>> = BTreeMap::new();
    let mut ms_own_latencies: BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>> =
        BTreeMap::new();
    let mut store = TraceStore::with_sampling(sim.config.trace_sampling, sim.config.seed ^ 0xA5A5);
    let mut generated = 0;
    let mut completed = 0;
    let mut dropped = 0;
    let mut timed_out = 0;
    let mut crash_violations = 0;
    let mut crashed_containers = 0;
    let mut reclaimed_containers = 0;
    let mut lost_spans = 0;
    let mut events = fired as u64;
    for engine in engines {
        for (i, v) in engine.result_latencies.into_iter().enumerate() {
            if !v.is_empty() {
                service_latencies
                    .entry(ServiceId::new(i as u32))
                    .or_default()
                    .extend(v);
            }
        }
        for (i, v) in engine.result_own.into_iter().enumerate() {
            if !v.is_empty() {
                ms_own_latencies
                    .entry(MicroserviceId::new(i as u32))
                    .or_default()
                    .extend(v);
            }
        }
        store.absorb(engine.store);
        generated += engine.generated;
        completed += engine.completed;
        dropped += engine.dropped;
        timed_out += engine.timed_out;
        crash_violations += engine.crash_violations;
        crashed_containers += engine.crashed_containers;
        reclaimed_containers += engine.reclaimed_containers;
        lost_spans += engine.lost_spans;
        events += engine.events;
    }
    store.sort_spans_by_id();
    SimResult {
        service_latencies,
        ms_own_latencies,
        trace_store: store,
        generated,
        completed,
        dropped,
        timed_out,
        crash_violations,
        crashed_containers,
        reclaimed_containers,
        lost_spans,
        events,
    }
}
