//! The read path's coordinator, and a simulated network that drives it.
//!
//! [`ReadCoordinator`] is a clock-free state machine that makes every
//! decision of the paper's "fire all requests, then drain responses"
//! aggregation query: the replica pick ([`ReplicaPolicy`] with a seeded
//! RNG), per-request timeouts with a bounded per-replica retry budget,
//! `Busy` back-off, phi-ordered failover, hedged reads with
//! first-response-wins dedup, hard deadlines, and strict vs degraded
//! misses. It also keeps the master's per-node health table
//! ([`PhiAccrual`] suspicion, a [`LatencyTracker`] for the hedge delay, and
//! the hard verdicts), which outlives a run, and stamps the four
//! methodology stages of every answered request into a [`TraceRecorder`].
//!
//! Typed events go in — `issue`, `reply`, `down`, `tick`, each carrying
//! the current [`SimTime`] — and commands come out of
//! [`ReadCoordinator::poll`]: `Send { node, id }` and `Done`. It does no
//! I/O and reads no clock (KVS-L001 deterministic zone), so two loops run
//! the same machine: `kvs_net::NetMaster::run_with_arrivals` over sockets
//! on the host's wall clock, and [`simulate`] over the seeded network of
//! [`crate::simnet`]. Timers live in a heap, so an event costs the same
//! whether ten or a thousand requests are pending.
//!
//! Reliability model. `Busy` (a full slave queue) is flow control, never a
//! failure: it schedules a quick resend that does not consume the retry
//! budget and, because a `Busy` reply proves the slave alive, re-arms the
//! request's allowance of `timeout × (max_retries + 1)`. A timeout resends
//! to the same replica at most [`NetConfig::max_retries`] times; once that
//! budget or the allowance runs out, or the connection drops, or the
//! replica answers `Unavailable`, the request fails over to the least
//! suspect other replica. In strict mode ([`QueryMode::Strict`]) a request
//! with no replica left (or past its deadline) fails the query; in
//! degraded mode it is an exact miss and the query completes with
//! [`Coverage`]` < 1`.

#![deny(clippy::wildcard_enum_match_arm)]

use crate::codec::Codec;
use crate::data::{ClusterData, Route};
use crate::latency::LatencyTracker;
use crate::messages::{QueryRequest, QueryResponse};
use crate::phi::PhiAccrual;
use crate::policy::ReplicaPolicy;
use crate::result::{Coverage, RunResult};
use crate::simnet::{Machine, SimNet, SimNetConfig};
use kvs_simcore::{SimDuration, SimTime};
use kvs_stages::{analyze, Stage, TraceRecorder};
use kvs_store::PartitionKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io;
use std::time::Duration;

/// Hedged-read configuration.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Latency quantile of the node's online histogram after which the
    /// hedge fires (e.g. `0.95`: hedge once the response is slower than
    /// 95% of that node's observed responses).
    pub quantile: f64,
    /// Floor on the hedge delay — also the delay used before the node has
    /// any latency samples. Keeps a cold start from hedging every request.
    pub min_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(5),
        }
    }
}

/// What happens when a sub-query runs out of replicas (or deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Fail the whole query with an `io::Error`.
    #[default]
    Strict,
    /// Complete with partial results: [`Coverage`]` < 1` and a
    /// per-partition miss list instead of an error.
    Degraded,
}

/// Master-side configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Request/response serialization (advertised per frame; slaves answer
    /// in kind).
    pub codec: Codec,
    /// Per-request deadline before a retry is issued.
    pub timeout: Duration,
    /// How many times one request may be re-sent to the *same replica*
    /// after a timeout before the master gives up on that replica and
    /// fails over to the next one. `Busy` replies are flow control, not
    /// failures: they retry without consuming this budget, and each one
    /// re-arms the request's allowance of `timeout × (max_retries + 1)`
    /// (the slave demonstrably lives).
    pub max_retries: u32,
    /// Back-off before retrying a request a slave answered `Busy` to.
    pub busy_backoff: Duration,
    /// How the master picks a replica for each sub-query (paper §VIII).
    pub replica_policy: ReplicaPolicy,
    /// Seed for the policy RNG (the `Random` policy); fixed seed ⇒
    /// deterministic replica choices.
    pub seed: u64,
    /// Hedged replica reads; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Per-request completion budget, measured from the request's issue
    /// time. Propagated to slaves in the frame header (they shed expired
    /// work before the DB stage) and enforced master-side. `None` means
    /// requests never expire.
    pub query_deadline: Option<Duration>,
    /// Strict (error) vs degraded (partial answers) behavior when a
    /// sub-query runs out of replicas or deadline.
    pub mode: QueryMode,
    /// Phi-accrual suspicion threshold: a node whose phi exceeds this is
    /// not hedged toward and is deprioritized on failover. The default 8
    /// means "this silence has probability ≤ 10⁻⁸ under the node's fitted
    /// arrival distribution".
    pub phi_threshold: f64,
    /// Extra connect attempts on `ConnectionRefused` — a freshly spawned
    /// local cluster may not be listening yet (the cold-start race).
    pub connect_retries: u32,
    /// Initial back-off between connect attempts; doubles each retry.
    pub connect_backoff: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            codec: Codec::compact(),
            timeout: Duration::from_secs(2),
            max_retries: 8,
            busy_backoff: Duration::from_millis(1),
            replica_policy: ReplicaPolicy::Primary,
            seed: 0x5EED,
            hedge: None,
            query_deadline: None,
            mode: QueryMode::Strict,
            phi_threshold: 8.0,
            connect_retries: 6,
            connect_backoff: Duration::from_millis(1),
        }
    }
}

/// One sub-query that completed without an answer (degraded mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissedPartition {
    /// The request id (its index into the route list).
    pub request_id: u64,
    /// The partition that went unanswered.
    pub key: PartitionKey,
    /// Its replica set — every one of these was dead, exhausted, refused
    /// or past deadline when the master gave up.
    pub replicas: Vec<u32>,
}

/// What a query run reports beyond the shared [`RunResult`]: master-side
/// per-message costs (the calibration inputs, measured by the socket
/// driver; zero in [`simulate`]), the retry counters, and the
/// failover/hedge bookkeeping.
#[derive(Debug)]
pub struct NetRunReport {
    /// The standard run outcome (traces, stage report, aggregates).
    pub result: RunResult,
    /// Master CPU+syscall time spent encoding/framing/writing requests, µs.
    pub tx_micros: u64,
    /// Master CPU+syscall time spent decoding responses, µs.
    pub rx_micros: u64,
    /// Requests re-sent because a slave answered `Busy`.
    pub busy_retries: u64,
    /// Requests re-sent (to the same replica) because their deadline
    /// expired.
    pub timeout_retries: u64,
    /// Requests re-routed to another replica after their current one
    /// timed out, exhausted its retry budget, refused, or dropped its
    /// connection.
    pub failovers: u64,
    /// Nodes the master stopped trusting during the run: their connection
    /// died, a corrupted frame forced a disconnect, they exhausted a
    /// request's retry budget, or their phi-accrual suspicion crossed
    /// [`NetConfig::phi_threshold`]. Sorted, deduplicated.
    pub suspected_dead: Vec<u32>,
    /// Master↔slave connections torn down because a frame failed its CRC
    /// (after corruption the byte stream cannot be re-synchronized).
    pub crc_disconnects: u64,
    /// The aggregate retry cost: time completed requests spent between
    /// their first send and the send that finally got a response (0 for a
    /// run with no retries). This is the share of the master-to-slave
    /// stage attributable to busy back-off, timeouts and failover
    /// detection.
    pub retry_wait_ms: f64,
    /// Hedged (duplicate) requests issued to a second replica.
    pub hedges_sent: u64,
    /// Hedges whose duplicate answered before the original.
    pub hedges_won: u64,
    /// Sub-queries that completed unanswered (degraded mode only; always
    /// empty in strict mode, which errors instead). Sorted by request id.
    pub missed: Vec<MissedPartition>,
}

impl NetRunReport {
    /// Measured master send cost per message, µs (the paper's `t_msg`).
    pub fn tx_us_per_msg(&self) -> f64 {
        self.tx_micros as f64 / self.result.messages.max(1) as f64
    }

    /// Measured master receive cost per message, µs.
    pub fn rx_us_per_msg(&self) -> f64 {
        self.rx_micros as f64 / self.result.messages.max(1) as f64
    }

    /// Extra request load caused by hedging, as a fraction of the
    /// query's message count (`0.05` ⇒ 5% duplicate requests).
    pub fn hedge_extra_load(&self) -> f64 {
        self.hedges_sent as f64 / self.result.messages.max(1) as f64
    }
}

/// A replica's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The partition's aggregate.
    Response {
        /// The decoded answer.
        answer: QueryResponse,
        /// Its encoded size (bytes to the master).
        bytes: u64,
        /// The slave's stage stamps: the echoed send time, dequeue (in-db
        /// start) and in-db end.
        stamps: [SimTime; 3],
    },
    /// The slave's queue was full: back off and resend.
    Busy,
    /// The request's deadline passed before the slave served it.
    Expired,
    /// The replica cannot serve this key (a failed durable read, an
    /// undecodable request or response): fail over at once.
    Unavailable,
}

/// What the coordinator asks the code running it to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Send request `id` (its route index) to `node`.
    Send {
        /// Destination replica.
        node: u32,
        /// Request id: every resend and hedge of one request reuses it.
        id: u64,
    },
    /// Every issued request is answered or missed, or the query failed;
    /// call [`ReadCoordinator::finish`].
    Done,
}

/// Per-node health: continuous phi-accrual suspicion plus the hard
/// verdicts phi cannot express (a closed connection stays closed).
#[derive(Debug, Default)]
struct NodeHealth {
    phi: PhiAccrual,
    latency: LatencyTracker,
    /// The connection is gone (EOF, transport error, CRC disconnect, or a
    /// failed write). Only a reconnect clears this.
    hard_dead: bool,
    /// A request exhausted its retry budget against this node. Soft: any
    /// later frame from the node clears it.
    exhausted: bool,
    /// Phi crossed the threshold while the master was picking a hedge
    /// target. Latched for reporting; cleared by any frame.
    phi_suspect: bool,
}

impl NodeHealth {
    fn suspect(&self) -> bool {
        self.hard_dead || self.exhausted || self.phi_suspect
    }
}

#[derive(Debug)]
struct Pending {
    /// Replica nodes of this key, primary first (the route).
    replicas: Vec<u32>,
    /// Index into `replicas` of the replica currently being tried.
    ix: usize,
    /// Replicas that answered `Unavailable`: never tried again.
    refused: Vec<u32>,
    attempts: u32,
    /// The request's issue instant (its arrival in an open-loop run).
    arrived: SimTime,
    first_sent: SimTime,
    sent: SimTime,
    /// Next resend instant (timeout, or busy back-off when `busy`).
    retry_at: SimTime,
    /// Hard limit for this request on the current replica. Re-armed by
    /// `Busy` replies (liveness evidence) and on failover.
    expires: SimTime,
    /// The last resend trigger was a `Busy` frame.
    busy: bool,
    hard_deadline: Option<SimTime>,
    /// When to hedge, if hedging is armed and has not fired yet.
    hedge_at: Option<SimTime>,
    /// Outstanding hedge target, if one was issued.
    hedge_node: Option<u32>,
}

impl Pending {
    fn node(&self) -> u32 {
        self.replicas[self.ix]
    }

    /// The earliest instant one of this request's timers fires.
    fn due(&self) -> SimTime {
        let timers = [self.hedge_at, self.hard_deadline];
        timers
            .into_iter()
            .flatten()
            .fold(self.retry_at, SimTime::min)
    }
}

/// One query's state; reset by [`ReadCoordinator::begin`].
#[derive(Debug, Default)]
struct Run {
    active: bool,
    total: usize,
    resolved: usize,
    origin: SimTime,
    pending: BTreeMap<u64, Pending>,
    /// `(instant, id)` for every armed timer; an entry whose request has
    /// since re-armed later is skipped when it pops.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Outstanding sends per node (primaries and hedges).
    inflight: Vec<usize>,
    recorder: TraceRecorder,
    counts: BTreeMap<u8, u64>,
    total_cells: u64,
    bytes_to_master: u64,
    busy_retries: u64,
    timeout_retries: u64,
    failovers: u64,
    retry_wait: SimDuration,
    hedges_sent: u64,
    hedges_won: u64,
    misses: Vec<u64>,
    failed: Option<io::Error>,
}

fn nanos(d: Duration) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos() as u64)
}

fn dec(inflight: &mut [usize], node: u32) {
    if let Some(slot) = inflight.get_mut(node as usize) {
        *slot = slot.saturating_sub(1);
    }
}

/// The read-path coordinator. See the module docs for the event and
/// command vocabulary.
#[derive(Debug)]
pub struct ReadCoordinator {
    cfg: NetConfig,
    rng: StdRng,
    health: Vec<NodeHealth>,
    run: Run,
    commands: VecDeque<Command>,
}

impl ReadCoordinator {
    /// A coordinator for a cluster of `nodes`, with fresh health state.
    pub fn new(cfg: &NetConfig, nodes: usize) -> Self {
        ReadCoordinator {
            cfg: *cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            health: (0..nodes).map(|_| NodeHealth::default()).collect(),
            run: Run::default(),
            commands: VecDeque::new(),
        }
    }

    /// Starts a query of `total` requests at `now`; the health table and
    /// the policy RNG carry over from earlier queries.
    pub fn begin(&mut self, now: SimTime, total: usize) {
        let inflight = vec![0; self.health.len()];
        self.run = Run {
            active: true,
            total,
            origin: now,
            inflight,
            ..Run::default()
        };
        self.commands.clear();
        self.settle();
    }

    /// Issues request `id` over `route`. `arrived` is its issue instant —
    /// the start of its master-to-slaves stage and of its deadline — which
    /// the caller may deliver late (`arrived ≤ now`).
    pub fn issue(&mut self, now: SimTime, id: u64, route: &Route, arrived: SimTime) {
        let n = route.replicas.len();
        assert!(n > 0, "route {id} has no replicas");
        if !self.run.active {
            return;
        }
        // The configured policy proposes, the health table disposes: a
        // suspected pick slides to the least suspect live replica
        // (counted as a failover).
        let loads: Vec<usize> = route.replicas.iter().map(|&r| self.load(r)).collect();
        let mut p = Pending {
            replicas: route.replicas.clone(),
            ix: self.cfg.replica_policy.pick(n, &loads, id, &mut self.rng),
            refused: Vec::new(),
            attempts: 1,
            arrived,
            first_sent: now,
            sent: now,
            retry_at: now,
            expires: now,
            busy: false,
            hard_deadline: self.cfg.query_deadline.map(|b| arrived + nanos(b)),
            hedge_at: None,
            hedge_node: None,
        };
        if self.hard_suspect(p.node()) && !self.move_on(&mut p, now) {
            return self.give_up(id, &p, self.no_replica(id, &p));
        }
        if let Some(h) = self.cfg.hedge.filter(|_| n > 1) {
            p.hedge_at = Some(now + self.hedge_delay(p.node(), &h));
        }
        self.send(now, id, p, true);
    }

    /// `node` answered request `id`. Any frame proves the node alive;
    /// answers to requests no longer pending (a retry or a lost hedge
    /// raced the winner) are dropped.
    pub fn reply(&mut self, now: SimTime, node: u32, id: u64, reply: Reply) {
        self.note_alive(now, node);
        let Some(mut p) = self.run.pending.remove(&id) else {
            return;
        };
        let from_hedge = p.hedge_node == Some(node) && node != p.node();
        match reply {
            Reply::Response {
                answer,
                bytes,
                stamps,
            } => self.answer(now, node, id, p, &answer, bytes, stamps),
            Reply::Busy | Reply::Unavailable if from_hedge => {
                // The hedge target is saturated or cannot serve: hedging
                // toward it buys nothing. Cancel the hedge, keep the
                // original.
                p.refused
                    .extend(matches!(reply, Reply::Unavailable).then_some(node));
                p.hedge_node = None;
                dec(&mut self.run.inflight, node);
                self.run.pending.insert(id, p);
            }
            Reply::Busy => {
                // Resend after a short back-off. The slave demonstrably
                // lives, so re-arm the allowance — Busy is flow control,
                // never a failure, and does not spend the retry budget
                // (pinned by tests/busy_budget.rs).
                p.busy = true;
                p.retry_at = now + nanos(self.cfg.busy_backoff);
                p.expires = now + self.allowance();
                self.arm(id, p);
            }
            Reply::Expired => {
                // Shed before its DB stage: the deadline will not
                // un-expire, so resending is useless.
                dec(&mut self.run.inflight, p.node());
                let why = format!("request {id} expired at node {node} before service");
                self.give_up(id, &p, why);
            }
            Reply::Unavailable => {
                // This replica cannot serve the key: never ask it again,
                // and fail over now if it held the current attempt.
                p.refused.push(node);
                if node == p.node() {
                    dec(&mut self.run.inflight, node);
                    self.fail_over(now, id, p);
                } else {
                    self.run.pending.insert(id, p);
                }
            }
        }
    }

    /// `node`'s connection is gone: it is hard-dead from now on, its
    /// outstanding hedges are lost, and every request in flight on it
    /// fails over at once rather than waiting out its timeout.
    pub fn down(&mut self, now: SimTime, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.hard_dead = true;
        }
        let run = &mut self.run;
        let mut stranded = Vec::new();
        for (&id, p) in &mut run.pending {
            if p.hedge_node == Some(node) {
                p.hedge_node = None;
                dec(&mut run.inflight, node);
            }
            if p.node() == node {
                stranded.push(id);
            }
        }
        for id in stranded {
            if let Some(p) = self.run.pending.remove(&id) {
                dec(&mut self.run.inflight, node);
                self.fail_over(now, id, p);
            }
        }
    }

    /// Time passed: fire every timer due by `now`, in order per request —
    /// hard deadline, hedge, resend (a timeout retry, the end of a busy
    /// back-off, or failover once the budget is spent).
    pub fn tick(&mut self, now: SimTime) {
        while let Some(&Reverse((at, id))) = self.run.timers.peek() {
            if at > now || !self.run.active {
                break;
            }
            self.run.timers.pop();
            if let Some(p) = self.run.pending.remove(&id) {
                self.fire(now, id, p);
            }
        }
    }

    /// The next command to carry out, if any.
    pub fn poll(&mut self) -> Option<Command> {
        self.commands.pop_front()
    }

    /// When [`ReadCoordinator::tick`] is due next (possibly early: a timer
    /// that was re-armed later still wakes the caller once).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let run = &self.run;
        run.timers.peek().filter(|_| run.active).map(|t| t.0 .0)
    }

    /// Whether a reply tagged `id` would reach a pending request — lets a
    /// socket loop skip decoding stray frames.
    pub fn awaits(&self, id: u64) -> bool {
        self.run.active && self.run.pending.contains_key(&id)
    }

    /// Ends the query started by [`ReadCoordinator::begin`]: the report,
    /// or the strict-mode error. `routes` names the missed partitions.
    /// Wire measurements (`tx_micros`, `rx_micros`, `crc_disconnects`,
    /// `bytes_to_slaves`, `issue_span`) are the driver's to fill in.
    pub fn finish(&mut self, routes: &[Route]) -> io::Result<NetRunReport> {
        let run = std::mem::take(&mut self.run);
        self.commands.clear();
        if let Some(e) = run.failed {
            return Err(e);
        }
        let mut misses = run.misses;
        misses.sort_unstable();
        let missed = misses.iter().map(|&id| MissedPartition {
            request_id: id,
            key: routes[id as usize].key.clone(),
            replicas: routes[id as usize].replicas.clone(),
        });
        let traces = run.recorder.into_traces();
        let report = analyze(&traces);
        Ok(NetRunReport {
            missed: missed.collect(),
            result: RunResult {
                makespan: report.makespan,
                report,
                traces,
                counts_by_kind: run.counts,
                total_cells: run.total_cells,
                messages: run.total as u64,
                bytes_to_slaves: 0,
                bytes_to_master: run.bytes_to_master,
                issue_span: SimDuration::ZERO,
                failovers: run.failovers,
                coverage: Coverage {
                    answered: (run.total - misses.len()) as u64,
                    total: run.total as u64,
                },
                missed: misses,
                queue: None,
            },
            tx_micros: 0,
            rx_micros: 0,
            busy_retries: run.busy_retries,
            timeout_retries: run.timeout_retries,
            failovers: run.failovers,
            suspected_dead: self.suspected_dead(),
            crc_disconnects: 0,
            retry_wait_ms: run.retry_wait.as_millis_f64(),
            hedges_sent: run.hedges_sent,
            hedges_won: run.hedges_won,
        })
    }

    /// Any frame from `node` proves it alive: feed the phi detector and
    /// clear the soft suspicion verdicts.
    pub fn note_alive(&mut self, now: SimTime, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.phi.heartbeat(now);
            h.exhausted = false;
            h.phi_suspect = false;
        }
    }

    /// Forgets everything known about `node` (a reconnect to a restarted
    /// process: the old incarnation's suspicion does not transfer).
    pub fn revive(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            *h = NodeHealth::default();
        }
    }

    /// Hard verdicts only: the node cannot currently answer (closed
    /// connection) or demonstrably did not (exhausted budget).
    // LINT-ZONE: nonblocking — readiness-loop verdict, must never stall.
    pub fn hard_suspect(&self, node: u32) -> bool {
        let health = self.health.get(node as usize);
        health.is_none_or(|h| h.hard_dead || h.exhausted)
    }

    /// Nodes currently suspected: hard-dead connections, exhausted retry
    /// budgets, or phi-accrual suspicion above the threshold.
    pub fn suspected_dead(&self) -> Vec<u32> {
        let suspects = self.health.iter().enumerate().filter(|(_, h)| h.suspect());
        suspects.map(|(n, _)| n as u32).collect()
    }

    /// Phi of `node`, but only when its silence is *evidence*: a node the
    /// master has requests outstanding against. An idle node is silent
    /// because nothing was asked of it, which reads as zero suspicion.
    // LINT-ZONE: nonblocking — runs inside the collect loop's hot path.
    fn live_phi(&self, node: u32, now: SimTime) -> f64 {
        if self.load(node) == 0 {
            return 0.0;
        }
        let health = self.health.get(node as usize);
        health.map_or(f64::INFINITY, |h| h.phi.phi(now))
    }

    fn load(&self, node: u32) -> usize {
        self.run.inflight.get(node as usize).copied().unwrap_or(0)
    }

    fn allowance(&self) -> SimDuration {
        nanos(self.cfg.timeout) * u64::from(self.cfg.max_retries + 1)
    }

    /// Files `p` as pending with its next timer armed.
    fn arm(&mut self, id: u64, p: Pending) {
        self.run.timers.push(Reverse((p.due(), id)));
        self.run.pending.insert(id, p);
    }

    /// Sends `p` to its current replica; `fresh` (a new replica) also
    /// re-arms the allowance.
    fn send(&mut self, now: SimTime, id: u64, mut p: Pending, fresh: bool) {
        p.sent = now;
        p.retry_at = now + nanos(self.cfg.timeout);
        if fresh {
            p.expires = now + self.allowance();
        }
        if let Some(slot) = self.run.inflight.get_mut(p.node() as usize) {
            *slot += 1;
        }
        self.commands
            .push_back(Command::Send { node: p.node(), id });
        self.arm(id, p);
    }

    /// Moves `p` (no longer in flight) to the least suspect other replica
    /// and resends, or gives up when none is left.
    fn fail_over(&mut self, now: SimTime, id: u64, mut p: Pending) {
        if !self.move_on(&mut p, now) {
            return self.give_up(id, &p, self.no_replica(id, &p));
        }
        p.attempts = 1;
        p.busy = false;
        self.send(now, id, p, true);
    }

    /// Points `p` at the least suspect other replica, counting a
    /// failover; `false` when no live replica remains.
    fn move_on(&mut self, p: &mut Pending, now: SimTime) -> bool {
        let Some(node) = self.least_suspect(p, now, false) else {
            return false;
        };
        p.ix = p.replicas.iter().position(|&n| n == node).unwrap_or(p.ix);
        self.run.failovers += 1;
        true
    }

    /// Records an answer: first response wins, so both outstanding
    /// attempts are released and the loser's late answer is dropped.
    #[expect(clippy::too_many_arguments, reason = "one reply's fields, unpacked")]
    fn answer(
        &mut self,
        now: SimTime,
        node: u32,
        id: u64,
        p: Pending,
        answer: &QueryResponse,
        bytes: u64,
        [sent, dequeued, db_end]: [SimTime; 3],
    ) {
        let run = &mut self.run;
        dec(&mut run.inflight, p.node());
        if let Some(h) = p.hedge_node {
            dec(&mut run.inflight, h);
            run.hedges_won += u64::from(h == node && node != p.node());
        }
        if let Some(h) = self.health.get_mut(node as usize) {
            h.latency.record(now.since(sent));
        }
        run.retry_wait += p.sent.since(p.first_sent);
        let at = |t: SimTime| SimTime::ZERO + t.since(run.origin);
        let rec = &mut run.recorder;
        rec.begin(id, node, answer.cells);
        rec.record(id, Stage::MasterToSlave, at(p.arrived), at(sent));
        rec.record(id, Stage::InQueue, at(sent), at(dequeued));
        rec.record(id, Stage::InDb, at(dequeued), at(db_end));
        rec.record(id, Stage::SlaveToMaster, at(db_end), at(now));
        for (&kind, &count) in &answer.counts {
            *run.counts.entry(kind).or_insert(0) += count;
        }
        run.total_cells += answer.cells;
        run.bytes_to_master += bytes;
        run.resolved += 1;
        self.settle();
    }

    /// Fires `p`'s due timers, in order: hard deadline, hedge, resend.
    fn fire(&mut self, now: SimTime, id: u64, mut p: Pending) {
        if p.due() > now {
            self.run.pending.insert(id, p); // re-armed later since
            return;
        }
        if p.hard_deadline.is_some_and(|d| d <= now) {
            dec(&mut self.run.inflight, p.node());
            return self.give_up(id, &p, format!("request {id} missed its deadline"));
        }
        if p.hedge_at.is_some_and(|t| t <= now) && p.hedge_node.is_none() {
            p.hedge_at = None;
            p.hedge_node = self.least_suspect(&p, now, true);
            if let Some(node) = p.hedge_node {
                self.run.hedges_sent += 1;
                if let Some(slot) = self.run.inflight.get_mut(node as usize) {
                    *slot += 1;
                }
                self.commands.push_back(Command::Send { node, id });
            }
        }
        if p.retry_at > now {
            return self.arm(id, p);
        }
        dec(&mut self.run.inflight, p.node());
        // Busy resends are flow control and don't consume the retry
        // budget; their allowance re-arms on every Busy receipt, so
        // hitting `expires` here means the slave went silent after
        // flow-controlling us. Timeout resends are bounded by
        // `max_retries` per replica. Either way, exhaustion suspects the
        // replica and fails over.
        let exhausted = if p.busy {
            now >= p.expires
        } else {
            p.attempts > self.cfg.max_retries
        };
        if exhausted {
            if let Some(h) = self.health.get_mut(p.node() as usize) {
                h.exhausted = true;
            }
            return self.fail_over(now, id, p);
        }
        if p.busy {
            self.run.busy_retries += 1;
        } else {
            self.run.timeout_retries += 1;
            p.attempts += 1;
        }
        p.busy = false;
        self.send(now, id, p, false);
    }

    /// Closes out an unanswerable request: an exact miss in degraded
    /// mode, the query's error in strict mode.
    fn give_up(&mut self, id: u64, p: &Pending, why: String) {
        if let Some(h) = p.hedge_node {
            dec(&mut self.run.inflight, h);
        }
        match self.cfg.mode {
            QueryMode::Degraded => {
                self.run.misses.push(id);
                self.run.resolved += 1;
            }
            QueryMode::Strict => {
                let err = io::Error::new(io::ErrorKind::TimedOut, why);
                self.run.failed.get_or_insert(err);
            }
        }
        self.settle();
    }

    fn no_replica(&self, id: u64, p: &Pending) -> String {
        let (tried, suspects) = (&p.replicas, self.suspected_dead());
        format!("request {id} has no live replica left (tried {tried:?}, suspected: {suspects:?})")
    }

    /// Emits `Done` once every request is resolved or the query failed.
    fn settle(&mut self) {
        let run = &mut self.run;
        if run.active && (run.failed.is_some() || run.resolved == run.total) {
            run.active = false;
            self.commands.push_back(Command::Done);
        }
    }

    /// The per-node hedge trigger: the configured quantile of the node's
    /// online latency histogram, floored at `min_delay` (which also covers
    /// the cold start). Adapts online: on a slow machine the quantile
    /// inflates and hedges fire later instead of storming
    /// healthy-but-slow replicas.
    fn hedge_delay(&self, node: u32, h: &HedgeConfig) -> SimDuration {
        let health = self.health.get(node as usize);
        let observed = health.and_then(|n| n.latency.quantile(h.quantile));
        observed
            .unwrap_or(SimDuration::ZERO)
            .max(nanos(h.min_delay))
    }

    /// The least suspect of `p`'s other replicas, in ring order from the
    /// current one: phi-accrual orders them, hard verdicts and refusals
    /// exclude them. A hedge also skips nodes past the phi threshold —
    /// hedging toward a dying node only doubles the damage.
    fn least_suspect(&mut self, p: &Pending, now: SimTime, hedge: bool) -> Option<u32> {
        let n = p.replicas.len();
        let mut best: Option<(u32, f64)> = None;
        for node in (1..n).map(|step| p.replicas[(p.ix + step) % n]) {
            if self.hard_suspect(node) || p.refused.contains(&node) {
                continue;
            }
            let phi = self.live_phi(node, now);
            if hedge && phi > self.cfg.phi_threshold {
                if let Some(h) = self.health.get_mut(node as usize) {
                    h.phi_suspect = true;
                }
            } else if best.is_none_or(|(_, b)| phi < b) {
                best = Some((node, phi)); // ties keep ring order
            }
        }
        best.map(|(node, _)| node)
    }
}

impl Machine for ReadCoordinator {
    type Reply = Reply;

    fn reply(&mut self, now: SimTime, node: u32, id: u64, reply: Reply) {
        ReadCoordinator::reply(self, now, node, id, reply);
    }

    fn down(&mut self, now: SimTime, node: u32) {
        ReadCoordinator::down(self, now, node);
    }
}

/// The simulated world [`simulate`] runs a query in.
#[derive(Debug, Clone)]
pub struct ReadSimConfig {
    /// Leg latency, the delay fault (a straggling replica when it names a
    /// node) and the dark windows.
    pub net: SimNetConfig,
    /// The master's configuration, exactly as the socket master takes it.
    pub master: NetConfig,
}

/// Runs the aggregation query over `routes` through a [`ReadCoordinator`]
/// on the seeded network: request `i` is issued at `arrivals_ns[i]` (all
/// at time zero when `None`), each replica answers from its own table in
/// `data` — or `Expired` when it is served past the request's deadline —
/// and the simulated replicas never refuse with `Busy`. Deterministic for
/// a given `(cfg, data, routes, arrivals_ns)`.
///
/// # Errors
/// The strict-mode error, as the socket master reports it.
///
/// # Panics
/// If `arrivals_ns` is given with a different length than `routes`.
pub fn simulate(
    cfg: &ReadSimConfig,
    data: &mut ClusterData,
    routes: &[Route],
    arrivals_ns: Option<&[u64]>,
) -> io::Result<NetRunReport> {
    if let Some(a) = arrivals_ns {
        assert_eq!(a.len(), routes.len(), "one arrival offset per route");
    }
    let codec = cfg.master.codec;
    let budget = cfg.master.query_deadline.map(nanos);
    let arrival = |i: usize| SimTime::from_nanos(arrivals_ns.map_or(0, |a| a[i]));
    let mut coord = ReadCoordinator::new(&cfg.master, data.nodes() as usize);
    let mut net = SimNet::new(&cfg.net, 0x4EAD_5EED);
    let (mut next, mut bytes_to_slaves) = (0, 0);
    coord.begin(SimTime::ZERO, routes.len());
    loop {
        while let Some(cmd) = coord.poll() {
            let (node, id) = match cmd {
                Command::Send { node, id } => (node, id),
                Command::Done => {
                    let mut report = coord.finish(routes)?;
                    report.result.bytes_to_slaves = bytes_to_slaves;
                    let last = routes.len().checked_sub(1).map(arrival);
                    report.result.issue_span = last.unwrap_or(SimTime::ZERO).since(SimTime::ZERO);
                    return Ok(report);
                }
            };
            let route = &routes[id as usize];
            let request = QueryRequest {
                request_id: id,
                partition: route.key.clone(),
            };
            bytes_to_slaves += codec.encode_request(&request).len() as u64;
            let expires = budget.map(|b| arrival(id as usize) + b);
            let table = data.table_mut(node);
            net.send(&mut coord, node, id, |sent, served| {
                if expires.is_some_and(|d| served >= d) {
                    return Reply::Expired;
                }
                let cells = table.get(&route.key).0;
                let answer = QueryResponse::from_kinds(id, cells.iter().map(|c| c.kind));
                let bytes = codec.encode_response(&answer).len() as u64;
                let stamps = [sent, served, served];
                Reply::Response {
                    answer,
                    bytes,
                    stamps,
                }
            });
        }
        let issue_at = (next < routes.len()).then(|| arrival(next));
        let due = issue_at.into_iter().chain(coord.next_deadline()).min();
        if net.step(&mut coord, due.unwrap_or(SimTime::MAX)) {
            continue;
        }
        let Some(t) = due else {
            panic!("read coordinator stalled with requests outstanding");
        };
        net.now = net.now.max(t);
        if issue_at == Some(t) {
            coord.issue(net.now, next as u64, &routes[next], t);
            next += 1;
        } else {
            coord.tick(net.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_partitions;
    use crate::simnet::{DelayFault, FaultWindow};
    use kvs_store::TableOptions;

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    fn route(id: u64, replicas: &[u32]) -> Route {
        Route {
            key: PartitionKey::from_id(id),
            replicas: replicas.to_vec(),
        }
    }

    fn cfg() -> NetConfig {
        NetConfig {
            timeout: Duration::from_millis(10),
            max_retries: 1,
            ..NetConfig::default()
        }
    }

    fn hedged() -> NetConfig {
        let hedge = HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(5),
        };
        NetConfig {
            hedge: Some(hedge),
            ..cfg()
        }
    }

    /// A three-cell answer whose slave stamps all read `t`.
    fn answer(t: SimTime) -> Reply {
        Reply::Response {
            answer: QueryResponse::from_kinds(0, [1, 1, 2]),
            bytes: 16,
            stamps: [t; 3],
        }
    }

    fn drain(c: &mut ReadCoordinator) -> Vec<Command> {
        std::iter::from_fn(|| c.poll()).collect()
    }

    fn send(node: u32, id: u64) -> Command {
        Command::Send { node, id }
    }

    /// Issues `routes` at time zero (ids are their indexes) and checks each
    /// goes to its primary.
    fn start(cfg: &NetConfig, nodes: usize, routes: &[Route]) -> ReadCoordinator {
        let mut c = ReadCoordinator::new(cfg, nodes);
        c.begin(ms(0), routes.len());
        for (id, r) in routes.iter().enumerate() {
            c.issue(ms(0), id as u64, r, ms(0));
            assert_eq!(drain(&mut c), [send(r.replicas[0], id as u64)]);
        }
        c
    }

    #[test]
    fn a_hedge_winner_cancels_the_loser_and_drops_its_late_answer() {
        let routes = [route(0, &[0, 1]), route(1, &[1, 0])];
        let mut c = start(&hedged(), 2, &routes);
        c.tick(ms(5));
        assert_eq!(
            drain(&mut c),
            [send(1, 0), send(0, 1)],
            "both hedge at 5 ms"
        );
        c.reply(ms(6), 1, 0, answer(ms(5)));
        assert!(!c.awaits(0), "the hedge won; request 0 is closed");
        c.reply(ms(7), 0, 0, answer(ms(6))); // the loser's late answer
        c.tick(ms(30));
        assert_eq!(
            drain(&mut c),
            [send(1, 1)],
            "the cancelled loser is never resent"
        );
        c.reply(ms(31), 1, 1, answer(ms(30)));
        assert_eq!(drain(&mut c), [Command::Done]);
        let r = c.finish(&routes).unwrap();
        assert_eq!((r.hedges_sent, r.hedges_won), (2, 1));
        assert_eq!(r.result.total_cells, 6, "request 0 counted once");
        assert_eq!(r.result.traces[0].node, 1);
    }

    #[test]
    fn busy_from_the_hedge_target_cancels_only_the_hedge() {
        let routes = [route(0, &[0, 1])];
        let mut c = start(&hedged(), 2, &routes);
        c.tick(ms(5));
        assert_eq!(drain(&mut c), [send(1, 0)]);
        c.reply(ms(6), 1, 0, Reply::Busy);
        c.tick(ms(9));
        assert_eq!(drain(&mut c), [], "no resend toward the saturated target");
        assert!(c.awaits(0), "the original attempt still stands");
        c.reply(ms(9), 0, 0, answer(ms(8)));
        assert_eq!(drain(&mut c), [Command::Done]);
        let r = c.finish(&routes).unwrap();
        assert_eq!((r.hedges_sent, r.hedges_won, r.busy_retries), (1, 0, 0));
    }

    #[test]
    fn busy_rearms_the_allowance_without_spending_the_retry_budget() {
        // No retry budget and a 10 ms allowance: only Busy keeps the one
        // replica in play past 10 ms.
        let cfg = NetConfig {
            max_retries: 0,
            ..cfg()
        };
        let routes = [route(0, &[0])];
        let mut c = start(&cfg, 1, &routes);
        for k in 0..3 {
            let t = ms(9 + 10 * k);
            c.reply(t, 0, 0, Reply::Busy);
            c.tick(c.next_deadline().unwrap());
            assert_eq!(drain(&mut c), [send(0, 0)], "resend after back-off {k}");
        }
        c.reply(ms(40), 0, 0, answer(ms(39)));
        assert_eq!(drain(&mut c), [Command::Done]);
        let r = c.finish(&routes).unwrap();
        assert_eq!((r.busy_retries, r.timeout_retries, r.failovers), (3, 0, 0));
        assert!(r.suspected_dead.is_empty());
    }

    #[test]
    fn expired_is_an_error_when_strict_and_an_exact_miss_when_degraded() {
        let routes = [route(0, &[0, 1]), route(1, &[1, 0])];
        let mut c = start(&cfg(), 2, &routes);
        c.reply(ms(1), 0, 0, Reply::Expired);
        assert_eq!(drain(&mut c), [Command::Done]);
        let err = c.finish(&routes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        let degraded = NetConfig {
            mode: QueryMode::Degraded,
            ..cfg()
        };
        let mut c = start(&degraded, 2, &routes);
        c.reply(ms(1), 0, 0, Reply::Expired);
        assert_eq!(drain(&mut c), [], "an expired request is never resent");
        c.reply(ms(2), 1, 1, answer(ms(1)));
        assert_eq!(drain(&mut c), [Command::Done]);
        let r = c.finish(&routes).unwrap();
        assert_eq!(r.result.missed, [0]);
        assert_eq!(
            (r.result.coverage.answered, r.result.coverage.total),
            (1, 2)
        );
        assert_eq!(r.missed[0].key, routes[0].key);
    }

    #[test]
    fn down_fails_in_flight_requests_over_at_once_in_phi_order() {
        let cfg = NetConfig {
            timeout: Duration::from_secs(1),
            ..cfg()
        };
        let mut c = ReadCoordinator::new(&cfg, 3);
        // Nodes 1 and 2 answer every millisecond; then node 1 goes quiet
        // at 19 ms while node 2 keeps answering until 100 ms.
        for t in 0..=100 {
            if t < 20 {
                c.note_alive(ms(t), 1);
            }
            c.note_alive(ms(t), 2);
        }
        // Requests on nodes 1 and 2 make their silence evidence.
        let routes = [route(0, &[0, 1, 2]), route(1, &[1, 2]), route(2, &[2, 1])];
        c.begin(ms(100), routes.len());
        for (id, r) in routes.iter().enumerate() {
            c.issue(ms(100), id as u64, r, ms(100));
        }
        drain(&mut c);
        c.down(ms(100), 0);
        assert_eq!(
            drain(&mut c),
            [send(2, 0)],
            "fails over now, to the least suspect replica rather than ring order"
        );
        assert!(c.hard_suspect(0));
        for (id, node) in [(0, 2), (1, 1), (2, 2)] {
            c.reply(ms(101), node, id, answer(ms(100)));
        }
        let r = c.finish(&routes).unwrap();
        assert_eq!(r.failovers, 1);
        assert_eq!(r.suspected_dead, [0]);
    }

    #[test]
    fn with_every_replica_gone_degraded_mode_reports_unissued_routes_as_misses() {
        let degraded = NetConfig {
            mode: QueryMode::Degraded,
            ..cfg()
        };
        let routes = [route(0, &[0, 1]), route(1, &[1, 0]), route(2, &[0, 1])];
        let mut c = ReadCoordinator::new(&degraded, 2);
        c.begin(ms(0), routes.len());
        c.down(ms(0), 0);
        c.down(ms(0), 1);
        for (id, r) in routes.iter().enumerate() {
            c.issue(ms(0), id as u64, r, ms(0));
        }
        assert_eq!(drain(&mut c), [Command::Done], "nothing is sent");
        let r = c.finish(&routes).unwrap();
        assert_eq!(r.result.missed, [0, 1, 2]);
        assert_eq!(r.result.coverage.answered, 0);
        assert_eq!(r.suspected_dead, [0, 1]);
    }

    #[test]
    fn unavailable_fails_over_at_once_and_never_returns_to_the_refusing_replica() {
        let routes = [route(0, &[0, 1])];
        let mut c = start(&cfg(), 2, &routes);
        c.reply(ms(1), 0, 0, Reply::Unavailable);
        assert_eq!(drain(&mut c), [send(1, 0)], "no timeout wait");
        c.reply(ms(2), 1, 0, Reply::Unavailable);
        assert_eq!(drain(&mut c), [Command::Done], "no replica left to ask");
        assert!(
            c.finish(&routes).is_err(),
            "strict mode: an error, never an empty answer"
        );
    }

    #[test]
    fn same_seed_replays_identically() {
        // A straggling node 0, node 2 dark from 30 ms, hedging on and a
        // random replica policy: every random draw and timer in play.
        let cfg = ReadSimConfig {
            net: SimNetConfig {
                seed: 7,
                leg_latency_ms: vec![1.0, 1.2, 1.5, 2.0],
                delay: Some(DelayFault {
                    probability: 0.2,
                    extra_ms: 20.0,
                    node: Some(0),
                }),
                down: vec![FaultWindow {
                    node: 2,
                    from_ms: 30.0,
                    until_ms: 60.0,
                }],
            },
            master: NetConfig {
                replica_policy: ReplicaPolicy::Random,
                timeout: Duration::from_millis(50),
                ..hedged()
            },
        };
        let run = || {
            let parts = uniform_partitions(200, 4, 4);
            let mut data = ClusterData::load(3, 2, TableOptions::default(), parts);
            let routes = data.routes();
            let arrivals: Vec<u64> = (0..200).map(|i| i * 500_000).collect();
            simulate(&cfg, &mut data, &routes, Some(&arrivals)).unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.hedges_won > 0 && a.failovers > 0, "{a:?}");
        assert!(a.result.coverage.is_complete());
        assert_eq!(a.result.total_cells, 800);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "every trace and counter replays"
        );
    }
}
