//! The network master: a connection pool over every slave, the paper's
//! "fire all requests, then drain responses" query loop, and the stage
//! bookkeeping that turns frame timestamps into a
//! [`kvs_cluster::RunResult`].
//!
//! Reliability model: one TCP connection per slave, a reader thread per
//! connection funneling frames into one channel, per-request deadlines,
//! and bounded retries. A `Busy` frame (slave queue full) is flow control,
//! never a failure: it schedules a quick retry that does not consume the
//! failure budget, and — because a `Busy` reply proves the slave alive —
//! it re-arms the request's wall-clock allowance. A timeout re-sends the
//! request at most [`NetConfig::max_retries`] times; once that budget is
//! exhausted (or the connection drops, or a corrupted frame forces a
//! disconnect) the master *fails over* to the next replica of the key.
//!
//! Three mechanisms bound the tail beyond plain retries:
//!
//! * **Deadlines** ([`NetConfig::query_deadline`]) ride in the v2 frame
//!   header; slaves shed expired work before the DB stage and answer
//!   `Expired`, and the master enforces the same limit locally.
//! * **Hedged reads** ([`NetConfig::hedge`]): when a response is slower
//!   than a configured quantile of that node's online latency histogram,
//!   the request is re-issued to the best other replica;
//!   first-response-wins, the loser is cancelled (dropped from pending,
//!   its eventual answer deduplicated), and the extra load is accounted.
//! * **Phi-accrual failure detection** ([`crate::phi`]): suspicion is a
//!   continuous level fed by response inter-arrivals, used to order
//!   replicas on failover and to stop hedging toward dying nodes — not
//!   just a binary verdict after the full timeout window.
//!
//! In the default strict mode, a request whose every replica is dead or
//! exhausted (or whose deadline passed) fails the whole query, as PR 2
//! behaved. In degraded mode ([`QueryMode::Degraded`]) the query instead
//! completes with [`kvs_cluster::Coverage`]` < 1` and an exact
//! per-partition miss list — partial answers over errors.

#![deny(clippy::wildcard_enum_match_arm)]

use crate::clock::wall_ns;
use crate::frame::{Frame, FrameKind, FLAG_COMPACT};
use crate::latency::LatencyTracker;
use crate::phi::PhiAccrual;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kvs_cluster::{Codec, CodecKind, Coverage, QueryRequest, ReplicaPolicy, RunResult};
use kvs_simcore::{SimDuration, SimTime};
use kvs_stages::{analyze, Stage, TraceRecorder};
use kvs_store::PartitionKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sub-query route: a partition key plus the nodes holding a replica
/// of it, primary first (the order [`kvs_cluster::ClusterData`] placed
/// them in). The master picks among the replicas with
/// [`NetConfig::replica_policy`] and walks the list on failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The partition this sub-query aggregates.
    pub key: PartitionKey,
    /// Replica node indexes, primary first. Must be non-empty.
    pub replicas: Vec<u32>,
}

impl Route {
    /// A single-replica route (replication factor 1).
    pub fn single(key: PartitionKey, node: u32) -> Route {
        Route {
            key,
            replicas: vec![node],
        }
    }
}

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
    /// Fail the whole query with an `io::Error` (PR 2's behavior).
    #[default]
    Strict,
    /// Complete with partial results: [`kvs_cluster::Coverage`]` < 1` and
    /// a per-partition miss list instead of an error.
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
    /// re-arms the request's wall-clock allowance of
    /// `timeout × (max_retries + 1)` (the slave demonstrably lives).
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
    /// Its replica set — every one of these was dead, exhausted or past
    /// deadline when the master gave up.
    pub replicas: Vec<u32>,
}

/// What a network query run reports beyond the shared [`RunResult`]:
/// master-side per-message costs (the calibration inputs), the retry
/// counters, and the failover/hedge bookkeeping.
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
    /// timed out, exhausted its retry budget, or dropped its connection.
    pub failovers: u64,
    /// Nodes the master stopped trusting during the run: their connection
    /// died, a corrupted frame forced a disconnect, they exhausted a
    /// request's retry budget, or their phi-accrual suspicion crossed
    /// [`NetConfig::phi_threshold`]. Sorted, deduplicated.
    pub suspected_dead: Vec<u32>,
    /// Master↔slave connections torn down because a frame failed its CRC
    /// (after corruption the byte stream cannot be re-synchronized).
    pub crc_disconnects: u64,
    /// The aggregate retry cost: wall-clock time completed requests spent
    /// between their first send and the send that finally got a response
    /// (0 for a run with no retries). This is the share of the
    /// master-to-slave stage attributable to busy back-off, timeouts and
    /// failover detection.
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

/// Why a connection reader exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownReason {
    /// EOF or a transport error: the peer is gone.
    Closed,
    /// A frame failed validation (CRC/framing): the stream is
    /// unrecoverable, so the connection was dropped.
    Corrupt,
}

/// What a reader thread reports to the collect loop.
pub(crate) enum Event {
    Frame(u32, Frame),
    Down(u32, DownReason),
}

struct Pending {
    /// Replica nodes of this key, primary first (the route).
    replicas: Vec<u32>,
    /// Index into `replicas` of the replica currently being tried.
    replica_ix: usize,
    payload: Bytes,
    attempts: u32,
    first_sent_wall: u64,
    sent_wall: u64,
    issued_wall: u64,
    /// Next retry instant (timeout, or busy back-off when `busy`).
    deadline: Instant,
    /// Hard wall-clock limit for this request on the current replica.
    /// Re-armed by `Busy` replies (liveness evidence) and on failover.
    expires: Instant,
    /// The last resend trigger was a `Busy` frame (for counter accounting
    /// and the retry budget).
    busy: bool,
    /// The request's absolute deadline as carried on the wire (0 = none).
    deadline_wall: u64,
    /// Master-side view of the same deadline.
    hard_deadline: Option<Instant>,
    /// When to hedge, if hedging is armed and has not fired yet.
    hedge_at: Option<Instant>,
    /// Outstanding hedge target, if one was issued.
    hedge_node: Option<u32>,
    hedge_sent_wall: u64,
}

impl Pending {
    fn node(&self) -> u32 {
        self.replicas[self.replica_ix]
    }
}

/// Per-node health: continuous phi-accrual suspicion plus the hard
/// verdicts phi cannot express (a closed connection stays closed).
pub(crate) struct NodeHealth {
    phi: PhiAccrual,
    pub(crate) latency: LatencyTracker,
    /// The connection is gone (EOF, transport error, CRC disconnect, or a
    /// failed write). The write half is dropped; only a reconnect could
    /// clear this.
    pub(crate) hard_dead: bool,
    /// A request exhausted its retry budget against this node. Soft:
    /// any later frame from the node clears it.
    exhausted: bool,
    /// Phi crossed the threshold while the master was deciding where to
    /// send work. Latched for reporting; cleared by any frame.
    phi_suspect: bool,
}

impl NodeHealth {
    pub(crate) fn new() -> NodeHealth {
        NodeHealth {
            phi: PhiAccrual::default(),
            latency: LatencyTracker::default(),
            hard_dead: false,
            exhausted: false,
            phi_suspect: false,
        }
    }

    fn suspect(&self) -> bool {
        self.hard_dead || self.exhausted || self.phi_suspect
    }
}

/// A connected master.
pub struct NetMaster {
    pub(crate) writers: Vec<Option<TcpStream>>,
    pub(crate) rx: Receiver<Event>,
    /// Producer half of the event channel, kept so a reconnect
    /// ([`NetMaster::reconnect`]) can spawn a fresh reader thread.
    pub(crate) tx: Sender<Event>,
    readers: Vec<JoinHandle<()>>,
    pub(crate) cfg: NetConfig,
    /// Per-node failure-detector and latency state. Persists across
    /// queries, like the dead set it replaces.
    pub(crate) health: Vec<NodeHealth>,
    crc_disconnects: u64,
    /// Monotone per-master send sequence, stamped into request frames
    /// (`stamps[2]`) so interposers and tests can assert ordering.
    pub(crate) send_seq: u64,
    policy_rng: StdRng,
    /// Replicated-write-path state: hint queues, the read-repair write
    /// cache, per-partition acked versions (see `crate::write_path`).
    pub(crate) wstate: crate::write_path::WriteState,
}

/// `TcpStream::connect` with bounded retry on `ConnectionRefused`: a
/// freshly spawned local cluster (or a slave being restarted by a chaos
/// test) may not have reached `listen()` yet, and the first SYN bounces.
pub(crate) fn connect_with_retry(addr: &SocketAddr, cfg: &NetConfig) -> io::Result<TcpStream> {
    let mut backoff = cfg.connect_backoff.max(Duration::from_micros(100));
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionRefused
                    && attempt < cfg.connect_retries =>
            {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Spawns one connection reader thread funneling frames into `tx`.
fn spawn_reader(node: u32, mut read_half: TcpStream, tx: Sender<Event>) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match Frame::read_from(&mut read_half) {
            Ok(frame) => {
                if tx.send(Event::Frame(node, frame)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let reason = if e.kind() == io::ErrorKind::InvalidData {
                    DownReason::Corrupt
                } else {
                    DownReason::Closed
                };
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the send fails only once the master has dropped the receiver at shutdown; logging would print on every clean shutdown"
                )]
                let _ = tx.send(Event::Down(node, reason));
                return;
            }
        }
    })
}

impl NetMaster {
    /// Connects to every slave; `addrs[i]` must be node `i`'s server.
    /// `ConnectionRefused` is retried [`NetConfig::connect_retries`] times
    /// with exponential back-off (the cold-start race against a cluster
    /// that is still binding its listeners).
    pub fn connect(addrs: &[SocketAddr], cfg: NetConfig) -> io::Result<NetMaster> {
        let (tx, rx) = unbounded::<Event>();
        let mut writers = Vec::with_capacity(addrs.len());
        let mut readers = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            let stream = connect_with_retry(addr, &cfg)?;
            stream.set_nodelay(true)?;
            let read_half = stream.try_clone()?;
            writers.push(Some(stream));
            readers.push(spawn_reader(node as u32, read_half, tx.clone()));
        }
        Ok(NetMaster {
            writers,
            rx,
            tx,
            readers,
            health: (0..addrs.len()).map(|_| NodeHealth::new()).collect(),
            crc_disconnects: 0,
            send_seq: 0,
            policy_rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            wstate: crate::write_path::WriteState::default(),
        })
    }

    /// Re-establishes the connection to a restarted `node`: a fresh TCP
    /// stream, a fresh reader thread, and fresh failure-detector state
    /// (the old incarnation's suspicion does not transfer to the new
    /// process). The caller typically follows up with
    /// [`NetMaster::replay_hints`] to drain writes buffered while the
    /// node was dark.
    pub fn reconnect(&mut self, node: u32, addr: SocketAddr) -> io::Result<()> {
        let cfg = self.cfg;
        let stream = connect_with_retry(&addr, &cfg)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        if let Some(slot) = self.writers.get_mut(node as usize) {
            if let Some(old) = slot.take() {
                crate::ioutil::best_effort("close stale connection", old.shutdown(Shutdown::Both));
            }
            *slot = Some(stream);
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("node {node} is outside the connected cluster"),
            ));
        }
        self.readers
            .push(spawn_reader(node, read_half, self.tx.clone()));
        if let Some(h) = self.health.get_mut(node as usize) {
            *h = NodeHealth::new();
        }
        Ok(())
    }

    /// Nodes currently suspected by this master: hard-dead connections,
    /// exhausted retry budgets, or phi-accrual suspicion above the
    /// configured threshold.
    pub fn suspected_dead(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.suspect())
            .map(|(n, _)| n as u32)
            .collect()
    }

    /// Current phi-accrual suspicion level of one node (0.0 for nodes the
    /// detector has too little data on).
    pub fn phi_of(&self, node: u32) -> f64 {
        self.health
            .get(node as usize)
            .map(|h| h.phi.phi(Instant::now()))
            .unwrap_or(0.0)
    }

    /// Any frame from `node` proves it alive: feed the phi detector and
    /// clear the soft suspicion verdicts.
    pub(crate) fn note_alive(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.phi.heartbeat(Instant::now());
            h.exhausted = false;
            h.phi_suspect = false;
        }
    }

    /// Hard verdicts only: the node cannot currently answer (closed
    /// connection) or demonstrably did not (exhausted budget).
    // LINT-ZONE: nonblocking — readiness-loop verdict, must never stall.
    pub(crate) fn hard_suspect(&self, node: u32) -> bool {
        self.health
            .get(node as usize)
            .map(|h| h.hard_dead || h.exhausted)
            .unwrap_or(true)
    }

    /// Phi of `node`, but only when its silence is *evidence*: a node the
    /// master has requests outstanding against and is actively draining
    /// responses from. An idle node (nothing in flight) is silent because
    /// nothing was asked of it; during the issue phase the collect loop
    /// is not running, so apparent silence is master-side lag. Both read
    /// as zero suspicion.
    // LINT-ZONE: nonblocking — runs inside the collect loop's hot path.
    fn live_phi(&self, node: u32, inflight: &[usize], now: Instant) -> f64 {
        if inflight.get(node as usize).copied().unwrap_or(0) == 0 {
            return 0.0;
        }
        self.health
            .get(node as usize)
            .map(|h| h.phi.phi(now))
            .unwrap_or(f64::INFINITY)
    }

    /// Runs the aggregation query: issues one request per route, then
    /// drains responses, failing over between replicas as needed. All
    /// keys are known up front, as in the paper's simple case.
    pub fn run_query(&mut self, routes: &[Route]) -> io::Result<NetRunReport> {
        self.run_with_arrivals(routes, None)
    }

    /// Like [`NetMaster::run_query`], but each request `i` is released
    /// only once `arrivals_ns[i]` nanoseconds have elapsed since the run
    /// started — the open-loop load generator's entry point. `None` means
    /// release everything immediately (closed batch).
    pub fn run_with_arrivals(
        &mut self,
        routes: &[Route],
        arrivals_ns: Option<&[u64]>,
    ) -> io::Result<NetRunReport> {
        if let Some(a) = arrivals_ns {
            assert_eq!(a.len(), routes.len(), "one arrival offset per route");
        }
        let flags = match self.cfg.codec.kind {
            CodecKind::Compact => FLAG_COMPACT,
            CodecKind::Verbose => 0,
        };
        let origin_wall = wall_ns();
        let origin = Instant::now();
        let to_sim = |w: u64| SimTime::from_nanos(w.saturating_sub(origin_wall));
        let allowance = self.cfg.timeout * (self.cfg.max_retries + 1);
        let degraded = self.cfg.mode == QueryMode::Degraded;
        let budget = self.cfg.query_deadline;
        let hedge_cfg = self.cfg.hedge;

        let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(routes.len());
        let mut ctr = Counters::default();
        let mut inflight: Vec<usize> = vec![0; self.writers.len()];
        let mut misses: Vec<u64> = Vec::new();
        let mut send_last = origin;

        let mut recorder = TraceRecorder::new();
        let mut counts: BTreeMap<u8, u64> = BTreeMap::new();
        let mut total_cells = 0u64;
        let mut next_issue = 0usize;

        // Issue and collect interleave in one loop. A paced run must keep
        // draining responses and firing hedge/retry timers *between*
        // arrivals: issuing everything first and only then collecting
        // would leave every armed timer long overdue by the time the last
        // request is released, firing a storm of spurious hedges and
        // retries. An unpaced (batch) run issues everything on the first
        // pass and the loop degenerates to the plain collect loop.
        loop {
            // ---- Issue every route whose arrival time has come. ----
            while next_issue < routes.len() {
                if let Some(arrivals) = arrivals_ns {
                    if origin.elapsed() < Duration::from_nanos(arrivals[next_issue]) {
                        break;
                    }
                }
                let i = next_issue;
                next_issue += 1;
                let route = &routes[i];
                assert!(!route.replicas.is_empty(), "route {i} has no replicas");
                let arrival_ns = arrivals_ns.map(|a| a[i]).unwrap_or(0);
                let issued_wall = origin_wall + arrival_ns;
                let t0 = Instant::now();
                let payload = self.cfg.codec.encode_request(&QueryRequest {
                    request_id: i as u64,
                    partition: route.key.clone(),
                });

                // Replica choice: the configured policy proposes, the health
                // table disposes — a suspected pick slides to the least
                // suspect live replica (counted as a failover, like the
                // sim's).
                let loads: Vec<usize> = route
                    .replicas
                    .iter()
                    .map(|&n| inflight.get(n as usize).copied().unwrap_or(0))
                    .collect();
                let picked = self.cfg.replica_policy.pick(
                    route.replicas.len(),
                    &loads,
                    i as u64,
                    &mut self.policy_rng,
                );
                let mut p = Pending {
                    replicas: route.replicas.clone(),
                    replica_ix: picked,
                    payload,
                    attempts: 1,
                    first_sent_wall: 0,
                    sent_wall: 0,
                    issued_wall,
                    deadline: Instant::now(),
                    expires: Instant::now(),
                    busy: false,
                    deadline_wall: budget
                        .map(|b| issued_wall + b.as_nanos() as u64)
                        .unwrap_or(0),
                    hard_deadline: budget.map(|b| origin + Duration::from_nanos(arrival_ns) + b),
                    hedge_at: None,
                    hedge_node: None,
                    hedge_sent_wall: 0,
                };
                if self.hard_suspect(p.node())
                    && !self.failover_to_live(&mut p, &mut ctr, &inflight)
                {
                    if degraded {
                        misses.push(i as u64);
                        continue;
                    }
                    return Err(self.no_replica_error(i as u64, &p));
                }

                let Some(sent_wall) =
                    self.send_pending(i as u64, &mut p, flags, &mut ctr, &inflight)
                else {
                    if degraded {
                        misses.push(i as u64);
                        continue;
                    }
                    return Err(self.no_replica_error(i as u64, &p));
                };
                p.first_sent_wall = sent_wall;
                ctr.tx_micros += t0.elapsed().as_micros() as u64;
                send_last = Instant::now();
                p.deadline = send_last + self.cfg.timeout;
                p.expires = send_last + allowance;
                if let Some(h) = hedge_cfg {
                    if p.replicas.len() > 1 {
                        p.hedge_at = Some(send_last + self.hedge_delay(p.node(), &h));
                    }
                }
                if let Some(slot) = inflight.get_mut(p.node() as usize) {
                    *slot += 1;
                }
                ctr.bytes_to_slaves += p.payload.len() as u64;
                pending.insert(i as u64, p);
            }
            if next_issue == routes.len() && pending.is_empty() {
                break;
            }

            // ---- Wait for whichever comes first: a frame, the next
            // arrival to release, or the nearest pending timer. ----
            let mut nearest = pending
                .values()
                .map(|p| {
                    let mut t = p.deadline;
                    if let Some(at) = p.hedge_at {
                        t = t.min(at);
                    }
                    if let Some(hd) = p.hard_deadline {
                        t = t.min(hd);
                    }
                    t
                })
                .min();
            if let (Some(arrivals), true) = (arrivals_ns, next_issue < routes.len()) {
                let due = origin + Duration::from_nanos(arrivals[next_issue]);
                nearest = Some(nearest.map_or(due, |n: Instant| n.min(due)));
            }
            // `nearest` is `None` only when nothing is pending and nothing
            // is left to issue — the loop break above; a plain poll
            // interval keeps even that impossible case live.
            let wait = match nearest {
                Some(at) => at
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_micros(100)),
                None => Duration::from_micros(100),
            };
            match self.rx.recv_timeout(wait) {
                Ok(Event::Frame(node, frame)) => {
                    self.note_alive(node);
                    match frame.kind {
                        FrameKind::Response => {
                            let t0 = Instant::now();
                            let Some(response) =
                                self.cfg.codec.decode_response(frame.payload.clone())
                            else {
                                continue; // checksummed but undecodable: let the retry path handle it
                            };
                            let done_wall = wall_ns();
                            ctr.rx_micros += t0.elapsed().as_micros() as u64;
                            let Some(p) = pending.remove(&frame.id) else {
                                continue; // duplicate (a retry or a lost hedge raced the winner)
                            };
                            // First response wins; both outstanding
                            // attempts are released here, so the loser is
                            // cancelled: never retried, its eventual
                            // answer dropped as a duplicate above.
                            if let Some(slot) = inflight.get_mut(p.node() as usize) {
                                *slot = slot.saturating_sub(1);
                            }
                            let hedge_answered = p.hedge_node == Some(node) && node != p.node();
                            if let Some(hn) = p.hedge_node {
                                if let Some(slot) = inflight.get_mut(hn as usize) {
                                    *slot = slot.saturating_sub(1);
                                }
                                if hedge_answered {
                                    ctr.hedges_won += 1;
                                }
                            }
                            let sent = if hedge_answered {
                                p.hedge_sent_wall
                            } else {
                                p.sent_wall
                            };
                            if let Some(h) = self.health.get_mut(node as usize) {
                                h.latency
                                    .record(Duration::from_nanos(done_wall.saturating_sub(sent)));
                            }
                            ctr.bytes_to_master += frame.payload.len() as u64;
                            ctr.retry_wait_ns += p.sent_wall.saturating_sub(p.first_sent_wall);
                            let id = frame.id;
                            recorder.begin(id, node, response.cells);
                            recorder.record(
                                id,
                                Stage::MasterToSlave,
                                to_sim(p.issued_wall),
                                to_sim(sent),
                            );
                            recorder.record(
                                id,
                                Stage::InQueue,
                                to_sim(frame.stamps[0]),
                                to_sim(frame.stamps[1]),
                            );
                            recorder.record(
                                id,
                                Stage::InDb,
                                to_sim(frame.stamps[1]),
                                to_sim(frame.stamps[2]),
                            );
                            recorder.record(
                                id,
                                Stage::SlaveToMaster,
                                to_sim(frame.stamps[2]),
                                to_sim(done_wall),
                            );
                            for (&kind, &count) in &response.counts {
                                *counts.entry(kind).or_insert(0) += count;
                            }
                            total_cells += response.cells;
                        }
                        FrameKind::Busy => {
                            if let Some(p) = pending.get_mut(&frame.id) {
                                if p.hedge_node == Some(node) && node != p.node() {
                                    // The hedge target is saturated;
                                    // hedging toward it buys nothing.
                                    // Cancel the hedge, keep the original.
                                    p.hedge_node = None;
                                    if let Some(slot) = inflight.get_mut(node as usize) {
                                        *slot = slot.saturating_sub(1);
                                    }
                                } else {
                                    // Pull the deadline in: retry after a
                                    // short back-off through the common
                                    // expiry path. The slave demonstrably
                                    // lives, so re-arm the wall-clock
                                    // allowance — Busy is flow control,
                                    // never a failure (see the regression
                                    // test in tests/busy_budget.rs).
                                    p.busy = true;
                                    let now = Instant::now();
                                    p.deadline = now + self.cfg.busy_backoff;
                                    p.expires = now + allowance;
                                }
                            }
                        }
                        FrameKind::Expired => {
                            // The slave shed this request: its deadline
                            // passed before the DB stage. The deadline
                            // will not un-expire, so retrying is useless.
                            if let Some(p) = pending.remove(&frame.id) {
                                if let Some(slot) = inflight.get_mut(p.node() as usize) {
                                    *slot = slot.saturating_sub(1);
                                }
                                if let Some(hn) = p.hedge_node {
                                    if let Some(slot) = inflight.get_mut(hn as usize) {
                                        *slot = slot.saturating_sub(1);
                                    }
                                }
                                if !degraded {
                                    return Err(io::Error::new(
                                        io::ErrorKind::TimedOut,
                                        format!(
                                            "request {} expired at node {node} before service",
                                            frame.id
                                        ),
                                    ));
                                }
                                misses.push(frame.id);
                            }
                        }
                        // Protocol violations (a slave never sends these)
                        // and write-path acks owned by `run_mixed`: ignore.
                        FrameKind::Request
                        | FrameKind::Write
                        | FrameKind::WriteAck
                        | FrameKind::Rmw => {}
                    }
                }
                Ok(Event::Down(node, reason)) => {
                    if reason == DownReason::Corrupt {
                        self.crc_disconnects += 1;
                        ctr.crc_disconnects += 1;
                    }
                    self.mark_dead(node);
                    // Outstanding hedges on the dead node are lost.
                    for p in pending.values_mut() {
                        if p.hedge_node == Some(node) {
                            p.hedge_node = None;
                            if let Some(slot) = inflight.get_mut(node as usize) {
                                *slot = slot.saturating_sub(1);
                            }
                        }
                    }
                    // Everything in flight on that node fails over now
                    // rather than waiting out its timeout.
                    let stranded: Vec<u64> = pending
                        .iter()
                        .filter(|(_, p)| p.node() == node)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in stranded {
                        let Some(mut p) = pending.remove(&id) else {
                            continue;
                        };
                        if let Some(slot) = inflight.get_mut(p.node() as usize) {
                            *slot = slot.saturating_sub(1);
                        }
                        if !self.failover_to_live(&mut p, &mut ctr, &inflight) {
                            if degraded {
                                misses.push(id);
                                continue;
                            }
                            return Err(self.no_replica_error(id, &p));
                        }
                        let Some(_) = self.send_pending(id, &mut p, flags, &mut ctr, &inflight)
                        else {
                            if degraded {
                                misses.push(id);
                                continue;
                            }
                            return Err(self.no_replica_error(id, &p));
                        };
                        let now = Instant::now();
                        p.deadline = now + self.cfg.timeout;
                        p.expires = now + allowance;
                        p.attempts = 1;
                        p.busy = false;
                        ctr.bytes_to_slaves += p.payload.len() as u64;
                        if let Some(slot) = inflight.get_mut(p.node() as usize) {
                            *slot += 1;
                        }
                        pending.insert(id, p);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    if degraded {
                        // Every connection is gone: nothing pending can be
                        // answered. Record the losses and finish with what
                        // we have.
                        misses.extend(pending.keys().copied());
                        misses.extend((next_issue..routes.len()).map(|i| i as u64));
                        pending.clear();
                        break;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "every slave connection dropped mid-query",
                    ));
                }
            }

            // ---- Enforce hard deadlines. ----
            let now = Instant::now();
            let overdue: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.hard_deadline.is_some_and(|d| d <= now))
                .map(|(&id, _)| id)
                .collect();
            for id in overdue {
                let Some(p) = pending.remove(&id) else {
                    continue;
                };
                if let Some(slot) = inflight.get_mut(p.node() as usize) {
                    *slot = slot.saturating_sub(1);
                }
                if let Some(hn) = p.hedge_node {
                    if let Some(slot) = inflight.get_mut(hn as usize) {
                        *slot = slot.saturating_sub(1);
                    }
                }
                if !degraded {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("request {id} missed its deadline"),
                    ));
                }
                misses.push(id);
            }

            // ---- Fire due hedges. ----
            let now = Instant::now();
            let due: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.hedge_at.is_some_and(|t| t <= now) && p.hedge_node.is_none())
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                let Some(p) = pending.get_mut(&id) else {
                    continue;
                };
                p.hedge_at = None;
                let Some(node) = self.pick_hedge_target(p, now, &inflight) else {
                    continue;
                };
                let sent_wall = wall_ns();
                let seq = self.send_seq;
                self.send_seq += 1;
                let frame = Frame {
                    kind: FrameKind::Request,
                    flags,
                    id,
                    stamps: [p.issued_wall, sent_wall, seq, 0],
                    deadline: p.deadline_wall,
                    payload: p.payload.clone(),
                };
                if self.write_frame(node, &frame).is_ok() {
                    ctr.hedges_sent += 1;
                    ctr.bytes_to_slaves += p.payload.len() as u64;
                    p.hedge_node = Some(node);
                    p.hedge_sent_wall = sent_wall;
                    if let Some(slot) = inflight.get_mut(node as usize) {
                        *slot += 1;
                    }
                } else {
                    self.mark_dead(node);
                }
            }

            // ---- Retry expired requests. ----
            let now = Instant::now();
            let expired: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                let Some(mut p) = pending.remove(&id) else {
                    continue;
                };
                if let Some(slot) = inflight.get_mut(p.node() as usize) {
                    *slot = slot.saturating_sub(1);
                }
                // Busy resends are flow control and don't consume the
                // retry budget; their allowance re-arms on every Busy
                // receipt, so hitting `expires` here means the slave went
                // silent after flow-controlling us. Timeout resends are
                // bounded by `max_retries` per replica. Either way,
                // exhaustion suspects the replica and fails over.
                let exhausted = if p.busy {
                    now >= p.expires
                } else {
                    p.attempts > self.cfg.max_retries
                };
                if exhausted {
                    self.mark_exhausted(p.node());
                    if !self.failover_to_live(&mut p, &mut ctr, &inflight) {
                        if degraded {
                            misses.push(id);
                            continue;
                        }
                        return Err(self.no_replica_error(id, &p));
                    }
                    p.attempts = 1;
                } else if p.busy {
                    ctr.busy_retries += 1;
                } else {
                    ctr.timeout_retries += 1;
                    p.attempts += 1;
                }
                p.busy = false;
                let t0 = Instant::now();
                let Some(_) = self.send_pending(id, &mut p, flags, &mut ctr, &inflight) else {
                    if degraded {
                        misses.push(id);
                        continue;
                    }
                    return Err(self.no_replica_error(id, &p));
                };
                ctr.tx_micros += t0.elapsed().as_micros() as u64;
                let now = Instant::now();
                p.deadline = now + self.cfg.timeout;
                if exhausted {
                    p.expires = now + allowance;
                }
                ctr.bytes_to_slaves += p.payload.len() as u64;
                if let Some(slot) = inflight.get_mut(p.node() as usize) {
                    *slot += 1;
                }
                pending.insert(id, p);
            }
        }

        misses.sort_unstable();
        misses.dedup();
        let missed: Vec<MissedPartition> = misses
            .iter()
            .map(|&id| {
                let route = &routes[id as usize];
                MissedPartition {
                    request_id: id,
                    key: route.key.clone(),
                    replicas: route.replicas.clone(),
                }
            })
            .collect();
        let coverage = Coverage {
            answered: routes.len() as u64 - misses.len() as u64,
            total: routes.len() as u64,
        };
        let traces = recorder.into_traces();
        let report = analyze(&traces);
        Ok(NetRunReport {
            result: RunResult {
                makespan: report.makespan,
                report,
                traces,
                counts_by_kind: counts,
                total_cells,
                messages: routes.len() as u64,
                bytes_to_slaves: ctr.bytes_to_slaves,
                bytes_to_master: ctr.bytes_to_master,
                issue_span: SimDuration::from_nanos(
                    send_last.saturating_duration_since(origin).as_nanos() as u64,
                ),
                failovers: ctr.failovers,
                coverage,
                missed: misses,
                hedges_sent: ctr.hedges_sent,
                hedges_won: ctr.hedges_won,
                queue: None,
            },
            tx_micros: ctr.tx_micros,
            rx_micros: ctr.rx_micros,
            busy_retries: ctr.busy_retries,
            timeout_retries: ctr.timeout_retries,
            failovers: ctr.failovers,
            suspected_dead: self.suspected_dead(),
            crc_disconnects: ctr.crc_disconnects,
            retry_wait_ms: ctr.retry_wait_ns as f64 / 1e6,
            hedges_sent: ctr.hedges_sent,
            hedges_won: ctr.hedges_won,
            missed,
        })
    }

    /// The per-node hedge trigger: the configured quantile of the node's
    /// online latency histogram, floored at `min_delay` (which also covers
    /// the cold start, before any sample exists). Adapts online: on a slow
    /// machine the quantile inflates and hedges fire later instead of
    /// storming healthy-but-slow replicas.
    fn hedge_delay(&self, node: u32, h: &HedgeConfig) -> Duration {
        let observed = self
            .health
            .get(node as usize)
            .and_then(|n| n.latency.quantile(h.quantile))
            .unwrap_or(Duration::ZERO);
        observed.max(h.min_delay)
    }

    /// Picks the least-suspect other replica to hedge toward, or `None`
    /// when every alternative is hard-suspect or past the phi threshold —
    /// hedging toward a dying node only doubles the damage.
    fn pick_hedge_target(&mut self, p: &Pending, now: Instant, inflight: &[usize]) -> Option<u32> {
        let n = p.replicas.len();
        let threshold = self.cfg.phi_threshold;
        let mut best: Option<(u32, f64)> = None;
        for step in 1..n {
            let ix = (p.replica_ix + step) % n;
            let node = p.replicas[ix];
            if self.hard_suspect(node) {
                continue;
            }
            let phi = self.live_phi(node, inflight, now);
            if phi > threshold {
                if let Some(h) = self.health.get_mut(node as usize) {
                    h.phi_suspect = true;
                }
                continue;
            }
            if best.is_none_or(|(_, b)| phi < b) {
                best = Some((node, phi));
            }
        }
        best.map(|(node, _)| node)
    }

    /// Advances `p` to the least-suspect other replica — phi-accrual
    /// orders the candidates, hard verdicts exclude them. Returns `false`
    /// when no live replica remains (the caller decides: error in strict
    /// mode, a recorded miss in degraded mode).
    fn failover_to_live(
        &mut self,
        p: &mut Pending,
        ctr: &mut Counters,
        inflight: &[usize],
    ) -> bool {
        let now = Instant::now();
        let n = p.replicas.len();
        let mut best: Option<(usize, f64)> = None;
        for step in 1..n {
            let ix = (p.replica_ix + step) % n;
            let node = p.replicas[ix];
            if self.hard_suspect(node) {
                continue;
            }
            let phi = self.live_phi(node, inflight, now);
            // Least suspicion wins; ring order breaks ties.
            if best.is_none_or(|(_, b)| phi < b) {
                best = Some((ix, phi));
            }
        }
        match best {
            Some((ix, _)) => {
                p.replica_ix = ix;
                ctr.failovers += 1;
                true
            }
            None => false,
        }
    }

    fn no_replica_error(&self, id: u64, p: &Pending) -> io::Error {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "request {id} has no live replica left (tried {:?}, suspected: {:?})",
                p.replicas,
                self.suspected_dead()
            ),
        )
    }

    /// Marks a node hard-dead and drops its write half so no further
    /// frames go to it.
    pub(crate) fn mark_dead(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.hard_dead = true;
        }
        if let Some(slot) = self.writers.get_mut(node as usize) {
            if let Some(w) = slot.take() {
                crate::ioutil::best_effort(
                    "close dead node connection",
                    w.shutdown(Shutdown::Both),
                );
            }
        }
    }

    /// Soft suspicion: the node exhausted a request's retry budget. The
    /// connection stays open — a blackholed node may still be reading —
    /// and any later frame from it clears the verdict.
    fn mark_exhausted(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.exhausted = true;
        }
    }

    /// Frames and writes `p`'s request to its current replica, failing
    /// over (possibly repeatedly) when the write itself fails. Returns
    /// the wall-clock send stamp, or `None` when no live replica remains.
    fn send_pending(
        &mut self,
        id: u64,
        p: &mut Pending,
        flags: u8,
        ctr: &mut Counters,
        inflight: &[usize],
    ) -> Option<u64> {
        loop {
            let sent_wall = wall_ns();
            let seq = self.send_seq;
            self.send_seq += 1;
            let frame = Frame {
                kind: FrameKind::Request,
                flags,
                id,
                stamps: [p.issued_wall, sent_wall, seq, 0],
                deadline: p.deadline_wall,
                payload: p.payload.clone(),
            };
            let node = p.node();
            match self.write_frame(node, &frame) {
                Ok(()) => {
                    p.sent_wall = sent_wall;
                    return Some(sent_wall);
                }
                Err(_) => {
                    // The connection is unusable; suspect the node and
                    // walk to the next replica (or run out of them).
                    self.mark_dead(node);
                    if !self.failover_to_live(p, ctr, inflight) {
                        return None;
                    }
                }
            }
        }
    }

    pub(crate) fn write_frame(&mut self, node: u32, frame: &Frame) -> io::Result<()> {
        let writer = self
            .writers
            .get_mut(node as usize)
            .and_then(|w| w.as_mut())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no connection for node {node}"),
                )
            })?;
        frame.write_to(writer)
    }

    /// Closes every connection and joins the reader threads.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        for w in self.writers.iter().flatten() {
            crate::ioutil::best_effort("close connection", w.shutdown(Shutdown::Both));
        }
        self.writers.clear();
        for h in self.readers.drain(..) {
            crate::ioutil::join_logged("reader thread", h);
        }
    }
}

impl Drop for NetMaster {
    fn drop(&mut self) {
        self.close();
    }
}

/// Per-run mutable counters, bundled so helpers can borrow them alongside
/// `self` without fighting the borrow checker.
#[derive(Default)]
struct Counters {
    tx_micros: u64,
    rx_micros: u64,
    busy_retries: u64,
    timeout_retries: u64,
    failovers: u64,
    crc_disconnects: u64,
    retry_wait_ns: u64,
    bytes_to_slaves: u64,
    bytes_to_master: u64,
    hedges_sent: u64,
    hedges_won: u64,
}
