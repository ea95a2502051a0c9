//! The replicated write path's coordinator, and a simulated network that
//! drives it.
//!
//! [`Coordinator`] is a clock-free state machine that makes every write
//! path decision: consistency-level ack counting, the LWW version draw,
//! fan-out and the one retry round, `Busy` back-off resends, read answers
//! and staleness, read repair, and bounded hinted handoff with replay.
//! Typed events go in (`start`, `replay`, `reply`, `down`, `tick`, each
//! carrying the current [`SimTime`]); commands come out of
//! [`Coordinator::poll`]. It does no I/O and reads no clock (KVS-L001
//! deterministic zone), so two loops run the same machine:
//! `kvs_net::write_path` over sockets on the host's wall clock, and
//! [`simulate`], a seeded network with resampled leg latency, a delay
//! fault, dark-replica windows and an append-only per-replica apply log
//! that answers "which version was visible at t" — the PCAP staleness
//! probe (Rahman et al., PAPERS.md). A sim-vs-sockets comparison differs
//! only in the clock and the network, never in the coordinator.

use crate::data::Route;
use crate::messages::{QueryRequest, WriteRequest};
use crate::simnet::{at_ms, Machine, SimNet, SimNetConfig};
use kvs_simcore::{SimDuration, SimTime};
use kvs_store::{Cell, PartitionKey};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Bound on each node's hint queue; a hint past it is dropped and counted
/// in [`MixedOutcome::hints_dropped`].
pub const HINT_QUEUE_CAP: usize = 1024;

/// Coordinator ids live far above the read path's route indexes so a
/// stale frame from one path can never be claimed by the other.
const ID_BASE: u64 = 1 << 40;

/// Per-request consistency level: how many replica acknowledgements a
/// write (or read responses a read) needs before the coordinator answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// One replica suffices — fastest, weakest.
    One,
    /// A majority of the replica set (`rf/2 + 1`).
    Quorum,
    /// Every replica — slowest, strongest.
    All,
}

impl Consistency {
    /// Acknowledgements required at replication factor `rf`.
    pub fn required(self, rf: usize) -> usize {
        match self {
            Consistency::One => 1,
            Consistency::Quorum => rf / 2 + 1,
            Consistency::All => rf,
        }
        .min(rf.max(1))
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Consistency::One => "one",
            Consistency::Quorum => "quorum",
            Consistency::All => "all",
        }
    }
}

/// What one mixed-plan operation does.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// Consistency-level read with staleness accounting.
    Read,
    /// Replicated LWW write of these cells.
    Write {
        /// The cells to apply to the partition.
        cells: Vec<Cell>,
    },
    /// Read-modify-write: the replica reads the pre-image, then applies.
    /// One round, like a write.
    Rmw {
        /// The cells to apply after the pre-image read.
        cells: Vec<Cell>,
    },
}

/// One operation of a mixed read/write plan.
#[derive(Debug, Clone)]
pub struct MixedPlan {
    /// The partition and its replica set, primary first.
    pub route: Route,
    /// What to do.
    pub op: MixedOp,
    /// The consistency level this operation must reach.
    pub consistency: Consistency,
}

/// Counters and samples from one mixed run, in either world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MixedOutcome {
    /// Per-completed-read latency, milliseconds, in completion order.
    pub read_latency_ms: Vec<f64>,
    /// Per-acked-write (and RMW) latency, milliseconds, in completion
    /// order.
    pub write_latency_ms: Vec<f64>,
    /// Reads that reached their consistency level.
    pub reads: u64,
    /// Reads that could not assemble enough replica answers in time.
    pub reads_failed: u64,
    /// Reads that observed an older version than the newest acked write.
    pub stale_reads: u64,
    /// Writes acknowledged at their consistency level.
    pub writes_acked: u64,
    /// Writes that ran out of live replicas or time.
    pub writes_failed: u64,
    /// Hints buffered for suspected-dead replicas.
    pub hints_queued: u64,
    /// Hints dropped at [`HINT_QUEUE_CAP`].
    pub hints_dropped: u64,
    /// Hints a recovered replica acknowledged on replay.
    pub hints_replayed: u64,
    /// Reads whose replica answers disagreed on version.
    pub divergent_reads: u64,
    /// Repair writes sent to lagging replicas.
    pub read_repairs: u64,
    /// Busy-frame flow-control retries across all legs.
    pub busy_retries: u64,
    /// Span of the whole run, milliseconds.
    pub makespan_ms: f64,
    /// Every write the coordinator acknowledged: `(partition, version)`.
    /// The hinted-handoff oracle checks these against recovered stores.
    pub acked: Vec<(PartitionKey, u64)>,
    /// Acked writes no replica holds once every hint has replayed. Only
    /// [`simulate`] can audit this; the socket world leaves it at 0.
    pub lost_acked_writes: u64,
}

/// What a [`Command::Send`] asks a replica to do. A write request is
/// shared, unchanged, by its fan-out, retries, hints and read repairs, so
/// its `request_id` names the write that created it, not the leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Read the partition and report its version.
    Read(QueryRequest),
    /// Apply the write under LWW and acknowledge the resulting version.
    Write(Arc<WriteRequest>),
    /// Read the pre-image, then apply like [`Message::Write`].
    Rmw(Arc<WriteRequest>),
}

/// A replica's answer to one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reply {
    /// A write (or RMW) was decided: the partition's version afterwards.
    Ack(u64),
    /// A read answered with the partition's version.
    Read(u64),
    /// The replica's queue was full: back off and resend.
    Busy,
    /// The message's deadline passed before the replica served it.
    Expired,
    /// The replica could not serve the message (a failed durable read, an
    /// undecodable payload): the leg is missed.
    Unavailable,
}

/// What the coordinator asks the code running it to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Send `msg` to `node`, tagged `id`; replies carry the id back.
    Send {
        /// Destination replica.
        node: u32,
        /// Leg id: every resend of one operation reuses it.
        id: u64,
        /// What to send.
        msg: Message,
    },
    /// The operation (or the whole hint replay) finished; the next one may
    /// start.
    Done,
}

/// Where one replica's leg of the running operation stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Not sent: a read's spare replica, sent only on failover.
    Spare,
    /// Suspected at issue or went down mid-operation.
    Gone,
    /// Sent, awaiting the reply.
    InFlight,
    /// Refused with `Busy`; resend at the instant given.
    Backoff(SimTime),
    /// Answered: the read version, or a write acked at its version.
    Answered(u64),
    /// Answered without applying: `Expired`, `Unavailable`, or an ack
    /// below the version.
    Missed,
}

impl Leg {
    fn pending(self) -> bool {
        matches!(self, Leg::InFlight | Leg::Backoff(_))
    }
}

#[derive(Debug)]
enum Kind {
    Read {
        request: QueryRequest,
        /// Newest acked version when the read was issued: the staleness
        /// reference.
        acked_at_issue: u64,
    },
    Write {
        update: Arc<WriteRequest>,
        rmw: bool,
    },
    /// One hint replaying to `legs[0]`.
    Replay { update: Arc<WriteRequest> },
}

/// The one operation in flight (the coordinator is closed-loop).
#[derive(Debug)]
struct Op {
    id: u64,
    kind: Kind,
    need: usize,
    started: SimTime,
    deadline: SimTime,
    retried: bool,
    /// `(node, leg)` per replica, primary first.
    legs: Vec<(u32, Leg)>,
}

impl Op {
    fn message(&self) -> Message {
        match &self.kind {
            Kind::Read { request, .. } => Message::Read(request.clone()),
            Kind::Write { update, rmw: true } => Message::Rmw(Arc::clone(update)),
            Kind::Write { update, rmw: false } | Kind::Replay { update } => {
                Message::Write(Arc::clone(update))
            }
        }
    }

    fn count(&self, pred: impl Fn(Leg) -> bool) -> usize {
        self.legs.iter().filter(|(_, leg)| pred(*leg)).count()
    }
}

/// The replicated-write coordinator. See the module docs for the event
/// and command vocabulary. `Default` is an idle placeholder with zero
/// timeouts; a working coordinator comes from [`Coordinator::new`].
#[derive(Debug, Default)]
pub struct Coordinator {
    /// One round's wait before the retry round (writes) or failure.
    timeout: SimDuration,
    /// Wait after a `Busy` refusal before resending.
    backoff: SimDuration,
    next_id: u64,
    last_version: u64,
    /// Per-node bounded hint queues: writes the node missed while dark.
    hints: BTreeMap<u32, VecDeque<Arc<WriteRequest>>>,
    /// Newest acknowledged write per partition: the staleness reference
    /// and the read-repair source.
    acked: HashMap<PartitionKey, Arc<WriteRequest>>,
    op: Option<Op>,
    commands: VecDeque<Command>,
    out: MixedOutcome,
}

impl Coordinator {
    /// A coordinator that waits `timeout` per round and `backoff` after a
    /// `Busy` refusal.
    pub fn new(timeout: SimDuration, backoff: SimDuration) -> Self {
        Coordinator {
            timeout,
            backoff,
            ..Coordinator::default()
        }
    }

    /// Starts one operation at `now`. Replicas that `suspect` flags are
    /// not sent to: a write hints them, a read skips them.
    ///
    /// # Panics
    /// If an operation is still running.
    pub fn start(&mut self, now: SimTime, plan: &MixedPlan, suspect: impl Fn(u32) -> bool) {
        assert!(self.op.is_none(), "one operation at a time");
        let (route, request_id) = (&plan.route, self.fresh_id());
        let kind = match &plan.op {
            MixedOp::Read => Kind::Read {
                request: QueryRequest {
                    request_id,
                    partition: route.key.clone(),
                },
                acked_at_issue: self.acked.get(&route.key).map_or(0, |u| u.timestamp),
            },
            MixedOp::Write { cells } | MixedOp::Rmw { cells } => {
                // LWW draw: the clock, kept strictly monotone per
                // coordinator so two writes never share a version.
                let timestamp = now.as_nanos().max(self.last_version + 1);
                self.last_version = timestamp;
                Kind::Write {
                    update: Arc::new(WriteRequest {
                        request_id,
                        partition: route.key.clone(),
                        timestamp,
                        cells: cells.clone(),
                    }),
                    rmw: matches!(plan.op, MixedOp::Rmw { .. }),
                }
            }
        };
        let mut legs = Vec::with_capacity(route.replicas.len());
        for &node in &route.replicas {
            let leg = if suspect(node) { Leg::Gone } else { Leg::Spare };
            if let (Leg::Gone, Kind::Write { update, .. }) = (leg, &kind) {
                self.hint(node, Arc::clone(update)); // the write is not sent
            }
            legs.push((node, leg));
        }
        let need = plan.consistency.required(legs.len());
        self.launch(now, request_id, kind, need, legs);
    }

    /// Replays `node`'s hint queue one hint at a time, each a
    /// single-replica write. A hint the node does not acknowledge goes back
    /// on the queue and ends the replay.
    ///
    /// # Panics
    /// If an operation is still running.
    pub fn replay(&mut self, now: SimTime, node: u32) {
        assert!(self.op.is_none(), "one operation at a time");
        self.replay_next(now, node);
    }

    /// A replica answered leg `id`. Replies to finished operations (late
    /// acks, read-repair acks) are ignored.
    pub fn reply(&mut self, now: SimTime, node: u32, id: u64, reply: Reply) {
        let Some(mut op) = self.op.take_if(|op| op.id == id) else {
            return;
        };
        let threshold = match &op.kind {
            Kind::Read { .. } => None,
            Kind::Write { update, .. } | Kind::Replay { update } => Some(update.timestamp),
        };
        if let Some((_, leg)) = op.legs.iter_mut().find(|(n, l)| *n == node && l.pending()) {
            match (reply, threshold) {
                (Reply::Busy, _) if *leg == Leg::InFlight => {
                    self.out.busy_retries += 1;
                    *leg = Leg::Backoff(now + self.backoff);
                }
                (Reply::Expired | Reply::Unavailable, _) => *leg = Leg::Missed,
                (Reply::Read(version), None) => *leg = Leg::Answered(version),
                // The ack counts iff the replica provably holds data at
                // least as new as this write.
                (Reply::Ack(version), Some(v)) if version >= v => *leg = Leg::Answered(version),
                (Reply::Ack(_), Some(_)) => *leg = Leg::Missed,
                _ => {}
            }
        }
        self.settle(now, op);
    }

    /// `node`'s connection is gone: its pending legs fail over (reads) or
    /// are hinted (writes).
    pub fn down(&mut self, now: SimTime, node: u32) {
        let Some(mut op) = self.op.take() else {
            return;
        };
        for (n, leg) in &mut op.legs {
            if *n != node || !(leg.pending() || *leg == Leg::Spare) {
                continue;
            }
            if let (Kind::Write { update, .. }, true) = (&op.kind, leg.pending()) {
                self.hint(node, Arc::clone(update));
            }
            *leg = Leg::Gone;
        }
        self.settle(now, op);
    }

    /// Time passed: resend legs whose back-off ran out; at the round
    /// deadline, a write re-sends to its silent replicas once, and
    /// anything else fails.
    pub fn tick(&mut self, now: SimTime) {
        let Some(mut op) = self.op.take() else {
            return;
        };
        for i in 0..op.legs.len() {
            if matches!(op.legs[i].1, Leg::Backoff(due) if due <= now) {
                self.send(&mut op, i);
            }
        }
        if now >= op.deadline {
            if op.retried || matches!(op.kind, Kind::Read { .. }) {
                return self.finish(now, op, false);
            }
            op.retried = true;
            op.deadline = now + self.timeout;
            for i in 0..op.legs.len() {
                if op.legs[i].1.pending() {
                    self.send(&mut op, i);
                }
            }
        }
        self.settle(now, op);
    }

    /// The next command to carry out, if any.
    pub fn poll(&mut self) -> Option<Command> {
        self.commands.pop_front()
    }

    /// When [`Coordinator::tick`] is due next, if an operation is
    /// running.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let op = self.op.as_ref()?;
        let backoffs = op.legs.iter().filter_map(|(_, leg)| match leg {
            Leg::Backoff(due) => Some(*due),
            _ => None,
        });
        backoffs.chain([op.deadline]).min()
    }

    /// Whether a reply tagged `id` would reach the running operation —
    /// lets a socket loop skip decoding stray frames.
    pub fn awaits(&self, id: u64) -> bool {
        self.op.as_ref().is_some_and(|op| op.id == id)
    }

    /// Writes currently buffered for `node`.
    pub fn hinted_for(&self, node: u32) -> usize {
        self.hints.get(&node).map_or(0, VecDeque::len)
    }

    /// Takes the counters accumulated since the last call.
    pub fn take_outcome(&mut self) -> MixedOutcome {
        std::mem::take(&mut self.out)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        ID_BASE + self.next_id
    }

    fn launch(&mut self, now: SimTime, id: u64, kind: Kind, need: usize, legs: Vec<(u32, Leg)>) {
        let op = Op {
            id,
            kind,
            need,
            started: now,
            deadline: now + self.timeout,
            retried: false,
            legs,
        };
        self.settle(now, op);
    }

    fn hint(&mut self, node: u32, update: Arc<WriteRequest>) {
        let queue = self.hints.entry(node).or_default();
        if queue.len() >= HINT_QUEUE_CAP {
            self.out.hints_dropped += 1;
        } else {
            queue.push_back(update);
            self.out.hints_queued += 1;
        }
    }

    fn send(&mut self, op: &mut Op, leg: usize) {
        let node = op.legs[leg].0;
        op.legs[leg].1 = Leg::InFlight;
        self.commands.push_back(Command::Send {
            node,
            id: op.id,
            msg: op.message(),
        });
    }

    /// Tops a read up from its spares, then finishes the operation once
    /// enough replicas answered or nothing is left pending; otherwise it
    /// keeps running.
    fn settle(&mut self, now: SimTime, mut op: Op) {
        // A read keeps `need` legs alive; a write or replay sends to all.
        let want = match op.kind {
            Kind::Read { .. } => op.need,
            Kind::Write { .. } | Kind::Replay { .. } => op.legs.len(),
        };
        while op.count(|l| l.pending() || matches!(l, Leg::Answered(_))) < want {
            let Some(spare) = op.legs.iter().position(|(_, l)| *l == Leg::Spare) else {
                break;
            };
            self.send(&mut op, spare);
        }
        if op.count(|l| matches!(l, Leg::Answered(_))) >= op.need {
            self.finish(now, op, true);
        } else if op.count(Leg::pending) == 0 {
            self.finish(now, op, false);
        } else {
            self.op = Some(op);
        }
    }

    fn finish(&mut self, now: SimTime, op: Op, ok: bool) {
        let latency_ms = now.since(op.started).as_millis_f64();
        let node = op.legs.first().map_or(0, |l| l.0);
        match op.kind {
            Kind::Read { .. } if !ok => self.out.reads_failed += 1,
            Kind::Read {
                request,
                acked_at_issue,
            } => {
                self.out.reads += 1;
                self.out.read_latency_ms.push(latency_ms);
                let answers = || {
                    op.legs.iter().filter_map(|&(n, l)| match l {
                        Leg::Answered(v) => Some((n, v)),
                        _ => None,
                    })
                };
                let observed = answers().map(|a| a.1).max().unwrap_or(0);
                let oldest = answers().map(|a| a.1).min().unwrap_or(0);
                self.out.stale_reads += u64::from(observed < acked_at_issue);
                if observed != oldest {
                    self.out.divergent_reads += 1;
                    // Read repair: re-send the newest acked write (if this
                    // coordinator holds one at least as new as the winner)
                    // to every replica that answered older. Fire-and-forget:
                    // the repair's ack is a stray the next operation ignores.
                    let newest = self
                        .acked
                        .get(&request.partition)
                        .filter(|u| u.timestamp >= observed);
                    if let Some(newest) = newest.cloned() {
                        for (node, _) in answers().filter(|a| a.1 < observed) {
                            let id = self.fresh_id();
                            self.out.read_repairs += 1;
                            let msg = Message::Write(Arc::clone(&newest));
                            self.commands.push_back(Command::Send { node, id, msg });
                        }
                    }
                }
            }
            Kind::Write { update, .. } if ok => {
                self.out.writes_acked += 1;
                self.out.write_latency_ms.push(latency_ms);
                self.out
                    .acked
                    .push((update.partition.clone(), update.timestamp));
                match self.acked.get_mut(&update.partition) {
                    Some(newest) if newest.timestamp >= update.timestamp => {}
                    Some(newest) => *newest = update,
                    None => {
                        self.acked.insert(update.partition.clone(), update);
                    }
                }
            }
            Kind::Write { update, .. } => {
                self.out.writes_failed += 1;
                // Replicas that never acked may have missed the write; a
                // hint makes recovery converge and is idempotent if they
                // did apply it.
                for &(node, leg) in &op.legs {
                    if leg.pending() || leg == Leg::Missed {
                        self.hint(node, Arc::clone(&update));
                    }
                }
            }
            Kind::Replay { .. } if ok => {
                self.out.hints_replayed += 1;
                return self.replay_next(now, node);
            }
            Kind::Replay { update } => self.hints.entry(node).or_default().push_front(update),
        }
        self.commands.push_back(Command::Done);
    }

    fn replay_next(&mut self, now: SimTime, node: u32) {
        match self.hints.get_mut(&node).and_then(VecDeque::pop_front) {
            Some(update) => {
                let (id, legs) = (self.fresh_id(), vec![(node, Leg::Spare)]);
                self.launch(now, id, Kind::Replay { update }, 1, legs);
            }
            None => self.commands.push_back(Command::Done),
        }
    }
}

impl Machine for Coordinator {
    type Reply = Reply;

    fn reply(&mut self, now: SimTime, node: u32, id: u64, reply: Reply) {
        Coordinator::reply(self, now, node, id, reply);
    }

    fn down(&mut self, now: SimTime, node: u32) {
        Coordinator::down(self, now, node);
    }
}

/// The simulated network [`simulate`] drives the coordinator over.
#[derive(Debug, Clone)]
pub struct ReplicationSimConfig {
    /// Leg latency, the delay fault (on the coordinator→replica hop) and
    /// the dark windows.
    pub net: SimNetConfig,
    /// The coordinator's per-round timeout (ms), as the socket master's.
    pub timeout_ms: f64,
}

/// The seeded network plus the replicas' state.
struct World<'a> {
    net: SimNet<'a, Reply>,
    /// Dark windows not yet replayed, `(closes at, node)`, in closing order.
    closing: VecDeque<(SimTime, u32)>,
    log: ApplyLog,
}

/// Append-only apply log: `(node, partition)` → `(applied at, version)`.
/// A probe filters by time, so a version already visible stays on record
/// while a newer write is still in flight.
type ApplyLog = HashMap<(u32, PartitionKey), Vec<(SimTime, u64)>>;

/// The version `node` reports for `partition` at `t`: the newest applied
/// at or before `t` (LWW: strictly newer wins, ties keep the incumbent —
/// which is why hint replay is idempotent).
fn visible(log: &ApplyLog, node: u32, partition: &PartitionKey, t: SimTime) -> u64 {
    let applied = log.get(&(node, partition.clone())).into_iter().flatten();
    applied
        .filter(|(at, _)| *at <= t)
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0)
}

impl World<'_> {
    /// One leg: the replica applies (or reads) when the network serves it.
    fn send(&mut self, coord: &mut Coordinator, node: u32, id: u64, msg: Message) {
        let log = &mut self.log;
        self.net.send(coord, node, id, |_, applied| match msg {
            Message::Read(q) => Reply::Read(visible(log, node, &q.partition, applied)),
            Message::Write(u) | Message::Rmw(u) => {
                let entry = log.entry((node, u.partition.clone())).or_default();
                entry.push((applied, u.timestamp));
                Reply::Ack(visible(log, node, &u.partition, applied))
            }
        });
    }

    /// Runs the coordinator's current operation to [`Command::Done`],
    /// interleaving deliveries and ticks in time order.
    fn run_op(&mut self, coord: &mut Coordinator) {
        loop {
            while let Some(cmd) = coord.poll() {
                match cmd {
                    Command::Send { node, id, msg } => self.send(coord, node, id, msg),
                    Command::Done => return,
                }
            }
            let Some(due) = coord.next_deadline() else {
                return;
            };
            if !self.net.step(coord, due) {
                self.net.now = self.net.now.max(due);
                coord.tick(self.net.now);
            }
        }
    }

    /// Replays the hints of every window closed by `t`, each at its
    /// closing instant (or now, if later).
    fn replay_closed(&mut self, coord: &mut Coordinator, t: SimTime) {
        while let Some((until, node)) = self.closing.front().copied().filter(|w| w.0 <= t) {
            self.closing.pop_front();
            self.net.advance(coord, until);
            coord.replay(self.net.now, node);
            self.run_op(coord);
        }
    }
}

/// Runs `plans` through a [`Coordinator`] over the simulated network, with
/// `NetMaster::run_mixed`'s closed-loop sequencing: operation `i` starts at
/// `arrivals_ns[i]` or when operation `i - 1` finishes, whichever is
/// later (back-to-back when `arrivals_ns` is `None`). Once the plan ends,
/// every dark window closes and replays its hints, and the outcome's
/// `lost_acked_writes` audits each acked write against the apply log.
///
/// # Panics
/// If `arrivals_ns` is given with a different length than `plans`.
pub fn simulate(
    cfg: &ReplicationSimConfig,
    plans: &[MixedPlan],
    arrivals_ns: Option<&[u64]>,
) -> MixedOutcome {
    if let Some(a) = arrivals_ns {
        assert_eq!(a.len(), plans.len(), "one arrival offset per op");
    }
    // The simulated replicas never refuse with `Busy`, so the back-off
    // is never armed.
    let timeout = SimDuration::from_millis_f64(cfg.timeout_ms);
    let mut coord = Coordinator::new(timeout, SimDuration::ZERO);
    let mut closing: Vec<(SimTime, u32)> = cfg
        .net
        .down
        .iter()
        .map(|w| (at_ms(w.until_ms), w.node))
        .collect();
    closing.sort();
    let mut world = World {
        net: SimNet::new(&cfg.net, 0x5EED_4E90),
        closing: closing.into(),
        log: HashMap::new(),
    };
    for (i, plan) in plans.iter().enumerate() {
        let due = arrivals_ns.map_or(world.net.now, |a| SimTime::from_nanos(a[i]));
        world.replay_closed(&mut coord, due);
        world.net.advance(&mut coord, due);
        let now = world.net.now;
        coord.start(now, plan, |n| world.net.dark(n, now));
        world.run_op(&mut coord);
    }
    world.replay_closed(&mut coord, SimTime::MAX);

    let mut out = coord.take_outcome();
    out.makespan_ms = world.net.now.as_millis_f64();
    let replicas: HashMap<&PartitionKey, &[u32]> = plans
        .iter()
        .map(|p| (&p.route.key, &p.route.replicas[..]))
        .collect();
    let held = |pk: &PartitionKey, v: u64| {
        let rs = replicas.get(pk).copied().unwrap_or_default();
        rs.iter()
            .any(|&n| visible(&world.log, n, pk, SimTime::MAX) >= v)
    };
    out.lost_acked_writes = out.acked.iter().filter(|(pk, v)| !held(pk, *v)).count() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::{DelayFault, FaultWindow};

    /// `partition` on all three nodes, primary `partition % 3`.
    fn plan(partition: u64, op: MixedOp, consistency: Consistency) -> MixedPlan {
        let replicas = (0..3).map(|k| ((partition + k) % 3) as u32).collect();
        let route = Route {
            key: PartitionKey::from_id(partition),
            replicas,
        };
        MixedPlan {
            route,
            op,
            consistency,
        }
    }

    fn write(partition: u64, cl: Consistency) -> MixedPlan {
        let cells = vec![Cell::new(partition, 1, vec![0xAB; 4])];
        plan(partition, MixedOp::Write { cells }, cl)
    }

    fn read(partition: u64, cl: Consistency) -> MixedPlan {
        plan(partition, MixedOp::Read, cl)
    }

    /// `n` rounds of a write then a read, over `partitions` partitions.
    fn write_then_read(n: u64, partitions: u64, w: Consistency, r: Consistency) -> Vec<MixedPlan> {
        let round = |i| [write(i % partitions, w), read(i % partitions, r)];
        (0..n).flat_map(round).collect()
    }

    fn cfg(delay: Option<(f64, f64)>, dark_until_ms: Option<f64>) -> ReplicationSimConfig {
        ReplicationSimConfig {
            net: SimNetConfig {
                seed: 7,
                leg_latency_ms: vec![1.0, 1.2, 1.5, 2.0],
                delay: delay.map(|(probability, extra_ms)| DelayFault {
                    probability,
                    extra_ms,
                    node: None,
                }),
                // Node 2 dark from the start.
                down: Vec::from_iter(dark_until_ms.map(|until_ms| FaultWindow {
                    node: 2,
                    from_ms: 0.0,
                    until_ms,
                })),
            },
            timeout_ms: 250.0,
        }
    }

    /// Runs `plans` with arrivals every `gap_ms`.
    fn sim(cfg: &ReplicationSimConfig, plans: &[MixedPlan], gap_ms: f64) -> MixedOutcome {
        let arrivals: Vec<u64> = (0..plans.len())
            .map(|i| (i as f64 * gap_ms * 1e6) as u64)
            .collect();
        let out = simulate(cfg, plans, Some(&arrivals));
        assert_eq!((out.reads_failed, out.busy_retries), (0, 0), "{out:?}");
        out
    }

    #[test]
    fn required_acks_per_level() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(2), 2);
        assert_eq!(Consistency::All.required(3), 3);
        assert_eq!(Consistency::All.required(1), 1);
    }

    #[test]
    fn quorum_overlap_is_never_stale() {
        // R + W > N: a quorum read always intersects the last quorum
        // write, so staleness is exactly zero.
        let q = Consistency::Quorum;
        let out = sim(&cfg(None, None), &write_then_read(100, 8, q, q), 5.0);
        assert_eq!(out.stale_reads, 0, "{out:?}");
        assert_eq!((out.writes_acked, out.writes_failed), (100, 0));
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn one_reads_can_be_stale_under_delay() {
        // A ONE write acks on the fastest replica while a delayed primary
        // has not applied yet; the next ONE read asks the primary.
        let one = Consistency::One;
        let out = sim(
            &cfg(Some((0.3, 50.0)), None),
            &write_then_read(300, 4, one, one),
            2.0,
        );
        assert!(out.stale_reads > 0, "{out:?}");
    }

    #[test]
    fn dark_replica_hints_queue_and_replay() {
        // Partition 1 at rf = 3 includes node 2: every write hints it, and
        // every hint replays when the window closes.
        let plans = vec![write(1, Consistency::Quorum); 50];
        let out = sim(&cfg(None, Some(500.0)), &plans, 1.0);
        assert_eq!((out.hints_queued, out.hints_replayed), (50, 50), "{out:?}");
        assert_eq!(out.writes_acked, 50);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn hint_queue_bound_drops_overflow() {
        let plans = vec![write(1, Consistency::Quorum); HINT_QUEUE_CAP + 1];
        let out = sim(&cfg(None, Some(60_000.0)), &plans, 0.0);
        let cap = HINT_QUEUE_CAP as u64;
        assert_eq!((out.hints_queued, out.hints_dropped), (cap, 1));
        assert_eq!(out.hints_replayed, cap);
        // QUORUM still acked through the two live replicas, so nothing
        // acknowledged is lost even though hints overflowed.
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn all_writes_fail_when_a_replica_is_dark() {
        let plans = vec![write(1, Consistency::All); 10];
        let out = sim(&cfg(None, Some(500.0)), &plans, 1.0);
        assert_eq!((out.writes_acked, out.writes_failed), (0, 10));
    }

    #[test]
    fn divergence_triggers_read_repair() {
        let plans = write_then_read(200, 1, Consistency::One, Consistency::Quorum);
        let out = sim(&cfg(Some((0.5, 100.0)), None), &plans, 3.0);
        assert!(out.divergent_reads > 0, "{out:?}");
        assert!(out.read_repairs >= out.divergent_reads);
    }

    #[test]
    fn rmw_costs_one_round_like_a_write() {
        let writes = vec![write(1, Consistency::All); 100];
        let rmw = MixedOp::Rmw { cells: Vec::new() };
        let rmws = vec![plan(1, rmw, Consistency::All); 100];
        let (w, r) = (
            sim(&cfg(None, None), &writes, 10.0),
            sim(&cfg(None, None), &rmws, 10.0),
        );
        assert_eq!(r.writes_acked, 100);
        assert_eq!(r.write_latency_ms, w.write_latency_ms);
    }

    #[test]
    fn same_seed_replays_identically() {
        // Delay, a dark window and hint overflow in one schedule: node 2
        // misses more writes than its queue holds.
        let mut cfg = cfg(Some((0.2, 20.0)), None);
        cfg.net.down = vec![FaultWindow {
            node: 2,
            from_ms: 50.0,
            until_ms: 60_000.0,
        }];
        let plans: Vec<MixedPlan> = (0..1_500u64)
            .map(|i| match i % 5 {
                0 => read(i % 16, Consistency::Quorum),
                1 => plan(i % 16, MixedOp::Rmw { cells: Vec::new() }, Consistency::One),
                _ => write(i % 16, Consistency::Quorum),
            })
            .collect();
        let (a, b) = (sim(&cfg, &plans, 1.0), sim(&cfg, &plans, 1.0));
        assert!(a.hints_dropped > 0 && a.hints_replayed > 0, "{a:?}");
        assert_eq!(a.lost_acked_writes, 0);
        assert_eq!(a, b);
    }

    /// A coordinator that acked one QUORUM write while node 2 was
    /// suspected, so node 2 holds one hint at the returned version.
    fn hinted() -> (Coordinator, u64) {
        let mut c = Coordinator::new(SimDuration::from_millis(100), SimDuration::from_millis(1));
        c.start(SimTime::ZERO, &write(1, Consistency::Quorum), |n| n == 2);
        let version = c.last_version;
        while let Some(Command::Send { node, id, .. }) = c.poll() {
            c.reply(SimTime::ZERO, node, id, Reply::Ack(version));
        }
        assert_eq!(c.hinted_for(2), 1);
        (c, version)
    }

    fn expect_send(c: &mut Coordinator, to: u32) -> u64 {
        match c.poll() {
            Some(Command::Send { node, id, .. }) if node == to => id,
            other => panic!("expected a send to {to}, got {other:?}"),
        }
    }

    #[test]
    fn hint_replay_backs_off_on_busy_then_replays() {
        let (mut c, version) = hinted();
        let t = SimTime::from_nanos(1_000_000_000);
        c.replay(t, 2);
        let id = expect_send(&mut c, 2);
        c.reply(t, 2, id, Reply::Busy);
        assert_eq!(c.poll(), None, "a Busy leg waits out its back-off");
        let due = c.next_deadline().unwrap();
        c.tick(due);
        assert_eq!(expect_send(&mut c, 2), id, "the resend reuses the leg id");
        c.reply(due, 2, id, Reply::Ack(version));
        assert_eq!(c.poll(), Some(Command::Done));
        assert_eq!(c.hinted_for(2), 0);
        let out = c.take_outcome();
        assert_eq!((out.hints_replayed, out.busy_retries), (1, 1));
    }

    #[test]
    fn hint_replay_timeout_leaves_the_hint_queued() {
        let (mut c, _) = hinted();
        c.replay(SimTime::from_nanos(1_000_000_000), 2);
        expect_send(&mut c, 2);
        c.tick(c.next_deadline().unwrap());
        expect_send(&mut c, 2); // the one retry round
        c.tick(c.next_deadline().unwrap());
        assert_eq!(c.poll(), Some(Command::Done));
        assert_eq!(c.hinted_for(2), 1, "an unacknowledged hint stays queued");
        assert_eq!(c.take_outcome().hints_replayed, 0);
    }

    #[test]
    fn a_duplicate_ack_counts_once() {
        let mut c = Coordinator::new(SimDuration::from_millis(100), SimDuration::from_millis(1));
        c.start(SimTime::ZERO, &write(0, Consistency::All), |_| false);
        let (id, version) = (expect_send(&mut c, 0), c.last_version);
        for node in [0, 0, 1] {
            c.reply(SimTime::ZERO, node, id, Reply::Ack(version));
        }
        assert!(c.awaits(id), "two distinct replicas are not ALL of three");
        c.reply(SimTime::ZERO, 2, id, Reply::Ack(version));
        assert_eq!(c.take_outcome().writes_acked, 1);
    }
}
