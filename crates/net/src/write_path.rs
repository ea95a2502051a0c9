//! The replicated write path over sockets.
//!
//! Every decision belongs to [`kvs_cluster::Coordinator`], the clock-free
//! state machine the simulator drives too. This module carries it onto
//! the wire: it encodes each [`Command::Send`] once per leg id, frames it
//! with the request stamp convention and the leg's deadline, and pumps
//! [`NetMaster`]'s event channel in one dispatch loop — frames become
//! typed [`Reply`] events, `Down` events and failed writes mark the node
//! dead, timeouts become ticks. Time is the host's wall clock
//! ([`wall_ns`]), so LWW versions order writes across masters. The
//! coordinator is closed-loop per operation, so write throughput is
//! 1/latency.

use crate::clock::{now, wall_ns};
use crate::frame::{Frame, FrameKind};
use crate::master::{Event, NetConfig, NetMaster};
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use kvs_cluster::replication::{Command, Message, Reply};
use kvs_cluster::{Coordinator, MixedOutcome, MixedPlan};
use kvs_simcore::SimDuration;
use std::io;
use std::time::{Duration, Instant};

/// Carries no settings: consistency is per operation and the hint bound is
/// [`kvs_cluster::replication::HINT_QUEUE_CAP`]. The type stays only
/// because the benchmark harness under `perfbench/` names
/// it in [`NetMaster::run_mixed`]'s signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {}

/// One encoded leg message: every resend of a leg id reuses its payload
/// and its deadline (KVS-L016), so an operation is encoded once.
struct Encoded {
    id: u64,
    kind: FrameKind,
    payload: Bytes,
    deadline: u64,
}

/// The coordinator a master with `cfg` drives.
pub(crate) fn coordinator_for(cfg: &NetConfig) -> Coordinator {
    let nanos = |d: Duration| SimDuration::from_nanos(d.as_nanos() as u64);
    Coordinator::new(nanos(cfg.timeout), nanos(cfg.busy_backoff))
}

impl NetMaster {
    /// Runs a mixed read/write plan through the replicated write path.
    /// `arrivals_ns[i]`, when given, paces operation `i` to start that
    /// many nanoseconds after the run begins (open loop); `None` runs the
    /// plan back-to-back (closed loop).
    pub fn run_mixed(
        &mut self,
        plans: &[MixedPlan],
        arrivals_ns: Option<&[u64]>,
        _options: &WriteOptions,
    ) -> io::Result<MixedOutcome> {
        if let Some(a) = arrivals_ns {
            assert_eq!(a.len(), plans.len(), "one arrival offset per op");
        }
        let origin = Instant::now();
        let mut coord = std::mem::take(&mut self.coord);
        for (i, plan) in plans.iter().enumerate() {
            if let Some(arrivals) = arrivals_ns {
                let due = Duration::from_nanos(arrivals[i]);
                let elapsed = origin.elapsed();
                if elapsed < due {
                    std::thread::sleep(due - elapsed);
                }
            }
            coord.start(now(), plan, |node| self.reads.hard_suspect(node));
            self.drive(&mut coord);
        }
        let mut out = coord.take_outcome();
        self.coord = coord;
        out.makespan_ms = origin.elapsed().as_secs_f64() * 1e3;
        Ok(out)
    }

    /// Writes currently buffered for `node` (whichever run queued them).
    pub fn hinted_for(&self, node: u32) -> usize {
        self.coord.hinted_for(node)
    }

    /// Replays every hint buffered for `node` through its (re-established)
    /// connection, one at a time, with the same `Busy` back-off and retry
    /// round as any write. Returns how many hints the node acknowledged;
    /// the first hint it does not acknowledge stays queued, with the rest,
    /// for the next recovery. Call after [`NetMaster::reconnect`]; replay
    /// is idempotent on the replica because LWW ties keep the incumbent.
    pub fn replay_hints(&mut self, node: u32) -> io::Result<u64> {
        let mut coord = std::mem::take(&mut self.coord);
        coord.replay(now(), node);
        self.drive(&mut coord);
        let replayed = coord.take_outcome().hints_replayed;
        self.coord = coord;
        Ok(replayed)
    }

    /// Runs the coordinator's current operation to [`Command::Done`]: the
    /// write path's single event dispatch.
    fn drive(&mut self, coord: &mut Coordinator) {
        let mut encoded: Option<Encoded> = None;
        loop {
            while let Some(cmd) = coord.poll() {
                match cmd {
                    Command::Send { node, id, msg } => {
                        if self.send_leg(node, id, msg, &mut encoded).is_err() {
                            self.mark_dead(node);
                            coord.down(now(), node);
                        }
                    }
                    Command::Done => return,
                }
            }
            let Some(deadline) = coord.next_deadline() else {
                return;
            };
            let left = deadline.since(now());
            if left.is_zero() {
                coord.tick(now());
                continue;
            }
            match self.rx.recv_timeout(Duration::from_nanos(left.as_nanos())) {
                Ok(Event::Frame(node, frame)) => {
                    self.reads.note_alive(now(), node);
                    // Skip stray frames (earlier legs, repair acks, the
                    // read path) before paying for a decode.
                    if coord.awaits(frame.id) {
                        let id = frame.id;
                        if let Some(reply) = self.decode_reply(frame) {
                            coord.reply(now(), node, id, reply);
                        }
                    }
                }
                Ok(Event::Down(node, _reason)) => {
                    self.mark_dead(node);
                    coord.down(now(), node);
                }
                // The master holds a sender, so the channel never
                // disconnects; either way the deadline has come.
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    coord.tick(now());
                }
            }
        }
    }

    /// The coordinator's view of a reply frame; a checksummed but
    /// undecodable body reads as `Unavailable` (a missed leg).
    fn decode_reply(&self, frame: Frame) -> Option<Reply> {
        let codec = &self.cfg.codec;
        match frame.kind {
            FrameKind::WriteAck => Some(
                codec
                    .decode_write_ack(frame.payload)
                    .map_or(Reply::Unavailable, |ack| Reply::Ack(ack.version)),
            ),
            FrameKind::Response => Some(
                codec
                    .decode_response(frame.payload)
                    .map_or(Reply::Unavailable, |resp| Reply::Read(resp.version)),
            ),
            FrameKind::Busy => Some(Reply::Busy),
            FrameKind::Expired => Some(Reply::Expired),
            FrameKind::Unavailable => Some(Reply::Unavailable),
            FrameKind::Request | FrameKind::Write | FrameKind::Rmw => None,
        }
    }

    /// Encodes `msg` (once per leg id) and writes it to `node`.
    fn send_leg(
        &mut self,
        node: u32,
        id: u64,
        msg: Message,
        encoded: &mut Option<Encoded>,
    ) -> io::Result<()> {
        let leg = match encoded.take() {
            Some(leg) if leg.id == id => leg,
            _ => {
                let codec = &self.cfg.codec;
                let (kind, payload) = match msg {
                    Message::Read(q) => (FrameKind::Request, codec.encode_request(&q)),
                    Message::Write(w) => (FrameKind::Write, codec.encode_write(&w)),
                    Message::Rmw(w) => (FrameKind::Rmw, codec.encode_write(&w)),
                };
                let deadline = self.leg_deadline();
                Encoded {
                    id,
                    kind,
                    payload,
                    deadline,
                }
            }
        };
        let sent = self.send_frame(
            node,
            leg.kind,
            id,
            wall_ns(),
            leg.deadline,
            leg.payload.clone(),
        );
        *encoded = Some(leg);
        sent
    }

    /// Wall-clock deadline for one leg: now plus two timeout rounds, so
    /// every retransmit of the same operation shares the leg's budget.
    fn leg_deadline(&self) -> u64 {
        wall_ns().saturating_add(2 * self.cfg.timeout.as_nanos() as u64)
    }
}
