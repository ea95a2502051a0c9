//! The network master: a connection pool over every slave and the
//! socket driver of the paper's "fire all requests, then drain responses"
//! query loop.
//!
//! Every read-path decision — replica pick, retries, `Busy` back-off,
//! failover, hedging, deadlines, strict vs degraded misses, and the
//! four-stage trace — belongs to [`kvs_cluster::ReadCoordinator`], the
//! clock-free state machine `kvs_cluster::read_path::simulate` drives on
//! simulated time too. This module carries it onto the wire: one TCP
//! connection per slave, a reader thread per connection funneling frames
//! into one channel, and [`NetMaster::run_with_arrivals`], a loop that
//! releases due arrivals, frames and writes each `Send`, turns frames into
//! replies and dropped connections or failed writes into `down` events,
//! and sleeps on the channel until the coordinator's next timer. Time is
//! the host's wall clock ([`crate::clock::now`]), so the frame stamps and
//! the coordinator's timers share one timeline.

#![deny(clippy::wildcard_enum_match_arm)]

use crate::clock::{now, wall_ns};
use crate::frame::{Frame, FrameKind, FLAG_COMPACT};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use kvs_cluster::read_path::{Command, Reply};
use kvs_cluster::{CodecKind, QueryRequest, ReadCoordinator};
use kvs_simcore::SimTime;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use kvs_cluster::data::Route;
pub use kvs_cluster::read_path::{
    HedgeConfig, MissedPartition, NetConfig, NetRunReport, QueryMode,
};

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

/// A connected master.
pub struct NetMaster {
    pub(crate) writers: Vec<Option<TcpStream>>,
    pub(crate) rx: Receiver<Event>,
    /// Producer half of the event channel, kept so a reconnect
    /// ([`NetMaster::reconnect`]) can spawn a fresh reader thread.
    pub(crate) tx: Sender<Event>,
    readers: Vec<JoinHandle<()>>,
    pub(crate) cfg: NetConfig,
    /// The read coordinator. Its per-node health table (phi, latency,
    /// verdicts) persists across queries, and the write path reads it.
    pub(crate) reads: ReadCoordinator,
    /// Monotone per-master send sequence, stamped into request frames
    /// (`stamps[2]`) so interposers and tests can assert ordering.
    pub(crate) send_seq: u64,
    /// The replicated-write coordinator: hint queues and per-partition
    /// acked writes outlive a run (see `crate::write_path`).
    pub(crate) coord: kvs_cluster::Coordinator,
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
            reads: ReadCoordinator::new(&cfg, addrs.len()),
            send_seq: 0,
            coord: crate::write_path::coordinator_for(&cfg),
            cfg,
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
        self.reads.revive(node);
        Ok(())
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
    ///
    /// Issue and collect interleave in one loop: a paced run keeps
    /// draining responses and firing the coordinator's timers *between*
    /// arrivals, so no timer goes overdue while requests are released.
    pub fn run_with_arrivals(
        &mut self,
        routes: &[Route],
        arrivals_ns: Option<&[u64]>,
    ) -> io::Result<NetRunReport> {
        if let Some(a) = arrivals_ns {
            assert_eq!(a.len(), routes.len(), "one arrival offset per route");
        }
        let origin = Instant::now();
        let mut wire = Wire {
            origin_wall: wall_ns(),
            arrivals_ns,
            payloads: Vec::with_capacity(routes.len()),
            bytes_to_slaves: 0,
        };
        let (mut tx, mut rx, mut crc_disconnects) = (Duration::ZERO, Duration::ZERO, 0);
        let mut send_last = origin;
        self.reads.begin(now(), routes.len());
        let mut done = self.pump(&mut wire);
        while !done {
            // Release every route whose arrival time has come.
            while !done && wire.payloads.len() < routes.len() {
                let i = wire.payloads.len();
                if origin.elapsed() < Duration::from_nanos(wire.offset(i)) {
                    break;
                }
                let t0 = Instant::now();
                let route = &routes[i];
                let request = QueryRequest {
                    request_id: i as u64,
                    partition: route.key.clone(),
                };
                wire.payloads.push(self.cfg.codec.encode_request(&request));
                let arrived = SimTime::from_nanos(wire.issued(i));
                self.reads.issue(now(), i as u64, route, arrived);
                done = self.pump(&mut wire);
                tx += t0.elapsed();
                send_last = Instant::now();
            }
            if done {
                break;
            }
            // Wait for a frame, the next arrival, or the next timer.
            let next_arrival = (wire.payloads.len() < routes.len())
                .then(|| SimTime::from_nanos(wire.issued(wire.payloads.len())));
            let wake = self
                .reads
                .next_deadline()
                .into_iter()
                .chain(next_arrival)
                .min();
            let left = wake.map_or(Duration::ZERO, |t| {
                Duration::from_nanos(t.since(now()).as_nanos())
            });
            // The master holds a sender, so the channel never disconnects:
            // an error here is the timeout.
            if let Ok(event) = self.rx.recv_timeout(left.max(Duration::from_micros(100))) {
                match event {
                    Event::Frame(node, frame) => rx += self.on_frame(node, frame),
                    Event::Down(node, reason) => {
                        crc_disconnects += u64::from(reason == DownReason::Corrupt);
                        self.mark_dead(node);
                    }
                }
            }
            let t0 = Instant::now();
            self.reads.tick(now());
            done = self.pump(&mut wire);
            tx += t0.elapsed();
        }
        let mut report = self.reads.finish(routes)?;
        report.tx_micros = tx.as_micros() as u64;
        report.rx_micros = rx.as_micros() as u64;
        report.crc_disconnects = crc_disconnects;
        report.result.bytes_to_slaves = wire.bytes_to_slaves;
        report.result.issue_span = kvs_simcore::SimDuration::from_nanos(
            send_last.saturating_duration_since(origin).as_nanos() as u64,
        );
        Ok(report)
    }

    /// Carries out the read coordinator's commands: frames and writes each
    /// `Send` (a failed write takes the node down, which the coordinator
    /// answers with failovers, sent in the same pass). Returns `true` once
    /// the coordinator is `Done`.
    fn pump(&mut self, wire: &mut Wire) -> bool {
        while let Some(cmd) = self.reads.poll() {
            let (node, id) = match cmd {
                Command::Send { node, id } => (node, id),
                Command::Done => return true,
            };
            let issued = wire.issued(id as usize);
            // Every send of one request carries the same absolute deadline.
            let deadline = self
                .cfg
                .query_deadline
                .map_or(0, |b| issued + b.as_nanos() as u64);
            let payload = wire.payloads[id as usize].clone();
            let bytes = payload.len() as u64;
            match self.send_frame(node, FrameKind::Request, id, issued, deadline, payload) {
                Ok(()) => wire.bytes_to_slaves += bytes,
                Err(_) => self.mark_dead(node),
            }
        }
        false
    }

    /// Frames and writes one master → slave message under the request
    /// stamp convention: issue, send, send-sequence, and a slave-owned 0.
    /// `deadline` is the message's own: a resend must pass the same
    /// value, never mint a fresh one (KVS-L016).
    pub(crate) fn send_frame(
        &mut self,
        node: u32,
        kind: FrameKind,
        id: u64,
        issued: u64,
        deadline: u64,
        payload: Bytes,
    ) -> io::Result<()> {
        let flags = match self.cfg.codec.kind {
            CodecKind::Compact => FLAG_COMPACT,
            CodecKind::Verbose => 0,
        };
        let seq = self.send_seq;
        self.send_seq += 1;
        let frame = Frame {
            kind,
            flags,
            id,
            stamps: [issued, wall_ns(), seq, 0],
            deadline,
            payload,
        };
        self.write_frame(node, &frame)
    }

    /// Turns one frame into a coordinator reply; returns the decode time.
    /// Frames for requests no longer pending (a raced retry, a lost hedge,
    /// a write-path ack) skip the decode but still prove the node alive.
    fn on_frame(&mut self, node: u32, frame: Frame) -> Duration {
        let id = frame.id;
        if !self.reads.awaits(id) {
            self.reads.note_alive(now(), node);
            return Duration::ZERO;
        }
        let t0 = Instant::now();
        let reply = match frame.kind {
            FrameKind::Response => {
                let [sent, dequeued, db_end, _] = frame.stamps.map(SimTime::from_nanos);
                let bytes = frame.payload.len() as u64;
                match self.cfg.codec.decode_response(frame.payload) {
                    Some(answer) => Reply::Response {
                        answer,
                        bytes,
                        stamps: [sent, dequeued, db_end],
                    },
                    // Checksummed but undecodable: this replica cannot
                    // answer, so fail over instead of waiting out the
                    // timeout.
                    None => Reply::Unavailable,
                }
            }
            FrameKind::Busy => Reply::Busy,
            FrameKind::Expired => Reply::Expired,
            FrameKind::Unavailable => Reply::Unavailable,
            // Protocol violations (a slave never sends these to a read).
            FrameKind::Request | FrameKind::Write | FrameKind::WriteAck | FrameKind::Rmw => {
                self.reads.note_alive(now(), node);
                return Duration::ZERO;
            }
        };
        let spent = t0.elapsed();
        self.reads.reply(now(), node, id, reply);
        spent
    }

    /// Marks a node hard-dead — the coordinators stop sending to it and
    /// fail its in-flight reads over — and drops its write half so no
    /// further frames go to it.
    pub(crate) fn mark_dead(&mut self, node: u32) {
        self.reads.down(now(), node);
        if let Some(slot) = self.writers.get_mut(node as usize) {
            if let Some(w) = slot.take() {
                crate::ioutil::best_effort(
                    "close dead node connection",
                    w.shutdown(Shutdown::Both),
                );
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

/// The socket driver's per-run wire state.
struct Wire<'a> {
    origin_wall: u64,
    arrivals_ns: Option<&'a [u64]>,
    /// Encoded request per released route; every resend reuses it.
    payloads: Vec<Bytes>,
    bytes_to_slaves: u64,
}

impl Wire<'_> {
    /// Request `i`'s arrival offset from the run start, ns.
    fn offset(&self, i: usize) -> u64 {
        self.arrivals_ns.map_or(0, |a| a[i])
    }

    /// Request `i`'s wall-clock issue instant.
    fn issued(&self, i: usize) -> u64 {
        self.origin_wall + self.offset(i)
    }
}
