//! The seeded network both coordinators run on in simulation.
//!
//! [`SimNet`] carries a coordinator's sends to simulated replicas and
//! their replies back: each leg's round trip is resampled from an
//! empirical latency pool (a healthy calibration run), an optional
//! [`DelayFault`] adds extra delay to some legs, and [`FaultWindow`]s make
//! a replica dark — a send to it fails at once like a closed socket, and
//! a message or reply landing inside the window is lost. What a replica
//! answers is the caller's business (a `serve` closure), so the write
//! path's apply log and the read path's table lookups share one network
//! model without it knowing which coordinator it serves.

use kvs_simcore::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A replica that is dark for a window of simulated time: sends to it
/// fail, and (on the write path) its hints replay when the window closes.
#[derive(Debug, Clone)]
pub struct FaultWindow {
    /// The dark node.
    pub node: u32,
    /// Window start, inclusive (ms).
    pub from_ms: f64,
    /// Window end, exclusive (ms); hints replay at this instant.
    pub until_ms: f64,
}

/// Random per-leg extra delay, the sim twin of a chaos `delay` rule.
#[derive(Debug, Clone, Copy)]
pub struct DelayFault {
    /// Probability a leg is delayed.
    pub probability: f64,
    /// The extra latency a delayed leg pays (ms).
    pub extra_ms: f64,
    /// Only legs to this node are delayed (a straggling replica); `None`
    /// delays legs to every node.
    pub node: Option<u32>,
}

/// The simulated network's shape, shared by both coordinators' sims.
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// Seed for every random draw in the run.
    pub seed: u64,
    /// Empirical one-leg round-trip samples (ms), resampled per leg.
    pub leg_latency_ms: Vec<f64>,
    /// Optional random delay fault.
    pub delay: Option<DelayFault>,
    /// Dark-replica windows.
    pub down: Vec<FaultWindow>,
}

/// A coordinator as the network sees it: replies and lost connections.
pub(crate) trait Machine {
    /// What a replica answers.
    type Reply;
    /// A replica answered message `id`.
    fn reply(&mut self, now: SimTime, node: u32, id: u64, reply: Self::Reply);
    /// `node`'s connection is gone.
    fn down(&mut self, now: SimTime, node: u32);
}

enum Delivery<R> {
    Reply(u32, u64, R),
    Down(u32),
}

pub(crate) fn at_ms(ms: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis_f64(ms)
}

/// The network: a clock, a seeded RNG and an inbox of deliveries keyed
/// by delivery time, then enqueue order.
pub(crate) struct SimNet<'a, R> {
    cfg: &'a SimNetConfig,
    rng: StdRng,
    pub(crate) now: SimTime,
    seq: u64,
    inbox: BTreeMap<(SimTime, u64), Delivery<R>>,
}

impl<'a, R> SimNet<'a, R> {
    /// A network at time zero whose RNG is `cfg.seed ^ salt`; every dark
    /// window delivers a `down` at its start.
    pub(crate) fn new(cfg: &'a SimNetConfig, salt: u64) -> Self {
        let mut net = SimNet {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed ^ salt),
            now: SimTime::ZERO,
            seq: 0,
            inbox: BTreeMap::new(),
        };
        for w in &cfg.down {
            net.deliver_at(at_ms(w.from_ms), Delivery::Down(w.node));
        }
        net
    }

    pub(crate) fn dark(&self, node: u32, t: SimTime) -> bool {
        let dark = |w: &FaultWindow| at_ms(w.from_ms) <= t && t < at_ms(w.until_ms);
        self.cfg.down.iter().any(|w| w.node == node && dark(w))
    }

    fn deliver_at(&mut self, t: SimTime, what: Delivery<R>) {
        self.seq += 1;
        self.inbox.insert((t, self.seq), what);
    }

    /// One leg: the replica serves at half the sampled round trip plus any
    /// injected delay — `serve(sent, served)` computes its answer — and
    /// the reply lands after the whole of it. A dark replica fails the
    /// send at once, like a closed socket; a message or reply landing
    /// inside a dark window is lost.
    pub(crate) fn send<M: Machine<Reply = R>>(
        &mut self,
        m: &mut M,
        node: u32,
        id: u64,
        serve: impl FnOnce(SimTime, SimTime) -> R,
    ) {
        if self.dark(node, self.now) {
            return m.down(self.now, node);
        }
        let samples = &self.cfg.leg_latency_ms;
        let base = match samples.len() {
            0 => 1.0,
            n => samples[self.rng.gen_range(0..n)],
        };
        let extra = match self.cfg.delay {
            Some(d)
                if d.node.is_none_or(|n| n == node)
                    && self.rng.gen_bool(d.probability.clamp(0.0, 1.0)) =>
            {
                d.extra_ms
            }
            _ => 0.0,
        };
        let served = self.now + SimDuration::from_millis_f64(base / 2.0 + extra);
        let answered = self.now + SimDuration::from_millis_f64(base + extra);
        if self.dark(node, served) {
            return;
        }
        let reply = serve(self.now, served);
        if !self.dark(node, answered) {
            self.deliver_at(answered, Delivery::Reply(node, id, reply));
        }
    }

    /// Delivers the earliest inbox entry at or before `t`, if any.
    pub(crate) fn step<M: Machine<Reply = R>>(&mut self, m: &mut M, t: SimTime) -> bool {
        let Some(entry) = self.inbox.first_entry().filter(|e| e.key().0 <= t) else {
            return false;
        };
        let ((at, _), what) = entry.remove_entry();
        self.now = self.now.max(at);
        match what {
            Delivery::Reply(node, id, reply) => m.reply(self.now, node, id, reply),
            Delivery::Down(node) => m.down(self.now, node),
        }
        true
    }

    /// Delivers everything due by `t`, then moves the clock to `t`.
    pub(crate) fn advance<M: Machine<Reply = R>>(&mut self, m: &mut M, t: SimTime) {
        while self.step(m, t) {}
        self.now = self.now.max(t);
    }
}
