#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used
    )
)]

//! # kvs-cluster
//!
//! The distributed prototype of the paper (§V): a master/slave aggregation
//! engine over a DHT-partitioned wide-column store, runnable in two modes:
//!
//! * [`sim`] — a deterministic discrete-event replay of the paper's 16-node
//!   cluster. Per-message master CPU, network transit, slave queueing and
//!   database service (with cross-request interference) are first-class
//!   simulated quantities calibrated to the constants the paper reports.
//! * [`live`] — a real multi-threaded executor (one OS thread per slave,
//!   crossbeam channels as the network) for demonstrating the methodology
//!   on actual hardware.
//!
//! Both record the four methodology stages through `kvs-stages` and return
//! a [`RunResult`].
//!
//! Sub-modules:
//! * [`messages`] — the wire protocol (query / response).
//! * [`codec`] — `Verbose` (Java-default-like) vs `Compact` (Kryo-like)
//!   serialization with measured byte sizes and modelled CPU cost; the
//!   §V-B optimization that turned Figure 1 into Figure 5.
//! * [`usl`] — the database interference model (Universal Scalability Law)
//!   that reproduces Figure 7's parallelism speed-ups.
//! * [`config`] — cluster/hardware presets (`paper_slow_master`,
//!   `paper_optimized_master`).
//! * [`data`] — DHT data placement: partitions → ring → per-node tables.
//! * [`policy`] — replica-selection policies (primary-only, random,
//!   round-robin, least-loaded).
//! * [`queue`] — bounded work queues with observable backpressure, shared
//!   by the live executor and the `kvs-net` TCP slaves.
//! * [`read_path`] — the aggregation query's coordinator: a
//!   deterministic, clock-free state machine deciding replica picks,
//!   retries, `Busy` back-off, phi-ordered failover, hedged reads,
//!   deadlines and degraded misses, and keeping the master's per-node
//!   health table; driven over sockets by `kvs-net` and over the seeded
//!   network by [`read_path::simulate`].
//! * [`replication`] — the replicated write path's coordinator: a
//!   deterministic, clock-free state machine deciding ONE/QUORUM/ALL ack
//!   counting, LWW versions, read-repair, bounded hinted handoff and
//!   PCAP-style staleness, driven over sockets by `kvs-net` and over the
//!   seeded network by [`replication::simulate`].
//! * [`simnet`] — the seeded network both coordinators' sims run on:
//!   resampled leg latency, a delay fault, dark-replica windows.
//! * [`phi`] — [`PhiAccrual`]: the continuous suspicion level the read
//!   coordinator orders replicas by (Hayashibara et al., SRDS 2004).
//! * [`latency`] — [`LatencyTracker`]: online per-node latency histogram
//!   + EWMA, the source of the hedge-delay quantile.
//! * [`sim`], [`result`], [`live`].

pub mod codec;
pub mod config;
pub mod data;
pub mod latency;
pub mod live;
pub mod messages;
pub mod phi;
pub mod policy;
pub mod queue;
pub mod read_path;
pub mod replication;
pub mod result;
pub mod sim;
pub mod simnet;
pub mod usl;

pub use codec::{Codec, CodecKind};
pub use config::{
    ClusterConfig, DbConfig, GcConfig, MasterConfig, NetworkConfig, NodeFailure, Straggler,
};
pub use data::{ClusterData, Route};
pub use latency::LatencyTracker;
pub use messages::{QueryRequest, QueryResponse, WriteAck, WriteRequest};
pub use phi::PhiAccrual;
pub use policy::ReplicaPolicy;
pub use queue::QueueStats;
pub use read_path::{ReadCoordinator, ReadSimConfig};
pub use replication::{
    Consistency, Coordinator, MixedOp, MixedOutcome, MixedPlan, ReplicationSimConfig,
};
pub use result::{Coverage, RunResult};
pub use sim::{db_microbench, run_open_loop, run_query, run_query_paced, OpenLoopResult};
pub use simnet::{DelayFault, FaultWindow, SimNetConfig};
