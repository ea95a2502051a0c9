//! In-process loopback clusters: N slave servers on ephemeral ports, one
//! per node of a [`ClusterData`] placement, with deterministic teardown.
//! This is the harness the integration tests, the calibration path, the
//! chaos suite, and the `net_loadgen` benchmark all boot.
//!
//! Slaves can be [`killed`](LocalCluster::kill) and
//! [`restarted`](LocalCluster::restart) individually. What a kill means
//! depends on the tier:
//!
//! * **RAM cluster** ([`spawn_local_cluster`]): the server tears down
//!   (its connections drop, so a connected master sees EOF and fails
//!   over) but the node's [`Table`] is kept in memory, and a restart
//!   serves the same table on a fresh port — the pre-durability
//!   behavior.
//! * **Durable cluster** ([`spawn_local_cluster_durable`]): the kill
//!   *drops* the node's [`DurableTable`] entirely — exactly what a
//!   crash leaves behind is what is on disk — and the restart runs real
//!   crash recovery ([`kvs_store::RecoveryReport`] queryable via
//!   [`LocalCluster::last_recovery`]): manifest load, live-SSTable open,
//!   orphan cleanup and WAL replay.

use crate::master::Route;
use crate::server::{NetServerConfig, NodeStore, SlaveHandle, SlaveServer};
use kvs_cluster::queue::QueueStats;
use kvs_cluster::ClusterData;
use kvs_store::{DurableOptions, DurableTable, RecoveryReport, Table};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;

/// One node's slot in the cluster: a running server, or a killed one.
enum Slot {
    Up(SlaveHandle),
    /// A killed RAM node: its data waits in memory for a restart.
    DownRam {
        /// Last address the server listened on (now closed); kept so
        /// [`LocalCluster::addrs`] stays stable-length while a node is
        /// down.
        addr: SocketAddr,
        table: Table,
    },
    /// A killed durable node: nothing survives in memory — the restart
    /// recovers from the node's directory.
    DownDurable {
        /// Last address the server listened on (now closed).
        addr: SocketAddr,
    },
}

/// Configuration of a durable loopback cluster.
#[derive(Debug, Clone)]
pub struct DurableClusterConfig {
    /// Root directory; node `n` persists under `<root>/node-<n>`.
    pub root: PathBuf,
    /// Storage options for every node's [`DurableTable`].
    pub store: DurableOptions,
    /// During seeding, the trailing `wal_tail` cells of every partition
    /// go through [`DurableTable::put`] (so they live in the WAL, and a
    /// restart exercises replay); the rest bulk-load via
    /// [`DurableTable::ingest_sorted`] straight into an SSTable.
    pub wal_tail: usize,
}

/// A running set of slave servers.
pub struct LocalCluster {
    slots: Vec<Slot>,
    cfg: NetServerConfig,
    /// `Some` when this is a durable cluster: restart options and the
    /// per-node recovery reports.
    durable: Option<DurableClusterConfig>,
    recoveries: Vec<Option<RecoveryReport>>,
    /// Queue stats accumulated from servers that have been killed (their
    /// live counters die with them).
    downed_stats: QueueStats,
}

impl LocalCluster {
    /// The servers' addresses, indexed by node id (feed to
    /// [`crate::NetMaster::connect`]). A down node reports its last
    /// address; connecting to it will fail until it is restarted.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Up(h) => h.addr(),
                Slot::DownRam { addr, .. } => *addr,
                Slot::DownDurable { addr } => *addr,
            })
            .collect()
    }

    /// Number of slave servers (up or down).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether node `node` currently has a running server.
    pub fn is_up(&self, node: u32) -> bool {
        matches!(self.slots.get(node as usize), Some(Slot::Up(_)))
    }

    /// The recovery report of node `node`'s most recent
    /// [`restart`](LocalCluster::restart) — durable clusters only, and
    /// `None` before the first restart.
    pub fn last_recovery(&self, node: u32) -> Option<&RecoveryReport> {
        self.recoveries.get(node as usize)?.as_ref()
    }

    /// Kills node `node`: shuts its server down (connected masters see
    /// EOF immediately). A RAM node keeps its table for a later
    /// [`LocalCluster::restart`]; a durable node's store is dropped —
    /// only its directory survives, as after a real crash. No-op if the
    /// node is already down.
    pub fn kill(&mut self, node: u32) {
        let ix = node as usize;
        assert!(ix < self.slots.len(), "no node {node}");
        // Temporarily park a placeholder so we can move the handle out.
        let placeholder = Slot::DownDurable {
            addr: ([127, 0, 0, 1], 0).into(),
        };
        let slot = std::mem::replace(&mut self.slots[ix], placeholder);
        self.slots[ix] = match slot {
            Slot::Up(h) => {
                let addr = h.addr();
                let (stats, store) = h.shutdown_take_store();
                self.downed_stats.merge(&stats);
                match store {
                    NodeStore::Ram(table) => Slot::DownRam { addr, table },
                    // Dropping the DurableTable is the crash: whatever
                    // it had not committed to WAL/SSTables is gone.
                    NodeStore::Durable(_) => Slot::DownDurable { addr },
                }
            }
            down => down,
        };
    }

    /// Restarts a killed node on a fresh ephemeral port. A RAM node
    /// serves the same table it held when killed; a durable node reopens
    /// its directory — manifest load, orphan cleanup, WAL replay — and
    /// records the [`RecoveryReport`] (see
    /// [`LocalCluster::last_recovery`]). Returns the new address. No-op
    /// (returns the current address) if the node is already up.
    pub fn restart(&mut self, node: u32) -> io::Result<SocketAddr> {
        let ix = node as usize;
        assert!(ix < self.slots.len(), "no node {node}");
        if let Slot::Up(h) = &self.slots[ix] {
            return Ok(h.addr());
        }
        let placeholder = Slot::DownDurable {
            addr: ([127, 0, 0, 1], 0).into(),
        };
        let slot = std::mem::replace(&mut self.slots[ix], placeholder);
        let (addr, store) = match slot {
            Slot::Up(_) => unreachable!("checked Up above"),
            Slot::DownRam { addr, table } => (addr, NodeStore::Ram(table)),
            Slot::DownDurable { addr } => {
                let Some(dcfg) = &self.durable else {
                    // A durable Down slot in a RAM cluster only exists as
                    // the transient placeholder above; reaching it here
                    // means a restart raced a panic. Fail closed.
                    self.slots[ix] = Slot::DownDurable { addr };
                    return Err(io::Error::other("node has no recoverable state"));
                };
                let dir = node_dir(&dcfg.root, node);
                match DurableTable::open(&dir, dcfg.store.clone()) {
                    Ok((table, report)) => {
                        self.recoveries[ix] = Some(report);
                        (addr, NodeStore::Durable(table))
                    }
                    Err(e) => {
                        self.slots[ix] = Slot::DownDurable { addr };
                        return Err(e);
                    }
                }
            }
        };
        match SlaveServer::spawn_store(store, self.cfg) {
            Ok(handle) => {
                let new_addr = handle.addr();
                self.slots[ix] = Slot::Up(handle);
                Ok(new_addr)
            }
            Err(e) => {
                // Spawn consumed the store. A durable node loses nothing
                // (its data is on disk); a RAM node's table is gone, so
                // park the slot as durable-style empty either way.
                self.slots[ix] = Slot::DownDurable { addr };
                Err(e)
            }
        }
    }

    /// Work-queue backpressure counters merged over every live server,
    /// plus those of servers killed earlier.
    pub fn queue_stats(&self) -> QueueStats {
        let mut merged = self.downed_stats;
        for s in &self.slots {
            if let Slot::Up(h) = s {
                merged.merge(&h.queue_stats());
            }
        }
        merged
    }

    /// Stops every server deterministically (disconnect masters first so
    /// the connection readers see EOF immediately; they also poll a stop
    /// flag, so shutdown completes regardless). Returns the merged queue
    /// stats, including those of servers killed mid-run.
    pub fn shutdown(self) -> QueueStats {
        let mut merged = self.downed_stats;
        for s in self.slots {
            if let Slot::Up(h) = s {
                merged.merge(&h.shutdown());
            }
        }
        merged
    }
}

fn node_dir(root: &std::path::Path, node: u32) -> PathBuf {
    root.join(format!("node-{node}"))
}

/// Boots one slave server per node of `data` on ephemeral loopback ports.
///
/// Returns the cluster plus the routed key list — every partition paired
/// with its full replica set (primary first), in placement order — ready
/// for [`crate::NetMaster::run_query`]. With `replication_factor` 1 the
/// routes degenerate to the primary-only placement of earlier revisions.
pub fn spawn_local_cluster(
    data: ClusterData,
    cfg: NetServerConfig,
) -> io::Result<(LocalCluster, Vec<Route>)> {
    let routes = data.routes();
    let mut slots = Vec::new();
    for table in data.into_tables() {
        match SlaveServer::spawn(table, cfg) {
            Ok(handle) => slots.push(Slot::Up(handle)),
            Err(e) => {
                // Don't leak the servers that did boot.
                for s in slots {
                    if let Slot::Up(h) = s {
                        h.shutdown();
                    }
                }
                return Err(e);
            }
        }
    }
    let recoveries = vec![None; slots.len()];
    Ok((
        LocalCluster {
            slots,
            cfg,
            durable: None,
            recoveries,
            downed_stats: QueueStats::default(),
        },
        routes,
    ))
}

/// Boots a *durable* loopback cluster: each node's data is persisted
/// under `dcfg.root/node-<n>` — the bulk via direct SSTable ingest, the
/// trailing `dcfg.wal_tail` cells of every partition via the WAL — and
/// each slave serves a [`DurableTable`]. A [`kill`](LocalCluster::kill)
/// then drops the node's store outright, and the
/// [`restart`](LocalCluster::restart) performs real crash recovery from
/// the directory.
pub fn spawn_local_cluster_durable(
    data: ClusterData,
    cfg: NetServerConfig,
    dcfg: DurableClusterConfig,
) -> io::Result<(LocalCluster, Vec<Route>)> {
    let routes = data.routes();
    let mut slots: Vec<Slot> = Vec::new();
    let boot = |node: u32, table: &Table| -> io::Result<SlaveHandle> {
        let dir = node_dir(&dcfg.root, node);
        let (mut durable, _report) = DurableTable::open(&dir, dcfg.store.clone())?;
        let partitions = table.export_partitions();
        // Bulk of each partition straight to an SSTable …
        let mut bulk: Vec<_> = Vec::with_capacity(partitions.len());
        let mut tails: Vec<_> = Vec::new();
        for (pk, cells) in partitions {
            let split = cells.len().saturating_sub(dcfg.wal_tail);
            let mut cells = cells;
            let tail = cells.split_off(split);
            if !cells.is_empty() {
                bulk.push((pk.clone(), cells));
            }
            if !tail.is_empty() {
                tails.push((pk, tail));
            }
        }
        durable.ingest_sorted(&bulk)?;
        // … and the tail through the WAL, so a kill/restart cycle has
        // records to replay even without new writes.
        for (pk, tail) in tails {
            for cell in tail {
                durable.put(pk.clone(), cell)?;
            }
        }
        durable.sync_wal()?;
        SlaveServer::spawn_store(NodeStore::Durable(durable), cfg)
    };
    for (node, table) in data.into_tables().iter().enumerate() {
        match boot(node as u32, table) {
            Ok(handle) => slots.push(Slot::Up(handle)),
            Err(e) => {
                for s in slots {
                    if let Slot::Up(h) = s {
                        h.shutdown();
                    }
                }
                return Err(e);
            }
        }
    }
    let recoveries = vec![None; slots.len()];
    Ok((
        LocalCluster {
            slots,
            cfg,
            durable: Some(dcfg),
            recoveries,
            downed_stats: QueueStats::default(),
        },
        routes,
    ))
}
