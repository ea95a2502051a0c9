//! DHT data placement: partitions → hash ring → per-node tables.

use kvs_balance::HashRing;
use kvs_store::{Cell, PartitionKey, Table, TableOptions};
use std::collections::BTreeMap;

/// One routed partition: its key plus the nodes holding a replica of it,
/// primary first (the order [`ClusterData`] placed them in). Readers pick
/// among the replicas and walk the list on failover; writers fan out to
/// all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The partition this route addresses.
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

/// The cluster's data: one [`Table`] per node, plus the ring and a
/// partition directory.
pub struct ClusterData {
    ring: HashRing,
    tables: Vec<Table>,
    /// partition → replica node indexes (primary first).
    placement: BTreeMap<PartitionKey, Vec<u32>>,
    /// partition → cell count (what the planner and the master "know").
    partition_cells: BTreeMap<PartitionKey, u64>,
    replication_factor: usize,
}

impl ClusterData {
    /// Distributes `partitions` over `nodes` nodes with the given
    /// replication factor, bulk-loading each replica's table and flushing
    /// so reads hit SSTables (the steady state the paper measures).
    ///
    /// # Panics
    /// If `nodes == 0` or `replication_factor == 0`.
    pub fn load(
        nodes: u32,
        replication_factor: usize,
        table_opts: TableOptions,
        partitions: Vec<(PartitionKey, Vec<Cell>)>,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(replication_factor > 0, "need rf ≥ 1");
        let ring = HashRing::with_nodes(nodes, 128);
        let mut tables: Vec<Table> = (0..nodes).map(|_| Table::new(table_opts.clone())).collect();
        let mut placement = BTreeMap::new();
        let mut partition_cells = BTreeMap::new();
        for (pk, cells) in partitions {
            let replicas = ring.replicas_for_key(pk.as_bytes(), replication_factor);
            let nodes_idx: Vec<u32> = replicas.iter().map(|n| n.0).collect();
            partition_cells.insert(pk.clone(), cells.len() as u64);
            for &node in &nodes_idx {
                for cell in &cells {
                    tables[node as usize].put(pk.clone(), cell.clone());
                }
            }
            placement.insert(pk, nodes_idx);
        }
        for t in &mut tables {
            t.flush();
        }
        ClusterData {
            ring,
            tables,
            placement,
            partition_cells,
            replication_factor,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.tables.len() as u32
    }

    /// The configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// The replica node indexes of a partition (primary first). Empty for
    /// unknown partitions.
    pub fn replicas_of(&self, pk: &PartitionKey) -> &[u32] {
        self.placement.get(pk).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The primary node of a partition.
    pub fn primary_of(&self, pk: &PartitionKey) -> Option<u32> {
        self.replicas_of(pk).first().copied()
    }

    /// The cell count the directory records for a partition.
    pub fn cells_of(&self, pk: &PartitionKey) -> u64 {
        self.partition_cells.get(pk).copied().unwrap_or(0)
    }

    /// All partitions, in key order.
    pub fn partitions(&self) -> impl Iterator<Item = (&PartitionKey, u64)> + '_ {
        self.partition_cells.iter().map(|(pk, &c)| (pk, c))
    }

    /// Every partition paired with its full replica set (primary first),
    /// in key order.
    pub fn routes(&self) -> Vec<Route> {
        let route = |(key, replicas): (&PartitionKey, &Vec<u32>)| Route {
            key: key.clone(),
            replicas: replicas.clone(),
        };
        self.placement.iter().map(route).collect()
    }

    /// Number of partitions loaded.
    pub fn partition_count(&self) -> usize {
        self.partition_cells.len()
    }

    /// Mutable access to a node's table (the slave read path).
    pub fn table_mut(&mut self, node: u32) -> &mut Table {
        &mut self.tables[node as usize]
    }

    /// Immutable access to a node's table.
    pub fn table(&self, node: u32) -> &Table {
        &self.tables[node as usize]
    }

    /// Per-node partition counts — the figure-2 style load histogram.
    #[expect(
        clippy::expect_used,
        reason = "every node gets a counter before any key is counted; a missing node is a placement bug that must fail loudly"
    )]
    pub fn partitions_per_node(&self) -> BTreeMap<u32, u64> {
        let mut out: BTreeMap<u32, u64> = (0..self.nodes()).map(|n| (n, 0)).collect();
        for replicas in self.placement.values() {
            if let Some(&primary) = replicas.first() {
                *out.get_mut(&primary).expect("node exists") += 1;
            }
        }
        out
    }

    /// The underlying ring (for placement diagnostics).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Consumes the cluster, handing each node's table to the caller (the
    /// live executor moves them into worker threads).
    pub fn into_tables(self) -> Vec<Table> {
        self.tables
    }
}

/// Convenience: evenly sized synthetic partitions — `partitions` partitions
/// of `cells_each` cells, kinds cycling 0..kinds.
pub fn uniform_partitions(
    partitions: u64,
    cells_each: u64,
    kinds: u8,
) -> Vec<(PartitionKey, Vec<Cell>)> {
    (0..partitions)
        .map(|p| {
            let cells = (0..cells_each)
                .map(|c| Cell::synthetic(c, (c % kinds.max(1) as u64) as u8))
                .collect();
            (PartitionKey::from_id(p), cells)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_places_every_partition() {
        let data = ClusterData::load(
            4,
            1,
            TableOptions::default(),
            uniform_partitions(100, 10, 4),
        );
        assert_eq!(data.partition_count(), 100);
        assert_eq!(data.nodes(), 4);
        let per_node = data.partitions_per_node();
        assert_eq!(per_node.values().sum::<u64>(), 100);
        // Every node should own something at this scale.
        assert!(per_node.values().all(|&c| c > 0), "{per_node:?}");
    }

    #[test]
    fn placement_follows_ring() {
        let data = ClusterData::load(8, 1, TableOptions::default(), uniform_partitions(50, 5, 2));
        for (pk, _) in data.partitions() {
            let expected = data.ring().node_for_key(pk.as_bytes());
            assert_eq!(data.primary_of(pk), Some(expected.0));
        }
    }

    #[test]
    fn replicas_are_loaded_on_all_their_nodes() {
        let mut data =
            ClusterData::load(5, 3, TableOptions::default(), uniform_partitions(20, 8, 2));
        let pk = PartitionKey::from_id(7);
        let replicas: Vec<u32> = data.replicas_of(&pk).to_vec();
        assert_eq!(replicas.len(), 3);
        for node in replicas {
            let (cells, _) = data.table_mut(node).get(&pk);
            assert_eq!(cells.len(), 8, "replica on node {node} missing data");
        }
        assert_eq!(data.replication_factor(), 3);
    }

    #[test]
    fn reads_come_from_sstables_after_load() {
        let mut data =
            ClusterData::load(2, 1, TableOptions::default(), uniform_partitions(10, 20, 4));
        let pk = PartitionKey::from_id(3);
        let node = data.primary_of(&pk).unwrap();
        let (cells, receipt) = data.table_mut(node).get(&pk);
        assert_eq!(cells.len(), 20);
        assert!(!receipt.memtable_hit, "load() must flush");
        assert_eq!(receipt.sstables_read, 1);
    }

    #[test]
    fn directory_knows_cell_counts() {
        let data = ClusterData::load(
            2,
            1,
            TableOptions::default(),
            vec![
                (PartitionKey::from_id(0), vec![Cell::synthetic(0, 0)]),
                (
                    PartitionKey::from_id(1),
                    (0..5).map(|c| Cell::synthetic(c, 0)).collect(),
                ),
            ],
        );
        assert_eq!(data.cells_of(&PartitionKey::from_id(0)), 1);
        assert_eq!(data.cells_of(&PartitionKey::from_id(1)), 5);
        assert_eq!(data.cells_of(&PartitionKey::from_id(9)), 0);
        assert!(data.replicas_of(&PartitionKey::from_id(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterData::load(0, 1, TableOptions::default(), Vec::new());
    }
}
