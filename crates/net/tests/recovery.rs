//! Acceptance tests for the durable cluster path: a killed node's memory
//! is dropped outright, the restart performs *real* crash recovery
//! (manifest load, orphan cleanup, WAL replay), and every schedule —
//! including seeded kill-mid-query rounds and crashes injected inside a
//! flush or compaction — converges back to the fault-free oracle with
//! zero wrong or lost acknowledged values.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::ClusterData;
use kvs_net::{
    spawn_local_cluster, spawn_local_cluster_durable, DurableClusterConfig, NetConfig, NetMaster,
    NetServerConfig,
};
use kvs_store::{CrashPoint, DurableOptions, DurableTable, FsyncPolicy, TableOptions, TempDir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

const NODES: u32 = 3;
const RF: usize = 2;
const PARTITIONS: u64 = 24;
const CELLS: u64 = 6;
const WAL_TAIL: usize = 2;

fn data() -> ClusterData {
    ClusterData::load(
        NODES,
        RF,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, CELLS, 4),
    )
}

fn durable_cfg(root: &TempDir) -> DurableClusterConfig {
    DurableClusterConfig {
        root: root.path().to_path_buf(),
        store: DurableOptions {
            fsync: FsyncPolicy::Never, // the process survives; files do too
            ..DurableOptions::default()
        },
        wal_tail: WAL_TAIL,
    }
}

fn cfg() -> NetConfig {
    NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 2,
        ..NetConfig::default()
    }
}

/// The fault-free answer every durable/chaotic run must reproduce.
fn oracle() -> BTreeMap<u8, u64> {
    let (cluster, routes) =
        spawn_local_cluster(data(), NetServerConfig::default()).expect("oracle cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("oracle connects");
    let report = master.run_query(&routes).expect("oracle succeeds");
    master.shutdown();
    cluster.shutdown();
    assert_eq!(report.result.total_cells, PARTITIONS * CELLS);
    report.result.counts_by_kind
}

/// Runs the aggregation over the durable cluster and asserts it matches
/// the fault-free oracle bit-for-bit.
fn assert_matches_oracle(
    cluster: &kvs_net::LocalCluster,
    routes: &[kvs_net::Route],
    expected: &BTreeMap<u8, u64>,
    context: &str,
) {
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("master connects");
    let report = master.run_query(routes).expect("query succeeds");
    master.shutdown();
    assert_eq!(
        report.result.total_cells,
        PARTITIONS * CELLS,
        "{context}: lost values"
    );
    assert_eq!(
        &report.result.counts_by_kind, expected,
        "{context}: wrong values"
    );
}

#[test]
fn durable_cluster_serves_the_same_aggregation_as_ram() {
    let expected = oracle();
    let root = TempDir::new("rec-base");
    let (cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    assert_matches_oracle(&cluster, &routes, &expected, "durable vs ram");
    cluster.shutdown();
}

#[test]
fn every_node_recovers_from_disk_after_a_kill() {
    let expected = oracle();
    let root = TempDir::new("rec-cycle");
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    for node in 0..NODES {
        cluster.kill(node);
        assert!(!cluster.is_up(node));
        cluster.restart(node).expect("restart succeeds");
        let report = cluster
            .last_recovery(node)
            .expect("durable restart records a report");
        assert!(
            report.sstables_loaded >= 1,
            "node {node}: seeded SSTable not recovered: {report:?}"
        );
        assert!(
            report.wal_records_replayed > 0,
            "node {node}: seeded WAL tail not replayed: {report:?}"
        );
        assert_matches_oracle(
            &cluster,
            &routes,
            &expected,
            &format!("after kill/restart of node {node}"),
        );
    }
    cluster.shutdown();
}

/// Seeded kill-mid-query rounds: with rf = 2 the in-flight query must
/// still return the full oracle answer, and the victim's restart must
/// recover from disk alone.
#[test]
fn seeded_kills_mid_query_lose_nothing() {
    let expected = oracle();
    let root = TempDir::new("rec-mid");
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for round in 0..4u32 {
        for node in 0..NODES {
            if !cluster.is_up(node) {
                cluster.restart(node).expect("restart succeeds");
                let report = cluster.last_recovery(node).expect("recovery recorded");
                assert!(
                    report.wal_records_replayed > 0,
                    "round {round}: node {node} recovered nothing: {report:?}"
                );
            }
        }
        let master = NetMaster::connect(&cluster.addrs(), cfg()).expect("master connects");
        let query_routes = routes.clone();
        let worker = std::thread::spawn(move || {
            let mut master = master;
            let result = master.run_query(&query_routes);
            (result, master)
        });
        let victim = rng.gen_range(0..NODES);
        std::thread::sleep(Duration::from_millis(rng.gen_range(1..10)));
        cluster.kill(victim);
        let (result, master) = worker.join().expect("query thread never panics");
        let report = result.expect("rf = 2 survives a single kill");
        assert_eq!(
            report.result.total_cells,
            PARTITIONS * CELLS,
            "round {round}: lost values after killing node {victim}"
        );
        assert_eq!(
            report.result.counts_by_kind, expected,
            "round {round}: wrong values after killing node {victim}"
        );
        master.shutdown();
    }
    cluster.shutdown();
}

/// Crash injected *inside* a flush and a compaction on a node's
/// directory between cluster incarnations: the cluster restart must run
/// recovery over the half-finished state and still serve the oracle.
#[test]
fn crash_during_flush_and_compaction_recovers_to_oracle() {
    let expected = oracle();
    let root = TempDir::new("rec-crash");
    let dcfg = durable_cfg(&root);
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), dcfg.clone())
            .expect("durable cluster boots");

    for (label, crash) in [
        ("flush", CrashPoint::AfterFlushSstWrite),
        ("compaction", CrashPoint::AfterCompactSstWrite),
    ] {
        cluster.kill(0);
        // Maul node 0's directory the way a mid-operation crash would:
        // reopen it, drive it into the armed operation, let the injected
        // crash poison it, and walk away.
        {
            let dir = root.path().join("node-0");
            let (mut table, _) = DurableTable::open(&dir, dcfg.store.clone()).expect("direct open");
            if crash == CrashPoint::AfterCompactSstWrite {
                // A compaction needs at least two runs: flush the
                // replayed WAL tail into a second SSTable first.
                table.flush().expect("setup flush");
                table.arm_crash_point(crash);
                table.compact().expect_err("armed compaction must fail");
            } else {
                table.arm_crash_point(crash);
                // The recovered WAL tail is sitting in the memtable, so
                // the flush has real work to crash in the middle of.
                table.flush().expect_err("armed flush must fail");
            }
        }
        cluster.restart(0).expect("restart succeeds");
        let report = cluster.last_recovery(0).expect("recovery recorded");
        assert!(
            report.orphan_files_removed >= 1,
            "crash during {label} left no orphan to clean: {report:?}"
        );
        assert_matches_oracle(
            &cluster,
            &routes,
            &expected,
            &format!("after crash during {label}"),
        );
    }
    cluster.shutdown();
}

/// A corrupt SST block on one replica must never become an answer: the
/// replica refuses with `Unavailable`, the master fails over at once, and
/// the query returns the oracle counts. Every route puts node 0 first, so
/// the partition in the flipped block is asked of the corrupt copy.
#[test]
fn a_corrupt_sst_block_fails_over_instead_of_answering_empty() {
    let root = TempDir::new("rec-corrupt");
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    let routes: Vec<kvs_net::Route> = routes
        .into_iter()
        .filter(|r| r.replicas.contains(&0))
        .map(|mut r| {
            r.replicas.sort_by_key(|&n| n != 0);
            r
        })
        .collect();
    let query = |cluster: &kvs_net::LocalCluster| {
        let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("master connects");
        let report = master.run_query(&routes).expect("query succeeds");
        master.shutdown();
        report
    };
    let healthy = query(&cluster);
    assert_eq!(healthy.failovers, 0);

    // Between kill and restart, so no block cache holds the clean bytes.
    cluster.kill(0);
    let dir = root.path().join("node-0");
    let mut ssts: Vec<_> = std::fs::read_dir(&dir)
        .expect("node dir lists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    ssts.sort();
    let sst = ssts.first().expect("node 0 holds an SSTable");
    let mut bytes = std::fs::read(sst).expect("read sst");
    bytes[8] ^= 0xFF; // data blocks start at offset 0
    std::fs::write(sst, bytes).expect("write sst");
    cluster.restart(0).expect("restart succeeds");

    let report = query(&cluster);
    assert_eq!(
        report.result.counts_by_kind, healthy.result.counts_by_kind,
        "a corrupt block turned into a wrong count"
    );
    assert_eq!(report.result.total_cells, healthy.result.total_cells);
    assert!(
        report.failovers > 0,
        "the corrupt replica was never refused"
    );
    cluster.shutdown();
}
