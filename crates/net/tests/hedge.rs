//! Tail-latency defenses end to end: hedged replica reads against an
//! injected straggler, degraded partial answers against a blackholed
//! partition, and the cold-start connect retry.
//!
//! The straggler test is the PR's headline acceptance criterion: with one
//! replica's responses randomly held 40 ms, hedging must cut the measured
//! p99 by ≥ 30% while spending < 10% extra requests. Fixed proxy seeds
//! make both runs see the *same* fault sequence — hedges only ever target
//! the other nodes, so the straggler's own frame stream (and therefore
//! its seeded fault draws) is identical with and without hedging.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, ReplicaPolicy};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    HedgeConfig, NetConfig, NetMaster, NetRunReport, NetServerConfig, QueryMode, Route,
};
use kvs_store::TableOptions;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The straggler acceptance test measures real wall-clock tails; a
/// sibling test competing for cores skews them. One test at a time.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn data(nodes: u32, rf: usize, partitions: u64, cells: u64) -> ClusterData {
    ClusterData::load(
        nodes,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, cells, 4),
    )
}

/// p99 of the per-request end-to-end latencies, milliseconds.
fn p99_ms(report: &NetRunReport) -> f64 {
    let mut totals: Vec<f64> = report
        .result
        .traces
        .iter()
        .map(|t| t.total().as_millis_f64())
        .collect();
    assert!(!totals.is_empty(), "no traces recorded");
    totals.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len());
    totals[rank - 1]
}

/// One run against a freshly proxied cluster; node 0's responses are
/// randomly held [`STRAGGLE`] under a fixed seed.
fn straggler_run(
    addrs: &[std::net::SocketAddr],
    routes: &[Route],
    arrivals: &[u64],
    hedge: Option<HedgeConfig>,
) -> NetRunReport {
    let straggle = ChaosSchedule {
        seed: 0xD1CE,
        rules: vec![ChaosRule {
            direction: ChaosDirection::ToMaster,
            action: FaultAction::Delay(Duration::from_millis(40)),
            probability: 0.03,
            after_frame: 0,
            until_frame: Some(200),
        }],
        blackhole_from: None,
    };
    let schedules = vec![
        straggle,
        ChaosSchedule::passthrough(2),
        ChaosSchedule::passthrough(3),
    ];
    let (proxies, proxied) = wrap_cluster(addrs, schedules).expect("proxies boot");
    let cfg = NetConfig {
        hedge,
        // Requests land on the primary so the straggler's share of the
        // load is deterministic, and hedges are the only cross-replica
        // traffic.
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&proxied, cfg).expect("master connects");
    let report = master
        .run_with_arrivals(routes, Some(arrivals))
        .expect("query succeeds");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    report
}

#[test]
fn hedged_reads_cut_straggler_p99() {
    let _serial = SERIAL.lock();
    const PARTITIONS: u64 = 300;
    let (cluster, routes) =
        spawn_local_cluster(data(3, 2, PARTITIONS, 8), NetServerConfig::default())
            .expect("cluster boots");
    let addrs = cluster.addrs();
    // Open-loop arrivals, 3 ms apart: load light enough that hedges are
    // tail-driven, not queue-driven.
    let arrivals: Vec<u64> = (0..PARTITIONS).map(|i| i * 3_000_000).collect();

    let plain = straggler_run(&addrs, &routes, &arrivals, None);
    let hedged = straggler_run(
        &addrs,
        &routes,
        &arrivals,
        Some(HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(8),
        }),
    );
    cluster.shutdown();

    // Both runs answered everything, correctly.
    assert!(plain.result.coverage.is_complete());
    assert!(hedged.result.coverage.is_complete());
    assert_eq!(plain.result.total_cells, PARTITIONS * 8);
    assert_eq!(hedged.result.total_cells, PARTITIONS * 8);

    let (p99_plain, p99_hedged) = (p99_ms(&plain), p99_ms(&hedged));
    // The injected 40 ms straggler must dominate the unhedged tail, or
    // the comparison below is vacuous.
    assert!(
        p99_plain >= 30.0,
        "straggler left no tail to cut: p99 {p99_plain:.1} ms"
    );
    let improvement = 1.0 - p99_hedged / p99_plain;
    assert!(
        improvement >= 0.30,
        "hedging cut p99 by only {:.0}% ({p99_plain:.1} ms → {p99_hedged:.1} ms)",
        improvement * 100.0
    );

    // The cut was bought with hedges — and cheaply.
    assert!(hedged.hedges_sent > 0, "no hedges fired");
    assert!(hedged.hedges_won > 0, "no hedge ever beat the straggler");
    assert!(
        hedged.hedge_extra_load() < 0.10,
        "hedging overspent: {} hedges on {} requests ({:.1}% extra load)",
        hedged.hedges_sent,
        PARTITIONS,
        hedged.hedge_extra_load() * 100.0
    );
    assert_eq!(plain.hedges_sent, 0, "hedging off must send no hedges");
}

/// A blackholed partition in degraded mode: the query completes with
/// `Coverage < 1`, the miss list names exactly the unreachable
/// partitions, and every answered value is correct. Strict mode still
/// refuses to return a partial answer.
#[test]
fn blackholed_partition_degrades_with_exact_miss_list() {
    let _serial = SERIAL.lock();
    const PARTITIONS: u64 = 32;
    let (cluster, routes) =
        spawn_local_cluster(data(2, 1, PARTITIONS, 8), NetServerConfig::default())
            .expect("cluster boots");
    let addrs = cluster.addrs();
    let fast = NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 1,
        ..NetConfig::default()
    };
    // With rf = 1, partitions whose only replica is node 0 are
    // unreachable once node 0 is blackholed.
    let expected_misses: Vec<u64> = routes
        .iter()
        .enumerate()
        .filter(|(_, r)| r.replicas == [0])
        .map(|(i, _)| i as u64)
        .collect();
    assert!(
        !expected_misses.is_empty() && expected_misses.len() < PARTITIONS as usize,
        "placement must split partitions across both nodes"
    );

    // Degraded: partial coverage, exact misses, no wrong values.
    let schedules = vec![
        ChaosSchedule::blackhole_at(0xB10C, Duration::ZERO),
        ChaosSchedule::passthrough(1),
    ];
    let (proxies, proxied) = wrap_cluster(&addrs, schedules).expect("proxies boot");
    let cfg = NetConfig {
        mode: QueryMode::Degraded,
        ..fast
    };
    let mut master = NetMaster::connect(&proxied, cfg).expect("master connects");
    let report = master.run_query(&routes).expect("degraded mode completes");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    let coverage = report.result.coverage;
    assert!(!coverage.is_complete(), "the blackhole must cost coverage");
    assert_eq!(coverage.total, PARTITIONS);
    assert_eq!(
        coverage.answered,
        PARTITIONS - expected_misses.len() as u64,
        "all reachable partitions answered"
    );
    assert_eq!(report.result.missed, expected_misses, "miss list exact");
    for m in &report.missed {
        assert_eq!(m.replicas, [0], "every miss names the blackholed node");
        assert_eq!(m.key, routes[m.request_id as usize].key);
    }
    // Zero wrong values: the answered partitions account for every cell.
    assert_eq!(report.result.total_cells, coverage.answered * 8);
    assert!(
        report.suspected_dead.contains(&0),
        "the blackholed node must end up suspected"
    );

    // Strict: same fault, whole query refused.
    let schedules = vec![
        ChaosSchedule::blackhole_at(0xB10C, Duration::ZERO),
        ChaosSchedule::passthrough(1),
    ];
    let (proxies, proxied) = wrap_cluster(&addrs, schedules).expect("proxies boot");
    let mut master = NetMaster::connect(&proxied, fast).expect("master connects");
    master
        .run_query(&routes)
        .expect_err("strict mode must not return a partial answer");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    cluster.shutdown();
}

/// The cold-start race: a master that connects before its slave finishes
/// binding must retry `ConnectionRefused` instead of dying. The listener
/// here comes up ~25 ms after the connect attempt starts; the default
/// retry ladder (6 retries, 1 ms doubling back-off) covers ~60 ms.
#[test]
fn connect_retries_through_slave_cold_start() {
    let _serial = SERIAL.lock();
    // Reserve a port, then release it so the first connect is refused.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe binds");
        probe.local_addr().expect("probe addr")
    };
    assert!(
        TcpStream::connect(addr).is_err(),
        "port must start closed for the race to exist"
    );
    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(25));
        let listener = TcpListener::bind(addr).expect("late bind succeeds");
        // Hold the master's connection open until it shuts down.
        let (sock, _) = listener.accept().expect("master arrives");
        let mut sock = sock;
        let mut buf = [0u8; 64];
        use std::io::Read;
        while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
    });
    let master =
        NetMaster::connect(&[addr], NetConfig::default()).expect("retry rides out the cold start");
    master.shutdown();
    server.join().expect("listener thread exits");

    // And with no listener ever appearing, connect still fails — the
    // retry ladder is bounded.
    let dead = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe binds");
        probe.local_addr().expect("probe addr")
    };
    assert!(
        NetMaster::connect(&[dead], NetConfig::default()).is_err(),
        "bounded retries must eventually give up"
    );
}
