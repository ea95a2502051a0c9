//! chaos_drill — the PR's acceptance scenario as a runnable figure.
//!
//! Boots a 3-node, rf = 3 loopback cluster behind [`kvs_net::ChaosProxy`]
//! interposers, blackholes node 0 from the first byte (fixed seed), and
//! runs the aggregation query twice: once healthy (passthrough proxies)
//! and once degraded. It then replays the same failure in `cluster::sim`
//! with `NodeFailure` and reports how close the measured degradation
//! lands to the simulator's prediction — the cross-validation that ties
//! the TCP engine's failover behaviour back to the paper's model.
//!
//! A second scenario exercises the tail instead of the blackhole: node 0's
//! responses are randomly held 40 ms (a straggling replica), the query is
//! run open-loop with and without hedged reads, and the measured p99
//! improvement is cross-validated against `read_path::simulate` — the same
//! read coordinator on the seeded network, its leg latency calibrated from
//! a straggler-free run through the same proxies, and a delay fault on
//! node 0 — replaying the same arrival schedule.
//!
//! Knobs (environment):
//! - `KVSCALE_DRILL_PARTITIONS` — partitions / requests (default 48)
//! - `KVSCALE_DRILL_CELLS` — values per partition (default 8)
//! - `KVSCALE_DRILL_STRAGGLER_PARTITIONS` — requests in the straggler
//!   scenario (default 240)
//!
//! Output: per-stage tables, `target/figures/chaos_drill.csv` and
//! `target/figures/chaos_drill_straggler.csv`.

use kvs_bench::json::{self, int, num, obj};
use kvs_bench::{banner, env_u64, fmt_ms, Csv};
use kvs_cluster::config::NodeFailure;
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::read_path::simulate;
use kvs_cluster::sim::run_query;
use kvs_cluster::{
    ClusterConfig, ClusterData, DelayFault, ReadSimConfig, ReplicaPolicy, SimNetConfig,
};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    HedgeConfig, NetConfig, NetMaster, NetRunReport, NetServerConfig,
};
use kvs_simcore::SimDuration;
use kvs_stages::{RequestTrace, Stage};
use kvs_store::TableOptions;
use std::time::Duration;

const NODES: u32 = 3;
const RF: usize = 3;
const VICTIM: u32 = 0;
const SEED: u64 = 0xD211;

fn data(partitions: u64, cells: u64, rf: usize) -> ClusterData {
    ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, cells, 4),
    )
}

/// One measured run behind proxies carrying the given schedules.
fn measured_run(
    partitions: u64,
    cells: u64,
    net_cfg: NetConfig,
    schedules: Vec<ChaosSchedule>,
) -> (NetRunReport, u64) {
    let (cluster, routes) =
        spawn_local_cluster(data(partitions, cells, RF), NetServerConfig::default())
            .expect("cluster boots");
    let (proxies, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
    let mut master = NetMaster::connect(&addrs, net_cfg).expect("master connects");
    let report = master.run_query(&routes).expect("query succeeds");
    master.shutdown();
    let mut blackholed = 0;
    for p in proxies {
        let s = p.shutdown();
        blackholed += s.blackholed;
        assert_eq!(s.seq_regressions, 0, "master send sequence regressed");
    }
    cluster.shutdown();
    (report, blackholed)
}

fn print_stages(label: &str, report: &NetRunReport, stage_ms: &mut [f64; 4]) {
    println!(
        "{label}: makespan {}  failovers {}  suspected dead {:?}  retry wait {:.1} ms",
        report.result.makespan, report.failovers, report.suspected_dead, report.retry_wait_ms
    );
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        if let Some(stats) = report.result.report.per_stage_ms.get(&stage) {
            stage_ms[i] = stats.mean();
            println!(
                "    {:>18}: mean {:>9.3} ms   max {:>9.3} ms",
                stage.name(),
                stats.mean(),
                stats.max()
            );
        }
    }
    println!();
}

/// p99 of the per-request end-to-end latencies, milliseconds.
fn p99_ms(traces: &[RequestTrace]) -> f64 {
    let mut totals: Vec<f64> = traces.iter().map(|t| t.total().as_millis_f64()).collect();
    assert!(!totals.is_empty(), "no traces recorded");
    totals.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len());
    totals[rank - 1]
}

/// Straggler-scenario constants, mirrored between the measured run and
/// the simulator replay.
const STRAGGLE_MS: u64 = 40;
const STRAGGLE_P: f64 = 0.15;
const HEDGE_AFTER_MS: u64 = 8;
const ARRIVAL_GAP_NS: u64 = 3_000_000;
const STRAGGLER_RF: usize = 2;

fn straggler_cfg(hedge: Option<HedgeConfig>) -> NetConfig {
    NetConfig {
        hedge,
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    }
}

/// One measured open-loop run; with `straggle`, node 0's responses are
/// randomly held [`STRAGGLE_MS`]. `hedge` toggles hedged reads.
fn straggler_measured(
    partitions: u64,
    cells: u64,
    straggle: bool,
    hedge: Option<HedgeConfig>,
) -> NetRunReport {
    let data = data(partitions, cells, STRAGGLER_RF);
    let (cluster, routes) =
        spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
    let victim = if straggle {
        ChaosSchedule {
            seed: SEED,
            rules: vec![ChaosRule {
                direction: ChaosDirection::ToMaster,
                action: FaultAction::Delay(Duration::from_millis(STRAGGLE_MS)),
                probability: STRAGGLE_P,
                after_frame: 0,
                until_frame: Some(partitions),
            }],
            blackhole_from: None,
        }
    } else {
        ChaosSchedule::passthrough(SEED)
    };
    let mut schedules = vec![victim];
    schedules.extend((1..NODES as u64).map(ChaosSchedule::passthrough));
    let (proxies, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
    let mut master = NetMaster::connect(&addrs, straggler_cfg(hedge)).expect("master connects");
    let arrivals: Vec<u64> = (0..partitions).map(|i| i * ARRIVAL_GAP_NS).collect();
    let report = master
        .run_with_arrivals(&routes, Some(&arrivals))
        .expect("query succeeds");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    cluster.shutdown();
    report
}

/// The same read coordinator replaying the scenario on the seeded
/// network: the identical arrival schedule, leg latency resampled from
/// the calibration run's `legs`, node 0's legs delayed [`STRAGGLE_MS`]
/// with [`STRAGGLE_P`], and the same hedge configuration.
fn straggler_simulated(
    partitions: u64,
    cells: u64,
    legs: &[f64],
    hedge: Option<HedgeConfig>,
) -> NetRunReport {
    let cfg = ReadSimConfig {
        net: SimNetConfig {
            seed: SEED,
            leg_latency_ms: legs.to_vec(),
            delay: Some(DelayFault {
                probability: STRAGGLE_P,
                extra_ms: STRAGGLE_MS as f64,
                node: Some(VICTIM),
            }),
            down: Vec::new(),
        },
        master: straggler_cfg(hedge),
    };
    let mut data = data(partitions, cells, STRAGGLER_RF);
    let routes = data.routes();
    let arrivals: Vec<u64> = (0..partitions).map(|i| i * ARRIVAL_GAP_NS).collect();
    simulate(&cfg, &mut data, &routes, Some(&arrivals)).expect("simulated query succeeds")
}

fn main() {
    let partitions = env_u64("KVSCALE_DRILL_PARTITIONS", 48).max(1);
    let cells = env_u64("KVSCALE_DRILL_CELLS", 8).max(1);
    banner(
        "chaos_drill",
        "blackholed replica: measured failover vs simulated NodeFailure",
    );
    let net_cfg = NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 1,
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let detection = net_cfg.timeout * (net_cfg.max_retries + 1);
    println!(
        "\n{NODES} nodes, rf = {RF}, {partitions} partitions × {cells} cells; \
         node {VICTIM} blackholed from t = 0 (seed {SEED:#x}); \
         detection window {detection:?}\n"
    );

    // Healthy baseline through passthrough proxies (identical path).
    let passthrough = (0..NODES as u64).map(ChaosSchedule::passthrough).collect();
    let (healthy, _) = measured_run(partitions, cells, net_cfg, passthrough);

    // Degraded run: the victim's proxy swallows every byte.
    let mut schedules = vec![ChaosSchedule::blackhole_at(SEED, Duration::ZERO)];
    schedules.extend((1..NODES as u64).map(ChaosSchedule::passthrough));
    let (degraded, blackholed) = measured_run(partitions, cells, net_cfg, schedules);

    assert_eq!(
        degraded.result.counts_by_kind, healthy.result.counts_by_kind,
        "degraded run returned wrong values"
    );
    assert_eq!(degraded.result.total_cells, partitions * cells);
    assert!(degraded.failovers > 0, "dead replica caused no failover");
    assert!(blackholed > 0, "the blackhole swallowed nothing");

    let mut healthy_ms = [0.0f64; 4];
    let mut degraded_ms = [0.0f64; 4];
    print_stages("healthy ", &healthy, &mut healthy_ms);
    print_stages("degraded", &degraded, &mut degraded_ms);

    // Simulator replay of the same scenario.
    let mut cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    cfg.replication_factor = RF;
    cfg.replica_policy = ReplicaPolicy::Primary;
    cfg.failure_timeout = SimDuration::from_nanos(detection.as_nanos() as u64);
    let mut sim_data = data(partitions, cells, RF);
    let keys: Vec<_> = (0..partitions)
        .map(kvs_store::PartitionKey::from_id)
        .collect();
    let sim_healthy = run_query(&cfg, &mut sim_data, &keys);
    let mut failing_cfg = cfg.clone();
    failing_cfg.failures = vec![NodeFailure {
        node: VICTIM,
        at: SimDuration::ZERO,
    }];
    let mut sim_data = data(partitions, cells, RF);
    let sim_failed = run_query(&failing_cfg, &mut sim_data, &keys);

    let measured_delta =
        degraded.result.makespan.as_millis_f64() - healthy.result.makespan.as_millis_f64();
    let predicted_delta =
        sim_failed.makespan.as_millis_f64() - sim_healthy.makespan.as_millis_f64();
    let relative_error = (measured_delta - predicted_delta).abs() / predicted_delta.max(1e-9);
    println!(
        "degradation: measured {} vs simulated {}  ({} relative error)",
        fmt_ms(measured_delta),
        fmt_ms(predicted_delta),
        format_args!("{:.0}%", relative_error * 100.0)
    );
    println!(
        "sim failovers {}  measured failovers {}",
        sim_failed.failovers, degraded.failovers
    );

    let mut csv = Csv::new(
        "chaos_drill",
        &[
            "run",
            "makespan_ms",
            "master_to_slave_ms",
            "in_queue_ms",
            "in_db_ms",
            "slave_to_master_ms",
            "failovers",
            "suspected_dead",
            "retry_wait_ms",
            "blackholed_frames",
            "degradation_ms",
            "sim_degradation_ms",
            "relative_error",
        ],
    );
    for (run, report, stage_ms, holes) in [
        ("healthy", &healthy, &healthy_ms, 0u64),
        ("degraded", &degraded, &degraded_ms, blackholed),
    ] {
        csv.row(&[
            &run,
            &format!("{:.4}", report.result.makespan.as_millis_f64()),
            &format!("{:.4}", stage_ms[0]),
            &format!("{:.4}", stage_ms[1]),
            &format!("{:.4}", stage_ms[2]),
            &format!("{:.4}", stage_ms[3]),
            &report.failovers,
            // "+"-joined so a multi-node list stays one CSV cell.
            &report
                .suspected_dead
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            &format!("{:.4}", report.retry_wait_ms),
            &holes,
            &format!("{measured_delta:.4}"),
            &format!("{predicted_delta:.4}"),
            &format!("{relative_error:.4}"),
        ]);
    }
    csv.finish();

    // ---- Scenario 2: straggling replica, hedged reads. ----
    let straggler_partitions = env_u64("KVSCALE_DRILL_STRAGGLER_PARTITIONS", 240).max(100);
    println!(
        "\nstraggler: node {VICTIM} responses held {STRAGGLE_MS} ms with p = {STRAGGLE_P}, \
         rf = {STRAGGLER_RF}, {straggler_partitions} requests arriving every \
         {} ms; hedge after {HEDGE_AFTER_MS} ms\n",
        ARRIVAL_GAP_NS / 1_000_000
    );
    // Calibration: a straggler-free run through the same proxies
    // harvests the leg-latency pool the sim resamples.
    let calibration = straggler_measured(straggler_partitions, cells, false, None);
    let legs: Vec<f64> = calibration
        .result
        .traces
        .iter()
        .map(|t| t.total().as_millis_f64())
        .collect();
    let hedge = Some(HedgeConfig {
        quantile: 0.95,
        min_delay: Duration::from_millis(HEDGE_AFTER_MS),
    });
    let plain = straggler_measured(straggler_partitions, cells, true, None);
    let hedged = straggler_measured(straggler_partitions, cells, true, hedge);
    assert!(plain.result.coverage.is_complete(), "plain run lost data");
    assert!(hedged.result.coverage.is_complete(), "hedged run lost data");
    assert_eq!(
        plain.result.counts_by_kind, hedged.result.counts_by_kind,
        "hedged run returned different values"
    );
    let sim_plain = straggler_simulated(straggler_partitions, cells, &legs, None);
    let sim_hedged = straggler_simulated(straggler_partitions, cells, &legs, hedge);
    assert!(
        sim_hedged.result.coverage.is_complete(),
        "simulated run lost data"
    );
    assert_eq!(
        sim_hedged.result.counts_by_kind, hedged.result.counts_by_kind,
        "the simulated replay returned different values"
    );

    let p99 = [
        p99_ms(&plain.result.traces),
        p99_ms(&hedged.result.traces),
        p99_ms(&sim_plain.result.traces),
        p99_ms(&sim_hedged.result.traces),
    ];
    let measured_improvement = 1.0 - p99[1] / p99[0];
    let sim_improvement = 1.0 - p99[3] / p99[2];
    let improvement_error =
        (measured_improvement - sim_improvement).abs() / sim_improvement.max(1e-9);
    println!(
        "measured p99: {} → {}  ({:.0}% cut, {} hedges, {} won, {:.1}% extra load)",
        fmt_ms(p99[0]),
        fmt_ms(p99[1]),
        measured_improvement * 100.0,
        hedged.hedges_sent,
        hedged.hedges_won,
        hedged.hedge_extra_load() * 100.0
    );
    println!(
        "simulated p99: {} → {}  ({:.0}% cut, {} hedges, {} won)",
        fmt_ms(p99[2]),
        fmt_ms(p99[3]),
        sim_improvement * 100.0,
        sim_hedged.hedges_sent,
        sim_hedged.hedges_won
    );
    println!(
        "p99 improvement: measured {:.0}% vs simulated {:.0}%  ({:.0}% relative error)",
        measured_improvement * 100.0,
        sim_improvement * 100.0,
        improvement_error * 100.0
    );
    assert!(
        measured_improvement >= 0.30,
        "hedging failed the acceptance bar: {:.0}% p99 cut",
        measured_improvement * 100.0
    );
    assert!(
        improvement_error <= 0.25,
        "measured hedging benefit diverges from the simulator's: \
         {measured_improvement:.2} vs {sim_improvement:.2}"
    );

    let mut csv = Csv::new(
        "chaos_drill_straggler",
        &[
            "run",
            "p99_ms",
            "hedges_sent",
            "hedges_won",
            "improvement",
            "improvement_error",
        ],
    );
    for (run, p99_ms, sent, won, improvement) in [
        ("measured_plain", p99[0], 0, 0, 0.0),
        (
            "measured_hedged",
            p99[1],
            hedged.hedges_sent,
            hedged.hedges_won,
            measured_improvement,
        ),
        ("sim_plain", p99[2], 0, 0, 0.0),
        (
            "sim_hedged",
            p99[3],
            sim_hedged.hedges_sent,
            sim_hedged.hedges_won,
            sim_improvement,
        ),
    ] {
        csv.row(&[
            &run,
            &format!("{p99_ms:.4}"),
            &sent,
            &won,
            &format!("{improvement:.4}"),
            &format!("{improvement_error:.4}"),
        ]);
    }
    csv.finish();

    json::write_report(&json::report(
        "chaos",
        obj(vec![
            ("nodes", int(NODES as u64)),
            ("rf", int(RF as u64)),
            ("partitions", int(partitions)),
            ("cells", int(cells)),
            ("straggler_partitions", int(straggler_partitions)),
            ("straggle_ms", int(STRAGGLE_MS)),
            ("straggle_p", num(STRAGGLE_P)),
            ("hedge_after_ms", int(HEDGE_AFTER_MS)),
            ("seed", int(SEED)),
        ]),
        obj(vec![
            (
                "blackhole",
                obj(vec![
                    (
                        "measured_healthy_ms",
                        num(healthy.result.makespan.as_millis_f64()),
                    ),
                    (
                        "measured_degraded_ms",
                        num(degraded.result.makespan.as_millis_f64()),
                    ),
                    ("measured_degradation_ms", num(measured_delta)),
                    ("sim_degradation_ms", num(predicted_delta)),
                    ("relative_error", num(relative_error)),
                    ("failovers", int(degraded.failovers)),
                    ("blackholed_frames", int(blackholed)),
                ]),
            ),
            (
                "straggler",
                obj(vec![
                    ("measured_plain_p99_ms", num(p99[0])),
                    ("measured_hedged_p99_ms", num(p99[1])),
                    ("sim_plain_p99_ms", num(p99[2])),
                    ("sim_hedged_p99_ms", num(p99[3])),
                    ("measured_improvement", num(measured_improvement)),
                    ("sim_improvement", num(sim_improvement)),
                    ("improvement_error", num(improvement_error)),
                    ("hedges_sent", int(hedged.hedges_sent)),
                    ("hedges_won", int(hedged.hedges_won)),
                ]),
            ),
        ]),
    ))
    .expect("write BENCH_chaos.json");
}
