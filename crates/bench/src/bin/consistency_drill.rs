//! consistency_drill — the consistency–latency–staleness grid of the
//! replicated write path, on two clocks.
//!
//! For every cell of rf ∈ {2, 3} × consistency ∈ {ONE, QUORUM, ALL} the
//! drill runs the *same* seeded 50/50 read/write plan through the *same*
//! coordinator ([`kvs_cluster::Coordinator`]) twice:
//!
//! * **sockets** — a 3-node loopback cluster behind per-node
//!   [`ChaosProxy`]s injecting seeded master→slave delay faults, driven
//!   by `NetMaster::run_mixed` on the host's wall clock;
//! * **sim** — [`kvs_cluster::replication::simulate`], the seeded
//!   simulated network, fed leg-latency samples harvested from a healthy
//!   (passthrough-proxied) calibration run plus the same delay fault
//!   parameters.
//!
//! The two worlds differ only in the clock and the network, so any gap
//! between them is a modelling gap, not a second implementation drifting.
//! The PCAP-style story the grid tells: ONE acks fast and serves stale
//! reads while a delayed replica lags; QUORUM's overlapping majorities
//! keep acknowledged writes visible at a latency set by the 2nd-fastest
//! replica; ALL reads are never stale but pay the slowest leg. The drill
//! asserts the structural invariants (ALL staleness = 0 in both worlds,
//! no failed operations, every write acked, no acknowledged-write loss in
//! the sim's audit) and the acceptance gate: sim and sockets agree on
//! QUORUM write p99 within 25% relative error at both replication
//! factors.
//!
//! Knobs (environment):
//! - `KVSCALE_CONS_OPS` — operations per cell (default 600)
//! - `KVSCALE_CONS_PARTITIONS` — partitions (default 24)
//! - `KVSCALE_CONS_GAP_NS` — open-loop arrival gap (default 2 ms)
//! - `KVSCALE_CONS_DELAY_MS` — injected delay (default 20 ms)
//! - `KVSCALE_CONS_DELAY_PCT` — per-frame delay probability (default 12)
//! - `KVSCALE_CONS_SEED` — master seed (default 0xC0515)
//!
//! Output: a per-cell table, `target/figures/consistency_drill.csv` and
//! the schema-versioned `target/figures/BENCH_consistency.json`.

use kvs_bench::json::{self, int, num, obj, s, Value};
use kvs_bench::{banner, fmt_ms, Csv};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::replication::simulate;
use kvs_cluster::{ClusterData, Consistency, DelayFault, ReplicationSimConfig, Route};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    MixedOp, MixedOutcome, MixedPlan, NetConfig, NetMaster, NetServerConfig, WriteOptions,
};
use kvs_store::{Cell, TableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const NODES: u32 = 3;
const CELLS_PER_PARTITION: u64 = 8;
const KINDS: u8 = 4;
const CALIBRATION_OPS: usize = 200;
const QUORUM_P99_REL_ERR: f64 = 0.25;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One op of the seeded schedule, world-agnostic.
#[derive(Debug, Clone, Copy)]
struct DrillOp {
    partition: u64,
    write: bool,
}

/// The seeded 50/50 read/write schedule every cell replays.
fn schedule(ops: usize, partitions: u64, seed: u64) -> Vec<DrillOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_5C11D);
    (0..ops)
        .map(|_| DrillOp {
            partition: rng.gen_range(0..partitions),
            write: rng.gen_bool(0.5),
        })
        .collect()
}

fn net_cfg() -> NetConfig {
    NetConfig {
        timeout: Duration::from_millis(250),
        ..NetConfig::default()
    }
}

/// Lowers the schedule to mixed plans against the data's routes.
fn plans_for(sched: &[DrillOp], routes: &[Route], cl: Consistency) -> Vec<MixedPlan> {
    sched
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let route = routes[op.partition as usize].clone();
            let op = if op.write {
                MixedOp::Write {
                    // Fresh clustering keys far above the seed data, so
                    // writes accumulate instead of overwriting.
                    cells: vec![Cell::new(
                        2_000_000 + i as u64,
                        (i % KINDS as usize) as u8,
                        vec![0xC5; 16],
                    )],
                }
            } else {
                MixedOp::Read
            };
            MixedPlan {
                route,
                op,
                consistency: cl,
            }
        })
        .collect()
}

/// Runs `sched` at `cl` in the socket world — spawn an rf-`rf` cluster,
/// wrap it in chaos proxies, drive the plan, tear down — and returns the
/// outcome with the plan and arrival offsets the sim replays.
fn socket_world(
    sched: &[DrillOp],
    partitions: u64,
    (rf, cl): (usize, Consistency),
    gap_ns: u64,
    schedules: Vec<ChaosSchedule>,
) -> (MixedOutcome, Vec<MixedPlan>, Vec<u64>) {
    let cells = uniform_partitions(partitions, CELLS_PER_PARTITION, KINDS);
    let data = ClusterData::load(NODES, rf, TableOptions::default(), cells);
    let plans = plans_for(sched, &data.routes(), cl);
    let arrivals: Vec<u64> = (0..plans.len() as u64).map(|i| i * gap_ns).collect();
    let (cluster, _routes) =
        spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
    let (proxies, proxied) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies spawn");
    let mut master = NetMaster::connect(&proxied, net_cfg()).expect("master connects");
    let out = master
        .run_mixed(&plans, Some(&arrivals), &WriteOptions::default())
        .expect("mixed run succeeds");
    master.shutdown();
    for proxy in proxies {
        proxy.shutdown();
    }
    cluster.shutdown();
    (out, plans, arrivals)
}

fn p99(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    kvs_simcore::stats::percentile_sorted(&v, 0.99)
}

fn stale_fraction(o: &MixedOutcome) -> f64 {
    if o.reads == 0 {
        0.0
    } else {
        o.stale_reads as f64 / o.reads as f64
    }
}

fn world_obj(o: &MixedOutcome) -> Value {
    obj(vec![
        ("writes", json::latency_summary_ms(&o.write_latency_ms)),
        ("reads", json::latency_summary_ms(&o.read_latency_ms)),
        ("stale_read_fraction", num(stale_fraction(o))),
        ("writes_acked", int(o.writes_acked)),
        ("stale_reads", int(o.stale_reads)),
        ("divergent_reads", int(o.divergent_reads)),
        ("read_repairs", int(o.read_repairs)),
        ("hints_queued", int(o.hints_queued)),
        ("busy_retries", int(o.busy_retries)),
        ("lost_acked_writes", int(o.lost_acked_writes)),
    ])
}

fn main() {
    let ops = env_u64("KVSCALE_CONS_OPS", 600).max(50) as usize;
    let partitions = env_u64("KVSCALE_CONS_PARTITIONS", 24).clamp(4, 4096);
    let gap_ns = env_u64("KVSCALE_CONS_GAP_NS", 2_000_000).max(1);
    let delay_ms = env_u64("KVSCALE_CONS_DELAY_MS", 20).max(1);
    let delay_pct = env_u64("KVSCALE_CONS_DELAY_PCT", 12).clamp(1, 90);
    let seed = env_u64("KVSCALE_CONS_SEED", 0xC0515);
    let delay_p = delay_pct as f64 / 100.0;
    banner(
        "consistency_drill",
        "ONE/QUORUM/ALL under seeded delay faults, sim vs sockets",
    );
    println!(
        "\n{ops} ops/cell over {partitions} partitions, {NODES} nodes, arrivals every \
         {} µs, delay {delay_ms} ms at {delay_pct}% (master→slave), seed {seed:#x}\n",
        gap_ns / 1_000
    );

    let sched = schedule(ops, partitions, seed);
    let writes_in_sched = sched.iter().filter(|o| o.write).count() as u64;

    // --- Calibration: a healthy rf = 1 run through passthrough proxies
    // harvests the leg-latency pool the sim samples from. Proxies stay in
    // the loop so the calibrated legs include the extra hop the faulty
    // cells also pay.
    let passthrough: Vec<ChaosSchedule> = (0..NODES as u64)
        .map(|n| ChaosSchedule::passthrough(seed ^ n))
        .collect();
    let cal_sched = schedule(CALIBRATION_OPS, partitions, seed ^ 0xCA11B);
    let one = (1, Consistency::One);
    let (cal, _, _) = socket_world(&cal_sched, partitions, one, 200_000, passthrough);
    assert_eq!(
        (cal.reads_failed, cal.writes_failed),
        (0, 0),
        "calibration must be failure-free: {cal:?}"
    );
    let legs = [cal.read_latency_ms, cal.write_latency_ms].concat();
    println!(
        "calibration: {} legs harvested, p99 {}\n",
        legs.len(),
        fmt_ms(p99(&legs))
    );

    let sim_cfg = ReplicationSimConfig {
        seed,
        leg_latency_ms: legs.clone(),
        delay: Some(DelayFault {
            probability: delay_p,
            extra_ms: delay_ms as f64,
        }),
        down: Vec::new(),
        timeout_ms: net_cfg().timeout.as_secs_f64() * 1e3,
    };
    let mut csv = Csv::new(
        "consistency_drill",
        &[
            "rf",
            "consistency",
            "world",
            "write_p99_ms",
            "read_p99_ms",
            "stale_fraction",
            "writes_acked",
            "read_repairs",
        ],
    );
    let mut cells: Vec<Value> = Vec::new();
    let mut quorum_errs: Vec<(usize, f64)> = Vec::new();

    for rf in [2usize, 3] {
        for cl in [Consistency::One, Consistency::Quorum, Consistency::All] {
            let schedules: Vec<ChaosSchedule> = (0..NODES as u64)
                .map(|n| ChaosSchedule {
                    seed: seed ^ (rf as u64) << 8 ^ n,
                    rules: vec![ChaosRule {
                        direction: ChaosDirection::ToSlave,
                        action: FaultAction::Delay(Duration::from_millis(delay_ms)),
                        probability: delay_p,
                        after_frame: 0,
                        until_frame: None,
                    }],
                    blackhole_from: None,
                })
                .collect();
            let (sock, plans, at) = socket_world(&sched, partitions, (rf, cl), gap_ns, schedules);
            let sim = simulate(&sim_cfg, &plans, Some(&at));
            assert_eq!(sim.lost_acked_writes, 0, "the sim audit finds no lost acks");
            for (world, o) in [("sockets", &sock), ("sim", &sim)] {
                assert_eq!(
                    (o.reads_failed, o.writes_failed),
                    (0, 0),
                    "rf {rf} {} {world} must be failure-free under delay-only faults: {o:?}",
                    cl.name()
                );
                assert_eq!(
                    o.writes_acked,
                    writes_in_sched,
                    "rf {rf} {} {world}",
                    cl.name()
                );
                if cl == Consistency::All {
                    assert_eq!(
                        o.stale_reads, 0,
                        "ALL reads cover every replica and can never be stale ({world})"
                    );
                }
                let (wp99, rp99) = (p99(&o.write_latency_ms), p99(&o.read_latency_ms));
                let stale = stale_fraction(o);
                println!(
                    "rf {rf} {:<6} {world:<8} write p99 {:>9}  read p99 {:>9}  stale {:>5.1}%  \
                     repairs {}",
                    cl.name(),
                    fmt_ms(wp99),
                    fmt_ms(rp99),
                    stale * 100.0,
                    o.read_repairs,
                );
                csv.row(&[
                    &rf,
                    &cl.name(),
                    &world,
                    &format!("{wp99:.4}"),
                    &format!("{rp99:.4}"),
                    &format!("{stale:.4}"),
                    &o.writes_acked,
                    &o.read_repairs,
                ]);
            }
            if cl == Consistency::Quorum {
                let (sock_wp99, sim_wp99) =
                    (p99(&sock.write_latency_ms), p99(&sim.write_latency_ms));
                quorum_errs.push((rf, (sim_wp99 - sock_wp99).abs() / sock_wp99.max(1e-9)));
            }
            cells.push(obj(vec![
                ("rf", int(rf as u64)),
                ("consistency", s(cl.name())),
                ("sockets", world_obj(&sock)),
                ("sim", world_obj(&sim)),
            ]));
        }
    }

    // --- Acceptance gate: the two clocks agree on QUORUM write p99 at
    // both replication factors.
    println!();
    let mut agreement: Vec<Value> = Vec::new();
    for (rf, rel) in &quorum_errs {
        println!("QUORUM write-p99 sim-vs-sockets relative error at rf {rf}: {rel:.3}");
        agreement.push(obj(vec![
            ("rf", int(*rf as u64)),
            ("write_p99_rel_err", num(*rel)),
            ("bound", num(QUORUM_P99_REL_ERR)),
        ]));
        assert!(
            *rel <= QUORUM_P99_REL_ERR,
            "QUORUM p99 disagreement at rf {rf}: {rel:.3} > {QUORUM_P99_REL_ERR}"
        );
    }
    json::write_report(&json::report(
        "consistency",
        obj(vec![
            ("ops_per_cell", int(ops as u64)),
            ("partitions", int(partitions)),
            ("nodes", int(NODES as u64)),
            ("replication_factors", Value::Arr(vec![int(2), int(3)])),
            ("arrival_gap_ns", int(gap_ns)),
            ("delay_ms", int(delay_ms)),
            ("delay_probability", num(delay_p)),
            ("seed", int(seed)),
            ("calibration_ops", int(CALIBRATION_OPS as u64)),
        ]),
        obj(vec![
            (
                "calibration",
                obj(vec![
                    ("legs", int(legs.len() as u64)),
                    ("leg_latency", json::latency_summary_ms(&legs)),
                ]),
            ),
            ("cells", Value::Arr(cells)),
            ("quorum_agreement", Value::Arr(agreement)),
        ]),
    ))
    .expect("write BENCH_consistency.json");
    csv.finish();
}
