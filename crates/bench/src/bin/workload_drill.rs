//! workload_drill — the YCSB-style mixes and the surrogate-model DHT
//! scenario, on both execution engines.
//!
//! For each of the four standard mixes (`kvs_workloads::ycsb`) the drill
//! generates one seeded operation stream and runs the *same* arrival
//! schedule twice. The simulated world (`cluster::sim`, paper cost
//! model, simulated milliseconds) prices the read-path projection
//! (`expand_requests`): every leg shaped as a request, RMW as two
//! sequential rounds. The measured world lowers the stream to *typed*
//! legs (`lower_ops`) and issues them over loopback sockets through the
//! replicated write path (`NetMaster::run_mixed`): reads stay read
//! frames, updates and inserts become real LWW `Write` frames, RMWs a
//! single `Rmw` frame — no read-path emulation anywhere. Per-operation
//! latency re-aggregates the legs: scans take the max of their fan-out;
//! in the sim world an RMW is the sum of its two rounds, on the wire it
//! is its one frame. The two worlds' absolute latencies differ by
//! design — the simulator charges 2010-era Cassandra service times, the
//! sockets pay this machine's loopback — so the drill reports both
//! rather than asserting closeness; the acceptance cross-checks where
//! the comparison *is* apples-to-apples live in
//! `crates/net/tests/workload_mix.rs` (straggler p99) and the
//! consistency drill (`consistency_drill`, QUORUM p99 sim-vs-sockets).
//!
//! The surrogate-DHT scenario (`kvs_workloads::surrogate`) then runs the
//! same seeded walk against the RAM table and the durable tier,
//! reporting the hit-rate curve and the `ReadReceipt` disk-vs-cache
//! split as the table fills.
//!
//! Knobs (environment):
//! - `KVSCALE_WL_OPS` — operations per mix (default 1200)
//! - `KVSCALE_WL_KEYS` — initial keyspace size (default 256)
//! - `KVSCALE_WL_NODES` — slave servers (default 3)
//! - `KVSCALE_WL_GAP_NS` — open-loop arrival gap (default 250 µs)
//! - `KVSCALE_WL_SEED` — master seed (default 0xD87)
//!
//! Output: per-mix tables, `target/figures/workload_drill.csv` and the
//! schema-versioned `target/figures/BENCH_workloads.json`.

use kvs_bench::json::{self, int, num, obj, s, Value};
use kvs_bench::{banner, env_u64, fmt_ms, Csv};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::sim::run_query_paced;
use kvs_cluster::Consistency;
use kvs_cluster::{ClusterConfig, ClusterData};
use kvs_net::{
    spawn_local_cluster, MixedOp, MixedOutcome, MixedPlan, NetConfig, NetMaster, NetServerConfig,
    Route, WriteOptions,
};
use kvs_simcore::SimDuration;
use kvs_stages::{RequestTrace, Stage};
use kvs_store::{Cell, CostModel, PartitionKey, Table, TableOptions};
use kvs_workloads::surrogate::{run_surrogate, SurrogateConfig, SurrogateOutcome};
use kvs_workloads::ycsb::{
    expand_requests, generate_ops, lower_ops, max_keyspace, standard_mixes, Leg, LegKind, Op,
    OpKind,
};
use std::collections::HashMap;
use std::time::Instant;

const CELLS_PER_PARTITION: u64 = 32;
const KINDS: u8 = 4;

/// Re-aggregates the sim world's per-request latencies into
/// per-operation latencies: max over a fan-out (scan), sum over
/// sequential legs (RMW — the read-path projection prices it as two
/// rounds).
fn op_latencies_ms(ops: &[Op], op_of_request: &[usize], traces: &[RequestTrace]) -> Vec<f64> {
    let mut per_op = vec![0.0f64; ops.len()];
    for trace in traces {
        let req_ix = trace.request_id as usize;
        let op_ix = op_of_request[req_ix];
        let ms = trace.total().as_millis_f64();
        match ops[op_ix].kind {
            OpKind::ReadModifyWrite => per_op[op_ix] += ms,
            _ => per_op[op_ix] = per_op[op_ix].max(ms),
        }
    }
    per_op
}

/// Mean per-stage milliseconds of a run, in `Stage::ALL` order.
fn stage_means(report: &kvs_stages::StageReport) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        if let Some(stats) = report.per_stage_ms.get(&stage) {
            out[i] = stats.mean();
        }
    }
    out
}

fn stages_obj(ms: &[f64; 4]) -> Value {
    obj(vec![
        ("master_to_slave", num(ms[0])),
        ("in_queue", num(ms[1])),
        ("in_db", num(ms[2])),
        ("slave_to_master", num(ms[3])),
    ])
}

fn world_obj(latencies: &[f64], stages: &[f64; 4], throughput_ops_s: f64) -> Value {
    obj(vec![
        ("latency", json::latency_summary_ms(latencies)),
        ("stages_ms", stages_obj(stages)),
        ("throughput_ops_s", num(throughput_ops_s)),
    ])
}

/// The measured world's JSON: latency plus the write-path counters that
/// replace the read-only stage breakdown (`run_mixed` coordinates at a
/// consistency level instead of tracing the four stages).
fn socket_world_obj(latencies: &[f64], mixed: &MixedOutcome, throughput_ops_s: f64) -> Value {
    obj(vec![
        ("latency", json::latency_summary_ms(latencies)),
        ("throughput_ops_s", num(throughput_ops_s)),
        ("reads", int(mixed.reads)),
        ("writes_acked", int(mixed.writes_acked)),
        ("stale_reads", int(mixed.stale_reads)),
        ("read_repairs", int(mixed.read_repairs)),
        ("busy_retries", int(mixed.busy_retries)),
    ])
}

/// Turns a typed leg into its mixed-plan operation. Every write carries
/// one fresh 16-byte cell in a clustering range far above the seeded
/// data, so legs never overwrite each other or the pre-loaded cells.
fn leg_op(leg_ix: usize, leg: &Leg) -> MixedOp {
    let cell = || {
        Cell::new(
            1_000_000 + leg_ix as u64,
            (leg_ix % KINDS as usize) as u8,
            vec![0x57; 16],
        )
    };
    match leg.kind {
        LegKind::Read => MixedOp::Read,
        LegKind::Write => MixedOp::Write {
            cells: vec![cell()],
        },
        LegKind::Rmw => MixedOp::Rmw {
            cells: vec![cell()],
        },
    }
}

/// Zips the mixed outcome's completion-ordered latencies back onto the
/// legs (the coordinator is closed-loop, so successful reads complete in
/// plan order and acked writes likewise), then re-aggregates per
/// operation: max over a scan's fan-out, single leg otherwise.
/// Requires a failure-free run — the drill asserts that.
fn op_latencies_from_mixed(ops: &[Op], legs: &[Leg], mixed: &MixedOutcome) -> Vec<f64> {
    let mut per_op = vec![0.0f64; ops.len()];
    let mut reads = mixed.read_latency_ms.iter();
    let mut writes = mixed.write_latency_ms.iter();
    for leg in legs {
        let ms = match leg.kind {
            LegKind::Read => *reads.next().expect("one read latency per read leg"),
            LegKind::Write | LegKind::Rmw => {
                *writes.next().expect("one write latency per write leg")
            }
        };
        per_op[leg.op_ix] = per_op[leg.op_ix].max(ms);
    }
    per_op
}

fn surrogate_obj(out: &SurrogateOutcome, wall_ms: f64) -> Value {
    let service: Vec<f64> = out.steps.iter().map(|s| s.service_ms).collect();
    // Decimate the curve so the JSON stays small at any step count.
    let stride = (out.hit_curve.len() / 32).max(1);
    let curve: Vec<Value> = out
        .hit_curve
        .iter()
        .step_by(stride)
        .map(|&h| num(h))
        .collect();
    obj(vec![
        ("steps", int(out.steps.len() as u64)),
        ("hits", int(out.hits)),
        ("misses", int(out.misses)),
        ("unique_keys", int(out.unique_keys)),
        ("hit_rate", num(out.hit_rate())),
        ("hit_rate_curve", Value::Arr(curve)),
        ("service", json::latency_summary_ms(&service)),
        ("simulated_total_ms", num(out.total_ms)),
        ("wall_ms", num(wall_ms)),
        ("disk_blocks_read", int(out.receipt.disk_blocks_read)),
        (
            "disk_block_cache_hits",
            int(out.receipt.disk_block_cache_hits),
        ),
        ("disk_bytes_read", int(out.receipt.disk_bytes_read)),
    ])
}

fn main() {
    let ops_per_mix = env_u64("KVSCALE_WL_OPS", 1_200).max(10);
    let initial_keys = env_u64("KVSCALE_WL_KEYS", 256).max(16);
    let nodes = env_u64("KVSCALE_WL_NODES", 3).clamp(1, 64) as u32;
    let gap_ns = env_u64("KVSCALE_WL_GAP_NS", 250_000).max(1);
    let seed = env_u64("KVSCALE_WL_SEED", 0xD87);
    banner(
        "workload_drill",
        "YCSB-style mixes on sim + sockets, surrogate-model DHT",
    );
    println!(
        "\n{ops_per_mix} ops/mix over {initial_keys}+ keys, {nodes} nodes, \
         arrivals every {} µs, seed {seed:#x}\n",
        gap_ns / 1_000
    );

    let keyspace = max_keyspace(initial_keys, ops_per_mix);
    let mut csv = Csv::new(
        "workload_drill",
        &[
            "mix",
            "world",
            "ops",
            "requests",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "throughput_ops_s",
        ],
    );
    let mut mix_results: Vec<Value> = Vec::new();

    for spec in standard_mixes() {
        let ops = generate_ops(&spec, initial_keys, ops_per_mix, seed);
        let requests = expand_requests(&ops);
        let op_of_request: Vec<usize> = requests.iter().map(|&(op, _)| op).collect();
        let keys: Vec<PartitionKey> = requests
            .iter()
            .map(|&(_, key)| PartitionKey::from_id(key))
            .collect();

        // --- Simulated world: paper cost model, same schedule. ---
        let mut cfg = ClusterConfig::paper_optimized_master(nodes).deterministic();
        cfg.replication_factor = 1;
        let mut sim_data = ClusterData::load(
            nodes,
            1,
            TableOptions::default(),
            uniform_partitions(keyspace, CELLS_PER_PARTITION, KINDS),
        );
        let arrivals_sim: Vec<SimDuration> = (0..keys.len() as u64)
            .map(|i| SimDuration::from_nanos(i * gap_ns))
            .collect();
        let sim = run_query_paced(&cfg, &mut sim_data, &keys, &arrivals_sim);
        let sim_lat = op_latencies_ms(&ops, &op_of_request, &sim.traces);
        let sim_tput = ops.len() as f64 / sim.makespan.as_secs_f64().max(1e-9);
        let sim_stages = stage_means(&sim.report);

        // --- Measured world: typed legs over loopback sockets through
        // the replicated write path, same arrival schedule. rf = 1, so
        // consistency ONE is also ALL; the point here is the real frame
        // kinds, not replication (consistency_drill sweeps rf and CL).
        let legs = lower_ops(&ops);
        let data = ClusterData::load(
            nodes,
            1,
            TableOptions::default(),
            uniform_partitions(keyspace, CELLS_PER_PARTITION, KINDS),
        );
        let (cluster, all_routes) =
            spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
        let route_of: HashMap<&[u8], &Route> =
            all_routes.iter().map(|r| (r.key.as_bytes(), r)).collect();
        let plans: Vec<MixedPlan> = legs
            .iter()
            .enumerate()
            .map(|(leg_ix, leg)| {
                let pk = PartitionKey::from_id(leg.key);
                let route = (*route_of.get(pk.as_bytes()).expect("key has a route")).clone();
                MixedPlan {
                    route,
                    op: leg_op(leg_ix, leg),
                    consistency: Consistency::One,
                }
            })
            .collect();
        let arrivals_ns: Vec<u64> = (0..plans.len() as u64).map(|i| i * gap_ns).collect();
        let mut master =
            NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
        let mixed = master
            .run_mixed(&plans, Some(&arrivals_ns), &WriteOptions::default())
            .expect("socket run succeeds");
        master.shutdown();
        cluster.shutdown();
        assert_eq!(
            (mixed.reads_failed, mixed.writes_failed),
            (0, 0),
            "healthy loopback run must not fail legs: {mixed:?}"
        );
        let net_lat = op_latencies_from_mixed(&ops, &legs, &mixed);
        let net_tput = ops.len() as f64 / (mixed.makespan_ms / 1e3).max(1e-9);

        let pctl = |lat: &[f64], q: f64| {
            let mut v = lat.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
            kvs_simcore::stats::percentile_sorted(&v, q)
        };
        println!(
            "{:<18} sim     p50 {:>9}  p95 {:>9}  p99 {:>9}  ({:.0} ops/s simulated)",
            spec.name,
            fmt_ms(pctl(&sim_lat, 0.50)),
            fmt_ms(pctl(&sim_lat, 0.95)),
            fmt_ms(pctl(&sim_lat, 0.99)),
            sim_tput,
        );
        println!(
            "{:<18} sockets p50 {:>9}  p95 {:>9}  p99 {:>9}  ({:.0} ops/s measured, \
             {} writes acked)",
            "",
            fmt_ms(pctl(&net_lat, 0.50)),
            fmt_ms(pctl(&net_lat, 0.95)),
            fmt_ms(pctl(&net_lat, 0.99)),
            net_tput,
            mixed.writes_acked,
        );
        for (world, lat, tput, nreq) in [
            ("sim", &sim_lat, sim_tput, requests.len()),
            ("sockets", &net_lat, net_tput, legs.len()),
        ] {
            csv.row(&[
                &spec.name,
                &world,
                &ops.len(),
                &nreq,
                &format!("{:.4}", pctl(lat, 0.50)),
                &format!("{:.4}", pctl(lat, 0.95)),
                &format!("{:.4}", pctl(lat, 0.99)),
                &format!("{tput:.0}"),
            ]);
        }
        mix_results.push(obj(vec![
            ("name", s(spec.name)),
            ("distribution", s(spec.dist.name())),
            ("ops", int(ops.len() as u64)),
            ("requests", int(requests.len() as u64)),
            ("legs", int(legs.len() as u64)),
            ("sim", world_obj(&sim_lat, &sim_stages, sim_tput)),
            ("sockets", socket_world_obj(&net_lat, &mixed, net_tput)),
        ]));
    }

    // --- Surrogate-model DHT: RAM table, then the durable tier. ---
    let scfg = SurrogateConfig::smoke();
    let cost = CostModel::paper_cassandra().deterministic();
    println!(
        "\nsurrogate DHT: {} steps over a {}^{} grid, kernel {} on a miss",
        scfg.steps,
        scfg.grid.cells_per_dim,
        scfg.grid.dims,
        fmt_ms(scfg.compute_ms)
    );

    let mut ram_table = Table::with_defaults();
    let ram_start = Instant::now();
    let ram = run_surrogate(&scfg, &mut ram_table, &cost, seed);
    let ram_wall_ms = ram_start.elapsed().as_secs_f64() * 1_000.0;

    let dir = kvs_store::TempDir::new("workload-surrogate");
    let (mut durable_table, _) = kvs_store::DurableTable::open(
        dir.path(),
        kvs_store::DurableOptions {
            fsync: kvs_store::FsyncPolicy::Never,
            ..kvs_store::DurableOptions::default()
        },
    )
    .expect("open durable surrogate store");
    let durable_start = Instant::now();
    let durable = run_surrogate(&scfg, &mut durable_table, &cost, seed);
    let durable_wall_ms = durable_start.elapsed().as_secs_f64() * 1_000.0;
    drop(durable_table);

    assert_eq!(
        ram.hits, durable.hits,
        "the two backends disagree on the hit sequence"
    );
    for (label, out, wall) in [
        ("ram", &ram, ram_wall_ms),
        ("durable", &durable, durable_wall_ms),
    ] {
        println!(
            "  {label:<8} hit-rate {:.1}% ({} hits / {} misses, {} unique keys), \
             first window {:.2} → last {:.2}, wall {}",
            out.hit_rate() * 100.0,
            out.hits,
            out.misses,
            out.unique_keys,
            out.hit_curve.first().copied().unwrap_or(0.0),
            out.hit_curve.last().copied().unwrap_or(0.0),
            fmt_ms(wall),
        );
    }

    json::write_report(&json::report(
        "workloads",
        obj(vec![
            ("ops_per_mix", int(ops_per_mix)),
            ("initial_keys", int(initial_keys)),
            ("provisioned_keys", int(keyspace)),
            ("cells_per_partition", int(CELLS_PER_PARTITION)),
            ("nodes", int(nodes as u64)),
            ("arrival_gap_ns", int(gap_ns)),
            ("seed", int(seed)),
            (
                "surrogate",
                obj(vec![
                    ("dims", int(scfg.grid.dims as u64)),
                    ("cells_per_dim", int(scfg.grid.cells_per_dim)),
                    ("steps", int(scfg.steps)),
                    ("walk_step", num(scfg.walk_step)),
                    ("jump_probability", num(scfg.jump_probability)),
                    ("compute_ms", num(scfg.compute_ms)),
                ]),
            ),
        ]),
        obj(vec![
            ("mixes", Value::Arr(mix_results)),
            (
                "surrogate",
                obj(vec![
                    ("ram", surrogate_obj(&ram, ram_wall_ms)),
                    ("durable", surrogate_obj(&durable, durable_wall_ms)),
                ]),
            ),
        ]),
    ))
    .expect("write BENCH_workloads.json");
    csv.finish();
}
