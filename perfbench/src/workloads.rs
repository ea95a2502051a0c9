//! The three workloads, each on a real loopback cluster driven closed-loop
//! through `NetMaster` with the Compact codec:
//!
//! * `agg_fine` — the paper's 100-element D8tree level: 10,000 partitions
//!   × 100 cells (4.6 KB each, below the 64 KiB column-index knee) on 4
//!   RAM nodes, rf=1; one client issues 1,000-key aggregation queries
//!   back to back. Master-bound (Formula 3): 1,000 requests overflow the
//!   4 × 64 queue slots, so codec, frame, socket and the master's
//!   issue/collect loop dominate.
//! * `agg_coarse` — the 10,000-element level: 100 partitions × 10,000
//!   cells (460 KB each, column-indexed) on the same cluster; 16-key
//!   queries. DB-bound (Formulas 4 and 6): the slowest slave sets T.
//! * `ycsb_a_durable` — 256 partitions × 1,500 cells (69 KB each, above
//!   the knee; ~18 MB per node against a 4 MiB block cache) on 3 durable
//!   nodes, rf=3, fsync on every WAL record; two clients, each with its
//!   own master, issue 50% QUORUM reads and 50% QUORUM single-cell
//!   updates on zipfian (θ=0.99) keys. The only workload on the write
//!   path: read-before-write of the version cell, WAL fsync per write,
//!   durable block reads and the store mutex under concurrency.

use crate::gen::{DataSet, Op, OpStream, QueryStream};
use crate::layers::{self, counts_match, durable_options, expected_counts, StageAcc, StoreCost};
use crate::stats::{median, percentile, tail_percentile, windowed_rate, Outcome, Tally};
use crate::trace::Tracer;
use crate::Metrics;
use kvs_cluster::{ClusterData, Codec, Consistency, QueryRequest, QueueStats};
use kvs_net::clock::wall_ns;
use kvs_net::frame::{Frame, FrameKind, FLAG_COMPACT};
use kvs_net::{
    spawn_local_cluster, spawn_local_cluster_durable, DurableClusterConfig, LocalCluster, MixedOp,
    MixedOutcome, MixedPlan, NetConfig, NetMaster, NetRunReport, NetServerConfig, Route,
    WriteOptions,
};
use kvs_stages::Stage;
use kvs_store::{PartitionKey, TableOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The last one is measured.
const SETUP_REPS: usize = 5;
/// Untimed load before the measured phase: connections, caches, JIT-free
/// but allocator- and page-cache-warm.
const WARMUP: Duration = Duration::from_secs(1);
/// Every `DETAIL_EVERY`-th traced query also records its requests and
/// their stages as spans (all traced queries feed the stage statistics).
const DETAIL_EVERY: usize = 8;
/// Updates of the write probe that gives the aggregation workloads their
/// `write_path.*` figures (enough for a p99 with ten samples beyond it).
const WRITE_PROBE_OPS: usize = 1_000;
/// Full-scan queries that give `ycsb_a_durable` its master and stage
/// figures after the measured phase.
const PROBE_QUERIES: usize = 20;
/// Keys the codec replay encodes and decodes.
const REPLAY_KEYS: usize = 2_000;

/// What one run produced.
pub struct Run {
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub tally: Tally,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

/// Everything the workloads share about one invocation.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: &'a mut Tracer,
    /// Scratch space for durable node directories.
    pub data_dir: &'a Path,
}

#[derive(Default)]
struct SetupTimes {
    generate: Vec<f64>,
    load: Vec<f64>,
    boot: Vec<f64>,
}

impl SetupTimes {
    /// Times one set-up, split at `t1` (generated) and `t2` (loaded).
    fn record(&mut self, tracer: &mut Tracer, t0: Instant, t1: Instant, t2: Instant) {
        let t3 = Instant::now();
        self.generate.push((t1 - t0).as_secs_f64());
        self.load.push((t2 - t1).as_secs_f64());
        self.boot.push((t3 - t2).as_secs_f64());
        let rep = tracer.push(0, "setup", tracer.offset_us(t0), tracer.offset_us(t3));
        for (name, a, b) in [
            ("setup.generate", t0, t1),
            ("setup.load", t1, t2),
            ("setup.boot", t2, t3),
        ] {
            tracer.push(rep, name, tracer.offset_us(a), tracer.offset_us(b));
        }
    }

    fn total_s(&self) -> f64 {
        let totals: Vec<f64> = (0..self.generate.len())
            .map(|i| self.generate[i] + self.load[i] + self.boot[i])
            .collect();
        median(&totals)
    }

    fn report(&self, m: &mut Metrics) {
        m.push(("setup.generate_s", median(&self.generate), "s"));
        m.push(("setup.load_s", median(&self.load), "s"));
        m.push(("setup.boot_s", median(&self.boot), "s"));
    }
}

/// The process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Routes indexed by partition id (the cluster lists them in key order,
/// and `PartitionKey::from_id` keeps numeric order).
fn check_route_order(routes: &[Route]) -> io::Result<()> {
    if routes
        .iter()
        .enumerate()
        .all(|(i, r)| r.key == PartitionKey::from_id(i as u64))
    {
        Ok(())
    } else {
        Err(io::Error::other("routes are not in partition-id order"))
    }
}

/// The partitions whose primary replica is `node`, in key order.
fn partitions_on(routes: &[Route], node: u32) -> Vec<usize> {
    (0..routes.len())
        .filter(|&i| routes[i].replicas.first() == Some(&node))
        .collect()
}

fn queue_delta(before: &QueueStats, after: &QueueStats, ops: u64, m: &mut Metrics) {
    let pushed = after.pushed - before.pushed;
    let busy = after.busy_rejections - before.busy_rejections;
    m.push(("queue.max_depth", after.max_depth as f64, "count"));
    m.push((
        "queue.admit_ratio",
        pushed as f64 / (pushed + busy).max(1) as f64,
        "ratio",
    ));
    m.push((
        "queue.busy_rejections_per_query",
        busy as f64 / ops.max(1) as f64,
        "count",
    ));
}

/// `(traced − untraced) / untraced` mean cycle time: the tracing overhead
/// measured inside the traced run, whose ops alternate traced/untraced.
fn overhead_frac(cycles: &[Vec<f64>; 2]) -> f64 {
    let (plain, traced) = (
        crate::stats::mean(&cycles[0]),
        crate::stats::mean(&cycles[1]),
    );
    (traced - plain) / plain
}

fn query_outcome(res: &io::Result<NetRunReport>) -> Outcome {
    match res {
        Ok(rep) if rep.result.coverage.is_complete() && rep.result.missed.is_empty() => {
            Outcome::Done
        }
        Ok(_) => Outcome::Partial,
        Err(e) if e.to_string().contains("expired") => Outcome::Refused,
        Err(_) => Outcome::Exhausted,
    }
}

/// The end-to-end metrics. `done_at` holds the completion times (seconds
/// into the measured phase) of the ops that completed, `lat` the read
/// calls' latencies.
fn e2e(
    m: &mut Metrics,
    setup: &SetupTimes,
    done_at: &[f64],
    keys_per_op: f64,
    lat: &[f64],
) -> io::Result<()> {
    if tail_percentile(lat.len()).is_none_or(|p| p < 90.0) {
        eprintln!(
            "warning: {} timed queries; p90 rests on fewer than ten samples",
            lat.len()
        );
    }
    m.push(("setup_s", setup.total_s(), "s"));
    m.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
    let ops_per_s = windowed_rate(done_at);
    m.push(("ops_per_s", ops_per_s, "1/s"));
    m.push(("keys_per_s", ops_per_s * keys_per_op, "1/s"));
    m.push(("query_p50_ms", median(lat), "ms"));
    m.push(("query_p90_ms", percentile(lat, 90.0), "ms"));
    Ok(())
}

/// Sizes of an aggregation workload.
pub struct AggSpec {
    pub partitions: u64,
    pub cells: u64,
    /// Partition keys per query.
    pub keys: usize,
}

pub const AGG_FINE: AggSpec = AggSpec {
    partitions: 10_000,
    cells: 100,
    keys: 1_000,
};

pub const AGG_COARSE: AggSpec = AggSpec {
    partitions: 100,
    cells: 10_000,
    keys: 16,
};

const AGG_NODES: u32 = 4;

struct AggCluster {
    data: DataSet,
    counts: Vec<crate::gen::Counts>,
    cluster: LocalCluster,
    routes: Vec<Route>,
    master: NetMaster,
}

impl AggCluster {
    fn boot(spec: &AggSpec, ctx: &mut Ctx, times: &mut SetupTimes) -> io::Result<AggCluster> {
        let t0 = Instant::now();
        let data = DataSet::generate(spec.partitions, spec.cells, ctx.seed);
        let counts = data.counts();
        let parts = data.partitions();
        let t1 = Instant::now();
        let cdata = ClusterData::load(AGG_NODES, 1, TableOptions::default(), parts);
        let t2 = Instant::now();
        let (cluster, routes) = spawn_local_cluster(cdata, NetServerConfig::default())?;
        let master = match NetMaster::connect(&cluster.addrs(), NetConfig::default()) {
            Ok(m) => m,
            Err(e) => {
                cluster.shutdown();
                return Err(e);
            }
        };
        times.record(ctx.tracer, t0, t1, t2);
        let c = AggCluster {
            data,
            counts,
            cluster,
            routes,
            master,
        };
        if let Err(e) = check_route_order(&c.routes) {
            c.shutdown();
            return Err(e);
        }
        Ok(c)
    }

    fn shutdown(self) {
        self.master.shutdown();
        self.cluster.shutdown();
    }
}

pub fn run_agg(spec: &AggSpec, ctx: &mut Ctx) -> io::Result<Run> {
    let mut times = SetupTimes::default();
    let mut c = AggCluster::boot(spec, ctx, &mut times)?;
    for _ in 1..SETUP_REPS {
        c.shutdown();
        c = AggCluster::boot(spec, ctx, &mut times)?;
    }
    let result = measure_agg(spec, ctx, &mut c, &times);
    c.shutdown();
    result
}

fn measure_agg(
    spec: &AggSpec,
    ctx: &mut Ctx,
    c: &mut AggCluster,
    times: &SetupTimes,
) -> io::Result<Run> {
    let tracing = ctx.tracer.is_on();
    let mut queries = QueryStream::new(ctx.seed, c.routes.len(), spec.keys);
    let mut violations = Vec::new();
    let check = |res: &io::Result<NetRunReport>, start: usize, violations: &mut Vec<String>| {
        if let Ok(rep) = res {
            let want = expected_counts(&c.counts, start..start + spec.keys);
            if query_outcome(res) == Outcome::Done
                && !counts_match(&rep.result.counts_by_kind, &want)
            {
                violations.push(format!(
                    "query over partitions {start}..{}: counts {:?}, expected {want:?}",
                    start + spec.keys,
                    rep.result.counts_by_kind
                ));
            }
        }
    };

    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        let s = queries.next_start();
        let res = c.master.run_query(&c.routes[s..s + spec.keys]);
        check(&res, s, &mut violations);
    }

    let q0 = c.cluster.queue_stats();
    let phase = ctx.tracer.open(0, "measure");
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    let mut acc = StageAcc::default();
    let mut cycles: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut done_at = Vec::new();
    let mut traced_queries = 0usize;
    let t_measure = Instant::now();
    let end = t_measure + Duration::from_secs(ctx.seconds);
    let mut i = 0u64;
    while Instant::now() < end {
        let traced = tracing && i % 2 == 1;
        i += 1;
        let t = Instant::now();
        let s = queries.next_start();
        let res = c.master.run_query(&c.routes[s..s + spec.keys]);
        let ms = ms_since(t);
        check(&res, s, &mut violations);
        let outcome = query_outcome(&res);
        tally.record(outcome);
        if outcome == Outcome::Done {
            lat.push(ms);
            done_at.push(t_measure.elapsed().as_secs_f64());
        }
        if let (true, Ok(rep)) = (traced, &res) {
            let span = ctx.tracer.close(phase, "query", t);
            let detail = traced_queries.is_multiple_of(DETAIL_EVERY);
            acc.absorb(rep, ctx.tracer, span, ctx.tracer.offset_us(t), detail);
            traced_queries += 1;
        }
        if tracing {
            cycles[traced as usize].push(ms_since(t));
        }
    }
    ctx.tracer.finish(phase);
    let q1 = c.cluster.queue_stats();

    let mut end_to_end = Metrics::new();
    e2e(&mut end_to_end, times, &done_at, spec.keys as f64, &lat)?;
    let mut per_layer = Metrics::new();
    if tracing {
        acc.report(&mut per_layer);
        check_stage_sum(&acc, &mut violations);
        let expect_in_db = spec.keys < 100;
        eprintln!(
            "stage split: largest stage {} ({}expected)",
            acc.largest_stage(),
            if (acc.largest_stage() == Stage::InDb) == expect_in_db {
                ""
            } else {
                "NOT "
            }
        );
        queue_delta(&q0, &q1, tally.attempted, &mut per_layer);

        // The write probe: single-cell updates at ONE through the same
        // write path ycsb_a_durable drives, on this workload's data.
        let updates = update_ops(ctx.seed, &c.data, WRITE_PROBE_OPS);
        let span = ctx.tracer.open(0, "probe.write");
        let mut probe = WriteFigures::default();
        for op in &updates {
            let t = Instant::now();
            let res = c.master.run_mixed(
                &[plan(&c.routes, op, &c.data, Consistency::One)],
                None,
                &WriteOptions::default(),
            );
            probe.absorb(&res, ms_since(t), &mut tally);
        }
        ctx.tracer.finish(span);

        let reads = replay_reads(ctx.seed, c.routes.len(), spec.keys);
        let node0 = partitions_on(&c.routes, 0);
        let (ram, _) = replays(ctx, &c.data, &node0, &reads, &updates, &mut per_layer)?;
        per_layer.push((
            "server.in_db_excess_us",
            acc.stage_mean_ms(Stage::InDb) * 1e3 - ram.get_us,
            "us",
        ));
        probe.report(ram.update_us, &mut per_layer);
        times.report(&mut per_layer);
        per_layer.push(("trace.overhead_frac", overhead_frac(&cycles), "ratio"));
    }
    Ok(Run {
        violations,
        tally,
        end_to_end,
        per_layer,
    })
}

/// The codec, `Table` and `DurableTable` replays on the workload's
/// messages and on `node_parts` of its data; returns the RAM and the
/// durable tier's store costs.
fn replays(
    ctx: &mut Ctx,
    data: &DataSet,
    node_parts: &[usize],
    reads: &[usize],
    updates: &[Op],
    m: &mut Metrics,
) -> io::Result<(StoreCost, StoreCost)> {
    let span = ctx.tracer.open(0, "replay.codec");
    layers::codec_replay(data, reads, updates, m);
    ctx.tracer.finish(span);
    let span = ctx.tracer.open(0, "replay.table");
    let ram = layers::table_replay(data, node_parts, reads, updates, m);
    ctx.tracer.finish(span);
    let span = ctx.tracer.open(0, "replay.durable");
    let replica = ctx.data_dir.join("replica");
    let durable = layers::durable_replay(&replica, data, node_parts, reads, updates, m)?;
    std::fs::remove_dir_all(&replica)?;
    ctx.tracer.finish(span);
    Ok((ram, durable))
}

fn check_stage_sum(acc: &StageAcc, violations: &mut Vec<String>) {
    let gap = acc.sum_gap_frac();
    if gap.is_nan() || gap > layers::STAGE_SUM_TOLERANCE {
        violations.push(format!(
            "stage means miss the mean request total by {:.3}% (tolerance {}%)",
            gap * 100.0,
            layers::STAGE_SUM_TOLERANCE * 100.0
        ));
    }
}

/// The first `n` updates of a seeded YCSB-A stream over `data`.
fn update_ops(seed: u64, data: &DataSet, n: usize) -> Vec<Op> {
    let cells = data.kinds[0].len() as u64;
    let mut ops = OpStream::new(seed, u64::MAX, data.partition_count(), cells);
    std::iter::from_fn(|| Some(ops.next_op()))
        .filter(|op| matches!(op, Op::Update { .. }))
        .take(n)
        .collect()
}

/// Partition keys of the workload's first queries, for the replays.
fn replay_reads(seed: u64, partitions: usize, keys: usize) -> Vec<usize> {
    let mut queries = QueryStream::new(seed, partitions, keys);
    let mut out = Vec::with_capacity(REPLAY_KEYS);
    while out.len() < REPLAY_KEYS {
        let s = queries.next_start();
        out.extend(s..s + keys);
    }
    out.truncate(REPLAY_KEYS);
    out
}

fn plan(routes: &[Route], op: &Op, data: &DataSet, consistency: Consistency) -> MixedPlan {
    MixedPlan {
        route: routes[op.key()].clone(),
        op: match op.cell(data) {
            None => MixedOp::Read,
            Some(cell) => MixedOp::Write { cells: vec![cell] },
        },
        consistency,
    }
}

/// Write-path counters and update latencies.
#[derive(Default)]
struct WriteFigures {
    update_ms: Vec<f64>,
    busy_retries: u64,
    read_repairs: u64,
    divergent_reads: u64,
    hints_queued: u64,
}

impl WriteFigures {
    /// Folds in one update's outcome.
    fn absorb(&mut self, res: &io::Result<MixedOutcome>, ms: f64, tally: &mut Tally) {
        match res {
            Ok(o) if o.writes_failed == 0 && o.reads_failed == 0 => {
                tally.record(Outcome::Done);
                self.update_ms.push(ms);
                self.counters(o);
            }
            Ok(o) => {
                tally.record(Outcome::Exhausted);
                self.counters(o);
            }
            Err(_) => tally.record(Outcome::Exhausted),
        }
    }

    fn counters(&mut self, o: &MixedOutcome) {
        self.busy_retries += o.busy_retries;
        self.read_repairs += o.read_repairs;
        self.divergent_reads += o.divergent_reads;
        self.hints_queued += o.hints_queued;
    }

    fn merge(&mut self, other: WriteFigures) {
        self.update_ms.extend(other.update_ms);
        self.busy_retries += other.busy_retries;
        self.read_repairs += other.read_repairs;
        self.divergent_reads += other.divergent_reads;
        self.hints_queued += other.hints_queued;
    }

    /// `store_update_us` is the serving tier's own store work per update.
    fn report(&self, store_update_us: f64, m: &mut Metrics) {
        let p50 = median(&self.update_ms);
        m.push(("write_path.busy_retries", self.busy_retries as f64, "count"));
        m.push(("write_path.read_repairs", self.read_repairs as f64, "count"));
        m.push((
            "write_path.divergent_reads",
            self.divergent_reads as f64,
            "count",
        ));
        m.push(("write_path.hints_queued", self.hints_queued as f64, "count"));
        m.push(("write_path.update_p50_ms", p50, "ms"));
        m.push((
            "write_path.update_p99_ms",
            percentile(&self.update_ms, 99.0),
            "ms",
        ));
        m.push((
            "write_path.update_excess_us",
            p50 * 1e3 - store_update_us,
            "us",
        ));
    }
}

const YCSB_PARTITIONS: u64 = 256;
const YCSB_CELLS: u64 = 1_500;
const YCSB_NODES: u32 = 3;
const YCSB_RF: usize = 3;
const YCSB_CLIENTS: u64 = 2;

struct YcsbCluster {
    data: DataSet,
    counts: Vec<crate::gen::Counts>,
    cluster: LocalCluster,
    routes: Vec<Route>,
    masters: Vec<NetMaster>,
    dir: PathBuf,
}

impl YcsbCluster {
    fn boot(ctx: &mut Ctx, rep: usize, times: &mut SetupTimes) -> io::Result<YcsbCluster> {
        let dir = ctx.data_dir.join(format!("cluster-{rep}"));
        let t0 = Instant::now();
        let data = DataSet::generate(YCSB_PARTITIONS, YCSB_CELLS, ctx.seed);
        let counts = data.counts();
        let parts = data.partitions();
        let t1 = Instant::now();
        let cdata = ClusterData::load(YCSB_NODES, YCSB_RF, TableOptions::default(), parts);
        let t2 = Instant::now();
        let dcfg = DurableClusterConfig {
            root: dir.clone(),
            store: durable_options(),
            wal_tail: 0,
        };
        let (cluster, routes) =
            spawn_local_cluster_durable(cdata, NetServerConfig::default(), dcfg)?;
        let mut masters = Vec::new();
        for client in 0..YCSB_CLIENTS {
            let cfg = NetConfig {
                seed: ctx.seed ^ client,
                ..NetConfig::default()
            };
            match NetMaster::connect(&cluster.addrs(), cfg) {
                Ok(m) => masters.push(m),
                Err(e) => {
                    masters.into_iter().for_each(NetMaster::shutdown);
                    cluster.shutdown();
                    return Err(e);
                }
            }
        }
        times.record(ctx.tracer, t0, t1, t2);
        let c = YcsbCluster {
            data,
            counts,
            cluster,
            routes,
            masters,
            dir,
        };
        if let Err(e) = check_route_order(&c.routes) {
            c.shutdown()?;
            return Err(e);
        }
        Ok(c)
    }

    fn shutdown(self) -> io::Result<()> {
        self.masters.into_iter().for_each(NetMaster::shutdown);
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.dir)
    }
}

/// One client's share of the YCSB-A run.
#[derive(Default)]
struct ClientOut {
    read_ms: Vec<f64>,
    writes: WriteFigures,
    tally: Tally,
    /// Completion times of the measured ops that completed, seconds into
    /// the measured phase.
    done_at: Vec<f64>,
    stale_reads: u64,
    /// Newest acknowledged version per partition, warm-up included.
    acked: BTreeMap<usize, u64>,
    /// Every partition read or written, warm-up included.
    touched: BTreeSet<usize>,
    /// `(start, end, is_update)` of each traced op.
    spans: Vec<(Instant, Instant, bool)>,
    cycles: [Vec<f64>; 2],
}

fn ycsb_client(
    master: &mut NetMaster,
    c: &YcsbCluster,
    mut ops: OpStream,
    measure_from: Instant,
    end: Instant,
    tracing: bool,
) -> ClientOut {
    let mut out = ClientOut::default();
    let wopts = WriteOptions::default();
    let mut i = 0u64;
    loop {
        let t = Instant::now();
        if t >= end {
            break;
        }
        let op = ops.next_op();
        let res = master.run_mixed(
            &[plan(&c.routes, &op, &c.data, Consistency::Quorum)],
            None,
            &wopts,
        );
        let ms = ms_since(t);
        out.touched.insert(op.key());
        if let Ok(o) = &res {
            out.stale_reads += o.stale_reads;
            if let Some(&(_, v)) = o.acked.last() {
                let newest = out.acked.entry(op.key()).or_insert(0);
                *newest = (*newest).max(v);
            }
        }
        if t < measure_from {
            continue;
        }
        let traced = tracing && i % 2 == 1;
        i += 1;
        let failed = out.tally.failed;
        match op {
            Op::Update { .. } => out.writes.absorb(&res, ms, &mut out.tally),
            Op::Read { .. } => match &res {
                Ok(o) if o.reads_failed == 0 => {
                    out.tally.record(Outcome::Done);
                    out.read_ms.push(ms);
                    out.writes.counters(o);
                }
                _ => out.tally.record(Outcome::Exhausted),
            },
        }
        if out.tally.failed == failed {
            out.done_at
                .push((Instant::now() - measure_from).as_secs_f64());
        }
        if traced {
            out.spans
                .push((t, Instant::now(), matches!(op, Op::Update { .. })));
        }
        if tracing {
            out.cycles[traced as usize].push(ms_since(t));
        }
    }
    out
}

/// One replica's answer: the partition's version and per-kind counts.
type ReplicaAnswer = (u64, BTreeMap<u8, u64>);

/// Reads `keys` from every replica over fresh connections — a reader
/// that shares no state with the clients' coordinators — and returns
/// each partition's replica responses as `(version, counts)`.
fn read_every_replica(
    c: &YcsbCluster,
    keys: impl Iterator<Item = usize>,
) -> io::Result<Vec<(usize, Vec<ReplicaAnswer>)>> {
    let codec = Codec::compact();
    let mut conns = Vec::new();
    for addr in c.cluster.addrs() {
        let s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        s.set_nodelay(true)?;
        conns.push(s);
    }
    let mut out = Vec::new();
    let mut id = 0u64;
    for key in keys {
        let mut answers = Vec::new();
        for &node in &c.routes[key].replicas {
            id += 1;
            let payload = codec.encode_request(&QueryRequest {
                request_id: id,
                partition: c.routes[key].key.clone(),
            });
            let conn = &mut conns[node as usize];
            loop {
                let now = wall_ns();
                Frame {
                    kind: FrameKind::Request,
                    flags: FLAG_COMPACT,
                    id,
                    stamps: [now, now, 0, 0],
                    deadline: 0,
                    payload: payload.clone(),
                }
                .write_to(conn)?;
                let reply = Frame::read_from(conn)?;
                match reply.kind {
                    FrameKind::Response if reply.id == id => {
                        let resp = codec
                            .decode_response(reply.payload)
                            .ok_or_else(|| io::Error::other("undecodable response"))?;
                        answers.push((resp.version, resp.counts));
                        break;
                    }
                    FrameKind::Busy => std::thread::sleep(Duration::from_millis(1)),
                    other => {
                        return Err(io::Error::other(format!(
                            "unexpected {other:?} frame for request {id}"
                        )))
                    }
                }
            }
        }
        out.push((key, answers));
    }
    Ok(out)
}

pub fn run_ycsb(ctx: &mut Ctx) -> io::Result<Run> {
    let mut times = SetupTimes::default();
    let mut c = YcsbCluster::boot(ctx, 0, &mut times)?;
    for rep in 1..SETUP_REPS {
        c.shutdown()?;
        c = YcsbCluster::boot(ctx, rep, &mut times)?;
    }
    let result = measure_ycsb(ctx, &mut c, &times);
    c.shutdown()?;
    result
}

fn measure_ycsb(ctx: &mut Ctx, c: &mut YcsbCluster, times: &SetupTimes) -> io::Result<Run> {
    let tracing = ctx.tracer.is_on();
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let end = measure_from + Duration::from_secs(ctx.seconds);
    let mut masters = std::mem::take(&mut c.masters);
    let (outs, q0, q1) = {
        let c = &*c;
        std::thread::scope(|s| {
            let clients: Vec<_> = masters
                .iter_mut()
                .enumerate()
                .map(|(client, master)| {
                    let ops = OpStream::new(ctx.seed, client as u64, c.routes.len(), YCSB_CELLS);
                    s.spawn(move || ycsb_client(master, c, ops, measure_from, end, tracing))
                })
                .collect();
            std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
            let q0 = c.cluster.queue_stats();
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let q1 = c.cluster.queue_stats();
            let outs: Vec<ClientOut> = clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (outs, q0, q1)
        })
    };
    c.masters = masters;

    let mut violations = Vec::new();
    let mut tally = Tally::default();
    let mut read_ms = Vec::new();
    let mut done_at = Vec::new();
    let mut writes = WriteFigures::default();
    let mut acked: BTreeMap<usize, u64> = BTreeMap::new();
    let mut touched = BTreeSet::new();
    let mut cycles: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let phase = ctx.tracer.push(
        0,
        "measure",
        ctx.tracer.offset_us(measure_from),
        ctx.tracer.offset_us(end),
    );
    for out in outs {
        if out.stale_reads > 0 {
            violations.push(format!("{} stale QUORUM reads", out.stale_reads));
        }
        tally.merge(out.tally);
        read_ms.extend(out.read_ms);
        done_at.extend(out.done_at);
        writes.merge(out.writes);
        for (k, v) in out.acked {
            let newest = acked.entry(k).or_insert(0);
            *newest = (*newest).max(v);
        }
        touched.extend(out.touched);
        for (a, b, update) in out.spans {
            let name = if update { "op.update" } else { "op.read" };
            ctx.tracer.push(
                phase,
                name,
                ctx.tracer.offset_us(a),
                ctx.tracer.offset_us(b),
            );
        }
        for (all, mine) in cycles.iter_mut().zip(&out.cycles) {
            all.extend(mine);
        }
    }
    for (label, n) in [
        ("reads", read_ms.len()),
        ("updates", writes.update_ms.len()),
    ] {
        if n < 1_000 {
            eprintln!("warning: only {n} timed {label}; fewer than 1000 per run");
        }
    }
    eprintln!(
        "read p99 {:.3} ms, update p50 {:.3} ms, update p99 {:.3} ms",
        percentile(&read_ms, 99.0),
        median(&writes.update_ms),
        percentile(&writes.update_ms, 99.0)
    );

    // The durability oracle: every partition a client touched, read from
    // every replica (consistency ALL), must hold a version at least as
    // new as any acknowledged write, and its unchanged per-kind counts.
    let span = ctx.tracer.open(0, "oracle.read_all");
    for (key, answers) in read_every_replica(c, touched.into_iter())? {
        let newest = answers.iter().map(|(v, _)| *v).max().unwrap_or(0);
        let acknowledged = acked.get(&key).copied().unwrap_or(0);
        if newest < acknowledged {
            violations.push(format!(
                "partition {key}: ALL read sees version {newest} < acknowledged {acknowledged}"
            ));
        }
        if let Some((_, got)) = answers
            .iter()
            .find(|(_, got)| !counts_match(got, &c.counts[key]))
        {
            violations.push(format!(
                "partition {key}: counts {got:?}, expected {:?}",
                c.counts[key]
            ));
        }
    }
    ctx.tracer.finish(span);

    let mut end_to_end = Metrics::new();
    e2e(&mut end_to_end, times, &done_at, 1.0, &read_ms)?;
    let mut per_layer = Metrics::new();
    if tracing {
        // Full-scan probe queries: the master and stage figures of the
        // durable read path, and one more count oracle.
        let mut acc = StageAcc::default();
        let span = ctx.tracer.open(0, "probe.query");
        let want = expected_counts(&c.counts, 0..c.routes.len());
        for q in 0..PROBE_QUERIES {
            let t = Instant::now();
            let res = c.masters[0].run_query(&c.routes);
            match &res {
                Ok(rep) if query_outcome(&res) == Outcome::Done => {
                    if !counts_match(&rep.result.counts_by_kind, &want) {
                        violations.push(format!("probe query {q}: wrong counts"));
                    }
                    let qspan = ctx.tracer.close(span, "query", t);
                    acc.absorb(
                        rep,
                        ctx.tracer,
                        qspan,
                        ctx.tracer.offset_us(t),
                        q.is_multiple_of(DETAIL_EVERY),
                    );
                }
                _ => violations.push(format!("probe query {q} failed")),
            }
        }
        ctx.tracer.finish(span);
        acc.report(&mut per_layer);
        queue_delta(&q0, &q1, tally.attempted, &mut per_layer);

        let mut stream = OpStream::new(ctx.seed, 0, c.routes.len(), YCSB_CELLS);
        let sample: Vec<Op> = (0..2 * REPLAY_KEYS).map(|_| stream.next_op()).collect();
        let reads: Vec<usize> = sample
            .iter()
            .filter(|o| matches!(o, Op::Read { .. }))
            .map(Op::key)
            .collect();
        let updates: Vec<Op> = sample
            .into_iter()
            .filter(|o| matches!(o, Op::Update { .. }))
            .collect();
        let all: Vec<usize> = (0..c.routes.len()).collect();
        let (_, durable) = replays(ctx, &c.data, &all, &reads, &updates, &mut per_layer)?;
        per_layer.push((
            "server.in_db_excess_us",
            acc.stage_mean_ms(Stage::InDb) * 1e3 - durable.get_us,
            "us",
        ));
        writes.report(durable.update_us, &mut per_layer);
        times.report(&mut per_layer);
        per_layer.push(("trace.overhead_frac", overhead_frac(&cycles), "ratio"));
    }
    Ok(Run {
        violations,
        tally,
        end_to_end,
        per_layer,
    })
}
