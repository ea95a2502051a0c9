//! Per-layer measurements for the traced run, all taken from outside the
//! program: stage stamps and master counters read off each query's
//! `NetRunReport`, and isolated replays that time calls into one layer's
//! public functions (codec, frame, `Table`, `DurableTable`) on the
//! workload's own messages and data.

use crate::gen::{Counts, DataSet, Op, KINDS};
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use crate::Metrics;
use bytes::Bytes;
use kvs_cluster::{Codec, QueryRequest, QueryResponse, WriteRequest};
use kvs_net::frame::{Frame, FrameKind, FLAG_COMPACT};
use kvs_net::server::version_cell;
use kvs_net::NetRunReport;
use kvs_stages::Stage;
use kvs_store::{
    Cell, DurableOptions, DurableTable, FsyncPolicy, PartitionKey, Table, TableOptions,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The four stage means must add up to the mean request total within
/// this share of it, or the traced run fails.
pub const STAGE_SUM_TOLERANCE: f64 = 0.01;

/// Store options of every durable node, and of the replica the durable
/// replay builds: fsync on every WAL record, a 4 MiB block cache.
pub fn durable_options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        block_cache_blocks: 1024,
        ..DurableOptions::default()
    }
}

/// Stage stamps and master counters accumulated over traced queries.
#[derive(Default)]
pub struct StageAcc {
    /// Per-request stage durations, ms, in [`Stage::ALL`] order.
    stages: [Vec<f64>; 4],
    /// Per-request totals (first issue → response processed), ms.
    totals: Vec<f64>,
    tx_us: u64,
    rx_us: u64,
    messages: u64,
    /// Sends beyond the first per key: busy and timeout retries, hedges.
    resends: u64,
    issue_span_ms: Vec<f64>,
}

impl StageAcc {
    /// Folds one query in. With `detail`, the query's requests and their
    /// stages are recorded as spans under `query_span`, placed from
    /// `query_start_us` (the stamps are relative to the query's start).
    pub fn absorb(
        &mut self,
        rep: &NetRunReport,
        tracer: &mut Tracer,
        query_span: u64,
        query_start_us: f64,
        detail: bool,
    ) {
        let r = &rep.result;
        for t in &r.traces {
            for stage in Stage::ALL {
                self.stages[stage.index()].push(t.stage_duration(stage).as_millis_f64());
            }
            self.totals.push(t.total().as_millis_f64());
            if detail {
                let (Some(a), Some(b)) = (t.issued_at(), t.completed_at()) else {
                    continue;
                };
                let request = tracer.push(
                    query_span,
                    "request",
                    query_start_us + a.as_micros_f64(),
                    query_start_us + b.as_micros_f64(),
                );
                for stage in Stage::ALL {
                    if let Some(s) = t.spans[stage.index()] {
                        tracer.push(
                            request,
                            stage_span_name(stage),
                            query_start_us + s.start.as_micros_f64(),
                            query_start_us + s.end.as_micros_f64(),
                        );
                    }
                }
            }
        }
        self.tx_us += rep.tx_micros;
        self.rx_us += rep.rx_micros;
        self.messages += r.messages;
        self.resends += rep.busy_retries + rep.timeout_retries + rep.hedges_sent;
        self.issue_span_ms.push(r.issue_span.as_millis_f64());
    }

    pub fn stage_mean_ms(&self, stage: Stage) -> f64 {
        mean(&self.stages[stage.index()])
    }

    /// `|Σ stage means − mean total| / mean total`.
    pub fn sum_gap_frac(&self) -> f64 {
        let sum: f64 = Stage::ALL.iter().map(|&s| self.stage_mean_ms(s)).sum();
        let total = mean(&self.totals);
        (sum - total).abs() / total
    }

    /// The stage with the largest mean.
    pub fn largest_stage(&self) -> Stage {
        Stage::ALL
            .into_iter()
            .max_by(|&a, &b| self.stage_mean_ms(a).total_cmp(&self.stage_mean_ms(b)))
            .expect("four stages")
    }

    pub fn report(&self, m: &mut Metrics) {
        let msgs = self.messages.max(1) as f64;
        m.push(("master.tx_us_per_msg", self.tx_us as f64 / msgs, "us"));
        m.push(("master.rx_us_per_msg", self.rx_us as f64 / msgs, "us"));
        m.push(("master.issue_span_ms", mean(&self.issue_span_ms), "ms"));
        m.push((
            "master.sends_per_key",
            (self.messages + self.resends) as f64 / msgs,
            "ratio",
        ));
        for stage in Stage::ALL {
            let xs = &self.stages[stage.index()];
            let (name_mean, name_p90) = stage_metric_names(stage);
            m.push((name_mean, mean(xs), "ms"));
            m.push((name_p90, percentile(xs, 90.0), "ms"));
        }
        m.push(("stage.sum_gap_frac", self.sum_gap_frac(), "ratio"));
    }
}

fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::MasterToSlave => "stage.master_to_slaves",
        Stage::InQueue => "stage.in_queue",
        Stage::InDb => "stage.in_db",
        Stage::SlaveToMaster => "stage.slaves_to_master",
    }
}

fn stage_metric_names(stage: Stage) -> (&'static str, &'static str) {
    match stage {
        Stage::MasterToSlave => ("stage.master_to_slaves_ms", "stage.master_to_slaves_p90_ms"),
        Stage::InQueue => ("stage.in_queue_ms", "stage.in_queue_p90_ms"),
        Stage::InDb => ("stage.in_db_ms", "stage.in_db_p90_ms"),
        Stage::SlaveToMaster => ("stage.slaves_to_master_ms", "stage.slaves_to_master_p90_ms"),
    }
}

/// Runs `f` over `n` iterations, five times, and returns the median
/// nanoseconds per iteration.
fn ns_per_iter(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[2]
}

/// The response a slave sends for partition `p` of `data`.
fn response_of(data: &DataSet, p: usize, id: u64) -> QueryResponse {
    QueryResponse::from_kinds(id, data.kinds[p].iter().copied()).with_version(id)
}

/// Codec and frame costs on the workload's own messages: requests and
/// responses for the partitions in `reads`, write requests for `updates`.
pub fn codec_replay(data: &DataSet, reads: &[usize], updates: &[Op], m: &mut Metrics) {
    const ITERS: usize = 20_000;
    let codec = Codec::compact();
    let requests: Vec<QueryRequest> = reads
        .iter()
        .enumerate()
        .map(|(i, &p)| QueryRequest {
            request_id: i as u64,
            partition: PartitionKey::from_id(p as u64),
        })
        .collect();
    let responses: Vec<Bytes> = reads
        .iter()
        .enumerate()
        .map(|(i, &p)| codec.encode_response(&response_of(data, p, i as u64)))
        .collect();
    let writes: Vec<WriteRequest> = updates
        .iter()
        .enumerate()
        .map(|(i, op)| WriteRequest {
            request_id: i as u64,
            partition: PartitionKey::from_id(op.key() as u64),
            timestamp: i as u64 + 1,
            cells: op.cell(data).into_iter().collect(),
        })
        .collect();
    let request_frames: Vec<Frame> = requests
        .iter()
        .map(|r| Frame {
            kind: FrameKind::Request,
            flags: FLAG_COMPACT,
            id: r.request_id,
            stamps: [1, 2, 3, 0],
            deadline: 0,
            payload: codec.encode_request(r),
        })
        .collect();
    let response_wire: Vec<Vec<u8>> = responses
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            Frame {
                kind: FrameKind::Response,
                flags: FLAG_COMPACT,
                id: i as u64,
                stamps: [1, 2, 3, 4],
                deadline: 0,
                payload: payload.clone(),
            }
            .encode()
        })
        .collect();

    let (nr, nw) = (requests.len(), writes.len());
    let enc_req = ns_per_iter(ITERS, |i| {
        black_box(codec.encode_request(black_box(&requests[i % nr])));
    });
    let dec_resp = ns_per_iter(ITERS, |i| {
        black_box(codec.decode_response(black_box(responses[i % nr].clone())));
    });
    let enc_write = ns_per_iter(ITERS, |i| {
        black_box(codec.encode_write(black_box(&writes[i % nw])));
    });
    let frame_enc = ns_per_iter(ITERS, |i| {
        black_box(black_box(&request_frames[i % nr]).encode());
    });
    let frame_dec = ns_per_iter(ITERS, |i| {
        let decoded = Frame::decode(black_box(&response_wire[i % nr]));
        assert!(matches!(decoded, Ok(Some(_))), "replayed frame must decode");
        black_box(decoded.ok());
    });
    let mean_len = |lens: Vec<usize>| lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    m.push(("codec.encode_request_ns", enc_req, "ns"));
    m.push(("codec.decode_response_ns", dec_resp, "ns"));
    m.push(("codec.encode_write_ns", enc_write, "ns"));
    m.push((
        "codec.request_bytes",
        mean_len(request_frames.iter().map(|f| f.payload.len()).collect()),
        "B",
    ));
    m.push((
        "codec.response_bytes",
        mean_len(responses.iter().map(|b| b.len()).collect()),
        "B",
    ));
    m.push(("frame.encode_ns", frame_enc, "ns"));
    m.push(("frame.decode_ns", frame_dec, "ns"));
}

/// A store tier's replayed cost of one partition read and of the store
/// work of one update, µs.
pub struct StoreCost {
    pub get_us: f64,
    pub update_us: f64,
}

/// Upper bound on the time one replay phase may take.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

/// Keeps the items of `xs` whose partition is on the replayed node.
fn on_node<T: Clone>(xs: &[T], key: impl Fn(&T) -> usize, on: &[bool]) -> Vec<T> {
    xs.iter().filter(|x| on[key(x)]).cloned().collect()
}

/// `Table::get` and the RAM update sequence (read the version cell's
/// partition, put the cell, put the version cell) replayed on a table
/// loaded exactly as a node of the RAM cluster: `node_parts` in key
/// order, then one flush.
pub fn table_replay(
    data: &DataSet,
    node_parts: &[usize],
    reads: &[usize],
    updates: &[Op],
    m: &mut Metrics,
) -> StoreCost {
    let mut table = Table::new(TableOptions::default());
    let mut on = vec![false; data.partition_count()];
    for &p in node_parts {
        on[p] = true;
        table.put_all(&PartitionKey::from_id(p as u64), data.cells(p));
    }
    table.flush();
    let reads = on_node(reads, |&p| p, &on);
    let updates = on_node(updates, Op::key, &on);
    assert!(
        !reads.is_empty() && !updates.is_empty(),
        "replay keys must land on the replayed node"
    );

    let (mut us, mut scanned, mut col_blocks, mut ssts, mut probes) = (Vec::new(), 0, 0, 0, 0);
    let budget = Instant::now() + REPLAY_BUDGET;
    for &p in reads.iter().cycle().take(reads.len().max(200)) {
        let pk = PartitionKey::from_id(p as u64);
        let t = Instant::now();
        let (cells, receipt) = table.get(black_box(&pk));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(cells);
        scanned += receipt.cells_scanned;
        col_blocks += receipt.column_index_blocks;
        ssts += receipt.sstables_read;
        probes += receipt.bloom_probes;
        if Instant::now() > budget {
            break;
        }
    }
    let n = us.len() as f64;
    m.push(("table.get_us", mean(&us), "us"));
    m.push(("table.cells_scanned_per_get", scanned as f64 / n, "count"));
    m.push((
        "table.column_index_blocks_per_get",
        col_blocks as f64 / n,
        "count",
    ));
    m.push(("table.sstables_read_per_get", ssts as f64 / n, "count"));
    m.push(("table.bloom_probes_per_get", probes as f64 / n, "count"));

    let mut update_us = Vec::new();
    let budget = Instant::now() + REPLAY_BUDGET;
    for (i, op) in updates.iter().enumerate() {
        let pk = PartitionKey::from_id(op.key() as u64);
        let cell = op.cell(data).expect("updates carry a cell");
        let t = Instant::now();
        black_box(table.get(&pk));
        table.put(pk.clone(), cell);
        table.put(pk, version_cell(i as u64 + 1));
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
        if Instant::now() > budget {
            break;
        }
    }
    StoreCost {
        get_us: mean(&us),
        update_us: mean(&update_us),
    }
}

/// `DurableTable::{get, put, sync_wal}` replayed on a replica built with
/// the durable nodes' options and `node_parts` of the data, ingested as
/// the cluster ingests them. Gets run after one untimed pass that warms
/// the block cache, as the measured run is warm. An update is the
/// server's sequence: read-before-write, two puts, WAL sync.
pub fn durable_replay(
    dir: &Path,
    data: &DataSet,
    node_parts: &[usize],
    reads: &[usize],
    updates: &[Op],
    m: &mut Metrics,
) -> io::Result<StoreCost> {
    let (mut table, _) = DurableTable::open(dir, durable_options())?;
    let mut on = vec![false; data.partition_count()];
    let mut ingest = Vec::with_capacity(node_parts.len());
    let mut user_bytes = 0u64;
    for &p in node_parts {
        on[p] = true;
        let cells = data.cells(p);
        user_bytes += cells.iter().map(|c| c.encoded_len() as u64).sum::<u64>();
        ingest.push((PartitionKey::from_id(p as u64), cells));
    }
    table.ingest_sorted(&ingest)?;
    drop(ingest);
    let reads = on_node(reads, |&p| p, &on);
    let updates = on_node(updates, Op::key, &on);

    for &p in &reads {
        table.get(&PartitionKey::from_id(p as u64))?;
    }
    let (mut get_us, mut disk, mut hits) = (Vec::new(), 0u64, 0u64);
    let budget = Instant::now() + REPLAY_BUDGET;
    for &p in reads.iter().cycle().take(reads.len().max(200)) {
        let pk = PartitionKey::from_id(p as u64);
        let t = Instant::now();
        let (cells, receipt) = table.get(black_box(&pk))?;
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(cells);
        disk += receipt.disk_blocks_read;
        hits += receipt.disk_block_cache_hits;
        if Instant::now() > budget {
            break;
        }
    }

    let (mut rbw, mut put, mut sync, mut whole) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let budget = Instant::now() + REPLAY_BUDGET;
    for (i, op) in updates.iter().enumerate() {
        let pk = PartitionKey::from_id(op.key() as u64);
        let cell: Cell = op.cell(data).expect("updates carry a cell");
        user_bytes += cell.encoded_len() as u64;
        let t0 = Instant::now();
        black_box(table.get(&pk)?);
        let t1 = Instant::now();
        table.put(pk.clone(), cell)?;
        let t2 = Instant::now();
        table.put(pk, version_cell(i as u64 + 1))?;
        let t3 = Instant::now();
        table.sync_wal()?;
        let t4 = Instant::now();
        rbw.push((t1 - t0).as_secs_f64() * 1e6);
        put.push((t2 - t1).as_secs_f64() * 1e6);
        put.push((t3 - t2).as_secs_f64() * 1e6);
        sync.push((t4 - t3).as_secs_f64() * 1e6);
        whole.push((t4 - t0).as_secs_f64() * 1e6);
        if Instant::now() > budget {
            break;
        }
    }
    m.push(("durable.get_us", mean(&get_us), "us"));
    m.push(("durable.put_us", mean(&put), "us"));
    m.push(("durable.sync_wal_us", mean(&sync), "us"));
    m.push(("durable.read_before_write_us", mean(&rbw), "us"));
    m.push((
        "durable.disk_blocks_per_get",
        disk as f64 / get_us.len() as f64,
        "count",
    ));
    m.push((
        "durable.block_cache_hit_ratio",
        hits as f64 / (hits + disk).max(1) as f64,
        "ratio",
    ));
    m.push((
        "durable.sst_bytes_written_per_user_byte",
        table.metrics().sst_bytes_written as f64 / user_bytes as f64,
        "ratio",
    ));
    Ok(StoreCost {
        get_us: mean(&get_us),
        update_us: mean(&whole),
    })
}

/// Sums the per-kind counts of `parts`.
pub fn expected_counts(counts: &[Counts], parts: impl IntoIterator<Item = usize>) -> Counts {
    let mut sum = [0u64; KINDS];
    for p in parts {
        for (s, c) in sum.iter_mut().zip(counts[p]) {
            *s += c;
        }
    }
    sum
}

/// Compares a query's `counts_by_kind` with the expected per-kind counts.
pub fn counts_match(got: &std::collections::BTreeMap<u8, u64>, want: &Counts) -> bool {
    let nonzero = want.iter().filter(|&&c| c > 0).count();
    got.len() == nonzero
        && want
            .iter()
            .enumerate()
            .all(|(k, &c)| c == 0 || got.get(&(k as u8)) == Some(&c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn count_oracle_rejects_missing_extra_and_wrong_kinds() {
        let want: Counts = [3, 0, 2, 0, 0, 0, 0, 1];
        let got: BTreeMap<u8, u64> = [(0, 3), (2, 2), (7, 1)].into_iter().collect();
        assert!(counts_match(&got, &want));
        let mut extra = got.clone();
        extra.insert(1, 1);
        assert!(!counts_match(&extra, &want));
        let mut short = got.clone();
        short.insert(2, 1);
        assert!(!counts_match(&short, &want));
        let mut missing = got;
        missing.remove(&7);
        assert!(!counts_match(&missing, &want));
    }

    #[test]
    fn expected_counts_sum_the_chosen_partitions() {
        let data = DataSet::generate(10, 20, 1);
        let counts = data.counts();
        let all = expected_counts(&counts, 0..10);
        assert_eq!(all.iter().sum::<u64>(), 200);
        let two = expected_counts(&counts, [3, 4]);
        assert_eq!(two.iter().sum::<u64>(), 40);
    }
}
