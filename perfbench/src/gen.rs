//! Every input of a run, generated from the run's seed: the stored
//! partitions (and the per-kind counts the query oracle checks against),
//! the key ranges of the aggregation queries, and the YCSB-A op streams.
//! The program under test only ever sees these generated inputs.

use kvs_store::schema::DEFAULT_PAYLOAD_BYTES;
use kvs_store::{Cell, PartitionKey};
use kvs_workloads::keydist::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Distinct cell kinds; the aggregation counts cells per kind.
pub const KINDS: usize = 8;

/// Per-kind cell counts of one partition (or of a sum of partitions).
pub type Counts = [u64; KINDS];

/// Zipfian skew of the YCSB-A key choice.
pub const ZIPF_THETA: f64 = 0.99;

/// Independent streams drawn from one seed.
const DATA_STREAM: u64 = 0xD47A;
const QUERY_STREAM: u64 = 0x0E41;
const OPS_STREAM: u64 = 0x0B5A;

fn rng_for(seed: u64, stream: u64, sub: u64) -> StdRng {
    // Decorrelate the streams: one seed must not give two streams that
    // are shifted copies of each other.
    let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ sub.wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(mixed)
}

/// The stored data set: `partitions × cells` cells whose kinds are drawn
/// from the seed. Partition `i` has key [`PartitionKey::from_id`]`(i)`.
pub struct DataSet {
    /// Cell kinds, `kinds[p][c]` for partition `p`, clustering `c`.
    pub kinds: Vec<Vec<u8>>,
}

impl DataSet {
    pub fn generate(partitions: u64, cells: u64, seed: u64) -> DataSet {
        let mut rng = rng_for(seed, DATA_STREAM, 0);
        let kinds = (0..partitions)
            .map(|_| (0..cells).map(|_| rng.gen_range(0..KINDS as u8)).collect())
            .collect();
        DataSet { kinds }
    }

    pub fn partition_count(&self) -> usize {
        self.kinds.len()
    }

    /// The cells of partition `p`, in clustering order.
    pub fn cells(&self, p: usize) -> Vec<Cell> {
        self.kinds[p]
            .iter()
            .enumerate()
            .map(|(c, &kind)| Cell::synthetic(c as u64, kind))
            .collect()
    }

    /// Every partition with its cells, in key order (the load input).
    pub fn partitions(&self) -> Vec<(PartitionKey, Vec<Cell>)> {
        (0..self.kinds.len())
            .map(|p| (PartitionKey::from_id(p as u64), self.cells(p)))
            .collect()
    }

    /// The per-kind counts of every partition (the query oracle).
    pub fn counts(&self) -> Vec<Counts> {
        self.kinds
            .iter()
            .map(|cells| {
                let mut c = [0u64; KINDS];
                for &k in cells {
                    c[k as usize] += 1;
                }
                c
            })
            .collect()
    }
}

/// Start indexes of the aggregation queries: query `i` covers partitions
/// `start..start + keys`, a contiguous run of partition keys.
pub struct QueryStream {
    rng: StdRng,
    starts: u64,
}

impl QueryStream {
    pub fn new(seed: u64, partitions: usize, keys: usize) -> QueryStream {
        assert!(
            keys <= partitions,
            "a query cannot cover more keys than exist"
        );
        QueryStream {
            rng: rng_for(seed, QUERY_STREAM, 0),
            starts: (partitions - keys + 1) as u64,
        }
    }

    pub fn next_start(&mut self) -> usize {
        self.rng.gen_range(0..self.starts) as usize
    }
}

/// One YCSB-A operation on partition `key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Read {
        key: usize,
    },
    /// Overwrites cell `clustering` with a new payload and the *same*
    /// kind, so an update never changes the per-kind counts the oracle
    /// checks after the run.
    Update {
        key: usize,
        clustering: u64,
        payload: Vec<u8>,
    },
}

impl Op {
    pub fn key(&self) -> usize {
        match self {
            Op::Read { key } | Op::Update { key, .. } => *key,
        }
    }

    /// The cell an update writes; its kind comes from the data set.
    pub fn cell(&self, data: &DataSet) -> Option<Cell> {
        match self {
            Op::Read { .. } => None,
            Op::Update {
                key,
                clustering,
                payload,
            } => Some(Cell::new(
                *clustering,
                data.kinds[*key][*clustering as usize],
                payload.clone(),
            )),
        }
    }
}

/// Client `client`'s endless YCSB-A stream: 50% reads, 50% single-cell
/// updates, keys zipfian (θ = 0.99) over a seeded permutation of the
/// partitions, so the hot keys differ from seed to seed.
pub struct OpStream {
    rng: StdRng,
    zipf: Zipfian,
    permutation: Vec<usize>,
    cells: u64,
}

impl OpStream {
    pub fn new(seed: u64, client: u64, partitions: usize, cells: u64) -> OpStream {
        let mut perm_rng = rng_for(seed, OPS_STREAM, u64::MAX);
        let mut permutation: Vec<usize> = (0..partitions).collect();
        for i in (1..partitions).rev() {
            permutation.swap(i, perm_rng.gen_range(0..=i));
        }
        OpStream {
            rng: rng_for(seed, OPS_STREAM, client),
            zipf: Zipfian::new(partitions as u64, ZIPF_THETA),
            permutation,
            cells,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let key = self.permutation[self.zipf.sample(&mut self.rng) as usize];
        if self.rng.gen_bool(0.5) {
            return Op::Read { key };
        }
        let clustering = self.rng.gen_range(0..self.cells);
        let mut payload = vec![0u8; DEFAULT_PAYLOAD_BYTES];
        self.rng.fill_bytes(&mut payload);
        Op::Update {
            key,
            clustering,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serialized inputs of one seed: data kinds, query key ranges
    /// and both clients' op streams.
    fn inputs(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let data = DataSet::generate(64, 50, seed);
        for p in &data.kinds {
            out.extend_from_slice(p);
        }
        let mut qs = QueryStream::new(seed, 64, 16);
        for _ in 0..200 {
            out.extend_from_slice(&(qs.next_start() as u64).to_be_bytes());
        }
        for client in 0..2 {
            let mut ops = OpStream::new(seed, client, 64, 50);
            for _ in 0..500 {
                match ops.next_op() {
                    Op::Read { key } => {
                        out.push(0);
                        out.extend_from_slice(&(key as u64).to_be_bytes());
                    }
                    Op::Update {
                        key,
                        clustering,
                        payload,
                    } => {
                        out.push(1);
                        out.extend_from_slice(&(key as u64).to_be_bytes());
                        out.extend_from_slice(&clustering.to_be_bytes());
                        out.extend_from_slice(&payload);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn different_seed_changes_every_input_stream() {
        assert_ne!(
            DataSet::generate(64, 50, 7).kinds,
            DataSet::generate(64, 50, 8).kinds
        );
        let starts = |seed| {
            let mut qs = QueryStream::new(seed, 64, 16);
            (0..50).map(|_| qs.next_start()).collect::<Vec<_>>()
        };
        assert_ne!(starts(7), starts(8));
        let ops = |seed, client| {
            let mut s = OpStream::new(seed, client, 64, 50);
            (0..50).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_ne!(ops(7, 0), ops(8, 0));
        // The two clients of one seed do not replay the same stream.
        assert_ne!(ops(7, 0), ops(7, 1));
    }

    #[test]
    fn queries_stay_inside_the_key_space_and_updates_keep_kinds() {
        let mut qs = QueryStream::new(3, 100, 16);
        assert!((0..1000).all(|_| qs.next_start() + 16 <= 100));
        let data = DataSet::generate(64, 50, 3);
        let mut ops = OpStream::new(3, 0, 64, 50);
        let (mut reads, mut updates) = (0, 0);
        for _ in 0..2000 {
            let op = ops.next_op();
            match op.cell(&data) {
                Some(cell) => {
                    updates += 1;
                    assert_eq!(cell.kind, data.kinds[op.key()][cell.clustering as usize]);
                }
                None => reads += 1,
            }
        }
        // 50/50 mix within a loose binomial band.
        assert!(
            (850..1150).contains(&reads),
            "{reads} reads / {updates} updates"
        );
    }
}
