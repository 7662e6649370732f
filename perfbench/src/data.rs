//! Inputs: plaintext columns drawn from the workload seed, their encrypted
//! upload, trapdoors, and the plaintext answers the replies are checked
//! against.
//!
//! Answers are compared as an order-free digest: the tuple count plus the
//! wrapping sum of a 64-bit mix of every tuple id. The expected digest of
//! any range comes from prefix sums over the column sorted by value, so it
//! costs two binary searches to prepare.

use crate::oracle::BenchOracle;
use prkb_edbms::{
    AttrId, ComparisonOp, DataOwner, EncryptedPredicate, PlainTable, Predicate, Schema, TmConfig,
    TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

pub const TABLE: &str = "bench";

/// Plaintext values are drawn uniformly from `[0, DOMAIN)`.
pub const DOMAIN: u64 = 1 << 40;

/// Width of a 1%-selectivity range.
pub const RANGE_WIDTH: u64 = DOMAIN / 100;

/// Order-free digest of a set of tuple ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, t: TupleId) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(t));
    }

    pub fn of(tuples: &[TupleId]) -> Digest {
        let mut d = Digest::default();
        for &t in tuples {
            d.add(t);
        }
        d
    }
}

/// SplitMix64 finalizer over a tuple id.
fn mix(t: TupleId) -> u64 {
    let mut z = u64::from(t).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One attribute's plaintext, sorted by value, with digest prefix sums.
pub struct ColumnIndex {
    values: Vec<u64>,
    prefix: Vec<u64>,
}

impl ColumnIndex {
    fn build(column: &[u64]) -> Self {
        let mut pairs: Vec<(u64, TupleId)> = column
            .iter()
            .enumerate()
            .map(|(t, &v)| (v, TupleId::try_from(t).expect("table fits tuple ids")))
            .collect();
        pairs.sort_unstable();
        let mut prefix = Vec::with_capacity(pairs.len() + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for &(_, t) in &pairs {
            acc = acc.wrapping_add(mix(t));
            prefix.push(acc);
        }
        ColumnIndex {
            values: pairs.into_iter().map(|(v, _)| v).collect(),
            prefix,
        }
    }

    /// Digest of the tuples whose value `v` satisfies `lo < v < hi`
    /// (`None` = unbounded on that side).
    pub fn digest(&self, lo: Option<u64>, hi: Option<u64>) -> Digest {
        let a = lo.map_or(0, |lo| self.values.partition_point(|&v| v <= lo));
        let b = hi.map_or(self.values.len(), |hi| {
            self.values.partition_point(|&v| v < hi)
        });
        let b = b.max(a);
        Digest {
            count: (b - a) as u64,
            sum: self.prefix[b].wrapping_sub(self.prefix[a]),
        }
    }
}

/// What set-up spent on the data owner's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct OwnerTimes {
    pub trapdoor_ns: u64,
    pub trapdoors: u64,
    pub encrypt_row_ns: u64,
    pub rows: u64,
}

/// The data owner's side of the uploaded table: the plaintext kept for
/// checking answers, the key, and the input generator.
pub struct Dataset {
    pub n: usize,
    /// Attributes in the table; attribute `a` holds plaintext column
    /// `a % index.len()`.
    pub attrs: usize,
    index: Vec<ColumnIndex>,
    pub owner: DataOwner,
    pub rng: StdRng,
    pub owner_times: OwnerTimes,
}

impl Dataset {
    /// Draws `distinct` uniform columns of `n` values from `seed` and uploads
    /// `attrs` attributes, attribute `a` holding column `a % distinct`
    /// (encrypted afresh, so copies share values but no ciphertext). Returns
    /// the owner's side and the service provider's oracle.
    pub fn generate(seed: u64, n: usize, distinct: usize, attrs: usize) -> (Self, BenchOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..distinct)
            .map(|_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect())
            .collect();
        let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let uploaded = (0..attrs).map(|a| columns[a % distinct].clone()).collect();
        let plain = PlainTable::from_columns(Schema::new(TABLE, &name_refs), uploaded)
            .expect("columns match the schema");
        let owner = DataOwner::with_seed(seed ^ 0x005e_ed0f_da7a);
        let start = Instant::now();
        let table = owner.encrypt_table(&plain, &mut rng);
        let owner_times = OwnerTimes {
            encrypt_row_ns: start.elapsed().as_nanos() as u64,
            rows: n as u64,
            ..OwnerTimes::default()
        };
        let tm = owner.trusted_machine(TmConfig::default());
        let index = columns.iter().map(|c| ColumnIndex::build(c)).collect();
        let ds = Dataset {
            n,
            attrs,
            index,
            owner,
            rng,
            owner_times,
        };
        (ds, BenchOracle::new(Arc::new(table), Arc::new(tm)))
    }

    /// Issues a comparison trapdoor `X op bound` on `attr`, timing the
    /// owner call.
    pub fn trapdoor(&mut self, attr: AttrId, op: ComparisonOp, bound: u64) -> EncryptedPredicate {
        let start = Instant::now();
        let td = self
            .owner
            .trapdoor(TABLE, &Predicate::cmp(attr, op, bound), &mut self.rng)
            .expect("comparison trapdoors cannot fail");
        self.owner_times.trapdoor_ns += start.elapsed().as_nanos() as u64;
        self.owner_times.trapdoors += 1;
        td
    }

    /// A stream of positions in `[0, 1)` starting at a random point.
    pub fn spread(&mut self) -> Spread {
        Spread {
            x: self.rng.gen_range(0.0..1.0),
        }
    }

    /// A 1%-selectivity range `lo < X < lo + RANGE_WIDTH` on `attr` starting
    /// at position `at` of the domain: its two trapdoors and the plaintext
    /// bounds.
    pub fn range(&mut self, attr: AttrId, at: f64) -> RangeSpec {
        let lo = scale(at, DOMAIN - RANGE_WIDTH);
        let hi = lo + RANGE_WIDTH;
        let gt = self.trapdoor(attr, ComparisonOp::Gt, lo);
        let lt = self.trapdoor(attr, ComparisonOp::Lt, hi);
        RangeSpec {
            attr,
            lo,
            hi,
            dims: vec![[gt, lt]],
        }
    }

    /// Encrypts a fresh uniform row, timing the owner call.
    pub fn encrypt_row(&mut self) -> (Vec<u64>, Vec<Vec<u8>>) {
        let row: Vec<u64> = (0..self.attrs)
            .map(|_| self.rng.gen_range(0..DOMAIN))
            .collect();
        let start = Instant::now();
        let cells = self.owner.encrypt_row(TABLE, &row, &mut self.rng);
        self.owner_times.encrypt_row_ns += start.elapsed().as_nanos() as u64;
        self.owner_times.rows += 1;
        (row, cells)
    }

    /// The digest of `lo < X < hi` over the uploaded table (inserts
    /// excluded).
    pub fn base_digest(&self, attr: AttrId, lo: Option<u64>, hi: Option<u64>) -> Digest {
        self.index[attr as usize % self.index.len()].digest(lo, hi)
    }
}

/// Maps `at` in `[0, 1)` onto `[0, span)`.
pub fn scale(at: f64, span: u64) -> u64 {
    ((at * span as f64) as u64).min(span - 1)
}

/// Query positions along the golden-ratio sequence: each stream starts at
/// a seeded point and every next position lands in the largest gap left
/// so far. Streams spread their cuts evenly, so two seeds ask for the same
/// amount of work while still asking different queries.
pub struct Spread {
    x: f64,
}

impl Iterator for Spread {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
        let at = self.x;
        self.x = (self.x + PHI_FRAC).fract();
        Some(at)
    }
}

/// A 1% range query.
#[derive(Clone)]
pub struct RangeSpec {
    pub attr: AttrId,
    pub lo: u64,
    pub hi: u64,
    pub dims: Vec<[EncryptedPredicate; 2]>,
}
