//! **shard_commit** — durable commit throughput under write contention:
//! one shard driven under a coarse lock vs the sharded pool with per-shard
//! group commit (DESIGN.md §13). Not a paper figure — this gates the repo's own
//! durability layer.
//!
//! Eight writer threads hammer eight attributes chosen to land on eight
//! *distinct* shards, every commit made durable before it is acknowledged:
//!
//! * `coarse_w8` — `Mutex<DurableEngine>`: requests serialized end to end
//!   through one shard's committer, so every group-commit batch holds one
//!   record and each committed operation pays its own fsync (the
//!   pre-sharding baseline);
//! * `sharded_s1_w8` — one shard: evaluation still funnels through one
//!   lock, but the committer batches concurrent commits into shared fsyncs
//!   (isolates the group-commit win);
//! * `sharded_s8_w8` — eight shards: disjoint footprints check out in
//!   parallel *and* each shard's WAL group-commits independently.
//!
//! Attribute workloads are identical across variants and per-writer
//! deterministic, so total QPF is seed-stable (safe to gate in CI); the
//! wall-clock columns carry the throughput story.

use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::metrics::{self, Metric};
use prkb_core::{DurableEngine, EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{AttrId, ComparisonOp, Predicate, SelectionOracle};
use prkb_server::scheduler::{SessionOracle, SessionScheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WRITERS: usize = 8;
const SHARDS: usize = 8;
const WARM_QUERIES: usize = 30;
const VALUE_DOMAIN: u64 = 1_000_000;

/// One measured variant.
#[derive(Debug, Clone)]
pub struct ShardCommitPoint {
    /// Row id (`coarse_w8`, `sharded_s1_w8`, `sharded_s8_w8`).
    pub id: String,
    /// Committed (durably acknowledged) operations in the timed phase.
    pub commits: u64,
    /// Wall-clock for the timed phase (ms).
    pub ms: f64,
    /// Commits per second.
    pub throughput: f64,
    /// QPF uses spent in the timed phase (seed-deterministic).
    pub qpf: u64,
    /// WAL fsyncs paid during the timed phase.
    pub fsyncs: u64,
    /// Total partitions across all attributes after the run.
    pub k: u64,
}

/// Raw measurement output.
pub struct ShardCommitData {
    /// Per-variant measurements, baseline first.
    pub points: Vec<ShardCommitPoint>,
    /// Dataset rows per attribute.
    pub n: usize,
    /// Committed operations per writer.
    pub ops_per_writer: usize,
}

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-bench-shard-commit-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// First eight attribute ids that land on eight distinct shards, so the
/// 8-shard variant's footprints are fully disjoint.
fn disjoint_attrs() -> Vec<AttrId> {
    let map = ShardMap::new(SHARDS);
    let mut seen = std::collections::HashSet::new();
    let mut attrs = Vec::new();
    let mut a: AttrId = 0;
    while attrs.len() < WRITERS {
        if seen.insert(map.shard_of(a)) {
            attrs.push(a);
        }
        a += 1;
    }
    attrs
}

fn dataset(n: usize, attrs: &[AttrId]) -> PlainOracle {
    let mut rng = StdRng::seed_from_u64(0x5AD_C0DE);
    let max = attrs.iter().copied().max().unwrap_or(0) as usize + 1;
    PlainOracle::from_columns(
        (0..max)
            .map(|_| (0..n).map(|_| rng.gen_range(0..VALUE_DOMAIN)).collect())
            .collect(),
    )
}

/// Per-writer predicate stream: deterministic, identical across variants.
fn bound(writer: usize, i: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64((writer as u64) << 32 | i as u64);
    rng.gen_range(1..VALUE_DOMAIN)
}

fn warm_preds(attr: AttrId) -> Vec<Predicate> {
    (1..=WARM_QUERIES)
        .map(|i| {
            Predicate::cmp(
                attr,
                ComparisonOp::Lt,
                (i as u64 * VALUE_DOMAIN) / (WARM_QUERIES as u64 + 1),
            )
        })
        .collect()
}

fn total_k(engine: &PrkbEngine<Predicate>) -> u64 {
    engine
        .attrs()
        .map(|a| engine.knowledge(a).expect("attr indexed").k() as u64)
        .sum()
}

fn run_coarse(
    oracle: &Arc<PlainOracle>,
    attrs: &[AttrId],
    n: usize,
    ops: usize,
) -> ShardCommitPoint {
    let dir = TmpDir::new("coarse");
    let (mut durable, _) =
        DurableEngine::<Predicate>::open(&dir.0, EngineConfig::default()).expect("open");
    for &a in attrs {
        durable.init_attr(a, n).expect("init");
    }
    for &a in attrs {
        for p in warm_preds(a) {
            durable
                .try_select(&**oracle, &p, &mut StdRng::seed_from_u64(u64::from(a)))
                .expect("warm select");
        }
    }
    let engine = Arc::new(Mutex::new(durable));

    let qpf_before = oracle.qpf_uses();
    let fsyncs_before = metrics::global().get(Metric::WalTxns);
    let start = Instant::now();
    let mut handles = Vec::new();
    for (w, &attr) in attrs.iter().enumerate() {
        let engine = Arc::clone(&engine);
        let oracle = Arc::clone(oracle);
        handles.push(std::thread::spawn(move || {
            for i in 0..ops {
                let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound(w, i));
                let mut rng = StdRng::seed_from_u64((w * ops + i) as u64);
                let mut engine = engine.lock().expect("engine lock");
                engine
                    .try_select(&*oracle, &pred, &mut rng)
                    .expect("select");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let commits = (attrs.len() * ops) as u64;
    let engine = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("writers joined"))
        .into_inner()
        .expect("engine lock");
    ShardCommitPoint {
        id: format!("coarse_w{WRITERS}"),
        commits,
        ms,
        throughput: commits as f64 / (ms / 1_000.0),
        qpf: oracle.qpf_uses() - qpf_before,
        // Serialized commits: every batch is one WAL transaction.
        fsyncs: metrics::global().get(Metric::WalTxns) - fsyncs_before,
        k: total_k(engine.engine()),
    }
}

fn run_sharded(
    oracle: &Arc<PlainOracle>,
    attrs: &[AttrId],
    n: usize,
    ops: usize,
    shards: usize,
) -> ShardCommitPoint {
    let dir = TmpDir::new(&format!("sharded-{shards}"));
    let mut pool = ShardedDurablePool::<Predicate>::open(
        &dir.0,
        EngineConfig::default(),
        ShardMap::new(shards),
    )
    .expect("open pool");
    for &a in attrs {
        pool.init_attr(a, n).expect("init");
    }
    let sched = Arc::new(SessionScheduler::durable(pool));
    for &a in attrs {
        for p in warm_preds(a) {
            let session = SessionOracle::new(&**oracle);
            sched
                .with_detached(&[a], |sub| {
                    sub.try_select(&session, &p, &mut StdRng::seed_from_u64(u64::from(a)))
                })
                .expect("warm select");
        }
    }

    let qpf_before = oracle.qpf_uses();
    let fsyncs_before = metrics::global().get(Metric::GroupCommitFsyncs);
    let start = Instant::now();
    let mut handles = Vec::new();
    for (w, &attr) in attrs.iter().enumerate() {
        let sched = Arc::clone(&sched);
        let oracle = Arc::clone(oracle);
        handles.push(std::thread::spawn(move || {
            for i in 0..ops {
                let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound(w, i));
                let mut rng = StdRng::seed_from_u64((w * ops + i) as u64);
                let session = SessionOracle::new(&*oracle);
                sched
                    .with_detached(&[attr], |sub| sub.try_select(&session, &pred, &mut rng))
                    .expect("select commits durably");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let commits = (attrs.len() * ops) as u64;
    let sched = Arc::try_unwrap(sched).unwrap_or_else(|_| panic!("writers joined"));
    let engine = sched.into_engine();
    ShardCommitPoint {
        id: format!("sharded_s{shards}_w{WRITERS}"),
        commits,
        ms,
        throughput: commits as f64 / (ms / 1_000.0),
        qpf: oracle.qpf_uses() - qpf_before,
        fsyncs: metrics::global().get(Metric::GroupCommitFsyncs) - fsyncs_before,
        k: total_k(&engine),
    }
}

/// Runs all three variants.
pub fn measure(scale: Scale) -> ShardCommitData {
    // Commit-throughput benchmark: n stays modest so per-op evaluation is
    // cheap and the durable commit path (WAL append + fsync) dominates —
    // that is the cost group commit exists to amortize.
    let n = match scale {
        Scale::Ci => 1_000,
        Scale::Default => 2_000,
        Scale::Paper => 8_000,
    };
    let ops_per_writer = scale.queries(160);
    let attrs = disjoint_attrs();
    let oracle = Arc::new(dataset(n, &attrs));

    let points = vec![
        run_coarse(&oracle, &attrs, n, ops_per_writer),
        run_sharded(&oracle, &attrs, n, ops_per_writer, 1),
        run_sharded(&oracle, &attrs, n, ops_per_writer, SHARDS),
    ];
    ShardCommitData {
        points,
        n,
        ops_per_writer,
    }
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let data = measure(scale);
    let mut out = String::new();
    out.push_str(&format!(
        "## shard_commit — durable commit throughput, {WRITERS} writers × {} commits, n = {}\n\n",
        data.ops_per_writer, data.n
    ));
    out.push_str(
        "| variant | commits | wall ms | commits/s | fsyncs | commits/fsync | QPF |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.0} | {} | {:.1} | {} |\n",
            p.id,
            p.commits,
            p.ms,
            p.throughput,
            p.fsyncs,
            p.commits as f64 / (p.fsyncs.max(1)) as f64,
            p.qpf
        ));
    }
    let coarse = &data.points[0];
    let sharded = data.points.last().expect("three variants");
    out.push_str(&format!(
        "\nspeedup (sharded_s{SHARDS} vs coarse): {:.2}x\n",
        sharded.throughput / coarse.throughput
    ));

    let rows = data
        .points
        .iter()
        .map(|p| BenchRow {
            id: p.id.clone(),
            qpf_uses: p.qpf,
            ms: p.ms,
            k: p.k,
            n: data.n as u64,
            threads: WRITERS as u64,
        })
        .collect();
    (out, rows)
}
