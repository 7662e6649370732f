//! Loopback equivalence: the networked engine must be indistinguishable
//! from the in-process one.
//!
//! * sequentially, every reply (results *and* stats, QPF uses included)
//!   must be byte-identical to driving a twin engine in process;
//! * concurrently, replaying the committed queries in commit-sequence
//!   order on a fresh engine must reproduce every reply exactly — which
//!   also proves total QPF spend never exceeds the sequential cost;
//! * shutdown must drain without losing committed refinements (durable
//!   mode survives a full server restart);
//! * failures (unknown attributes, hostile ids, bad dimension lists)
//!   surface as stable wire codes, never as dead workers.

use prkb_core::snapshot;
use prkb_core::{EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{AttrId, ComparisonOp, Predicate, TupleId};
use prkb_server::{proto, ClientError, PrkbClient, PrkbServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ROWS: usize = 240;

fn columns() -> Vec<Vec<u64>> {
    vec![
        (0..ROWS as u64).map(|i| (i * 37) % ROWS as u64).collect(),
        (0..ROWS as u64).map(|i| (i * 101) % ROWS as u64).collect(),
    ]
}

fn fresh_engine(n: usize, attrs: u32) -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for a in 0..attrs {
        engine.init_attr(a, n);
    }
    engine
}

fn start_server() -> (
    std::net::SocketAddr,
    prkb_server::ServerHandle<Predicate, PlainOracle>,
) {
    let oracle = PlainOracle::from_columns(columns());
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(ROWS, 2),
        oracle,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

/// One recorded query: everything needed to replay it in process.
#[derive(Debug, Clone)]
enum Spec {
    Single(u64, Predicate),
    Md(u64, Vec<[Predicate; 2]>),
}

fn replay(
    engine: &mut PrkbEngine<Predicate>,
    oracle: &PlainOracle,
    spec: &Spec,
) -> (Vec<TupleId>, prkb_core::QueryStats) {
    match spec {
        Spec::Single(seed, pred) => {
            let sel = engine
                .try_select(oracle, pred, &mut StdRng::seed_from_u64(*seed))
                .expect("replay select");
            (sel.sorted(), sel.stats)
        }
        Spec::Md(seed, dims) => {
            let sel = engine
                .try_select_range_md(oracle, dims, &mut StdRng::seed_from_u64(*seed))
                .expect("replay md");
            (sel.sorted(), sel.stats)
        }
    }
}

fn kb_bytes(engine: &PrkbEngine<Predicate>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<AttrId> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

// ---------------------------------------------------------------------------
// Sequential equivalence
// ---------------------------------------------------------------------------

#[test]
fn single_client_matches_in_process_engine() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.ping().expect("ping");

    let mut inline_oracle = PlainOracle::from_columns(columns());
    let mut inline = fresh_engine(ROWS, 2);

    let queries: Vec<Spec> = vec![
        Spec::Single(11, Predicate::cmp(0, ComparisonOp::Lt, 120)),
        Spec::Single(12, Predicate::cmp(0, ComparisonOp::Ge, 40)),
        Spec::Single(13, Predicate::between(1, 30, 180)),
        Spec::Single(14, Predicate::cmp(1, ComparisonOp::Le, 77)),
        Spec::Md(
            15,
            vec![
                [
                    Predicate::cmp(0, ComparisonOp::Gt, 20),
                    Predicate::cmp(0, ComparisonOp::Lt, 200),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Ge, 10),
                    Predicate::cmp(1, ComparisonOp::Le, 150),
                ],
            ],
        ),
        Spec::Single(16, Predicate::cmp(0, ComparisonOp::Lt, 119)),
        Spec::Single(17, Predicate::between(0, 60, 90)),
    ];

    for (i, spec) in queries.iter().enumerate() {
        let reply = match spec {
            Spec::Single(seed, pred) => client.select(*seed, *pred).expect("select"),
            Spec::Md(seed, dims) => client
                .select_range_md(*seed, dims.clone())
                .expect("md select"),
        };
        let (expected_tuples, expected_stats) = replay(&mut inline, &inline_oracle, spec);
        assert_eq!(reply.sorted(), expected_tuples, "query {i}: result set");
        assert_eq!(reply.stats, expected_stats, "query {i}: full stats");
        assert_eq!(
            reply.stats.qpf_uses, expected_stats.qpf_uses,
            "query {i}: QPF spend"
        );
        assert_eq!(reply.seq, i as u64 + 1, "dense commit sequence");
    }

    // Insert: upload the row out of band (owner→SP data path), then route
    // its id over the wire.
    let new_row = [55u64, 200u64];
    let t = {
        let oracle = handle.oracle();
        let mut oracle = oracle.write().expect("oracle write");
        oracle.insert(&new_row)
    };
    assert_eq!(t as usize, ROWS);
    let t_inline = inline_oracle.insert(&new_row);
    assert_eq!(t, t_inline);
    let (_, outcomes) = client.insert(t).expect("insert");
    let inline_outcomes = inline.try_insert(&inline_oracle, t).expect("inline insert");
    assert_eq!(outcomes, inline_outcomes, "insert routing outcomes");

    // Delete the freshly inserted tuple again, both sides.
    client.delete(t).expect("delete");
    inline.delete(t);

    // After identical histories the knowledge bases must be byte-identical.
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert_eq!(report.frame_errors(), 0);
    let server_kb = report.inspect(kb_bytes);
    assert_eq!(server_kb, kb_bytes(&inline), "knowledge byte-identical");
    report.inspect(|engine| {
        for a in engine.attrs().collect::<Vec<_>>() {
            engine
                .knowledge(a)
                .expect("attr")
                .validate()
                .expect("knowledge invariants after wire history");
        }
    });
}

// ---------------------------------------------------------------------------
// Concurrent equivalence
// ---------------------------------------------------------------------------

#[test]
fn four_clients_match_sequential_replay() {
    let (addr, handle) = start_server();
    type Record = (u64, Spec, Vec<TupleId>, prkb_core::QueryStats);
    let records: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));

    let mut workers = Vec::new();
    for w in 0..4u64 {
        let records = Arc::clone(&records);
        workers.push(std::thread::spawn(move || {
            let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
            for round in 0..10u64 {
                let seed = w * 1000 + round;
                let attr = ((w + round) % 2) as u32;
                let lo = (w * 23 + round * 17) % 200;
                let spec = if round % 4 == 3 {
                    Spec::Md(
                        seed,
                        vec![
                            [
                                Predicate::cmp(0, ComparisonOp::Gt, lo),
                                Predicate::cmp(0, ComparisonOp::Lt, lo + 40),
                            ],
                            [
                                Predicate::cmp(1, ComparisonOp::Ge, lo / 2),
                                Predicate::cmp(1, ComparisonOp::Le, lo / 2 + 80),
                            ],
                        ],
                    )
                } else if round % 4 == 2 {
                    Spec::Single(seed, Predicate::between(attr, lo, lo + 30))
                } else {
                    Spec::Single(seed, Predicate::cmp(attr, ComparisonOp::Lt, lo + 20))
                };
                let reply = match &spec {
                    Spec::Single(seed, pred) => client.select(*seed, *pred).expect("select"),
                    Spec::Md(seed, dims) => {
                        client.select_range_md(*seed, dims.clone()).expect("md")
                    }
                };
                records.lock().expect("records lock").push((
                    reply.seq,
                    spec,
                    reply.sorted(),
                    reply.stats,
                ));
            }
        }));
    }
    for w in workers {
        w.join().expect("client worker");
    }

    let client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");

    // Commit sequence numbers are a total order: dense and unique.
    let mut records = Arc::try_unwrap(records)
        .expect("workers joined")
        .into_inner()
        .expect("records lock");
    records.sort_by_key(|(seq, ..)| *seq);
    let seqs: Vec<u64> = records.iter().map(|(seq, ..)| *seq).collect();
    assert_eq!(seqs, (1..=40u64).collect::<Vec<_>>(), "dense total order");

    // Replaying in commit order on a fresh engine reproduces every reply —
    // results and per-query QPF spend — so the concurrent total equals the
    // sequential total (and in particular never exceeds it).
    let inline_oracle = PlainOracle::from_columns(columns());
    let mut inline = fresh_engine(ROWS, 2);
    let mut concurrent_total = 0u64;
    for (seq, spec, tuples, stats) in &records {
        let (expected_tuples, expected_stats) = replay(&mut inline, &inline_oracle, spec);
        assert_eq!(tuples, &expected_tuples, "seq {seq}: result set");
        assert_eq!(stats, &expected_stats, "seq {seq}: stats");
        concurrent_total += stats.qpf_uses;
    }
    let sequential_total: u64 = records.iter().map(|(_, _, _, s)| s.qpf_uses).sum();
    assert!(concurrent_total <= sequential_total);

    // The concurrently-built knowledge passes its structural invariants
    // and matches the sequential replay byte for byte.
    let server_kb = report.inspect(kb_bytes);
    assert_eq!(server_kb, kb_bytes(&inline));
    report.inspect(|engine| {
        for a in 0..2u32 {
            engine
                .knowledge(a)
                .expect("attr")
                .validate()
                .expect("valid knowledge after concurrent serving");
        }
    });
}

// ---------------------------------------------------------------------------
// Durable pool: shutdown loses nothing
// ---------------------------------------------------------------------------

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "prkb-server-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The one durable server path, at one shard (the coarse single-WAL
/// deployment) and at four.
#[test]
fn durable_pool_backend_survives_restart() {
    for shards in [1, 4] {
        durable_pool_survives_restart_at(shards);
    }
}

fn durable_pool_survives_restart_at(shards: usize) {
    let dir = TmpDir::new("durable-pool");
    let oracle = PlainOracle::from_columns(columns());
    let map = ShardMap::new(shards);
    let mut pool =
        ShardedDurablePool::open(&dir.0, EngineConfig::default(), map).expect("open pool");
    pool.init_attr(0, ROWS).expect("init");
    pool.init_attr(1, ROWS).expect("init");

    let server =
        PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, ServerConfig::default())
            .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    for (i, bound) in [100u64, 40, 170, 90].into_iter().enumerate() {
        let attr = (i % 2) as u32;
        let reply = client
            .select(i as u64, Predicate::cmp(attr, ComparisonOp::Lt, bound))
            .expect("select");
        assert_eq!(reply.tuples.len(), bound as usize);
    }
    // A cross-shard footprint too: PRKB(MD) over both attributes commits
    // one WAL record on each owning shard.
    let dims = vec![
        [
            Predicate::cmp(0, ComparisonOp::Gt, 30),
            Predicate::cmp(0, ComparisonOp::Lt, 120),
        ],
        [
            Predicate::cmp(1, ComparisonOp::Gt, 10),
            Predicate::cmp(1, ComparisonOp::Lt, 200),
        ],
    ];
    client.select_range_md(9, dims).expect("md select");
    client.shutdown().expect("shutdown (drains every shard)");
    let report = handle.join().expect("join");
    let (k0_live, k1_live) = report.inspect(|e| {
        (
            e.knowledge(0).expect("attr 0").k(),
            e.knowledge(1).expect("attr 1").k(),
        )
    });
    assert!(k0_live > 1, "queries refined attr 0 (k = {k0_live})");
    drop(report);

    // Reopen: the manifest pins the shard count and every shard's WAL
    // replays its own committed history.
    let pool = ShardedDurablePool::<Predicate>::open(
        &dir.0,
        EngineConfig::default(),
        ShardMap::new(shards % 4 + 1), // ignored: manifest wins
    )
    .expect("reopen pool");
    assert_eq!(pool.map().shards(), shards);
    let mut k_disk = (0, 0);
    for sid in 0..shards {
        let engine = pool.shard_engine(sid);
        if let Some(kb) = engine.knowledge(0) {
            k_disk.0 = kb.k();
        }
        if let Some(kb) = engine.knowledge(1) {
            k_disk.1 = kb.k();
        }
    }
    assert_eq!(
        k_disk,
        (k0_live, k1_live),
        "{shards} shard(s): no committed refinement lost to restart"
    );
}

// ---------------------------------------------------------------------------
// Error paths and metrics
// ---------------------------------------------------------------------------

#[test]
fn failures_map_to_stable_wire_codes() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");

    // Unknown attribute.
    let err = client
        .select(1, Predicate::cmp(9, ComparisonOp::Lt, 5))
        .expect_err("attr 9 unknown");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::ATTR_NOT_INITIALIZED),
        "got {err:?}"
    );

    // Hostile tuple id on insert.
    let err = client.insert(999_999).expect_err("tuple beyond table");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::MALFORMED),
        "got {err:?}"
    );

    // Duplicate MD dimension.
    let dims = vec![
        [
            Predicate::cmp(0, ComparisonOp::Gt, 1),
            Predicate::cmp(0, ComparisonOp::Lt, 9),
        ],
        [
            Predicate::cmp(0, ComparisonOp::Ge, 2),
            Predicate::cmp(0, ComparisonOp::Le, 8),
        ],
    ];
    let err = client.select_range_md(1, dims).expect_err("dup dims");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::DUPLICATE_DIMENSION),
        "got {err:?}"
    );

    // Mismatched attributes inside one dimension.
    let dims = vec![[
        Predicate::cmp(0, ComparisonOp::Gt, 1),
        Predicate::cmp(1, ComparisonOp::Lt, 9),
    ]];
    let err = client.select_range_md(1, dims).expect_err("mismatched dim");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::MALFORMED),
        "got {err:?}"
    );

    // The connection survived all of that.
    client.ping().expect("still alive");
    let reply = client
        .select(2, Predicate::cmp(0, ComparisonOp::Lt, 50))
        .expect("healthy query");
    assert_eq!(reply.tuples.len(), 50);

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn metrics_snapshot_travels_the_wire() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    client
        .select(3, Predicate::cmp(0, ComparisonOp::Lt, 10))
        .expect("select");

    let json = client.metrics().expect("metrics");
    assert!(json.contains("\"schema\":\"prkb-metrics/v6\""), "{json}");
    assert!(json.contains("\"shards\":"), "{json}");
    assert!(json.contains("\"group_commit_fsyncs\""), "{json}");
    assert!(json.contains("\"shard_lock_wait_us\""), "{json}");
    assert!(json.contains("\"server_requests\""), "{json}");
    assert!(json.contains("\"server_bytes\""), "{json}");
    assert!(json.contains("\"frame_errors\""), "{json}");

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    // Ping + select + metrics + shutdown, at least (the registry is
    // process-global and other tests share it, so assert on the report).
    assert!(
        report.requests() >= 4,
        "served {} requests",
        report.requests()
    );
    assert_eq!(report.frame_errors(), 0);
}
