//! The three workloads: set-up, the served measurement, answer and cost
//! checks, and (traced runs) the in-process replay.
//!
//! Every run does a fixed amount of work, scaled by `--seconds`, so a
//! faster program finishes sooner instead of doing more work in a
//! different state. The work is split into trials: one pass of every
//! client's operation list. Timings are taken per trial and reported as the
//! median over trials, so a burst of interference on the host moves one
//! trial, not the result. Set-up repeats several times; `setup_s` is the
//! median.

use crate::data::{scale, Dataset, Digest, OwnerTimes, RangeSpec, DOMAIN};
use crate::layers::{self, LayerInputs};
use crate::oracle::BenchOracle;
use crate::replay::replay;
use crate::run::{self, ClientRun, Kind, Op, Plan, Record, Reply};
use crate::stats::{self, metric, Metric};
use crate::storage::{IoCounters, TracedFs};
use crate::trace::{self, Span};
use prkb_core::metrics as registry;
use prkb_core::{
    EngineConfig, MdUpdatePolicy, PrkbEngine, QueryError, ShardMap, ShardedDurablePool,
};
use prkb_edbms::{AttrId, ComparisonOp, CrashInjector, EncryptedPredicate, Predicate, TupleId};
use prkb_server::{
    PrkbClient, PrkbServer, ServerConfig, ServerHandle, SessionOracle, SessionScheduler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

type P = EncryptedPredicate;

/// Client connections, one per attribute.
pub const CLIENTS: usize = 2;

/// `cold_range`: tuples per attribute, ranges per client per trial, trials
/// per ten seconds. Trial `t` queries attributes `2t` and `2t + 1` (copies
/// of two columns) that nothing queried before, so every trial starts from
/// k = 1 on the same server; each stream has its own seeded start.
const COLD_N: usize = 250_000;
const COLD_QUERIES: usize = 100;
const COLD_TRIALS_PER_10S: usize = 8;
const COLD_SETUP_REPS: usize = 5;

/// `warm_select`: tuples per attribute, warm-up ranges per attribute
/// (k ≈ 1,100 after them), operations per client per trial, trials per ten
/// seconds. The frozen knowledge base makes every trial the same work.
const WARM_N: usize = 500_000;
const WARM_UP: usize = 600;
const WARM_OPS: usize = 200;
const WARM_TRIALS_PER_10S: usize = 6;
const WARM_SETUP_REPS: usize = 3;

/// `durable_mixed`: tuples per attribute, warm-up ranges per attribute,
/// the operation mix in percent, operations per client per trial, trials
/// per ten seconds. Each trial sends new operations.
const DURABLE_N: usize = 100_000;
const DURABLE_WARM_UP: usize = 200;
const RANGE_PCT: u32 = 70;
const INSERT_PCT: u32 = 25;
const DURABLE_OPS: usize = 1_250;
const DURABLE_TRIALS_PER_10S: usize = 12;
const DURABLE_SETUP_REPS: usize = 5;
/// Fixed 1% ranges per attribute checked after the reopen.
const CHECK_RANGES: usize = 4;

/// Completed responses the server memoizes for idempotent retries. The
/// default window (1,024) keeps every recent Selection reply whole; with
/// multi-megabyte one-sided replies that is gigabytes of resident memory
/// that grows with throughput, so the benchmark keeps a retry horizon for
/// its two clients instead.
const DEDUP_WINDOW: usize = 4;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for durable pools and span dumps.
    pub out: PathBuf,
}

/// Failed requests and wrong answers, with the first few explained.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, why: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(why);
        }
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics and the per-op time accounting (traced runs).
    pub layers: Vec<Metric>,
    pub accounting: Vec<(&'static str, f64)>,
    pub config: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
}

fn server_config() -> ServerConfig {
    // Threads and queue come from the pinned PRKB_SERVER_* knobs.
    ServerConfig {
        dedup_window: DEDUP_WINDOW,
        ..ServerConfig::default()
    }
}

/// Work units for the requested measurement time: `per_10s` for every ten
/// seconds asked for, at least one.
fn scaled(seconds: u64, per_10s: usize) -> usize {
    (per_10s * seconds as usize).div_ceil(10).max(1)
}

fn op_seed(seed: u64, client: usize, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64) << 48) ^ i as u64
}

fn fresh_engine(n: usize, attrs: usize) -> PrkbEngine<P> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for a in 0..attrs {
        engine.init_attr(a as AttrId, n);
    }
    engine
}

fn range_op(ds: &mut Dataset, attr: AttrId, at: f64, seed: u64) -> Op {
    let spec = ds.range(attr, at);
    let expect = ds.base_digest(attr, Some(spec.lo), Some(spec.hi));
    Op::Range { spec, seed, expect }
}

/// Runs `f` `reps` times, keeping the last result; returns it with every
/// repetition's duration in seconds.
fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one repetition"), times))
}

fn warm_specs(ds: &mut Dataset, per_attr: usize) -> Vec<Vec<RangeSpec>> {
    (0..CLIENTS)
        .map(|a| {
            let mut at = ds.spread();
            (0..per_attr)
                .map(|_| ds.range(a as AttrId, at.next().expect("endless")))
                .collect()
        })
        .collect()
}

fn warm_seed(attr: usize, i: usize) -> u64 {
    op_seed(0x3a97_0000, attr, i)
}

/// Warms an in-memory engine: each attribute's ranges run on their own
/// thread against that attribute's detached knowledge.
fn warm_engine(
    oracle: &BenchOracle,
    n: usize,
    specs: &[Vec<RangeSpec>],
) -> Result<PrkbEngine<P>, String> {
    let mut engine = fresh_engine(n, CLIENTS);
    let subs: Vec<PrkbEngine<P>> = (0..CLIENTS)
        .map(|a| engine.detach_attrs(&[a as AttrId]))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let warmed: Vec<Result<PrkbEngine<P>, QueryError>> = std::thread::scope(|s| {
        let handles: Vec<_> = subs
            .into_iter()
            .enumerate()
            .map(|(a, mut sub)| {
                let specs = &specs[a];
                s.spawn(move || {
                    for (i, spec) in specs.iter().enumerate() {
                        let mut rng = StdRng::seed_from_u64(warm_seed(a, i));
                        sub.try_select_range_md(oracle, &spec.dims, &mut rng)?;
                    }
                    Ok(sub)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    for sub in warmed {
        engine.attach(sub.map_err(|e| e.to_string())?);
    }
    Ok(engine)
}

/// Mean partition count over the indexed attributes.
fn mean_k(engine: &PrkbEngine<P>) -> f64 {
    let ks: Vec<f64> = engine
        .attrs()
        .filter_map(|a| engine.knowledge(a).map(|kb| kb.k() as f64))
        .collect();
    stats::mean(&ks)
}

/// Fails on any broken knowledge-base invariant.
fn validate(engine: &PrkbEngine<P>) -> Result<(), String> {
    for a in engine.attrs() {
        if let Some(kb) = engine.knowledge(a) {
            kb.validate()
                .map_err(|e| format!("attribute {a} knowledge invalid: {e}"))?;
        }
    }
    Ok(())
}

type Handle = ServerHandle<P, BenchOracle>;

fn spawn_server(
    server: std::io::Result<PrkbServer<P, BenchOracle>>,
) -> Result<(SocketAddr, Handle), String> {
    let server = server.map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.spawn().map_err(|e| e.to_string())?;
    Ok((addr, handle))
}

fn spawn_memory_server(
    engine: PrkbEngine<P>,
    oracle: BenchOracle,
) -> Result<(SocketAddr, Handle), String> {
    spawn_server(PrkbServer::bind(
        "127.0.0.1:0",
        engine,
        oracle,
        server_config(),
    ))
}

/// Drains a server and checks the knowledge it kept. Returns its mean k.
fn stop_server(handle: Handle, fails: &mut Failures) -> Result<f64, String> {
    handle.shutdown();
    let report = handle.join().map_err(|e| format!("server: {e}"))?;
    if let Err(e) = report.inspect(validate) {
        fails.add(e);
    }
    Ok(report.inspect(mean_k))
}

/// QPF spent by the selection replies among `records`.
fn reply_qpf(records: &[Record]) -> u64 {
    records
        .iter()
        .filter_map(|r| match &r.result {
            Ok(Reply::Selection { stats, .. }) => Some(stats.qpf_uses),
            _ => None,
        })
        .sum()
}

/// Checks answers whose expected digest was prepared with the inputs.
fn check_static(records: &[Record], plan: &Plan, fails: &mut Failures) {
    for r in records {
        match (&r.result, plan.op(r)) {
            (Err(e), _) => fails.add(format!("request {:#x}: {e}", r.request_id())),
            (
                Ok(Reply::Selection { digest, .. }),
                Op::Range { expect, .. } | Op::Select { expect, .. },
            ) => {
                if digest != expect {
                    fails.add(format!(
                        "request {:#x}: wrong answer ({} ids, expected {})",
                        r.request_id(),
                        digest.count,
                        expect.count
                    ));
                }
            }
            _ => fails.add(format!("request {:#x}: unexpected reply", r.request_id())),
        }
    }
}

fn check_cost(reply_qpf: u64, tm_delta: u64, what: &str, fails: &mut Failures) {
    if reply_qpf != tm_delta {
        fails.add(format!(
            "{what}: replies account for {reply_qpf} QPF, the trusted machine counted {tm_delta}"
        ));
    }
}

/// The served measurement of one workload.
struct Served {
    records: Vec<Record>,
    /// Each trial's records (as a range of `records`) and wall time.
    trials: Vec<(Range<usize>, Duration)>,
    tm_delta: u64,
    before: registry::MetricsSnapshot,
    after: registry::MetricsSnapshot,
    k_end: f64,
    spans: Vec<Span>,
}

impl Served {
    fn start() -> Self {
        let before = registry::global().snapshot();
        Served {
            records: Vec::new(),
            trials: Vec::new(),
            tm_delta: 0,
            before: before.clone(),
            after: before,
            k_end: 0.0,
            spans: Vec::new(),
        }
    }

    /// Runs trial `t` of `plan` against `addr`, with spans on in a traced
    /// run. Clients upload insert rows through `oracle` when `uploads` is
    /// set. Returns the trial's requests and the trusted machine's QPF
    /// count over it.
    fn trial(
        &mut self,
        ctx: &Ctx,
        addr: SocketAddr,
        plan: &Plan,
        t: usize,
        oracle: &Arc<RwLock<BenchOracle>>,
        uploads: bool,
    ) -> Result<(&[Record], u64), String> {
        let read = || oracle.read().expect("oracle lock: no holder panics");
        let slots = prkb_edbms::SelectionOracle::n_slots(&*read());
        let clients: Vec<ClientRun<'_>> = plan
            .trial(t)
            .iter()
            .enumerate()
            .map(|(c, list)| ClientRun {
                trial: t,
                client: c,
                ops: list,
                oracle: uploads.then(|| Arc::clone(oracle)),
                config: run::client_config(slots + CLIENTS * list.len()),
            })
            .collect();
        let tm0 = read().tm_uses();
        trace::set_enabled(ctx.trace);
        let driven = run::drive(addr, &clients);
        trace::set_enabled(false);
        let tm_delta = read().tm_uses() - tm0;
        let (records, wall) = driven?;
        let from = self.records.len();
        self.records.extend(records);
        self.trials.push((from..self.records.len(), wall));
        self.tm_delta += tm_delta;
        Ok((&self.records[from..], tm_delta))
    }

    fn stop(&mut self) {
        self.after = registry::global().snapshot();
        self.spans = trace::take();
    }

    /// Median over trials of `f(trial records, trial wall)`; trials for
    /// which `f` has nothing are skipped.
    fn per_trial(&self, f: impl Fn(&[Record], Duration) -> Option<f64>) -> Option<f64> {
        let v: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|(range, wall)| f(&self.records[range.clone()], *wall))
            .collect();
        (!v.is_empty()).then(|| stats::median(&v))
    }

    fn wall(&self) -> Duration {
        self.trials.iter().map(|(_, w)| *w).sum()
    }
}

// ---------------------------------------------------------------------------
// cold_range
// ---------------------------------------------------------------------------

struct ColdInputs {
    ds: Dataset,
    oracle: BenchOracle,
    plan: Plan,
}

fn cold_inputs(ctx: &Ctx) -> ColdInputs {
    let trials = scaled(ctx.seconds, COLD_TRIALS_PER_10S);
    let (mut ds, oracle) = Dataset::generate(ctx.seed, COLD_N, CLIENTS, CLIENTS * trials);
    let lists = (0..trials)
        .map(|t| {
            (0..CLIENTS)
                .map(|c| {
                    let attr = (t * CLIENTS + c) as AttrId;
                    let positions: Vec<f64> = ds.spread().take(COLD_QUERIES).collect();
                    positions
                        .into_iter()
                        .enumerate()
                        .map(|(i, at)| range_op(&mut ds, attr, at, op_seed(ctx.seed, c, i)))
                        .collect()
                })
                .collect()
        })
        .collect();
    ColdInputs {
        ds,
        oracle,
        plan: Plan { lists, trials },
    }
}

/// Fig. 8's learning curve through the server: every trial runs on
/// attributes whose knowledge base is still fresh (k = 1).
pub fn cold_range(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup) = repeated_setup(COLD_SETUP_REPS, || Ok(cold_inputs(ctx)))?;
    let ColdInputs { ds, oracle, plan } = inputs;
    let shared = Arc::new(RwLock::new(oracle.clone()));
    let mut fails = Failures::default();
    let (addr, handle) = spawn_memory_server(fresh_engine(ds.n, ds.attrs), oracle.clone())?;
    let mut served = Served::start();
    let mut done = Ok(());
    for t in 0..plan.trials {
        done = served
            .trial(ctx, addr, &plan, t, &shared, false)
            .map(|(records, tm_delta)| {
                check_cost(
                    reply_qpf(records),
                    tm_delta,
                    &format!("trial {t}"),
                    &mut fails,
                );
                check_static(records, &plan, &mut fails);
            });
        if done.is_err() {
            break;
        }
    }
    served.stop();
    served.k_end = stop_server(handle, &mut fails)?;
    done?;

    let mut outcome = finish(ctx, &served, &setup, fails);
    outcome.config.extend([
        ("tuples_per_attr", COLD_N.to_string()),
        ("ranges_per_client_per_trial", COLD_QUERIES.to_string()),
    ]);
    if ctx.trace {
        // Trial 0 again, on a fresh pool built the way the server builds it.
        let sched = SessionScheduler::new(fresh_engine(ds.n, ds.attrs));
        let first: Vec<&Record> = served.records.iter().filter(|r| r.trial == 0).collect();
        let spans = replay(&sched, &oracle, &plan, &first, &mut outcome.failures);
        traced(&mut outcome, &served, &first, spans, None, &ds.owner_times);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// warm_select
// ---------------------------------------------------------------------------

struct WarmInputs {
    ds: Dataset,
    oracle: BenchOracle,
    warm: Vec<Vec<RangeSpec>>,
    engine: PrkbEngine<P>,
    plan: Plan,
}

/// A warmed engine frozen as a static PRKB: the measured queries evaluate
/// against the warm partitions without refining them further, so every
/// query's QPF depends on the query alone and every trial is the same work.
fn frozen(mut engine: PrkbEngine<P>) -> PrkbEngine<P> {
    engine.config.update = false;
    engine.config.md_policy = MdUpdatePolicy::Frozen;
    engine
}

fn warm_inputs(ctx: &Ctx) -> Result<WarmInputs, String> {
    let (mut ds, oracle) = Dataset::generate(ctx.seed, WARM_N, CLIENTS, CLIENTS);
    let warm = warm_specs(&mut ds, WARM_UP);
    let engine = frozen(warm_engine(&oracle, ds.n, &warm)?);
    let lists = (0..CLIENTS)
        .map(|c| {
            let attr = c as AttrId;
            (0..WARM_OPS)
                .map(|i| {
                    let seed = op_seed(ctx.seed, c, i);
                    let at = ds.rng.gen_range(0.0..1.0);
                    if i % 2 == 0 {
                        let cut = scale(at, DOMAIN);
                        let pred = ds.trapdoor(attr, ComparisonOp::Lt, cut);
                        let expect = ds.base_digest(attr, None, Some(cut));
                        Op::Select {
                            attr,
                            pred,
                            seed,
                            expect,
                        }
                    } else {
                        range_op(&mut ds, attr, at, seed)
                    }
                })
                .collect()
        })
        .collect();
    let plan = Plan::repeated(lists, scaled(ctx.seconds, WARM_TRIALS_PER_10S));
    Ok(WarmInputs {
        ds,
        oracle,
        warm,
        engine,
        plan,
    })
}

/// Large one-sided replies beside 1% ranges, over a warm knowledge base.
pub fn warm_select(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup) = repeated_setup(WARM_SETUP_REPS, || warm_inputs(ctx))?;
    let WarmInputs {
        ds,
        oracle,
        warm,
        engine,
        plan,
    } = inputs;
    let k_warm = mean_k(&engine);
    let shared = Arc::new(RwLock::new(oracle.clone()));
    let mut fails = Failures::default();
    let (addr, handle) = spawn_memory_server(engine, oracle.clone())?;
    let mut served = Served::start();
    let mut done = Ok(());
    for t in 0..plan.trials {
        done = served
            .trial(ctx, addr, &plan, t, &shared, false)
            .map(|(records, tm_delta)| {
                check_cost(
                    reply_qpf(records),
                    tm_delta,
                    &format!("trial {t}"),
                    &mut fails,
                );
                check_static(records, &plan, &mut fails);
            });
        if done.is_err() {
            break;
        }
    }
    served.stop();
    served.k_end = stop_server(handle, &mut fails)?;
    done?;

    let mut outcome = finish(ctx, &served, &setup, fails);
    outcome.config.extend([
        ("tuples_per_attr", WARM_N.to_string()),
        ("warm_k", format!("{k_warm:.0}")),
        ("ops_per_client_per_trial", WARM_OPS.to_string()),
    ]);
    if ctx.trace {
        // The same warm state, rebuilt the same way; frozen knowledge makes
        // every trial replayable in one pass in commit order.
        let sched = SessionScheduler::new(frozen(warm_engine(&oracle, ds.n, &warm)?));
        let all: Vec<&Record> = served.records.iter().collect();
        let spans = replay(&sched, &oracle, &plan, &all, &mut outcome.failures);
        traced(&mut outcome, &served, &all, spans, None, &ds.owner_times);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// durable_mixed
// ---------------------------------------------------------------------------

fn durable_config() -> EngineConfig {
    EngineConfig {
        segmented_checkpoints: true,
        ..EngineConfig::default()
    }
}

fn open_pool(dir: &Path, fs: &TracedFs) -> Result<ShardedDurablePool<P>, String> {
    ShardedDurablePool::open_with_storage(
        dir,
        durable_config(),
        ShardMap::new(CLIENTS),
        CrashInjector::disabled(),
        Arc::new(fs.clone()),
    )
    .map_err(|e| format!("open pool: {e}"))
}

struct DurableInputs {
    ds: Dataset,
    oracle: BenchOracle,
    pool: ShardedDurablePool<P>,
    plan: Plan,
    checks: Vec<RangeSpec>,
}

/// Warms a durable pool through the durable scheduler: every warm-up
/// commit is logged and synced like a served one.
fn warm_pool(
    pool: ShardedDurablePool<P>,
    oracle: &BenchOracle,
    specs: &[Vec<RangeSpec>],
) -> Result<(), String> {
    let sched = SessionScheduler::durable(pool);
    let warmed: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(a, specs)| {
                let sched = &sched;
                s.spawn(move || {
                    for (i, spec) in specs.iter().enumerate() {
                        let session = SessionOracle::new(oracle);
                        let mut rng = StdRng::seed_from_u64(warm_seed(a, i));
                        sched
                            .with_detached(&[a as AttrId], |sub| {
                                sub.try_select_range_md(&session, &spec.dims, &mut rng)
                            })
                            .map_err(|e| format!("warm-up: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    warmed.into_iter().collect::<Result<Vec<()>, String>>()?;
    sched.flush_durable().map_err(|e| format!("drain: {e}"))
}

/// One client's operations for one trial. Deletes name an earlier insert
/// of the same list.
fn durable_list(ds: &mut Dataset, seed: u64, c: usize, t: usize) -> Vec<Op> {
    let mut inserts = 0usize;
    let mut deleted = 0usize;
    (0..DURABLE_OPS)
        .map(|i| {
            let roll = ds.rng.gen_range(0..100u32);
            if roll < RANGE_PCT {
                let at = ds.rng.gen_range(0.0..1.0);
                range_op(ds, c as AttrId, at, op_seed(seed, c, t * DURABLE_OPS + i))
            } else if roll < RANGE_PCT + INSERT_PCT || deleted == inserts {
                inserts += 1;
                let (row, cells) = ds.encrypt_row();
                Op::Insert { row, cells }
            } else {
                deleted += 1;
                Op::Delete { nth: deleted - 1 }
            }
        })
        .collect()
}

/// Creates and warms the pool, drains it and reopens it for serving, and
/// generates the operations.
fn durable_inputs(ctx: &Ctx, dir: &Path, fs: &TracedFs) -> Result<DurableInputs, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let (mut ds, oracle) = Dataset::generate(ctx.seed, DURABLE_N, CLIENTS, CLIENTS);
    let mut pool = open_pool(dir, fs)?;
    for a in 0..CLIENTS {
        pool.init_attr(a as AttrId, ds.n)
            .map_err(|e| format!("init attr {a}: {e}"))?;
    }
    let warm = warm_specs(&mut ds, DURABLE_WARM_UP);
    warm_pool(pool, &oracle, &warm)?;
    let pool = open_pool(dir, fs)?;

    let lists: Vec<Vec<Vec<Op>>> = (0..scaled(ctx.seconds, DURABLE_TRIALS_PER_10S))
        .map(|t| {
            (0..CLIENTS)
                .map(|c| durable_list(&mut ds, ctx.seed, c, t))
                .collect()
        })
        .collect();
    let trials = lists.len();
    let checks = (0..CLIENTS * CHECK_RANGES)
        .map(|i| {
            let at = ds.rng.gen_range(0.0..1.0);
            ds.range((i % CLIENTS) as AttrId, at)
        })
        .collect();
    Ok(DurableInputs {
        ds,
        oracle,
        pool,
        plan: Plan { lists, trials },
        checks,
    })
}

/// The inserted rows live at a point of the commit order.
struct Inserts {
    live: HashMap<TupleId, Vec<u64>>,
}

impl Inserts {
    fn digest(&self, ds: &Dataset, attr: AttrId, lo: Option<u64>, hi: Option<u64>) -> Digest {
        let mut d = ds.base_digest(attr, lo, hi);
        for (&t, row) in &self.live {
            let v = row[attr as usize];
            if lo.is_none_or(|lo| v > lo) && hi.is_none_or(|hi| v < hi) {
                d.add(t);
            }
        }
        d
    }
}

/// Checks every reply against the plaintext state at its commit point:
/// the uploaded table plus the inserts committed before it, minus the
/// deletes committed before it. Returns the final state.
fn check_dynamic(ds: &Dataset, records: &[Record], plan: &Plan, fails: &mut Failures) -> Inserts {
    let mut ok: Vec<&Record> = Vec::with_capacity(records.len());
    for r in records {
        match &r.result {
            Ok(_) => ok.push(r),
            Err(e) => fails.add(format!("request {:#x}: {e}", r.request_id())),
        }
    }
    ok.sort_by_key(|r| r.result.as_ref().map(Reply::seq).unwrap_or(0));
    let mut state = Inserts {
        live: HashMap::new(),
    };
    for r in ok {
        let id = r.request_id();
        match (r.result.as_ref().expect("errors filtered"), plan.op(r)) {
            (Reply::Selection { digest, .. }, Op::Range { spec, .. }) => {
                let expect = state.digest(ds, spec.attr, Some(spec.lo), Some(spec.hi));
                if *digest != expect {
                    fails.add(format!(
                        "request {id:#x}: wrong answer ({} ids, expected {})",
                        digest.count, expect.count
                    ));
                }
            }
            (Reply::Inserted { tuple, .. }, Op::Insert { row, .. }) => {
                state.live.insert(*tuple, row.clone());
            }
            (Reply::Deleted { tuple, .. }, Op::Delete { .. }) => {
                if state.live.remove(tuple).is_none() {
                    fails.add(format!(
                        "request {id:#x}: deleted a tuple that was not live"
                    ));
                }
            }
            _ => fails.add(format!("request {id:#x}: unexpected reply")),
        }
    }
    state
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Reopens the drained pool, serves the fixed check queries and validates
/// the recovered knowledge. Returns the time from open until the first
/// check answer came back correct, and the partitions recovery loaded.
fn reopen_and_check(
    dir: &Path,
    fs: &TracedFs,
    ds: &Dataset,
    oracle: BenchOracle,
    checks: &[RangeSpec],
    state: &Inserts,
    fails: &mut Failures,
) -> Result<(f64, u64), String> {
    let start = Instant::now();
    let pool = open_pool(dir, fs)?;
    let loaded: u64 = pool.reports().iter().map(|r| r.partitions_loaded).sum();
    let n_slots = prkb_edbms::SelectionOracle::n_slots(&oracle);
    let (addr, handle) = spawn_server(PrkbServer::bind_durable_pool(
        "127.0.0.1:0",
        pool,
        oracle,
        server_config(),
    ))?;
    let checked = (|| -> Result<f64, String> {
        let mut client = PrkbClient::<P>::connect_with(addr, run::client_config(n_slots))
            .map_err(|e| e.to_string())?;
        let mut reopen_ms = None;
        for (i, spec) in checks.iter().enumerate() {
            let reply = client
                .select_range_md(op_seed(ds.n as u64, 7, i), spec.dims.clone())
                .map_err(|e| format!("check query: {e}"))?;
            let expect = state.digest(ds, spec.attr, Some(spec.lo), Some(spec.hi));
            let correct = Digest::of(&reply.tuples) == expect;
            if reopen_ms.is_none() && correct {
                reopen_ms = Some(start.elapsed().as_secs_f64() * 1e3);
            }
            if !correct {
                fails.add(format!("after reopen: check range {i} wrong"));
            }
        }
        // The whole table per attribute: every acked insert present, every
        // acked delete absent.
        let mut rng = StdRng::seed_from_u64(ds.n as u64);
        for a in 0..CLIENTS {
            let attr = a as AttrId;
            let pred = ds
                .owner
                .trapdoor(
                    crate::data::TABLE,
                    &Predicate::cmp(attr, ComparisonOp::Gt, 0),
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
            let reply = client
                .select(op_seed(ds.n as u64, 9, a), pred)
                .map_err(|e| format!("check query: {e}"))?;
            if Digest::of(&reply.tuples) != state.digest(ds, attr, Some(0), None) {
                fails.add(format!("after reopen: attribute {a} lost or kept rows"));
            }
        }
        reopen_ms.ok_or_else(|| "no check query came back correct".to_string())
    })();
    stop_server(handle, fails)?;
    Ok((checked?, loaded))
}

/// Writes beside reads on a sharded durable pool, then drain and reopen.
pub fn durable_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.out.join(format!("pool-{}", ctx.seed));
    let fs = TracedFs::new();
    let (inputs, setup) = repeated_setup(DURABLE_SETUP_REPS, || durable_inputs(ctx, &dir, &fs))?;
    let DurableInputs {
        ds,
        oracle,
        pool,
        plan,
        checks,
    } = inputs;
    let replay_dir = ctx.out.join(format!("pool-{}-replay", ctx.seed));
    if ctx.trace {
        let _ = std::fs::remove_dir_all(&replay_dir);
        copy_dir(&dir, &replay_dir)?;
    }
    let mut fails = Failures::default();
    let server = PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, server_config())
        .map_err(|e| format!("bind: {e}"))?;
    let shared = server.oracle();
    let (addr, handle) = spawn_server(Ok(server))?;

    let io0 = fs.counters();
    let syncs0 = fs.sync_durations().len();
    let mut served = Served::start();
    let mut qpf = 0;
    let mut done = Ok(());
    for t in 0..plan.trials {
        done = served
            .trial(ctx, addr, &plan, t, &shared, true)
            .map(|(records, _)| qpf += reply_qpf(records));
        if done.is_err() {
            break;
        }
    }
    served.stop();
    let io = fs.counters().minus(&io0);
    let sync_ns: Vec<f64> = fs.sync_durations()[syncs0..]
        .iter()
        .map(|&ns| ns as f64)
        .collect();
    served.k_end = stop_server(handle, &mut fails)?;
    done?;
    let disk_bytes = dir_bytes(&dir);

    // Inserts spend QPF routing the new tuple; their replies carry no stats.
    let insert_qpf = stats::counter_delta(&served.before, &served.after, "insert_qpf_uses");
    check_cost(qpf + insert_qpf, served.tm_delta, "run", &mut fails);
    let state = check_dynamic(&ds, &served.records, &plan, &mut fails);
    let final_oracle = shared
        .read()
        .expect("oracle lock: no holder panics")
        .clone();
    let (reopen_ms, loaded) = reopen_and_check(
        &dir,
        &fs,
        &ds,
        final_oracle.clone(),
        &checks,
        &state,
        &mut fails,
    )?;

    let mut outcome = finish(ctx, &served, &setup, fails);
    outcome
        .metrics
        .push(metric("reopen_ms", reopen_ms, "ms", 1));
    outcome.config.extend([
        ("tuples_per_attr", DURABLE_N.to_string()),
        ("ops_per_client_per_trial", DURABLE_OPS.to_string()),
        (
            "mix",
            format!(
                "{RANGE_PCT}%range/{INSERT_PCT}%insert/{}%delete",
                100 - RANGE_PCT - INSERT_PCT
            ),
        ),
        ("shards", CLIENTS.to_string()),
    ]);
    if ctx.trace {
        let replay_fs = TracedFs::new();
        let sched = SessionScheduler::durable(open_pool(&replay_dir, &replay_fs)?);
        let all: Vec<&Record> = served.records.iter().collect();
        let spans = replay(&sched, &final_oracle, &plan, &all, &mut outcome.failures);
        drop(sched);
        let io = IoWindow {
            counters: io,
            sync_ns,
            disk_bytes,
            partitions_loaded: loaded,
        };
        traced(
            &mut outcome,
            &served,
            &all,
            spans,
            Some(io),
            &ds.owner_times,
        );
        let _ = std::fs::remove_dir_all(&replay_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------------

fn latencies_ms(records: &[Record], kind: Option<Kind>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k) && r.result.is_ok())
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect()
}

/// The end-to-end metrics: throughput and latency quantiles are taken per
/// trial and reported as the median over trials.
fn finish(ctx: &Ctx, served: &Served, setup: &[f64], failures: Failures) -> Outcome {
    let ops = served.records.len() as u64;
    let latency = |name: &'static str, kind: Option<Kind>, q: f64| {
        let samples = latencies_ms(&served.records, kind).len() as u64;
        served
            .per_trial(|records, _| {
                let v = latencies_ms(records, kind);
                (!v.is_empty()).then(|| stats::quantile(&v, q))
            })
            .map(|value| metric(name, value, "ms", samples))
    };
    let throughput = served
        .per_trial(|records, wall| Some(stats::ratio(records.len() as f64, wall.as_secs_f64())))
        .unwrap_or(0.0);
    let mut metrics = vec![
        metric("setup_s", stats::median(setup), "s", setup.len() as u64),
        metric("ops_per_s", throughput, "1/s", ops),
    ];
    metrics.extend(
        [
            latency("range_p50_ms", Some(Kind::Range), 0.5),
            latency("range_p90_ms", Some(Kind::Range), 0.9),
            latency("range_p99_ms", Some(Kind::Range), 0.99),
            latency("op_p50_ms", None, 0.5),
            latency("op_p90_ms", None, 0.9),
            latency("op_p99_ms", None, 0.99),
        ]
        .into_iter()
        .flatten(),
    );
    metrics.extend([
        metric(
            "qpf_per_op",
            stats::ratio(served.tm_delta as f64, ops as f64),
            "count",
            ops,
        ),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1),
        metric(
            "fail_ratio",
            stats::ratio(failures.count as f64, ops as f64),
            "ratio",
            ops,
        ),
    ]);
    metrics.extend(
        [
            latency("select_p50_ms", Some(Kind::Select), 0.5),
            latency("select_p99_ms", Some(Kind::Select), 0.99),
            latency("insert_p50_ms", Some(Kind::Insert), 0.5),
            latency("insert_p99_ms", Some(Kind::Insert), 0.99),
        ]
        .into_iter()
        .flatten(),
    );
    Outcome {
        attempted: ops,
        failures,
        metrics,
        layers: Vec::new(),
        accounting: Vec::new(),
        config: vec![
            ("seed", ctx.seed.to_string()),
            ("seconds", ctx.seconds.to_string()),
            ("measured_s", format!("{:.3}", served.wall().as_secs_f64())),
            ("trials", served.trials.len().to_string()),
            (
                "trial_ops_per_s",
                served
                    .trials
                    .iter()
                    .map(|(r, w)| format!("{:.0}", r.len() as f64 / w.as_secs_f64()))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            ("clients", CLIENTS.to_string()),
            ("setup_reps", setup.len().to_string()),
        ],
        spans: Vec::new(),
    }
}

/// Durable-storage observations over the served window.
pub struct IoWindow {
    pub counters: IoCounters,
    pub sync_ns: Vec<f64>,
    pub disk_bytes: u64,
    pub partitions_loaded: u64,
}

fn traced(
    outcome: &mut Outcome,
    served: &Served,
    replayed: &[&Record],
    replay_spans: Vec<Span>,
    io: Option<IoWindow>,
    owner: &OwnerTimes,
) {
    let (span_cost_ns, call_cost_ns) = trace::calibrate(100_000);
    let (metrics, accounting) = layers::compute(&LayerInputs {
        records: &served.records,
        replayed,
        replay_spans: &replay_spans,
        span_cost_ns,
        call_cost_ns,
        before: &served.before,
        after: &served.after,
        k_end: served.k_end,
        io: io.as_ref(),
        owner,
    });
    outcome.layers = metrics;
    outcome.accounting = accounting;
    outcome.spans = served.spans.clone();
    outcome.spans.extend(replay_spans);
}
