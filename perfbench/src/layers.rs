//! Per-layer metrics of a traced run.
//!
//! Counts come from where the work happens: reply `QueryStats` (engine),
//! the registry's scheduler and reactor histograms, the storage wrapper
//! (durability), the registry's checkpoint counters (segment store), and
//! the owner calls timed during set-up. Times come from the in-process
//! replay: each layer's self time is its spans' duration minus their
//! direct children, so scheduler + engine + oracle + storage self times
//! add up to the replayed operation, and the served round trip minus the
//! replay is the server path (wire, reactor, queueing, client).

use crate::data::OwnerTimes;
use crate::run::{Record, Reply};
use crate::stats::{self, metric, Metric};
use crate::trace::Span;
use crate::workloads::IoWindow;
use prkb_core::MetricsSnapshot;
use std::collections::HashMap;

pub struct LayerInputs<'a> {
    /// Every served request of the traced run.
    pub records: &'a [Record],
    /// The served requests that were replayed.
    pub replayed: &'a [&'a Record],
    pub replay_spans: &'a [Span],
    /// Measured cost of recording one span and one coalesced call.
    pub span_cost_ns: f64,
    pub call_cost_ns: f64,
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
    pub k_end: f64,
    pub io: Option<&'a IoWindow>,
    pub owner: &'a OwnerTimes,
}

/// Self time and totals per span name.
#[derive(Default)]
struct ByName {
    spans: u64,
    dur_ns: f64,
    self_ns: f64,
    count: u64,
}

fn by_name(spans: &[Span]) -> HashMap<&'static str, ByName> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.busy_ns;
        }
    }
    let mut out: HashMap<&'static str, ByName> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.dur_ns += s.busy_ns as f64;
        e.self_ns += s
            .busy_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64;
        e.count += s.count;
    }
    out
}

const MS: f64 = 1e6;

pub fn compute(inp: &LayerInputs<'_>) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let names = by_name(inp.replay_spans);
    let get = |n: &str| names.get(n);
    // Folded from 0.0: an empty f64 sum is -0.0.
    let sum = |f: fn(&ByName) -> f64, ns: &[&str]| -> f64 {
        ns.iter()
            .filter_map(|n| get(n))
            .map(f)
            .fold(0.0, |a, b| a + b)
    };
    let replayed = get("replay.op").map_or(0, |b| b.spans) as f64;
    let per_op = |ns: f64| stats::ratio(ns, replayed) / MS;

    let rt_replayed_ns: f64 = inp
        .replayed
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.latency_ns as f64)
        .sum();
    let op_ns = sum(|b| b.dur_ns, &["replay.op"]);
    let oracle_ns = sum(|b| b.self_ns, &["oracle.eval", "oracle.batch"]);
    let oracle_qpf = sum(|b| b.count as f64, &["oracle.eval", "oracle.batch"]);
    let storage_ns = sum(|b| b.self_ns, &["storage.sync"]);
    let batches = sum(|b| b.spans as f64, &["oracle.batch"]);
    // Recording costs land in the parent's self time: coalesced oracle
    // calls and batch spans inside the engine span, the engine and storage
    // spans inside the replayed operation. Take them out again.
    let calls = sum(|b| b.count as f64, &["oracle.eval"]);
    let engine_trace_ns = calls * inp.call_cost_ns + batches * inp.span_cost_ns;
    let scheduler_trace_ns =
        sum(|b| b.spans as f64, &["engine", "storage.sync"]) * inp.span_cost_ns;
    let trace_ns = engine_trace_ns + scheduler_trace_ns;
    let scheduler_ns = (sum(|b| b.self_ns, &["replay.op"]) - scheduler_trace_ns).max(0.0);
    let engine_ns = (sum(|b| b.self_ns, &["engine"]) - engine_trace_ns).max(0.0);

    let ok: Vec<&Record> = inp.records.iter().filter(|r| r.result.is_ok()).collect();
    let ops = ok.len() as f64;
    let selections: Vec<&prkb_core::QueryStats> = ok
        .iter()
        .filter_map(|r| match r.result.as_ref() {
            Ok(Reply::Selection { stats, .. }) => Some(stats),
            _ => None,
        })
        .collect();
    let ids: Vec<f64> = ok
        .iter()
        .filter_map(|r| match r.result.as_ref() {
            Ok(Reply::Selection { ids, .. }) => Some(*ids as f64),
            _ => None,
        })
        .collect();
    let sel_mean = |f: fn(&prkb_core::QueryStats) -> f64| {
        stats::mean(&selections.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let reply_bytes: Vec<f64> = ok.iter().map(|r| r.reply_bytes as f64).collect();
    let delta = |name: &str| stats::counter_delta(inp.before, inp.after, name) as f64;
    let (lock_wait, lock_n) = stats::histogram_p50(inp.before, inp.after, "shard_lock_wait_us");
    let (queue_wait, queue_n) =
        stats::histogram_p50(inp.before, inp.after, "reactor_queue_wait_us");
    let n_sel = selections.len() as u64;
    let n_rep = replayed as u64;
    let n_ops = ok.len() as u64;

    let mut m = vec![
        // Trusted machine.
        metric("oracle.busy_ms_per_op", per_op(oracle_ns), "ms", n_rep),
        metric(
            "oracle.ns_per_qpf",
            stats::ratio(oracle_ns, oracle_qpf),
            "ns",
            oracle_qpf as u64,
        ),
        metric(
            "oracle.batches_per_op",
            stats::ratio(batches, replayed),
            "count",
            n_rep,
        ),
        metric(
            "oracle.share_pct",
            100.0 * stats::ratio(oracle_ns, rt_replayed_ns),
            "%",
            n_rep,
        ),
        // Engine.
        metric(
            "engine.filter_probes_per_op",
            sel_mean(|s| s.filter_probes as f64),
            "count",
            n_sel,
        ),
        metric(
            "engine.ns_width_per_op",
            sel_mean(|s| s.ns_width as f64),
            "count",
            n_sel,
        ),
        metric(
            "engine.splits_per_op",
            sel_mean(|s| s.splits as f64),
            "count",
            n_sel,
        ),
        metric("engine.k_end", inp.k_end, "count", 1),
        metric("engine.ids_per_reply", stats::mean(&ids), "count", n_sel),
        metric("engine.self_ms_per_op", per_op(engine_ns), "ms", n_rep),
        // Scheduler.
        metric("scheduler.lock_wait_us_p50", lock_wait, "us", lock_n),
        metric(
            "scheduler.self_ms_per_op",
            per_op(scheduler_ns),
            "ms",
            n_rep,
        ),
        // Server path.
        metric(
            "server.overhead_ms_per_op",
            stats::ratio(rt_replayed_ns - op_ns, replayed) / MS,
            "ms",
            n_rep,
        ),
        metric(
            "server.reply_bytes_per_op",
            stats::mean(&reply_bytes),
            "bytes",
            n_ops,
        ),
        metric(
            "server.max_reply_bytes",
            reply_bytes.iter().copied().fold(0.0, f64::max),
            "bytes",
            n_ops,
        ),
        metric("server.queue_wait_us_p50", queue_wait, "us", queue_n),
    ];

    // Durability and segment store (zero on the in-memory workloads).
    let io = inp.io;
    let syncs = io.map_or(0, |w| w.counters.syncs) as f64;
    m.extend([
        metric(
            "durability.fsyncs_per_op",
            stats::ratio(syncs, ops),
            "count",
            n_ops,
        ),
        metric(
            "durability.records_per_fsync",
            stats::ratio(delta("group_commit_records"), delta("group_commit_fsyncs")),
            "count",
            delta("group_commit_fsyncs") as u64,
        ),
        metric(
            "durability.wal_bytes_per_op",
            stats::ratio(io.map_or(0, |w| w.counters.wal_bytes) as f64, ops),
            "bytes",
            n_ops,
        ),
        metric(
            "durability.fsync_ms_p50",
            io.map_or(0.0, |w| stats::median(&w.sync_ns) / MS),
            "ms",
            syncs as u64,
        ),
        metric("durability.self_ms_per_op", per_op(storage_ns), "ms", n_rep),
        metric("lsm.checkpoints", delta("checkpoints"), "count", 1),
        metric(
            "lsm.flush_bytes_per_checkpoint",
            stats::ratio(delta("segment_flush_bytes"), delta("checkpoints")),
            "bytes",
            delta("checkpoints") as u64,
        ),
        metric("lsm.compactions", delta("compactions"), "count", 1),
        metric(
            "lsm.disk_bytes_end",
            io.map_or(0, |w| w.disk_bytes) as f64,
            "bytes",
            1,
        ),
        metric(
            "lsm.partitions_loaded_at_reopen",
            io.map_or(0, |w| w.partitions_loaded) as f64,
            "count",
            1,
        ),
    ]);

    // Owner and tracing.
    let o = inp.owner;
    m.extend([
        metric(
            "owner.trapdoor_us",
            stats::ratio(o.trapdoor_ns as f64, o.trapdoors as f64) / 1e3,
            "us",
            o.trapdoors,
        ),
        metric(
            "owner.encrypt_row_us",
            stats::ratio(o.encrypt_row_ns as f64, o.rows as f64) / 1e3,
            "us",
            o.rows,
        ),
        metric(
            "trace.overhead_pct",
            100.0 * stats::ratio(trace_ns, op_ns),
            "%",
            inp.replay_spans.len() as u64,
        ),
    ]);

    let accounting = vec![
        (
            "server path",
            stats::ratio(rt_replayed_ns - op_ns, replayed) / MS,
        ),
        ("scheduler", per_op(scheduler_ns)),
        ("engine", per_op(engine_ns)),
        ("oracle (TM)", per_op(oracle_ns)),
        ("storage sync", per_op(storage_ns)),
        ("span recording", per_op(trace_ns)),
        (
            "served round trip",
            stats::ratio(rt_replayed_ns, replayed) / MS,
        ),
    ];
    (m, accounting)
}
