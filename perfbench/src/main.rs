//! End-to-end and per-layer benchmark of the PRKB service.
//!
//! ```text
//! perfbench --workload <cold_range|warm_select|durable_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real stack — `PrkbClient` → epoll reactor →
//! `SessionScheduler` → engine or `ShardedDurablePool` → trusted machine
//! over a `DataOwner`-encrypted table — with two closed-loop clients,
//! checks every answer, and prints a report followed by one JSON line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans on, replays it in process, and reports the
//! per-layer metrics. See `perfbench/README.md`.

mod data;
mod layers;
mod oracle;
mod replay;
mod run;
mod stats;
mod storage;
mod trace;
mod workloads;

use stats::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

/// End-to-end metrics printed by `--trace 0`, in order. The report table
/// has more (other latency quantiles, per-kind latencies, `fail_ratio`);
/// see the README for why they are not in this list.
const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "range_p50_ms",
    "op_p90_ms",
    "qpf_per_op",
    "peak_rss_mb",
];

/// Per-layer metrics printed by `--trace 1`, in order. The report table
/// also shows `scheduler.lock_wait_us_p50`, `durability.fsync_ms_p50` and
/// `durability.self_ms_per_op`; they are left out here because they read
/// exactly 0 on some workloads (lock waits below a microsecond, no disk
/// on the in-memory server).
const PER_LAYER: &[&str] = &[
    "oracle.busy_ms_per_op",
    "oracle.ns_per_qpf",
    "oracle.batches_per_op",
    "oracle.share_pct",
    "engine.filter_probes_per_op",
    "engine.ns_width_per_op",
    "engine.splits_per_op",
    "engine.k_end",
    "engine.ids_per_reply",
    "engine.self_ms_per_op",
    "scheduler.self_ms_per_op",
    "server.overhead_ms_per_op",
    "server.reply_bytes_per_op",
    "server.max_reply_bytes",
    "server.queue_wait_us_p50",
    "durability.fsyncs_per_op",
    "durability.records_per_fsync",
    "durability.wal_bytes_per_op",
    "lsm.checkpoints",
    "lsm.flush_bytes_per_checkpoint",
    "lsm.compactions",
    "lsm.disk_bytes_end",
    "lsm.partitions_loaded_at_reopen",
    "owner.trapdoor_us",
    "owner.encrypt_row_us",
    "trace.overhead_pct",
];

/// Every `PRKB_*` knob the program reads, pinned for reproducible runs.
/// Shard count can only be set this way for the in-memory server.
const PINNED: &[(&str, &str)] = &[
    ("PRKB_THREADS", "1"),
    ("PRKB_SHARDS", "2"),
    ("PRKB_SERVER_THREADS", "2"),
    ("PRKB_SERVER_QUEUE", "2"),
];

/// Crash and fault injection knobs; a measurement refuses to run with any
/// of them set.
const REFUSED: &[&str] = &[
    "PRKB_CRASH_POINT",
    "PRKB_IO_FAULT_SEED",
    "PRKB_FAULT_SEED",
    "PRKB_NET_FAULT_SEED",
];

const WORKLOADS: &[&str] = &["cold_range", "warm_select", "durable_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn pick<'a>(all: &'a [Metric], names: &[&str]) -> Result<Vec<&'a Metric>, String> {
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|m| m.name == *n)
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect()
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("{title}");
    for m in rows {
        println!(
            "  {:<34} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn report(args: &Args, outcome: &Outcome) -> Result<String, String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut config: Vec<String> = PINNED.iter().map(|(k, v)| format!("{k}={v}")).collect();
    config.extend(outcome.config.iter().map(|(k, v)| format!("{k}={v}")));
    config.push(format!(
        "cores={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    println!("config: {}", config.join(" "));
    print_table("end-to-end:", &outcome.metrics);
    if args.trace {
        print_table("per-layer:", &outcome.layers);
        println!("time per replayed op by layer (ms):");
        for (layer, ms) in &outcome.accounting {
            println!("  {layer:<34} {ms:>16.4}");
        }
    }
    println!(
        "attempted={} failed={}",
        outcome.attempted, outcome.failures.count
    );
    for why in &outcome.failures.first {
        println!("  failure: {why}");
    }

    let chosen = if args.trace {
        pick(&outcome.layers, PER_LAYER)?
    } else {
        pick(&outcome.metrics, END_TO_END)?
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failures.count == 0,
        outcome.attempted,
        outcome.failures.count
    );
    for (i, m) in chosen.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = REFUSED.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to measure with {v} set");
        return ExitCode::from(2);
    }
    // Single-threaded here: no other thread reads the environment yet.
    for (k, v) in PINNED {
        std::env::set_var(k, v);
    }
    let out = PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: out.clone(),
    };
    let result = match args.workload.as_str() {
        "cold_range" => workloads::cold_range(&ctx),
        "warm_select" => workloads::warm_select(&ctx),
        _ => workloads::durable_mixed(&ctx),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = out.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match trace::dump(&path, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    match report(&args, &outcome) {
        Ok(json) => {
            println!("{json}");
            if outcome.failures.count == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
