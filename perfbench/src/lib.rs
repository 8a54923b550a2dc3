//! Wall-clock benchmark of a mounted NEXUS volume.
//!
//! Four single-client workloads (`bulk`, `tree`, `durable`, `share`) drive a
//! volume built through the public `NexusVolume` API with the default
//! `NexusConfig`, from one thread in a closed loop, and check every result
//! against models the benchmark keeps itself. Untraced runs report the
//! end-to-end metrics; traced runs repeat the workload behind a timing
//! storage probe and report per-layer metrics. See `README.md`.

pub mod bulk;
pub mod gen;
pub mod harness;
pub mod probe;
pub mod replay;
pub mod share;
pub mod tree;

use harness::{median, pass, percentile_us, Params, Pass, Result, Stop, Workload, CLASSES};
use probe::Method;

pub const WORKLOADS: [&str; 4] = ["bulk", "tree", "durable", "share"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Fingerprint of the counted round's user data (not printed).
    pub inputs: u64,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object. Only runs whose every oracle held
    /// get one, so `correct` is always true.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Workloads whose operations are counted per second rather than per byte.
fn reports_ops(workload: &str) -> bool {
    workload != "bulk"
}

fn end_to_end<W: Workload>(w: &W, workload: &str, p: &Pass) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    out.push("setup_s", median(&p.setup_s), "s");
    // Throughput is the work of all timed rounds per second spent in the
    // volume's calls. The host's speed can halve for seconds at a time,
    // which makes per-round figures bimodal and their median jump between
    // the modes; the whole-run ratio averages over both.
    let secs = p.op_time.as_secs_f64();
    if reports_ops(workload) {
        out.push("ops_per_s", p.ops as f64 / secs, "1/s");
    } else {
        out.push(
            "mib_per_s",
            p.user_bytes as f64 / (1u64 << 20) as f64 / secs,
            "MiB/s",
        );
    }
    for (class, name) in CLASSES {
        let samples = &p.samples[class as usize];
        if let Some(p50) = percentile_us(samples, 0.50) {
            out.push(format!("{name}_p50_us"), p50, "us");
            if w.p99().contains(&class) {
                let p99 = p.p99_us(class).expect("a pass runs a p99 block");
                out.push(format!("{name}_p99_us"), p99, "us");
            }
        }
    }
    out.push(
        "storage_rpcs_per_op",
        p.counted.rpcs() as f64 / p.counted_ops as f64,
        "1/op",
    );
    out.push("stored_bytes_per_user_byte", p.stored_ratio, "ratio");
    out.push("peak_rss_mib", harness::peak_rss_mib(), "MiB");
    out.0
}

/// The count facts a traced and an untraced pass must share exactly.
fn count_facts(p: &Pass) -> String {
    format!(
        "io={:?} inventory={:?} counted={:?} ecalls={} ops={} stored={} supernode={} inputs={}",
        p.io_stats,
        p.inventory,
        p.counted,
        p.counted_ecalls,
        p.counted_ops,
        p.stored_ratio,
        p.supernode_bytes,
        p.inputs
    )
}

const COUNTED_METHODS: [Method; 8] = [
    Method::Get,
    Method::GetMany,
    Method::GetRange,
    Method::Put,
    Method::PutMany,
    Method::Stat,
    Method::Delete,
    Method::Lock,
];

const TIMED_METHODS: [Method; 5] = [
    Method::Put,
    Method::PutMany,
    Method::Get,
    Method::Stat,
    Method::Delete,
];

fn per_layer<W: Workload>(w: &W, seed: u64, plain: &Pass, traced: &Pass) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    let ops = traced.ops as f64;
    let counted = traced.counted_ops as f64;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    out.push(
        "sgx.ecalls_per_op",
        traced.counted_ecalls as f64 / counted,
        "1/op",
    );
    out.push("sgx.enclave_us_per_op", us(traced.enclave_time) / ops, "us");
    out.push(
        "enclave.self_us_per_op",
        (us(traced.enclave_time) - us(traced.storage_time)) / ops,
        "us",
    );
    out.push(
        "host.self_us_per_op",
        (us(traced.op_time) - us(traced.enclave_time)) / ops,
        "us",
    );
    for m in COUNTED_METHODS {
        out.push(
            format!("storage.{}.calls_per_op", m.name()),
            traced.counted.calls_of(m) as f64 / counted,
            "1/op",
        );
    }
    let log = traced.trace.as_ref().expect("traced pass keeps a trace");
    for m in TIMED_METHODS {
        if let Some(p50) = percentile_us(&log.durations[m as usize], 0.5) {
            out.push(format!("storage.{}.p50_us", m.name()), p50, "us");
        }
    }
    out.push(
        "storage.busy_us_per_op",
        us(traced.storage_time) / ops,
        "us",
    );
    out.push(
        "storage.bytes_written_per_op",
        traced.counted.bytes_written as f64 / counted,
        "B/op",
    );
    out.push(
        "storage.bytes_read_per_op",
        traced.counted.bytes_read as f64 / counted,
        "B/op",
    );
    if traced.probes > 0 {
        out.push(
            "cache.hit_ratio",
            traced.probe_hits as f64 / traced.probes as f64,
            "ratio",
        );
    }
    let r = replay::run(seed, w.name_len());
    out.push("crypto.gcm_seal_mib_s", r.gcm_seal_mib_s, "MiB/s");
    out.push("crypto.gcm_open_mib_s", r.gcm_open_mib_s, "MiB/s");
    out.push(
        "crypto.ed25519_key_decode_us",
        r.ed25519_key_decode_us,
        "us",
    );
    out.push("metadata.seal_us", r.metadata_seal_us, "us");
    out.push("metadata.open_us", r.metadata_open_us, "us");
    out.push(
        "metadata.supernode_bytes",
        traced.supernode_bytes as f64,
        "B",
    );
    let per_op = |p: &Pass| us(p.op_time) / p.ops as f64;
    out.push(
        "trace.overhead_us_per_op",
        per_op(traced) - per_op(plain),
        "us",
    );
    out.0
}

/// Reports on standard error how a pass went: set-ups, rounds, and how
/// far the rounds' throughput moved within it.
fn progress(name: &str, p: &Pass) {
    let mut v: Vec<f64> = p
        .per_round
        .iter()
        .map(|&(ops, t)| ops as f64 / t.as_secs_f64())
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    eprintln!(
        "{name}: {} set-ups, {} timed rounds; ops/s per round min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
        p.setup_s.len(),
        p.rounds,
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
}

fn run_with<W: Workload>(name: &str, w: &W, p: &Params, trace: bool) -> Result<Report> {
    if !trace {
        let plain = pass(w, p, false, Stop::Seconds(p.seconds))?;
        progress(name, &plain);
        return Ok(Report {
            attempted: plain.ops,
            failed: 0,
            metrics: end_to_end(w, name, &plain),
            inputs: plain.inputs,
        });
    }
    // The traced run: an untraced pass for half the time, then a traced
    // pass of exactly as many rounds. Their counts must agree exactly.
    let plain = pass(w, p, false, Stop::Seconds(p.seconds / 2.0))?;
    let traced = pass(w, p, true, Stop::Rounds(plain.rounds))?;
    let (a, b) = (count_facts(&plain), count_facts(&traced));
    if a != b {
        return Err(format!(
            "tracing changed the counts:\n untraced {a}\n traced   {b}"
        ));
    }
    Ok(Report {
        attempted: plain.ops + traced.ops,
        failed: 0,
        metrics: per_layer(w, p.seed, &plain, &traced),
        inputs: plain.inputs,
    })
}

/// Runs `workload` once.
pub fn run(workload: &str, p: &Params, trace: bool) -> Result<Report> {
    match workload {
        "bulk" => run_with(
            workload,
            &bulk::BulkWorkload::new(p.seed, p.scale),
            p,
            trace,
        ),
        "tree" => run_with(
            workload,
            &tree::TreeWorkload::tree(p.seed, p.scale),
            p,
            trace,
        ),
        "durable" => run_with(
            workload,
            &tree::TreeWorkload::durable(p.seed, p.scale),
            p,
            trace,
        ),
        "share" => run_with(
            workload,
            &share::ShareWorkload::new(p.seed, p.scale),
            p,
            trace,
        ),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Every oracle `workload` consults, for the tests that corrupt each one.
pub fn oracle_names(workload: &str, p: &Params) -> Vec<String> {
    match workload {
        "bulk" => bulk::BulkWorkload::new(p.seed, p.scale).oracle_names(),
        "tree" => tree::TreeWorkload::tree(p.seed, p.scale).oracle_names(),
        "durable" => tree::TreeWorkload::durable(p.seed, p.scale).oracle_names(),
        "share" => share::ShareWorkload::new(p.seed, p.scale).oracle_names(),
        _ => Vec::new(),
    }
}
