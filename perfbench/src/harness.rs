//! The closed-loop runner shared by every workload.
//!
//! A pass builds the workload's starting volume several times (the median
//! is `setup_s`), runs one untimed warm-up round so caches fill and lazy
//! set-up finishes, then runs timed rounds of the same seeded operation
//! sequence until the requested time has passed. A workload whose rounds
//! leave state behind is rebuilt, untimed, after a fixed number of rounds,
//! and a pass ends only after whole such cycles, so the state each timed
//! round meets does not depend on the host's speed. The first timed round
//! is the *counted* round: every count metric is taken over it alone, so
//! counts repeat exactly whatever the host's speed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nexus_core::NexusVolume;
use nexus_storage::{IoStats, StorageBackend};

use crate::probe::{self, Counts, Probe};

pub type Result<T> = std::result::Result<T, String>;

/// Latency classes of the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `read_file` / `read_files`.
    Read = 0,
    /// `write_file` on an existing file.
    Write = 1,
    /// `lookup`, `list_dir`, new-file create, `remove`, `rename`.
    Meta = 2,
    /// Group membership, ACL and user revocation calls.
    Acl = 3,
}

pub const CLASSES: [(Class, &str); 4] = [
    (Class::Read, "read"),
    (Class::Write, "write"),
    (Class::Meta, "meta"),
    (Class::Acl, "acl"),
];

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Reduced sizes for the benchmark's own tests.
    Small,
}

/// Run parameters shared by all workloads.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Set-ups per pass before the loop; `setup_s` is the median of these
    /// and of any rebuilds.
    pub setups: usize,
    /// Oracle to hand one wrong expected value (tests only).
    pub sabotage: Option<String>,
}

/// Fixes the oracle names and lets a test corrupt exactly one expectation.
pub struct Oracles {
    sabotage: Option<String>,
}

impl Oracles {
    pub fn new(sabotage: Option<String>) -> Oracles {
        Oracles { sabotage }
    }

    /// True exactly once, for the oracle named by the sabotage parameter.
    fn corrupt(&mut self, name: &str) -> bool {
        if self.sabotage.as_deref() == Some(name) {
            self.sabotage = None;
            true
        } else {
            false
        }
    }

    /// Fails the run unless `actual == expected`. Under sabotage of `name`
    /// the expectation is first altered by `wrong`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &str,
        mut expected: T,
        actual: &T,
        wrong: impl FnOnce(&mut T),
    ) -> Result<()> {
        if self.corrupt(name) {
            wrong(&mut expected);
        }
        if &expected == actual {
            Ok(())
        } else {
            Err(format!(
                "oracle {name} failed: expected {expected:?}, got {actual:?}"
            ))
        }
    }

    /// Boolean form of [`Oracles::eq`].
    pub fn holds(&mut self, name: &str, cond: bool, what: impl FnOnce() -> String) -> Result<()> {
        let cond = if self.corrupt(name) { !cond } else { cond };
        if cond {
            Ok(())
        } else {
            Err(format!("oracle {name} failed: {}", what()))
        }
    }
}

/// Per-pass measurement state handed to every operation.
pub struct Ctx {
    pub oracles: Oracles,
    probe: Arc<Probe>,
    traced: bool,
    timed: bool,
    counted: bool,
    /// Latency samples (ns) of timed operations, per class.
    pub samples: [Vec<u64>; 4],
    /// Timed operations attempted, and their summed duration.
    pub ops: u64,
    pub op_time: Duration,
    /// User bytes read plus written by timed operations.
    pub user_bytes: u64,
    /// Fingerprint of the user data of the counted round: the first bytes
    /// of every payload, so a test can see that the seed reaches the data.
    pub inputs: u64,
    /// Operations of the counted round, per class and in total, and the
    /// enclave entries they made.
    pub counted_ops: u64,
    pub counted_ecalls: u64,
    /// Storage traffic of the counted round's operations.
    pub counted_io: Counts,
    pub counted_class_ops: [u64; 4],
    /// Traced only: time inside the enclave and inside the store during
    /// timed operations.
    pub enclave_time: Duration,
    pub storage_time: Duration,
    /// Traced only: version probes in the counted round.
    pub probes: u64,
    pub probe_hits: u64,
}

impl Ctx {
    fn new(probe: Arc<Probe>, traced: bool, oracles: Oracles) -> Ctx {
        Ctx {
            oracles,
            probe,
            traced,
            timed: false,
            counted: false,
            samples: Default::default(),
            ops: 0,
            op_time: Duration::ZERO,
            user_bytes: 0,
            inputs: 0xCBF2_9CE4_8422_2325,
            counted_ops: 0,
            counted_ecalls: 0,
            counted_io: Counts::default(),
            counted_class_ops: [0; 4],
            enclave_time: Duration::ZERO,
            storage_time: Duration::ZERO,
            probes: 0,
            probe_hits: 0,
        }
    }

    /// Runs one user operation on `vol` and times it. `class` is `None` for
    /// an operation that is expected to be refused: it counts as attempted
    /// but stays out of the latency classes.
    pub fn op<R>(&mut self, class: Option<Class>, vol: &NexusVolume, f: impl FnOnce() -> R) -> R {
        let traced = self.traced && self.timed;
        let (enclave0, storage0) = if traced {
            // Storage traffic between operations (oracle checks, re-joins)
            // closes here, so it never counts as this operation's.
            self.probe.end_op();
            (vol.enclave().stats().enclave_time(), self.storage_busy())
        } else {
            (Duration::ZERO, Duration::ZERO)
        };
        let (probes0, hits0) = if traced && self.counted {
            self.probe
                .with_trace(|t| (t.probes, t.probe_hits))
                .unwrap_or((0, 0))
        } else {
            (0, 0)
        };
        let (ecalls0, io0) = if self.counted {
            (vol.enclave().stats().ecalls(), self.probe.counts())
        } else {
            (0, Counts::default())
        };
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        if self.counted {
            self.counted_ecalls += vol.enclave().stats().ecalls() - ecalls0;
            self.counted_io.add(&self.probe.counts().delta_since(&io0));
        }
        if traced {
            self.enclave_time += vol.enclave().stats().enclave_time() - enclave0;
            self.storage_time += self.storage_busy() - storage0;
            self.probe.end_op();
            if self.counted {
                let (p, h) = self
                    .probe
                    .with_trace(|t| (t.probes, t.probe_hits))
                    .unwrap_or((0, 0));
                self.probes += p - probes0;
                self.probe_hits += h - hits0;
            }
        }
        if self.timed {
            self.ops += 1;
            self.op_time += took;
            if let Some(c) = class {
                self.samples[c as usize].push(took.as_nanos() as u64);
            }
        }
        if self.counted {
            self.counted_ops += 1;
            if let Some(c) = class {
                self.counted_class_ops[c as usize] += 1;
            }
        }
        out
    }

    /// Credits a user payload read or written to the last timed operation.
    pub fn data(&mut self, data: &[u8]) {
        if self.timed {
            self.user_bytes += data.len() as u64;
        }
        if self.counted {
            self.inputs = data[..data.len().min(16)]
                .iter()
                .fold(self.inputs, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
                });
        }
    }

    fn storage_busy(&self) -> Duration {
        self.probe.with_trace(|t| t.busy).unwrap_or_default()
    }
}

/// One workload: a starting volume plus a fixed seeded round of operations,
/// and the oracles.
pub trait Workload {
    type State;

    /// Timed rounds one starting volume serves before it is rebuilt, for a
    /// workload whose rounds leave state behind; `None` when a round
    /// returns the volume to an equivalent state.
    fn rounds_per_volume(&self) -> Option<u64> {
        None
    }

    /// Classes that report a p99: a pass runs enough rounds for at least
    /// [`P99_SAMPLES`] samples of each.
    fn p99(&self) -> &'static [Class];

    /// A fresh store for set-up number `i`.
    fn store(&self, i: usize) -> Result<Arc<dyn StorageBackend>>;

    /// Builds the starting volume on `store`.
    fn setup(&self, store: Arc<Probe>, oracles: &mut Oracles) -> Result<Self::State>;

    /// Runs round `round` of the operation sequence.
    fn round(&self, st: &mut Self::State, round: u64, ctx: &mut Ctx) -> Result<()>;

    /// The owner's mounted volume.
    fn owner<'a>(&self, st: &'a Self::State) -> &'a NexusVolume;

    /// Live user bytes according to the benchmark's own model.
    fn live_bytes(&self, st: &Self::State) -> u64;

    /// The end-of-run oracles, outside the timed loop.
    fn finish(&self, st: &mut Self::State, oracles: &mut Oracles) -> Result<()>;

    /// Mean length of the workload's file names, for the metadata replay.
    fn name_len(&self) -> usize;

    /// The supernode's stored size.
    fn supernode_bytes(&self, st: &Self::State, store: &Probe) -> u64 {
        store
            .inner()
            .stat(&self.owner(st).volume_id().object_name())
            .map(|s| s.size)
            .unwrap_or(0)
    }
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub rounds: u64,
    /// Per timed round: operations and their summed duration.
    pub per_round: Vec<(u64, Duration)>,
    /// Per timed round: each class's sample count at its end.
    pub round_ends: Vec<[usize; 4]>,
    pub samples: [Vec<u64>; 4],
    pub ops: u64,
    pub op_time: Duration,
    pub user_bytes: u64,
    pub inputs: u64,
    pub counted_ops: u64,
    pub counted: Counts,
    pub counted_ecalls: u64,
    pub stored_ratio: f64,
    pub supernode_bytes: u64,
    pub io_stats: IoStats,
    pub inventory: (u64, u64),
    pub enclave_time: Duration,
    pub storage_time: Duration,
    pub probes: u64,
    pub probe_hits: u64,
    pub trace: Option<crate::probe::TraceLog>,
}

/// Samples behind one p99: ten or more lie beyond it.
pub const P99_SAMPLES: u64 = 1000;

impl Pass {
    /// The p99 of `class`, in microseconds: the nearest-rank p99 of each
    /// block of consecutive timed rounds that holds at least
    /// [`P99_SAMPLES`] samples of the class, and the median over the
    /// blocks. A stretch of rounds the host ran slowly then moves only its
    /// own blocks, where a p99 over the whole run would follow the share
    /// of the run that the stretch lasted.
    pub fn p99_us(&self, class: Class) -> Option<f64> {
        let c = class as usize;
        let per_round = self.round_ends.first()?[c] as u64;
        if per_round == 0 {
            return None;
        }
        let block = P99_SAMPLES.div_ceil(per_round) as usize;
        let mut p99s = Vec::new();
        let mut start = 0;
        for ends in self.round_ends.chunks_exact(block) {
            let end = ends[block - 1][c];
            p99s.push(percentile_us(&self.samples[c][start..end], 0.99)?);
            start = end;
        }
        (!p99s.is_empty()).then(|| median(&p99s))
    }
}

/// When a pass stops running rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `seconds` of loop time (whole rounds, at least enough for the
    /// p99 classes).
    Seconds(f64),
    /// After exactly this many timed rounds.
    Rounds(u64),
}

/// Runs one pass of `w`.
pub fn pass<W: Workload>(w: &W, p: &Params, traced: bool, stop: Stop) -> Result<Pass> {
    let mut setup_s = Vec::new();
    let mut built: Option<(Arc<Probe>, W::State)> = None;
    let mut oracles = Oracles::new(p.sabotage.clone());
    let mut build = |oracles: &mut Oracles, built: &mut Option<(Arc<Probe>, W::State)>| {
        // Drop the previous volume first so set-ups do not overlap in RAM.
        drop(built.take());
        let store = w.store(setup_s.len())?;
        let probe = Arc::new(Probe::new(store, traced));
        let started = Instant::now();
        let st = w.setup(probe.clone(), oracles)?;
        setup_s.push(started.elapsed().as_secs_f64());
        probe.end_op();
        *built = Some((probe, st));
        Result::Ok(())
    };
    for _ in 0..p.setups.max(1) {
        build(&mut oracles, &mut built)?;
    }
    let mut ctx = Ctx::new(built.as_ref().expect("set up").0.clone(), traced, oracles);

    // Warm-up round: untimed, uncounted.
    w.round(&mut built.as_mut().expect("set up").1, 0, &mut ctx)?;

    ctx.timed = true;
    let loop_started = Instant::now();
    let mut rounds = 0u64;
    let (mut stored_ratio, mut supernode_bytes) = (0.0, 0);
    let cycle = w.rounds_per_volume();
    let mut min_rounds = 1u64;
    let mut per_round = Vec::new();
    let mut round_ends = Vec::new();
    loop {
        if rounds > 0 && cycle.is_some_and(|k| rounds.is_multiple_of(k)) {
            // A fresh starting volume, untimed, and its warm-up round.
            ctx.timed = false;
            build(&mut ctx.oracles, &mut built)?;
            ctx.probe = built.as_ref().expect("set up").0.clone();
            w.round(&mut built.as_mut().expect("set up").1, 0, &mut ctx)?;
            ctx.timed = true;
        }
        let (probe, st) = built.as_mut().expect("set up");
        rounds += 1;
        let before = (ctx.ops, ctx.op_time);
        if rounds == 1 {
            ctx.counted = true;
            w.round(st, rounds, &mut ctx)?;
            ctx.counted = false;
            let (_, stored) = probe::inventory(probe);
            stored_ratio = stored as f64 / w.live_bytes(st) as f64;
            supernode_bytes = w.supernode_bytes(st, probe);
            for c in w.p99() {
                let per_round = ctx.counted_class_ops[*c as usize].max(1);
                min_rounds = min_rounds.max(P99_SAMPLES.div_ceil(per_round));
            }
        } else {
            w.round(st, rounds, &mut ctx)?;
        }
        per_round.push((ctx.ops - before.0, ctx.op_time - before.1));
        round_ends.push(ctx.samples.each_ref().map(Vec::len));
        let done = match stop {
            Stop::Seconds(s) => {
                rounds >= min_rounds
                    && cycle.is_none_or(|k| rounds.is_multiple_of(k))
                    && loop_started.elapsed().as_secs_f64() >= s
            }
            Stop::Rounds(n) => rounds >= n,
        };
        if done {
            break;
        }
    }
    let (probe, mut st) = built.expect("set up");
    let io_stats = probe.stats();
    let inventory = probe::inventory(&probe);
    w.finish(&mut st, &mut ctx.oracles)?;
    if let Some(name) = &ctx.oracles.sabotage {
        return Err(format!("oracle {name} was never consulted"));
    }
    drop(st);
    let trace = probe.with_trace(std::mem::take);
    Ok(Pass {
        setup_s,
        rounds,
        per_round,
        round_ends,
        samples: ctx.samples,
        ops: ctx.ops,
        op_time: ctx.op_time,
        user_bytes: ctx.user_bytes,
        inputs: ctx.inputs,
        counted_ops: ctx.counted_ops,
        counted: ctx.counted_io,
        counted_ecalls: ctx.counted_ecalls,
        stored_ratio,
        supernode_bytes,
        io_stats,
        inventory,
        enclave_time: ctx.enclave_time,
        storage_time: ctx.storage_time,
        probes: ctx.probes,
        probe_hits: ctx.probe_hits,
        trace,
    })
}

/// Median of a sample (upper median for even sizes).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    s[s.len() / 2]
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples: &[u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1] as f64 / 1e3)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
