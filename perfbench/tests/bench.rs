//! Properties of the benchmark itself, at reduced sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds make the crypto slow).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

use nexus_storage::{IoStats, MemBackend, ObjectStat, StorageBackend, StorageError};
use perfbench::harness::{Params, Scale};
use perfbench::probe::{Counts, Method, Probe};
use perfbench::{run, WORKLOADS};

/// Runs are heavy and `durable` keeps one store directory per process, so
/// the tests that run workloads take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small(seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.0,
        scale: Scale::Small,
        setups: 1,
        sabotage: None,
    }
}

/// The count metrics, which must repeat exactly for one seed, and the
/// fingerprints of the user data each run read and wrote.
fn counts(workload: &str, seed: u64) -> (Vec<(String, f64)>, Vec<u64>) {
    let is_count = |n: &str| {
        matches!(
            n,
            "storage_rpcs_per_op"
                | "stored_bytes_per_user_byte"
                | "sgx.ecalls_per_op"
                | "metadata.supernode_bytes"
        ) || (n.starts_with("storage.") && (n.ends_with(".calls_per_op") || n.contains(".bytes_")))
    };
    let (mut out, mut inputs) = (Vec::new(), Vec::new());
    for trace in [false, true] {
        let r = run(workload, &small(seed), trace).expect("run");
        inputs.push(r.inputs);
        out.extend(
            r.metrics
                .iter()
                .filter(|m| is_count(&m.name))
                .map(|m| (m.name.clone(), m.value)),
        );
    }
    assert_eq!(out.len(), 14, "{workload}: count metrics missing: {out:?}");
    (out, inputs)
}

/// The work a round asks for is fixed per workload, so the counts need not
/// change with the seed; the data must.
#[test]
fn counts_repeat_exactly_and_follow_the_seed() {
    let _turn = serial();
    for w in WORKLOADS {
        let a = counts(w, 7);
        let b = counts(w, 7);
        assert_eq!(a, b, "{w}: one seed gave two different runs");
        let c = counts(w, 8);
        assert_ne!(a.1, c.1, "{w}: another seed did not reach the inputs");
    }
}

#[test]
fn every_oracle_can_fail() {
    let _turn = serial();
    for w in WORKLOADS {
        let names = perfbench::oracle_names(w, &small(7));
        assert!(!names.is_empty(), "{w} has no oracles");
        for name in names {
            let p = Params {
                sabotage: Some(name.clone()),
                ..small(7)
            };
            let err = run(w, &p, false).expect_err(&format!("{w}: a wrong {name} passed"));
            assert!(
                err.contains(&format!("oracle {name} failed")),
                "{w}/{name}: {err}"
            );
        }
    }
}

/// The `"name"` values in one section of `BENCHMARK.json`, from its key
/// up to the next section's key (or the end).
fn manifest_names(section: &str, next: Option<&str>) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let from = text.find(&format!("\"{section}\"")).expect("section");
    let to = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\"")).expect("section")
    });
    text[from..to]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Every workload of `BENCHMARK.json` reports every end-to-end metric,
/// none of them zero, untraced, and every per-layer metric traced; the
/// others report at least the metrics all workloads share.
#[test]
fn reports_the_declared_metrics() {
    let _turn = serial();
    let listed = manifest_names("workloads", Some("end_to_end"));
    let end_to_end = manifest_names("end_to_end", Some("per_layer"));
    let per_layer = manifest_names("per_layer", None);
    assert!(listed.len() >= 2 && end_to_end.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let r = run(w, &small(7), false).expect("run");
        let line = r.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        if !listed.iter().any(|l| l == w) {
            for name in [
                "setup_s",
                "read_p50_us",
                "write_p50_us",
                "storage_rpcs_per_op",
            ] {
                assert!(
                    r.get(name).is_some_and(|v| v > 0.0),
                    "{w}: {name} missing or zero"
                );
            }
            continue;
        }
        for name in &end_to_end {
            assert!(
                r.get(name).is_some_and(|v| v > 0.0),
                "{w}: {name} missing or zero"
            );
        }
        assert_eq!(r.metrics.len(), end_to_end.len(), "{w}: {line}");
        let t = run(w, &small(7), true).expect("traced run");
        for name in &per_layer {
            assert!(t.get(name).is_some(), "{w}: {name} missing when traced");
        }
        assert_eq!(t.metrics.len(), per_layer.len(), "{w}: {}", t.json());
    }
}

/// A store that counts which of its own methods were called.
#[derive(Default)]
struct Recording {
    inner: MemBackend,
    get: AtomicU64,
    get_many: AtomicU64,
    put: AtomicU64,
    put_many: AtomicU64,
    stat: AtomicU64,
    stat_many: AtomicU64,
}

impl StorageBackend for Recording {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.put.fetch_add(1, Relaxed);
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.get.fetch_add(1, Relaxed);
        self.inner.get(path)
    }
    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.inner.delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.stat.fetch_add(1, Relaxed);
        self.inner.stat(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.inner.lock(path, owner)
    }
    fn unlock(&self, path: &str, owner: u64) {
        self.inner.unlock(path, owner)
    }
    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.get_many.fetch_add(1, Relaxed);
        self.inner.get_many(paths)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        self.put_many.fetch_add(1, Relaxed);
        self.inner.put_many(items)
    }
    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.stat_many.fetch_add(1, Relaxed);
        self.inner.stat_many(paths)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

#[test]
fn probe_forwards_batched_methods_unchanged() {
    for traced in [false, true] {
        let store = Arc::new(Recording::default());
        let probe = Probe::new(store.clone(), traced);
        let items: Vec<(String, Vec<u8>)> = (0..3)
            .map(|i| (format!("o{i}"), vec![i as u8; 10 + i]))
            .collect();
        let names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
        assert!(probe.put_many(&items).iter().all(Result::is_ok));
        let got = probe.get_many(&names);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].as_deref(), Ok(&[2u8; 12][..]));
        assert_eq!(
            probe.stat_many(&names)[1],
            Ok(ObjectStat {
                size: 11,
                version: 1
            })
        );
        // One call each reached the store; no per-object fallback.
        assert_eq!(store.put_many.load(Relaxed), 1);
        assert_eq!(store.get_many.load(Relaxed), 1);
        assert_eq!(store.stat_many.load(Relaxed), 1);
        assert_eq!(
            store.put.load(Relaxed) + store.get.load(Relaxed) + store.stat.load(Relaxed),
            0
        );
        assert_eq!(probe.stats(), store.inner.stats());
        let c: Counts = probe.counts();
        assert_eq!(c.calls_of(Method::PutMany), 1);
        assert_eq!(c.bytes_written, 33);
        assert_eq!(c.bytes_read, 33);
    }
}
