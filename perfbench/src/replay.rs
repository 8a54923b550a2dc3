//! Layer replays for the traced run: the workload's own sizes pushed
//! through the public crypto and metadata functions on their default
//! constructors, timed one call at a time.

use std::hint::black_box;
use std::time::Instant;

use nexus_core::metadata::crypto::{open_object, seal_object, ObjectKind, Preamble};
use nexus_core::NexusUuid;
use nexus_crypto::ed25519::VerifyingKey;
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::rng::SecureRandom;

use crate::gen;
use crate::harness::median;

/// Entries in a full dirnode bucket of the default `NexusConfig`.
pub const BUCKET_ENTRIES: usize = 128;

/// Median seconds per call of `f` over `reps` calls.
fn time_each(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub struct Replay {
    pub gcm_seal_mib_s: f64,
    pub gcm_open_mib_s: f64,
    pub ed25519_key_decode_us: f64,
    pub metadata_seal_us: f64,
    pub metadata_open_us: f64,
}

/// Runs every replay. `name_len` sizes the bucket body: a length-prefixed
/// name, a UUID and a kind byte per entry, after a 4-byte entry count.
pub fn run(seed: u64, name_len: usize) -> Replay {
    let mut rng = gen::rng(seed, 0x4E9A);
    const MIB: usize = 1 << 20;

    let key: [u8; 16] = rng.bytes();
    let nonce: [u8; 12] = rng.bytes();
    let gcm = AesGcm::new(&key);
    let chunk = gen::content(seed, 0x4E9B, MIB);
    let seal_s = time_each(32, || {
        black_box(gcm.seal(&nonce, b"", black_box(&chunk)));
    });
    let sealed = gcm.seal(&nonce, b"", &chunk);
    let open_s = time_each(32, || {
        black_box(
            gcm.open(&nonce, b"", black_box(&sealed))
                .expect("own ciphertext opens"),
        );
    });

    const KEYS: usize = 256;
    let keys: Vec<[u8; 32]> = (0..KEYS)
        .map(|i| {
            gen::user("replay", seed, 0x4E9C_0000 + i as u64)
                .public_key()
                .to_bytes()
        })
        .collect();
    let decode_s = time_each(15, || {
        for k in &keys {
            black_box(VerifyingKey::from_bytes(black_box(k)).expect("valid key"));
        }
    }) / KEYS as f64;

    let body = gen::content(seed, 0x4E9D, 4 + BUCKET_ENTRIES * (4 + name_len + 16 + 1));
    let rootkey: [u8; 32] = rng.bytes();
    let preamble = Preamble {
        kind: ObjectKind::DirBucket,
        uuid: NexusUuid(rng.bytes()),
        parent: NexusUuid(rng.bytes()),
        version: 1,
        scope: None,
    };
    let mut fill = gen::rng(seed, 0x4E9E);
    let meta_seal_s = time_each(201, || {
        black_box(seal_object(&rootkey, &preamble, black_box(&body), |d| {
            fill.fill(d)
        }));
    });
    let blob = seal_object(&rootkey, &preamble, &body, |d| fill.fill(d));
    let meta_open_s = time_each(201, || {
        black_box(open_object(&rootkey, black_box(&blob)).expect("own object opens"));
    });

    Replay {
        gcm_seal_mib_s: 1.0 / seal_s,
        gcm_open_mib_s: 1.0 / open_s,
        ed25519_key_decode_us: decode_s * 1e6,
        metadata_seal_us: meta_seal_s * 1e6,
        metadata_open_us: meta_open_s * 1e6,
    }
}
