//! `bulk`: whole-file reads and overwrites of multi-chunk files.
//!
//! Set-up uploads a working set of files with seeded log-uniform sizes
//! from 1 to 16 MiB. A round reads every file back whole, in a seeded
//! order, and overwrites every second size with the file's other
//! content variant (same size), so rounds repeat the same costs. Every read
//! is compared byte for byte with what the benchmark wrote (it keeps both
//! variants, so no digest is needed), and every data object written must be
//! exactly the plaintext plus one 16-byte tag per 1 MiB chunk.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusVolume};
use nexus_crypto::rng::SecureRandom;
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

use crate::gen;
use crate::harness::{Class, Ctx, Oracles, Result, Scale, Workload};
use crate::probe::Probe;

const MIB: usize = 1 << 20;
/// Chunk size of the default `NexusConfig`, and the AES-GCM tag per chunk.
const CHUNK: usize = MIB;
const TAG: usize = 16;

pub struct BulkWorkload {
    seed: u64,
    sizes: Vec<usize>,
    /// Two content variants per file; the model keeps what it wrote.
    variants: Vec<[Vec<u8>; 2]>,
    /// Per round: (file, overwrite?) in the order the round visits them.
    plan: Vec<(usize, bool)>,
}

pub struct BulkState {
    vol: NexusVolume,
    probe: Arc<Probe>,
    /// Which variant each file holds now.
    live: Vec<usize>,
}

fn path(i: usize) -> String {
    format!("work/blob{i:03}.bin")
}

impl BulkWorkload {
    pub fn new(seed: u64, scale: Scale) -> BulkWorkload {
        let (files, max_log2) = match scale {
            Scale::Full => (15, 4.0),
            Scale::Small => (5, 1.5),
        };
        let mut rng = gen::rng(seed, 0xB01C);
        // Log-uniform sizes, one per stratum, so every seed has the same
        // size mix; the seed adds up to 64 KiB to each. An odd file count,
        // with the odd strata overwritten, puts both medians inside one
        // file's samples rather than between two sizes.
        let sizes: Vec<usize> = (0..files)
            .map(|i| {
                let log2 = max_log2 * (i as f64 + 0.5) / files as f64;
                (MIB as f64 * 2f64.powf(log2)) as usize + rng.usize_below(64 << 10)
            })
            .collect();
        let variants: Vec<[Vec<u8>; 2]> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| [0, 1].map(|v| gen::content(seed, ((i as u64) << 1) | v, s)))
            .collect();
        let mut order: Vec<usize> = (0..files).collect();
        for i in (1..files).rev() {
            order.swap(i, rng.usize_below(i + 1));
        }
        let plan = order.iter().map(|&f| (f, f % 2 == 1)).collect();
        BulkWorkload {
            seed,
            sizes,
            variants,
            plan,
        }
    }

    pub fn oracle_names(&self) -> Vec<String> {
        vec!["bulk.read_bytes".into(), "bulk.data_object_size".into()]
    }
}

impl Workload for BulkWorkload {
    type State = BulkState;

    fn p99(&self) -> &'static [Class] {
        &[]
    }

    fn store(&self, _i: usize) -> Result<Arc<dyn StorageBackend>> {
        Ok(Arc::new(MemBackend::new()))
    }

    fn setup(&self, probe: Arc<Probe>, oracles: &mut Oracles) -> Result<BulkState> {
        let platform = Platform::seeded_stream(gen::mix(self.seed, 0xB01D), 0);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        let owner = gen::user("owner", self.seed, 0);
        let (vol, _sealed) = NexusVolume::create(
            &platform,
            probe.clone(),
            &ias,
            &owner,
            NexusConfig::default(),
        )
        .map_err(|e| format!("create volume: {e}"))?;
        vol.authenticate(&owner)
            .map_err(|e| format!("authenticate: {e}"))?;
        vol.mkdir("work").map_err(|e| format!("mkdir: {e}"))?;
        for (i, [data, _]) in self.variants.iter().enumerate() {
            let p = path(i);
            probe.take_max_put();
            vol.write_file(&p, data)
                .map_err(|e| format!("write {p}: {e}"))?;
            check_object(&probe, data.len(), oracles)?;
        }
        Ok(BulkState {
            vol,
            probe,
            live: vec![0; self.sizes.len()],
        })
    }

    fn round(&self, st: &mut BulkState, _round: u64, ctx: &mut Ctx) -> Result<()> {
        for &(f, overwrite) in &self.plan {
            let p = path(f);
            let vol = &st.vol;
            let data = ctx
                .op(Some(Class::Read), vol, || vol.read_file(&p))
                .map_err(|e| format!("read {p}: {e}"))?;
            ctx.data(&data);
            let want = &self.variants[f][st.live[f]];
            ctx.oracles.holds("bulk.read_bytes", data == *want, || {
                format!("read of {p} differs from what was written")
            })?;
            drop(data);
            if overwrite {
                let next = 1 - st.live[f];
                let data = &self.variants[f][next];
                st.probe.take_max_put();
                ctx.op(Some(Class::Write), vol, || vol.write_file(&p, data))
                    .map_err(|e| format!("write {p}: {e}"))?;
                ctx.data(data);
                check_object(&st.probe, data.len(), &mut ctx.oracles)?;
                st.live[f] = next;
            }
        }
        Ok(())
    }

    fn owner<'a>(&self, st: &'a BulkState) -> &'a NexusVolume {
        &st.vol
    }

    fn name_len(&self) -> usize {
        "blob000.bin".len()
    }

    fn live_bytes(&self, _st: &BulkState) -> u64 {
        self.sizes.iter().map(|&s| s as u64).sum()
    }

    fn finish(&self, _st: &mut BulkState, _oracles: &mut Oracles) -> Result<()> {
        Ok(())
    }
}

/// The data object just written must be the plaintext plus one tag per
/// chunk; it is the largest object a whole-file write puts.
fn check_object(probe: &Probe, plaintext: usize, oracles: &mut Oracles) -> Result<()> {
    let want = (plaintext + TAG * plaintext.div_ceil(CHUNK)) as u64;
    oracles.eq("bulk.data_object_size", want, &probe.take_max_put(), |s| {
        *s += 1
    })
}
