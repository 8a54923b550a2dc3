//! `tree` and `durable`: a source tree and a mixed file-system workload.
//!
//! The starting volume is a generated source tree (paper Fig. 5c shapes).
//! The tree's shape and every target of a round (which files are read,
//! looked up, overwritten and renamed, which directories are listed and
//! get new files) are fixed per workload, so every seed asks for the same
//! work; the seed chooses file contents and the order of the operations.
//!
//! A round is Zipf-skewed reads, batched sibling reads, lookups, listings,
//! overwrites, create/remove pairs, renames and grants of an auditor's
//! rights on directories; every create is removed, every rename undone and
//! every grant revoked within the round, so each round starts from an
//! equivalent volume. A shadow model (path → digest and size, directory →
//! children and ACL) checks every result.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use nexus_core::{FileType, FsckMode, NexusConfig, NexusError, NexusVolume, Rights};
use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{DirBackend, MemBackend, StorageBackend};
use nexus_workloads::repos::{self, RepoProfile};

use crate::gen::{self, NeedleSet, Zipf};
use crate::harness::{Class, Ctx, Oracles, Result, Scale, Workload};
use crate::probe::Probe;

/// Which store the tree lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `MemBackend`.
    Ram,
    /// The CLI's crash-consistent `DirBackend`, in a directory under
    /// `.perfbench-store/` of the working directory.
    Dir,
}

/// One step of a round. Files are named by index; their current path
/// comes from the model, since renames move them within the round.
#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    ReadMany(Vec<usize>),
    Lookup(usize),
    LookupDir(usize),
    List(usize),
    Overwrite(usize),
    Create {
        slot: usize,
        dir: usize,
        size: usize,
    },
    Remove {
        slot: usize,
    },
    RenameAway(usize),
    RenameBack(usize),
    Grant(usize),
    Revoke(usize),
}

#[derive(Debug, Clone)]
struct FileModel {
    path: String,
    size: usize,
    /// Content tag: the bytes are `gen::content(seed, tag, size)`.
    tag: u64,
    digest: [u8; 32],
}

/// The workload: a generated tree plus the round plan, both pure
/// functions of the seed.
pub struct TreeWorkload {
    name: &'static str,
    seed: u64,
    store: Store,
    dirs: Vec<String>,
    files: Vec<FileModel>,
    plan: Vec<Step>,
}

pub struct TreeState {
    vol: NexusVolume,
    probe: Arc<Probe>,
    files: Vec<FileModel>,
    created: BTreeMap<usize, FileModel>,
    children: Children,
    _dir: Option<StoreDir>,
}

/// A store directory removed when the state holding it drops.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's store is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn parent_of(path: &str) -> &str {
    path.rsplit_once('/').map(|(p, _)| p).unwrap_or("")
}

fn base_of(path: &str) -> &str {
    path.rsplit_once('/').map(|(_, b)| b).unwrap_or(path)
}

fn nexus(what: &str, path: &str, e: NexusError) -> String {
    format!("{what} {path}: {e}")
}

const INITIAL_TAG: u64 = 1 << 40;

impl TreeWorkload {
    /// `tree`: the nodejs-shaped tree on `MemBackend`.
    pub fn tree(seed: u64, scale: Scale) -> TreeWorkload {
        let profile = match scale {
            Scale::Full => repos::NODEJS,
            Scale::Small => RepoProfile {
                files: 600,
                big_dirs: &[150, 40],
                ..repos::NODEJS
            },
        };
        let hundreds = match scale {
            Scale::Full => 20,
            Scale::Small => 3,
        };
        TreeWorkload::new("tree", seed, Store::Ram, &profile, 0.05, hundreds)
    }

    /// `durable`: a julia-shaped tree on `DirBackend`, with a quarter of
    /// julia's files so that three set-ups on a disk-backed store fit in
    /// one run.
    pub fn durable(seed: u64, scale: Scale) -> TreeWorkload {
        let profile = match scale {
            Scale::Full => RepoProfile {
                files: 274,
                big_dirs: &[50, 38],
                ..repos::JULIA
            },
            Scale::Small => RepoProfile {
                files: 120,
                big_dirs: &[30],
                ..repos::JULIA
            },
        };
        let hundreds = match scale {
            Scale::Full => 4,
            Scale::Small => 1,
        };
        TreeWorkload::new("durable", seed, Store::Dir, &profile, 0.05, hundreds)
    }

    fn new(
        name: &'static str,
        seed: u64,
        store: Store,
        profile: &RepoProfile,
        size_scale: f64,
        hundreds: usize,
    ) -> TreeWorkload {
        let tree = repos::generate_tree(profile, size_scale);
        let files = tree
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let tag = INITIAL_TAG + i as u64;
                FileModel {
                    path: f.path.clone(),
                    size: f.size,
                    tag,
                    digest: gen::digest(&gen::content(seed, tag, f.size)),
                }
            })
            .collect::<Vec<_>>();
        let plan = plan(seed, &tree.dirs, &files, hundreds);
        TreeWorkload {
            name,
            seed,
            store,
            dirs: tree.dirs,
            files,
            plan,
        }
    }

    fn oracle(&self, what: &str) -> String {
        format!("{}.{what}", self.name)
    }

    /// Every oracle this workload consults.
    pub fn oracle_names(&self) -> Vec<String> {
        [
            "read",
            "read_many",
            "lookup",
            "list",
            "removed_not_found",
            "acl",
            "walk",
            "no_plaintext",
            "fsck",
        ]
        .iter()
        .map(|o| self.oracle(o))
        .collect()
    }
}

/// Step kinds of one round, per 100 drawn steps, and the skew of file
/// and directory choices. Reads, batched reads of [`BATCH`] files and
/// writes take the shares of `nexus_workloads::loadgen_fs`'s standard cell
/// (40 / 15 / 35, Zipf 0.99); its writes are split here into overwrites and
/// new-file creates, and its remaining 10 % of auditor ACL changes into
/// half grants of an auditor's rights (each revoked later in the round)
/// and half lookups, listings and renames.
const MIX: [(Kind, usize); 9] = [
    (Kind::Read, 40),
    (Kind::ReadMany, 15),
    (Kind::Overwrite, 25),
    (Kind::Create, 10),
    (Kind::Grant, 5),
    (Kind::Lookup, 2),
    (Kind::LookupDir, 1),
    (Kind::List, 1),
    (Kind::Rename, 1),
];

/// The user whose rights `Grant` steps set and later revoke.
const AUDITOR: &str = "auditor";
const ZIPF_S: f64 = 0.99;
const BATCH: usize = 4;

/// A create is removed, and a rename undone, this many steps later.
const UNDO_AFTER: usize = 25;

/// Seeds the round's targets, which are the same for every run seed.
const TARGETS: u64 = 0x07A2_6E75;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Read,
    ReadMany,
    Lookup,
    LookupDir,
    List,
    Overwrite,
    Create,
    Rename,
    Grant,
}

/// Builds the round plan: `hundreds` × [`MIX`]. The steps and their
/// targets are drawn from a fixed stream; the run seed only shuffles their
/// order. Each create is followed by its remove, each rename by its undo
/// and each grant by its revoke [`UNDO_AFTER`] steps later, so the round
/// ends where it started. No file is renamed twice and no directory granted
/// twice in a round; other steps reach a renamed file at its current path.
fn plan(seed: u64, dirs: &[String], files: &[FileModel], hundreds: usize) -> Vec<Step> {
    let mut fixed = SeededRandom::new(TARGETS);
    let file_zipf = Zipf::new(files.len(), ZIPF_S, 0xF11E);
    let dir_zipf = Zipf::new(dirs.len(), ZIPF_S, 0xD1);
    let mut siblings: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in files.iter().enumerate() {
        siblings.entry(parent_of(&f.path)).or_default().push(i);
    }
    let mut renamed = BTreeSet::new();
    let mut granted = BTreeSet::new();
    let mut drawn: Vec<Step> = Vec::new();
    for &(kind, n) in &MIX {
        for _ in 0..n * hundreds {
            let step = match kind {
                Kind::Read => Step::Read(file_zipf.sample(&mut fixed)),
                Kind::ReadMany => {
                    let f = file_zipf.sample(&mut fixed);
                    let group = &siblings[parent_of(&files[f].path)];
                    let at = group.iter().position(|&g| g == f).expect("own dir");
                    let batch = group.len().min(BATCH);
                    Step::ReadMany(group.iter().cycle().skip(at).take(batch).copied().collect())
                }
                Kind::Lookup => Step::Lookup(file_zipf.sample(&mut fixed)),
                Kind::LookupDir => Step::LookupDir(dir_zipf.sample(&mut fixed)),
                Kind::List => Step::List(dir_zipf.sample(&mut fixed)),
                Kind::Overwrite => Step::Overwrite(file_zipf.sample(&mut fixed)),
                Kind::Create => Step::Create {
                    slot: 0,
                    dir: dir_zipf.sample(&mut fixed),
                    size: files[fixed.usize_below(files.len())].size,
                },
                Kind::Rename => loop {
                    let f = file_zipf.sample(&mut fixed);
                    if renamed.insert(f) {
                        break Step::RenameAway(f);
                    }
                },
                Kind::Grant => loop {
                    let d = dir_zipf.sample(&mut fixed);
                    if granted.insert(d) {
                        break Step::Grant(d);
                    }
                },
            };
            drawn.push(step);
        }
    }
    let mut rng = gen::rng(seed, 0x91A9);
    for i in (1..drawn.len()).rev() {
        drawn.swap(i, rng.usize_below(i + 1));
    }

    let mut undo: std::collections::VecDeque<(usize, Step)> = Default::default();
    let mut out = Vec::new();
    for (i, mut step) in drawn.into_iter().enumerate() {
        while undo.front().is_some_and(|(due, _)| *due <= i) {
            out.push(undo.pop_front().expect("front exists").1);
        }
        match &mut step {
            Step::Create { slot, .. } => {
                *slot = i;
                undo.push_back((i + UNDO_AFTER, Step::Remove { slot: i }));
            }
            Step::RenameAway(f) => undo.push_back((i + UNDO_AFTER, Step::RenameBack(*f))),
            Step::Grant(d) => undo.push_back((i + UNDO_AFTER, Step::Revoke(*d))),
            _ => {}
        }
        out.push(step);
    }
    out.extend(undo.into_iter().map(|(_, step)| step));
    out
}

type Children = BTreeMap<String, BTreeMap<String, bool>>;

fn list_model(children: &Children, dir: &str) -> Vec<(String, bool)> {
    children
        .get(dir)
        .map(|c| c.iter().map(|(n, d)| (n.clone(), *d)).collect())
        .unwrap_or_default()
}

fn rename_in_model(children: &mut Children, from: &str, to: &str) {
    let kids = children.get_mut(parent_of(from)).expect("parent in model");
    kids.remove(base_of(from));
    kids.insert(base_of(to).to_string(), false);
}

fn rows(rows: Vec<nexus_core::DirRow>) -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> = rows
        .into_iter()
        .map(|r| (r.name, r.kind == FileType::Directory))
        .collect();
    out.sort();
    out
}

impl Workload for TreeWorkload {
    type State = TreeState;

    fn p99(&self) -> &'static [Class] {
        // Writes and ACL changes on the disk-backed store are too slow for
        // 1000 samples per run.
        match self.store {
            Store::Ram => &[Class::Read, Class::Write, Class::Meta, Class::Acl],
            Store::Dir => &[Class::Read, Class::Meta],
        }
    }

    fn store(&self, _i: usize) -> Result<Arc<dyn StorageBackend>> {
        match self.store {
            Store::Ram => Ok(Arc::new(MemBackend::new())),
            Store::Dir => {
                let dir = store_dir(self.name);
                let _ = std::fs::remove_dir_all(&dir);
                let backend = DirBackend::open(&dir).map_err(|e| format!("open {dir:?}: {e}"))?;
                Ok(Arc::new(backend))
            }
        }
    }

    fn setup(&self, probe: Arc<Probe>, _oracles: &mut Oracles) -> Result<TreeState> {
        let platform = Platform::seeded_stream(gen::mix(self.seed, 0x91A7), 0);
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
        let auditor = gen::user(AUDITOR, self.seed, 1);
        vol.add_user(auditor.name(), auditor.public_key())
            .map_err(|e| format!("add user {AUDITOR}: {e}"))?;
        let mut children = Children::new();
        children.insert(String::new(), BTreeMap::new());
        for d in &self.dirs {
            vol.mkdir(d).map_err(|e| nexus("mkdir", d, e))?;
            children.entry(d.clone()).or_default();
            children
                .get_mut(parent_of(d))
                .expect("parents first")
                .insert(base_of(d).into(), true);
        }
        for f in &self.files {
            let data = gen::content(self.seed, f.tag, f.size);
            vol.write_file(&f.path, &data)
                .map_err(|e| nexus("write", &f.path, e))?;
            children
                .get_mut(parent_of(&f.path))
                .expect("file parent")
                .insert(base_of(&f.path).into(), false);
        }
        let dir = (self.store == Store::Dir).then(|| StoreDir(store_dir(self.name)));
        Ok(TreeState {
            vol,
            probe,
            files: self.files.clone(),
            created: BTreeMap::new(),
            children,
            _dir: dir,
        })
    }

    fn round(&self, st: &mut TreeState, round: u64, ctx: &mut Ctx) -> Result<()> {
        let TreeState {
            vol,
            files,
            created,
            children,
            ..
        } = st;
        for (k, step) in self.plan.iter().enumerate() {
            match step {
                Step::Read(f) => {
                    let m = &files[*f];
                    let data = ctx
                        .op(Some(Class::Read), vol, || vol.read_file(&m.path))
                        .map_err(|e| nexus("read", &m.path, e))?;
                    ctx.data(&data);
                    ctx.oracles
                        .eq(&self.oracle("read"), m.digest, &gen::digest(&data), |d| {
                            d[0] ^= 1
                        })?;
                }
                Step::ReadMany(fs) => {
                    let paths: Vec<&str> = fs.iter().map(|f| files[*f].path.as_str()).collect();
                    let datas = ctx
                        .op(Some(Class::Read), vol, || vol.read_files(&paths))
                        .map_err(|e| nexus("read_files", paths[0], e))?;
                    for d in &datas {
                        ctx.data(d);
                    }
                    let got: Vec<[u8; 32]> = datas.iter().map(|d| gen::digest(d)).collect();
                    let want: Vec<[u8; 32]> = fs.iter().map(|f| files[*f].digest).collect();
                    ctx.oracles
                        .eq(&self.oracle("read_many"), want, &got, |w| w.reverse())?;
                }
                Step::Lookup(f) => {
                    let m = &files[*f];
                    let info = ctx
                        .op(Some(Class::Meta), vol, || vol.lookup(&m.path))
                        .map_err(|e| nexus("lookup", &m.path, e))?;
                    ctx.oracles.eq(
                        &self.oracle("lookup"),
                        (FileType::File, m.size as u64),
                        &(info.kind, info.size),
                        |w| w.1 += 1,
                    )?;
                }
                Step::LookupDir(d) => {
                    let path = &self.dirs[*d];
                    let info = ctx
                        .op(Some(Class::Meta), vol, || vol.lookup(path))
                        .map_err(|e| nexus("lookup", path, e))?;
                    let entries = children.get(path).map_or(0, |c| c.len()) as u64;
                    ctx.oracles.eq(
                        &self.oracle("lookup"),
                        (FileType::Directory, entries),
                        &(info.kind, info.size),
                        |w| w.1 += 1,
                    )?;
                }
                Step::List(d) => {
                    let path = &self.dirs[*d];
                    let listed = ctx
                        .op(Some(Class::Meta), vol, || vol.list_dir(path))
                        .map_err(|e| nexus("list_dir", path, e))?;
                    ctx.oracles.eq(
                        &self.oracle("list"),
                        list_model(children, path),
                        &rows(listed),
                        |w| w.push(("phantom".into(), false)),
                    )?;
                }
                Step::Overwrite(f) => {
                    let tag = (round << 24) | k as u64;
                    let m = &mut files[*f];
                    let data = gen::content(self.seed, tag, m.size);
                    ctx.op(Some(Class::Write), vol, || vol.write_file(&m.path, &data))
                        .map_err(|e| nexus("overwrite", &m.path, e))?;
                    ctx.data(&data);
                    m.tag = tag;
                    m.digest = gen::digest(&data);
                }
                Step::Create { slot, dir, size } => {
                    let path = format!("{}/new{slot:04}.tmp", self.dirs[*dir]);
                    let tag = (round << 24) | k as u64;
                    let data = gen::content(self.seed, tag, *size);
                    ctx.op(Some(Class::Meta), vol, || vol.write_file(&path, &data))
                        .map_err(|e| nexus("create", &path, e))?;
                    ctx.data(&data);
                    children
                        .get_mut(&self.dirs[*dir])
                        .expect("dir in model")
                        .insert(base_of(&path).into(), false);
                    let digest = gen::digest(&data);
                    created.insert(
                        *slot,
                        FileModel {
                            path,
                            size: *size,
                            tag,
                            digest,
                        },
                    );
                }
                Step::Remove { slot } => {
                    let m = created.remove(slot).expect("plan removes live slots");
                    ctx.op(Some(Class::Meta), vol, || vol.remove(&m.path))
                        .map_err(|e| nexus("remove", &m.path, e))?;
                    children
                        .get_mut(parent_of(&m.path))
                        .expect("dir")
                        .remove(base_of(&m.path));
                    let gone = ctx.op(Some(Class::Meta), vol, || vol.lookup(&m.path));
                    ctx.oracles.holds(
                        &self.oracle("removed_not_found"),
                        matches!(gone, Err(NexusError::NotFound(_))),
                        || format!("lookup of removed {} gave {gone:?}", m.path),
                    )?;
                }
                Step::RenameAway(f) => {
                    let from = files[*f].path.clone();
                    let to = format!("{from}.mv");
                    ctx.op(Some(Class::Meta), vol, || vol.rename(&from, &to))
                        .map_err(|e| nexus("rename", &from, e))?;
                    rename_in_model(children, &from, &to);
                    files[*f].path = to;
                }
                Step::RenameBack(f) => {
                    let from = files[*f].path.clone();
                    let to = from.strip_suffix(".mv").expect("renamed away").to_string();
                    ctx.op(Some(Class::Meta), vol, || vol.rename(&from, &to))
                        .map_err(|e| nexus("rename", &from, e))?;
                    rename_in_model(children, &from, &to);
                    files[*f].path = to;
                }
                Step::Grant(d) | Step::Revoke(d) => {
                    let path = &self.dirs[*d];
                    let grant = matches!(step, Step::Grant(_));
                    ctx.op(Some(Class::Acl), vol, || {
                        if grant {
                            vol.set_acl(path, AUDITOR, Rights::READ)
                        } else {
                            vol.revoke_acl(path, AUDITOR)
                        }
                    })
                    .map_err(|e| nexus("acl", path, e))?;
                    // Outside the timed call: the directory's ACL must hold
                    // the auditor exactly while granted.
                    let acl = vol
                        .acl_entries(path)
                        .map_err(|e| nexus("acl_entries", path, e))?;
                    let want = if grant {
                        vec![(AUDITOR.to_string(), Rights::READ)]
                    } else {
                        Vec::new()
                    };
                    ctx.oracles.eq(&self.oracle("acl"), want, &acl, |w| {
                        w.push(("phantom".into(), Rights::RW))
                    })?;
                }
            }
        }
        Ok(())
    }

    fn owner<'a>(&self, st: &'a TreeState) -> &'a NexusVolume {
        &st.vol
    }

    fn name_len(&self) -> usize {
        self.files
            .iter()
            .map(|f| base_of(&f.path).len())
            .sum::<usize>()
            / self.files.len()
    }

    fn live_bytes(&self, st: &TreeState) -> u64 {
        st.files
            .iter()
            .chain(st.created.values())
            .map(|f| f.size as u64)
            .sum()
    }

    fn finish(&self, st: &mut TreeState, oracles: &mut Oracles) -> Result<()> {
        // A full walk must equal the model, listing by listing and file by
        // file.
        let by_path: BTreeMap<&str, &FileModel> =
            st.files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut walked_dirs = BTreeSet::new();
        let mut stack = vec![String::new()];
        let mut mismatch = None;
        while let Some(dir) = stack.pop() {
            let listed = rows(st.vol.list_dir(&dir).map_err(|e| nexus("walk", &dir, e))?);
            if listed != list_model(&st.children, &dir) && mismatch.is_none() {
                mismatch = Some(format!("listing of {dir:?} differs from the model"));
            }
            let join = |n: &str| {
                if dir.is_empty() {
                    n.to_string()
                } else {
                    format!("{dir}/{n}")
                }
            };
            let files: Vec<String> = listed
                .iter()
                .filter(|(_, d)| !d)
                .map(|(n, _)| join(n))
                .collect();
            for batch in files.chunks(32) {
                let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
                let datas = st
                    .vol
                    .read_files(&refs)
                    .map_err(|e| nexus("walk", refs[0], e))?;
                for (p, d) in refs.iter().zip(&datas) {
                    if by_path.get(p).map(|m| m.digest) != Some(gen::digest(d))
                        && mismatch.is_none()
                    {
                        mismatch = Some(format!("contents of {p} differ from the model"));
                    }
                }
            }
            stack.extend(listed.iter().filter(|(_, d)| *d).map(|(n, _)| join(n)));
            walked_dirs.insert(dir);
        }
        let walked_all = walked_dirs.len() == st.children.len();
        oracles.holds(
            &self.oracle("walk"),
            mismatch.is_none() && walked_all,
            || mismatch.unwrap_or_else(|| "the walk missed directories".into()),
        )?;

        // No file name and no 32-byte window of file contents may appear in
        // any stored object's name or bytes.
        let mut rng = gen::rng(self.seed, 0x5CA9);
        let mut needles = Vec::new();
        for _ in 0..16 {
            let f = &st.files[rng.usize_below(st.files.len())];
            needles.push(base_of(&f.path).as_bytes().to_vec());
            if f.size >= 32 {
                let data = gen::content(self.seed, f.tag, f.size);
                let at = rng.usize_below(f.size - 31);
                needles.push(data[at..at + 32].to_vec());
            }
        }
        let set = NeedleSet::new(needles);
        let inner = st.probe.inner();
        let mut leak = None;
        for name in inner.list("") {
            let bytes = inner.get(&name).map_err(|e| format!("scan {name}: {e}"))?;
            if let Some(n) = set.find(name.as_bytes()).or_else(|| set.find(&bytes)) {
                leak = Some(format!(
                    "object {name} holds plaintext {:?}",
                    String::from_utf8_lossy(n)
                ));
                break;
            }
        }
        oracles.holds(&self.oracle("no_plaintext"), leak.is_none(), || {
            leak.unwrap_or_default()
        })?;

        let report = st
            .vol
            .fsck(FsckMode::Deep)
            .map_err(|e| format!("fsck: {e}"))?;
        oracles.holds(&self.oracle("fsck"), report.is_clean(), || {
            format!("fsck: {report:?}")
        })
    }
}

/// One store directory per process and workload; each set-up starts it
/// afresh after the previous volume has been dropped.
fn store_dir(name: &str) -> PathBuf {
    PathBuf::from(".perfbench-store").join(format!("{name}-{}", std::process::id()))
}
