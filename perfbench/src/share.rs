//! `share`: an owner and several member mounts share one volume.
//!
//! Set-up lists several hundred users in the supernode, gathered in one
//! group that holds RW on a project tree; each member runs on its own
//! seeded platform and joins through the attested rootkey exchange. One
//! thread then round-robins through group member removal and re-adding
//! (epoch bumps), per-user `set_acl` / `revoke_acl`, reads, writes,
//! lookups and listings of the project files by the members, and once per
//! round a `revoke_user`
//! of a member, whose next read must be denied before it re-joins (the
//! re-join stays out of the timed classes).

use std::sync::Arc;

use nexus_core::{FileType, NexusConfig, NexusError, NexusVolume, Rights, UserKeys, VolumeJoiner};
use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

use crate::gen::{self, Zipf};
use crate::harness::{Class, Ctx, Oracles, Result, Scale, Workload};
use crate::probe::Probe;

const GROUP: &str = "team";
const FILE_SIZE: usize = 4096;

#[derive(Debug, Clone, Copy)]
enum Step {
    GroupRemove(usize),
    GroupAdd(usize),
    SetAcl { dir: usize, user: usize },
    RevokeAcl { dir: usize, user: usize },
    Read { member: usize, file: usize },
    Write { member: usize, file: usize },
    Lookup { member: usize, file: usize },
    List { member: usize, dir: usize },
    RevokeUser(usize),
}

pub struct ShareWorkload {
    seed: u64,
    others: usize,
    members: usize,
    dirs: usize,
    files_per_dir: usize,
    plan: Vec<Step>,
}

struct Member {
    vol: NexusVolume,
    joins: u64,
}

pub struct ShareState {
    owner_keys: UserKeys,
    owner: NexusVolume,
    ias: AttestationService,
    probe: Arc<Probe>,
    members: Vec<Member>,
    /// Model: digest of every project file.
    digests: Vec<[u8; 32]>,
    epoch: u64,
}

fn other_name(i: usize) -> String {
    format!("user{i:04}")
}

fn member_name(m: usize) -> String {
    format!("member{m}")
}

impl ShareWorkload {
    pub fn new(seed: u64, scale: Scale) -> ShareWorkload {
        let (others, members, cycles) = match scale {
            Scale::Full => (592, 8, 6),
            Scale::Small => (24, 3, 2),
        };
        let (dirs, files_per_dir) = (8, 8);
        // The plan is fixed per workload, so every seed asks for the same
        // work; the seed picks contents, identities and platforms.
        let mut rng = SeededRandom::new(0x5A4E);
        let files = dirs * files_per_dir;
        let zipf = Zipf::new(files, 0.9, 0x5A4F);
        // Members take turns, so each one's first access after a supernode
        // change falls at the same place in every seed's sequence.
        let mut turn = 0usize;
        let mut next_member = || {
            turn += 1;
            turn % members
        };
        let mut plan = Vec::new();
        for c in 0..cycles {
            let removed = rng.usize_below(others);
            plan.push(Step::GroupRemove(removed));
            let mut acl_pairs = Vec::new();
            while acl_pairs.len() < 6 {
                let dir = rng.usize_below(dirs);
                let user = rng.usize_below(others);
                if acl_pairs.contains(&(dir, user)) {
                    continue;
                }
                plan.push(Step::SetAcl { dir, user });
                acl_pairs.push((dir, user));
                for _ in 0..3 {
                    plan.push(Step::Read {
                        member: next_member(),
                        file: zipf.sample(&mut rng),
                    });
                }
                plan.push(Step::Write {
                    member: next_member(),
                    file: zipf.sample(&mut rng),
                });
                // A member resolves a path in, then lists, the directory
                // whose ACL just changed.
                plan.push(Step::Lookup {
                    member: next_member(),
                    file: dir * files_per_dir + rng.usize_below(files_per_dir),
                });
                plan.push(Step::List {
                    member: next_member(),
                    dir,
                });
            }
            for (dir, user) in acl_pairs {
                plan.push(Step::RevokeAcl { dir, user });
                plan.push(Step::Read {
                    member: next_member(),
                    file: zipf.sample(&mut rng),
                });
            }
            plan.push(Step::GroupAdd(removed));
            if c == cycles / 2 {
                plan.push(Step::RevokeUser(next_member()));
            }
        }
        ShareWorkload {
            seed,
            others,
            members,
            dirs,
            files_per_dir,
            plan,
        }
    }

    pub fn oracle_names(&self) -> Vec<String> {
        [
            "share.member_read",
            "share.member_meta",
            "share.revoked_denied",
            "share.epoch",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn file_path(&self, f: usize) -> String {
        format!(
            "proj/d{}/f{}.txt",
            f / self.files_per_dir,
            f % self.files_per_dir
        )
    }

    fn member_keys(&self, m: usize) -> UserKeys {
        gen::user(&member_name(m), self.seed, 0x1000 + m as u64)
    }

    /// A member's machine: one seeded identity, a fresh RNG stream per join.
    fn member_platform(&self, m: usize, join: u64) -> Platform {
        Platform::seeded_stream(gen::mix(self.seed, 0x3E3B_0000 + m as u64), join)
    }

    /// The paper's attested rootkey exchange, then mount and authenticate.
    fn join(
        &self,
        st_owner: (&NexusVolume, &UserKeys, &AttestationService),
        probe: &Arc<Probe>,
        m: usize,
        join: u64,
    ) -> Result<NexusVolume> {
        let (owner, owner_keys, ias) = st_owner;
        let keys = self.member_keys(m);
        let platform = self.member_platform(m, join);
        let joiner = VolumeJoiner::new(&platform, probe.clone());
        joiner
            .publish_offer(&keys)
            .map_err(|e| format!("offer {m}: {e}"))?;
        owner
            .grant_access(owner_keys, keys.name(), &keys.public_key())
            .map_err(|e| format!("grant {m}: {e}"))?;
        let sealed = joiner
            .accept_grant(&keys, &owner_keys.public_key())
            .map_err(|e| format!("accept {m}: {e}"))?;
        let vol = NexusVolume::mount(
            &platform,
            probe.clone(),
            ias,
            &sealed,
            NexusConfig::default(),
        )
        .map_err(|e| format!("mount {m}: {e}"))?;
        vol.authenticate(&keys)
            .map_err(|e| format!("member auth {m}: {e}"))?;
        Ok(vol)
    }
}

fn fail(what: &'static str) -> impl Fn(NexusError) -> String {
    move |e| format!("{what}: {e}")
}

fn epoch(owner: &NexusVolume) -> Result<u64> {
    owner
        .group_epoch(GROUP)
        .map_err(|e| format!("group epoch: {e}"))
}

/// Every round bumps the group epoch seven times, and the supernode keeps
/// each old epoch key for good, so the volume is rebuilt after this many
/// rounds.
const ROUNDS_PER_VOLUME: u64 = 4;

impl Workload for ShareWorkload {
    type State = ShareState;

    fn rounds_per_volume(&self) -> Option<u64> {
        Some(ROUNDS_PER_VOLUME)
    }

    fn p99(&self) -> &'static [Class] {
        &[Class::Read, Class::Write, Class::Meta, Class::Acl]
    }

    fn store(&self, _i: usize) -> Result<Arc<dyn StorageBackend>> {
        Ok(Arc::new(MemBackend::new()))
    }

    fn setup(&self, probe: Arc<Probe>, _oracles: &mut Oracles) -> Result<ShareState> {
        let ias = AttestationService::new();
        let platform = Platform::seeded_stream(gen::mix(self.seed, 0x0E), 0);
        ias.register_platform(&platform);
        for m in 0..self.members {
            ias.register_platform(&self.member_platform(m, 0));
        }
        let owner_keys = gen::user("owner", self.seed, 0);
        let (owner, _sealed) = NexusVolume::create(
            &platform,
            probe.clone(),
            &ias,
            &owner_keys,
            NexusConfig::default(),
        )
        .map_err(|e| format!("create volume: {e}"))?;
        owner
            .authenticate(&owner_keys)
            .map_err(|e| format!("authenticate: {e}"))?;

        owner.create_group(GROUP).map_err(fail("create group"))?;
        owner.mkdir("proj").map_err(fail("mkdir"))?;
        owner
            .set_group_acl("proj", GROUP, Rights::RW)
            .map_err(fail("group acl"))?;
        let mut digests = Vec::new();
        for d in 0..self.dirs {
            owner.mkdir(&format!("proj/d{d}")).map_err(fail("mkdir"))?;
        }
        for f in 0..self.dirs * self.files_per_dir {
            let data = gen::content(self.seed, 0xF11E_0000 + f as u64, FILE_SIZE);
            owner
                .write_file(&self.file_path(f), &data)
                .map_err(fail("write"))?;
            digests.push(gen::digest(&data));
        }
        let mut names = Vec::new();
        for i in 0..self.others {
            let keys = gen::user(&other_name(i), self.seed, 0x2000 + i as u64);
            owner
                .add_user(keys.name(), keys.public_key())
                .map_err(fail("add user"))?;
            names.push(other_name(i));
        }
        let mut members = Vec::new();
        for m in 0..self.members {
            let vol = self.join((&owner, &owner_keys, &ias), &probe, m, 0)?;
            members.push(Member { vol, joins: 0 });
            names.push(member_name(m));
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        owner
            .add_group_members(GROUP, &refs)
            .map_err(fail("add members"))?;
        let epoch = epoch(&owner)?;
        Ok(ShareState {
            owner_keys,
            owner,
            ias,
            probe,
            members,
            digests,
            epoch,
        })
    }

    fn round(&self, st: &mut ShareState, round: u64, ctx: &mut Ctx) -> Result<()> {
        for (k, step) in self.plan.iter().enumerate() {
            let owner = &st.owner;
            match *step {
                Step::GroupRemove(u) => {
                    let name = other_name(u);
                    ctx.op(Some(Class::Acl), owner, || {
                        owner.remove_group_members(GROUP, &[&name])
                    })
                    .map_err(|e| format!("remove {name} from group: {e}"))?;
                    let now = epoch(owner)?;
                    ctx.oracles
                        .eq("share.epoch", st.epoch + 1, &now, |e| *e += 1)?;
                    st.epoch = now;
                }
                Step::GroupAdd(u) => {
                    let name = other_name(u);
                    ctx.op(Some(Class::Acl), owner, || {
                        owner.add_group_members(GROUP, &[&name])
                    })
                    .map_err(|e| format!("add {name} to group: {e}"))?;
                }
                Step::SetAcl { dir, user } => {
                    let (path, name) = (format!("proj/d{dir}"), other_name(user));
                    ctx.op(Some(Class::Acl), owner, || {
                        owner.set_acl(&path, &name, Rights::READ)
                    })
                    .map_err(|e| format!("set_acl {path} {name}: {e}"))?;
                }
                Step::RevokeAcl { dir, user } => {
                    let (path, name) = (format!("proj/d{dir}"), other_name(user));
                    ctx.op(Some(Class::Acl), owner, || owner.revoke_acl(&path, &name))
                        .map_err(|e| format!("revoke_acl {path} {name}: {e}"))?;
                }
                Step::Read { member, file } => {
                    let (vol, path) = (&st.members[member].vol, self.file_path(file));
                    let data = ctx
                        .op(Some(Class::Read), vol, || vol.read_file(&path))
                        .map_err(|e| format!("member {member} read {path}: {e}"))?;
                    ctx.data(&data);
                    ctx.oracles.eq(
                        "share.member_read",
                        st.digests[file],
                        &gen::digest(&data),
                        |d| d[0] ^= 1,
                    )?;
                }
                Step::Write { member, file } => {
                    let (vol, path) = (&st.members[member].vol, self.file_path(file));
                    let data = gen::content(self.seed, (round << 24) | k as u64, FILE_SIZE);
                    ctx.op(Some(Class::Write), vol, || vol.write_file(&path, &data))
                        .map_err(|e| format!("member {member} write {path}: {e}"))?;
                    ctx.data(&data);
                    st.digests[file] = gen::digest(&data);
                }
                Step::Lookup { member, file } => {
                    let (vol, path) = (&st.members[member].vol, self.file_path(file));
                    let info = ctx
                        .op(Some(Class::Meta), vol, || vol.lookup(&path))
                        .map_err(|e| format!("member {member} lookup {path}: {e}"))?;
                    ctx.oracles.eq(
                        "share.member_meta",
                        (FileType::File, FILE_SIZE as u64),
                        &(info.kind, info.size),
                        |w| w.1 += 1,
                    )?;
                }
                Step::List { member, dir } => {
                    let (vol, path) = (&st.members[member].vol, format!("proj/d{dir}"));
                    let listed = ctx
                        .op(Some(Class::Meta), vol, || vol.list_dir(&path))
                        .map_err(|e| format!("member {member} list {path}: {e}"))?;
                    let mut got: Vec<(String, bool)> = listed
                        .into_iter()
                        .map(|r| (r.name, r.kind == FileType::File))
                        .collect();
                    got.sort();
                    let mut want: Vec<(String, bool)> = (0..self.files_per_dir)
                        .map(|f| (format!("f{f}.txt"), true))
                        .collect();
                    want.sort();
                    ctx.oracles.eq("share.member_meta", want, &got, |w| {
                        w.push(("phantom".into(), true))
                    })?;
                }
                Step::RevokeUser(m) => {
                    let name = member_name(m);
                    ctx.op(Some(Class::Acl), owner, || owner.revoke_user(&name))
                        .map_err(|e| format!("revoke_user {name}: {e}"))?;
                    let now = epoch(owner)?;
                    ctx.oracles
                        .eq("share.epoch", st.epoch + 1, &now, |e| *e += 1)?;
                    st.epoch = now;
                    let (vol, path) = (&st.members[m].vol, self.file_path(k % st.digests.len()));
                    let denied = ctx.op(None, vol, || vol.read_file(&path));
                    ctx.oracles.holds(
                        "share.revoked_denied",
                        matches!(denied, Err(NexusError::AccessDenied(_))),
                        || {
                            format!(
                                "revoked {name} read {path}: {:?}",
                                denied.as_ref().map(Vec::len)
                            )
                        },
                    )?;
                    // Re-join, untimed: the exchange again, then the group.
                    let joins = st.members[m].joins + 1;
                    let vol =
                        self.join((&st.owner, &st.owner_keys, &st.ias), &st.probe, m, joins)?;
                    st.members[m] = Member { vol, joins };
                    st.owner
                        .add_group_members(GROUP, &[&name])
                        .map_err(|e| format!("re-add {name}: {e}"))?;
                }
            }
        }
        Ok(())
    }

    fn owner<'a>(&self, st: &'a ShareState) -> &'a NexusVolume {
        &st.owner
    }

    fn name_len(&self) -> usize {
        "f0.txt".len()
    }

    fn live_bytes(&self, st: &ShareState) -> u64 {
        (st.digests.len() * FILE_SIZE) as u64
    }

    fn finish(&self, st: &mut ShareState, oracles: &mut Oracles) -> Result<()> {
        // Every member still reads every file as the model has it.
        for (m, member) in st.members.iter().enumerate() {
            for (f, want) in st.digests.iter().enumerate() {
                let path = self.file_path(f);
                let data = member
                    .vol
                    .read_file(&path)
                    .map_err(|e| format!("member {m} final read {path}: {e}"))?;
                oracles.eq("share.member_read", *want, &gen::digest(&data), |d| {
                    d[0] ^= 1
                })?;
            }
        }
        Ok(())
    }
}
