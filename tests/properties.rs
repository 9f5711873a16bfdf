//! Property tests on the core data structures and invariants across the
//! workspace, run by the seeded runner in `prop/`.

mod prop;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use prop::{check, Gen, DEFAULT_CASES};
use scarecrow::{Config, Profile, ResourceDb};
use tracer::json::{Json, JsonError, ToJson};
use tracer::{Event, EventKind, RegOp, Trace, TraceDiff, Verdict};
use winsim::{
    args, Api, ApiCall, Args, DriveInfo, FileSystem, Glob, Machine, MachineSnapshot, NxPolicy, Pid,
    RegValue, Registry, Value,
};

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const REG_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 _-";
const FILE_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";

/// Printable ASCII, space through tilde.
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

/// A letter followed by up to eight `rest` characters.
fn word(g: &mut Gen, rest: &[u8]) -> String {
    g.string(LETTERS, 1..2) + &g.string(rest, 0..9)
}

/// Registry-path-ish strings: 1–4 components of word characters.
fn reg_path(g: &mut Gen) -> String {
    format!("HKLM\\{}", g.vec(1..5, |g| word(g, REG_CHARS)).join("\\"))
}

fn file_path(g: &mut Gen) -> String {
    format!("C:\\{}", g.vec(1..5, |g| word(g, FILE_CHARS)).join("\\"))
}

fn domain(g: &mut Gen) -> String {
    g.string(LOWER, 1..13) + ".test"
}

fn event_kind(g: &mut Gen) -> EventKind {
    match g.index(0..8) {
        0 => EventKind::ProcessCreate {
            image: g.string(LOWER, 1..9) + ".exe",
            pid: g.range(1..50) as u32,
            parent: g.range(1..50) as u32,
        },
        1 => EventKind::FileCreate { path: file_path(g) },
        2 => EventKind::FileWrite { path: file_path(g), bytes: g.range(1..1_000_000) },
        3 => EventKind::FileRead { path: file_path(g) },
        4 => EventKind::FileDelete { path: file_path(g) },
        5 => {
            let path = reg_path(g);
            let ops = [
                RegOp::OpenKey,
                RegOp::QueryValue,
                RegOp::SetValue,
                RegOp::CreateKey,
                RegOp::DeleteKey,
            ];
            EventKind::Registry { op: g.pick(&ops), path }
        }
        6 => EventKind::DnsQuery { domain: domain(g), resolved: None },
        _ => EventKind::MutexCreate { name: g.string(LOWER, 1..11) },
    }
}

fn trace(g: &mut Gen) -> Trace {
    let mut t = Trace::new("m.exe");
    for (i, kind) in g.vec(0..40, event_kind).into_iter().enumerate() {
        t.record(Event::at(i as u64, 1, kind));
    }
    t
}

fn two_traces(g: &mut Gen) -> (Trace, Trace) {
    (trace(g), trace(g))
}

// ---------------------------------------------------------------------------
// registry invariants
// ---------------------------------------------------------------------------

#[test]
fn registry_create_implies_exists_with_any_casing() {
    check("registry_create_implies_exists_with_any_casing", DEFAULT_CASES, reg_path, |path| {
        let mut r = Registry::new();
        r.create_key(&path);
        assert!(r.key_exists(&path));
        assert!(r.key_exists(&path.to_ascii_uppercase()));
        assert!(r.key_exists(&path.to_ascii_lowercase()));
    });
}

#[test]
fn registry_ancestors_exist_after_create() {
    check("registry_ancestors_exist_after_create", DEFAULT_CASES, reg_path, |path| {
        let mut r = Registry::new();
        r.create_key(&path);
        let mut prefix = String::new();
        for comp in path.split('\\') {
            if !prefix.is_empty() {
                prefix.push('\\');
            }
            prefix.push_str(comp);
            assert!(r.key_exists(&prefix), "ancestor {prefix} missing");
        }
    });
}

/// Subkey names that extend each other with characters sorting before
/// `\` (space, `!`, `-`, `.`, digits, `[`), so a child and its
/// descendants are not adjacent in key order.
const SUBKEY_NAMES: &[&str] = &["B", "b x", "B!", "B-1", "b.", "B[", "B0", "C", "c x"];

#[test]
fn registry_subkeys_list_each_child_once() {
    let key = |g: &mut Gen| {
        let comps = g.vec(1..4, |g| g.pick(SUBKEY_NAMES).to_owned());
        format!("HKLM\\{}", comps.join("\\"))
    };
    let keys = move |g: &mut Gen| g.vec(1..12, key);
    check("registry_subkeys_list_each_child_once", DEFAULT_CASES, keys, |keys| {
        let mut r = Registry::new();
        for k in &keys {
            r.create_key(k);
        }
        // naive oracle: every normalized key with its ancestors
        let mut all = BTreeSet::new();
        for k in &keys {
            let comps: Vec<String> =
                k.to_ascii_lowercase().split('\\').map(str::to_owned).collect();
            for depth in 1..=comps.len() {
                all.insert(comps[..depth].to_vec());
            }
        }
        for parent in &all {
            let children: BTreeSet<&str> = all
                .iter()
                .filter(|k| k.len() == parent.len() + 1 && k.starts_with(parent))
                .map(|k| k[parent.len()].as_str())
                .collect();
            let path = parent.join("\\");
            let listed = r.subkeys(&path);
            let lowered: BTreeSet<String> = listed.iter().map(|s| s.to_ascii_lowercase()).collect();
            assert_eq!(listed.len(), lowered.len(), "{path}: a child listed twice in {listed:?}");
            assert_eq!(lowered.iter().map(String::as_str).collect::<BTreeSet<_>>(), children);
            assert_eq!(r.subkey_count(&path), listed.len(), "{path}");
            for (i, name) in listed.iter().enumerate() {
                assert_eq!(r.subkey(&path, i), Some(name.as_str()), "{path}[{i}]");
            }
            assert_eq!(r.subkey(&path, listed.len()), None, "{path}");
        }
    });
}

#[test]
fn registry_delete_subtree_is_complete() {
    let paths = |g: &mut Gen| g.vec(1..8, reg_path);
    check("registry_delete_subtree_is_complete", DEFAULT_CASES, paths, |paths| {
        let mut r = Registry::new();
        for p in &paths {
            r.create_key(p);
        }
        let victim = &paths[0];
        r.delete_key(victim);
        assert!(!r.key_exists(victim));
        let prefix = format!("{}\\", victim.to_ascii_lowercase());
        for p in r.key_paths() {
            assert!(!p.to_ascii_lowercase().starts_with(&prefix));
        }
    });
}

#[test]
fn registry_set_then_get_round_trips() {
    let input = |g: &mut Gen| (reg_path(g), g.string(LOWER, 1..9), g.string(&printable(), 0..17));
    check("registry_set_then_get_round_trips", DEFAULT_CASES, input, |(path, name, val)| {
        let mut r = Registry::new();
        r.set_value(&path, &name, RegValue::Sz(val.clone()));
        assert_eq!(r.value(&path, &name).and_then(RegValue::as_sz), Some(val.as_str()));
        assert_eq!(r.value_count(&path), 1);
    });
}

#[test]
fn registry_quota_is_monotone_in_content() {
    let paths = |g: &mut Gen| g.vec(1..10, reg_path);
    check("registry_quota_is_monotone_in_content", DEFAULT_CASES, paths, |paths| {
        let mut r = Registry::new();
        let mut last = r.quota_used_bytes();
        for p in &paths {
            r.create_key(p);
            let next = r.quota_used_bytes();
            assert!(next >= last);
            last = next;
        }
    });
}

// ---------------------------------------------------------------------------
// filesystem invariants
// ---------------------------------------------------------------------------

#[test]
fn fs_create_exists_delete_cycle() {
    let input = |g: &mut Gen| (file_path(g), g.range(0..1_000_000));
    check("fs_create_exists_delete_cycle", DEFAULT_CASES, input, |(path, size)| {
        let mut fs = FileSystem::new();
        fs.set_drive('C', DriveInfo::gb(100, 50));
        fs.create(&path, size, "t");
        assert!(fs.exists(&path));
        assert_eq!(fs.node(&path).unwrap().size, size);
        assert!(fs.delete(&path));
        assert!(!fs.exists(&path));
        assert!(!fs.delete(&path));
    });
}

#[test]
fn fs_rename_preserves_count_and_moves_content() {
    let distinct_paths = |g: &mut Gen| {
        let from = file_path(g);
        let to = std::iter::repeat_with(|| file_path(g))
            .find(|to| !to.eq_ignore_ascii_case(&from))
            .expect("an endless stream");
        (from, to)
    };
    check(
        "fs_rename_preserves_count_and_moves_content",
        DEFAULT_CASES,
        distinct_paths,
        |(from, to)| {
            let mut fs = FileSystem::new();
            fs.create(&from, 42, "t");
            let before = fs.file_count();
            assert!(fs.rename(&from, &to));
            assert_eq!(fs.file_count(), before);
            assert!(!fs.exists(&from));
            assert!(fs.exists(&to));
            assert_eq!(fs.node(&to).unwrap().size, 42);
        },
    );
}

#[test]
fn fs_writes_accumulate() {
    let input = |g: &mut Gen| (file_path(g), g.vec(1..10, |g| g.range(1..1000)));
    check("fs_writes_accumulate", DEFAULT_CASES, input, |(path, writes)| {
        let mut fs = FileSystem::new();
        let mut expected = 0;
        for w in &writes {
            expected += w;
            assert_eq!(fs.write(&path, *w), expected);
        }
    });
}

// ---------------------------------------------------------------------------
// base-plus-overlay stores: a store written after a clone answers every
// query exactly like a store built from scratch with the same writes, and
// the clone it shares its base with is unaffected
// ---------------------------------------------------------------------------

/// A component drawn from a small set in random casing, so generated ops
/// collide on the same keys and files.
fn cased(g: &mut Gen, words: &[&str]) -> String {
    let w = g.pick(words);
    match g.index(0..3) {
        0 => w.to_ascii_lowercase(),
        1 => w.to_ascii_uppercase(),
        _ => w.to_owned(),
    }
}

const REG_WORDS: &[&str] = &["Run", "Svc", "Vm"];
const VALUE_NAMES: &[&str] = &["Path", "v", "Ver"];

/// `HKLM\Soft` plus 1–3 components: deletes high in the tree span keys
/// created before and after the clone.
fn overlay_reg_path(g: &mut Gen) -> String {
    let depth = g.index(1..4);
    let comps: Vec<String> = (0..depth).map(|_| cased(g, REG_WORDS)).collect();
    format!("HKLM\\Soft\\{}", comps.join("\\"))
}

#[derive(Debug)]
enum RegWrite {
    CreateKey(String),
    SetValue(String, String, RegValue),
    DeleteValue(String, String),
    DeleteKey(String),
    /// Deletes a subtree, then re-creates its root with one value.
    Recreate(String, String),
}

fn reg_write(g: &mut Gen) -> RegWrite {
    let path = overlay_reg_path(g);
    match g.index(0..6) {
        0 => RegWrite::CreateKey(path),
        1 | 2 => {
            let value = if g.bool() {
                RegValue::Dword(g.range(0..4) as u32)
            } else {
                RegValue::Sz(g.string(LOWER, 0..6))
            };
            RegWrite::SetValue(path, cased(g, VALUE_NAMES), value)
        }
        3 => RegWrite::DeleteValue(path, cased(g, VALUE_NAMES)),
        4 => RegWrite::DeleteKey(path),
        _ => RegWrite::Recreate(path, cased(g, VALUE_NAMES)),
    }
}

/// Applies one write; the returned string records what the call reported.
fn apply_reg(r: &mut Registry, op: &RegWrite) -> String {
    match op {
        RegWrite::CreateKey(p) => {
            r.create_key(p);
            String::new()
        }
        RegWrite::SetValue(p, n, v) => {
            r.set_value(p, n, v.clone());
            String::new()
        }
        RegWrite::DeleteValue(p, n) => r.delete_value(p, n).to_string(),
        RegWrite::DeleteKey(p) => r.delete_key(p).to_string(),
        RegWrite::Recreate(p, n) => {
            let removed = r.delete_key(p);
            r.set_value(p, n, RegValue::Dword(7));
            removed.to_string()
        }
    }
}

/// Every key the generator can name, plus its ancestors.
fn reg_universe() -> Vec<String> {
    let mut paths = vec!["HKLM".to_owned(), "HKLM\\Soft".to_owned()];
    let mut level = vec!["HKLM\\Soft".to_owned()];
    for _ in 0..3 {
        level = level
            .iter()
            .flat_map(|parent| REG_WORDS.iter().map(move |w| format!("{parent}\\{w}")))
            .collect();
        paths.extend(level.iter().cloned());
    }
    paths
}

/// The hive size recomputed from the public API: 1024 bytes a key, plus
/// name length + 64 + payload a value (two bytes a string character).
fn quota_oracle(r: &Registry) -> u64 {
    let value_bytes = |key: &str, name: &str| {
        let payload = match r.value(key, name).expect("listed value exists") {
            RegValue::Sz(s) => s.len() as u64 * 2,
            RegValue::Dword(_) => 4,
            RegValue::Qword(_) => 8,
            RegValue::Binary(b) => b.len() as u64,
            RegValue::MultiSz(l) => l.iter().map(|s| s.len() as u64 * 2 + 2).sum(),
        };
        name.len() as u64 + 64 + payload
    };
    r.key_paths()
        .map(|k| 1024 + r.value_names(k).iter().map(|n| value_bytes(k, n)).sum::<u64>())
        .sum()
}

/// What the registry answers to every query, one line per query. Also
/// asserts the answers that must agree with each other: the maintained
/// quota with [`quota_oracle`], and the subkey count and the indexed
/// subkey with the subkey list.
fn reg_answers(r: &Registry, universe: &[String]) -> Vec<String> {
    assert_eq!(r.quota_used_bytes(), quota_oracle(r), "maintained quota");
    let mut out = vec![
        format!("key_count {}", r.key_count()),
        format!("key_paths {:?}", r.key_paths().collect::<Vec<_>>()),
        format!("quota_used_bytes {}", r.quota_used_bytes()),
    ];
    for needle in ["run", "SVC\\vm", "soft", "x"] {
        out.push(format!("find_keys_containing {needle} {:?}", r.find_keys_containing(needle)));
    }
    for path in universe {
        for p in [path.clone(), path.to_ascii_uppercase()] {
            out.push(format!("key_exists {p} {}", r.key_exists(&p)));
            let subkeys = r.subkeys(&p);
            assert_eq!(r.subkey_count(&p), subkeys.len(), "subkey_count {p}");
            for i in 0..=subkeys.len() {
                assert_eq!(r.subkey(&p, i), subkeys.get(i).map(String::as_str), "subkey {p} {i}");
            }
            out.push(format!("subkeys {p} {subkeys:?}"));
            out.push(format!("subkey_count {p} {}", r.subkey_count(&p)));
            out.push(format!("value_names {p} {:?}", r.value_names(&p)));
            out.push(format!("value_count {p} {}", r.value_count(&p)));
            for n in VALUE_NAMES {
                out.push(format!("value {p} {n} {:?}", r.value(&p, n)));
            }
        }
    }
    out
}

#[test]
fn registry_overlay_matches_fresh_store() {
    let ops = |g: &mut Gen| (g.vec(0..24, reg_write), g.vec(1..24, reg_write));
    let universe = reg_universe();
    check("registry_overlay_matches_fresh_store", DEFAULT_CASES, ops, |(preset, run)| {
        let mut fresh = Registry::new();
        let mut overlay = Registry::new();
        for op in &preset {
            apply_reg(&mut fresh, op);
            apply_reg(&mut overlay, op);
        }
        let kept = overlay.clone();
        let kept_before = reg_answers(&kept, &universe);
        for op in &run {
            assert_eq!(apply_reg(&mut overlay, op), apply_reg(&mut fresh, op), "{op:?}");
        }
        assert_eq!(reg_answers(&overlay, &universe), reg_answers(&fresh, &universe));
        assert_eq!(reg_answers(&kept, &universe), kept_before, "the clone changed");
    });
}

const FS_DIRS: &[&str] = &[r"C:\Users\u", r"C:\Users\u\Docs", r"C:\Windows", r"D:\Backup"];
const FS_NAMES: &[&str] = &["a.doc", "Notes.txt", "Sheet.XLS"];
const FS_TAGS: &[&str] = &["user-document", "log"];

fn overlay_file_path(g: &mut Gen) -> String {
    let dir = cased(g, FS_DIRS);
    let name = cased(g, FS_NAMES);
    if g.index(0..4) == 0 {
        format!("{dir}\\{name}.WCRY")
    } else {
        format!("{dir}\\{name}")
    }
}

#[derive(Debug)]
enum FsWrite {
    Create(String, u64, &'static str),
    Write(String, u64),
    Encrypt(String),
    Delete(String),
    /// Renames onto a fresh `.WCRY` name (base → new) or onto any
    /// generated name, which may be a preset file's (new → base name).
    Rename(String, String),
}

fn fs_write(g: &mut Gen) -> FsWrite {
    let path = overlay_file_path(g);
    match g.index(0..6) {
        0 | 1 => FsWrite::Create(path, g.range(0..100), g.pick(FS_TAGS)),
        2 => FsWrite::Write(path, g.range(1..100)),
        3 => FsWrite::Encrypt(path),
        4 => FsWrite::Delete(path),
        _ => {
            let to = if g.bool() { format!("{path}.WCRY") } else { overlay_file_path(g) };
            FsWrite::Rename(path, to)
        }
    }
}

fn apply_fs(fs: &mut FileSystem, op: &FsWrite) -> String {
    match op {
        FsWrite::Create(p, size, tag) => {
            fs.create(p, *size, tag);
            String::new()
        }
        FsWrite::Write(p, bytes) => fs.write(p, *bytes).to_string(),
        FsWrite::Encrypt(p) => fs.encrypt(p).to_string(),
        FsWrite::Delete(p) => fs.delete(p).to_string(),
        FsWrite::Rename(from, to) => fs.rename(from, to).to_string(),
    }
}

fn fs_answers(fs: &FileSystem) -> Vec<String> {
    let mut out = vec![
        format!("file_count {}", fs.file_count()),
        format!("iter {:?}", fs.iter().collect::<Vec<_>>()),
    ];
    for tag in FS_TAGS {
        out.push(format!("files_tagged {tag} {:?}", fs.files_tagged(tag).collect::<Vec<_>>()));
    }
    for dir in FS_DIRS.iter().copied().chain([r"C:\Users", "C:", "D:", r"C:\Users\u\a.doc"]) {
        for d in [dir.to_owned(), dir.to_ascii_uppercase()] {
            out.push(format!("dir_exists {d} {}", fs.dir_exists(&d)));
            out.push(format!("list_dir {d} {:?}", fs.list_dir(&d)));
        }
    }
    for dir in FS_DIRS {
        for name in FS_NAMES {
            for suffix in ["", ".wcry", ".WCRY.wcry"] {
                let p = format!("{dir}\\{name}{suffix}").to_ascii_uppercase();
                out.push(format!("exists {p} {}", fs.exists(&p)));
                out.push(format!("node {p} {:?}", fs.node(&p)));
            }
        }
    }
    out
}

#[test]
fn fs_overlay_matches_fresh_store() {
    let ops = |g: &mut Gen| (g.vec(0..16, fs_write), g.vec(1..24, fs_write));
    check("fs_overlay_matches_fresh_store", DEFAULT_CASES, ops, |(preset, run)| {
        let mut fresh = FileSystem::new();
        let mut overlay = FileSystem::new();
        for op in &preset {
            apply_fs(&mut fresh, op);
            apply_fs(&mut overlay, op);
        }
        let kept = overlay.clone();
        let kept_before = fs_answers(&kept);
        for op in &run {
            assert_eq!(apply_fs(&mut overlay, op), apply_fs(&mut fresh, op), "{op:?}");
        }
        assert_eq!(fs_answers(&overlay), fs_answers(&fresh));
        assert_eq!(fs_answers(&kept), kept_before, "the clone changed");
    });
}

// ---------------------------------------------------------------------------
// machine snapshots: the process table and network tables
// ---------------------------------------------------------------------------

const SNAP_APIS: &[Api] =
    &[Api::IsDebuggerPresent, Api::GetTickCount, Api::ShellExecuteEx, Api::RegOpenKeyEx];
const SNAP_IMAGES: &[&str] = &["sample.exe", "Sample.exe", "cmd.exe"];
/// Loaded by default, loadable, and missing from the preset's registry.
const SNAP_DLLS: &[&str] = &["KERNEL32.dll", "ws2_32.dll", "shell32.dll", "SbieDll.dll"];
/// A preset host, the same host cased and dotted, and new domains.
const SNAP_DOMAINS: &[&str] =
    &["www.microsoft.com", "WWW.Microsoft.COM.", "cdn.adobe.com", "a.test", "B.test."];

/// One write to a machine's process table or network. `usize` picks a
/// process by index into the machine's current pid list.
#[derive(Debug)]
enum MachineWrite {
    Spawn(&'static str, usize, bool),
    Terminate(usize),
    Resume(usize),
    Hook(usize, Api),
    Load(usize, &'static str),
    Resolve(&'static str),
    HttpGet(&'static str),
}

fn machine_write(g: &mut Gen) -> MachineWrite {
    let idx = g.index(0..24);
    match g.index(0..7) {
        0 => MachineWrite::Spawn(g.pick(SNAP_IMAGES), idx, g.bool()),
        1 => MachineWrite::Terminate(idx),
        2 => MachineWrite::Resume(idx),
        3 => MachineWrite::Hook(idx, g.pick(SNAP_APIS)),
        4 => MachineWrite::Load(idx, g.pick(SNAP_DLLS)),
        5 => MachineWrite::Resolve(g.pick(SNAP_DOMAINS)),
        _ => MachineWrite::HttpGet(g.pick(SNAP_DOMAINS)),
    }
}

fn apply_machine(m: &mut Machine, op: &MachineWrite) -> String {
    let pids: Vec<Pid> = m.processes().map(|p| p.pid).collect();
    let pid = |i: usize| pids[i % pids.len()];
    match *op {
        MachineWrite::Spawn(image, parent, suspended) => {
            m.spawn(image, pid(parent), suspended).to_string()
        }
        MachineWrite::Terminate(i) => {
            m.finish_process(pid(i), 1);
            String::new()
        }
        MachineWrite::Resume(i) => m.resume(pid(i)).to_string(),
        MachineWrite::Hook(i, api) => {
            m.install_hook(pid(i), api, Arc::new(|c: &mut ApiCall<'_>| c.call_original()));
            String::new()
        }
        MachineWrite::Load(i, dll) => {
            format!("{:?}", m.call_api(pid(i), Api::LoadLibrary, args![dll]))
        }
        MachineWrite::Resolve(d) => format!("{:?}", m.system_mut().network.resolve(d)),
        MachineWrite::HttpGet(d) => format!("{:?}", m.system_mut().network.http_get(d)),
    }
}

fn machine_answers(m: &Machine) -> Vec<String> {
    let mut out: Vec<String> = m
        .processes()
        .map(|p| {
            let prologues: Vec<u8> = SNAP_APIS.iter().map(|a| p.api_prologue(*a)[0]).collect();
            format!(
                "{} {} {:?} {} {:?} {} {prologues:?}",
                p.pid,
                p.image,
                p.state,
                p.exit_code,
                p.modules,
                p.hooked_api_count()
            )
        })
        .collect();
    out.extend(m.system().network.dns_cache().iter().map(|e| format!("{} {:?}", e.domain, e.addr)));
    out.push(format!("{} trace events", m.trace().len()));
    out
}

#[test]
fn machine_snapshot_matches_fresh_build() {
    let snap = MachineSnapshot::capture(&winsim::env::vm_sandbox());
    let pristine = machine_answers(&snap.instantiate());
    let ops = |g: &mut Gen| g.vec(1..24, machine_write);
    check("machine_snapshot_matches_fresh_build", DEFAULT_CASES, ops, |run| {
        let mut fresh = winsim::env::vm_sandbox();
        let mut restored = snap.instantiate();
        for op in &run {
            assert_eq!(apply_machine(&mut restored, op), apply_machine(&mut fresh, op), "{op:?}");
        }
        assert_eq!(machine_answers(&restored), machine_answers(&fresh));
        assert_eq!(restored.trace(), fresh.trace());
        assert_eq!(machine_answers(&snap.instantiate()), pristine, "the snapshot changed");
    });
}

// ---------------------------------------------------------------------------
// trace / verdict invariants
// ---------------------------------------------------------------------------

#[test]
fn verdict_is_total_and_consistent() {
    check("verdict_is_total_and_consistent", 64, two_traces, |(a, b)| {
        // never panics, and agrees with the diff it is derived from
        let diff = TraceDiff::compute(&a, &b);
        match Verdict::decide(&a, &b) {
            Verdict::Deactivated(_) => {
                assert!(
                    diff.has_suppressed() || diff.self_spawns.1 > tracer::SELF_SPAWN_LOOP_THRESHOLD
                );
            }
            Verdict::NotDeactivated => {
                assert!(diff.baseline_had_activity());
                assert!(!diff.has_suppressed());
            }
            Verdict::Indeterminate => {
                assert!(!diff.baseline_had_activity());
            }
        }
    });
}

#[test]
fn identical_traces_never_count_as_deactivated() {
    check("identical_traces_never_count_as_deactivated", 64, trace, |a| {
        let v = Verdict::decide(&a, &a.clone());
        assert!(!v.is_deactivated() || a.self_spawn_count() > tracer::SELF_SPAWN_LOOP_THRESHOLD);
    });
}

#[test]
fn empty_protected_trace_deactivates_iff_baseline_acted() {
    check("empty_protected_trace_deactivates_iff_baseline_acted", 64, trace, |a| {
        let v = Verdict::decide(&a, &Trace::new("m.exe"));
        if a.significant_activities().is_empty() {
            assert_eq!(v, Verdict::Indeterminate);
        } else {
            assert!(v.is_deactivated());
        }
    });
}

#[test]
fn significant_activities_are_a_subset_of_events() {
    check("significant_activities_are_a_subset_of_events", 64, trace, |a| {
        assert!(a.significant_activities().len() <= a.len());
    });
}

#[test]
fn merge_preserves_event_count() {
    check("merge_preserves_event_count", 64, two_traces, |(a, b)| {
        let (na, nb) = (a.len(), b.len());
        let mut merged = a;
        merged.merge(b);
        assert_eq!(merged.len(), na + nb);
        // and stays time-ordered
        let times: Vec<_> = merged.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    });
}

// ---------------------------------------------------------------------------
// value / args invariants
// ---------------------------------------------------------------------------

#[test]
fn args_set_get_round_trip() {
    // which conversion builds the value: from `&str`, `String` or `Arc<str>`
    let input = |g: &mut Gen| (g.index(0..8), g.string(&printable(), 0..13), g.index(0..3));
    check("args_set_get_round_trip", DEFAULT_CASES, input, |(idx, s, form)| {
        let value = match form {
            0 => Value::from(s.as_str()),
            1 => Value::from(s.clone()),
            _ => Value::from(std::sync::Arc::<str>::from(s.as_str())),
        };
        assert_eq!(value, Value::from(s.as_str()));
        assert_eq!(value.as_str(), Some(s.as_str()));
        let mut args = Args::none();
        args.set(idx, value);
        assert_eq!(args.str(idx), s.as_str());
        assert!(args.len() > idx);
    });
}

#[test]
fn value_u64_round_trips() {
    check("value_u64_round_trips", DEFAULT_CASES, Gen::u64, |v| {
        assert_eq!(Value::U64(v).as_u64(), Some(v));
        assert_eq!(Value::U64(v).truthy(), v != 0);
    });
}

// ---------------------------------------------------------------------------
// network invariants
// ---------------------------------------------------------------------------

#[test]
fn sinkhole_answers_every_domain_with_one_address() {
    let input = |g: &mut Gen| (g.vec(1..20, domain), g.bytes::<4>());
    check(
        "sinkhole_answers_every_domain_with_one_address",
        DEFAULT_CASES,
        input,
        |(domains, addr)| {
            let mut n = winsim::Network::new();
            n.nx_policy = NxPolicy::Sinkhole(addr);
            for d in &domains {
                assert_eq!(n.resolve(d), Some(addr));
                assert_eq!(n.http_get(d), Some(200));
            }
        },
    );
}

#[test]
fn fail_policy_never_resolves_unknown_domains() {
    let domains = |g: &mut Gen| g.vec(1..20, domain);
    check("fail_policy_never_resolves_unknown_domains", DEFAULT_CASES, domains, |domains| {
        let mut n = winsim::Network::new();
        for d in &domains {
            assert_eq!(n.resolve(d), None);
            assert!(n.dns_cache().is_empty());
        }
    });
}

// ---------------------------------------------------------------------------
// wear-and-tear invariants
// ---------------------------------------------------------------------------

/// The event sources `WearProfile::apply` can seed from.
const WEAR_SOURCES_LISTED: u64 = 30;

/// A count up to `max`; one draw in four is zero, the edge that empties a
/// store.
fn wear_count(g: &mut Gen, max: u64) -> usize {
    if g.index(0..4) == 0 {
        0
    } else {
        g.range(0..max + 1) as usize
    }
}

fn wear_profile(g: &mut Gen) -> winsim::env::WearProfile {
    winsim::env::WearProfile {
        device_classes: wear_count(g, 40),
        autoruns: wear_count(g, 12),
        uninstall: wear_count(g, 40),
        shared_dlls: wear_count(g, 40),
        app_paths: wear_count(g, 40),
        active_setup: wear_count(g, 40),
        user_assist: wear_count(g, 40),
        shim_cache: wear_count(g, 40),
        mui_cache: wear_count(g, 40),
        firewall_rules: wear_count(g, 40),
        usb_stor: wear_count(g, 8),
        dns_cache: wear_count(g, 60),
        sys_events: wear_count(g, 12_000),
        event_sources: wear_count(g, 40),
        padding_keys: wear_count(g, 200),
    }
}

#[test]
fn generated_wear_profiles_measure_without_panicking() {
    let engine = scarecrow::Scarecrow::with_builtin_db(Config::default());
    let fake_sources = scarecrow::WearTearFakes::default().event_sources.len() as f64;
    check("generated_wear_profiles_measure_without_panicking", 64, wear_profile, |profile| {
        let measure = |engine: Option<&scarecrow::Scarecrow>| {
            let mut sys = winsim::System::new();
            profile.apply(&mut sys);
            let mut m = winsim::Machine::new(sys);
            let pid = harness::spawn_probe(&mut m, "weartear.exe", engine);
            weartear::WearMeasurement::collect(&mut winsim::ProcessCtx::new(&mut m, pid))
        };
        let plain = measure(None);
        let events = profile.sys_events as u64;
        let sources = (profile.event_sources as u64).min(WEAR_SOURCES_LISTED);
        // no sources means no events
        let seeded = if sources == 0 { 0 } else { events };
        assert_eq!(plain.value("sysevt"), seeded as f64);
        assert_eq!(plain.value("syssrc"), sources.min(seeded) as f64);
        assert_eq!(plain.value("dnscacheEntries"), profile.dns_cache as f64);
        let protected = measure(Some(&engine));
        assert_eq!(protected.value("sysevt"), 8_000.0);
        assert_eq!(protected.value("syssrc"), fake_sources);
    });
}

// ---------------------------------------------------------------------------
// decision-tree invariants
// ---------------------------------------------------------------------------

#[test]
fn decision_tree_fits_separable_data() {
    check(
        "decision_tree_fits_separable_data",
        16,
        |g| g.range(0..1000),
        |seed| {
            let data = weartear::training_population(seed, 100);
            let tree = weartear::DecisionTree::train(&data, 4);
            assert!(tree.accuracy(&data) > 0.97);
        },
    );
}

#[test]
fn decision_tree_classification_is_total() {
    let features = |g: &mut Gen| g.vec(5..6, |g| g.f64(0.0..1e9));
    check("decision_tree_classification_is_total", 16, features, |f| {
        let tree = weartear::sandbox_classifier(11);
        let _ = tree.classify(&f); // must not panic for any in-arity input
    });
}

// ---------------------------------------------------------------------------
// malgene alignment invariants
// ---------------------------------------------------------------------------

#[test]
fn alignment_matches_are_strictly_increasing() {
    check("alignment_matches_are_strictly_increasing", 48, two_traces, |(a, b)| {
        let al = malgene::align(&a, &b);
        for w in al.matched.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        for &(ia, ib) in &al.matched {
            assert!(ia < a.len() && ib < b.len());
            assert_eq!(
                malgene::key(&a.events()[ia]),
                malgene::key(&b.events()[ib]),
                "matched events must share keys"
            );
        }
        assert!(al.coverage_of_b() <= 1.0);
    });
}

#[test]
fn self_alignment_is_total() {
    check("self_alignment_is_total", 48, trace, |a| {
        let al = malgene::align(&a, &a.clone());
        assert_eq!(al.matched.len(), a.len());
        assert_eq!(al.deviation(), None);
    });
}

#[test]
fn prefix_extension_always_deviates() {
    let input = |g: &mut Gen| (trace(g), event_kind(g));
    check("prefix_extension_always_deviates", 48, input, |(a, extra)| {
        // b = a + one more payload event: deviation must be found at |a|
        let mut b = a.clone();
        b.record(Event::at(a.len() as u64 + 1, 1, extra));
        let al = malgene::align(&a, &b);
        let (resume_a, dev_b) = al.deviation().expect("strict extension deviates");
        assert_eq!(resume_a, a.len());
        assert_eq!(dev_b, a.len());
    });
}

#[test]
fn extract_signature_never_panics() {
    check("extract_signature_never_panics", 48, two_traces, |(a, b)| {
        let _ = malgene::extract_signature(&a, &b);
    });
}

// ---------------------------------------------------------------------------
// latency-histogram invariants (flight recorder)
// ---------------------------------------------------------------------------

fn hist_from(values: &[u64]) -> tracer::LatencyHistogram {
    let mut h = tracer::LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn hist_bucket_index_is_monotone_and_in_range() {
    use tracer::{LatencyHistogram, HISTOGRAM_BUCKETS};
    let input = |g: &mut Gen| (g.u64(), g.u64());
    check("hist_bucket_index_is_monotone_and_in_range", DEFAULT_CASES, input, |(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(LatencyHistogram::bucket_index(lo) <= LatencyHistogram::bucket_index(hi));
        assert!(LatencyHistogram::bucket_index(hi) < HISTOGRAM_BUCKETS);
        // every value sits at or above the floor of its own bucket
        assert!(LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(a)) <= a);
    });
}

#[test]
fn hist_percentile_is_monotone_in_p() {
    let values = |g: &mut Gen| g.vec(0..60, Gen::u64);
    check("hist_percentile_is_monotone_in_p", DEFAULT_CASES, values, |values| {
        let h = hist_from(&values);
        assert_eq!(h.count(), values.len() as u64);
        let mut last = h.percentile(0.0);
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            assert!(q >= last, "percentile({p}) = {q} < {last}");
            last = q;
        }
        if let Some(&max) = values.iter().max() {
            assert!(last <= max, "p100 floor {last} above max value {max}");
        }
    });
}

#[test]
fn hist_merge_is_commutative() {
    let input = |g: &mut Gen| (g.vec(0..40, Gen::u64), g.vec(0..40, Gen::u64));
    check("hist_merge_is_commutative", DEFAULT_CASES, input, |(xs, ys)| {
        let (a, b) = (hist_from(&xs), hist_from(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba);
        assert_eq!(ab.count(), a.count() + b.count());
    });
}

#[test]
fn hist_merge_is_associative_and_lossless() {
    let input =
        |g: &mut Gen| (g.vec(0..30, Gen::u64), g.vec(0..30, Gen::u64), g.vec(0..30, Gen::u64));
    check("hist_merge_is_associative_and_lossless", DEFAULT_CASES, input, |(xs, ys, zs)| {
        // (a + b) + c
        let mut left = hist_from(&xs);
        left.merge(&hist_from(&ys));
        left.merge(&hist_from(&zs));
        // a + (b + c)
        let mut bc = hist_from(&ys);
        bc.merge(&hist_from(&zs));
        let mut right = hist_from(&xs);
        right.merge(&bc);
        assert_eq!(&left, &right);
        // merging equals having recorded everything into one histogram,
        // so parallel-worker aggregation is lossless
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        assert_eq!(left, hist_from(&all));
    });
}

// ---------------------------------------------------------------------------
// resource database invariants: every answer depends only on the entries
// and the order they were added
// ---------------------------------------------------------------------------

const DB_FOLDERS: &[&str] = &[r"C:\Drivers", r"C:\Drivers\Sub", r"C:\Tools"];
const DB_FILES: &[&str] = &["a.sys", "B.dll", "c.exe"];
const DB_PROFILES: &[Profile] =
    &[Profile::VMware, Profile::VirtualBox, Profile::Debugger, Profile::Generic];

/// A file under one of a few shared folders, in random casing, so adds
/// collide on the same entries (re-adds) and folders hold several.
fn db_file(g: &mut Gen) -> String {
    format!("{}\\{}", cased(g, DB_FOLDERS), cased(g, DB_FILES))
}

fn build_db(adds: &[(String, Profile)]) -> ResourceDb {
    let mut db = ResourceDb::new();
    for (path, profile) in adds {
        db.add_file(path, *profile);
    }
    db
}

/// The folder-query oracle: entries (normalized path, profile) in
/// first-added order, a re-add taking the new profile in place; the
/// answer is the path's own admitted entry, else the first admitted entry
/// under it.
fn naive_file(
    adds: &[(String, Profile)],
    path: &str,
    admits: impl Fn(Profile) -> bool,
) -> Option<Profile> {
    let mut entries: Vec<(String, Profile)> = Vec::new();
    for (p, profile) in adds {
        let key = p.to_ascii_lowercase();
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e.1 = *profile,
            None => entries.push((key, *profile)),
        }
    }
    let key = path.to_ascii_lowercase();
    let folder = format!("{key}\\");
    let own = entries.iter().find(|(k, p)| *k == key && admits(*p));
    own.or_else(|| entries.iter().find(|(k, p)| k.starts_with(&folder) && admits(*p))).map(|e| e.1)
}

#[test]
fn resource_db_answers_depend_only_on_contents_and_order() {
    let case = |g: &mut Gen| g.vec(1..12, |g| (db_file(g), g.pick(DB_PROFILES)));
    check("resource_db_answers_depend_only_on_contents_and_order", DEFAULT_CASES, case, |adds| {
        // two separate instances built from the same adds
        let (a, b) = (build_db(&adds), build_db(&adds));
        let mut queries: Vec<String> = DB_FOLDERS.iter().map(|f| f.to_string()).collect();
        queries.extend(adds.iter().map(|(p, _)| p.to_ascii_uppercase()));
        queries.push(r"C:\Elsewhere".to_owned());
        // every profile admitted, then each one alone (a committed run)
        let modes = std::iter::once(None).chain(DB_PROFILES.iter().copied().map(Some));
        for only in modes {
            let admits = |p: Profile| only.is_none_or(|o| o == p);
            for q in &queries {
                let answer = a.file(q).find(|&p| admits(p));
                assert_eq!(answer, b.file(q).find(|&p| admits(p)), "{q} admitting {only:?}");
                assert_eq!(answer, naive_file(&adds, q, admits), "{q} admitting {only:?}");
            }
        }
        for pattern in [r"C:\Drivers\*", r"C:\*", r"C:\*.SYS", r"*\Sub\*"] {
            let glob = Glob::new(pattern);
            let listing = |db: &ResourceDb| -> Vec<(String, Profile)> {
                let files = db.files().iter().filter(|e| glob.matches(&e.name));
                files.map(|e| (e.name.clone(), e.profile)).collect()
            };
            assert_eq!(listing(&a), listing(&b), "{pattern}");
        }
    });
}

// ---------------------------------------------------------------------------
// deception-rule registry invariants
// ---------------------------------------------------------------------------

/// The pre-refactor hook set: the 29 core APIs (Section III-A), the two
/// documented extras (exception dispatcher, Toolhelp32), plus — when the
/// wear-and-tear extension is on — the 7 associated APIs of Table III.
/// Kept as a literal list so the registry refactor is pinned to exactly
/// the coverage the monolithic dispatcher had.
fn prerefactor_hooked(weartear: bool) -> HashSet<winsim::Api> {
    use winsim::Api::*;
    let mut set: HashSet<winsim::Api> = [
        RegOpenKeyEx,
        RegQueryValueEx,
        NtQueryAttributesFile,
        GetFileAttributes,
        CreateFile,
        FindFirstFile,
        CreateProcess,
        ShellExecuteEx,
        TerminateProcess,
        OpenProcess,
        EnumProcesses,
        GetModuleHandle,
        LoadLibrary,
        EnumModules,
        GetProcAddress,
        FindWindow,
        IsDebuggerPresent,
        CheckRemoteDebuggerPresent,
        OutputDebugString,
        NtQueryInformationProcess,
        GetTickCount,
        GetSystemInfo,
        GlobalMemoryStatusEx,
        GetDiskFreeSpaceEx,
        GetModuleFileName,
        GetUserName,
        GetComputerName,
        DnsQuery,
        InternetOpenUrl,
        RaiseException,
        CreateToolhelp32Snapshot,
    ]
    .into_iter()
    .collect();
    if weartear {
        set.extend([
            DnsGetCacheDataTable,
            EvtNext,
            NtOpenKeyEx,
            NtQueryKey,
            NtQuerySystemInformation,
            NtQueryValueKey,
            NtCreateFile,
        ]);
    }
    set
}

#[test]
fn rule_registry_covers_exactly_the_prerefactor_hook_set() {
    let config = |g: &mut Gen| scarecrow::Config {
        software: g.bool(),
        hardware: g.bool(),
        network: g.bool(),
        weartear: g.bool(),
        protect_processes: g.bool(),
        active_mitigation: g.bool(),
        ..scarecrow::Config::default()
    };
    check("rule_registry_covers_exactly_the_prerefactor_hook_set", DEFAULT_CASES, config, |cfg| {
        // the category gates keep hooks patched (presence-only ablation),
        // so only the weartear switch changes the hooked set
        let set = scarecrow::rules::RuleSet::build(cfg.clone());
        let hooked = set.hooked_apis();
        let unique: HashSet<_> = hooked.iter().copied().collect();
        assert_eq!(unique.len(), hooked.len(), "duplicate hooked APIs");
        assert_eq!(unique, prerefactor_hooked(cfg.weartear));
    });
}

#[test]
fn disabling_one_rule_removes_only_its_exclusive_apis() {
    let rules = scarecrow::rules::all_rules();
    let victim = |g: &mut Gen| g.index(0..rules.len());
    check("disabling_one_rule_removes_only_its_exclusive_apis", DEFAULT_CASES, victim, |idx| {
        let victim = rules[idx];
        let mut cfg = scarecrow::Config::default();
        cfg.rule_overrides.insert(victim.name().to_owned(), false);
        let full = prerefactor_hooked(true);
        let reduced: HashSet<_> =
            scarecrow::rules::RuleSet::build(cfg).hooked_apis().iter().copied().collect();
        assert!(reduced.is_subset(&full));
        let declared_by_others: HashSet<_> = rules
            .iter()
            .filter(|r| r.name() != victim.name())
            .flat_map(|r| r.apis())
            .map(|(a, _)| *a)
            .collect();
        for api in full.difference(&reduced) {
            assert!(
                !declared_by_others.contains(api),
                "{api} dropped although another rule still declares it"
            );
        }
        for api in &reduced {
            assert!(declared_by_others.contains(api));
        }
    });
}

// ---------------------------------------------------------------------------
// engine isolation: one engine, many machines
// ---------------------------------------------------------------------------

/// Planted keys of four profiles, then a key no profile plants.
const PROBE_KEYS: &[&str] = &[
    r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools",
    r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions",
    r"HKLM\SOFTWARE\Wine",
    r"HKLM\SOFTWARE\Sandboxie",
    r"HKLM\SOFTWARE\NoSuchVendor",
];

/// The image the probing process runs as (and spawns).
const PROBE_IMAGE: &str = "probe.exe";

/// One call a probing sample makes.
#[derive(Debug, Clone, Copy)]
enum ProbeCall {
    OpenKey(&'static str),
    IsDebuggerPresent,
    FindDebuggerWindow,
    SpawnSelf,
}

fn probe_call(g: &mut Gen) -> ProbeCall {
    match g.index(0..4) {
        0 => ProbeCall::OpenKey(g.pick(PROBE_KEYS)),
        1 => ProbeCall::IsDebuggerPresent,
        2 => ProbeCall::FindDebuggerWindow,
        _ => ProbeCall::SpawnSelf,
    }
}

/// A fresh machine whose probing process `engine` protects.
fn protected_machine(engine: &scarecrow::Scarecrow) -> (winsim::Machine, winsim::Pid) {
    let mut m = winsim::Machine::new(winsim::System::new());
    let pid = m.add_system_process(PROBE_IMAGE);
    engine.protect_process(&mut m, pid);
    (m, pid)
}

fn make_call(m: &mut winsim::Machine, pid: winsim::Pid, call: ProbeCall) -> Value {
    use winsim::{args, Api};
    match call {
        ProbeCall::OpenKey(key) => m.call_api(pid, Api::RegOpenKeyEx, args![key]),
        ProbeCall::IsDebuggerPresent => m.call_api(pid, Api::IsDebuggerPresent, args![]),
        ProbeCall::FindDebuggerWindow => m.call_api(pid, Api::FindWindow, args!["OLLYDBG"]),
        ProbeCall::SpawnSelf => m.call_api(pid, Api::CreateProcess, args![PROBE_IMAGE]),
    }
}

/// What a machine's run observed: the answers, the decision log (the
/// run's triggers), and the alarms in its trace.
type Observed = (Vec<Value>, Vec<winsim::Decision>, Vec<String>);

fn observed(m: &winsim::Machine, answers: Vec<Value>) -> Observed {
    let alarms = m.trace().alarms().map(str::to_owned).collect();
    (answers, m.deception().decisions().to_vec(), alarms)
}

#[test]
fn one_engine_protects_many_machines_independently() {
    let db = std::sync::Arc::new(scarecrow::ResourceDb::builtin());
    let engine = |cfg: &Config| scarecrow::Scarecrow::with_db(cfg.clone(), db.clone());
    let case = |g: &mut Gen| {
        let cfg = Config {
            exclusive_profiles: g.bool(),
            active_mitigation: g.bool(),
            spawn_alarm_threshold: g.range(2..6) as usize,
            ..Config::default()
        };
        let scripts = [g.vec(0..24, probe_call), g.vec(0..24, probe_call)];
        // which machine makes the next call, while both have calls left
        let schedule = g.vec(0..48, |g| g.index(0..2));
        (cfg, scripts, schedule)
    };
    check("one_engine_protects_many_machines_independently", DEFAULT_CASES, case, |input| {
        let (cfg, scripts, schedule) = input;
        let alone = scripts.clone().map(|script| {
            let (mut m, pid) = protected_machine(&engine(&cfg));
            let answers = script.into_iter().map(|c| make_call(&mut m, pid, c)).collect();
            observed(&m, answers)
        });
        let shared = engine(&cfg);
        let mut machines = [protected_machine(&shared), protected_machine(&shared)];
        let mut answers = [Vec::new(), Vec::new()];
        let mut next = [0, 0];
        let mut turns = schedule.into_iter().chain(std::iter::repeat(0));
        while next != [scripts[0].len(), scripts[1].len()] {
            let mut i = turns.next().expect("the schedule never ends");
            if next[i] == scripts[i].len() {
                i = 1 - i;
            }
            let (m, pid) = &mut machines[i];
            answers[i].push(make_call(m, *pid, scripts[i][next[i]]));
            next[i] += 1;
        }
        let [a, b] = answers;
        assert_eq!(observed(&machines[0].0, a), alone[0], "machine A");
        assert_eq!(observed(&machines[1].0, b), alone[1], "machine B");
    });
}

// ---------------------------------------------------------------------------
// hook-chain invariants
// ---------------------------------------------------------------------------

#[test]
fn prologue_is_patched_exactly_where_a_hook_chain_is() {
    use hooklib::{DllImage, Injector};

    /// DLL API indices, and the API an autoinject hook sits on, if any.
    type Case = (BTreeSet<usize>, Option<Api>);
    let case = |g: &mut Gen| -> Case {
        let apis = g.vec(1..10, |g| g.index(0..30)).into_iter().collect();
        let auto = g.bool().then(|| g.pick(&[Api::CreateProcess, Api::ShellExecuteEx]));
        (apis, auto)
    };
    check(
        "prologue_is_patched_exactly_where_a_hook_chain_is",
        32,
        case,
        |(indices, auto): Case| {
            let all = Api::all();
            let mut m = Machine::new(winsim::System::new());
            if let Some(api) = auto {
                m.add_autoinject_hook(api, Arc::new(|c: &mut ApiCall<'_>| c.call_original()));
            }
            let pid = m.spawn("p.exe", m.explorer_pid(), false);
            let mut dll = DllImage::new("test.dll");
            for &i in &indices {
                dll.hook(all[i], Arc::new(|c: &mut ApiCall<'_>| c.call_original()));
            }
            Injector::new(dll).inject(&mut m, pid);
            // one child through each follow hook
            let child =
                m.call_api(pid, Api::CreateProcess, args!["c.exe"]).as_u64().unwrap() as Pid;
            let grandchild =
                m.call_api(child, Api::ShellExecuteEx, args!["g.exe"]).as_u64().unwrap() as Pid;
            let mut expected: BTreeSet<Api> = indices.iter().map(|&i| all[i]).collect();
            expected.extend([Api::CreateProcess, Api::ShellExecuteEx]);
            for pid in [pid, child, grandchild] {
                let p = m.process(pid).unwrap();
                assert!(p.module_loaded("test.dll"), "pid {pid} was not injected");
                let patched: BTreeSet<Api> = all
                    .iter()
                    .copied()
                    .filter(|api| {
                        let prologue_patched = winsim::check_hook(&p.api_prologue(*api));
                        assert_eq!(prologue_patched, p.api_hooked(*api), "{api} in pid {pid}");
                        prologue_patched
                    })
                    .collect();
                assert_eq!(patched, expected, "pid {pid}");
                assert_eq!(p.hooked_api_count(), expected.len(), "pid {pid}");
            }
        },
    );
}

// ---------------------------------------------------------------------------
// tracer::json and Config files
// ---------------------------------------------------------------------------

/// Characters that stress the escaper: controls, quotes, backslashes, the
/// solidus, DEL, and multi-byte UTF-8 (including a surrogate-pair char).
const JSON_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é', '€',
    '\u{2028}', '😀',
];

fn json_string(g: &mut Gen) -> String {
    g.vec(0..8, |g| g.pick(JSON_CHARS)).into_iter().collect()
}

fn json_value(g: &mut Gen, depth: u32) -> Json {
    let kind = if depth == 0 || g.index(0..3) == 0 { g.index(0..6) } else { g.index(6..8) };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => Json::U64(g.u64()),
        3 => (g.u64() as i64).to_json(),
        4 => {
            let x = f64::from_bits(g.u64());
            Json::F64(if x.is_finite() { x } else { g.f64(-1e6..1e6) })
        }
        5 => Json::Str(json_string(g)),
        6 => Json::Array(g.vec(0..4, |g| json_value(g, depth - 1))),
        _ => Json::Object(g.vec(0..4, |g| (json_string(g), json_value(g, depth - 1)))),
    }
}

fn json_object(g: &mut Gen) -> Json {
    Json::Object(g.vec(0..4, |g| (json_string(g), json_value(g, 3))))
}

#[test]
fn json_write_then_parse_is_identity() {
    check(
        "json_write_then_parse_is_identity",
        DEFAULT_CASES,
        |g| json_value(g, 4),
        |v| {
            assert_eq!(Json::parse(v.to_string()).as_ref(), Ok(&v), "compact");
            assert_eq!(Json::parse(v.pretty()).as_ref(), Ok(&v), "pretty");
        },
    );
}

#[test]
fn json_parser_never_panics_on_random_bytes() {
    // mostly JSON punctuation so inputs get past the first byte
    let alphabet: Vec<u8> = b"{}[]:,\"\\ 0123456789-+.eEtrufalsn"
        .iter()
        .copied()
        .chain([0x00, 0x1f, 0x7f, 0xc3, 0xa9, 0xff])
        .collect();
    check(
        "json_parser_never_panics_on_random_bytes",
        DEFAULT_CASES * 4,
        |g| g.vec(0..48, |g| g.pick(&alphabet)),
        |bytes| match Json::parse(&bytes) {
            Ok(v) => assert_eq!(Json::parse(v.to_string()), Ok(v)),
            Err(JsonError::Syntax { offset, .. }) => assert!(offset <= bytes.len()),
            Err(e) => panic!("parsing produced a field error: {e}"),
        },
    );
}

#[test]
fn json_truncated_documents_are_errors() {
    check("json_truncated_documents_are_errors", 64, json_object, |v| {
        for text in [v.to_string(), v.pretty()] {
            for end in 0..text.len() {
                let prefix = &text.as_bytes()[..end];
                assert!(Json::parse(prefix).is_err(), "prefix {:?} parsed", &text[..end]);
            }
        }
    });
}

#[test]
fn config_files_round_trip() {
    let config = |g: &mut Gen| Config {
        software: g.bool(),
        hardware: g.bool(),
        network: g.bool(),
        weartear: g.bool(),
        protect_processes: g.bool(),
        follow_children: g.bool(),
        active_mitigation: g.bool(),
        spawn_alarm_threshold: g.u64() as usize,
        exclusive_profiles: g.bool(),
        rule_overrides: g.vec(0..4, |g| (json_string(g), g.bool())).into_iter().collect(),
        fake_disk_gb: g.u64(),
        fake_disk_free_gb: g.u64(),
        fake_memory_mb: g.u64(),
        fake_cores: g.u64(),
        fake_uptime_ms: g.u64(),
        fake_sample_dir: json_string(g),
        fake_user: json_string(g),
        fake_computer: json_string(g),
        sinkhole_addr: g.bytes(),
        fake_exception_cycles: g.u64(),
    };
    check("config_files_round_trip", DEFAULT_CASES, config, |c| {
        assert_eq!(c.to_json().pretty().parse::<Config>().as_ref(), Ok(&c));
    });
}
