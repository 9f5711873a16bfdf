//! The simulated Windows registry: a case-insensitive hierarchical
//! key/value store.
//!
//! Evasive malware probes the registry for virtual-machine and analysis-tool
//! evidence (Section II-B(e)), and the wear-and-tear evasion of
//! Miramirkhani et al. measures registry "aging" (Table III). Keys are
//! addressed by full backslash-separated paths such as
//! `HKEY_LOCAL_MACHINE\SOFTWARE\Oracle\VirtualBox Guest Additions`.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

use crate::error::NtStatus;
use crate::overlay::Overlay;

/// A registry value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegValue {
    /// `REG_SZ` — a string.
    Sz(String),
    /// `REG_DWORD` — a 32-bit integer.
    Dword(u32),
    /// `REG_QWORD` — a 64-bit integer.
    Qword(u64),
    /// `REG_BINARY` — raw bytes.
    Binary(Vec<u8>),
    /// `REG_MULTI_SZ` — a string list.
    MultiSz(Vec<String>),
}

impl RegValue {
    /// The value as a string, if it is `REG_SZ`.
    pub fn as_sz(&self) -> Option<&str> {
        match self {
            RegValue::Sz(s) => Some(s),
            _ => None,
        }
    }
}

/// One registry key: named values plus implicit children via path prefixes.
#[derive(Debug, Clone, Default)]
struct KeyNode {
    /// Original (display) casing of the full path.
    display: String,
    values: BTreeMap<String, (String, RegValue)>,
}

/// The registry store.
///
/// Lookups are case-insensitive, as on Windows; original casing is preserved
/// for display. Keys form a tree, represented as a flat ordered map from
/// normalized full path to node, which makes subtree queries (subkey counts,
/// enumeration) simple range scans.
///
/// ```
/// use winsim::{RegValue, Registry};
/// let mut r = Registry::new();
/// r.set_value(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions", "Version", RegValue::Sz("5.2".into()));
/// assert!(r.key_exists(r"hklm\software\ORACLE"));
/// assert_eq!(r.subkey_count(r"HKLM\SOFTWARE"), 1);
/// ```
///
/// The key store is a base-plus-overlay map: machine snapshots share one
/// immutable tree behind an `Arc`, so cloning a worn 60,000-key hive is one
/// refcount bump, and a write after a clone goes into a small per-clone
/// delta — setting a value copies that one key node, deleting a key leaves
/// a tombstone. Queries read the merged view.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    keys: Overlay<KeyNode>,
    /// [`Registry::quota_used_bytes`], kept up to date by every write.
    quota: u64,
}

/// Modeled per-key overhead of the hive (cells, security, names).
const KEY_BYTES: u64 = 1024;

/// Modeled hive bytes of one value: name, a fixed cell overhead, payload.
fn value_bytes(name: &str, value: &RegValue) -> u64 {
    let payload = match value {
        RegValue::Sz(s) => s.len() as u64 * 2,
        RegValue::Dword(_) => 4,
        RegValue::Qword(_) => 8,
        RegValue::Binary(b) => b.len() as u64,
        RegValue::MultiSz(l) => l.iter().map(|s| s.len() as u64 * 2 + 2).sum(),
    };
    name.len() as u64 + 64 + payload
}

impl KeyNode {
    /// Modeled hive bytes of the key and its values.
    fn bytes(&self) -> u64 {
        KEY_BYTES + self.values.iter().map(|(name, (_, v))| value_bytes(name, v)).sum::<u64>()
    }
}

/// Normalization is allocation-free when the path is already trimmed and
/// lowercase (the hot dispatch path replays normalized paths constantly).
fn norm(path: &str) -> Cow<'_, str> {
    let trimmed = path.trim_matches('\\');
    if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(trimmed.to_ascii_lowercase())
    } else {
        Cow::Borrowed(trimmed)
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates the key (and all missing ancestors). Idempotent.
    pub fn create_key(&mut self, path: &str) {
        let display = path.trim_matches('\\');
        let n = norm(display);
        // Each key on the path ends just before a backslash (a prefix that
        // itself ends in a backslash names the key before it). Ancestors of
        // a live key are live, so create keys from the full path upwards
        // and stop at the first one that was already there.
        let ends = display
            .match_indices('\\')
            .map(|(i, _)| i)
            .filter(|&i| !display[..i].ends_with('\\'))
            .chain([display.len()]);
        for end in ends.rev() {
            let node = KeyNode { display: display[..end].to_owned(), values: BTreeMap::new() };
            if !self.keys.insert_absent(n[..end].to_owned(), node) {
                break;
            }
            self.quota += KEY_BYTES;
        }
    }

    /// Whether the key exists.
    pub fn key_exists(&self, path: &str) -> bool {
        self.keys.contains_key(&norm(path))
    }

    /// Opens a key, mirroring `RegOpenKeyEx` result codes.
    pub fn open_key(&self, path: &str) -> NtStatus {
        if self.key_exists(path) {
            NtStatus::Success
        } else {
            NtStatus::ObjectNameNotFound
        }
    }

    /// Sets a value under `path` (creating the key if needed).
    pub fn set_value(&mut self, path: &str, name: &str, value: RegValue) {
        let n = norm(path);
        if !self.keys.contains_key(&n) {
            self.create_key(path);
        }
        let node = self.keys.get_mut(&n).expect("key just created");
        self.quota += value_bytes(name, &value);
        if let Some((_, old)) =
            node.values.insert(name.to_ascii_lowercase(), (name.to_owned(), value))
        {
            self.quota -= value_bytes(name, &old);
        }
    }

    /// Reads a value.
    pub fn value(&self, path: &str, name: &str) -> Option<&RegValue> {
        self.keys
            .get(&norm(path))
            .and_then(|k| k.values.get(&name.to_ascii_lowercase()))
            .map(|(_, v)| v)
    }

    /// Deletes a value; returns whether it existed.
    pub fn delete_value(&mut self, path: &str, name: &str) -> bool {
        let Some(old) = self.value(path, name) else {
            return false;
        };
        self.quota -= value_bytes(name, old);
        self.keys
            .get_mut(&norm(path))
            .is_some_and(|k| k.values.remove(&name.to_ascii_lowercase()).is_some())
    }

    /// Deletes a key and its entire subtree; returns number of keys removed.
    pub fn delete_key(&mut self, path: &str) -> usize {
        let n = norm(path).into_owned();
        let prefix = format!("{n}\\");
        let mut freed = 0;
        let doomed: Vec<String> = self
            .keys
            .range_from(&n)
            .take_while(|(k, _)| *k == n || k.starts_with(&prefix))
            .map(|(k, node)| {
                freed += node.bytes();
                k.to_owned()
            })
            .collect();
        for k in &doomed {
            self.keys.remove(k);
        }
        self.quota -= freed;
        doomed.len()
    }

    /// Number of *direct* subkeys of `path` (what `NtQueryKey` reports).
    pub fn subkey_count(&self, path: &str) -> usize {
        self.direct_subkeys(path).count()
    }

    /// Names (leaf components, display casing) of direct subkeys.
    pub fn subkeys(&self, path: &str) -> Vec<String> {
        self.direct_subkeys(path).map(str::to_owned).collect()
    }

    /// The `index`-th entry of [`Registry::subkeys`] (what `RegEnumKeyEx`
    /// returns), without building the list.
    pub fn subkey(&self, path: &str, index: usize) -> Option<&str> {
        self.direct_subkeys(path).nth(index)
    }

    /// Leaf names of the direct subkeys of `path`, each once, in key order:
    /// the display leaf of the child's own node when the child key exists,
    /// otherwise the normalized leaf of the descendant path it is derived
    /// from.
    ///
    /// A child's descendants are contiguous in key order, but a sibling
    /// that extends its name with a character sorting before `\` (`B x`
    /// after `B`) falls between the child and them. Adjacent repeats are
    /// skipped without hashing; a set catches a leaf listed before such a
    /// sibling.
    fn direct_subkeys<'a>(&'a self, path: &str) -> impl Iterator<Item = &'a str> + 'a {
        let prefix = format!("{}\\", norm(path));
        let mut last = None;
        let mut seen = HashSet::new();
        self.keys
            .range_from(&prefix)
            .map_while(move |(k, node)| Some((k.strip_prefix(prefix.as_str())?, node)))
            .filter_map(move |(rest, node)| {
                let leaf = rest.split('\\').next().unwrap_or(rest);
                if last == Some(leaf) {
                    return None;
                }
                last = Some(leaf);
                if !seen.insert(leaf) {
                    return None;
                }
                Some(if rest == leaf {
                    node.display.rsplit('\\').next().unwrap_or("")
                } else {
                    leaf
                })
            })
    }

    /// Number of values stored directly under `path`.
    pub fn value_count(&self, path: &str) -> usize {
        self.keys.get(&norm(path)).map_or(0, |k| k.values.len())
    }

    /// Value names (display casing) under `path`.
    pub fn value_names(&self, path: &str) -> Vec<String> {
        self.keys
            .get(&norm(path))
            .map(|k| k.values.values().map(|(name, _)| name.clone()).collect())
            .unwrap_or_default()
    }

    /// Total number of keys in the registry.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Iterates over every key's display path (used by the resource
    /// crawler to inventory a machine).
    pub fn key_paths(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(|(_, n)| n.display.as_str())
    }

    /// All key paths (normalized) containing `needle` (case-insensitive).
    ///
    /// Supports "there are over 300 references in a registry to VMware"-style
    /// sweeps performed by evasive samples.
    pub fn find_keys_containing(&self, needle: &str) -> Vec<String> {
        let needle = needle.to_ascii_lowercase();
        self.keys
            .iter()
            .filter(|(k, _)| k.contains(&needle))
            .map(|(_, node)| node.display.clone())
            .collect()
    }

    /// Approximate hive size in bytes, for `SystemRegistryQuotaInformation`.
    ///
    /// Modeled as a fixed 1024-byte overhead per key plus, per value, its
    /// name length, 64 bytes, and its payload (two bytes per string
    /// character), calibrated so a years-old end-user hive measures in the
    /// tens of megabytes (larger than the ~53 MB a typical sandbox image
    /// reports) while a pristine image stays small. The count is
    /// maintained by every write, so reading it is O(1).
    pub fn quota_used_bytes(&self) -> u64 {
        self.quota
    }

    /// Whether two registries read from the same shared base.
    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Registry) -> bool {
        self.keys.shares_base(&other.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_key_creates_ancestors() {
        let mut r = Registry::new();
        r.create_key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions");
        assert!(r.key_exists(r"HKLM\SOFTWARE"));
        assert!(r.key_exists(r"hklm\software\oracle"));
        assert_eq!(r.open_key(r"HKLM\SOFTWARE\Oracle"), NtStatus::Success);
    }

    #[test]
    fn create_key_on_an_empty_component_names_each_key_once() {
        let mut r = Registry::new();
        r.create_key(r"\HKLM\\A\B\");
        assert_eq!(r.key_paths().collect::<Vec<_>>(), [r"HKLM", r"HKLM\\A", r"HKLM\\A\B"]);
        r.create_key(r"HKLM\\A\B\C");
        assert_eq!(r.key_count(), 4);
    }

    #[test]
    fn lookup_is_case_insensitive_and_preserves_display() {
        let mut r = Registry::new();
        r.set_value(r"HKLM\Sys\Cfg", "VideoBiosVersion", RegValue::Sz("VIRTUALBOX".into()));
        assert_eq!(
            r.value(r"hklm\SYS\cfg", "videobiosversion").and_then(RegValue::as_sz),
            Some("VIRTUALBOX")
        );
        assert_eq!(r.value_names(r"hklm\sys\cfg"), vec!["VideoBiosVersion".to_owned()]);
    }

    #[test]
    fn missing_key_reports_not_found() {
        let r = Registry::new();
        assert_eq!(
            r.open_key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"),
            NtStatus::ObjectNameNotFound
        );
    }

    #[test]
    fn subkey_count_counts_direct_children_only() {
        let mut r = Registry::new();
        r.create_key(r"HKLM\A\B1\C");
        r.create_key(r"HKLM\A\B2");
        r.create_key(r"HKLM\A\B2\D\E");
        assert_eq!(r.subkey_count(r"HKLM\A"), 2);
        assert_eq!(r.subkeys(r"HKLM\A"), vec!["B1".to_owned(), "B2".to_owned()]);
        assert_eq!(r.subkey_count(r"HKLM\A\B1"), 1);
    }

    #[test]
    fn a_child_is_listed_once_when_a_sibling_extends_its_name() {
        let mut r = Registry::new();
        r.create_key(r"HKLM\A\B");
        r.create_key(r"HKLM\A\B x");
        r.create_key(r"HKLM\A\B\C");
        assert_eq!(r.subkeys(r"HKLM\A"), ["B", "B x"]);
        assert_eq!(r.subkey_count(r"HKLM\A"), 2);
        assert_eq!(r.subkey(r"HKLM\A", 1), Some("B x"));
        assert_eq!(r.subkey(r"HKLM\A", 2), None);
    }

    #[test]
    fn delete_key_removes_subtree() {
        let mut r = Registry::new();
        r.create_key(r"HKLM\A\B\C");
        r.create_key(r"HKLM\AB"); // sibling that shares a prefix string
        let removed = r.delete_key(r"HKLM\A");
        assert_eq!(removed, 3); // A, A\B, A\B\C
        assert!(r.key_exists(r"HKLM\AB"));
        assert!(!r.key_exists(r"HKLM\A"));
    }

    #[test]
    fn find_keys_containing_sweeps_the_hive() {
        let mut r = Registry::new();
        r.create_key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools");
        r.create_key(r"HKLM\SYSTEM\ControlSet001\Services\vmci");
        r.create_key(r"HKLM\SOFTWARE\Microsoft");
        assert_eq!(r.find_keys_containing("vmware").len(), 2);
        assert_eq!(r.find_keys_containing("VMCI").len(), 1);
    }

    #[test]
    fn quota_grows_with_contents() {
        let mut small = Registry::new();
        small.create_key(r"HKLM\A");
        let mut big = small.clone();
        for i in 0..100 {
            big.set_value(r"HKLM\A", &format!("v{i}"), RegValue::Sz("x".repeat(50)));
        }
        assert!(big.quota_used_bytes() > small.quota_used_bytes());
    }

    #[test]
    fn quota_follows_every_write() {
        // 1024 a key; a value is its name length + 64 + its payload
        let mut r = Registry::new();
        r.set_value(r"HKLM\A", "Name", RegValue::Sz("abc".into()));
        assert_eq!(r.quota_used_bytes(), 2 * 1024 + (4 + 64 + 6));
        r.set_value(r"HKLM\A", "NAME", RegValue::Sz("abcdefgh".into()));
        assert_eq!(r.quota_used_bytes(), 2 * 1024 + (4 + 64 + 16), "overwritten by a longer value");
        r.set_value(r"HKLM\A", "name", RegValue::Dword(1));
        assert_eq!(r.quota_used_bytes(), 2 * 1024 + (4 + 64 + 4), "overwritten by a shorter value");
        r.create_key(r"hklm\a");
        assert_eq!(r.quota_used_bytes(), 2 * 1024 + (4 + 64 + 4), "create_key of a live key");
    }

    #[test]
    fn quota_follows_deletes_on_a_snapshot_clone() {
        let mut base = Registry::new();
        base.set_value(r"HKLM\A\B", "v", RegValue::Dword(1));
        base.set_value(r"HKLM\A\B\C", "w", RegValue::Qword(2));
        base.create_key(r"HKLM\D");
        let full = 5 * 1024 + (1 + 64 + 4) + (1 + 64 + 8);
        assert_eq!(base.quota_used_bytes(), full);
        let mut c = base.clone();
        assert!(c.delete_value(r"HKLM\A\B", "V"));
        assert!(!c.delete_value(r"HKLM\A\B", "v"));
        assert_eq!(c.quota_used_bytes(), full - (1 + 64 + 4));
        assert_eq!(c.delete_key(r"HKLM\A"), 3);
        assert_eq!(c.quota_used_bytes(), 2 * 1024, "HKLM and D are left");
        assert_eq!(base.quota_used_bytes(), full, "the base is unchanged");
    }

    #[test]
    fn quota_counts_a_key_recreated_over_a_tombstone() {
        let mut base = Registry::new();
        base.set_value(r"HKLM\A\B", "v", RegValue::Dword(1));
        let mut c = base.clone();
        assert_eq!(c.delete_key(r"HKLM\A"), 2);
        c.create_key(r"HKLM\A\B");
        assert_eq!(c.quota_used_bytes(), 3 * 1024, "recreated without the old value");
        c.set_value(r"HKLM\A\B", "v", RegValue::Sz("xyz".into()));
        assert_eq!(c.quota_used_bytes(), 3 * 1024 + (1 + 64 + 6));
        assert_eq!(base.quota_used_bytes(), 3 * 1024 + (1 + 64 + 4));
    }

    #[test]
    fn norm_borrows_already_normalized_paths() {
        assert!(matches!(norm(r"hklm\software"), Cow::Borrowed(_)));
        assert!(matches!(norm(r"HKLM\Software"), Cow::Owned(_)));
        assert_eq!(norm(r"\HKLM\Software\"), norm(r"hklm\software"));
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut a = Registry::new();
        a.set_value(r"HKLM\A\B", "v", RegValue::Dword(1));
        a.set_value(r"HKLM\A\B", "w", RegValue::Dword(2));
        a.create_key(r"HKLM\C\D");
        let b = a.clone();
        assert!(a.keys.shares_base(&b.keys), "clone is a refcount bump");
        let mut c = b.clone();
        c.create_key(r"HKLM\E");
        c.set_value(r"HKLM\A\B", "v", RegValue::Dword(7));
        assert!(c.delete_value(r"HKLM\A\B", "w"));
        assert_eq!(c.delete_key(r"HKLM\C"), 2);
        assert!(b.keys.shares_base(&c.keys), "writes after a clone land in the delta");
        // E, the copied A\B node, and tombstones over C and C\D
        assert_eq!(c.keys.delta_len(), 4);
        assert!(c.key_exists(r"HKLM\E") && !c.key_exists(r"HKLM\C\D"));
        assert_eq!(c.value(r"HKLM\A\B", "v"), Some(&RegValue::Dword(7)));
        assert_eq!(c.value_names(r"HKLM\A\B"), ["v"]);
        assert_eq!(c.key_count(), 4);
        // the original is unchanged
        assert!(!b.key_exists(r"HKLM\E"));
        assert!(b.key_exists(r"HKLM\C\D"));
        assert_eq!(b.value(r"HKLM\A\B", "v"), Some(&RegValue::Dword(1)));
        assert_eq!(b.value_names(r"HKLM\A\B"), ["v", "w"]);
        assert_eq!(b.key_count(), 5);
    }

    #[test]
    fn value_deletion() {
        let mut r = Registry::new();
        r.set_value(r"HKLM\K", "n", RegValue::Dword(1));
        assert!(r.delete_value(r"HKLM\K", "N"));
        assert!(!r.delete_value(r"HKLM\K", "n"));
        assert_eq!(r.value_count(r"HKLM\K"), 0);
    }
}
