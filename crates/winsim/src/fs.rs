//! The simulated filesystem: drives with capacities and a flat
//! case-insensitive path → file map with implicit directories.
//!
//! Evasive malware checks for analysis-environment driver files such as
//! `vmmouse.sys` (Section II-B(a)), and the "Hardware resources" deception
//! fakes a small disk (50 GB, Section II-B). Ransomware payloads encrypt
//! user files here, which the tracer observes as writes and renames.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::error::NtStatus;
use crate::overlay::Overlay;

/// Capacity information for one drive letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveInfo {
    /// Total size in bytes.
    pub total_bytes: u64,
    /// Free space in bytes.
    pub free_bytes: u64,
}

impl DriveInfo {
    /// Convenience constructor from gigabytes.
    pub fn gb(total: u64, free: u64) -> Self {
        DriveInfo { total_bytes: total << 30, free_bytes: free << 30 }
    }
}

/// One file's metadata and (symbolic) contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNode {
    /// Display-cased absolute path.
    pub path: String,
    /// Size in bytes.
    pub size: u64,
    /// Whether the contents have been encrypted by a ransomware payload.
    pub encrypted: bool,
    /// Symbolic content tag (e.g. `"user-document"`, `"vm-driver"`).
    pub tag: String,
}

/// The filesystem store.
///
/// ```
/// use winsim::{DriveInfo, FileSystem};
/// let mut fs = FileSystem::new();
/// fs.set_drive('C', DriveInfo::gb(50, 21));
/// fs.create(r"C:\Users\u\Documents\report.docx", 4096, "user-document");
/// assert!(fs.exists(r"c:\users\u\documents\REPORT.DOCX"));
/// assert!(fs.rename(r"C:\Users\u\Documents\report.docx",
///                   r"C:\Users\u\Documents\report.docx.WCRY"));
/// ```
///
/// The file map is a base-plus-overlay map: machine snapshots share one
/// immutable base behind an `Arc`, so a clone costs O(1), and a write after
/// a clone goes into a small per-clone delta — encrypting a preset file
/// copies that one node, deleting or renaming it away leaves a tombstone.
/// Queries read the merged view.
#[derive(Debug, Clone, Default)]
pub struct FileSystem {
    files: Overlay<FileNode>,
    drives: BTreeMap<char, DriveInfo>,
}

/// Allocation-free for paths that are already backslashed and lowercase.
fn norm(path: &str) -> Cow<'_, str> {
    let trimmed = path.trim_end_matches('\\');
    if trimmed.bytes().any(|b| b == b'/' || b.is_ascii_uppercase()) {
        let replaced = trimmed.replace('/', "\\");
        Cow::Owned(replaced.trim_end_matches('\\').to_ascii_lowercase())
    } else {
        Cow::Borrowed(trimmed)
    }
}

impl FileSystem {
    /// Creates an empty filesystem with no drives.
    pub fn new() -> Self {
        FileSystem::default()
    }

    /// Defines (or replaces) a drive.
    pub fn set_drive(&mut self, letter: char, info: DriveInfo) {
        self.drives.insert(letter.to_ascii_uppercase(), info);
    }

    /// Capacity of a drive, if defined.
    pub fn drive(&self, letter: char) -> Option<DriveInfo> {
        self.drives.get(&letter.to_ascii_uppercase()).copied()
    }

    /// Creates a file with a tag; overwrites any existing node.
    pub fn create(&mut self, path: &str, size: u64, tag: &str) {
        self.files.insert(
            norm(path).into_owned(),
            FileNode { path: path.to_owned(), size, encrypted: false, tag: tag.to_owned() },
        );
    }

    /// Whether the path names an existing file.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(&norm(path))
    }

    /// Whether the path names an existing directory (a prefix of any file).
    pub fn dir_exists(&self, path: &str) -> bool {
        let n = norm(path);
        let prefix = format!("{n}\\");
        self.files.range_from(&prefix).next().is_some_and(|(k, _)| k.starts_with(&prefix))
    }

    /// `NtQueryAttributesFile` result for a path.
    pub fn query_attributes(&self, path: &str) -> NtStatus {
        if self.exists(path) || self.dir_exists(path) {
            NtStatus::Success
        } else {
            NtStatus::ObjectNameNotFound
        }
    }

    /// File metadata, if present.
    pub fn node(&self, path: &str) -> Option<&FileNode> {
        self.files.get(&norm(path))
    }

    /// Appends `bytes` to a file, creating it if needed. Returns new size.
    pub fn write(&mut self, path: &str, bytes: u64) -> u64 {
        let n = norm(path);
        if let Some(node) = self.files.get_mut(&n) {
            node.size += bytes;
            return node.size;
        }
        let node =
            FileNode { path: path.to_owned(), size: bytes, encrypted: false, tag: String::new() };
        self.files.insert(n.into_owned(), node);
        bytes
    }

    /// Marks a file's contents as encrypted (ransomware payloads).
    ///
    /// Returns `false` if the file does not exist.
    pub fn encrypt(&mut self, path: &str) -> bool {
        match self.files.get_mut(&norm(path)) {
            Some(node) => {
                node.encrypted = true;
                true
            }
            None => false,
        }
    }

    /// Deletes a file; returns whether it existed.
    pub fn delete(&mut self, path: &str) -> bool {
        self.files.remove(&norm(path))
    }

    /// Renames a file; returns whether the source existed.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        let from = norm(from);
        let Some(node) = self.files.get(&from) else {
            return false;
        };
        let node = FileNode { path: to.to_owned(), ..node.clone() };
        self.files.remove(&from);
        self.files.insert(norm(to).into_owned(), node);
        true
    }

    /// Files directly or transitively under a directory path.
    pub fn list_dir(&self, dir: &str) -> Vec<&FileNode> {
        let n = norm(dir);
        let prefix = format!("{n}\\");
        self.files
            .range_from(&prefix)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .collect()
    }

    /// All files whose tag equals `tag`.
    pub fn files_tagged<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a FileNode> {
        self.iter().filter(move |f| f.tag == tag)
    }

    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Iterates over every file node.
    pub fn iter(&self) -> impl Iterator<Item = &FileNode> {
        self.files.iter().map(|(_, f)| f)
    }

    /// Whether two filesystems read from the same shared base.
    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &FileSystem) -> bool {
        self.files.shares_base(&other.files)
    }
}

/// A `FindFirstFile` wildcard pattern, matched ASCII case-insensitively
/// with `/` read as `\`. Every `*` matches any run of characters, path
/// separators included; the literal pieces between the stars must appear
/// in order without overlapping, and a pattern without a `*` matches only
/// itself.
///
/// ```
/// use winsim::Glob;
/// let docs = Glob::new(r"C:\Users\*Documents*");
/// assert!(docs.matches(r"C:\Users\john\Documents\report.docx"));
/// assert!(!docs.matches(r"C:\Users\john\Desktop\notes.txt"));
/// assert!(!Glob::new("a*a").matches("a"));
/// ```
#[derive(Debug, Clone)]
pub struct Glob {
    /// The pattern split at each `*` (one piece more than there are
    /// stars).
    pieces: Vec<String>,
}

impl Glob {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Self {
        let pattern = pattern.replace('/', "\\");
        Glob { pieces: pattern.split('*').map(str::to_owned).collect() }
    }

    /// Whether `path` matches the pattern.
    pub fn matches(&self, path: &str) -> bool {
        let (first, rest) = self.pieces.split_first().expect("split yields a piece");
        let path = path.as_bytes();
        if path.len() < first.len() || !path[..first.len()].eq_ignore_ascii_case(first.as_bytes()) {
            return false;
        }
        let mut tail = &path[first.len()..];
        let Some((last, middle)) = rest.split_last() else {
            return tail.is_empty();
        };
        for piece in middle.iter().filter(|p| !p.is_empty()) {
            let Some(at) =
                tail.windows(piece.len()).position(|w| w.eq_ignore_ascii_case(piece.as_bytes()))
            else {
                return false;
            };
            tail = &tail[at + piece.len()..];
        }
        tail.len() >= last.len()
            && tail[tail.len() - last.len()..].eq_ignore_ascii_case(last.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matches_every_star_without_overlap() {
        let g = Glob::new(r"C:\Users\*Documents*");
        assert!(g.matches(r"c:\users\john\DOCUMENTS\a.docx"));
        assert!(g.matches(r"C:\Users\Documents"));
        assert!(!g.matches(r"C:\Users\john\Desktop\a.docx"));
        let g = Glob::new("a*b*c");
        assert!(g.matches("abc") && g.matches("a-b-b-c") && g.matches("acbc"));
        assert!(!g.matches("acb") && !g.matches("ab"));
        // prefix and suffix may not share characters
        assert!(!Glob::new("ab*ba").matches("aba"));
        assert!(Glob::new("ab*ba").matches("abba"));
        // no star: the whole path; empty pieces (`**`) match nothing extra
        assert!(Glob::new(r"C:\a.sys").matches(r"c:\A.SYS"));
        assert!(!Glob::new(r"C:\a.sys").matches(r"C:\a.sys.bak"));
        assert!(Glob::new("**").matches("") && Glob::new("C:/x**").matches(r"C:\x\y"));
    }

    #[test]
    fn drive_capacities() {
        let mut fs = FileSystem::new();
        fs.set_drive('c', DriveInfo::gb(50, 20));
        let d = fs.drive('C').unwrap();
        assert_eq!(d.total_bytes, 50 << 30);
        assert_eq!(d.free_bytes, 20 << 30);
        assert!(fs.drive('D').is_none());
    }

    #[test]
    fn exists_is_case_insensitive_and_slash_tolerant() {
        let mut fs = FileSystem::new();
        fs.create(r"C:\Windows\System32\drivers\vmmouse.sys", 8192, "vm-driver");
        assert!(fs.exists(r"c:\windows\system32\DRIVERS\VMMOUSE.SYS"));
        assert!(fs.exists("C:/Windows/System32/drivers/vmmouse.sys"));
        assert!(!fs.exists(r"C:\vmmouse.sys"));
    }

    #[test]
    fn dir_existence_is_implicit() {
        let mut fs = FileSystem::new();
        fs.create(r"C:\analysis\sample\a.bin", 1, "t");
        assert!(fs.dir_exists(r"C:\analysis"));
        assert!(fs.dir_exists(r"C:\analysis\sample"));
        assert!(!fs.dir_exists(r"C:\analysis\other"));
        assert_eq!(fs.query_attributes(r"C:\analysis"), NtStatus::Success);
        assert_eq!(fs.query_attributes(r"C:\nope"), NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn write_creates_and_grows() {
        let mut fs = FileSystem::new();
        assert_eq!(fs.write(r"C:\t.log", 10), 10);
        assert_eq!(fs.write(r"C:\t.log", 5), 15);
    }

    #[test]
    fn rename_and_encrypt_model_ransomware() {
        let mut fs = FileSystem::new();
        fs.create(r"C:\Users\u\doc.xls", 100, "user-document");
        assert!(fs.encrypt(r"C:\Users\u\doc.xls"));
        assert!(fs.rename(r"C:\Users\u\doc.xls", r"C:\Users\u\doc.xls.WCRY"));
        let node = fs.node(r"C:\Users\u\doc.xls.WCRY").unwrap();
        assert!(node.encrypted);
        assert!(!fs.exists(r"C:\Users\u\doc.xls"));
        assert!(!fs.encrypt(r"C:\missing"));
    }

    #[test]
    fn list_dir_scopes_to_subtree() {
        let mut fs = FileSystem::new();
        fs.create(r"C:\a\1.txt", 1, "t");
        fs.create(r"C:\a\b\2.txt", 1, "t");
        fs.create(r"C:\ab\3.txt", 1, "t");
        assert_eq!(fs.list_dir(r"C:\a").len(), 2);
        assert_eq!(fs.list_dir(r"C:\ab").len(), 1);
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut a = FileSystem::new();
        a.create(r"C:\Users\u\doc.xls", 100, "user-document");
        a.create(r"C:\Users\u\notes.txt", 10, "user-document");
        a.create(r"C:\Users\u\old.log", 1, "log");
        let b = a.clone();
        assert!(a.files.shares_base(&b.files), "clone is a refcount bump");
        let mut c = b.clone();
        assert!(c.encrypt(r"C:\Users\u\notes.txt"));
        assert!(c.rename(r"C:\Users\u\doc.xls", r"C:\Users\u\doc.xls.WCRY"));
        assert!(c.delete(r"C:\Users\u\old.log"));
        assert!(b.files.shares_base(&c.files), "writes after a clone land in the delta");
        // the encrypted copy, the renamed node, and tombstones over the
        // rename source and the deleted file
        assert_eq!(c.files.delta_len(), 4);
        let paths: Vec<&str> = c.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, [r"C:\Users\u\doc.xls.WCRY", r"C:\Users\u\notes.txt"]);
        assert!(c.node(r"C:\Users\u\notes.txt").unwrap().encrypted);
        assert_eq!(c.file_count(), 2);
        // the original is unchanged
        let paths: Vec<&str> = b.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, [r"C:\Users\u\doc.xls", r"C:\Users\u\notes.txt", r"C:\Users\u\old.log"]);
        assert!(b.iter().all(|f| !f.encrypted));
        assert_eq!(b.file_count(), 3);
    }

    #[test]
    fn tagged_iteration() {
        let mut fs = FileSystem::new();
        fs.create(r"C:\u\a.doc", 1, "user-document");
        fs.create(r"C:\w\d.sys", 1, "driver");
        assert_eq!(fs.files_tagged("user-document").count(), 1);
    }
}
