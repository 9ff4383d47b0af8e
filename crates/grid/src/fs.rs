//! Remote site scratch filesystem.
//!
//! Each simulated resource has a scratch tree where the pre-job script
//! builds the model runtime directory, GridFTP stages files in/out, and
//! the cleanup stage removes the execution environment (§4.3). A byte
//! quota models the "small disk space available on Lonestar" (§2).

use crate::error::GridError;
use std::collections::BTreeMap;

/// First bytes of a results tar ([`SiteFs::tar`]).
const TAR_MAGIC: &[u8] = b"AMPTAR\x01\n";

/// An in-memory file tree keyed by absolute-ish string paths
/// (`scratch/sim42/run1/input.txt`). Directories are implicit.
#[derive(Debug, Clone, Default)]
pub struct SiteFs {
    site: String,
    files: BTreeMap<String, Vec<u8>>,
    quota_bytes: u64,
    /// Sum of the files' lengths, kept by every call that changes `files`.
    used_bytes: u64,
}

impl SiteFs {
    pub fn new(site: &str, quota_bytes: u64) -> Self {
        SiteFs {
            site: site.to_string(),
            files: BTreeMap::new(),
            quota_bytes,
            used_bytes: 0,
        }
    }

    pub fn used_bytes(&self) -> u64 {
        let sum = || self.files.values().map(|v| v.len() as u64).sum::<u64>();
        debug_assert_eq!(self.used_bytes, sum(), "running total out of step");
        self.used_bytes
    }

    pub fn free_bytes(&self) -> u64 {
        self.quota_bytes.saturating_sub(self.used_bytes())
    }

    /// Write (or overwrite) a file, enforcing the quota.
    pub fn write(&mut self, path: &str, data: Vec<u8>) -> Result<(), GridError> {
        let path = normalize(path);
        let existing = self.files.get(&path).map_or(0, |v| v.len() as u64);
        let needed = data.len() as u64;
        if self.used_bytes - existing + needed > self.quota_bytes {
            return Err(GridError::DiskQuotaExceeded {
                site: self.site.clone(),
                need: needed,
                free: self.free_bytes() + existing,
            });
        }
        self.used_bytes = self.used_bytes - existing + needed;
        self.files.insert(path, data);
        Ok(())
    }

    pub fn read(&self, path: &str) -> Result<&[u8], GridError> {
        self.files
            .get(&normalize(path))
            .map(|v| v.as_slice())
            .ok_or_else(|| GridError::NoSuchFile {
                site: self.site.clone(),
                path: path.to_string(),
            })
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(&normalize(path))
    }

    pub fn remove(&mut self, path: &str) -> Result<(), GridError> {
        let gone = self.files.remove(&normalize(path));
        let gone = gone.ok_or_else(|| GridError::NoSuchFile {
            site: self.site.clone(),
            path: path.to_string(),
        })?;
        self.used_bytes -= gone.len() as u64;
        Ok(())
    }

    /// Remove every file under a prefix (the cleanup stage's `rm -rf`).
    /// Returns how many files were removed.
    pub fn remove_tree(&mut self, prefix: &str) -> usize {
        let prefix = dir_prefix(prefix);
        let doomed: Vec<String> = self
            .files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in &doomed {
            let gone = self.files.remove(k).expect("listed above");
            self.used_bytes -= gone.len() as u64;
        }
        doomed.len()
    }

    /// Paths under a prefix (the post-job `tar` collecting outputs).
    pub fn list_tree(&self, prefix: &str) -> Vec<String> {
        let prefix = dir_prefix(prefix);
        self.files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect()
    }

    /// Bundle files into one (the post-job stage "uses tar to consolidate
    /// output and log files into a single file", §4.3). Format:
    /// `TAR_MAGIC`, then per entry `[u32 path length][u32 data length]`
    /// (little-endian) followed by the path and the data, verbatim.
    pub fn tar<'a>(entries: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> Vec<u8> {
        let mut out = TAR_MAGIC.to_vec();
        let len = |n: usize| u32::try_from(n).expect("a tar entry is under 4 GiB");
        for (path, data) in entries {
            out.extend_from_slice(&len(path.len()).to_le_bytes());
            out.extend_from_slice(&len(data.len()).to_le_bytes());
            out.extend_from_slice(path.as_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// Unpack a file produced by [`SiteFs::tar`] into `(path, data)`
    /// entries borrowed from it. Anything but a whole, well-formed tar is
    /// an error: nothing is skipped and nothing is cut short.
    pub fn untar(tar: &[u8]) -> Result<Vec<(&str, &[u8])>, GridError> {
        let bad = |what: String| GridError::BadJobSpec(format!("tar decode: {what}"));
        let mut rest = tar
            .strip_prefix(TAR_MAGIC)
            .ok_or_else(|| bad("not a results tar (bad magic)".into()))?;
        let mut entries = Vec::new();
        while !rest.is_empty() {
            let at = tar.len() - rest.len();
            let Some((header, body)) = rest.split_first_chunk::<8>() else {
                return Err(bad(format!("entry header cut short at byte {at}")));
            };
            let len = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
            let (path_len, data_len) = (len(&header[..4]), len(&header[4..]));
            if body.len() < path_len || body.len() - path_len < data_len {
                return Err(bad(format!(
                    "entry at byte {at} runs past the end of the file"
                )));
            }
            let (path, body) = body.split_at(path_len);
            let (data, body) = body.split_at(data_len);
            let path = std::str::from_utf8(path)
                .map_err(|_| bad(format!("path of the entry at byte {at} is not UTF-8")))?;
            entries.push((path, data));
            rest = body;
        }
        Ok(entries)
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

fn normalize(path: &str) -> String {
    path.trim_matches('/').to_string()
}

fn dir_prefix(prefix: &str) -> String {
    let p = prefix.trim_matches('/');
    if p.is_empty() {
        String::new()
    } else {
        format!("{p}/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SiteFs {
        SiteFs::new("kraken", 1000)
    }

    #[test]
    fn write_read_remove() {
        let mut f = fs();
        f.write("a/b.txt", b"hello".to_vec()).unwrap();
        assert_eq!(f.read("a/b.txt").unwrap(), b"hello");
        assert_eq!(f.read("/a/b.txt").unwrap(), b"hello");
        assert!(f.exists("a/b.txt"));
        f.remove("a/b.txt").unwrap();
        assert!(!f.exists("a/b.txt"));
        assert!(matches!(
            f.read("a/b.txt"),
            Err(GridError::NoSuchFile { .. })
        ));
    }

    #[test]
    fn quota_enforced_and_overwrite_reuses_space() {
        let mut f = fs();
        f.write("big", vec![0u8; 900]).unwrap();
        assert!(matches!(
            f.write("more", vec![0u8; 200]),
            Err(GridError::DiskQuotaExceeded { .. })
        ));
        // overwriting the same file within quota is fine
        f.write("big", vec![0u8; 950]).unwrap();
        assert_eq!(f.used_bytes(), 950);
        assert_eq!(f.free_bytes(), 50);
    }

    /// A path is one file however it is spelled: overwriting through a
    /// leading slash frees the old bytes once, not twice.
    #[test]
    fn overwrite_through_a_leading_slash_at_the_quota_succeeds() {
        let mut f = fs();
        f.write("a/b", vec![0u8; 999]).unwrap();
        f.write("/a/b", vec![1u8; 999]).unwrap();
        f.write("/a/b/", vec![2u8; 1000]).unwrap();
        assert_eq!(
            (f.file_count(), f.used_bytes(), f.free_bytes()),
            (1, 1000, 0)
        );
        assert!(matches!(
            f.write("a/b", vec![0u8; 1001]),
            Err(GridError::DiskQuotaExceeded { free: 1000, .. })
        ));
    }

    #[test]
    fn the_running_total_is_the_sum_of_the_files() {
        let mut f = fs();
        let sum = |f: &SiteFs| f.files.values().map(|v| v.len() as u64).sum::<u64>();
        f.write("run1/in", vec![0; 100]).unwrap();
        f.write("run1/out/a", vec![0; 200]).unwrap();
        f.write("/run1/in", vec![0; 30]).unwrap(); // shrinks
        f.write("run2/in", vec![0; 300]).unwrap();
        f.write("run2/in/", vec![0; 310]).unwrap(); // grows
        assert!(f.write("run3/in", vec![0; 500]).is_err()); // refused: no change
        assert_eq!((f.used_bytes, sum(&f)), (540, 540));
        f.remove("/run2/in").unwrap();
        assert!(f.remove("run2/in").is_err());
        assert_eq!((f.used_bytes, sum(&f)), (230, 230));
        assert_eq!(f.remove_tree("run1"), 2);
        assert_eq!((f.used_bytes, sum(&f), f.free_bytes()), (0, 0, 1000));
    }

    #[test]
    fn tree_operations() {
        let mut f = fs();
        f.write("run1/in.txt", b"x".to_vec()).unwrap();
        f.write("run1/out/a.log", b"y".to_vec()).unwrap();
        f.write("run2/in.txt", b"z".to_vec()).unwrap();
        assert_eq!(f.list_tree("run1").len(), 2);
        assert_eq!(f.remove_tree("run1"), 2);
        assert_eq!(f.file_count(), 1);
        // prefix matching is path-component safe
        f.write("run22/in.txt", b"w".to_vec()).unwrap();
        assert_eq!(f.list_tree("run2").len(), 1);
    }

    #[test]
    fn tar_roundtrip() {
        let mut f = SiteFs::new("kraken", 10_000);
        f.write("run/out.dat", b"result".to_vec()).unwrap();
        f.write("run/model.log", b"log".to_vec()).unwrap();
        f.write("run/empty", Vec::new()).unwrap();
        let paths = f.list_tree("run");
        let tar = SiteFs::tar(paths.iter().map(|p| (p.as_str(), f.read(p).unwrap())));
        assert_eq!(
            SiteFs::untar(&tar).unwrap(),
            vec![
                ("run/empty", &b""[..]),
                ("run/model.log", &b"log"[..]),
                ("run/out.dat", &b"result"[..]),
            ]
        );
        // A tar of nothing is the magic alone and unpacks to nothing.
        let none = SiteFs::tar([]);
        assert_eq!(none, TAR_MAGIC);
        assert_eq!(SiteFs::untar(&none).unwrap(), vec![]);
    }

    fn untar_error(tar: &[u8]) -> String {
        match SiteFs::untar(tar) {
            Err(GridError::BadJobSpec(msg)) => msg,
            other => panic!("expected a tar decode error, got {other:?}"),
        }
    }

    #[test]
    fn untar_rejects_garbage() {
        assert!(untar_error(b"definitely not a tar").contains("tar decode: not a results tar"));
        assert!(untar_error(b"").contains("bad magic"));
        // The JSON array of numbers this format replaced.
        assert!(untar_error(b"[[\"a\",[1,2]]]").contains("bad magic"));
    }

    #[test]
    fn untar_rejects_a_damaged_tar_instead_of_cutting_it_short() {
        let tar = SiteFs::tar([("a/b", &b"xyz"[..]), ("c", &b"0123456789"[..])]);
        let second = TAR_MAGIC.len() + 8 + 3 + 3;
        // A header shorter than 8 bytes, whichever entry it belongs to.
        for cut in [TAR_MAGIC.len() + 1, second + 7] {
            assert!(
                untar_error(&tar[..cut]).contains("header cut short"),
                "cut at {cut}"
            );
        }
        // A length running past the end: data cut, then path cut, then a
        // length field that cannot be added to the other without overflow.
        assert!(untar_error(&tar[..tar.len() - 1]).contains("runs past the end"));
        assert!(untar_error(&tar[..TAR_MAGIC.len() + 9]).contains("runs past the end"));
        let mut huge = tar.clone();
        huge[second..second + 8].fill(0xFF);
        assert!(untar_error(&huge).contains(&format!("entry at byte {second} runs past")));
        // A path that is not UTF-8.
        let mut bad_path = tar.clone();
        bad_path[TAR_MAGIC.len() + 8] = 0xFF;
        assert!(untar_error(&bad_path).contains("not UTF-8"));
        // Every whole-entry prefix is itself a tar; no other prefix is.
        for cut in 0..tar.len() {
            let whole = cut == TAR_MAGIC.len() || cut == second;
            assert_eq!(SiteFs::untar(&tar[..cut]).is_ok(), whole, "cut at {cut}");
        }
    }
}
