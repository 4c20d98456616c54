//! A directory-backed functional object store (one file per object).

use std::fs::{self, File};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::{check_range, ObjError, ObjectStore, Result};

/// An object store that persists each object as a file in a host directory,
/// so example programs survive process restarts like a real S3 bucket.
///
/// Object names are used directly as file names; LSVD object names contain
/// only `[A-Za-z0-9._-]`, which is filesystem-safe. PUT writes to a
/// temporary file and renames, so a process crash mid-PUT never leaves a
/// partial object visible — matching S3's atomic-PUT semantics. Neither
/// the file nor the directory is synced, so that holds across a process
/// crash but not across a power cut.
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self> {
        fs::create_dir_all(&root)?;
        Ok(DirStore {
            root: root.as_ref().to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

/// Maps a missing file to [`ObjError::NotFound`].
fn io_error(name: &str, e: io::Error) -> ObjError {
    if e.kind() == io::ErrorKind::NotFound {
        ObjError::NotFound(name.to_string())
    } else {
        e.into()
    }
}

impl ObjectStore for DirStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let tmp = self.root.join(format!(".tmp.{name}"));
        fs::write(&tmp, &data)?;
        fs::rename(&tmp, self.path(name))?;
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        fs::read(self.path(name))
            .map(Bytes::from)
            .map_err(|e| io_error(name, e))
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        // Read only the range: a header fetch or a 4 KiB read miss must not
        // read a whole multi-megabyte object. The open file stays the same
        // object even if a PUT renames a new one over its name.
        let file = File::open(self.path(name)).map_err(|e| io_error(name, e))?;
        check_range(name, offset, len, file.metadata()?.len())?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact_at(&mut buf, offset)?;
        Ok(Bytes::from(buf))
    }

    fn head(&self, name: &str) -> Result<u64> {
        fs::metadata(self.path(name))
            .map(|m| m.len())
            .map_err(|e| io_error(name, e))
    }

    fn delete(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.starts_with(prefix) && !name.starts_with(".tmp.") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    fn tmpdir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("objstore-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn dir_store_round_trip_and_persistence() {
        let root = tmpdir("rt");
        {
            let s = DirStore::open(&root).unwrap();
            s.put("vol.001", Bytes::from_static(b"data1")).unwrap();
            s.put("vol.002", Bytes::from_static(b"data22")).unwrap();
        }
        let s = DirStore::open(&root).unwrap();
        assert_eq!(s.get("vol.001").unwrap().as_ref(), b"data1");
        assert_eq!(s.head("vol.002").unwrap(), 6);
        assert_eq!(s.list("vol.").unwrap(), vec!["vol.001", "vol.002"]);
        assert_eq!(s.get_range("vol.002", 4, 2).unwrap().as_ref(), b"22");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_store_missing_and_delete() {
        let root = tmpdir("md");
        let s = DirStore::open(&root).unwrap();
        assert!(matches!(s.get("x"), Err(ObjError::NotFound(_))));
        s.delete("x").unwrap(); // idempotent
        s.put("x", Bytes::from_static(b"1")).unwrap();
        s.delete("x").unwrap();
        assert!(!s.exists("x").unwrap());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_store_get_range_checks_the_file_length() {
        let root = tmpdir("range");
        let s = DirStore::open(&root).unwrap();
        s.put("obj", Bytes::from((0..=255u8).collect::<Vec<_>>()))
            .unwrap();
        assert_eq!(s.get_range("obj", 10, 3).unwrap().as_ref(), &[10, 11, 12]);
        assert_eq!(
            s.get_range("obj", 250, 6).unwrap().len(),
            6,
            "up to the end"
        );
        match s.get_range("obj", 250, 7) {
            Err(ObjError::BadRange { size, .. }) => assert_eq!(size, 256),
            other => panic!("read past the end: {other:?}"),
        }
        assert!(matches!(
            s.get_range("obj", u64::MAX, 2),
            Err(ObjError::BadRange { .. })
        ));
        assert!(matches!(
            s.get_range("missing", 0, 1),
            Err(ObjError::NotFound(_))
        ));
        assert!(matches!(s.head("missing"), Err(ObjError::NotFound(_))));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_store_range_reads_complete_while_another_thread_puts() {
        // A PUT writes a temporary file and renames it over the object, so
        // a concurrent ranged read sees the old object or the new one, whole.
        let root = tmpdir("concurrent");
        let s = DirStore::open(&root).unwrap();
        s.put("obj", Bytes::from(vec![0u8; 64 << 10])).unwrap();
        let puts = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                while !stop.load(Relaxed) {
                    let n = puts.fetch_add(1, Relaxed) + 1;
                    s.put("obj", Bytes::from(vec![n as u8; 64 << 10])).unwrap();
                }
            });
            while puts.load(Relaxed) < 20 {
                let got = s.get_range("obj", 4096, 4096).unwrap();
                assert!(got.iter().all(|&b| b == got[0]), "torn range read");
            }
            stop.store(true, Relaxed);
        });
        fs::remove_dir_all(&root).unwrap();
    }
}
