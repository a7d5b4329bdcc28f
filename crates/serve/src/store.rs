//! Pluggable persistence for serialized shard models.
//!
//! A [`ModelStore`] keeps [`ModelSnapshot`]s keyed by [`ShardKey`] — the
//! durable tier below the resident [`crate::ModelCatalog`]. Two backends
//! ship:
//!
//! - [`MemStore`] — an in-process map; the default catalog backing and
//!   the test double.
//! - [`FsStore`] — one checksummed file per shard under a site
//!   directory, written atomically (temp file + rename) so a crashed
//!   writer can never leave a half-written snapshot where a reader finds
//!   it. Corrupt, truncated or tampered files read back as the typed
//!   [`ServeError::BadSnapshot`], never a panic.
//!
//! Stores take `&self` (interior mutability) and are `Send + Sync`, so a
//! single store can back a catalog while shard workers fault models in
//! and out concurrently ([`crate::BatchServer::start`]) and an
//! operator thread lists or evicts at the same time.
//!
//! # Examples
//!
//! Both backends speak the same four-verb protocol; [`MemStore`] is the
//! in-process reference implementation:
//!
//! ```
//! use noble::ModelSnapshot;
//! use noble_serve::{MemStore, ModelStore, ShardKey};
//!
//! let store = MemStore::new();
//! let key = ShardKey::building_floor(2, 1);
//! let snapshot = ModelSnapshot::new("example-kind", 8, 3, vec![1, 2, 3]);
//!
//! assert!(store.get(key)?.is_none());
//! store.put(key, &snapshot)?;
//! assert_eq!(store.get(key)?.as_ref(), Some(&snapshot));
//! assert_eq!(store.list()?, vec![key]);
//! assert!(store.evict(key)?);
//! # Ok::<(), noble_serve::ServeError>(())
//! ```
//!
//! [`FsStore`] persists the same protocol as one checksummed file per
//! shard, surviving process restarts:
//!
//! ```
//! use noble::ModelSnapshot;
//! use noble_serve::{FsStore, ModelStore, ShardKey};
//!
//! let dir = std::env::temp_dir().join(format!("noble-fs-doc-{}", std::process::id()));
//! let key = ShardKey::building(4);
//! let snapshot = ModelSnapshot::new("example-kind", 16, 5, vec![9, 9]);
//! {
//!     let store = FsStore::open(&dir)?;
//!     store.put(key, &snapshot)?;
//! } // handle dropped — a "process restart"
//! let reopened = FsStore::open(&dir)?;
//! assert_eq!(reopened.get(key)?.as_ref(), Some(&snapshot));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), noble_serve::ServeError>(())
//! ```

use crate::sync::relock;
use crate::{ServeError, ShardKey};
use noble::ModelSnapshot;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Keyed durable storage of model snapshots.
///
/// `Send + Sync` because one store is shared by every shard worker of a
/// demand-paged [`crate::BatchServer`]: spin-downs write through and
/// faults read back concurrently, without a catalog-wide lock.
pub trait ModelStore: Send + Sync {
    /// Inserts or replaces the snapshot stored for `key`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on backend I/O failure.
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError>;

    /// Fetches the snapshot stored for `key`, `None` when absent.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSnapshot`] when the stored bytes fail validation,
    /// [`ServeError::Store`] on backend I/O failure.
    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError>;

    /// Keys with a stored snapshot, in sorted order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on backend I/O failure.
    fn list(&self) -> Result<Vec<ShardKey>, ServeError>;

    /// Removes the snapshot stored for `key`; returns whether one
    /// existed. Archived versions ([`ModelStore::put_version`]) are not
    /// touched — only the active slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on backend I/O failure.
    fn evict(&self, key: ShardKey) -> Result<bool, ServeError>;

    /// Archives `snapshot` as the immutable bytes of `(key, version)`,
    /// separate from the active slot that [`ModelStore::put`] writes.
    /// The online-refresh contract archives every version *before*
    /// activating it, so `rollback` can always restore prior bytes
    /// bit-identically. Re-archiving an existing `(key, version)`
    /// replaces it (the refresher never does; versions are immutable
    /// once activated).
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on backend I/O failure.
    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError>;

    /// Fetches the archived snapshot of `(key, version)`, `None` when
    /// that version was never archived.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSnapshot`] when the stored bytes fail validation,
    /// [`ServeError::Store`] on backend I/O failure.
    fn get_version(&self, key: ShardKey, version: u64)
        -> Result<Option<ModelSnapshot>, ServeError>;

    /// Archived version numbers for `key`, ascending.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on backend I/O failure.
    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError>;
}

/// In-memory snapshot store.
#[derive(Debug, Default)]
pub struct MemStore {
    snapshots: Mutex<BTreeMap<ShardKey, ModelSnapshot>>,
    archives: Mutex<BTreeMap<(ShardKey, u64), ModelSnapshot>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl ModelStore for MemStore {
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        relock(&self.snapshots).insert(key, snapshot.clone());
        Ok(())
    }

    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
        Ok(relock(&self.snapshots).get(&key).cloned())
    }

    fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
        Ok(relock(&self.snapshots).keys().copied().collect())
    }

    fn evict(&self, key: ShardKey) -> Result<bool, ServeError> {
        Ok(relock(&self.snapshots).remove(&key).is_some())
    }

    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError> {
        relock(&self.archives).insert((key, version), snapshot.clone());
        Ok(())
    }

    fn get_version(
        &self,
        key: ShardKey,
        version: u64,
    ) -> Result<Option<ModelSnapshot>, ServeError> {
        Ok(relock(&self.archives).get(&(key, version)).cloned())
    }

    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        Ok(relock(&self.archives)
            .range((key, 0)..=(key, u64::MAX))
            .map(|((_, v), _)| *v)
            .collect())
    }
}

/// Per-file header of [`FsStore`] blobs: magic, format version, payload
/// length, FNV-1a checksum, then the [`ModelSnapshot::to_bytes`] payload.
const FS_MAGIC: &[u8; 4] = b"NOBF";
const FS_VERSION: u32 = 1;
const FS_HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Filesystem snapshot store: one `<key>.snap` file per shard under a
/// site directory (see the module docs for the durability contract).
#[derive(Debug)]
pub struct FsStore {
    root: PathBuf,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| ServeError::Store(format!("create {}: {e}", root.display())))?;
        Ok(FsStore { root })
    }

    /// The site directory this store reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `b<building>.snap` or `b<building>-f<floor>.snap` — the active
    /// slot for a shard.
    fn file_name(key: ShardKey) -> String {
        match key.floor {
            Some(floor) => format!("b{}-f{floor}.snap", key.building),
            None => format!("b{}.snap", key.building),
        }
    }

    /// `b<building>[-f<floor>].v<version>.snap` — the immutable archive
    /// of one model version. The embedded `.v<N>.` makes the stem
    /// unparseable to [`FsStore::key_of`], so archives never show up in
    /// [`ModelStore::list`].
    fn archive_name(key: ShardKey, version: u64) -> String {
        match key.floor {
            Some(floor) => format!("b{}-f{floor}.v{version}.snap", key.building),
            None => format!("b{}.v{version}.snap", key.building),
        }
    }

    fn path_of(&self, key: ShardKey) -> PathBuf {
        self.root.join(Self::file_name(key))
    }

    /// Inverse of [`FsStore::file_name`]; `None` for foreign files
    /// (including version archives and in-flight temp files).
    fn key_of(name: &str) -> Option<ShardKey> {
        let stem = name.strip_suffix(".snap")?.strip_prefix('b')?;
        match stem.split_once("-f") {
            Some((b, f)) => Some(ShardKey::building_floor(b.parse().ok()?, f.parse().ok()?)),
            None => Some(ShardKey::building(stem.parse().ok()?)),
        }
    }

    /// The version number of an archive file of `key`, `None` for every
    /// other file (other shards' archives, active slots, foreign files).
    fn version_of(name: &str, key: ShardKey) -> Option<u64> {
        let stem = Self::file_name(key);
        let stem = stem.strip_suffix(".snap").unwrap_or(&stem);
        name.strip_suffix(".snap")?
            .strip_prefix(stem)?
            .strip_prefix(".v")?
            .parse()
            .ok()
    }

    /// Writes `snapshot` to `root/<name>` atomically: complete bytes go
    /// to a per-writer temp file, synced, then a rename publishes the
    /// final name — a reader can never observe partial bytes.
    fn write_atomic(&self, name: &str, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        // The temp name is unique per writer and per call, so two
        // concurrent puts of the same key never interleave writes into
        // one file — each publishes its own complete bytes and the last
        // rename wins atomically.
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.root.join(name);
        let tmp = self
            .root
            .join(format!(".{name}.{}-{seq}.tmp", std::process::id()));
        let io = |stage: &str, e: std::io::Error| {
            ServeError::Store(format!("{stage} {}: {e}", path.display()))
        };
        let bytes = Self::encode(snapshot);
        let mut file = fs::File::create(&tmp).map_err(|e| io("create temp for", e))?;
        file.write_all(&bytes).map_err(|e| io("write", e))?;
        // Flush file contents before the rename publishes the path, so a
        // reader can never observe the final name with partial bytes.
        file.sync_all().map_err(|e| io("sync", e))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(|e| io("publish", e))
    }

    fn read_name(&self, name: &str) -> Result<Option<ModelSnapshot>, ServeError> {
        let path = self.root.join(name);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::Store(format!("read {}: {e}", path.display()))),
        };
        Self::decode(&bytes, &path).map(Some)
    }

    fn encode(snapshot: &ModelSnapshot) -> Vec<u8> {
        let payload = snapshot.to_bytes();
        let mut out = Vec::with_capacity(FS_HEADER_LEN + payload.len());
        out.extend_from_slice(FS_MAGIC);
        out.extend_from_slice(&FS_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(bytes: &[u8], origin: &Path) -> Result<ModelSnapshot, ServeError> {
        let corrupt = |why: &str| ServeError::BadSnapshot(format!("{}: {why}", origin.display()));
        if bytes.len() < FS_HEADER_LEN {
            return Err(corrupt("file shorter than the snapshot header"));
        }
        if &bytes[..4] != FS_MAGIC {
            return Err(corrupt("bad magic: not a NObLe snapshot file"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != FS_VERSION {
            return Err(corrupt(&format!(
                "unsupported snapshot file version {version}"
            )));
        }
        let len = read_u64_le(bytes, 8) as usize;
        let checksum = read_u64_le(bytes, 16);
        let payload = &bytes[FS_HEADER_LEN..];
        if payload.len() != len {
            return Err(corrupt(&format!(
                "payload is {} bytes, header promises {len}",
                payload.len()
            )));
        }
        if fnv1a64(payload) != checksum {
            return Err(corrupt("checksum mismatch: snapshot bytes are corrupt"));
        }
        ModelSnapshot::from_bytes(payload).map_err(ServeError::from)
    }
}

impl ModelStore for FsStore {
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        self.write_atomic(&Self::file_name(key), snapshot)
    }

    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
        self.read_name(&Self::file_name(key))
    }

    fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
        let entries = fs::read_dir(&self.root)
            .map_err(|e| ServeError::Store(format!("list {}: {e}", self.root.display())))?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| ServeError::Store(format!("list {}: {e}", self.root.display())))?;
            if let Some(key) = entry.file_name().to_str().and_then(Self::key_of) {
                keys.push(key);
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn evict(&self, key: ShardKey) -> Result<bool, ServeError> {
        let path = self.path_of(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(ServeError::Store(format!("evict {}: {e}", path.display()))),
        }
    }

    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError> {
        self.write_atomic(&Self::archive_name(key, version), snapshot)
    }

    fn get_version(
        &self,
        key: ShardKey,
        version: u64,
    ) -> Result<Option<ModelSnapshot>, ServeError> {
        self.read_name(&Self::archive_name(key, version))
    }

    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        let entries = fs::read_dir(&self.root)
            .map_err(|e| ServeError::Store(format!("versions {}: {e}", self.root.display())))?;
        let mut versions = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| ServeError::Store(format!("versions {}: {e}", self.root.display())))?;
            if let Some(v) = entry
                .file_name()
                .to_str()
                .and_then(|name| Self::version_of(name, key))
            {
                versions.push(v);
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }
}

/// Little-endian `u64` at `bytes[at..at + 8]`; callers bounds-check the
/// slice length up front (decode validates `FS_HEADER_LEN` first).
fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
        bytes[at + 4],
        bytes[at + 5],
        bytes[at + 6],
        bytes[at + 7],
    ])
}

/// FNV-1a 64-bit — tiny, dependency-free corruption detector for
/// snapshot files (not a cryptographic integrity guarantee).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_round_trips_keys() {
        for key in [
            ShardKey::building(0),
            ShardKey::building(17),
            ShardKey::building_floor(3, 0),
            ShardKey::building_floor(12, 9),
        ] {
            assert_eq!(FsStore::key_of(&FsStore::file_name(key)), Some(key));
        }
        assert_eq!(FsStore::key_of("junk.txt"), None);
        assert_eq!(FsStore::key_of("bX.snap"), None);
        assert_eq!(FsStore::key_of(".b1.snap.tmp"), None);
        // Version archives must stay invisible to the active-slot verbs.
        assert_eq!(FsStore::key_of("b1.v3.snap"), None);
        assert_eq!(FsStore::key_of("b1-f2.v3.snap"), None);
    }

    #[test]
    fn archive_name_round_trips_versions() {
        for key in [ShardKey::building(7), ShardKey::building_floor(3, 2)] {
            for version in [0u64, 1, 42] {
                let name = FsStore::archive_name(key, version);
                assert_eq!(FsStore::version_of(&name, key), Some(version));
                assert_eq!(FsStore::key_of(&name), None);
            }
        }
        // Other shards' archives and active slots never match.
        let key = ShardKey::building(7);
        assert_eq!(FsStore::version_of("b8.v1.snap", key), None);
        assert_eq!(FsStore::version_of("b7-f1.v1.snap", key), None);
        assert_eq!(FsStore::version_of("b7.snap", key), None);
        assert_eq!(FsStore::version_of("b7.vX.snap", key), None);
    }

    #[test]
    fn mem_store_round_trip_and_evict() {
        let store = MemStore::new();
        let key = ShardKey::building(4);
        let snap = ModelSnapshot::new("wifi-noble", 8, 3, vec![1, 2, 3]);
        assert!(store.get(key).unwrap().is_none());
        store.put(key, &snap).unwrap();
        assert_eq!(store.get(key).unwrap().unwrap(), snap);
        assert_eq!(store.list().unwrap(), vec![key]);
        assert!(store.evict(key).unwrap());
        assert!(!store.evict(key).unwrap());
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn mem_store_versions_are_separate_from_active_slot() {
        let store = MemStore::new();
        let key = ShardKey::building_floor(1, 2);
        let v1 = ModelSnapshot::new("wifi-noble", 8, 3, vec![1]).with_version(1);
        let v2 = ModelSnapshot::new("wifi-noble", 8, 3, vec![2]).with_version(2);
        assert!(store.versions(key).unwrap().is_empty());
        store.put_version(key, 1, &v1).unwrap();
        store.put_version(key, 2, &v2).unwrap();
        store.put(key, &v2).unwrap();
        assert_eq!(store.versions(key).unwrap(), vec![1, 2]);
        assert_eq!(store.get_version(key, 1).unwrap().unwrap(), v1);
        assert_eq!(store.get_version(key, 3).unwrap(), None);
        // Other keys see nothing; evicting the active slot keeps archives.
        assert!(store.versions(ShardKey::building(1)).unwrap().is_empty());
        assert!(store.evict(key).unwrap());
        assert_eq!(store.versions(key).unwrap(), vec![1, 2]);
        assert_eq!(store.get_version(key, 2).unwrap().unwrap(), v2);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a64(b"snapshot");
        assert_eq!(a, fnv1a64(b"snapshot"));
        assert_ne!(a, fnv1a64(b"snapshos"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"\0"));
    }
}
