//! The benchmark's storage wrapper: the real filesystem, with every sync
//! and every write-ahead-log byte counted and, while tracing, every sync
//! opened as a span.
//! Handed to the durable pool through `ShardedDurablePool::open_with_storage`.

use crate::trace;
use prkb_edbms::{real_fs, StorageFile, StorageFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Totals since the wrapper was created (see [`TracedFs::counters`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct IoCounters {
    /// File `sync_data`/`sync_all` plus directory syncs.
    pub syncs: u64,
    /// Bytes written to write-ahead-log files.
    pub wal_bytes: u64,
}

impl IoCounters {
    /// Growth since `earlier`.
    pub fn minus(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            syncs: self.syncs - earlier.syncs,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    syncs: AtomicU64,
    wal_bytes: AtomicU64,
    /// Duration of every sync, in nanoseconds.
    sync_ns: Mutex<Vec<u64>>,
}

impl Shared {
    fn timed_sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let _span = trace::span("storage.sync", 1);
        let start = Instant::now();
        let r = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_ns
            .lock()
            .expect("sync log lock: no thread panics while holding it")
            .push(ns);
        r
    }

    fn wrote(&self, path: &Path, n: usize) {
        if is_wal(path) {
            self.wal_bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

fn is_wal(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("wal."))
}

#[derive(Debug, Clone)]
pub struct TracedFs {
    inner: Arc<dyn StorageFs>,
    shared: Arc<Shared>,
}

impl TracedFs {
    pub fn new() -> Self {
        TracedFs {
            inner: real_fs(),
            shared: Arc::default(),
        }
    }

    pub fn counters(&self) -> IoCounters {
        IoCounters {
            syncs: self.shared.syncs.load(Ordering::Relaxed),
            wal_bytes: self.shared.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Durations (ns) of every sync issued so far.
    pub fn sync_durations(&self) -> Vec<u64> {
        self.shared
            .sync_ns
            .lock()
            .expect("sync log lock: no thread panics while holding it")
            .clone()
    }
}

#[derive(Debug)]
struct TracedFile {
    inner: Box<dyn StorageFile>,
    path: PathBuf,
    shared: Arc<Shared>,
}

impl StorageFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.shared.wrote(&self.path, buf.len());
        self.inner.write_all(buf)
    }
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.shared.timed_sync(|| inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.shared.timed_sync(|| inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_start(pos)
    }
}

impl TracedFs {
    fn wrap(&self, path: &Path, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(TracedFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        })
    }
}

impl StorageFs for TracedFs {
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.create_file(path)?))
    }
    fn open_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.open_file(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.shared.wrote(path, bytes.len());
        self.inner.write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.shared.timed_sync(|| self.inner.sync_dir(dir))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        self.inner.read_at(path, offset, len)
    }
}
