//! Filesystem and page-cache model.
//!
//! The filesystem is a *planner*: [`FileSystem::apply`] turns one
//! [`FileOp`] into an [`IoPlan`] describing (a) the CPU work the calling
//! thread must perform in kernel mode (syscall entry, path handling,
//! page-cache copies) and (b) the block-device requests that must
//! complete before the call returns. The kernel that owns the filesystem
//! (host `System`, or a guest kernel in `vgrid-vmm`) decides how those
//! parts are timed — which is exactly how the same code models both a
//! native Linux filesystem over a SATA disk and a guest filesystem over
//! an emulated virtual disk. `apply` is the only place a `FileOp` is
//! decoded, for the host and the guest alike.
//!
//! Caching model: per-file *prefix* caching. Benchmarks in this testbed
//! (IOBench in particular) stream files sequentially, so tracking "the
//! first `cached` bytes are resident, of which the last `dirty` are not
//! yet on the device" captures the cache behaviour that matters while
//! staying O(1) per operation. A global capacity bound with FIFO eviction
//! of clean pages models cache pressure.

use crate::action::{ActionResult, FileId, FileOp, OsError};
use vgrid_machine::ops::{OpBlock, OpClassCounts};
use vgrid_machine::{DiskRequest, DiskRequestKind};
use vgrid_simcore::DetMap;

/// Filesystem tuning parameters.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Maximum bytes of page cache (clean + dirty).
    pub cache_limit: u64,
    /// Dirty bytes per file beyond which writeback is forced.
    pub dirty_limit: u64,
    /// Kernel ops charged per syscall (entry/exit, fd lookup).
    pub syscall_kernel_ops: u64,
    /// Kernel ops charged per 4 KiB page moved through the cache
    /// (get_user_pages, radix-tree work).
    pub per_page_kernel_ops: u64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            cache_limit: 256 << 20,
            dirty_limit: 16 << 20,
            syscall_kernel_ops: 4,
            per_page_kernel_ops: 1,
        }
    }
}

impl FsConfig {
    /// Config sized for a machine with `ram_bytes` of memory: the page
    /// cache may consume up to ~60 % of RAM (a typical steady state for a
    /// dedicated benchmark box).
    pub fn for_ram(ram_bytes: u64) -> Self {
        FsConfig {
            cache_limit: ram_bytes * 6 / 10,
            ..Default::default()
        }
    }
}

/// What must happen for one filesystem call.
#[derive(Debug, Clone)]
pub struct IoPlan {
    /// CPU work performed by the calling thread (kernel mode + copies).
    pub cpu: OpBlock,
    /// Device requests that must complete before the call returns, in
    /// order.
    pub disk: Vec<DiskRequest>,
    /// Result to deliver to the caller afterwards.
    pub result: ActionResult,
}

impl IoPlan {
    fn err(e: OsError) -> IoPlan {
        IoPlan {
            cpu: OpBlock::kernel(2).with_label("fs/err"),
            disk: Vec::new(),
            result: ActionResult::Err(e),
        }
    }
}

#[derive(Debug)]
struct FileNode {
    /// Logical size in bytes.
    size: u64,
    /// Base offset of this file's extent on the device (bump-allocated;
    /// files are laid out contiguously, which is the favourable layout
    /// sequential benchmarks see on a fresh filesystem).
    disk_base: u64,
    /// Resident prefix length (clean + dirty), bytes.
    cached: u64,
    /// Dirty suffix of the resident prefix, bytes.
    dirty: u64,
    /// Opened for direct I/O (bypass cache).
    direct: bool,
    /// FIFO eviction stamp.
    touch: u64,
}

#[derive(Debug)]
struct Handle {
    path: String,
    pos: u64,
}

/// The filesystem planner.
#[derive(Debug)]
pub struct FileSystem {
    cfg: FsConfig,
    files: DetMap<String, FileNode>,
    handles: DetMap<FileId, Handle>,
    next_handle: u32,
    alloc_cursor: u64,
    touch_counter: u64,
    /// Total resident bytes across files.
    cache_used: u64,
    /// Bytes read calls asked for (observability counter).
    read_bytes: u64,
    /// Bytes write calls asked for (observability counter).
    write_bytes: u64,
}

/// Build the CPU block for a syscall that moves `bytes` through the cache.
fn copy_block(cfg: &FsConfig, bytes: u64, label: &str) -> OpBlock {
    let pages = bytes.div_ceil(4096);
    let words = bytes / 8;
    OpBlock {
        label: label.to_string(),
        counts: OpClassCounts {
            // copy loop: one read + one write per word plus index math
            mem_reads: words,
            mem_writes: words,
            int_ops: words / 2,
            kernel_ops: cfg.syscall_kernel_ops + pages * cfg.per_page_kernel_ops,
            ..Default::default()
        },
        // Copies stream through the cache: working set is the transfer
        // size (bounded below so tiny transfers are L1-resident). High
        // locality reflects sequential access: 7 of 8 word accesses hit
        // the already-fetched cache line and hardware prefetch hides much
        // of the rest.
        working_set: bytes.max(4096),
        locality: 0.9,
    }
}

/// CPU block for a metadata-only syscall.
fn meta_block(cfg: &FsConfig, label: &str) -> OpBlock {
    OpBlock::kernel(cfg.syscall_kernel_ops).with_label(label)
}

impl FileSystem {
    /// Create an empty filesystem.
    pub fn new(cfg: FsConfig) -> Self {
        FileSystem {
            cfg,
            files: DetMap::new(),
            handles: DetMap::new(),
            next_handle: 1,
            alloc_cursor: 0,
            touch_counter: 0,
            cache_used: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Plan one filesystem call. Read and write bytes are counted
    /// before the call runs, so short and failed calls count in full.
    pub fn apply(&mut self, op: FileOp) -> IoPlan {
        match op {
            FileOp::Open {
                path,
                create,
                truncate,
                direct,
            } => self.open(&path, create, truncate, direct),
            FileOp::Read { file, bytes } => {
                self.read_bytes += bytes;
                self.read(file, bytes)
            }
            FileOp::Write { file, bytes } => {
                self.write_bytes += bytes;
                self.write(file, bytes)
            }
            FileOp::Sync { file } => self.sync(file),
            FileOp::Seek { file, pos } => self.seek(file, pos),
            FileOp::Close { file } => self.close(file),
            FileOp::Delete { path } => self.delete(&path),
            FileOp::DropCache { file } => self.drop_cache(file),
        }
    }

    /// Bytes requested by every read planned so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes requested by every write planned so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Bytes currently resident in the page cache.
    pub fn cache_used(&self) -> u64 {
        self.cache_used
    }

    /// Number of files that exist.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Size of the file at `path`, if it exists.
    pub fn size_of(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|f| f.size)
    }

    fn touch(&mut self, path: &str) {
        self.touch_counter += 1;
        if let Some(f) = self.files.get_mut(path) {
            f.touch = self.touch_counter;
        }
    }

    /// Evict clean cache from the FIFO-coldest files until usage fits.
    fn evict_to_fit(&mut self, incoming: u64) {
        let limit = self.cfg.cache_limit;
        while self.cache_used + incoming > limit {
            // Coldest file with evictable (clean) bytes.
            let victim = self
                .files
                .iter()
                .filter(|(_, f)| f.cached > f.dirty)
                .min_by_key(|(_, f)| f.touch)
                .map(|(p, _)| p.clone());
            let Some(path) = victim else { break };
            let f = self.files.get_mut(&path).expect("victim exists");
            let clean = f.cached - f.dirty;
            // Dropping the clean prefix invalidates the prefix model if
            // dirty data remains; evict whole clean files first, else
            // shrink the prefix (dirty tail follows the model's "dirty is
            // the suffix" invariant only when dirty == cached after
            // eviction -- acceptable approximation).
            let drop = clean
                .min(self.cache_used + incoming - limit)
                .max(4096)
                .min(clean);
            f.cached -= drop;
            if f.dirty > f.cached {
                f.dirty = f.cached;
            }
            self.cache_used -= drop;
            if drop == 0 {
                break;
            }
        }
    }

    /// Open a file.
    fn open(&mut self, path: &str, create: bool, truncate: bool, direct: bool) -> IoPlan {
        let exists = self.files.contains_key(path);
        if !exists && !create {
            return IoPlan::err(OsError::NotFound);
        }
        if !exists {
            let node = FileNode {
                size: 0,
                disk_base: self.alloc_cursor,
                cached: 0,
                dirty: 0,
                direct,
                touch: 0,
            };
            // Reserve a generous extent so growing files stay contiguous.
            self.alloc_cursor += 1 << 30;
            self.files.insert(path.to_string(), node);
        }
        if truncate {
            let f = self.files.get_mut(path).expect("created above");
            self.cache_used -= f.cached;
            f.size = 0;
            f.cached = 0;
            f.dirty = 0;
        }
        if let Some(f) = self.files.get_mut(path) {
            f.direct = direct;
        }
        self.touch(path);
        let id = FileId(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(
            id,
            Handle {
                path: path.to_string(),
                pos: 0,
            },
        );
        IoPlan {
            cpu: meta_block(&self.cfg, "fs/open"),
            disk: Vec::new(),
            result: ActionResult::Opened(id),
        }
    }

    /// Write at the handle's position.
    fn write(&mut self, id: FileId, bytes: u64) -> IoPlan {
        let Some(h) = self.handles.get(&id) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let path = h.path.clone();
        let pos = h.pos;
        let Some(f) = self.files.get_mut(&path) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let mut disk = Vec::new();
        if f.direct {
            disk.push(DiskRequest {
                kind: DiskRequestKind::Write,
                offset: f.disk_base + pos,
                bytes,
            });
        } else {
            // Data lands in the cache; extend the resident prefix.
            let new_end = pos + bytes;
            let grow = new_end.saturating_sub(f.cached);
            f.cached += grow;
            f.dirty += bytes.min(f.cached);
            if f.dirty > f.cached {
                f.dirty = f.cached;
            }
            self.cache_used += grow;
            // Writeback when the file exceeds its dirty budget.
            if f.dirty > self.cfg.dirty_limit {
                let flush = f.dirty;
                let flush_start = new_end.saturating_sub(flush);
                disk.push(DiskRequest {
                    kind: DiskRequestKind::Write,
                    offset: f.disk_base + flush_start,
                    bytes: flush,
                });
                f.dirty = 0;
            }
        }
        let f = self.files.get_mut(&path).expect("checked");
        f.size = f.size.max(pos + bytes);
        self.handles.get_mut(&id).expect("checked").pos += bytes;
        self.touch(&path);
        self.evict_to_fit(0);
        IoPlan {
            cpu: copy_block(&self.cfg, bytes, "fs/write"),
            disk,
            result: ActionResult::Wrote { bytes },
        }
    }

    /// Read at the handle's position.
    fn read(&mut self, id: FileId, bytes: u64) -> IoPlan {
        let Some(h) = self.handles.get(&id) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let path = h.path.clone();
        let pos = h.pos;
        let Some(f) = self.files.get_mut(&path) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let avail = f.size.saturating_sub(pos);
        let n = bytes.min(avail);
        if n == 0 {
            return IoPlan {
                cpu: meta_block(&self.cfg, "fs/read-eof"),
                disk: Vec::new(),
                result: ActionResult::Read { bytes: 0 },
            };
        }
        let mut disk = Vec::new();
        if f.direct {
            disk.push(DiskRequest {
                kind: DiskRequestKind::Read,
                offset: f.disk_base + pos,
                bytes: n,
            });
        } else {
            let end = pos + n;
            if end > f.cached {
                // Missing tail must come from the device; it becomes
                // resident (clean).
                let miss_start = pos.max(f.cached);
                let miss = end - miss_start;
                disk.push(DiskRequest {
                    kind: DiskRequestKind::Read,
                    offset: f.disk_base + miss_start,
                    bytes: miss,
                });
                self.cache_used += end - f.cached;
                f.cached = end;
            }
        }
        self.handles.get_mut(&id).expect("checked").pos += n;
        self.touch(&path);
        self.evict_to_fit(0);
        IoPlan {
            cpu: copy_block(&self.cfg, n, "fs/read"),
            disk,
            result: ActionResult::Read { bytes: n },
        }
    }

    /// Flush the file's dirty data.
    fn sync(&mut self, id: FileId) -> IoPlan {
        let Some(h) = self.handles.get(&id) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let path = h.path.clone();
        let f = self.files.get_mut(&path).expect("handle implies file");
        let mut disk = Vec::new();
        if f.dirty > 0 {
            let start = f.cached - f.dirty;
            disk.push(DiskRequest {
                kind: DiskRequestKind::Write,
                offset: f.disk_base + start,
                bytes: f.dirty,
            });
            f.dirty = 0;
        }
        IoPlan {
            cpu: meta_block(&self.cfg, "fs/sync"),
            disk,
            result: ActionResult::Synced,
        }
    }

    /// Seek the handle.
    fn seek(&mut self, id: FileId, pos: u64) -> IoPlan {
        let Some(h) = self.handles.get_mut(&id) else {
            return IoPlan::err(OsError::BadHandle);
        };
        h.pos = pos;
        IoPlan {
            cpu: meta_block(&self.cfg, "fs/seek"),
            disk: Vec::new(),
            result: ActionResult::Sought,
        }
    }

    /// Close the handle (does not flush; callers sync explicitly, as the
    /// benchmarks do).
    fn close(&mut self, id: FileId) -> IoPlan {
        if self.handles.remove(&id).is_none() {
            return IoPlan::err(OsError::BadHandle);
        }
        IoPlan {
            cpu: meta_block(&self.cfg, "fs/close"),
            disk: Vec::new(),
            result: ActionResult::Closed,
        }
    }

    /// Delete a file by path.
    fn delete(&mut self, path: &str) -> IoPlan {
        match self.files.remove(path) {
            Some(f) => {
                self.cache_used -= f.cached;
                IoPlan {
                    cpu: meta_block(&self.cfg, "fs/unlink"),
                    disk: Vec::new(),
                    result: ActionResult::Deleted,
                }
            }
            None => IoPlan::err(OsError::NotFound),
        }
    }

    /// Drop the file's resident pages (dirty data is flushed first).
    fn drop_cache(&mut self, id: FileId) -> IoPlan {
        let Some(h) = self.handles.get(&id) else {
            return IoPlan::err(OsError::BadHandle);
        };
        let path = h.path.clone();
        let f = self.files.get_mut(&path).expect("handle implies file");
        let mut disk = Vec::new();
        if f.dirty > 0 {
            let start = f.cached - f.dirty;
            disk.push(DiskRequest {
                kind: DiskRequestKind::Write,
                offset: f.disk_base + start,
                bytes: f.dirty,
            });
            f.dirty = 0;
        }
        self.cache_used -= f.cached;
        f.cached = 0;
        IoPlan {
            cpu: meta_block(&self.cfg, "fs/drop-cache"),
            disk,
            result: ActionResult::CacheDropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FileSystem {
        FileSystem::new(FsConfig::default())
    }

    fn open(fs: &mut FileSystem, path: &str) -> FileId {
        match fs.open(path, true, true, false).result {
            ActionResult::Opened(id) => id,
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn open_missing_without_create_fails() {
        let mut f = fs();
        let plan = f.open("/nope", false, false, false);
        assert_eq!(plan.result, ActionResult::Err(OsError::NotFound));
    }

    #[test]
    fn cached_write_has_no_disk_requests_until_limit() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        let plan = f.write(id, 1 << 20);
        assert!(plan.disk.is_empty());
        assert_eq!(plan.result, ActionResult::Wrote { bytes: 1 << 20 });
        assert_eq!(f.cache_used(), 1 << 20);
    }

    #[test]
    fn dirty_limit_forces_writeback() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        // Exceed the 16 MiB dirty budget in one call.
        let plan = f.write(id, 20 << 20);
        assert_eq!(plan.disk.len(), 1);
        assert_eq!(plan.disk[0].kind, DiskRequestKind::Write);
        assert_eq!(plan.disk[0].bytes, 20 << 20);
    }

    #[test]
    fn sync_flushes_dirty_once() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 1 << 20);
        let s1 = f.sync(id);
        assert_eq!(s1.disk.len(), 1);
        assert_eq!(s1.disk[0].bytes, 1 << 20);
        let s2 = f.sync(id);
        assert!(s2.disk.is_empty(), "second sync has nothing to flush");
    }

    #[test]
    fn read_of_cached_data_hits_cache() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 1 << 20);
        f.seek(id, 0);
        let plan = f.read(id, 1 << 20);
        assert!(plan.disk.is_empty(), "fully cached read");
        assert_eq!(plan.result, ActionResult::Read { bytes: 1 << 20 });
    }

    #[test]
    fn read_after_drop_cache_goes_to_disk() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 1 << 20);
        f.drop_cache(id);
        f.seek(id, 0);
        let plan = f.read(id, 1 << 20);
        assert_eq!(plan.disk.len(), 1);
        assert_eq!(plan.disk[0].kind, DiskRequestKind::Read);
        assert_eq!(plan.disk[0].bytes, 1 << 20);
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 100);
        f.seek(id, 0);
        let plan = f.read(id, 1000);
        assert_eq!(plan.result, ActionResult::Read { bytes: 100 });
        let eof = f.read(id, 10);
        assert_eq!(eof.result, ActionResult::Read { bytes: 0 });
    }

    #[test]
    fn direct_io_always_hits_device() {
        let mut f = fs();
        let id = match f.open("/img", true, true, true).result {
            ActionResult::Opened(id) => id,
            other => panic!("{other:?}"),
        };
        let w = f.write(id, 4096);
        assert_eq!(w.disk.len(), 1);
        f.seek(id, 0);
        let r = f.read(id, 4096);
        assert_eq!(r.disk.len(), 1);
        assert_eq!(f.cache_used(), 0, "direct I/O bypasses the cache");
    }

    #[test]
    fn truncate_resets_size_and_cache() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 1 << 20);
        f.close(id);
        let _id2 = open(&mut f, "/a"); // reopen with truncate
        assert_eq!(f.size_of("/a"), Some(0));
        assert_eq!(f.cache_used(), 0);
    }

    #[test]
    fn delete_removes_file_and_cache() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 4096);
        assert_eq!(f.file_count(), 1);
        let plan = f.delete("/a");
        assert_eq!(plan.result, ActionResult::Deleted);
        assert_eq!(f.file_count(), 0);
        assert_eq!(f.cache_used(), 0);
    }

    #[test]
    fn eviction_keeps_usage_bounded() {
        let mut f = FileSystem::new(FsConfig {
            cache_limit: 8 << 20,
            dirty_limit: 64 << 20, // don't writeback during test
            ..Default::default()
        });
        for i in 0..8 {
            let id = open(&mut f, &format!("/f{i}"));
            f.write(id, 2 << 20);
            f.sync(id); // make pages clean so they're evictable
            f.close(id);
        }
        assert!(
            f.cache_used() <= 8 << 20,
            "cache {} over limit",
            f.cache_used()
        );
    }

    #[test]
    fn stale_handle_errors() {
        let mut f = fs();
        let plan = f.read(FileId(999), 10);
        assert_eq!(plan.result, ActionResult::Err(OsError::BadHandle));
        let plan = f.write(FileId(999), 10);
        assert_eq!(plan.result, ActionResult::Err(OsError::BadHandle));
    }

    #[test]
    fn write_cpu_scales_with_bytes() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        let small = f.write(id, 4096);
        let large = f.write(id, 1 << 20);
        assert!(large.cpu.counts.mem_writes > 100 * small.cpu.counts.mem_writes);
        assert!(large.cpu.counts.kernel_ops > small.cpu.counts.kernel_ops);
    }

    #[test]
    fn partial_cached_read_fetches_only_tail() {
        let mut f = fs();
        let id = open(&mut f, "/a");
        f.write(id, 2 << 20);
        f.sync(id);
        // Evict and re-read the first 1 MiB only.
        f.drop_cache(id);
        f.seek(id, 0);
        f.read(id, 1 << 20);
        // Now read the full 2 MiB from the start: 1 MiB cached, 1 MiB miss.
        f.seek(id, 0);
        let plan = f.read(id, 2 << 20);
        assert_eq!(plan.disk.len(), 1);
        assert_eq!(plan.disk[0].bytes, 1 << 20);
    }
}
