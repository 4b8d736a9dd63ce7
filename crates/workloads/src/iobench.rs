//! IOBench: the paper's disk I/O benchmark (Section 2), ported from the
//! authors' Python original.
//!
//! "IOBench executes read and write operations for randomly generated
//! files, whose size ranges from 128 KB to 32 MB. Between each test, the
//! file size is incremented by doubling the precedent one."
//!
//! For each size the body writes the file (in 64 KiB syscalls), syncs it
//! to the device, drops its cached pages, reads it back and deletes it —
//! so both directions exercise the device path, which is the regime the
//! original reaches once its working set exceeds the 300 MB guest's page
//! cache (see DESIGN.md, substitution table).

use std::cell::RefCell;
use std::rc::Rc;
use vgrid_os::{Action, ActionResult, FileId, FileOp, ThreadBody, ThreadCtx};
use vgrid_simcore::SimTime;

/// Chunk size for read/write syscalls.
const CHUNK: u64 = 64 * 1024;

/// Per-size measurement.
#[derive(Debug, Clone, Copy)]
pub struct SizeResult {
    /// File size in bytes.
    pub size: u64,
    /// Write throughput (bytes/sec) including the sync.
    pub write_bps: f64,
    /// Read throughput (bytes/sec) from the device.
    pub read_bps: f64,
}

/// Full benchmark report.
#[derive(Debug, Clone, Default)]
pub struct IoBenchReport {
    /// One entry per file size.
    pub results: Vec<SizeResult>,
    /// True once all sizes ran.
    pub complete: bool,
}

impl IoBenchReport {
    /// Mean write throughput across sizes.
    pub fn mean_write_bps(&self) -> f64 {
        let n = self.results.len().max(1) as f64;
        self.results.iter().map(|r| r.write_bps).sum::<f64>() / n // simlint: allow(float-fold-order) -- result order is fixed by the config size list
    }
    /// Mean read throughput across sizes.
    pub fn mean_read_bps(&self) -> f64 {
        let n = self.results.len().max(1) as f64;
        self.results.iter().map(|r| r.read_bps).sum::<f64>() / n // simlint: allow(float-fold-order) -- result order is fixed by the config size list
    }
    /// Combined score: mean of read and write throughput (the scalar the
    /// relative Figure 3 normalizes).
    pub fn score_bps(&self) -> f64 {
        (self.mean_read_bps() + self.mean_write_bps()) / 2.0
    }
}

/// IOBench configuration.
#[derive(Debug, Clone)]
pub struct IoBenchConfig {
    /// Smallest file size (paper: 128 KB).
    pub min_size: u64,
    /// Largest file size (paper: 32 MB).
    pub max_size: u64,
    /// Filesystem path prefix for the test files.
    pub path_prefix: String,
}

impl Default for IoBenchConfig {
    fn default() -> Self {
        IoBenchConfig {
            min_size: 128 * 1024,
            max_size: 32 * 1024 * 1024,
            path_prefix: "/iobench".to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Write,
    Sync,
    DropCache,
    SeekStart,
    Read,
    Close,
    Delete,
}

/// The IOBench thread body.
#[derive(Debug)]
pub struct IoBenchBody {
    cfg: IoBenchConfig,
    report: Rc<RefCell<IoBenchReport>>,
    size: u64,
    phase: Phase,
    file: Option<FileId>,
    moved: u64,
    write_started: Option<SimTime>,
    write_secs: f64,
    read_started: Option<SimTime>,
}

impl IoBenchBody {
    /// Create the body and its shared report.
    pub fn new(cfg: IoBenchConfig) -> (Self, Rc<RefCell<IoBenchReport>>) {
        let report = Rc::new(RefCell::new(IoBenchReport::default()));
        let size = cfg.min_size;
        (
            IoBenchBody {
                cfg,
                report: report.clone(),
                size,
                phase: Phase::Open,
                file: None,
                moved: 0,
                write_started: None,
                write_secs: 0.0,
                read_started: None,
            },
            report,
        )
    }

    fn path(&self) -> String {
        format!("{}-{}", self.cfg.path_prefix, self.size)
    }
}

impl ThreadBody for IoBenchBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        // Any error aborts loudly: benchmarks must not limp.
        if let ActionResult::Err(e) = ctx.result {
            panic!(
                "iobench: unexpected OS error {e:?} in phase {:?}",
                self.phase
            );
        }
        loop {
            match self.phase {
                Phase::Open => {
                    if let ActionResult::Opened(id) = ctx.result {
                        self.file = Some(id);
                        self.phase = Phase::Write;
                        self.moved = 0;
                        self.write_started = Some(ctx.now);
                        continue;
                    }
                    return Action::File(FileOp::Open {
                        path: self.path(),
                        create: true,
                        truncate: true,
                        direct: false,
                    });
                }
                Phase::Write => {
                    if self.moved >= self.size {
                        self.phase = Phase::Sync;
                        continue;
                    }
                    let n = CHUNK.min(self.size - self.moved);
                    self.moved += n;
                    return Action::File(FileOp::Write {
                        file: self.file.expect("opened"),
                        bytes: n,
                    });
                }
                Phase::Sync => {
                    if ctx.result == ActionResult::Synced {
                        self.write_secs = ctx
                            .now
                            .since(self.write_started.expect("started"))
                            .as_secs_f64();
                        self.phase = Phase::DropCache;
                        continue;
                    }
                    return Action::File(FileOp::Sync {
                        file: self.file.expect("opened"),
                    });
                }
                Phase::DropCache => {
                    if ctx.result == ActionResult::CacheDropped {
                        self.phase = Phase::SeekStart;
                        continue;
                    }
                    return Action::File(FileOp::DropCache {
                        file: self.file.expect("opened"),
                    });
                }
                Phase::SeekStart => {
                    if ctx.result == ActionResult::Sought {
                        self.phase = Phase::Read;
                        self.moved = 0;
                        self.read_started = Some(ctx.now);
                        continue;
                    }
                    return Action::File(FileOp::Seek {
                        file: self.file.expect("opened"),
                        pos: 0,
                    });
                }
                Phase::Read => {
                    if let ActionResult::Read { bytes } = ctx.result {
                        assert!(bytes > 0, "short read before expected EOF");
                    }
                    if self.moved >= self.size {
                        let read_secs = ctx
                            .now
                            .since(self.read_started.expect("started"))
                            .as_secs_f64();
                        let size = self.size;
                        self.report.borrow_mut().results.push(SizeResult {
                            size,
                            write_bps: size as f64 / self.write_secs.max(1e-12),
                            read_bps: size as f64 / read_secs.max(1e-12),
                        });
                        self.phase = Phase::Close;
                        continue;
                    }
                    let n = CHUNK.min(self.size - self.moved);
                    self.moved += n;
                    return Action::File(FileOp::Read {
                        file: self.file.expect("opened"),
                        bytes: n,
                    });
                }
                Phase::Close => {
                    if ctx.result == ActionResult::Closed {
                        self.phase = Phase::Delete;
                        continue;
                    }
                    return Action::File(FileOp::Close {
                        file: self.file.expect("opened"),
                    });
                }
                Phase::Delete => {
                    if ctx.result == ActionResult::Deleted {
                        self.file = None;
                        if self.size >= self.cfg.max_size {
                            self.report.borrow_mut().complete = true;
                            return Action::Exit;
                        }
                        self.size *= 2;
                        self.phase = Phase::Open;
                        // Clear the stale Deleted result so Open doesn't
                        // misread it.
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    return Action::File(FileOp::Delete { path: self.path() });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_os::{Priority, System, SystemConfig};

    fn run_iobench() -> IoBenchReport {
        let mut sys = System::new(SystemConfig::testbed(3));
        let (body, report) = IoBenchBody::new(IoBenchConfig::default());
        sys.spawn("iobench", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(600)));
        let r = report.borrow().clone();
        assert!(r.complete);
        r
    }

    #[test]
    fn covers_all_doubling_sizes() {
        let r = run_iobench();
        let sizes: Vec<u64> = r.results.iter().map(|s| s.size).collect();
        assert_eq!(
            sizes,
            vec![
                128 << 10,
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
                32 << 20
            ]
        );
    }

    #[test]
    fn throughput_near_disk_rates() {
        let r = run_iobench();
        // Device: 60 MB/s read, 55 MB/s write; syscall overhead shaves a
        // little. Large files should land close to the platter rate.
        let last = r.results.last().unwrap();
        assert!(
            (40e6..60e6).contains(&last.write_bps),
            "write {}",
            last.write_bps
        );
        assert!(
            (45e6..65e6).contains(&last.read_bps),
            "read {}",
            last.read_bps
        );
    }

    #[test]
    fn score_is_positive_and_stable() {
        let a = run_iobench();
        let b = run_iobench();
        assert!(a.score_bps() > 1e6);
        assert_eq!(a.score_bps(), b.score_bps(), "deterministic");
    }
}
