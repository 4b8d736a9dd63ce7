//! The thread/kernel interaction protocol.
//!
//! Simulated programs are [`ThreadBody`] state machines. The kernel calls
//! [`ThreadBody::next`] whenever the thread is ready to issue its next
//! action, passing a [`ThreadCtx`] that carries the result of the previous
//! action. The body returns an [`Action`] — compute, file I/O, network
//! I/O, sleeping, thread management or exit — and the kernel simulates it.
//!
//! File and network I/O travel as one [`FileOp`] or [`NetOp`] value.
//! The kernel never decodes them itself: it hands the op to its
//! filesystem ([`crate::FileSystem::apply`]) or transport stack
//! ([`crate::NetStack::apply`]) and times the plan that comes back. The
//! host `System` and the nested guest kernel in `vgrid-vmm` share that
//! decode, and differ only in how they time the plan.
//!
//! This is a coroutine protocol by explicit state machine: Rust has no
//! stable generators, and explicit states keep each workload's phase
//! structure visible and testable.

use vgrid_machine::ops::OpBlock;
use vgrid_simcore::{SimDuration, SimRng, SimTime};

/// Scheduling priority classes, modeled on Windows XP's priority classes
/// (the paper runs VMs at both `Normal` and `Idle`, Section 4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Lowest: runs only when nothing else is runnable.
    Idle = 0,
    /// Below normal.
    BelowNormal = 1,
    /// Default class.
    Normal = 2,
    /// Above normal.
    AboveNormal = 3,
    /// High: preempts all lower classes (device-emulation service threads).
    High = 4,
    /// Realtime: reserved for kernel-critical activity.
    Realtime = 5,
}

/// Identifies a thread within one `System` (or one guest kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Identifies an open file within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Identifies a network connection within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u32);

/// Errors surfaced to thread bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Path not found.
    NotFound,
    /// File/connection id is stale or foreign.
    BadHandle,
    /// Out of simulated storage or memory.
    NoSpace,
    /// The action is not valid in this state.
    Invalid,
}

/// A simulated remote peer, used by network actions. The peer is modeled,
/// not simulated: it responds ideally at its link's speed (the paper's
/// iperf server on the LAN is exactly such a peer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteHost {
    /// One-way propagation delay to the peer.
    pub one_way_delay: SimDuration,
    /// How the peer behaves.
    pub kind: RemoteKind,
}

/// Behaviour of a remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteKind {
    /// Discards everything it receives (iperf server).
    Sink,
    /// Produces data on demand at line rate (download server).
    Source,
}

impl RemoteHost {
    /// An iperf-style discard server one LAN hop away (~0.2 ms).
    pub fn lan_sink() -> Self {
        RemoteHost {
            one_way_delay: SimDuration::from_micros(200),
            kind: RemoteKind::Sink,
        }
    }
    /// A LAN data source.
    pub fn lan_source() -> Self {
        RemoteHost {
            one_way_delay: SimDuration::from_micros(200),
            kind: RemoteKind::Source,
        }
    }
}

/// A filesystem call: what [`Action::File`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOp {
    /// Open (and possibly create/truncate) a file by path.
    Open {
        /// Path within the kernel's single namespace.
        path: String,
        /// Create the file if missing.
        create: bool,
        /// Truncate to zero length on open.
        truncate: bool,
        /// Bypass the page cache (device-image files, O_DIRECT-style).
        direct: bool,
    },
    /// Read `bytes` from the file at the current position.
    Read {
        /// Open file handle.
        file: FileId,
        /// Bytes to read.
        bytes: u64,
    },
    /// Write `bytes` to the file at the current position.
    Write {
        /// Open file handle.
        file: FileId,
        /// Bytes to write.
        bytes: u64,
    },
    /// Flush all dirty data of the file to the device.
    Sync {
        /// Open file handle.
        file: FileId,
    },
    /// Seek the file position (absolute).
    Seek {
        /// Open file handle.
        file: FileId,
        /// New absolute position.
        pos: u64,
    },
    /// Close the handle.
    Close {
        /// Open file handle.
        file: FileId,
    },
    /// Remove a file by path.
    Delete {
        /// Path to remove.
        path: String,
    },
    /// Drop the file's cached pages (benchmark cache control; mirrors
    /// `echo 3 > /proc/sys/vm/drop_caches` narrowed to one file).
    DropCache {
        /// Open file handle.
        file: FileId,
    },
}

/// A transport call: what [`Action::Net`] carries. `Copy`, so a guest
/// kernel can plan it on its own stack and re-issue it to the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetOp {
    /// Open a transport connection to a modeled remote peer.
    Connect {
        /// The peer model.
        remote: RemoteHost,
    },
    /// Send `bytes` on the connection (blocking until accepted by the NIC).
    Send {
        /// Connection handle.
        conn: ConnId,
        /// Payload bytes.
        bytes: u64,
    },
    /// Receive exactly `bytes` from the connection (peer must be a source).
    Recv {
        /// Connection handle.
        conn: ConnId,
        /// Payload bytes to receive.
        bytes: u64,
    },
    /// Close the connection.
    Close {
        /// Connection handle.
        conn: ConnId,
    },
}

impl NetOp {
    /// The connection the op acts on (`None` for `Connect`).
    pub fn conn(self) -> Option<ConnId> {
        match self {
            NetOp::Connect { .. } => None,
            NetOp::Send { conn, .. } | NetOp::Recv { conn, .. } | NetOp::Close { conn } => {
                Some(conn)
            }
        }
    }

    /// The same op on connection `conn` (`Connect` is returned as is).
    pub fn on(self, conn: ConnId) -> NetOp {
        match self {
            NetOp::Connect { .. } => self,
            NetOp::Send { bytes, .. } => NetOp::Send { conn, bytes },
            NetOp::Recv { bytes, .. } => NetOp::Recv { conn, bytes },
            NetOp::Close { .. } => NetOp::Close { conn },
        }
    }
}

/// What a thread asks the kernel to do next.
#[derive(Debug)]
pub enum Action {
    /// Execute CPU work described by the block. Reference-counted so
    /// bodies that re-issue the same block every quantum (kernel loops,
    /// service duty cycles) share it instead of deep-copying per step.
    Compute(std::rc::Rc<OpBlock>),
    /// A filesystem call, planned by [`crate::FileSystem::apply`].
    File(FileOp),
    /// A transport call, planned by [`crate::NetStack::apply`].
    Net(NetOp),
    /// Block for a simulated duration.
    Sleep(SimDuration),
    /// Give up the CPU, stay ready.
    YieldCpu,
    /// Spawn a new thread.
    Spawn {
        /// Debug name of the new thread.
        name: String,
        /// Scheduling class of the new thread.
        prio: Priority,
        /// Its program.
        body: Box<dyn ThreadBody>,
    },
    /// Block until the given thread exits.
    Join {
        /// Thread to wait for.
        thread: ThreadId,
    },
    /// Terminate this thread.
    Exit,
}

impl Action {
    /// Wrap a freshly-built block as a compute action. Bodies that
    /// re-issue one block repeatedly should instead hold an
    /// `Rc<OpBlock>` and clone the handle.
    pub fn compute(block: OpBlock) -> Self {
        Action::Compute(std::rc::Rc::new(block))
    }
}

/// Result of the previous action, delivered with the next `next()` call.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionResult {
    /// First activation, or the previous action has no payload
    /// (Compute/Sleep/Yield completed).
    None,
    /// `FileOp::Open` succeeded.
    Opened(FileId),
    /// `FileOp::Read` moved this many bytes.
    Read {
        /// Bytes actually read (may be short at EOF).
        bytes: u64,
    },
    /// `FileOp::Write` accepted this many bytes.
    Wrote {
        /// Bytes written.
        bytes: u64,
    },
    /// `FileOp::Sync` finished.
    Synced,
    /// `FileOp::Close` finished.
    Closed,
    /// `FileOp::Delete` finished.
    Deleted,
    /// `FileOp::Seek` finished.
    Sought,
    /// `FileOp::DropCache` finished.
    CacheDropped,
    /// `NetOp::Connect` succeeded.
    Connected(ConnId),
    /// `NetOp::Send` finished.
    Sent {
        /// Bytes sent.
        bytes: u64,
    },
    /// `NetOp::Recv` finished.
    Received {
        /// Bytes received.
        bytes: u64,
    },
    /// `NetOp::Close` finished.
    NetClosed,
    /// Spawn succeeded.
    Spawned(ThreadId),
    /// Join target exited.
    Joined,
    /// The action failed.
    Err(OsError),
}

/// Per-activation context handed to `ThreadBody::next`.
pub struct ThreadCtx<'a> {
    /// Current simulated time (the kernel's clock; for guests this is the
    /// *virtual* clock, which may be distorted — see `vgrid-timeref`).
    pub now: SimTime,
    /// Result of the thread's previous action.
    pub result: ActionResult,
    /// CPU time this thread has consumed so far.
    pub cpu_time: SimDuration,
    /// This thread's id.
    pub me: ThreadId,
    /// Deterministic per-thread random stream.
    pub rng: &'a mut SimRng,
}

/// A simulated program: a resumable state machine of [`Action`]s.
pub trait ThreadBody: std::fmt::Debug {
    /// Produce the next action. `ctx.result` carries the previous action's
    /// outcome ([`ActionResult::None`] on first activation).
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_matches_classes() {
        assert!(Priority::Idle < Priority::BelowNormal);
        assert!(Priority::BelowNormal < Priority::Normal);
        assert!(Priority::Normal < Priority::AboveNormal);
        assert!(Priority::AboveNormal < Priority::High);
        assert!(Priority::High < Priority::Realtime);
    }

    #[test]
    fn remote_presets() {
        assert_eq!(RemoteHost::lan_sink().kind, RemoteKind::Sink);
        assert_eq!(RemoteHost::lan_source().kind, RemoteKind::Source);
        assert!(RemoteHost::lan_sink().one_way_delay > SimDuration::ZERO);
    }

    #[test]
    fn action_result_equality() {
        assert_eq!(ActionResult::None, ActionResult::None);
        assert_ne!(
            ActionResult::Read { bytes: 1 },
            ActionResult::Read { bytes: 2 }
        );
        assert_eq!(
            ActionResult::Err(OsError::NotFound),
            ActionResult::Err(OsError::NotFound)
        );
    }
}
