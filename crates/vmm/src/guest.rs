//! The guest virtual machine: a nested single-vCPU kernel.
//!
//! [`GuestVm`] is a complete guest operating system instance — its own
//! scheduler (round-robin over one virtual CPU, like the paper's
//! single-CPU 300 MB Ubuntu guests), its own filesystem with its own page
//! cache, its own network stack, and its own (distortable) clock. It is
//! *externally clocked*: it makes progress only when the host schedules
//! its vCPU thread, which drives it through a step/complete protocol:
//!
//! 1. the vCPU body calls [`GuestVm::step`], receiving either a
//!    [`GuestStep::Compute`] block (guest instructions, already dilated
//!    into host work by the VMM profile), a device operation that must
//!    escape to the host ([`GuestStep::DiskIo`], [`GuestStep::Net`]), or
//!    an idle report;
//! 2. the body performs the host-side work and calls
//!    [`GuestVm::complete_compute`] / [`GuestVm::complete_io`];
//! 3. repeat.
//!
//! This double traversal — guest syscall + guest FS + guest stack, then
//! world switch, then host file/net I/O — is exactly the structure that
//! makes guest I/O expensive in the paper's Figure 3/4, and it emerges
//! here from composition rather than from a fitted curve.

use crate::profiles::{VmmProfile, VnicMode};
use std::collections::VecDeque;
use vgrid_machine::ops::OpBlock;
use vgrid_machine::{CpuModel, DiskRequest, DiskRequestKind, MachineSpec};
use vgrid_os::fs::{FileSystem, FsConfig};
use vgrid_os::net::{NetConfig, NetStack};
use vgrid_os::{Action, ActionResult, ConnId, RemoteHost, ThreadBody, ThreadCtx, ThreadId};
use vgrid_simcore::{SimDuration, SimRng, SimTime};
use vgrid_timeref::{GuestClock, GuestClockConfig};

/// Guest construction parameters.
#[derive(Debug, Clone)]
pub struct GuestConfig {
    /// The monitor hosting this guest.
    pub profile: VmmProfile,
    /// Number of virtual CPUs (the paper's guests use 1; VMware Player
    /// of the era supported 2-way virtual SMP).
    pub vcpus: u32,
    /// vNIC attachment mode.
    pub vnic_mode: VnicMode,
    /// Guest scheduler quantum.
    pub quantum: SimDuration,
    /// Maximum guest compute chunk surfaced per step (bounds how long the
    /// guest runs between clock/scheduler bookkeeping points).
    pub chunk: SimDuration,
    /// Seed for guest-side randomness.
    pub seed: u64,
}

impl GuestConfig {
    /// Defaults for a given profile (paper setup: 300 MB single-vCPU
    /// Ubuntu guest, default vNIC mode of the product).
    pub fn new(profile: VmmProfile) -> Self {
        let vnic_mode = profile.default_vnic;
        GuestConfig {
            profile,
            vcpus: 1,
            vnic_mode,
            quantum: SimDuration::from_millis(20),
            chunk: SimDuration::from_millis(5),
            seed: 0x6e57,
        }
    }

    /// Configure a virtual SMP guest with `n` vCPUs.
    pub fn with_vcpus(mut self, n: u32) -> Self {
        self.vcpus = n.max(1);
        self
    }

    /// Override the vNIC mode (the paper measures VmPlayer both bridged
    /// and NAT).
    pub fn with_vnic(mut self, mode: VnicMode) -> Self {
        self.vnic_mode = mode;
        self
    }
}

/// What the vCPU must do next on the host.
#[derive(Debug)]
pub enum GuestStep {
    /// Execute this block (already dilated to host work), then call
    /// [`GuestVm::complete_compute`].
    Compute(OpBlock),
    /// Perform a virtual-disk request: run `overhead` (device-model CPU),
    /// then the host image I/O, then call [`GuestVm::complete_io`].
    DiskIo {
        /// Read or write the image.
        kind: DiskRequestKind,
        /// Byte offset within the image file.
        offset: u64,
        /// Transfer size.
        bytes: u64,
        /// Host CPU cost of the device emulation.
        overhead: OpBlock,
    },
    /// Perform a virtual-NIC operation: run `overhead`, then the host
    /// network action, then call [`GuestVm::complete_io`].
    Net(GuestNetOp),
    /// No guest thread is runnable; the vCPU may halt until the given
    /// host time (if any wake is pending) or indefinitely.
    Idle {
        /// Earliest pending guest wake-up, in host time.
        until: Option<SimTime>,
    },
    /// Every guest thread has exited.
    Halted,
}

/// A guest network operation escaping to the host.
#[derive(Debug)]
pub enum GuestNetOp {
    /// Open a host-side connection on behalf of the guest connection.
    Connect {
        /// Guest-side connection id (for the body's mapping table).
        guest_conn: ConnId,
        /// The peer.
        remote: RemoteHost,
        /// Host CPU cost of the vNIC path.
        overhead: OpBlock,
    },
    /// Forward payload from the guest.
    Send {
        /// Guest-side connection id.
        guest_conn: ConnId,
        /// Payload bytes.
        bytes: u64,
        /// Host CPU cost of the vNIC path (per-frame translation).
        overhead: OpBlock,
    },
    /// Receive payload for the guest.
    Recv {
        /// Guest-side connection id.
        guest_conn: ConnId,
        /// Payload bytes.
        bytes: u64,
        /// Host CPU cost of the vNIC path.
        overhead: OpBlock,
    },
    /// Tear down the host-side connection.
    Close {
        /// Guest-side connection id.
        guest_conn: ConnId,
        /// Host CPU cost.
        overhead: OpBlock,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    Ready,
    Running,
    Blocked,
    Exited,
}

#[derive(Debug)]
enum GCont {
    Resume,
    Deliver(ActionResult),
    Disk {
        reqs: VecDeque<DiskRequest>,
        result: ActionResult,
    },
    Net(NetKind),
}

#[derive(Debug)]
enum NetKind {
    Connect {
        remote: RemoteHost,
        result: ActionResult,
    },
    Send {
        conn: ConnId,
        bytes: u64,
        result: ActionResult,
    },
    Recv {
        conn: ConnId,
        bytes: u64,
        result: ActionResult,
    },
    Close {
        conn: ConnId,
        result: ActionResult,
    },
}

#[derive(Debug)]
struct GExec {
    /// Guest-side remaining work.
    block: OpBlock,
    /// Guest-side piece currently executing on the host.
    in_flight: Option<OpBlock>,
    cont: GCont,
}

#[derive(Debug)]
struct GThread {
    name: String,
    body: Option<Box<dyn ThreadBody>>,
    pending: ActionResult,
    exec: Option<GExec>,
    state: GState,
    rng: SimRng,
    quantum_left: SimDuration,
    /// Guest work executed (undilated guest-seconds).
    cpu_time: SimDuration,
    wake_at: Option<SimTime>,
    joiners: Vec<usize>,
}

#[derive(Debug)]
enum PendingHost {
    Disk {
        tid: usize,
        reqs: VecDeque<DiskRequest>,
        result: ActionResult,
    },
    /// A network operation escaped to the host; `kind` carries its
    /// parameters and the guest-side result delivered on completion.
    Net { tid: usize, kind: NetKind },
}

/// Per-virtual-CPU execution state.
#[derive(Debug, Default)]
struct VcpuState {
    /// Guest thread currently bound to this vCPU.
    current: Option<usize>,
    /// Host operation this vCPU has escaped to, if any.
    pending_host: Option<PendingHost>,
}

/// The nested guest kernel.
#[derive(Debug)]
pub struct GuestVm {
    cfg: GuestConfig,
    cpu: CpuModel,
    ops_per_sec: f64,
    /// Guest filesystem (public for experiment setup inside the guest).
    pub fs: FileSystem,
    net: NetStack,
    /// The guest's distortable clock.
    pub clock: GuestClock,
    threads: Vec<GThread>,
    ready: VecDeque<usize>,
    vcpus: Vec<VcpuState>,
    rng: SimRng,
}

const ACTIVATION_FUSE: u32 = 10_000;

impl GuestVm {
    /// Build a guest over the host machine's CPU model.
    pub fn new(cfg: GuestConfig, host: &MachineSpec) -> Self {
        let cpu = host.cpu_model();
        let ops_per_sec = host.cpu.freq_hz as f64 * host.cpu.int_ops_per_cycle;
        let fs = FileSystem::new(FsConfig::for_ram(cfg.profile.guest_ram));
        // The guest's NIC driver/stack cost per frame: kept small here
        // because the expensive half of the virtual network path (the
        // monitor-side translation) is charged by the profile's vNIC
        // overhead blocks — this avoids double counting.
        let net = NetStack::new(
            NetConfig {
                syscall_kernel_ops: 4,
                kernel_ops_per_frame: 4,
            },
            host.nic_model(),
        );
        let clock = GuestClock::new(GuestClockConfig {
            loss_fraction: cfg.profile.tick_loss,
            ..Default::default()
        });
        let rng = SimRng::new(cfg.seed);
        let vcpus = (0..cfg.vcpus.max(1))
            .map(|_| VcpuState::default())
            .collect();
        GuestVm {
            cfg,
            cpu,
            ops_per_sec,
            fs,
            net,
            clock,
            threads: Vec::new(),
            ready: VecDeque::new(),
            vcpus,
            rng,
        }
    }

    /// Number of virtual CPUs.
    pub fn vcpu_count(&self) -> usize {
        self.vcpus.len()
    }

    /// The profile of the hosting monitor.
    pub fn profile(&self) -> &VmmProfile {
        &self.cfg.profile
    }

    /// The vNIC mode in use.
    pub fn vnic_mode(&self) -> VnicMode {
        self.cfg.vnic_mode
    }

    /// Ethernet frames the virtual link needs for a `bytes`-sized
    /// transfer (what the NAT vNIC translates per frame).
    pub fn frames_for(&self, bytes: u64) -> u64 {
        self.net.nic().link.frames_for(bytes)
    }

    /// Spawn a guest thread.
    pub fn spawn(&mut self, name: impl Into<String>, body: Box<dyn ThreadBody>) -> ThreadId {
        let idx = self.threads.len();
        let rng = self.rng.fork(0x9000 + idx as u64);
        self.threads.push(GThread {
            name: name.into(),
            body: Some(body),
            pending: ActionResult::None,
            exec: None,
            state: GState::Ready,
            rng,
            quantum_left: self.cfg.quantum,
            cpu_time: SimDuration::ZERO,
            wake_at: None,
            joiners: Vec::new(),
        });
        self.ready.push_back(idx);
        ThreadId(idx as u32)
    }

    /// Guest-side CPU time of a guest thread (undilated guest work).
    pub fn guest_cpu_time(&self, tid: ThreadId) -> SimDuration {
        self.threads[tid.0 as usize].cpu_time
    }

    /// True when every guest thread exited.
    pub fn halted(&self) -> bool {
        !self.threads.is_empty() && self.threads.iter().all(|t| t.state == GState::Exited)
    }

    /// Ask the guest what vCPU `v` should do next. Must not be called
    /// while that vCPU has a compute piece or disk operation
    /// outstanding; a pending network escape is surfaced again (as
    /// [`GuestStep::Net`]) until [`GuestVm::complete_io`] retires it.
    pub fn step(&mut self, v: usize, host_now: SimTime) -> GuestStep {
        if let Some(PendingHost::Net { kind, .. }) = &self.vcpus[v].pending_host {
            return GuestStep::Net(self.net_step_for(kind));
        }
        self.clock.observe(host_now);
        // Outstanding host work queue first (multi-request FS plans).
        if let Some(step) = self.pending_host_step(v) {
            return step;
        }
        // Wake sleepers.
        for idx in 0..self.threads.len() {
            let th = &mut self.threads[idx];
            if th.state == GState::Blocked {
                if let Some(w) = th.wake_at {
                    if w <= host_now {
                        th.wake_at = None;
                        th.state = GState::Ready;
                        self.ready.push_back(idx);
                    }
                }
            }
        }
        // Ensure a current thread on this vCPU.
        if self.vcpus[v].current.is_none() {
            self.vcpus[v].current = self.ready.pop_front();
            if let Some(idx) = self.vcpus[v].current {
                let th = &mut self.threads[idx];
                th.state = GState::Running;
                if th.quantum_left <= SimDuration::from_nanos(1) {
                    th.quantum_left = self.cfg.quantum;
                }
            }
        }
        let Some(idx) = self.vcpus[v].current else {
            if self.halted() {
                return GuestStep::Halted;
            }
            let until = self
                .threads
                .iter()
                .filter(|t| t.state == GState::Blocked)
                .filter_map(|t| t.wake_at)
                .min();
            return GuestStep::Idle { until };
        };
        // Activation loop: pull actions until a timed one.
        if self.threads[idx].exec.is_none() {
            if let Some(step) = self.activate(v, idx, host_now) {
                return step;
            }
            // Thread blocked/exited/yielded during activation: recurse to
            // pick another (bounded by thread count, not unbounded: each
            // recursion retires at least one activation).
            return self.step(v, host_now);
        }
        // Slice off the next chunk of the current exec.
        let chunk = self.cfg.chunk;
        let th = &mut self.threads[idx];
        let exec = th.exec.as_mut().expect("checked above");
        assert!(exec.in_flight.is_none(), "step() with piece outstanding");
        let est = self.cpu.solo_estimate(&exec.block);
        let budget = chunk.min(th.quantum_left.max(SimDuration::from_millis(1)));
        let piece = if est.duration <= budget {
            std::mem::replace(&mut exec.block, OpBlock::int_alu(0))
        } else {
            let frac = budget.as_secs_f64() / est.duration.as_secs_f64();
            exec.block.split_off(frac)
        };
        let host_block = self.cfg.profile.dilate(&piece);
        exec.in_flight = Some(piece);
        GuestStep::Compute(host_block)
    }

    fn pending_host_step(&mut self, v: usize) -> Option<GuestStep> {
        match &self.vcpus[v].pending_host {
            Some(PendingHost::Disk { reqs, .. }) if !reqs.is_empty() => {
                let req = reqs.front().expect("non-empty");
                Some(GuestStep::DiskIo {
                    kind: req.kind,
                    offset: req.offset,
                    bytes: req.bytes,
                    overhead: self
                        .cfg
                        .profile
                        .disk_overhead_block(req.bytes, self.ops_per_sec),
                })
            }
            _ => None,
        }
    }

    /// Activation loop; returns a host step if the action needs one
    /// immediately (net ops), else None after installing exec/changing
    /// state.
    fn activate(&mut self, v: usize, idx: usize, host_now: SimTime) -> Option<GuestStep> {
        let mut fuse = 0;
        loop {
            fuse += 1;
            assert!(
                fuse < ACTIVATION_FUSE,
                "guest thread '{}' spinning on zero-time actions",
                self.threads[idx].name
            );
            let mut body = self.threads[idx].body.take().expect("body present");
            let result = std::mem::replace(&mut self.threads[idx].pending, ActionResult::None);
            let cpu_time = self.threads[idx].cpu_time;
            let action = {
                let th = &mut self.threads[idx];
                let mut ctx = ThreadCtx {
                    // Guest code sees the *guest* clock.
                    now: self.clock.now(),
                    result,
                    cpu_time,
                    me: ThreadId(idx as u32),
                    rng: &mut th.rng,
                };
                body.next(&mut ctx)
            };
            self.threads[idx].body = Some(body);
            match action {
                Action::Compute(block) => {
                    if self.cpu.solo_estimate(&block).duration.is_zero() {
                        self.threads[idx].pending = ActionResult::None;
                        continue;
                    }
                    // The guest mutates its copy as it slices work off,
                    // so unshare the body's handle here.
                    let block = std::rc::Rc::unwrap_or_clone(block);
                    self.threads[idx].exec = Some(GExec {
                        block,
                        in_flight: None,
                        cont: GCont::Resume,
                    });
                    return None;
                }
                Action::FileOpen {
                    path,
                    create,
                    truncate,
                    direct,
                } => {
                    let plan = self.fs.open(&path, create, truncate, direct);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileRead { file, bytes } => {
                    let plan = self.fs.read(file, bytes);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileWrite { file, bytes } => {
                    let plan = self.fs.write(file, bytes);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileSync { file } => {
                    let plan = self.fs.sync(file);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileSeek { file, pos } => {
                    let plan = self.fs.seek(file, pos);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileClose { file } => {
                    let plan = self.fs.close(file);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileDelete { path } => {
                    let plan = self.fs.delete(&path);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::FileDropCache { file } => {
                    let plan = self.fs.drop_cache(file);
                    self.install_plan(idx, plan.cpu, plan.disk, plan.result);
                    return None;
                }
                Action::NetConnect { remote } => {
                    let plan = self.net.connect(remote);
                    let result = plan.result.clone();
                    self.threads[idx].exec = Some(GExec {
                        block: plan.cpu,
                        in_flight: None,
                        cont: GCont::Net(NetKind::Connect { remote, result }),
                    });
                    return None;
                }
                Action::NetSend { conn, bytes } => {
                    let plan = self.net.send(conn, bytes);
                    let result = plan.result.clone();
                    self.threads[idx].exec = Some(GExec {
                        block: plan.cpu,
                        in_flight: None,
                        cont: GCont::Net(NetKind::Send {
                            conn,
                            bytes,
                            result,
                        }),
                    });
                    return None;
                }
                Action::NetRecv { conn, bytes } => {
                    let plan = self.net.recv(conn, bytes);
                    let result = plan.result.clone();
                    self.threads[idx].exec = Some(GExec {
                        block: plan.cpu,
                        in_flight: None,
                        cont: GCont::Net(NetKind::Recv {
                            conn,
                            bytes,
                            result,
                        }),
                    });
                    return None;
                }
                Action::NetClose { conn } => {
                    let plan = self.net.close(conn);
                    let result = plan.result.clone();
                    self.threads[idx].exec = Some(GExec {
                        block: plan.cpu,
                        in_flight: None,
                        cont: GCont::Net(NetKind::Close { conn, result }),
                    });
                    return None;
                }
                Action::Sleep(d) => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = GState::Blocked;
                    th.wake_at = Some(host_now + d);
                    self.vcpus[v].current = None;
                    return None;
                }
                Action::YieldCpu => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = GState::Ready;
                    th.quantum_left = self.cfg.quantum;
                    self.ready.push_back(idx);
                    self.vcpus[v].current = None;
                    return None;
                }
                Action::Spawn { name, body, .. } => {
                    // Guest priorities are ignored: single-vCPU RR.
                    let tid = self.spawn(name, body);
                    self.threads[idx].pending = ActionResult::Spawned(tid);
                    continue;
                }
                Action::Join { thread } => {
                    let target = thread.0 as usize;
                    if self.threads[target].state == GState::Exited {
                        self.threads[idx].pending = ActionResult::Joined;
                        continue;
                    }
                    self.threads[target].joiners.push(idx);
                    self.threads[idx].state = GState::Blocked;
                    self.vcpus[v].current = None;
                    return None;
                }
                Action::Exit => {
                    let joiners = {
                        let th = &mut self.threads[idx];
                        th.state = GState::Exited;
                        std::mem::take(&mut th.joiners)
                    };
                    for j in joiners {
                        let jt = &mut self.threads[j];
                        if jt.state == GState::Blocked {
                            jt.pending = ActionResult::Joined;
                            jt.state = GState::Ready;
                            self.ready.push_back(j);
                        }
                    }
                    self.vcpus[v].current = None;
                    return None;
                }
            }
        }
    }

    fn install_plan(
        &mut self,
        idx: usize,
        cpu: OpBlock,
        disk: Vec<DiskRequest>,
        result: ActionResult,
    ) {
        let cont = if disk.is_empty() {
            GCont::Deliver(result)
        } else {
            GCont::Disk {
                reqs: disk.into(),
                result,
            }
        };
        self.threads[idx].exec = Some(GExec {
            block: cpu,
            in_flight: None,
            cont,
        });
    }

    /// The compute piece returned by the last [`GuestVm::step`] on vCPU
    /// `v` finished on the host at `host_now`. `serviced` is how much of
    /// the elapsed host time the vCPU thread actually executed (its
    /// CPU-time delta); the remainder was starvation, which costs guest
    /// timer ticks.
    pub fn complete_compute(&mut self, v: usize, host_now: SimTime, serviced: SimDuration) {
        self.clock.observe_with_service(host_now, serviced);
        let idx = self.vcpus[v].current.expect("a guest thread was computing");
        let quantum;
        let finished;
        {
            let th = &mut self.threads[idx];
            let exec = th.exec.as_mut().expect("exec present");
            let piece = exec.in_flight.take().expect("piece outstanding");
            let guest_secs = self.cpu.solo_estimate(&piece).duration;
            th.cpu_time += guest_secs;
            th.quantum_left = th.quantum_left.saturating_sub(guest_secs);
            quantum = th.quantum_left;
            finished = exec.block.is_empty();
        }
        if finished {
            let exec = self.threads[idx].exec.take().expect("present");
            match exec.cont {
                GCont::Resume => {
                    self.threads[idx].pending = ActionResult::None;
                }
                GCont::Deliver(r) => {
                    self.threads[idx].pending = r;
                }
                GCont::Disk { reqs, result } => {
                    self.threads[idx].state = GState::Blocked;
                    self.vcpus[v].pending_host = Some(PendingHost::Disk {
                        tid: idx,
                        reqs,
                        result,
                    });
                    self.vcpus[v].current = None;
                }
                GCont::Net(kind) => {
                    self.threads[idx].state = GState::Blocked;
                    self.vcpus[v].current = None;
                    self.vcpus[v].pending_host = Some(PendingHost::Net { tid: idx, kind });
                }
            }
        } else if quantum <= SimDuration::from_nanos(1) && !self.ready.is_empty() {
            // Guest quantum rotation.
            let th = &mut self.threads[idx];
            th.state = GState::Ready;
            th.quantum_left = self.cfg.quantum;
            self.ready.push_back(idx);
            self.vcpus[v].current = None;
        }
    }

    /// The net step corresponding to a pending net op (called by the body
    /// right after the compute that carried the guest stack work).
    fn net_step_for(&self, kind: &NetKind) -> GuestNetOp {
        let frames = |bytes: u64| self.net.nic().link.frames_for(bytes);
        let mode = self.cfg.vnic_mode;
        match kind {
            NetKind::Connect { remote, result } => {
                let ActionResult::Connected(c) = result else {
                    unreachable!("connect result")
                };
                GuestNetOp::Connect {
                    guest_conn: *c,
                    remote: *remote,
                    overhead: self
                        .cfg
                        .profile
                        .net_overhead_block(2, mode, self.ops_per_sec),
                }
            }
            NetKind::Send { conn, bytes, .. } => GuestNetOp::Send {
                guest_conn: *conn,
                bytes: *bytes,
                overhead: self.cfg.profile.net_overhead_block(
                    frames(*bytes),
                    mode,
                    self.ops_per_sec,
                ),
            },
            NetKind::Recv { conn, bytes, .. } => GuestNetOp::Recv {
                guest_conn: *conn,
                bytes: *bytes,
                overhead: self.cfg.profile.net_overhead_block(
                    frames(*bytes),
                    mode,
                    self.ops_per_sec,
                ),
            },
            NetKind::Close { conn, .. } => GuestNetOp::Close {
                guest_conn: *conn,
                overhead: self
                    .cfg
                    .profile
                    .net_overhead_block(1, mode, self.ops_per_sec),
            },
        }
    }

    /// A host I/O operation issued for the guest on vCPU `v` completed.
    /// I/O service gaps are fully serviced (the monitor keeps delivering
    /// ticks while the guest waits for its own devices).
    pub fn complete_io(&mut self, v: usize, host_now: SimTime) {
        self.clock.observe_with_service(host_now, SimDuration::MAX);
        match self.vcpus[v].pending_host.take() {
            Some(PendingHost::Disk {
                tid,
                mut reqs,
                result,
            }) => {
                reqs.pop_front().expect("a request was outstanding");
                if reqs.is_empty() {
                    self.deliver(tid, result);
                } else {
                    self.vcpus[v].pending_host = Some(PendingHost::Disk { tid, reqs, result });
                }
            }
            Some(PendingHost::Net { tid, kind }) => {
                let result = match kind {
                    NetKind::Connect { result, .. }
                    | NetKind::Send { result, .. }
                    | NetKind::Recv { result, .. }
                    | NetKind::Close { result, .. } => result,
                };
                self.deliver(tid, result);
            }
            None => panic!("complete_io with no pending host operation"),
        }
    }

    fn deliver(&mut self, tid: usize, result: ActionResult) {
        let th = &mut self.threads[tid];
        th.pending = result;
        if th.state == GState::Blocked {
            th.state = GState::Ready;
            self.ready.push_back(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_machine::ops::OpBlock as OB;

    #[derive(Debug)]
    struct Burn {
        iters: u32,
    }
    impl ThreadBody for Burn {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.iters == 0 {
                return Action::Exit;
            }
            self.iters -= 1;
            Action::compute(OB::int_alu(24_000_000)) // 4 ms guest
        }
    }

    fn guest(profile: VmmProfile) -> GuestVm {
        GuestVm::new(GuestConfig::new(profile), &MachineSpec::core2_duo_6600())
    }

    #[test]
    fn compute_steps_are_dilated() {
        let mut g = guest(VmmProfile::qemu());
        g.spawn("burn", Box::new(Burn { iters: 1 }));
        let step = g.step(0, SimTime::ZERO);
        let GuestStep::Compute(block) = step else {
            panic!("expected compute, got {step:?}")
        };
        // QEMU int dilation 2.95: 24M guest ops -> 70.8M host ops.
        assert_eq!(block.counts.int_ops, 70_800_000);
        g.complete_compute(0, SimTime::from_millis(10), SimDuration::MAX);
        let step = g.step(0, SimTime::from_millis(10));
        assert!(matches!(step, GuestStep::Halted), "{step:?}");
    }

    #[test]
    fn long_blocks_are_chunked() {
        let mut g = guest(VmmProfile::vmplayer());
        // 100 ms of guest work must surface in <= 5 ms chunks.
        #[derive(Debug)]
        struct Big;
        impl ThreadBody for Big {
            fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
                if ctx.cpu_time.is_zero() {
                    Action::compute(OB::int_alu(600_000_000)) // 100 ms guest
                } else {
                    Action::Exit
                }
            }
        }
        g.spawn("big", Box::new(Big));
        let mut host = SimTime::ZERO;
        let mut chunks = 0;
        loop {
            match g.step(0, host) {
                GuestStep::Compute(b) => {
                    chunks += 1;
                    // <= 5 ms guest at 6e9 ops/s = 30M guest ops; dilated
                    // by 1.16 -> <= ~35M.
                    assert!(b.counts.int_ops <= 36_000_000, "chunk {}", b.counts.int_ops);
                    host += SimDuration::from_millis(6);
                    g.complete_compute(0, host, SimDuration::MAX);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(chunks < 100, "too many chunks");
        }
        assert!(chunks >= 20, "expected ~20 chunks, got {chunks}");
    }

    #[test]
    fn guest_cpu_time_tracks_undilated_work() {
        let mut g = guest(VmmProfile::qemu());
        let tid = g.spawn("burn", Box::new(Burn { iters: 2 }));
        let mut host = SimTime::ZERO;
        loop {
            match g.step(0, host) {
                GuestStep::Compute(_) => {
                    host += SimDuration::from_millis(20);
                    g.complete_compute(0, host, SimDuration::MAX);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // 2 x 24M int ops at 6e9 ops/s = 8 ms guest work, regardless of
        // QEMU's dilation.
        let t = g.guest_cpu_time(tid).as_millis_f64();
        assert!((t - 8.0).abs() < 0.5, "guest cpu {t} ms");
    }

    #[derive(Debug)]
    struct GuestWriter {
        phase: u8,
        file: Option<vgrid_os::FileId>,
    }
    impl ThreadBody for GuestWriter {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::FileOpen {
                        path: "/guest-data".into(),
                        create: true,
                        truncate: true,
                        direct: false,
                    }
                }
                1 => {
                    let ActionResult::Opened(id) = ctx.result else {
                        panic!("{:?}", ctx.result)
                    };
                    self.file = Some(id);
                    self.phase = 2;
                    Action::FileWrite {
                        file: id,
                        bytes: 1 << 20,
                    }
                }
                2 => {
                    self.phase = 3;
                    Action::FileSync {
                        file: self.file.expect("opened"),
                    }
                }
                _ => Action::Exit,
            }
        }
    }

    #[test]
    fn guest_file_sync_escapes_to_host_disk_io() {
        let mut g = guest(VmmProfile::vmplayer());
        g.spawn(
            "writer",
            Box::new(GuestWriter {
                phase: 0,
                file: None,
            }),
        );
        let mut host = SimTime::ZERO;
        let mut saw_disk_io = false;
        for _ in 0..200 {
            match g.step(0, host) {
                GuestStep::Compute(_) => {
                    host += SimDuration::from_millis(2);
                    g.complete_compute(0, host, SimDuration::MAX);
                }
                GuestStep::DiskIo {
                    kind,
                    bytes,
                    overhead,
                    ..
                } => {
                    saw_disk_io = true;
                    assert_eq!(kind, DiskRequestKind::Write);
                    assert_eq!(bytes, 1 << 20);
                    assert!(overhead.counts.int_ops > 0, "emulation costs CPU");
                    host += SimDuration::from_millis(20);
                    g.complete_io(0, host);
                }
                GuestStep::Halted => break,
                GuestStep::Idle { .. } => {
                    host += SimDuration::from_millis(1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_disk_io, "sync must reach the virtual disk");
        assert!(g.halted());
    }

    #[test]
    fn idle_guest_reports_wakeup() {
        #[derive(Debug)]
        struct Sleeper {
            done: bool,
        }
        impl ThreadBody for Sleeper {
            fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                if self.done {
                    return Action::Exit;
                }
                self.done = true;
                Action::Sleep(SimDuration::from_millis(50))
            }
        }
        let mut g = guest(VmmProfile::virtualbox());
        g.spawn("sleeper", Box::new(Sleeper { done: false }));
        let step = g.step(0, SimTime::ZERO);
        let GuestStep::Idle { until } = step else {
            panic!("{step:?}")
        };
        assert_eq!(until, Some(SimTime::from_millis(50)));
        // After the wake time the thread exits.
        let step = g.step(0, SimTime::from_millis(60));
        assert!(matches!(step, GuestStep::Halted), "{step:?}");
    }

    #[test]
    fn guest_clock_lags_when_vcpu_starved() {
        let mut g = guest(VmmProfile::vmplayer());
        g.spawn("burn", Box::new(Burn { iters: 100 }));
        let mut host = SimTime::ZERO;
        for _ in 0..10 {
            match g.step(0, host) {
                GuestStep::Compute(_) => {
                    // Host starves the vCPU: each 4 ms chunk takes 500 ms,
                    // of which only ~5 ms was actual execution.
                    host += SimDuration::from_millis(500);
                    g.complete_compute(0, host, SimDuration::from_millis(5));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            g.clock.total_lag() > SimDuration::from_millis(500),
            "lag {}",
            g.clock.total_lag()
        );
    }
}
