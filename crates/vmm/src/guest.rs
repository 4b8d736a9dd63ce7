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
//!
//! The guest's file and network actions are decoded by the same `os`
//! code the host uses ([`FileSystem::apply`], [`NetStack::apply`]); the
//! guest kernel only decides how their plans are timed. A guest network
//! op the guest stack accepts surfaces unchanged in [`GuestStep::Net`],
//! so the vCPU re-issues the very same [`NetOp`] on the host stack after
//! mapping the connection; one it rejects (stale connection, receive
//! from a sink) fails in the guest with the error a native thread gets.

use crate::profiles::{VmmProfile, VnicMode};
use std::collections::VecDeque;
use vgrid_machine::ops::OpBlock;
use vgrid_machine::{CpuModel, DiskRequest, DiskRequestKind, MachineSpec};
use vgrid_os::fs::{FileSystem, FsConfig, IoPlan};
use vgrid_os::net::{NetConfig, NetPlan, NetStack};
use vgrid_os::{Action, ActionResult, ConnId, NetOp, ThreadBody, ThreadCtx, ThreadId};
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
    /// Perform a virtual-NIC operation: run `overhead`, then re-issue
    /// `op` on the host connection that stands for `guest_conn`, then
    /// call [`GuestVm::complete_io`].
    Net {
        /// The op as the guest issued it (connection ids are guest-side).
        op: NetOp,
        /// Guest connection the op acts on; for a connect, the one the
        /// guest stack just opened.
        guest_conn: ConnId,
        /// Host CPU cost of the vNIC path (per-frame translation).
        overhead: OpBlock,
    },
    /// No guest thread is runnable; the vCPU may halt until the given
    /// host time (if any wake is pending) or indefinitely.
    Idle {
        /// Earliest pending guest wake-up, in host time.
        until: Option<SimTime>,
    },
    /// Every guest thread has exited.
    Halted,
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
    Net {
        op: NetOp,
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
    /// A network operation escaped to the host, with the guest-side
    /// result delivered on completion.
    Net {
        tid: usize,
        op: NetOp,
        result: ActionResult,
    },
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
        if let Some(PendingHost::Net { op, result, .. }) = &self.vcpus[v].pending_host {
            return self.net_step_for(*op, result);
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
                    self.install(idx, std::rc::Rc::unwrap_or_clone(block), GCont::Resume);
                    return None;
                }
                Action::File(op) => {
                    let IoPlan { cpu, disk, result } = self.fs.apply(op);
                    let cont = if disk.is_empty() {
                        GCont::Deliver(result)
                    } else {
                        GCont::Disk {
                            reqs: disk.into(),
                            result,
                        }
                    };
                    self.install(idx, cpu, cont);
                    return None;
                }
                Action::Net(op) => {
                    let NetPlan { cpu, result, .. } = self.net.apply(op);
                    // An op the guest stack rejects fails in the guest,
                    // like a file op; only a successful one reaches the
                    // host's stack through the virtual NIC.
                    let cont = if matches!(result, ActionResult::Err(_)) {
                        GCont::Deliver(result)
                    } else {
                        GCont::Net { op, result }
                    };
                    self.install(idx, cpu, cont);
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

    /// Make `block` guest thread `idx`'s work, followed by `cont`.
    fn install(&mut self, idx: usize, block: OpBlock, cont: GCont) {
        self.threads[idx].exec = Some(GExec {
            block,
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
                GCont::Net { op, result } => {
                    self.threads[idx].state = GState::Blocked;
                    self.vcpus[v].current = None;
                    self.vcpus[v].pending_host = Some(PendingHost::Net {
                        tid: idx,
                        op,
                        result,
                    });
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
    fn net_step_for(&self, op: NetOp, result: &ActionResult) -> GuestStep {
        let guest_conn = match (op.conn(), result) {
            (Some(conn), _) | (None, &ActionResult::Connected(conn)) => conn,
            (None, other) => unreachable!("connect result {other:?}"),
        };
        let frames = match op {
            NetOp::Connect { .. } => 2,
            NetOp::Close { .. } => 1,
            NetOp::Send { bytes, .. } | NetOp::Recv { bytes, .. } => self.frames_for(bytes),
        };
        GuestStep::Net {
            op,
            guest_conn,
            overhead: self.cfg.profile.net_overhead_block(
                frames,
                self.cfg.vnic_mode,
                self.ops_per_sec,
            ),
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
            Some(PendingHost::Net { tid, result, .. }) => self.deliver(tid, result),
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
    use vgrid_os::FileOp;

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
                    Action::File(FileOp::Open {
                        path: "/guest-data".into(),
                        create: true,
                        truncate: true,
                        direct: false,
                    })
                }
                1 => {
                    let ActionResult::Opened(id) = ctx.result else {
                        panic!("{:?}", ctx.result)
                    };
                    self.file = Some(id);
                    self.phase = 2;
                    Action::File(FileOp::Write {
                        file: id,
                        bytes: 1 << 20,
                    })
                }
                2 => {
                    self.phase = 3;
                    Action::File(FileOp::Sync {
                        file: self.file.expect("opened"),
                    })
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

    /// Connect → send → receive → close from inside the guest, recording
    /// every result the guest thread is handed.
    #[derive(Debug)]
    struct GuestNet {
        conn: Option<ConnId>,
        seen: std::rc::Rc<std::cell::RefCell<Vec<ActionResult>>>,
    }
    impl ThreadBody for GuestNet {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            if let ActionResult::Connected(c) = ctx.result {
                self.conn = Some(c);
            }
            let mut seen = self.seen.borrow_mut();
            if ctx.result != ActionResult::None {
                seen.push(ctx.result.clone());
            }
            let conn = || self.conn.expect("connected");
            Action::Net(match seen.len() {
                0 => NetOp::Connect {
                    remote: vgrid_os::RemoteHost::lan_source(),
                },
                1 => NetOp::Send {
                    conn: conn(),
                    bytes: 10_000,
                },
                2 => NetOp::Recv {
                    conn: conn(),
                    bytes: 70_000,
                },
                3 => NetOp::Close { conn: conn() },
                _ => return Action::Exit,
            })
        }
    }

    #[test]
    fn guest_net_ops_escape_to_host_in_order() {
        let mut g = GuestVm::new(
            GuestConfig::new(VmmProfile::vmplayer()).with_vnic(VnicMode::Nat),
            &MachineSpec::core2_duo_6600(),
        );
        let seen = std::rc::Rc::default();
        let body = GuestNet {
            conn: None,
            seen: std::rc::Rc::clone(&seen),
        };
        g.spawn("net", Box::new(body));
        let mut host = SimTime::ZERO;
        let mut escapes = Vec::new();
        for _ in 0..200 {
            match g.step(0, host) {
                GuestStep::Compute(_) => {
                    host += SimDuration::from_micros(50);
                    g.complete_compute(0, host, SimDuration::MAX);
                }
                GuestStep::Net {
                    op,
                    guest_conn,
                    overhead,
                } => {
                    // Until completed, the same escape is surfaced again.
                    let GuestStep::Net { op: again, .. } = g.step(0, host) else {
                        panic!("pending net escape not resurfaced")
                    };
                    assert_eq!(again, op);
                    escapes.push((op, guest_conn, overhead));
                    host += SimDuration::from_millis(1);
                    g.complete_io(0, host);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(g.halted());
        // The vNIC overhead is sized per frame: the handshake and the
        // teardown are fixed, payloads take `frames_for(bytes)`.
        assert_eq!((g.frames_for(10_000), g.frames_for(70_000)), (7, 48));
        let vnic = |frames| {
            g.profile()
                .net_overhead_block(frames, VnicMode::Nat, g.ops_per_sec)
        };
        let c = ConnId(1);
        let remote = vgrid_os::RemoteHost::lan_source();
        assert_eq!(
            escapes,
            vec![
                (NetOp::Connect { remote }, c, vnic(2)),
                (
                    NetOp::Send {
                        conn: c,
                        bytes: 10_000
                    },
                    c,
                    vnic(7)
                ),
                (
                    NetOp::Recv {
                        conn: c,
                        bytes: 70_000
                    },
                    c,
                    vnic(48)
                ),
                (NetOp::Close { conn: c }, c, vnic(1)),
            ]
        );
        assert!(escapes.iter().all(|(.., o)| o.counts.int_ops > 0));
        assert_eq!(
            *seen.borrow(),
            vec![
                ActionResult::Connected(c),
                ActionResult::Sent { bytes: 10_000 },
                ActionResult::Received { bytes: 70_000 },
                ActionResult::NetClosed,
            ]
        );
    }

    /// Issues a fixed script of network ops, recording every result it
    /// is handed.
    #[derive(Debug)]
    struct NetScript {
        ops: std::vec::IntoIter<NetOp>,
        seen: std::rc::Rc<std::cell::RefCell<Vec<ActionResult>>>,
    }
    impl ThreadBody for NetScript {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            if ctx.result != ActionResult::None {
                self.seen.borrow_mut().push(ctx.result.clone());
            }
            self.ops.next().map_or(Action::Exit, Action::Net)
        }
    }

    #[test]
    fn guest_net_errors_are_delivered_in_the_guest() {
        use crate::body::{Vm, VmConfig};
        use vgrid_os::{OsError, Priority, RemoteHost, System, SystemConfig};

        // The guest stack rejects a send and a close on a never-opened
        // handle `x` and a receive from the sink `c` (the first connect
        // on either stack). Escaping them would panic the vCPU; the guest
        // thread must get a native thread's errors and the VM must halt.
        let (x, c) = (ConnId(99), ConnId(1));
        let lan_sink = RemoteHost::lan_sink();
        let run = |in_guest: bool| {
            let seen = std::rc::Rc::default();
            let ops = vec![
                NetOp::Send { conn: x, bytes: 8 },
                NetOp::Connect { remote: lan_sink },
                NetOp::Recv { conn: c, bytes: 8 },
                NetOp::Close { conn: x },
                NetOp::Close { conn: c },
            ];
            let body = Box::new(NetScript {
                ops: ops.into_iter(),
                seen: std::rc::Rc::clone(&seen),
            });
            let mut sys = System::new(SystemConfig::testbed(7));
            let deadline = SimTime::from_secs(60);
            if in_guest {
                let mut g = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
                g.spawn("net", body);
                let vm = Vm::install(&mut sys, VmConfig::new("vm", Priority::Normal), g);
                assert!(vm.run_until_halted(&mut sys, deadline), "guest halts");
            } else {
                sys.spawn("net", Priority::Normal, body);
                assert!(sys.run_to_completion(deadline), "native thread exits");
            }
            seen.take()
        };
        let expected = vec![
            ActionResult::Err(OsError::BadHandle),
            ActionResult::Connected(c),
            ActionResult::Err(OsError::Invalid),
            ActionResult::Err(OsError::BadHandle),
            ActionResult::NetClosed,
        ];
        assert_eq!(run(false), expected, "native results");
        assert_eq!(run(true), expected, "guest results");
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
