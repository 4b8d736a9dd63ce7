//! The desktop-grid campaign simulator.
//!
//! A coarse-grained DES over the volunteer pool: hosts churn between
//! online/offline spans, download the VM image once (initialization
//! workunit), then cycle through fetch -> download input -> compute
//! (with periodic checkpoints) -> upload -> report. The per-task CPU
//! dilation of VM execution is *derived from the calibrated monitor
//! profiles* by dilating the Einstein@home surrogate's measured
//! instruction mix through the machine model — the quantitative link
//! from the paper's microbenchmarks to deployment-scale cost.
//!
//! Hosts are modeled coarsely (rate-based, not full `vgrid-os` systems):
//! a campaign simulates hundreds of hosts for simulated weeks, where
//! per-instruction fidelity would add nothing — the VM overhead enters
//! through the measured dilation factor, image transfers and checkpoint
//! costs.
//!
//! On top of the availability baseline, [`crate::faults::ChurnConfig`]
//! layers owner preemptions, hard sandbox kills and Weibull-shaped
//! spans; [`crate::checkpoint`] provides the durability, backoff and
//! quorum machinery that absorbs them. A fully disabled churn config
//! reproduces the pre-churn simulator **byte for byte**: fault draws
//! come from a forked per-host stream (forking never advances the
//! parent), span draws collapse to the exact legacy `exponential`
//! calls, and no fault event is ever scheduled.

use crate::archetype::{self, ArchetypeKey};
use crate::checkpoint::{
    durable_progress, BackoffPolicy, BackoffState, QuorumValidator, RecordOutcome,
};
use crate::fastforward::{self, WorkQueue};
use crate::faults::{self, ChurnConfig};
use crate::hydrate::{HydrationPool, ProbeSpec};
use crate::migration;
use crate::model::{DeployConfig, ExecutionMode, GridReport, PoolConfig, ProjectConfig};
use crate::options::RunOptions;
use std::borrow::Borrow;
use vgrid_machine::ops::OpBlock;
use vgrid_machine::MachineSpec;
use vgrid_simcore::{
    CalendarQueue, DetMap, DetSet, EventQueue, EventScheduler, SimDuration, SimRng, SimTime,
};
use vgrid_workloads::counter::OpCounter;
use vgrid_workloads::einstein::EinsteinKernel;
use vgrid_workloads::kernel::Kernel;

/// The Einstein-style surrogate instruction block every grid task is
/// modeled on — shared by the analytic dilation solver below and the
/// full-fidelity hydration probes in [`crate::hydrate`].
pub(crate) fn science_block() -> OpBlock {
    let kernel = EinsteinKernel {
        fft_len: 4096,
        templates: 4,
        seed: 0x617d,
    };
    let mut ops = OpCounter::new();
    kernel.run(&mut ops);
    OpBlock {
        label: "grid-task".to_string(),
        counts: ops.to_counts(),
        working_set: kernel.working_set(),
        locality: kernel.locality(),
    }
}

/// Derive the CPU slowdown of VM execution for the Einstein-style
/// workload from a monitor profile, via the machine model. Builds the
/// science block from scratch on every call (the reference path).
pub fn vm_cpu_factor(mode: &ExecutionMode) -> f64 {
    vm_cpu_factor_on(mode, science_block)
}

/// [`vm_cpu_factor`] over a caller-supplied science block, which is
/// only built (or fetched) for VM modes. The dilation is a closed form
/// over the block, so any bit-identical block gives a bit-identical
/// factor.
pub(crate) fn vm_cpu_factor_on<B: Borrow<OpBlock>>(
    mode: &ExecutionMode,
    block: impl FnOnce() -> B,
) -> f64 {
    match mode {
        ExecutionMode::Native => 1.0,
        ExecutionMode::Vm(profile) => {
            let block = block();
            let block = block.borrow();
            let cpu = MachineSpec::core2_duo_6600().cpu_model();
            let native = cpu.solo_estimate(block).duration.as_secs_f64();
            let dilated = cpu
                .solo_estimate(&profile.dilate(block))
                .duration
                .as_secs_f64();
            dilated / native
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    ImageDl {
        remaining: f64,
    },
    InputDl {
        remaining: f64,
        task: usize,
    },
    /// Downloading a migrated task's checkpointed state.
    StateDl {
        remaining: f64,
        task: usize,
        remaining_ref: f64,
    },
    Compute {
        task: usize,
        remaining_ref: f64,
        progress_ref: f64,
    },
    Upload {
        remaining: f64,
        task: usize,
    },
}

/// A queue entry: fresh work, or a migrated task resuming elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    Fresh(usize),
    Resume { copy: usize, remaining_ref: f64 },
}

/// Thin per-host record of the batched substrate: everything a host
/// needs to advance analytically between events. Full-fidelity
/// `System` state lives in [`crate::hydrate::HydrationPool`] instead,
/// materialized only in windows around interesting events.
#[derive(Debug, Clone)]
pub(crate) struct HostSlot {
    speed: f64,
    excluded: bool,
    up: bool,
    life_gen: u64,
    act_gen: u64,
    has_image: bool,
    activity: Option<Activity>,
    act_started: SimTime,
    up_since: SimTime,
    uptime_total: f64,
    rng: SimRng,
    /// Fault stream: every churn-layer draw comes from here, so a
    /// disabled churn config cannot perturb the legacy `rng` sequence.
    frng: SimRng,
    /// The owner is using the machine; the sandbox is preempted.
    paused: bool,
    /// A backoff refetch event is already in flight.
    refetch_pending: bool,
    backoff: BackoffState,
}

impl HostSlot {
    /// Up, eligible, unpaused and between activities: able to take work.
    fn is_idle(&self) -> bool {
        self.up && !self.excluded && !self.paused && self.activity.is_none()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TaskCopy {
    pub(crate) wu: usize,
    pub(crate) returned: bool,
    /// CPU seconds this copy has consumed (for goodput/waste accounting).
    pub(crate) cpu_spent: f64,
    /// The straggler-rescue policy re-homed this copy's checkpoint; a
    /// later validation counts as a rescue win.
    pub(crate) rescued: bool,
}

impl TaskCopy {
    /// A freshly issued, not yet returned copy of work unit `wu`.
    pub(crate) fn new(wu: usize) -> Self {
        TaskCopy {
            wu,
            returned: false,
            cpu_spent: 0.0,
            rescued: false,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Ev {
    Up {
        h: usize,
        gen: u64,
    },
    Down {
        h: usize,
        gen: u64,
    },
    ActDone {
        h: usize,
        gen: u64,
    },
    Deadline {
        copy: usize,
    },
    /// The machine's owner starts an interactive session (churn only).
    OwnerArrive {
        h: usize,
        gen: u64,
    },
    /// The owner session ends; the sandbox may resume (churn only).
    OwnerLeave {
        h: usize,
        gen: u64,
    },
    /// The sandbox is killed outright (churn only).
    VmKill {
        h: usize,
        gen: u64,
    },
    /// Exponential-backoff work refetch by an idle client (churn only).
    Refetch {
        h: usize,
    },
    /// Deadline-slack straggler audit of an issued copy (scheduled only
    /// when the migration policy's `rescue` arm is on).
    RescueCheck {
        copy: usize,
        deadline: SimTime,
    },
    /// Periodic predicted-interruption audit of a computing host
    /// (scheduled only when the policy's `evacuate` arm is on, under
    /// churn). Carries the `act_gen` at arming so any interruption
    /// retires the chain.
    EvacCheck {
        h: usize,
        gen: u64,
    },
    /// An exported checkpoint finished crossing the server NIC; the
    /// state becomes fetchable (migration policy only).
    XferDone {
        copy: usize,
        remaining_ref: f64,
    },
}

/// The borrowed per-run context every handler reads: the campaign's
/// configuration plus the churn-derived policy, built once per run.
/// Everything the loop mutates lives in [`SimState`].
struct RunCtx<'a> {
    project: &'a ProjectConfig,
    pool: &'a PoolConfig,
    deploy: &'a DeployConfig,
    churn: &'a ChurnConfig,
    backoff: BackoffPolicy,
    /// False when the churn config is fully inert: the simulator must
    /// take exactly the legacy code paths.
    churn_on: bool,
    horizon: SimTime,
}

/// Which host substrate executes a campaign. The two substrates are
/// **bit-identical by contract**: they run the same per-event handlers
/// (`SimState`'s `on_*` methods) and differ only in the event-queue
/// implementation, in whether the archetype solver reuses the cached
/// science block, and in whether fresh work copies materialize lazily
/// or eagerly — all validated by the `hydration_equivalence` and
/// `hydration_reference` test suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateMode {
    /// Archetype-batched analytic substrate on the sharded calendar
    /// queue with the cached-block segment solver and the lazy work
    /// queue (the default).
    Batched,
    /// Reference substrate: flat binary-heap event queue, solver
    /// recomputed from scratch, every copy issued up front
    /// (`--hydrated-reference`).
    HydratedReference,
}

/// Run one campaign under explicit execution options; stops when all
/// work units validate or at `horizon`. The campaign API
/// ([`crate::campaign::Campaign`]) is the public entry point.
///
/// On the batched substrate with fast-forward on — the default — the
/// trial first consults the process-wide trajectory cache: a stored
/// loop-exit snapshot of the same configuration at a horizon at or
/// below the requested one resumes mid-stream instead of replaying
/// from t=0 (see [`crate::fastforward`]). Resumed and cold runs are
/// bit-identical by contract.
pub(crate) fn run_campaign_substrate(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
    horizon: SimTime,
    options: &RunOptions,
) -> GridReport {
    let cx = RunCtx {
        project,
        pool,
        deploy,
        churn,
        backoff: BackoffPolicy::default(),
        churn_on: !churn.is_off(),
        horizon,
    };
    if options.substrate == SubstrateMode::HydratedReference {
        return run_campaign_on(&cx, seed, options, EventQueue::new(), None);
    }
    let key = options
        .fastforward
        .then(|| fastforward::trajectory_key(project, pool, deploy, churn, seed));
    if let Some(key) = &key {
        if let Some(ckpt) = fastforward::trajectory_lookup(key, horizon) {
            return resume_campaign(&cx, options, key, ckpt);
        }
    }
    run_campaign_on(&cx, seed, options, CalendarQueue::new(), key.as_deref())
}

/// Everything the campaign loop mutates, bundled so the loop exit can
/// be snapshotted into a [`CampaignCheckpoint`] and resumed later.
/// Loop-invariant derived constants (`vm_factor`, `ckpt_frac`,
/// `eligible_rate`, the probe spec) ride along so a resume never
/// recomputes them in a different order.
///
/// Each [`Ev`] kind has one handler method (`on_up`, `on_down`, …);
/// the handlers share the host-stepping helpers below them.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    hosts: Vec<HostSlot>,
    report: GridReport,
    hpool: HydrationPool,
    probe: ProbeSpec,
    vm_factor: f64,
    ckpt_frac: f64,
    eligible_rate: f64,
    validator: QuorumValidator,
    copies: Vec<TaskCopy>,
    queue: WorkQueue,
    makespan: Option<SimTime>,
    /// Hosts currently idle (up, eligible, unpaused, no activity) —
    /// kept in lockstep with host state so server pushes touch only
    /// the hosts that can take work instead of scanning the pool.
    idle: DetSet<u32>,
    /// Checkpoint exports currently crossing the server NIC; each new
    /// export contends with these (migration policy only — always zero
    /// otherwise).
    inflight_xfers: u32,
    /// Uncontended wire seconds of one exported checkpoint: the
    /// campaign's checkpoint size is fixed, so this is a constant.
    transfer_base_secs: f64,
}

/// A campaign trajectory frozen at its loop exit: the full mutable
/// state plus the event queue's surviving entries in pop order. The
/// first pending entry is the event the break check popped and
/// discarded — a resume re-pops it first, reproducing the cold run's
/// tie-breaking exactly.
#[derive(Debug, Clone)]
pub(crate) struct CampaignCheckpoint {
    state: SimState,
    pending: Vec<(SimTime, Ev)>,
}

impl CampaignCheckpoint {
    /// Volunteer count of the snapshotted pool (memory-bound gating).
    pub(crate) fn host_count(&self) -> usize {
        self.state.hosts.len()
    }
}

/// Resume a campaign from a stored prefix snapshot: rebuild a calendar
/// queue from the drained pending events (re-scheduling in pop order
/// preserves same-instant FIFO ties) and continue the identical loop.
/// The snapshot may come from a run in the other scheduler mode, so
/// the hydration pool takes this run's probe settings.
fn resume_campaign(
    cx: &RunCtx<'_>,
    options: &RunOptions,
    key: &str,
    ckpt: CampaignCheckpoint,
) -> GridReport {
    let CampaignCheckpoint {
        state: mut st,
        pending,
    } = ckpt;
    st.hpool
        .set_run_mode(true, !options.per_quantum_reference());
    let mut q = CalendarQueue::new();
    for (time, ev) in pending {
        q.schedule(time, ev);
    }
    let carried = run_loop(&mut st, &mut q, cx);
    store_and_finalize(st, q, carried, cx, Some(key))
}

/// The campaign loop, generic over the event-queue implementation so
/// both substrates execute literally the same handlers. With
/// `store_key` set (batched substrate, fast-forward on), the loop-exit
/// state is snapshotted into the trajectory cache before accounting.
fn run_campaign_on<Q: EventScheduler<Ev>>(
    cx: &RunCtx<'_>,
    seed: u64,
    options: &RunOptions,
    mut q: Q,
    store_key: Option<&str>,
) -> GridReport {
    let mut st = init_state(cx, seed, options, &mut q);
    let carried = run_loop(&mut st, &mut q, cx);
    store_and_finalize(st, q, carried, cx, store_key)
}

/// Build the campaign's initial state and schedule the staggered
/// power-ons — every random draw in the exact legacy order.
fn init_state<Q: EventScheduler<Ev>>(
    cx: &RunCtx<'_>,
    seed: u64,
    options: &RunOptions,
    q: &mut Q,
) -> SimState {
    let RunCtx {
        project,
        pool,
        deploy,
        churn,
        ..
    } = *cx;
    let rng = SimRng::new(seed ^ 0x617d_517d);
    // Per-archetype segment solve. The batched substrate dilates the
    // process-wide cached science block; the reference substrate
    // rebuilds the block from scratch. Both produce bit-identical
    // constants (see `crate::archetype`).
    let solution = match options.substrate {
        SubstrateMode::Batched => archetype::solve(deploy),
        SubstrateMode::HydratedReference => archetype::solve_direct(deploy),
    };
    let vm_factor = solution.vm_factor;
    // Checkpoint overhead: fraction of host time spent writing state.
    let ckpt_frac = solution.ckpt_frac;
    let guest_ram = match &deploy.mode {
        ExecutionMode::Native => 0u64,
        ExecutionMode::Vm(p) => p.guest_ram,
    };

    let mut report = GridReport {
        mode: deploy.mode.name().to_string(),
        ..Default::default()
    };

    // The fast-forward layers serve only the batched substrate; the
    // reference substrate (and fast-forward off) recompute everything.
    let fast = options.substrate == SubstrateMode::Batched && options.fastforward;

    // Lazy-hydration pool: full-fidelity probe systems materialized in
    // windows around interesting events, cross-checking the analytic
    // ledger. Probes observe only — they draw no host randomness.
    let mut hpool = HydrationPool::new();
    hpool.set_run_mode(fast, !options.per_quantum_reference());
    let probe = ProbeSpec {
        key: archetype::solver_key(&deploy.mode),
        mode: deploy.mode.clone(),
        solution,
    };

    // Build hosts, bucketing each into its archetype as we go (an
    // index map instead of per-host label strings: a million-host pool
    // collapses to a handful of archetypes).
    let cclass = archetype::churn_class(churn);
    let mut arch_index: DetMap<(u16, bool), u32> = DetMap::new();
    let mut arch_keys: Vec<ArchetypeKey> = Vec::new();
    let mut arch_counts: Vec<u32> = Vec::new();
    let mut hosts: Vec<HostSlot> = (0..pool.volunteers)
        .map(|i| {
            let mut hrng = rng.fork(1000 + i as u64);
            // Fork the fault stream *before* the legacy draws; forking
            // never advances `hrng`, so speed/RAM draws are unchanged.
            let frng = hrng.fork(77);
            let speed = hrng.range_f64(pool.speed_range.0, pool.speed_range.1);
            let ram = pool.ram_range.0 + hrng.next_below(pool.ram_range.1 - pool.ram_range.0 + 1);
            let excluded = guest_ram > 0 && ram < guest_ram + deploy.host_headroom_bytes;
            let band = archetype::speed_band(speed);
            let arch = *arch_index.or_insert_with((band, !excluded), || {
                arch_keys.push(ArchetypeKey::new(deploy, &cclass, band, !excluded));
                arch_counts.push(0);
                (arch_keys.len() - 1) as u32
            });
            arch_counts[arch as usize] += 1;
            HostSlot {
                speed,
                excluded,
                up: false,
                life_gen: 0,
                act_gen: 0,
                has_image: deploy.image_bytes == 0,
                activity: None,
                act_started: SimTime::ZERO,
                up_since: SimTime::ZERO,
                uptime_total: 0.0,
                rng: hrng,
                frng,
                paused: false,
                refetch_pending: false,
                backoff: BackoffState::new(&cx.backoff),
            }
        })
        .collect();
    report.hosts_excluded_ram = hosts.iter().filter(|h| h.excluded).count() as u32;
    // Canonical archetype census: sorted by key, not first-seen order.
    let mut census: Vec<(ArchetypeKey, u32)> = arch_keys.into_iter().zip(arch_counts).collect();
    census.sort();
    report.archetype_hosts = census.into_iter().map(|(k, n)| (k.label(), n)).collect();
    // Ideal-makespan denominator: the RAM-eligible pool's aggregate
    // compute rate, as if always on and perfectly scheduled.
    let eligible_rate: f64 = hosts
        .iter()
        .filter(|h| !h.excluded)
        .map(|h| compute_rate(h, vm_factor, ckpt_frac))
        .sum(); // simlint: allow(float-fold-order) -- host order is fixed; this sum order is part of the bit-identity contract

    // Server state. The batched substrate issues fresh copies lazily
    // (materialized when a host takes them); the reference substrate
    // and fast-forward off run the legacy eager setup. Copy indices are
    // internal lookup keys, so the two schemes are report-identical.
    let mut validator = QuorumValidator::new(project.workunits, project.quorum);
    let mut copies = Vec::new();
    let queue = if fast {
        WorkQueue::lazy(project)
    } else {
        WorkQueue::eager(project, &mut copies, &mut validator)
    };

    // Stagger initial power-ons.
    for (h, host) in hosts.iter_mut().enumerate() {
        let delay = host.rng.exponential(pool.mean_downtime_secs / 4.0);
        q.schedule(SimTime::from_secs_f64(delay), Ev::Up { h, gen: 0 });
    }

    SimState {
        hosts,
        report,
        hpool,
        probe,
        vm_factor,
        ckpt_frac,
        eligible_rate,
        validator,
        copies,
        queue,
        makespan: None,
        idle: DetSet::new(),
        inflight_xfers: 0,
        transfer_base_secs: migration::transfer_wire_secs(archetype::checkpoint_state_bytes(
            deploy,
        )),
    }
}

/// Drive the event loop until the horizon, quorum completion, or queue
/// exhaustion. Returns the popped-but-unprocessed event when a break
/// check fired (it belongs at the head of any stored trajectory).
fn run_loop<Q: EventScheduler<Ev>>(
    st: &mut SimState,
    q: &mut Q,
    cx: &RunCtx<'_>,
) -> Option<(SimTime, Ev)> {
    while let Some((now, ev)) = q.pop() {
        let quorum_met =
            st.makespan.is_some() && st.validator.validated_count() >= cx.project.workunits;
        if now > cx.horizon || quorum_met {
            return Some((now, ev));
        }
        match ev {
            Ev::Up { h, gen } => st.on_up(cx, q, now, h, gen),
            Ev::Down { h, gen } => st.on_down(cx, q, now, h, gen),
            Ev::ActDone { h, gen } => st.on_act_done(cx, q, now, h, gen),
            Ev::Deadline { copy } => st.on_deadline(cx, q, now, copy),
            Ev::OwnerArrive { h, gen } => st.on_owner_arrive(cx, q, now, h, gen),
            Ev::OwnerLeave { h, gen } => st.on_owner_leave(cx, q, now, h, gen),
            Ev::VmKill { h, gen } => st.on_vm_kill(cx, q, now, h, gen),
            Ev::Refetch { h } => st.on_refetch(cx, q, now, h),
            Ev::RescueCheck { copy, deadline } => st.on_rescue_check(cx, q, now, copy, deadline),
            Ev::EvacCheck { h, gen } => st.on_evac_check(cx, q, now, h, gen),
            Ev::XferDone {
                copy,
                remaining_ref,
            } => st.on_xfer_done(cx, q, now, copy, remaining_ref),
        }
    }
    None
}

/// Schedule `ev` at `now + d`. An instant past `SimTime`'s range lies
/// beyond every representable horizon, so such an event could never be
/// popped: it is dropped instead of overflowing. (Low churn levels draw
/// owner and kill gaps that long, and a spec may set such a deadline.)
fn schedule_in<Q: EventScheduler<Ev>>(q: &mut Q, now: SimTime, d: SimDuration, ev: Ev) {
    if let Some(at) = now.checked_add(d) {
        q.schedule(at, ev);
    }
}

impl SimState {
    /// The host powers on: arm its next power-off and this up-span's
    /// fault processes, then resume or acquire work.
    fn on_up<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        let host = &mut self.hosts[h];
        if gen != host.life_gen || host.excluded {
            return;
        }
        self.report.fault_transitions += 1;
        host.up = true;
        host.paused = false;
        host.up_since = now;
        // `sample_span` with shape 1 *is* the legacy exponential call,
        // and a unit uptime factor is an exact multiply.
        let span = faults::sample_span(
            &mut host.rng,
            cx.churn.availability_shape,
            cx.pool.mean_uptime_secs * cx.churn.uptime_factor,
        );
        host.life_gen += 1;
        let gen = host.life_gen;
        schedule_in(
            q,
            now,
            SimDuration::from_secs_f64(span),
            Ev::Down { h, gen },
        );
        // Arm this up-span's fault processes (never under zero churn:
        // the event stream must stay byte-identical).
        if cx.churn.owner_arrival_mean_secs > 0.0 {
            let gap = host.frng.exponential(cx.churn.owner_arrival_mean_secs);
            let ev = Ev::OwnerArrive { h, gen };
            schedule_in(q, now, SimDuration::from_secs_f64(gap), ev);
        }
        if cx.churn.vm_kill_mean_secs > 0.0 {
            let wait = host.frng.exponential(cx.churn.vm_kill_mean_secs);
            schedule_in(
                q,
                now,
                SimDuration::from_secs_f64(wait),
                Ev::VmKill { h, gen },
            );
        }
        self.start_next_activity(cx, q, now, h);
        self.sync_idle(h);
    }

    /// The host goes offline: interrupt its activity (migrating the
    /// checkpoint when the deploy asks), then either retire the
    /// volunteer for good or schedule its return.
    fn on_down<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        if gen != self.hosts[h].life_gen {
            return;
        }
        // A failure mid-compute is an interesting event: hydrate a
        // probe window before the ledger absorbs it.
        if matches!(self.hosts[h].activity, Some(Activity::Compute { .. })) {
            self.probe_window(h);
        }
        self.report.fault_transitions += 1;
        let host = &mut self.hosts[h];
        host.up = false;
        host.uptime_total += now.since(host.up_since).as_secs_f64();
        // Interrupt the activity, preserving resumable progress. A
        // paused host accrued everything at pause time.
        if !host.paused {
            self.accrue_activity(cx, now, h, false);
        }
        let host = &mut self.hosts[h];
        host.paused = false;
        host.act_gen += 1; // cancel any pending ActDone
        if cx.deploy.migrate_on_churn {
            if let Some(Activity::Compute {
                task,
                remaining_ref,
                ..
            }) = host.activity
            {
                // Ship the checkpointed state back through the server;
                // any volunteer may pick it up. Resumes jump the queue:
                // finishing started work beats starting fresh copies
                // (BOINC's deadline-driven scheduling has the same
                // effect).
                host.activity = None;
                self.queue.push_front(Work::Resume {
                    copy: task,
                    remaining_ref,
                });
                self.report.migrations += 1;
                self.kick_idle_hosts(cx, q, now);
            }
        }
        let host = &mut self.hosts[h];
        if host.rng.chance(cx.pool.permanent_failure_prob) {
            // The volunteer never returns; its task (if any) is
            // stranded until the server's deadline reissues it.
            host.excluded = true;
            self.sync_idle(h);
            return;
        }
        let span = faults::sample_span(
            &mut host.rng,
            cx.churn.availability_shape,
            cx.pool.mean_downtime_secs,
        );
        host.life_gen += 1;
        let gen = host.life_gen;
        schedule_in(q, now, SimDuration::from_secs_f64(span), Ev::Up { h, gen });
        self.sync_idle(h);
    }

    /// The host's current activity finished: advance it to the next
    /// stage (download → compute → upload → report) or acquire work.
    fn on_act_done<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        if gen != self.hosts[h].act_gen || !self.hosts[h].up {
            return;
        }
        let Some(act) = self.hosts[h].activity.take() else {
            return;
        };
        match act {
            Activity::ImageDl { .. } => {
                self.hosts[h].has_image = true;
                self.report.image_transfer_secs +=
                    now.since(self.hosts[h].act_started).as_secs_f64();
            }
            Activity::StateDl {
                task,
                remaining_ref,
                ..
            } => return self.begin_compute(cx, q, now, h, task, remaining_ref),
            Activity::InputDl { task, .. } => {
                return self.begin_compute(cx, q, now, h, task, cx.project.wu_ref_secs)
            }
            Activity::Compute { task, .. } => {
                // Task completion: hydrate a probe window to check the
                // ledger's rate against a real system.
                self.probe_window(h);
                // Account the CPU time of the final stretch.
                let host = &mut self.hosts[h];
                let elapsed = now.since(host.act_started).as_secs_f64();
                self.report.cpu_secs_spent += elapsed;
                self.copies[task].cpu_spent += elapsed;
                host.activity = Some(Activity::Upload {
                    remaining: cx.project.wu_output_bytes as f64,
                    task,
                });
                host.act_started = now;
                host.act_gen += 1;
                let gen = host.act_gen;
                let secs = cx.project.wu_output_bytes as f64 / cx.pool.up_bw;
                schedule_in(
                    q,
                    now,
                    SimDuration::from_secs_f64(secs),
                    Ev::ActDone { h, gen },
                );
                return;
            }
            Activity::Upload { task, .. } => self.report_result(cx, q, now, h, task),
        }
        // Acquire the next piece of work.
        self.start_next_activity(cx, q, now, h);
        self.sync_idle(h);
    }

    /// Host `h` uploaded copy `task`: hand the result to the quorum
    /// validator and react to its verdict.
    fn report_result<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        task: usize,
    ) {
        self.copies[task].returned = true;
        self.report.results_returned += 1;
        let wu = self.copies[task].wu;
        let good = !self.hosts[h].rng.chance(cx.project.error_rate);
        match self.validator.record(wu, good, self.copies[task].cpu_spent) {
            RecordOutcome::NewlyValidated => {
                // A quorum decision is an interesting event:
                // hydrate a probe window.
                self.probe_window(h);
                if self.copies[task].rescued {
                    self.report.rescue_wins += 1;
                }
                if self.validator.validated_count() >= cx.project.workunits {
                    self.makespan = Some(now);
                }
            }
            RecordOutcome::Rejected => {
                self.report.bad_results += 1;
                self.issue_copy(wu);
                // The reporting host is between activities
                // right now — it competes for the replacement
                // copy in id order like any other idle host.
                self.sync_idle(h);
                self.kick_idle_hosts(cx, q, now);
            }
            RecordOutcome::Counted | RecordOutcome::Late => {}
        }
    }

    /// A copy's reissue deadline passed: if it never came back and its
    /// work unit is still open, issue a replacement.
    fn on_deadline<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        copy: usize,
    ) {
        let wu = self.copies[copy].wu;
        if self.copies[copy].returned || self.validator.is_validated(wu) {
            return;
        }
        self.issue_copy(wu);
        self.report.reissues += 1;
        self.kick_idle_hosts(cx, q, now);
    }

    /// The machine's owner starts a session: suspend (VM) or preempt
    /// (native) the sandbox, possibly killing it outright.
    fn on_owner_arrive<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        if !self.fault_is_live(h, gen) {
            return;
        }
        // An owner preempting live work is an interesting event.
        if !self.hosts[h].paused && self.hosts[h].activity.is_some() {
            self.probe_window(h);
        }
        self.report.owner_preemptions += 1;
        self.report.fault_transitions += 1;
        let kills = self.hosts[h].frng.chance(cx.churn.preempt_kill_prob);
        if !self.hosts[h].paused {
            if self.hosts[h].activity.is_some() {
                // VM sandboxes suspend in place (durable .vmss-style
                // state: nothing is lost); native apps are preempted
                // and roll back to their last checkpoint.
                let preserve = matches!(cx.deploy.mode, ExecutionMode::Vm(_));
                self.accrue_activity(cx, now, h, preserve);
                self.hosts[h].act_gen += 1; // cancel the pending ActDone
            }
            self.hosts[h].paused = true;
        }
        if kills {
            self.kill_task(cx, now, h);
        }
        let session = self.hosts[h]
            .frng
            .exponential(cx.churn.owner_session_mean_secs);
        let ev = Ev::OwnerLeave { h, gen };
        schedule_in(q, now, SimDuration::from_secs_f64(session), ev);
        self.sync_idle(h);
    }

    /// The owner session ends: resume the preempted activity (or fetch
    /// fresh work) and arm the next arrival.
    fn on_owner_leave<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        if !self.fault_is_live(h, gen) {
            return;
        }
        self.report.fault_transitions += 1;
        self.hosts[h].paused = false;
        self.start_next_activity(cx, q, now, h);
        let gap = self.hosts[h]
            .frng
            .exponential(cx.churn.owner_arrival_mean_secs);
        let ev = Ev::OwnerArrive { h, gen };
        schedule_in(q, now, SimDuration::from_secs_f64(gap), ev);
        self.sync_idle(h);
    }

    /// The sandbox is killed outright: live work rolls back and
    /// restarts, and the next kill is armed.
    fn on_vm_kill<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        if !self.fault_is_live(h, gen) {
            return;
        }
        self.report.fault_transitions += 1;
        if self.hosts[h].activity.is_some() {
            // A sandbox kill with live work is an interesting event.
            self.probe_window(h);
            self.kill_task(cx, now, h);
            // Restart from the rolled-back state (no-op while the owner
            // holds the machine: OwnerLeave resumes it).
            self.start_next_activity(cx, q, now, h);
        }
        let wait = self.hosts[h].frng.exponential(cx.churn.vm_kill_mean_secs);
        schedule_in(
            q,
            now,
            SimDuration::from_secs_f64(wait),
            Ev::VmKill { h, gen },
        );
        self.sync_idle(h);
    }

    /// An idle client's backoff timer fired: ask the server again.
    fn on_refetch<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
    ) {
        let host = &mut self.hosts[h];
        host.refetch_pending = false;
        if !host.up || host.excluded || host.paused || host.activity.is_some() {
            return;
        }
        self.start_next_activity(cx, q, now, h);
        self.sync_idle(h);
    }

    /// Straggler audit at a copy's slack point: export the holder's
    /// checkpoint when it is stranded, or when it is live but projected
    /// to miss the deadline while a strictly faster host sits idle.
    fn on_rescue_check<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        copy: usize,
        deadline: SimTime,
    ) {
        if self.copies[copy].returned || self.validator.is_validated(self.copies[copy].wu) {
            return;
        }
        // Locate the copy's holder. Only a computing holder has
        // checkpointed state worth exporting; a copy still in the queue
        // or mid-download is left to the deadline.
        let Some(holder) = self.hosts.iter().position(
            |s| matches!(s.activity, Some(Activity::Compute { task, .. }) if task == copy),
        ) else {
            return;
        };
        let stranded = !self.hosts[holder].up || self.hosts[holder].paused;
        if !stranded {
            // The holder is live: rescue only a projected miss, and only
            // when a strictly faster host sits idle.
            let rate = self.rate(holder);
            let host = &self.hosts[holder];
            let Some(Activity::Compute { remaining_ref, .. }) = host.activity else {
                return;
            };
            let elapsed = now.since(host.act_started).as_secs_f64();
            let live_remaining = remaining_ref - elapsed * rate;
            let projected = now
                .checked_add(SimDuration::from_secs_f64((live_remaining / rate).max(0.0)))
                .unwrap_or(SimTime::MAX);
            if projected <= deadline {
                return;
            }
            let holder_speed = host.speed;
            if !self
                .idle
                .iter()
                .any(|&i| self.hosts[i as usize].speed > holder_speed)
            {
                return;
            }
            // A straggler preempted live is an interesting event.
            self.probe_window(holder);
        }
        if self.export_checkpoint(cx, q, now, holder, !stranded) {
            self.copies[copy].rescued = true;
            self.report.migrations += 1;
            if !stranded {
                // The freed host competes for other work.
                self.start_next_activity(cx, q, now, holder);
            }
            self.sync_idle(holder);
        }
    }

    /// Periodic predicted-interruption audit of a computing host:
    /// evacuate its checkpoint toward a safer idle host once the
    /// hazard crosses the policy threshold, else re-arm.
    fn on_evac_check<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        gen: u64,
    ) {
        let host = &self.hosts[h];
        if gen != host.act_gen || !host.up || host.paused {
            return;
        }
        let Some(Activity::Compute {
            remaining_ref,
            progress_ref,
            ..
        }) = host.activity
        else {
            return;
        };
        let rate = self.rate(h);
        let elapsed = now.since(host.act_started).as_secs_f64();
        let live_remaining = remaining_ref - elapsed * rate;
        if live_remaining <= 0.0 {
            return; // finishing imminently; let ActDone land
        }
        // Evacuating pays a transfer and a re-download; it only ever
        // wins when at least one durable quantum exists.
        let quantum = cx.deploy.checkpoint_interval.as_secs_f64() * rate;
        let durable = durable_progress(progress_ref + elapsed * rate, progress_ref, quantum);
        let hazard = migration::interruption_hazard(
            cx.churn,
            cx.pool.mean_uptime_secs,
            now.since(host.up_since).as_secs_f64(),
            live_remaining / rate,
        );
        if durable <= 0.0
            || hazard < cx.deploy.migration.hazard_threshold
            || !self.has_safe_home(cx, now, h, live_remaining)
        {
            // Re-arm for the next checkpoint quantum; the act_gen guard
            // retires the chain on interruption.
            schedule_in(
                q,
                now,
                cx.deploy.checkpoint_interval,
                Ev::EvacCheck { h, gen },
            );
            return;
        }
        self.probe_window(h);
        if self.export_checkpoint(cx, q, now, h, true) {
            self.report.evacuations += 1;
            self.start_next_activity(cx, q, now, h);
            self.sync_idle(h);
        }
    }

    /// An exported checkpoint finished crossing the server NIC: queue
    /// it for any volunteer unless its work unit no longer needs it.
    fn on_xfer_done<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        copy: usize,
        remaining_ref: f64,
    ) {
        // The server NIC slot frees whether or not the state is still
        // useful.
        self.inflight_xfers = self.inflight_xfers.saturating_sub(1);
        if self.copies[copy].returned || self.validator.is_validated(self.copies[copy].wu) {
            return;
        }
        // Re-homed state jumps the queue, like churn-driven migration:
        // finishing started work beats starting fresh copies.
        self.queue.push_front(Work::Resume {
            copy,
            remaining_ref,
        });
        self.kick_idle_hosts(cx, q, now);
    }

    /// Whether a fault event still applies: same up-span, host online
    /// and eligible.
    fn fault_is_live(&self, h: usize, gen: u64) -> bool {
        let host = &self.hosts[h];
        gen == host.life_gen && host.up && !host.excluded
    }

    /// Effective compute rate of host `h`.
    fn rate(&self, h: usize) -> f64 {
        compute_rate(&self.hosts[h], self.vm_factor, self.ckpt_frac)
    }

    /// Hydrate a probe window for host `h`'s archetype around an
    /// interesting event.
    fn probe_window(&mut self, h: usize) {
        let band = archetype::speed_band(self.hosts[h].speed);
        self.hpool.window(&self.probe, band);
    }

    /// Issue a fresh copy of work unit `wu` behind all queued work
    /// (bad-result replacements and deadline reissues).
    fn issue_copy(&mut self, wu: usize) {
        self.copies.push(TaskCopy::new(wu));
        self.queue.push_back(Work::Fresh(self.copies.len() - 1));
        self.validator.note_issued(wu);
    }

    /// Evacuate only toward predicted safety: an idle host at least as
    /// fast as `h` whose own hazard over the same work window sits below
    /// the threshold. Without such a home the export would burn NIC
    /// time to move the task between equally doomed hosts — at extreme
    /// churn nobody qualifies and the policy holds still.
    fn has_safe_home(&self, cx: &RunCtx<'_>, now: SimTime, h: usize, live_remaining: f64) -> bool {
        self.idle.iter().any(|&i| {
            let cand = &self.hosts[i as usize];
            if cand.speed < self.hosts[h].speed {
                return false;
            }
            let cand_rate = compute_rate(cand, self.vm_factor, self.ckpt_frac);
            migration::interruption_hazard(
                cx.churn,
                cx.pool.mean_uptime_secs,
                now.since(cand.up_since).as_secs_f64(),
                live_remaining / cand_rate,
            ) < cx.deploy.migration.hazard_threshold
        })
    }

    /// Re-derive host `h`'s membership in the idle set after a handler
    /// mutated it. The set invariant — `h ∈ idle` iff the host is up,
    /// eligible, unpaused and between activities — is what lets the
    /// server push touch only takers instead of scanning a million-host
    /// pool.
    fn sync_idle(&mut self, h: usize) {
        if self.hosts[h].is_idle() {
            self.idle.insert(h as u32);
        } else {
            self.idle.remove(&(h as u32));
        }
    }

    /// Accrue partial progress of the interrupted activity. With
    /// `preserve` false (host went down, app preempted) compute
    /// progress rolls back to the last durable checkpoint; with
    /// `preserve` true (VM suspend) it is kept in full.
    fn accrue_activity(&mut self, cx: &RunCtx<'_>, now: SimTime, h: usize, preserve: bool) {
        let elapsed = now.since(self.hosts[h].act_started).as_secs_f64();
        let rate = self.rate(h);
        let Some(act) = self.hosts[h].activity.as_mut() else {
            return;
        };
        match act {
            Activity::ImageDl { remaining }
            | Activity::InputDl { remaining, .. }
            | Activity::StateDl { remaining, .. } => {
                *remaining = (*remaining - elapsed * cx.pool.down_bw).max(0.0);
                if matches!(act, Activity::ImageDl { .. }) {
                    self.report.image_transfer_secs += elapsed;
                }
            }
            Activity::Upload { remaining, .. } => {
                *remaining = (*remaining - elapsed * cx.pool.up_bw).max(0.0);
            }
            Activity::Compute {
                task,
                remaining_ref,
                progress_ref,
            } => {
                self.report.cpu_secs_spent += elapsed;
                let advanced = elapsed * rate;
                let new_progress = *progress_ref + advanced;
                if preserve {
                    // Suspend-to-disk: every reference second survives.
                    self.copies[*task].cpu_spent += elapsed;
                    *remaining_ref -= advanced;
                    *progress_ref = new_progress;
                } else {
                    // Roll back to the last checkpoint. Only the durable
                    // delta is attributed to the copy — rolled-back time
                    // is waste, never "useful" even if the copy
                    // validates.
                    let quantum = cx.deploy.checkpoint_interval.as_secs_f64() * rate;
                    let kept = durable_progress(new_progress, *progress_ref, quantum);
                    self.report.cpu_secs_lost += (new_progress - kept) / rate;
                    self.copies[*task].cpu_spent += (kept - *progress_ref) / rate;
                    *remaining_ref -= kept - *progress_ref;
                    *progress_ref = kept;
                }
            }
        }
    }

    /// Destroy the sandbox: in-flight work (and any suspended state)
    /// rolls back to the last durable checkpoint. The caller
    /// reschedules the restart.
    fn kill_task(&mut self, cx: &RunCtx<'_>, now: SimTime, h: usize) {
        if self.hosts[h].activity.is_none() {
            return;
        }
        if self.hosts[h].paused {
            // The suspended image dies with the sandbox; only whole
            // checkpoint quanta survive.
            let rate = self.rate(h);
            if let Some(Activity::Compute {
                task,
                remaining_ref,
                progress_ref,
            }) = self.hosts[h].activity.as_mut()
            {
                let quantum = cx.deploy.checkpoint_interval.as_secs_f64() * rate;
                let kept = durable_progress(*progress_ref, 0.0, quantum);
                let lost = *progress_ref - kept;
                if lost > 0.0 {
                    self.report.cpu_secs_lost += lost / rate;
                    // Take the destroyed progress back out of the copy's
                    // attributable CPU (the suspend credited it in full).
                    let copy = &mut self.copies[*task];
                    copy.cpu_spent = (copy.cpu_spent - lost / rate).max(0.0);
                    *remaining_ref += lost;
                    *progress_ref = kept;
                }
            }
        } else {
            self.accrue_activity(cx, now, h, false);
        }
        self.hosts[h].act_gen += 1; // cancel the pending ActDone
        self.report.vm_kills += 1;
    }

    /// Export the holder's computing checkpoint through the server NIC
    /// (migration policy only). With `accrue` set (live holder) partial
    /// progress first rolls back to the last durable checkpoint —
    /// exactly the accounting an interruption applies; a stranded
    /// holder already accrued at interruption time. The activity is
    /// cleared, the pending `ActDone` cancelled, and an
    /// [`Ev::XferDone`] scheduled after the contention-scaled transfer;
    /// only then does the state become fetchable. Returns false if the
    /// holder has no compute activity.
    fn export_checkpoint<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        accrue: bool,
    ) -> bool {
        if !matches!(self.hosts[h].activity, Some(Activity::Compute { .. })) {
            return false;
        }
        if accrue {
            self.accrue_activity(cx, now, h, false);
        }
        let host = &mut self.hosts[h];
        let Some(Activity::Compute {
            task,
            remaining_ref,
            ..
        }) = host.activity
        else {
            return false;
        };
        host.activity = None;
        host.act_gen += 1; // cancel the pending ActDone
                           // One server link: concurrent exports stretch each other
                           // linearly.
        let secs = self.transfer_base_secs * (1.0 + self.inflight_xfers as f64);
        self.inflight_xfers += 1;
        self.report.transfer_secs += secs;
        let ev = Ev::XferDone {
            copy: task,
            remaining_ref,
        };
        schedule_in(q, now, SimDuration::from_secs_f64(secs.max(1e-6)), ev);
        true
    }

    /// Hand queued work to idle online hosts (called whenever the queue
    /// gains entries after the initial distribution — migrations,
    /// deadline reissues, replacement copies). Hosts otherwise only ask
    /// for work at their own transitions. Under churn the server push
    /// is disabled: idle clients poll with exponential backoff instead.
    ///
    /// Takes idle hosts in id order (the same hand-out order as the
    /// original whole-pool scan) rather than scanning all hosts: the
    /// walk is O(work handed out), not O(pool). A started host always
    /// leaves the idle set — it takes either the image download or a
    /// queue entry — so the walk ends once the queue is empty.
    fn kick_idle_hosts<Q: EventScheduler<Ev>>(&mut self, cx: &RunCtx<'_>, q: &mut Q, now: SimTime) {
        if cx.churn_on {
            return;
        }
        while !self.queue.is_empty() {
            let Some(&hid) = self.idle.iter().next() else {
                break;
            };
            let h = hid as usize;
            debug_assert!(
                self.hosts[h].is_idle(),
                "idle-set invariant broken for host {h}"
            );
            self.start_next_activity(cx, q, now, h);
            self.sync_idle(h);
        }
    }

    /// Enter `Compute` once a task's input or migrated state has
    /// downloaded: `remaining_ref` reference seconds are left, the rest
    /// of the work unit is progress already made.
    fn begin_compute<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
        task: usize,
        remaining_ref: f64,
    ) {
        self.hosts[h].activity = Some(Activity::Compute {
            task,
            remaining_ref,
            progress_ref: cx.project.wu_ref_secs - remaining_ref,
        });
        self.hosts[h].act_started = now;
        let rate = self.rate(h);
        self.hosts[h].act_gen += 1;
        let gen = self.hosts[h].act_gen;
        let d = SimDuration::from_secs_f64(remaining_ref / rate);
        schedule_in(q, now, d, Ev::ActDone { h, gen });
        self.arm_evac_check(cx, q, now, h);
    }

    /// Give the host its next activity (resume, or fetch new work).
    fn start_next_activity<Q: EventScheduler<Ev>>(
        &mut self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
    ) {
        let host = &mut self.hosts[h];
        if !host.up || host.excluded || host.paused {
            return;
        }
        // Resume an interrupted activity if one exists; otherwise pick
        // work.
        if host.activity.is_none() {
            if !host.has_image {
                host.activity = Some(Activity::ImageDl {
                    remaining: cx.deploy.image_bytes as f64,
                });
                host.backoff.reset(&cx.backoff);
            } else if let Some(work) = self.queue.pop_front(&mut self.copies, &mut self.validator) {
                host.backoff.reset(&cx.backoff);
                match work {
                    Work::Fresh(copy) => {
                        debug_assert!(!self.copies[copy].returned);
                        host.activity = Some(Activity::InputDl {
                            remaining: cx.project.wu_input_bytes as f64,
                            task: copy,
                        });
                        schedule_in(q, now, cx.project.deadline, Ev::Deadline { copy });
                        if cx.deploy.migration.rescue {
                            // Audit the copy at the slack point; the
                            // full deadline rides along for the
                            // projection.
                            let slack = cx.project.deadline.as_secs_f64()
                                * cx.deploy.migration.rescue_slack;
                            let deadline =
                                now.checked_add(cx.project.deadline).unwrap_or(SimTime::MAX);
                            let ev = Ev::RescueCheck { copy, deadline };
                            schedule_in(q, now, SimDuration::from_secs_f64(slack), ev);
                        }
                    }
                    Work::Resume {
                        copy,
                        remaining_ref,
                    } => {
                        // Fetch the migrated checkpoint: the VM's
                        // committed RAM (or the small app-level state
                        // when native).
                        host.activity = Some(Activity::StateDl {
                            remaining: archetype::checkpoint_state_bytes(cx.deploy) as f64,
                            task: copy,
                            remaining_ref,
                        });
                    }
                }
            } else {
                // Empty scheduler reply. Under churn the client retries
                // with exponential backoff; the zero-churn path keeps
                // the legacy server push (`kick_idle_hosts`) and
                // schedules nothing.
                if cx.churn_on && !host.refetch_pending {
                    let delay = host.backoff.next_delay(&cx.backoff);
                    host.refetch_pending = true;
                    schedule_in(q, now, delay, Ev::Refetch { h });
                }
                return;
            }
        }
        host.act_started = now;
        let rate = compute_rate(host, self.vm_factor, self.ckpt_frac);
        let Some(act) = host.activity.as_ref() else {
            return;
        };
        let secs = match act {
            Activity::ImageDl { remaining }
            | Activity::InputDl { remaining, .. }
            | Activity::StateDl { remaining, .. } => remaining / cx.pool.down_bw,
            Activity::Upload { remaining, .. } => remaining / cx.pool.up_bw,
            Activity::Compute { remaining_ref, .. } => remaining_ref / rate,
        };
        host.act_gen += 1;
        let gen = host.act_gen;
        schedule_in(
            q,
            now,
            SimDuration::from_secs_f64(secs.max(1e-6)),
            Ev::ActDone { h, gen },
        );
        self.arm_evac_check(cx, q, now, h);
    }

    /// Arm the periodic evacuation audit for a host that just
    /// (re)entered `Compute` — only under the policy's `evacuate` arm,
    /// only under churn, and only when checkpoints exist (no durable
    /// state, nothing worth exporting). Policy-off campaigns schedule
    /// nothing here, ever.
    fn arm_evac_check<Q: EventScheduler<Ev>>(
        &self,
        cx: &RunCtx<'_>,
        q: &mut Q,
        now: SimTime,
        h: usize,
    ) {
        let deploy = cx.deploy;
        if !deploy.migration.evacuate || !cx.churn_on || deploy.checkpoint_interval.is_zero() {
            return;
        }
        if !matches!(self.hosts[h].activity, Some(Activity::Compute { .. })) {
            return;
        }
        let gen = self.hosts[h].act_gen;
        schedule_in(q, now, deploy.checkpoint_interval, Ev::EvacCheck { h, gen });
    }
}

/// Snapshot the loop-exit state into the trajectory cache (when a
/// store key is present), then run final accounting. The snapshot is
/// taken *before* accounting so a resumed run re-derives the final
/// report through the identical code path.
fn store_and_finalize<Q: EventScheduler<Ev>>(
    st: SimState,
    mut q: Q,
    carried: Option<(SimTime, Ev)>,
    cx: &RunCtx<'_>,
    store_key: Option<&str>,
) -> GridReport {
    if let Some(key) = store_key {
        // Drain the queue in pop order: re-scheduling this sequence
        // into a fresh queue preserves same-instant FIFO ties, so a
        // resumed run pops the identical event stream. The carried
        // event (popped by the break check, never processed) leads.
        let mut pending: Vec<(SimTime, Ev)> = Vec::new();
        pending.extend(carried);
        while let Some(entry) = q.pop() {
            pending.push(entry);
        }
        fastforward::trajectory_store(
            key,
            cx.horizon,
            CampaignCheckpoint {
                state: st.clone(),
                pending,
            },
        );
    }
    finalize(st, cx)
}

/// Final accounting: fold the loop-exit state into the report.
fn finalize(st: SimState, cx: &RunCtx<'_>) -> GridReport {
    let SimState {
        mut hosts,
        mut report,
        hpool,
        eligible_rate,
        validator,
        makespan,
        ..
    } = st;
    let (project, deploy) = (cx.project, cx.deploy);
    let end = makespan.unwrap_or(cx.horizon);
    for host in hosts.iter_mut() {
        if host.up {
            host.uptime_total += end.since(host.up_since).as_secs_f64();
        }
    }
    report.validated_wus = validator.validated_count();
    report.finished = validator.validated_count() >= project.workunits;
    report.makespan_secs = end.as_secs_f64();
    let uptime: f64 = hosts.iter().map(|h| h.uptime_total).sum(); // simlint: allow(float-fold-order) -- host order is fixed; this sum order is part of the bit-identity contract
    let validated_ref =
        validator.validated_count() as f64 * project.wu_ref_secs * project.quorum as f64;
    report.efficiency = if uptime > 0.0 {
        validated_ref / uptime
    } else {
        0.0
    };
    report.goodput = if report.makespan_secs > 0.0 {
        validator.validated_count() as f64 * project.wu_ref_secs / report.makespan_secs
    } else {
        0.0
    };
    report.wasted_cpu_secs = (report.cpu_secs_spent - validator.useful_cpu_secs()).max(0.0);
    // The checkpoint model charges a fractional write overhead per
    // interval of host compute time rather than simulating each write;
    // count the intervals that overhead covered.
    let interval_secs = deploy.checkpoint_interval.as_secs_f64();
    if interval_secs > 0.0 {
        report.checkpoint_writes = (report.cpu_secs_spent / interval_secs).floor() as u64;
    }
    // Makespan relative to a fully-available, perfectly-scheduled pool
    // of the RAM-eligible hosts (a lower bound, so inflation >= 1 for
    // any finished campaign).
    let ideal_secs = if eligible_rate > 0.0 {
        project.workunits as f64 * project.quorum as f64 * project.wu_ref_secs / eligible_rate
    } else {
        0.0
    };
    report.makespan_inflation = if ideal_secs > 0.0 {
        report.makespan_secs / ideal_secs
    } else {
        0.0
    };
    // Retire the hydration pool. The stats are a pure function of the
    // (substrate-independent) event stream, so the report stays
    // bit-identical across substrates.
    report.hydration = hpool.finish();
    report
}

/// Effective compute rate: reference seconds per host second.
fn compute_rate(host: &HostSlot, vm_factor: f64, ckpt_frac: f64) -> f64 {
    host.speed / vm_factor * (1.0 - ckpt_frac).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_vmm::VmmProfile;

    /// Churn-enabled entry point on the default (batched) substrate.
    fn run_impl(
        project: &ProjectConfig,
        pool: &PoolConfig,
        deploy: &DeployConfig,
        churn: &ChurnConfig,
        seed: u64,
        horizon: SimTime,
    ) -> GridReport {
        run_campaign_substrate(
            project,
            pool,
            deploy,
            churn,
            seed,
            horizon,
            &RunOptions::default(),
        )
    }

    /// Zero-churn entry point used by the legacy-behaviour tests.
    fn run_legacy(
        project: &ProjectConfig,
        pool: &PoolConfig,
        deploy: &DeployConfig,
        seed: u64,
        horizon: SimTime,
    ) -> GridReport {
        run_impl(project, pool, deploy, &ChurnConfig::off(), seed, horizon)
    }

    fn small_project() -> ProjectConfig {
        ProjectConfig {
            workunits: 20,
            wu_ref_secs: 600.0,
            replication: 2,
            quorum: 2,
            error_rate: 0.02,
            ..Default::default()
        }
    }

    fn stable_pool() -> PoolConfig {
        PoolConfig {
            volunteers: 30,
            mean_uptime_secs: 100_000.0,
            mean_downtime_secs: 100.0,
            ram_range: (1 << 30, 2 << 30), // everyone can host a VM
            ..Default::default()
        }
    }

    fn horizon() -> SimTime {
        SimTime::from_secs(30 * 24 * 3600)
    }

    #[test]
    fn prefix_resume_is_bit_identical_to_cold_run() {
        // Same spec at a longer horizon must resume from the stored
        // prefix snapshot and still match a cold full run. The cold
        // references use the flat-queue substrate, which never touches
        // the trajectory cache — no global toggles, so this test is
        // race-free under parallel execution.
        let project = ProjectConfig {
            workunits: 40,
            wu_ref_secs: 1800.0,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 60,
            ram_range: (256 << 20, 2 << 30),
            ..Default::default()
        };
        let deploy = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
        let churn = ChurnConfig::intensity(0.7);
        let seed = 0x9e5a_11e7_7e57_0001;
        let h1 = SimTime::from_secs(3 * 24 * 3600);
        let h2 = SimTime::from_secs(9 * 24 * 3600);

        let cold = |h| {
            run_campaign_substrate(
                &project,
                &pool,
                &deploy,
                &churn,
                seed,
                h,
                &RunOptions::default().substrate(SubstrateMode::HydratedReference),
            )
        };
        let warm = |h| run_impl(&project, &pool, &deploy, &churn, seed, h);

        let ref1 = cold(h1);
        let ref2 = cold(h2);
        assert_eq!(warm(h1), ref1, "cold batched run diverged");
        // The h1 run stored its loop-exit snapshot; the h2 lookup must
        // find it as a usable prefix.
        let key = fastforward::trajectory_key(&project, &pool, &deploy, &churn, seed);
        assert!(
            fastforward::trajectory_lookup(&key, h2).is_some(),
            "prefix snapshot was not stored at h1",
        );
        assert_eq!(warm(h2), ref2, "resume-from-prefix diverged from cold run");
        // Exact-horizon replay: resuming at the snapshot's own horizon
        // re-breaks immediately and re-derives the identical report.
        assert_eq!(warm(h1), ref1, "exact-horizon resume diverged");
        assert_eq!(warm(h2), ref2, "repeat resume diverged");
    }

    #[test]
    fn vm_cpu_factor_is_profile_ordered() {
        let f = |p: VmmProfile| vm_cpu_factor(&ExecutionMode::Vm(p));
        assert_eq!(vm_cpu_factor(&ExecutionMode::Native), 1.0);
        let vmp = f(VmmProfile::vmplayer());
        let q = f(VmmProfile::qemu());
        assert!(vmp > 1.0 && vmp < 1.3, "vmp {vmp}");
        assert!(q > 1.3, "qemu {q}");
        assert!(q > vmp);
    }

    #[test]
    fn substrates_are_bit_identical() {
        // The calendar-queue batched substrate and the flat-queue
        // reference substrate must agree on every report field,
        // hydration stats included, under zero churn and full churn.
        for churn in [ChurnConfig::off(), ChurnConfig::intensity(1.0)] {
            for deploy in [
                DeployConfig::native(),
                DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
            ] {
                let run = |substrate| {
                    run_campaign_substrate(
                        &small_project(),
                        &stable_pool(),
                        &deploy,
                        &churn,
                        9,
                        horizon(),
                        &RunOptions::default().substrate(substrate),
                    )
                };
                let batched = run(SubstrateMode::Batched);
                let reference = run(SubstrateMode::HydratedReference);
                assert_eq!(batched, reference, "substrate divergence: {deploy:?}");
            }
        }
    }

    #[test]
    fn events_past_the_clock_range_are_dropped() {
        // Churn level 0.01 draws owner-arrival and kill gaps with means
        // of hundreds of days, and a reissue deadline may sit at the
        // edge of `SimTime`'s ~213-day range: some events land past it.
        // Both substrates must drop them and agree bit for bit.
        let pool = PoolConfig {
            volunteers: 10,
            ..Default::default()
        };
        let edge_deadline = ProjectConfig {
            workunits: 4,
            wu_ref_secs: 900.0,
            deadline: SimDuration::from_secs(18_446_700),
            ..Default::default()
        };
        let mut rescue = DeployConfig::native();
        rescue.migration.rescue = true;
        for (project, deploy, level) in [
            (ProjectConfig::default(), DeployConfig::native(), 0.01),
            (edge_deadline, rescue, 0.5),
        ] {
            let run = |substrate| {
                run_campaign_substrate(
                    &project,
                    &pool,
                    &deploy,
                    &ChurnConfig::intensity(level),
                    0xc11,
                    SimTime::from_secs(3 * 24 * 3600),
                    &RunOptions::default().substrate(substrate),
                )
            };
            let batched = run(SubstrateMode::Batched);
            assert!(batched.results_returned > 0, "{batched:?}");
            assert_eq!(batched, run(SubstrateMode::HydratedReference));
        }
    }

    #[test]
    fn reports_carry_archetype_census_and_hydration_stats() {
        let r = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
            9,
            horizon(),
        );
        let census_total: u32 = r.archetype_hosts.iter().map(|&(_, n)| n).sum();
        assert_eq!(census_total, stable_pool().volunteers);
        assert!(!r.archetype_hosts.is_empty());
        assert!(r.hydration.windows > 0, "{:?}", r.hydration);
        assert!(r.hydration.hydrations >= 1);
        assert!(r.hydration.peak_resident >= 1);
        assert!(r.hydration.memo_hits > 0, "windows repeat per archetype");
    }

    #[test]
    fn native_campaign_completes() {
        let r = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            1,
            horizon(),
        );
        assert!(r.finished, "campaign incomplete: {r:?}");
        assert_eq!(r.validated_wus, 20);
        assert!(r.cpu_secs_spent > 0.0);
        assert_eq!(r.hosts_excluded_ram, 0);
        assert!(r.goodput > 0.0);
        assert!(r.makespan_inflation >= 1.0, "{r:?}");
    }

    #[test]
    fn vm_campaign_is_slower_but_completes() {
        let native = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            1,
            horizon(),
        );
        let vm = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::vm(VmmProfile::qemu(), 1_400 << 20),
            1,
            horizon(),
        );
        assert!(vm.finished);
        assert!(
            vm.makespan_secs > native.makespan_secs,
            "vm {} vs native {}",
            vm.makespan_secs,
            native.makespan_secs
        );
        assert!(vm.image_transfer_secs > 0.0);
        assert!(vm.efficiency < native.efficiency);
        assert!(vm.goodput < native.goodput);
    }

    #[test]
    fn small_ram_hosts_are_excluded_from_vm_campaigns() {
        let pool = PoolConfig {
            ram_range: (128 << 20, 1 << 30),
            ..stable_pool()
        };
        let vm = run_legacy(
            &small_project(),
            &pool,
            &DeployConfig::vm(VmmProfile::vmplayer(), 700 << 20),
            3,
            horizon(),
        );
        assert!(vm.hosts_excluded_ram > 0, "{:?}", vm.hosts_excluded_ram);
        let native = run_legacy(
            &small_project(),
            &pool,
            &DeployConfig::native(),
            3,
            horizon(),
        );
        assert_eq!(native.hosts_excluded_ram, 0);
    }

    #[test]
    fn churn_loses_work() {
        let churny = PoolConfig {
            mean_uptime_secs: 1800.0,
            mean_downtime_secs: 1800.0,
            ..stable_pool()
        };
        let project = ProjectConfig {
            wu_ref_secs: 4.0 * 3600.0,
            workunits: 10,
            ..small_project()
        };
        let r = run_legacy(&project, &churny, &DeployConfig::native(), 5, horizon());
        assert!(r.cpu_secs_lost > 0.0, "expected lost work: {r:?}");
        assert!(r.cpu_secs_lost < r.cpu_secs_spent);
        assert!(r.wasted_cpu_secs >= r.cpu_secs_lost * 0.99, "{r:?}");
    }

    #[test]
    fn replication_absorbs_bad_results() {
        let project = ProjectConfig {
            error_rate: 0.3,
            ..small_project()
        };
        let r = run_legacy(
            &project,
            &stable_pool(),
            &DeployConfig::native(),
            7,
            horizon(),
        );
        assert!(r.bad_results > 0);
        assert!(r.finished, "quorum should still be reached: {r:?}");
        // Bad results are CPU spent that produced no validated science.
        assert!(r.wasted_cpu_secs > 0.0);
    }

    #[test]
    fn deadline_reissue_survives_permanent_volunteer_loss() {
        // A third of offline transitions are permanent. The campaign
        // still completes because expired copies are reissued.
        let flaky = PoolConfig {
            volunteers: 40,
            mean_uptime_secs: 4.0 * 3600.0,
            mean_downtime_secs: 3600.0,
            permanent_failure_prob: 0.33,
            ram_range: (1 << 30, 2 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 20,
            wu_ref_secs: 1200.0,
            deadline: vgrid_simcore::SimDuration::from_secs(24 * 3600),
            ..small_project()
        };
        let r = run_legacy(&project, &flaky, &DeployConfig::native(), 13, horizon());
        assert!(r.finished, "reissue must rescue stranded work units: {r:?}");
        // Attrition really happened (some copies never came back).
        assert!(
            r.results_returned as u32 >= project.workunits * project.quorum,
            "{r:?}"
        );
        assert!(r.reissues > 0, "{r:?}");
    }

    #[test]
    fn migration_rescues_interrupted_tasks() {
        // Long tasks + short uptimes: without migration a task camps on
        // its (offline) host; with migration another host resumes it.
        let churny = PoolConfig {
            volunteers: 20,
            mean_uptime_secs: 2.0 * 3600.0,
            mean_downtime_secs: 20.0 * 3600.0,
            ram_range: (1 << 30, 2 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 30,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let without = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20),
            21,
            horizon(),
        );
        let with = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration(),
            21,
            horizon(),
        );
        assert_eq!(without.migrations, 0);
        assert!(with.migrations > 0, "migrations happened: {with:?}");
        assert!(
            with.validated_wus >= without.validated_wus,
            "migration should not reduce throughput: {} vs {}",
            with.validated_wus,
            without.validated_wus
        );
    }

    #[test]
    fn migrated_state_costs_transfer_time() {
        // Migration with a huge state should be slower end-to-end than
        // with a small state, all else equal.
        let churny = PoolConfig {
            volunteers: 20,
            mean_uptime_secs: 2.0 * 3600.0,
            mean_downtime_secs: 20.0 * 3600.0,
            ram_range: (4 << 30, 8 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 30,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let mut big_state = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration();
        if let ExecutionMode::Vm(p) = &mut big_state.mode {
            p.guest_ram = 2 << 30; // 2 GB of state to ship per migration
        }
        let small = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration(),
            22,
            horizon(),
        );
        let big = run_legacy(&project, &churny, &big_state, 22, horizon());
        assert!(
            big.validated_wus <= small.validated_wus,
            "shipping 2 GB per migration can't beat 300 MB: {} vs {}",
            big.validated_wus,
            small.validated_wus
        );
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            run_legacy(
                &small_project(),
                &stable_pool(),
                &DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
                seed,
                horizon(),
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.results_returned, b.results_returned);
        let c = run(12);
        assert_ne!(a.makespan_secs, c.makespan_secs);
    }

    #[test]
    fn churn_is_deterministic_too() {
        let churn = ChurnConfig::intensity(2.0);
        let run = |seed| {
            run_impl(
                &small_project(),
                &stable_pool(),
                &DeployConfig::native(),
                &churn,
                seed,
                horizon(),
            )
        };
        assert_eq!(run(31), run(31));
        assert_ne!(run(31).makespan_secs, run(32).makespan_secs);
    }

    #[test]
    fn owner_activity_preempts_and_kills() {
        let churn = ChurnConfig {
            owner_arrival_mean_secs: 2.0 * 3600.0,
            owner_session_mean_secs: 1800.0,
            preempt_kill_prob: 0.3,
            ..ChurnConfig::off()
        };
        let r = run_impl(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            &churn,
            41,
            horizon(),
        );
        assert!(r.owner_preemptions > 0, "{r:?}");
        assert!(r.vm_kills > 0, "{r:?}");
        assert!(r.finished, "{r:?}");
    }

    #[test]
    fn vm_suspend_preserves_work_native_preemption_loses_it() {
        // Frequent owner sessions + long tasks + sparse checkpoints:
        // native preemptions roll back to the last checkpoint, VM
        // suspends lose nothing.
        let churn = ChurnConfig {
            owner_arrival_mean_secs: 1800.0,
            owner_session_mean_secs: 900.0,
            ..ChurnConfig::off()
        };
        let project = ProjectConfig {
            workunits: 10,
            wu_ref_secs: 2.0 * 3600.0,
            ..small_project()
        };
        let mut native_deploy = DeployConfig::native();
        native_deploy.checkpoint_interval = SimDuration::from_secs(3600);
        let native = run_impl(
            &project,
            &stable_pool(),
            &native_deploy,
            &churn,
            43,
            horizon(),
        );
        let mut vm_deploy = DeployConfig::vm(VmmProfile::vmplayer(), 0);
        vm_deploy.checkpoint_interval = SimDuration::from_secs(3600);
        let vm = run_impl(&project, &stable_pool(), &vm_deploy, &churn, 43, horizon());
        assert!(native.cpu_secs_lost > 0.0, "{native:?}");
        assert!(
            vm.cpu_secs_lost < native.cpu_secs_lost,
            "suspend must lose less than preemption: vm {} vs native {}",
            vm.cpu_secs_lost,
            native.cpu_secs_lost
        );
    }

    #[test]
    fn disabled_checkpointing_loses_everything_on_kill() {
        let churn = ChurnConfig {
            vm_kill_mean_secs: 2.0 * 3600.0,
            ..ChurnConfig::off()
        };
        let project = ProjectConfig {
            workunits: 10,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let mut no_ckpt = DeployConfig::native();
        no_ckpt.checkpoint_interval = SimDuration::ZERO;
        let without = run_impl(&project, &stable_pool(), &no_ckpt, &churn, 47, horizon());
        let with = run_impl(
            &project,
            &stable_pool(),
            &DeployConfig::native(),
            &churn,
            47,
            horizon(),
        );
        assert!(without.vm_kills > 0, "{without:?}");
        assert!(
            without.cpu_secs_lost > with.cpu_secs_lost,
            "no checkpoints must lose more: {} vs {}",
            without.cpu_secs_lost,
            with.cpu_secs_lost
        );
        assert!(with.goodput >= without.goodput, "{with:?} vs {without:?}");
    }
}
