//! Typed per-run execution options.
//!
//! [`RunOptions`] is the one place a run's execution mode is chosen:
//! the scheduler (coalesced vs per-quantum reference), the grid host
//! substrate (batched vs hydrated reference) and whether the analytic
//! fast-forward caches are consulted. It is threaded as a value through
//! [`crate::Campaign::run_with`] and held by the core engine from
//! construction, so every run is a pure function of
//! `(spec, seed, options)` with no ambient mode state, and concurrent
//! server requests can differ in mode.

use crate::sim::SubstrateMode;

/// Scheduler execution mode for `vgrid_os::System`-backed runs (it
/// sets `SystemConfig::coalesce`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedulerMode {
    /// Slice-coalescing fast path (the default).
    Coalesced,
    /// Materialize every quantum boundary as a real event
    /// (`--per-quantum-reference`). Bit-identical by contract.
    PerQuantumReference,
}

/// Execution options for one campaign or trial run. Defaults reproduce
/// the production configuration: coalesced scheduler, batched host
/// substrate, fast-forward caches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Scheduler execution mode of every `System` a run builds: engine
    /// trials and the grid's hydration probes.
    pub scheduler: SchedulerMode,
    /// Grid host substrate (`--hydrated-reference` selects the
    /// reference substrate).
    pub substrate: SubstrateMode,
    /// Whether the analytic fast-forward caches are consulted
    /// (`--no-fastforward` disables them). Results are bit-identical
    /// either way; the switch exists for A/B cache pricing.
    pub fastforward: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scheduler: SchedulerMode::Coalesced,
            substrate: SubstrateMode::Batched,
            fastforward: true,
        }
    }
}

impl RunOptions {
    /// Set the scheduler mode.
    pub fn scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the grid host substrate.
    pub fn substrate(mut self, substrate: SubstrateMode) -> Self {
        self.substrate = substrate;
        self
    }

    /// Enable or disable the fast-forward caches.
    pub fn fastforward(mut self, on: bool) -> Self {
        self.fastforward = on;
        self
    }

    /// True when the per-quantum scheduler reference is selected.
    pub fn per_quantum_reference(&self) -> bool {
        self.scheduler == SchedulerMode::PerQuantumReference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_production() {
        let o = RunOptions::default();
        assert_eq!(o.scheduler, SchedulerMode::Coalesced);
        assert_eq!(o.substrate, SubstrateMode::Batched);
        assert!(o.fastforward);
        assert!(!o.per_quantum_reference());
    }

    #[test]
    fn builders_compose() {
        let o = RunOptions::default()
            .scheduler(SchedulerMode::PerQuantumReference)
            .substrate(SubstrateMode::HydratedReference)
            .fastforward(false);
        assert!(o.per_quantum_reference());
        assert_eq!(o.substrate, SubstrateMode::HydratedReference);
        assert!(!o.fastforward);
    }
}
