//! Chaos-harness metric names, recorded into the same
//! [`isgc_obs::Registry`] the engine's per-step series land in.
//!
//! Everything here is [`isgc_obs::Class::Logical`]: fault schedules are
//! keyed by step index and replay exactly from `(plan, seed)`, so these
//! counters are as deterministic as the engine's recovery series and belong
//! in golden snapshots.

/// Times the master was crashed by the plan and restarted by the harness.
pub const MASTER_RESTARTS_TOTAL: &str = "chaos.master.restarts.total";

/// Faults the plan scripted, labelled by `kind` (`drop`, `corrupt`, ...).
pub(crate) const FAULTS_SCRIPTED_TOTAL: &str = "chaos.faults.scripted.total";

/// Faults the chaos workers actually applied over their lifetimes.
pub(crate) const FAULTS_APPLIED_TOTAL: &str = "chaos.faults.applied.total";

/// Worker reconnections (scripted flaps and master restarts alike).
pub(crate) const WORKER_RECONNECTS_TOTAL: &str = "chaos.workers.reconnects.total";

/// Workers that exited via a scripted permanent death.
pub(crate) const WORKER_DEATHS_TOTAL: &str = "chaos.workers.died.total";

/// Invariant violations the post-run checker found (0 on a passing run).
pub(crate) const VIOLATIONS_TOTAL: &str = "chaos.violations.total";
