//! The simulator's own configuration: the cost model.
//!
//! Everything else a simulated run needs — cluster, scheme, buffers, seed —
//! comes from the validated [`runtime_api::ResolvedRunSpec`] every backend
//! reads.

use net_model::CostModel;

/// Safety cap on the number of events one simulated run may execute, to stop
/// runaway simulations.
pub const EVENT_BUDGET: u64 = 2_000_000_000;

/// What only the simulator reads: the communication and CPU cost model.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Communication and CPU cost model.
    pub costs: CostModel,
}

impl Default for SimConfig {
    /// The Delta-like cost preset.
    fn default() -> Self {
        Self {
            costs: net_model::presets::delta_like(),
        }
    }
}
