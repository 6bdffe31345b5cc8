//! The six workloads. Each runs in a process of its own, so peak RSS and
//! the allocator counters belong to one workload.

pub mod compile_cold;
pub mod probes;
pub mod read;
pub mod service_warm;
pub mod update_mix;

use crate::run::{Config, Outcome};

/// Run the workload `cfg` names (`None` for an unknown name).
pub fn run(cfg: &Config) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "fig10_arena" | "fig5_tree" | "fig10_disk" => read::run(cfg),
        "compile_cold" => compile_cold::run(cfg),
        "service_warm" => service_warm::run(cfg),
        "update_mix" => update_mix::run(cfg),
        _ => return None,
    })
}
