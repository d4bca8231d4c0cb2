//! The scenario-spec JSON codec: one `qic_des::json` table per document
//! type.
//!
//! `record!` rows are in emission order. A row marked `#[optional]` is
//! emitted only when it differs from `Default` and decodes to `Default`
//! when absent. That keeps blocks later schemas added (`fault`,
//! `modular`, `observe`, `checkpoint`, `dead_modules`) out of older
//! documents, byte for byte. The types other crates own carry their
//! tables there: `FaultPlan` and `Hotspot` in `qic-fault`, the modular
//! block in `qic-modular`, and the label types in `qic-net` and
//! `qic-analytic`.

use qic_sweep::json::{labels, record, tagged};

use super::spec::{
    CheckpointSpec, ExperimentSpec, MachineSpec, NetPreset, ObserveSpec, ScenarioAxis,
    ScenarioSpec, WorkloadSpec,
};
use crate::layout::Layout;

labels! {
    NetPreset: "preset", label;
    Layout: "layout", to_string;
}

record! {
    ScenarioSpec "scenario" {
        name, seed, replicates, workers, experiment, axes, #[optional] observe,
        #[optional] checkpoint,
    }
    MachineSpec "machine" {
        preset, width, height, topology, routing, layout, teleporters, generators, purifiers,
        purify_depth, outputs_per_comm, #[optional] fault, #[optional] modular,
    }
    ObserveSpec "observe" { dir, events, chrome_trace, bins }
    CheckpointSpec "checkpoint" { dir, every }
}

tagged! {
    ExperimentSpec "experiment" "kind" {
        Machine "machine" { machine, workload },
        Channel "channel" { placement, hops, metric },
    }
}

tagged! {
    WorkloadSpec "workload" "kind" {
        Qft "qft" { qubits },
        ModMul "mod_mul" { register },
        ModExp "mod_exp" { register, steps },
        Shor "shor" { register, steps },
        Synthetic "synthetic" { qubits, comms, seed },
        Batch "batch" { comms },
    }
}

tagged! {
    ScenarioAxis "axis" "axis" {
        ResourceRatio "resource_ratio" => "ratio" { area, ratios },
        Layouts "layout" => "layout" { layouts },
        Topologies "topology" => "topology" { kinds },
        Routings "routing" => "routing" { policies },
        GridEdges "grid_edge" => "mesh" { edges },
        PurifyDepths "purify_depth" => "depth" { depths },
        Units "units" => "units" { units },
        Teleporters "teleporters" => "t" { values },
        Generators "generators" => "g" { values },
        Purifiers "purifiers" => "p" { values },
        Workloads "workload" => "workload" { workloads },
        FaultRate "fault_rate" => "fault_rate" { rates },
        Modules "modules" => "modules" { counts },
        InterTierLatency "inter_latency" => "inter_latency" { latencies_ns },
        InterTierCost "inter_cost" => "inter_cost" { costs },
        Placements "placement" => "placement" { placements },
        Hops "hops" => "hops" { hops },
        ErrorRateLog "error_rate_log" => "error_rate" { start_exp, stop_exp, per_decade },
    }
}
