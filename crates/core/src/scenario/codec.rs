//! The scenario-spec JSON codec, generated from one table per document
//! type.
//!
//! [`Field`] converts one value to and from [`Json`]. `record!` derives
//! it for a struct from its fields in emission order, `tagged!` for an
//! enum from one row per variant. Each field is named once, and its
//! encoder, decoder and [`check_fields`] entry all come from that
//! mention, so encode and decode cannot drift apart: a new document
//! field is one table row. Decoders build struct literals, so a field
//! missing from a table fails to compile.
//!
//! A row marked `#[optional]` is emitted only when it differs from
//! `Default` and decodes to `Default` when absent. That keeps blocks
//! later schemas added (`fault`, `modular`, `observe`, `checkpoint`,
//! `dead_modules`) out of older documents, byte for byte.

use qic_analytic::figures::PairMetric;
use qic_analytic::strategy::PurifyPlacement;
use qic_fault::{FaultPlan, Hotspot};
use qic_modular::{Interconnect, LinkParams, ModularSpec};
use qic_net::routing::RoutingPolicy;
use qic_net::topology::TopologyKind;
use qic_sweep::json::{check_fields, get, get_opt, Json, JsonError};

use super::spec::{
    CheckpointSpec, ExperimentSpec, MachineSpec, NetPreset, ObserveSpec, ScenarioAxis,
    ScenarioSpec, WorkloadSpec,
};
use crate::layout::Layout;

/// A value with a JSON form.
pub(crate) trait Field: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// Reads the value back; `ctx` names it in error messages.
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError>;
}

/// Numbers and booleans: `$of` reads one back, widening `as` writes it.
macro_rules! scalars {
    ($($ty:ty => $of:ident, $json:ident as $wide:ty;)*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Json {
                Json::$json(*self as $wide)
            }
            fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
                v.$of(ctx)
            }
        }
    )*};
}

scalars! {
    u16 => u16_of, Int as i128;
    u32 => u32_of, Int as i128;
    u64 => u64_of, Int as i128;
    i32 => i32_of, Int as i128;
    i64 => i64_of, Int as i128;
    usize => usize_of, Int as i128;
    f64 => f64_of, Float as f64;
    bool => bool_of, Bool as bool;
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        v.str_of(ctx).map(str::to_string)
    }
}

/// Types written as their label string: `$emit` renders the label, the
/// type's own `parse` reads it back, and an unknown label names `$noun`.
macro_rules! labels {
    ($($ty:ty: $noun:literal, $emit:ident;)*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Json {
                Json::Str(self.$emit().into())
            }
            fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
                let label = v.str_of(ctx)?;
                <$ty>::parse(label).ok_or_else(|| {
                    Json::schema_err(format!(concat!("unknown ", $noun, " {:?}"), label))
                })
            }
        }
    )*};
}

labels! {
    NetPreset: "preset", label;
    TopologyKind: "topology", to_string;
    RoutingPolicy: "routing", to_string;
    Layout: "layout", to_string;
    PurifyPlacement: "placement", label;
    PairMetric: "metric", label;
    Interconnect: "interconnect", label;
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        v.arr_of(ctx)?.iter().map(|x| T::decode(x, ctx)).collect()
    }
}

/// A present value is set; absence is the `#[optional]` rule's business.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        T::decode(v, ctx).map(Some)
    }
}

impl<T: Field> Field for Box<T> {
    fn encode(&self) -> Json {
        T::encode(self)
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        T::decode(v, ctx).map(Box::new)
    }
}

/// A two-element array (batch sites and site pairs).
impl<A: Field, B: Field> Field for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        match v.arr_of(ctx)? {
            [a, b] => Ok((A::decode(a, ctx)?, B::decode(b, ctx)?)),
            _ => Err(Json::schema_err(format!(
                "{ctx}: expected a two-item array"
            ))),
        }
    }
}

type Fields = Vec<(String, Json)>;

fn put<T: Field>(out: &mut Fields, key: &str, value: &T) {
    out.push((key.to_string(), value.encode()));
}

fn put_optional<T: Field + Default + PartialEq>(out: &mut Fields, key: &str, value: &T) {
    if *value != T::default() {
        put(out, key, value);
    }
}

fn take<T: Field>(fields: &[(String, Json)], key: &str, ctx: &str) -> Result<T, JsonError> {
    T::decode(get(fields, key, ctx)?, key)
}

fn take_optional<T: Field + Default>(fields: &[(String, Json)], key: &str) -> Result<T, JsonError> {
    get_opt(fields, key).map_or_else(|| Ok(T::default()), |v| T::decode(v, key))
}

/// Structs: `Type "ctx" { field, #[optional] field, … }`, rows in
/// emission order; `ctx` names the object in error messages.
macro_rules! record {
    (@put optional $out:ident, $field:ident, $v:expr) => {
        put_optional(&mut $out, stringify!($field), $v)
    };
    (@put $out:ident, $field:ident, $v:expr) => {
        put(&mut $out, stringify!($field), $v)
    };
    (@take optional $f:ident, $field:ident, $ctx:literal) => {
        take_optional($f, stringify!($field))
    };
    (@take $f:ident, $field:ident, $ctx:literal) => {
        take($f, stringify!($field), $ctx)
    };
    ($($ty:ident $ctx:literal { $($(#[$opt:ident])? $field:ident),* $(,)? })*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Json {
                let mut out = Vec::with_capacity([$(stringify!($field)),*].len());
                $(record!(@put $($opt)? out, $field, &self.$field);)*
                Json::Obj(out)
            }
            fn decode(v: &Json, _: &str) -> Result<Self, JsonError> {
                let f = v.obj_of($ctx)?;
                check_fields(f, &[$(stringify!($field)),*], $ctx)?;
                Ok($ty { $($field: record!(@take $($opt)? f, $field, $ctx)?),* })
            }
        }
    )*};
}

/// Enums: `Type "ctx" "tag" { Variant "value" { field, … }, … }`. The
/// `tag` field carries the variant's value and comes first. A row may
/// add `=> "name"` after the value; the table then also generates
/// `axis_name`, the campaign axis each variant sweeps.
macro_rules! tagged {
    ($ty:ident $ctx:literal $tag:literal {
        $($variant:ident $value:literal => $name:literal { $($field:ident),* }),* $(,)?
    }) => {
        tagged!($ty $ctx $tag { $($variant $value { $($field),* }),* });
        impl $ty {
            /// The campaign axis this variant sweeps.
            pub(crate) fn axis_name(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name),*
                }
            }
        }
    };
    ($ty:ident $ctx:literal $tag:literal {
        $($variant:ident $value:literal { $($field:ident),* }),* $(,)?
    }) => {
        impl Field for $ty {
            fn encode(&self) -> Json {
                let mut out = Vec::with_capacity(4);
                match self {
                    $($ty::$variant { $($field),* } => {
                        out.push(($tag.to_string(), Json::Str($value.into())));
                        $(put(&mut out, stringify!($field), $field);)*
                    })*
                }
                Json::Obj(out)
            }
            fn decode(v: &Json, _: &str) -> Result<Self, JsonError> {
                let f = v.obj_of($ctx)?;
                match get(f, $tag, $ctx)?.str_of($tag)? {
                    $($value => {
                        check_fields(f, &[$tag, $(stringify!($field)),*], $ctx)?;
                        Ok($ty::$variant { $($field: take(f, stringify!($field), $ctx)?),* })
                    })*
                    other => Err(Json::schema_err(format!(
                        concat!("unknown ", $ctx, " kind {:?}"),
                        other
                    ))),
                }
            }
        }
    };
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
    FaultPlan "fault" {
        seed, link_kill_rate, node_loss_rate, teleporter_loss_rate, dead_links, dead_nodes,
        #[optional] dead_modules, hotspots,
    }
    Hotspot "hotspot" { link, start_ns, end_ns, penalty_ns }
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

/// The modular block flattens `inter: LinkParams` into its own object,
/// which a one-name-per-row table cannot say, so this pair is written
/// out by hand.
impl Field for ModularSpec {
    fn encode(&self) -> Json {
        let mut out = Vec::with_capacity(8);
        put(&mut out, "modules", &self.modules);
        put(&mut out, "interconnect", &self.interconnect);
        put(&mut out, "latency_ns", &self.inter.latency_ns);
        put(&mut out, "teleporter_slots", &self.inter.teleporter_slots);
        put(&mut out, "fidelity", &self.inter.fidelity);
        put(&mut out, "intra_fidelity", &self.intra_fidelity);
        put(&mut out, "inter_unit_cost", &self.inter_unit_cost);
        put(&mut out, "report_cost", &self.report_cost);
        Json::Obj(out)
    }
    fn decode(v: &Json, _: &str) -> Result<Self, JsonError> {
        const CTX: &str = "modular";
        let f = v.obj_of(CTX)?;
        check_fields(
            f,
            &[
                "modules",
                "interconnect",
                "latency_ns",
                "teleporter_slots",
                "fidelity",
                "intra_fidelity",
                "inter_unit_cost",
                "report_cost",
            ],
            CTX,
        )?;
        Ok(ModularSpec {
            modules: take(f, "modules", CTX)?,
            interconnect: take(f, "interconnect", CTX)?,
            inter: LinkParams {
                latency_ns: take(f, "latency_ns", CTX)?,
                teleporter_slots: take(f, "teleporter_slots", CTX)?,
                fidelity: take(f, "fidelity", CTX)?,
            },
            intra_fidelity: take(f, "intra_fidelity", CTX)?,
            inter_unit_cost: take(f, "inter_unit_cost", CTX)?,
            report_cost: take(f, "report_cost", CTX)?,
        })
    }
}
