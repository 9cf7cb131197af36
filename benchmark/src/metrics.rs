//! The names, units, directions and bounds of every metric the benchmark
//! reports. The gated end-to-end metrics, the per-layer metrics and the
//! workloads' reasons are written once, in `/BENCHMARK.json` — the file the
//! PR driver reads — which is compiled in and parsed at start. Its keys are
//! fixed by the driver's contract, so what it cannot carry ([`FAMILY`],
//! [`DERIVED`]) is listed here.

use std::sync::OnceLock;

use serde::Deserialize;

use crate::stats::Better::{self, Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics a full set records and `compare` bounds but the
/// contract's `end_to_end` list cannot carry: that list wants every metric
/// from every workload, never zero, with a small spread across seeds. The
/// simulated ones exist on some workloads only and move with the seed;
/// `step_ms_p50` divides the same run wall `msgs_per_s` does. Simulated
/// values repeat exactly for a seed, so their bounds are tight.
pub const FAMILY: [Def; 7] = [
    e2e("step_ms_p50", "ms", Lower, 0.25),
    e2e("discovery_mean_s", "s", Lower, 0.15),
    e2e("detection_mean_s", "s", Lower, 0.15),
    e2e("bytes_per_node_s", "B/s", Lower, 0.03),
    e2e("live_rtt_us_p50", "us", Lower, 0.20),
    e2e("live_rtt_us_p99", "us", Lower, 0.25),
    e2e("failed_share", "share", Lower, 0.0),
];

/// Metrics only a full set can compute, because they relate two runs.
pub const DERIVED: [Def; 2] = [
    layer("sim.shard.speedup_vs_seq", "ratio", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// What the harness reads of `/BENCHMARK.json`.
pub struct Contract {
    /// The `--seconds` a run measures for unless told otherwise.
    pub run_seconds: u64,
    /// `(name, why)` in the order a full set runs them.
    pub workloads: Vec<(&'static str, &'static str)>,
    /// Every workload reports these, never zero (`--trace 0`).
    pub end_to_end: Vec<Def>,
    /// Every traced run reports these; a layer the workload never executes
    /// reads 0 (`--trace 1`).
    pub per_layer: Vec<Def>,
}

#[derive(Deserialize)]
struct WorkloadRow {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct GatedRow {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct LayerRow {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct ContractFile {
    run_seconds: u64,
    workloads: Vec<WorkloadRow>,
    end_to_end: Vec<GatedRow>,
    per_layer: Vec<LayerRow>,
}

fn def(name: String, unit: String, better: &str, bound: Option<f64>) -> Def {
    Def {
        name: name.leak(),
        unit: unit.leak(),
        better: match better {
            "lower" => Lower,
            "higher" => Higher,
            other => panic!("BENCHMARK.json: `better` is lower or higher, not {other}"),
        },
        bound,
    }
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let file: ContractFile = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json has the contract's keys");
        Contract {
            run_seconds: file.run_seconds,
            workloads: file
                .workloads
                .into_iter()
                .map(|w| (&*w.name.leak(), &*w.why.leak()))
                .collect(),
            end_to_end: file
                .end_to_end
                .into_iter()
                .map(|r| def(r.name, r.unit, &r.better, Some(r.bound)))
                .collect(),
            per_layer: file
                .per_layer
                .into_iter()
                .map(|r| def(r.name, r.unit, &r.better, None))
                .collect(),
        }
    })
}

/// Every end-to-end metric a full set records: the gated ones, then
/// [`FAMILY`].
pub fn end_to_end() -> impl Iterator<Item = &'static Def> {
    contract().end_to_end.iter().chain(&FAMILY)
}

pub fn find(name: &str) -> Option<&'static Def> {
    end_to_end()
        .chain(&contract().per_layer)
        .chain(&DERIVED)
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_parses_and_names_are_unique() {
        let c = contract();
        assert!(c.end_to_end.iter().any(|d| d.name == "setup_s"));
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let names: Vec<&str> = end_to_end()
            .chain(&c.per_layer)
            .chain(&DERIVED)
            .map(|d| d.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
        }
    }
}
