//! The projection flow's stage calls, shared by the batch workloads, and
//! the checks on each stage's output.
//!
//! Each stage is one call (or a short fixed sequence of calls) into a
//! crate's public API, with the settings the repository's own pipeline
//! uses (`dlp_bench::pipeline`): relative pruning at 1e-5 and yield
//! scaled to 0.75. The random phase of ATPG is a parameter: the pipeline
//! applies up to 1024 random vectors and stops after 192 barren ones.

use dlp_atpg::generate::{generate_tests, AtpgConfig, AtpgResult, PodemVerdict};
use dlp_circuit::Netlist;
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{self, ExtractionConfig};
use dlp_extract::faults::FaultSet;
use dlp_layout::chip::ChipLayout;
use dlp_layout::tech::Technology;
use dlp_sim::detection::DetectionRecord;
use dlp_sim::ppsfp;
use dlp_sim::stuck_at::{self, StuckAtFault};

use crate::checks::{self, Check};

/// The paper's yield operating point.
pub const YIELD: f64 = 0.75;

/// Faults re-derived by the serial gate evaluator per record.
const GATE_SAMPLE: usize = 48;

pub fn layout(netlist: &Netlist) -> Result<ChipLayout, String> {
    ChipLayout::generate(netlist, &Technology::default()).map_err(|e| format!("layout: {e}"))
}

pub struct Extracted {
    pub faults: FaultSet,
    pub weights: FaultWeights,
}

pub fn extract(chip: &ChipLayout, threads: ThreadCount) -> Result<Extracted, String> {
    let stats = DefectStatistics::maly_cmos();
    let mut faults =
        extractor::extract_with_threads(chip, &stats, &ExtractionConfig::default(), threads)
            .map_err(|e| format!("extraction: {e}"))?;
    faults.prune_below(1e-5);
    let weights = FaultWeights::new(faults.weights())
        .and_then(|w| w.scaled_to_yield(YIELD))
        .map_err(|e| format!("fault weights: {e}"))?;
    Ok(Extracted { faults, weights })
}

pub struct Tests {
    pub atpg: AtpgResult,
    /// The collapsed stuck-at faults PODEM did not prove redundant.
    pub testable: Vec<StuckAtFault>,
    pub redundant: Vec<StuckAtFault>,
}

/// The pipeline's random phase: `(budget, stall limit)`.
pub const PIPELINE_RANDOM: (usize, usize) = (1024, 192);

/// Random vectors then PODEM; `random` is the random phase's
/// `(budget, stall limit)`.
pub fn atpg(netlist: &Netlist, seed: u64, random: (usize, usize)) -> Result<Tests, String> {
    let faults = stuck_at::enumerate(netlist).collapse();
    let atpg = generate_tests(
        netlist,
        faults.faults(),
        &AtpgConfig {
            random_budget: random.0,
            random_stall: random.1,
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| format!("ATPG: {e}"))?;
    let redundant: Vec<StuckAtFault> = atpg
        .undetected
        .iter()
        .filter(|(_, v)| *v == PodemVerdict::Redundant)
        .map(|(f, _)| *f)
        .collect();
    let testable = faults
        .faults()
        .iter()
        .copied()
        .filter(|f| !redundant.contains(f))
        .collect();
    Ok(Tests {
        atpg,
        testable,
        redundant,
    })
}

pub fn sim_gate(
    netlist: &Netlist,
    tests: &Tests,
    threads: ThreadCount,
) -> Result<DetectionRecord, String> {
    ppsfp::simulate_with(netlist, &tests.testable, &tests.atpg.vectors, threads)
        .map_err(|e| format!("gate-level simulation: {e}"))
}

/// Test lengths at which the curves are sampled: 1, 2, 4, … and the
/// full length.
pub fn lengths(vectors: usize) -> Vec<usize> {
    let mut out: Vec<usize> = std::iter::successors(Some(1usize), |k| Some(k * 2))
        .take_while(|&k| k < vectors)
        .collect();
    out.push(vectors.max(1));
    out
}

/// Layout checks: no shorts between different nets, the router's count
/// of unconnected branches is returned for the caller to judge.
pub fn check_layout(chip: &ChipLayout) -> Check {
    let violations = chip.verify_connectivity();
    match violations.first() {
        Some(first) => Err(format!(
            "{} connectivity violations, first {first:?}",
            violations.len()
        )),
        None => Ok(()),
    }
}

/// The gate-level record against the serial evaluator, redundant faults
/// never detected, and T(k) in [0, 1] and non-decreasing; plus a
/// self-test that a record with one flipped first-detect index is
/// rejected.
pub fn check_gate_record(
    netlist: &Netlist,
    tests: &Tests,
    record: &DetectionRecord,
    seed: u64,
) -> Check {
    let vectors = &tests.atpg.vectors;
    let sample = checks::sample_indices(tests.testable.len(), GATE_SAMPLE, seed);
    checks::gate_record(
        netlist,
        &tests.testable,
        record.first_detect(),
        vectors,
        &sample,
    )?;
    checks::redundant_undetected(netlist, &tests.redundant, vectors)?;
    let t: Vec<f64> = record.coverage_curve();
    checks::unit_nondecreasing("T(k)", &t)?;

    // Corrupt the first detected fault in the sample and expect rejection.
    let target = sample
        .iter()
        .copied()
        .find(|&j| record.first_detect()[j].is_some())
        .ok_or("no sampled fault is detected")?;
    let mut corrupted = record.first_detect().to_vec();
    corrupted[target] =
        corrupted[target].map(|k| if k + 1 < vectors.len() { k + 1 } else { k - 1 });
    checks::rejects(
        "gate-level record",
        checks::gate_record(netlist, &tests.testable, &corrupted, vectors, &[target]),
    )
}

/// DL values against eq. 3 at their coverages, plus a self-test that a
/// perturbed DL is rejected.
pub fn check_eq3(points: &[(f64, f64)]) -> Check {
    for &(coverage, dl) in points {
        checks::eq3(YIELD, coverage, dl)?;
    }
    let &(coverage, dl) = points.last().ok_or("no DL points")?;
    checks::rejects("eq. 3", checks::eq3(YIELD, coverage, dl + 1e-6))
}
