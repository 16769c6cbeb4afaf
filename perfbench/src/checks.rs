//! Output checks computed independently of the code under test.
//!
//! None of these compares against a stored copy of today's output. Each
//! recomputes a value from first principles (a serial gate evaluator, a
//! single-fault switch-level run, a closed form) or checks a property
//! every correct output has (bounds, monotonicity, binomial agreement).
//! Every check returns `Err` with a reason instead of panicking, so a
//! workload can also assert that a deliberately corrupted output is
//! rejected.

use dlp_circuit::{GateKind, Netlist};
use dlp_sim::stuck_at::{FaultSite, StuckAtFault};
use dlp_sim::switchlevel::{Logic, SwitchFault, SwitchSimulator};

pub type Check = Result<(), String>;

/// Relative agreement of two reals.
pub fn close(what: &str, got: f64, want: f64, rel: f64) -> Check {
    if (got - want).abs() <= rel * want.abs().max(1e-300) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

/// Every fault weight finite and positive, and `exp(−Σw)` equal to the
/// target yield.
pub fn weights_at_yield(weights: &[f64], target: f64) -> Check {
    if let Some(i) = weights.iter().position(|w| !(w.is_finite() && *w > 0.0)) {
        return Err(format!("fault weight {i} is {}", weights[i]));
    }
    close(
        "exp(-sum w)",
        (-weights.iter().sum::<f64>()).exp(),
        target,
        1e-9,
    )
}

/// `values` all in `[0, 1]` and never decreasing.
pub fn unit_nondecreasing(what: &str, values: &[f64]) -> Check {
    if let Some(v) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
        return Err(format!("{what} value {v} outside [0, 1]"));
    }
    match values.windows(2).position(|w| w[1] < w[0]) {
        Some(i) => Err(format!(
            "{what} decreases at sample {i}: {} -> {}",
            values[i],
            values[i + 1]
        )),
        None => Ok(()),
    }
}

/// `values` finite and never increasing.
pub fn nonincreasing(what: &str, values: &[f64]) -> Check {
    if let Some(v) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!("{what} value {v} is not finite"));
    }
    match values.windows(2).position(|w| w[1] > w[0]) {
        Some(i) => Err(format!(
            "{what} increases at {i}: {} -> {}",
            values[i],
            values[i + 1]
        )),
        None => Ok(()),
    }
}

/// Eq. 3: `DL = 1 − Y^(1−θ)`.
pub fn eq3(y: f64, theta: f64, dl: f64) -> Check {
    close("DL (eq. 3)", dl, 1.0 - y.powf(1.0 - theta), 1e-12)
}

/// Negative-binomial yield `(1 + λ/α)^(−α)`.
pub fn nb_yield(lambda: f64, alpha: f64) -> f64 {
    (1.0 + lambda / alpha).powf(-alpha)
}

/// NB defect level `1 − Y(λ)/Y(θλ)`.
pub fn nb_dl(lambda: f64, theta: f64, alpha: f64) -> f64 {
    1.0 - nb_yield(lambda, alpha) / nb_yield(theta * lambda, alpha)
}

/// A Monte-Carlo proportion `hits / trials` within four binomial
/// standard deviations of the analytic `p`.
pub fn binomial(what: &str, hits: usize, trials: usize, p: f64) -> Check {
    if trials == 0 {
        return Err(format!("{what}: no trials"));
    }
    let n = trials as f64;
    let sigma = (p * (1.0 - p) / n).sqrt();
    let observed = hits as f64 / n;
    if (observed - p).abs() <= 4.0 * sigma {
        Ok(())
    } else {
        Err(format!(
            "{what}: Monte Carlo {observed} vs analytic {p} (4 sigma = {})",
            4.0 * sigma
        ))
    }
}

/// Serial single-fault gate evaluation: the index of the first vector at
/// which some primary output of the faulty circuit differs from the good
/// one. Shares no code with the parallel-pattern simulator.
pub fn serial_first_detect(
    netlist: &Netlist,
    fault: &StuckAtFault,
    vectors: &[Vec<bool>],
) -> Option<usize> {
    let n = netlist.node_count();
    let mut good = vec![false; n];
    let mut bad = vec![false; n];
    let mut pins: Vec<bool> = Vec::new();
    for (k, v) in vectors.iter().enumerate() {
        for (i, &input) in netlist.inputs().iter().enumerate() {
            good[input.index()] = v[i];
            bad[input.index()] = v[i];
        }
        // Node ids are topological: every fanin is created before its gate.
        for id in netlist.node_ids() {
            let kind = netlist.kind(id);
            if kind != GateKind::Input {
                pins.clear();
                pins.extend(netlist.fanin(id).iter().map(|f| good[f.index()]));
                good[id.index()] = eval(kind, &pins);
                pins.clear();
                pins.extend(netlist.fanin(id).iter().map(|f| bad[f.index()]));
                if let FaultSite::Branch { gate, pin } = fault.site {
                    if gate == id {
                        pins[pin] = fault.stuck_at_one;
                    }
                }
                bad[id.index()] = eval(kind, &pins);
            }
            if fault.site == FaultSite::Stem(id) {
                bad[id.index()] = fault.stuck_at_one;
            }
        }
        if netlist
            .outputs()
            .iter()
            .any(|o| good[o.index()] != bad[o.index()])
        {
            return Some(k);
        }
    }
    None
}

fn eval(kind: GateKind, pins: &[bool]) -> bool {
    let all = pins.iter().all(|&p| p);
    let any = pins.iter().any(|&p| p);
    let odd = pins.iter().filter(|&&p| p).count() % 2 == 1;
    match kind {
        GateKind::Input | GateKind::Buf => pins[0],
        GateKind::Not => !pins[0],
        GateKind::And => all,
        GateKind::Nand => !all,
        GateKind::Or => any,
        GateKind::Nor => !any,
        GateKind::Xor => odd,
        GateKind::Xnor => !odd,
    }
}

/// The gate-level record's first detections, re-derived serially for the
/// faults at `sample` (indices into `faults`).
pub fn gate_record(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    first_detect: &[Option<usize>],
    vectors: &[Vec<bool>],
    sample: &[usize],
) -> Check {
    for &j in sample {
        let want = serial_first_detect(netlist, &faults[j], vectors);
        if first_detect[j] != want {
            return Err(format!(
                "gate-level fault {j}: record says {:?}, serial evaluation {want:?}",
                first_detect[j]
            ));
        }
    }
    Ok(())
}

/// No fault PODEM proved redundant is detected by any vector.
pub fn redundant_undetected(
    netlist: &Netlist,
    redundant: &[StuckAtFault],
    vectors: &[Vec<bool>],
) -> Check {
    match redundant
        .iter()
        .find_map(|f| serial_first_detect(netlist, f, vectors).map(|k| (f, k)))
    {
        Some((f, k)) => Err(format!(
            "fault {} proven redundant but detected by vector {k}",
            f.describe(netlist)
        )),
        None => Ok(()),
    }
}

/// The switch-level record's first detections, re-derived for the faults
/// at `sample` by a single-fault run against the good machine.
pub fn switch_record(
    sim: &SwitchSimulator,
    faults: &[SwitchFault],
    first_detect: &[Option<usize>],
    vectors: &[Vec<bool>],
    sample: &[usize],
) -> Check {
    let good = sim.run_good(vectors);
    for &j in sample {
        let bad = sim.run(Some(&faults[j]), vectors);
        let want = good.iter().zip(&bad).position(|(g, b)| {
            g.iter()
                .zip(b)
                .any(|(g, b)| *g != Logic::X && *b != Logic::X && g != b)
        });
        if first_detect[j] != want {
            return Err(format!(
                "switch-level fault {j}: record says {:?}, single-fault run {want:?}",
                first_detect[j]
            ));
        }
    }
    Ok(())
}

/// `count` indices spread over `0..len`, offset by `seed`: a sample that
/// differs between seeds and always covers both ends of the list.
pub fn sample_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let count = count.min(len);
    let offset = (seed as usize) % len.div_ceil(count);
    let mut out: Vec<usize> = (0..count)
        .map(|i| (offset + i * len / count).min(len - 1))
        .collect();
    out.push(len - 1);
    out.sort_unstable();
    out.dedup();
    out
}

/// Expects `check` to fail: used to show that a check rejects a
/// deliberately corrupted output.
pub fn rejects(what: &str, check: Check) -> Check {
    match check {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "self-test: the {what} check accepted a corrupted output"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_sim::stuck_at;

    #[test]
    fn serial_evaluator_detects_c17_faults() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors: Vec<Vec<bool>> = (0..32u32)
            .map(|v| (0..5).map(|b| v >> b & 1 == 1).collect())
            .collect();
        // c17 is irredundant: exhaustive vectors detect every fault.
        for f in faults.faults() {
            assert!(serial_first_detect(&c17, f, &vectors).is_some(), "{f:?}");
        }
    }

    #[test]
    fn property_checks_reject_bad_values() {
        assert!(unit_nondecreasing("t", &[0.1, 0.5, 0.4]).is_err());
        assert!(unit_nondecreasing("t", &[0.1, 1.2]).is_err());
        assert!(unit_nondecreasing("t", &[0.0, 0.5, 1.0]).is_ok());
        assert!(nonincreasing("dl", &[3.0, 2.0, 2.5]).is_err());
        assert!(eq3(0.75, 0.9, 1.0 - 0.75f64.powf(0.1)).is_ok());
        assert!(eq3(0.75, 0.9, 1.0 - 0.75f64.powf(0.1) + 1e-9).is_err());
        assert!(binomial("y", 7_500, 10_000, 0.75).is_ok());
        assert!(binomial("y", 7_000, 10_000, 0.75).is_err());
    }

    #[test]
    fn samples_cover_both_ends() {
        let s = sample_indices(100, 8, 5);
        assert_eq!(s.last(), Some(&99));
        assert!(s.len() >= 8);
        assert!(s.iter().all(|&i| i < 100));
        assert_eq!(sample_indices(3, 8, 1), vec![0, 1, 2]);
    }
}
