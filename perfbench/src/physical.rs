//! `c432_physical`: the front half of the paper's c432 flow — layout,
//! extraction, ATPG, gate-level PPSFP, and T(k) with Williams–Brown
//! DL(T). One operation per stage call; one request per round, the chain
//! of all five a user waits for. Layout owns almost all of the time;
//! switch-level simulation is absent.

use dlp_circuit::generators;
use dlp_core::williams_brown;

use crate::{checks, flow, Run};

/// c432 builds per set-up batch (one build takes 60–110 µs).
const SETUP_BUILDS: usize = 2_500;

pub fn c432_physical(run: &mut Run) {
    let netlist = run.setup(SETUP_BUILDS, generators::c432_class);
    let threads = run.thread_count();
    let seed = run.seed;
    run.rounds(|run, root| {
        let (chip, s) = run.timed("layout", root, |_| flow::layout(&netlist));
        let mut chain = s;
        let Ok(chip) = chip.map_err(|e| run.problems.push(e)) else {
            run.operation(false);
            return;
        };
        // Known fault: the router gives up on some c432 branches after
        // spending its whole reroute budget, although every shipped
        // benchmark is meant to route completely.
        run.operation(chip.unrouted() == 0);
        run.layers.add("layout.s", s);
        run.layers.add("layout.unrouted", chip.unrouted() as f64);
        run.check("layout", flow::check_layout(&chip));

        let (extracted, s) = run.timed("extract", root, |_| flow::extract(&chip, threads));
        run.operation(extracted.is_ok());
        run.layers.add("extract.s", s);
        chain += s;
        let Ok(extracted) = extracted.map_err(|e| run.problems.push(e)) else {
            return;
        };
        run.check(
            "fault weights",
            checks::weights_at_yield(extracted.weights.weights(), flow::YIELD),
        );

        let (tests, s) = run.timed("atpg", root, |_| {
            flow::atpg(&netlist, seed, flow::PIPELINE_RANDOM)
        });
        run.operation(tests.is_ok());
        run.layers.add("atpg.s", s);
        chain += s;
        let Ok(tests) = tests.map_err(|e| run.problems.push(e)) else {
            return;
        };
        run.layers
            .add("atpg.vectors", tests.atpg.vectors.len() as f64);

        let (record, s) = run.timed("sim_gate", root, |_| {
            flow::sim_gate(&netlist, &tests, threads)
        });
        run.operation(record.is_ok());
        run.layers.add("sim_gate.s", s);
        chain += s;
        let Ok(record) = record.map_err(|e| run.problems.push(e)) else {
            return;
        };
        run.check(
            "gate-level record",
            flow::check_gate_record(&netlist, &tests, &record, seed),
        );

        let (curve, s) = run.timed("dl_t", root, |_| {
            flow::lengths(tests.atpg.vectors.len())
                .into_iter()
                .map(|k| {
                    let t = record.coverage_after(k);
                    williams_brown::defect_level(flow::YIELD, t).map(|dl| (t, dl))
                })
                .collect::<Result<Vec<(f64, f64)>, _>>()
        });
        run.operation(curve.is_ok());
        run.request(chain + s);
        match curve {
            Ok(points) => {
                let t: Vec<f64> = points.iter().map(|p| p.0).collect();
                run.check("T(k)", checks::unit_nondecreasing("T(k)", &t));
                run.check("Williams-Brown DL(T)", flow::check_eq3(&points));
            }
            Err(e) => run.problems.push(format!("DL(T): {e}")),
        }
    });
}
