//! `serve_mix`: `dlp-serve` started in-process on loopback with an empty
//! cache, driven closed-loop by two clients over HTTP/1.1 (one request
//! per connection, as the server speaks it).
//!
//! Each client round takes an even seed `s` and the odd seed `s + 1`.
//! For each seed and each of `dist=poisson|nb|hier` it requests
//! `/v1/dl` (first touch: a miss that runs the c17 pipeline and seals
//! the `dl`, `curve` and `faults` artifacts), then `/v1/curve` and
//! `/v1/faults` (first touches answered from the sealed siblings); then
//! every one of those URLs again [`REPEATS`] times (hits), then
//! `/v1/dln` for n = 1..8 (misses in the first round, hits after).
//!
//! Known fault counted as failed: ATPG seeds its generator with
//! `seed | 1`, so seeds `s` and `s + 1` give the same projection. Every
//! `dl` and `curve` response of the odd seed that equals the even seed's
//! (apart from the echoed seed) is a failed operation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use dlp_core::obs::Json;
use dlp_core::par::ThreadCount;
use dlp_serve::service::{DEFAULT_FLIGHT_CAPACITY, MAX_TRACES_LIMIT};
use dlp_serve::{serve, AccessLogConfig, ServerConfig, ServerHandle, ServiceConfig};

use crate::checks::{self, Check};
use crate::trace::{SpanId, Tracer};
use crate::{percentile, sys, Run, SETUP_BATCHES};

/// Repeats of every first-touched URL per client round. With two misses
/// under `dist=hier` among 98 requests per client round, the hier tier
/// holds 2% of requests, so the 99th percentile falls inside it.
const REPEATS: usize = 4;
const DISTS: [&str; 3] = ["poisson", "nb", "hier"];
const MAX_N: usize = 8;
const CLIENTS: usize = 2;
/// Requests needed so that at least ten lie beyond the 99th percentile.
const MIN_REQUESTS: usize = 1_000;
/// The service's default negative-binomial clustering.
const NB_ALPHA: f64 = 2.0;
const YIELD: f64 = 0.75;
/// Server starts per set-up batch (one start takes about 0.2–0.3 ms).
/// Each start leaves two loopback connections in TIME_WAIT for a minute;
/// thousands of them (left by a larger set-up in back-to-back runs) made
/// every later start and connection several times slower.
const SETUP_STARTS: usize = 30;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// `/v1/dl` first touch: the pipeline runs.
    FirstTouch,
    /// `/v1/curve` and `/v1/faults` first touch, sealed by the `dl` miss.
    Sibling,
    Repeat,
    Dln,
}

struct Reply {
    target: String,
    tier: Tier,
    seconds: f64,
    status: u16,
    body: String,
}

/// One HTTP/1.1 request on its own connection.
fn get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// Starts a server on an empty cache directory and waits until
/// `/healthz` answers; returns it with the seconds that took.
fn start(
    dir: &str,
    threads: ThreadCount,
    flight_capacity: usize,
) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            cache_dir: dir.to_string(),
            threads,
            miss_budget_ms: None,
            flight_capacity,
            access_log: AccessLogConfig::Off,
        },
    })
    .map_err(|e| format!("starting dlp-serve: {e}"))?;
    loop {
        if let Ok((200, _)) = get(handle.addr(), "/healthz") {
            return Ok((handle, started.elapsed().as_secs_f64()));
        }
        if started.elapsed().as_secs() > 30 {
            handle.stop();
            return Err("dlp-serve did not answer /healthz within 30 s".to_string());
        }
        std::thread::yield_now();
    }
}

fn dl_target(seed: u64, dist: &str) -> String {
    format!("/v1/dl?circuit=c17&seed={seed}&dist={dist}")
}

fn curve_target(seed: u64, dist: &str) -> String {
    format!("/v1/curve?circuit=c17&seed={seed}&dist={dist}")
}

/// One client's round over the seed pair `(even, even + 1)`.
fn client_round(
    addr: SocketAddr,
    tracer: &Tracer,
    parent: Option<SpanId>,
    even: u64,
) -> Vec<Reply> {
    let mut first: Vec<(String, Tier)> = Vec::new();
    for seed in [even, even + 1] {
        for dist in DISTS {
            first.push((dl_target(seed, dist), Tier::FirstTouch));
            first.push((curve_target(seed, dist), Tier::Sibling));
            first.push((
                format!("/v1/faults?circuit=c17&seed={seed}&dist={dist}"),
                Tier::Sibling,
            ));
        }
    }
    let mut plan = first.clone();
    for _ in 0..REPEATS {
        plan.extend(first.iter().map(|(t, _)| (t.clone(), Tier::Repeat)));
    }
    plan.extend((1..=MAX_N).map(|n| (format!("/v1/dln?circuit=c17&n={n}"), Tier::Dln)));
    plan.into_iter()
        .map(|(target, tier)| {
            let name = match tier {
                Tier::FirstTouch => "serve.first_touch",
                Tier::Sibling => "serve.sibling",
                Tier::Repeat => "serve.repeat",
                Tier::Dln => "serve.dln",
            };
            let (result, seconds) = tracer.span(name, parent, |_| get(addr, &target));
            let (status, body) = result.unwrap_or_else(|e| (0, e));
            Reply {
                target,
                tier,
                seconds,
                status,
                body,
            }
        })
        .collect()
}

pub fn serve_mix(run: &mut Run) {
    let threads = run.thread_count();
    // The traced run keeps every miss's server-side trace: the flight
    // recorder retains the slowest requests, and misses are the slowest.
    let flight_capacity = if run.tracer.enabled() {
        MAX_TRACES_LIMIT
    } else {
        DEFAULT_FLIGHT_CAPACITY
    };
    // Set-up as in `Run::setup`: batches of server starts on fresh empty
    // caches, each start timed until `/healthz` answers (stopping the
    // previous server is left out), the fastest batch's total recorded.
    // The last server is kept for the run.
    let dir = format!(".bench_out/serve-cache-{}", std::process::id());
    let mut fastest = f64::INFINITY;
    let mut last: Option<ServerHandle> = None;
    for _ in 0..SETUP_BATCHES {
        let mut batch_s = 0.0;
        for _ in 0..SETUP_STARTS {
            if let Some(previous) = last.take() {
                previous.stop();
            }
            let _ = std::fs::remove_dir_all(&dir);
            match start(&dir, threads, flight_capacity) {
                Ok((handle, secs)) => {
                    batch_s += secs;
                    last = Some(handle);
                }
                Err(e) => {
                    run.problems.push(e);
                    return;
                }
            }
        }
        fastest = fastest.min(batch_s);
    }
    run.setup_s = fastest;
    let server = last.expect("at least one server started");
    let addr = server.addr();

    let base = run.seed.wrapping_mul(2 * 10_000);
    let tracer = std::sync::Arc::clone(&run.tracer);
    let mut replies: Vec<Reply> = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    tracer.span("run", None, |root| {
        while replies.len() < MIN_REQUESTS || started.elapsed().as_secs_f64() < run.seconds {
            let wall0 = Instant::now();
            let cpu0 = sys::cpu_seconds();
            let batch: Vec<Vec<Reply>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS as u64)
                    .map(|c| {
                        let tracer = &tracer;
                        let even = base + 2 * (CLIENTS as u64 * round + c);
                        scope.spawn(move || {
                            tracer
                                .span("client", root, |id| client_round(addr, tracer, id, even))
                                .0
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            run.round_wall_s.push(wall0.elapsed().as_secs_f64());
            run.round_cpu_s.push(sys::cpu_seconds() - cpu0);
            replies.extend(batch.into_iter().flatten());
            round += 1;
        }
    });

    let metrics = get(addr, "/metrics");
    let traces = run
        .tracer
        .enabled()
        .then(|| get(addr, &format!("/v1/traces?limit={MAX_TRACES_LIMIT}")));
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    tally(run, &replies);
    match metrics {
        Ok((200, text)) => server_layers(run, &text),
        Ok((status, _)) => run.problems.push(format!("/metrics answered {status}")),
        Err(e) => run.problems.push(format!("/metrics: {e}")),
    }
    match traces {
        None => {}
        Some(Ok((200, text))) => {
            if let Err(e) = miss_traces(run, &replies, &text) {
                run.problems.push(format!("/v1/traces: {e}"));
            }
        }
        Some(Ok((status, _))) => run.problems.push(format!("/v1/traces answered {status}")),
        Some(Err(e)) => run.problems.push(format!("/v1/traces: {e}")),
    }
}

/// Counts operations, checks every body, and records the client-side
/// latency metrics.
fn tally(run: &mut Run, replies: &[Reply]) {
    let mut firsts: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for r in replies {
        if r.status != 200 {
            run.problems
                .push(format!("{} answered {}: {}", r.target, r.status, r.body));
        }
        firsts.entry(&r.target).or_insert(&r.body);
    }
    let mut first_touch = Vec::new();
    let mut repeat = Vec::new();
    for r in replies {
        let ok = r.status == 200 && !duplicates_even_seed(r, &firsts);
        run.operation(ok);
        run.request(r.seconds);
        match r.tier {
            Tier::FirstTouch => first_touch.push(r.seconds * 1e3),
            Tier::Repeat => repeat.push(r.seconds * 1e3),
            Tier::Sibling | Tier::Dln => {}
        }
        if firsts[r.target.as_str()] != r.body {
            run.problems.push(format!(
                "{}: a repeat differs from the first response",
                r.target
            ));
        }
    }
    run.layers.set(
        "serve.first_touch_p50_ms",
        percentile(&mut first_touch, 0.5),
    );
    run.layers
        .set("serve.repeat_p50_ms", percentile(&mut repeat, 0.5));

    // Per seed: DL checks across the three distributions.
    let seeds: std::collections::BTreeSet<u64> = replies
        .iter()
        .filter(|r| r.tier == Tier::FirstTouch)
        .filter_map(|r| number(&r.body, "seed").map(|s| s as u64))
        .collect();
    let mut self_tested = false;
    for seed in seeds {
        let body = |dist| {
            firsts
                .get(dl_target(seed, dist).as_str())
                .copied()
                .unwrap_or("")
        };
        run.check(
            &format!("seed {seed} DL"),
            check_dl(body("poisson"), body("nb"), body("hier")),
        );
        for dist in DISTS {
            let curve = firsts
                .get(curve_target(seed, dist).as_str())
                .copied()
                .unwrap_or("");
            run.check(&format!("seed {seed} {dist} curve"), check_curve(curve));
        }
        if !self_tested {
            // A served NB DL perturbed by 1e-6 must fail the closed form.
            let nb = body("nb");
            let corrupted = with_number(nb, "dl", number(nb, "dl").unwrap_or(0.0) + 1e-6);
            run.check(
                "self-test",
                checks::rejects(
                    "served NB DL",
                    check_dl(body("poisson"), &corrupted, body("hier")),
                ),
            );
            self_tested = true;
        }
    }
    let dln: Vec<f64> = (1..=MAX_N)
        .map(|n| {
            let target = format!("/v1/dln?circuit=c17&n={n}");
            firsts
                .get(target.as_str())
                .and_then(|b| number(b, "dl"))
                .unwrap_or(f64::NAN)
        })
        .collect();
    run.check("DL(n)", checks::nonincreasing("DL(n)", &dln));
}

/// The known `seed | 1` fault: an odd seed's `dl` or `curve` body that
/// equals the even seed's, apart from the echoed seed.
fn duplicates_even_seed(r: &Reply, firsts: &std::collections::HashMap<&str, &str>) -> bool {
    if !(r.target.starts_with("/v1/dl?") || r.target.starts_with("/v1/curve?")) {
        return false;
    }
    let Some(seed) = number(&r.body, "seed").map(|s| s as u64) else {
        return false;
    };
    if seed & 1 == 0 {
        return false;
    }
    let even_target = r
        .target
        .replace(&format!("seed={seed}&"), &format!("seed={}&", seed - 1));
    firsts
        .get(even_target.as_str())
        .is_some_and(|even| with_number(even, "seed", 0.0) == with_number(&r.body, "seed", 0.0))
}

/// Poisson DL is eq. 3; NB DL is `1 − Y(λ)/Y(θλ)` at the λ that gives
/// `Y = 0.75`; NB and hierarchical DL do not exceed Poisson DL at the
/// same θ (Jensen's inequality).
fn check_dl(poisson: &str, nb: &str, hier: &str) -> Check {
    let field =
        |body: &str, key: &str| number(body, key).ok_or_else(|| format!("no {key} in {body:?}"));
    let theta = field(poisson, "theta")?;
    for body in [nb, hier] {
        checks::close(
            "theta across distributions",
            field(body, "theta")?,
            theta,
            0.0,
        )?;
    }
    let dl_poisson = field(poisson, "dl")?;
    checks::eq3(YIELD, theta, dl_poisson)?;
    let lambda = NB_ALPHA * (YIELD.powf(-1.0 / NB_ALPHA) - 1.0);
    checks::close("NB lambda", field(nb, "lambda")?, lambda, 1e-12)?;
    let dl_nb = field(nb, "dl")?;
    checks::close("NB DL", dl_nb, checks::nb_dl(lambda, theta, NB_ALPHA), 1e-9)?;
    let dl_hier = field(hier, "dl")?;
    if dl_nb > dl_poisson || dl_hier > dl_poisson {
        return Err(format!(
            "clustered DL above Poisson: nb {dl_nb}, hier {dl_hier}, poisson {dl_poisson}"
        ));
    }
    Ok(())
}

/// T(k), θ(k), Γ(k) in [0, 1] and non-decreasing; DL(θ(k)) never rising.
fn check_curve(body: &str) -> Check {
    let samples = body.split("{\"k\":").skip(1).collect::<Vec<_>>();
    if samples.is_empty() {
        return Err(format!("no curve samples in {body:?}"));
    }
    for key in ["t", "theta", "gamma"] {
        let column: Vec<f64> = samples
            .iter()
            .map(|s| number(s, key).unwrap_or(f64::NAN))
            .collect();
        checks::unit_nondecreasing(key, &column)?;
    }
    let dl: Vec<f64> = samples
        .iter()
        .map(|s| number(s, "dl").unwrap_or(f64::NAN))
        .collect();
    checks::nonincreasing("curve DL", &dl)
}

/// The number after the first `"key":` in a compact JSON text.
fn number(text: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    let rest = &text[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `text` with the number after the first `"key":` replaced by `value`.
fn with_number(text: &str, key: &str, value: f64) -> String {
    let pattern = format!("\"{key}\":");
    let Some(at) = text.find(&pattern) else {
        return text.to_string();
    };
    let start = at + pattern.len();
    let end = text[start..]
        .find([',', '}', ']'])
        .map_or(text.len(), |e| start + e);
    format!("{}{value}{}", &text[..start], &text[end..])
}

/// Server-side stage seconds and the cache hit ratio from `/metrics`.
fn server_layers(run: &mut Run, text: &str) {
    let sample = |prefix: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    for (span, layer) in [
        ("layout", "layout.s"),
        ("extract", "extract.s"),
        ("atpg", "atpg.s"),
        ("sim.gate", "sim_gate.s"),
        ("sim.switch", "sim_switch.s"),
    ] {
        run.layers.add(
            layer,
            sample(&format!("dlp_span_nanos_total{{span=\"{span}\"}} ")) * 1e-9,
        );
    }
    run.layers.add(
        "atpg.vectors",
        sample("dlp_counter_total{name=\"atpg.vectors\"} "),
    );
    let hits = sample("dlp_counter_total{name=\"serve.cache.hit\"} ");
    let misses = sample("dlp_counter_total{name=\"serve.cache.miss\"} ");
    run.layers.set("serve.hit_ratio", hits / (hits + misses));
}

/// `yield.calibrate_s` and the span coverage, from the server's own
/// trace of every `/v1/dl` miss.
///
/// A miss's `recompute` span holds the pipeline stages the server adopts
/// as its children (`layout`, `extract`, `atpg`, `sim.gate`,
/// `sim.switch`; `extract.*` nest inside `extract`) and the `seal` of the
/// sibling artifacts. What the children leave uncovered is the yield
/// layer's work: `lambda_for_yield` and the `defect_level` calls for the
/// response and its curve (plus rendering the bodies, which is small).
/// That remainder, summed over the misses, is `yield.calibrate_s`.
///
/// Coverage is the misses' layer time — the server's spans under the
/// request root, with the yield remainder counted as the yield layer's —
/// over their client-observed latency. The `/v1/dl` misses own almost all
/// of the mix's request time; the hits and the eight `/v1/dln` misses are
/// left out.
fn miss_traces(run: &mut Run, replies: &[Reply], text: &str) -> Check {
    let dump = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let traces = dump
        .get("traces")
        .and_then(Json::as_array)
        .ok_or("no traces array")?;
    let client: std::collections::HashMap<&str, f64> = replies
        .iter()
        .filter(|r| r.tier == Tier::FirstTouch)
        .map(|r| (r.target.as_str(), r.seconds))
        .collect();
    let (mut yield_ns, mut covered_ns, mut client_s, mut misses) = (0.0, 0.0, 0.0, 0);
    for trace in traces {
        let field = |key: &str| trace.get(key).and_then(Json::as_str).unwrap_or("");
        if field("endpoint") != "dl" || field("cache") != "miss" {
            continue;
        }
        let Some(&seconds) = client.get(field("target")) else {
            continue;
        };
        let spans: Vec<(Option<f64>, &str, f64)> = trace
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("trace without spans")?
            .iter()
            .map(|s| {
                (
                    s.get("parent").and_then(Json::as_f64),
                    s.get("name").and_then(Json::as_str).unwrap_or(""),
                    s.get("nanos").and_then(Json::as_f64).unwrap_or(0.0),
                )
            })
            .collect();
        let children = |id: usize| {
            let kids: Vec<(&str, f64)> = spans
                .iter()
                .filter(|s| s.0 == Some(id as f64))
                .map(|s| (s.1, s.2))
                .collect();
            // Adopted stages are flattened: `extract.bridges` sits beside
            // the `extract` that contains it.
            kids.iter()
                .filter(|(name, _)| {
                    !kids.iter().any(|(outer, _)| {
                        name.len() > outer.len()
                            && name.starts_with(outer)
                            && name.as_bytes()[outer.len()] == b'.'
                    })
                })
                .map(|k| k.1)
                .sum::<f64>()
        };
        let root = spans
            .iter()
            .position(|s| s.0.is_none())
            .ok_or("trace without a root span")?;
        let recompute = spans
            .iter()
            .position(|s| s.1 == "recompute")
            .ok_or("miss without a recompute span")?;
        yield_ns += (spans[recompute].2 - children(recompute)).max(0.0);
        covered_ns += children(root);
        client_s += seconds;
        misses += 1;
    }
    if misses != client.len() {
        return Err(format!(
            "kept {misses} of the run's {} /v1/dl misses",
            client.len()
        ));
    }
    run.layers.add("yield.calibrate_s", yield_ns * 1e-9);
    run.span_coverage = Some(covered_ns * 1e-9 / client_s);
    Ok(())
}
