//! `serve-routed`: two `dc-net` shard servers behind a `dc-router` front
//! on loopback, in this process, driven by one closed-loop load thread
//! over two keep-alive connections with batched `POST /v1/predict`.

use crate::common::{median, quantile, sub_seed, timed, Args, Report, SplitMix, WorkDir};
use crate::oracle::{self, Cells, Predictor, Sub};
use dc_datagen::EmbedConfig;
use dc_net::http::HttpReader;
use dc_net::{serve, serve_handler, AppState, HttpClient, Limits, ServerConfig, ServerHandle};
use dc_obs::{MemorySink, Obs};
use dc_router::{Router, RouterConfig};
use dc_serve::ServeModel;
use std::io::Cursor;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 20_000;
const COLS: usize = 50;
/// Planted residue-0 clusters the model serves, `(rows, cols)` each.
const PLANTED: (usize, usize) = (400, 10);
const K: usize = 20;
/// Queries per request, and distinct request bodies cycled by the load.
const BATCH: usize = 64;
const BODIES: usize = 64;
/// Keep-alive connections the load thread holds (at most `nproc` = 2).
const CONNECTIONS: usize = 2;
/// Workers per server. A dc-net worker parks on each keep-alive
/// connection, so a server needs at least as many workers as connections
/// it holds open: a shard sees up to 3 from each of the (at most two)
/// routers' pools, 2 from the direct load and 1 from the answer check; a
/// front sees the load thread's 2.
const SHARD_WORKERS: usize = 10;
const FRONT_WORKERS: usize = CONNECTIONS;
const SETUP_REPS: usize = 9;
/// Requests per run at least, so the p99 has at least ten beyond it.
const MIN_REQUESTS: usize = 1000;

/// The serving tier of one set-up.
struct Tier {
    shards: Vec<ServerHandle>,
    /// `(front, its router's event sink)`; the second front, in traced
    /// runs only, routes with a recording sink.
    fronts: Vec<(ServerHandle<Router>, Option<MemorySink>)>,
    prober_stop: Arc<AtomicBool>,
    probers: Vec<std::thread::JoinHandle<()>>,
}

impl Tier {
    fn start(model: &ServeModel, traced: bool) -> Tier {
        let mut shards = Vec::new();
        for _ in 0..2 {
            let state = Arc::new(AppState::new(model.clone(), None, 1, Obs::null()));
            let cfg = ServerConfig {
                threads: SHARD_WORKERS,
                ..ServerConfig::default()
            };
            shards.push(serve(cfg, state, Arc::new(AtomicBool::new(false))).expect("bind shard"));
        }
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let prober_stop = Arc::new(AtomicBool::new(false));
        let (mut fronts, mut probers) = (Vec::new(), Vec::new());
        for recording in [false, true].into_iter().take(1 + traced as usize) {
            let sink = recording.then(MemorySink::new);
            let obs = sink.clone().map_or_else(Obs::null, Obs::new);
            let router = Router::new(
                RouterConfig {
                    shards: addrs.clone(),
                    ..RouterConfig::default()
                },
                obs,
            )
            .expect("valid shard list");
            let router = Arc::new(router);
            assert_eq!(router.probe_all(), 2, "both shards must answer the census");
            probers.push(Router::spawn_prober(router.clone(), prober_stop.clone()));
            let cfg = ServerConfig {
                threads: FRONT_WORKERS,
                ..ServerConfig::default()
            };
            let front =
                serve_handler(cfg, router, Arc::new(AtomicBool::new(false))).expect("bind router");
            fronts.push((front, sink));
        }
        Tier {
            shards,
            fronts,
            prober_stop,
            probers,
        }
    }

    fn stop(self) {
        for (front, _) in self.fronts {
            front.shutdown();
        }
        self.prober_stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        for p in self.probers {
            p.join().expect("prober thread");
        }
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// The query stream: half the cells drawn from planted clusters, half
/// uniformly (mostly uncovered).
fn queries(seed: u64, truth: &[Sub]) -> Vec<Vec<(usize, usize)>> {
    let mut rng = SplitMix(sub_seed(seed, 3));
    (0..BODIES)
        .map(|_| {
            (0..BATCH)
                .map(|q| {
                    if q % 2 == 0 {
                        let s = &truth[rng.below(truth.len())];
                        (
                            s.rows[rng.below(s.rows.len())],
                            s.cols[rng.below(s.cols.len())],
                        )
                    } else {
                        (rng.below(ROWS), rng.below(COLS))
                    }
                })
                .collect()
        })
        .collect()
}

fn body_of(batch: &[(usize, usize)]) -> String {
    let cells: Vec<String> = batch.iter().map(|(r, c)| format!("[{r},{c}]")).collect();
    format!("{{\"queries\": [{}]}}", cells.join(","))
}

/// One request's bytes as a client puts them on the wire.
fn request_bytes(host: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/predict HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Result of one closed-loop load window.
struct Load {
    attempted: u64,
    latencies_ms: Vec<f64>,
    /// Completion time of each answered request, seconds into the window.
    done_s: Vec<f64>,
    seconds: f64,
    failed: u64,
    bytes: u64,
}

/// Closed loop: one thread keeps one request in flight on each of
/// `CONNECTIONS` keep-alive connections, checking every response against
/// the bytes verified at set-up.
fn load(addr: &str, bodies: &[String], expected: &[Vec<u8>], budget: Duration, min: usize) -> Load {
    let connect = || HttpClient::connect(addr).expect("connect to the server");
    let mut conns: Vec<HttpClient> = (0..CONNECTIONS).map(|_| connect()).collect();
    let mut out = Load {
        attempted: 0,
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        seconds: 0.0,
        failed: 0,
        bytes: 0,
    };
    let start = Instant::now();
    let mut next = 0usize;
    while out.latencies_ms.len() < min || start.elapsed() < budget {
        let mut sent = [(0usize, start); CONNECTIONS];
        for (i, conn) in conns.iter_mut().enumerate() {
            let idx = next % bodies.len();
            next += 1;
            out.attempted += 1;
            sent[i] = (idx, Instant::now());
            if conn
                .send("POST", "/v1/predict", Some(bodies[idx].as_bytes()))
                .is_err()
            {
                sent[i].0 = usize::MAX;
            }
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let (idx, t0) = sent[i];
            let ok = idx != usize::MAX
                && match conn.read_response() {
                    Ok(resp) => {
                        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        out.done_s.push(start.elapsed().as_secs_f64());
                        out.bytes += resp.body.len() as u64;
                        resp.status == 200 && resp.body == expected[idx]
                    }
                    Err(_) => false,
                };
            if !ok {
                out.failed += 1;
                *conn = connect();
            }
        }
    }
    out.seconds = start.elapsed().as_secs_f64();
    out
}

/// Length of the windows a load window is cut into for its throughput.
const WINDOW_S: f64 = 1.0;

impl Load {
    /// Predictions per second in each whole `WINDOW_S` window.
    fn window_rates(&self) -> Vec<f64> {
        let n = ((self.seconds / WINDOW_S) as usize).max(1);
        let mut counts = vec![0usize; n];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
                *c += 1;
            }
        }
        counts
            .iter()
            .map(|&c| (c * BATCH) as f64 / WINDOW_S)
            .collect()
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let embed = EmbedConfig::new(ROWS, COLS, vec![PLANTED; K]).with_seed(sub_seed(args.seed, 1));

    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    // (model, tier, request bodies, their verified routed answers)
    type SetUp = (ServeModel, Tier, Vec<String>, Vec<Vec<u8>>);
    let mut current: Option<SetUp> = None;
    let mut stream = Vec::new();
    let mut truth = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some((_, tier, _, _)) = current.take() {
            tier.stop();
        }
        let start = Instant::now();
        let (data, g) = timed(|| dc_datagen::embed::generate(&embed));
        gen.push(g);
        let residues: Vec<f64> = data
            .truth
            .iter()
            .map(|c| dc_floc::cluster_residue(&data.matrix, c, dc_floc::ResidueMean::Arithmetic))
            .collect();
        let avg = residues.iter().sum::<f64>() / residues.len() as f64;
        truth = data.truth.iter().map(Sub::of).collect();
        let model = ServeModel::new(data.matrix, data.truth, residues, avg).expect("planted model");
        let tier = Tier::start(&model, args.trace);
        stream = queries(args.seed, &truth);
        let bodies: Vec<String> = stream.iter().map(|b| body_of(b)).collect();
        // Warm-up: every distinct request once through each front.
        let mut routed = Vec::new();
        for (front, _) in &tier.fronts {
            let mut client = HttpClient::connect(front.addr()).expect("connect to the router");
            routed = bodies
                .iter()
                .map(|b| {
                    client
                        .post_json("/v1/predict", b)
                        .map(|r| (r.status, r.body))
                })
                .collect::<Result<Vec<_>, _>>()
                .expect("warm-up request");
        }
        setup.push(start.elapsed().as_secs_f64());
        let routed: Vec<Vec<u8>> = routed
            .into_iter()
            .map(|(status, body)| {
                report.check(status == 200, || format!("warm-up answered {status}"));
                body
            })
            .collect();
        current = Some((model, tier, bodies, routed));
    }
    report.setup_s = median(&setup);
    let (model, tier, bodies, routed) = current.expect("at least one set-up");

    check_answers(
        &mut report,
        &model,
        &tier,
        &truth,
        &stream,
        &bodies,
        &routed,
    );

    let front = |i: usize| tier.fronts[i].0.addr().to_string();
    let budget = args.budget();
    let main = if args.trace {
        let third = budget / 3;
        let plain = load(&front(0), &bodies, &routed, third, MIN_REQUESTS);
        let traced = load(&front(1), &bodies, &routed, third, MIN_REQUESTS);
        let direct = load(
            &tier.shards[0].addr().to_string(),
            &bodies,
            &routed,
            third,
            MIN_REQUESTS,
        );
        for l in [&traced, &direct] {
            report.attempted += l.attempted;
            report.failed += l.failed;
        }
        report.layer("datagen.gen_s", median(&gen));
        layers(
            &mut report,
            work,
            &model,
            &tier,
            &stream,
            &bodies,
            &plain,
            &traced,
            &direct,
        );
        plain
    } else {
        load(&front(0), &bodies, &routed, budget, MIN_REQUESTS)
    };
    report.attempted += main.attempted;
    report.failed += main.failed;
    if main.latencies_ms.is_empty() {
        report.check(false, || "no routed request was answered".into());
        tier.stop();
        return report;
    }
    // Median latency, and the upper quartile of the per-second rates, which
    // a slow spell over most of the run does not move (see README,
    // "Steadiness").
    let rates = main.window_rates();
    report.op_ms = median(&main.latencies_ms);
    report.items_per_s = quantile(&rates, 0.75);
    eprintln!(
        "perfbench: {} routed requests in {:.2}s, p50 {:.4} ms p99 {:.4} ms, overall {:.1}/s, windows {:?}",
        main.latencies_ms.len(),
        main.seconds,
        report.op_ms,
        quantile(&main.latencies_ms, 0.99),
        (main.latencies_ms.len() * BATCH) as f64 / main.seconds,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    tier.stop();
    report
}

/// Routed answers checked against the oracle, and byte-for-byte against
/// a direct single-shard answer to the same batch.
fn check_answers(
    report: &mut Report,
    model: &ServeModel,
    tier: &Tier,
    truth: &[Sub],
    stream: &[Vec<(usize, usize)>],
    bodies: &[String],
    routed: &[Vec<u8>],
) {
    let cells = Cells::of(model.matrix());
    let pred = Predictor::new(&cells, truth.to_vec());
    let exact = zero_residue(&cells, truth);
    let mut own_values = 0;
    let mut direct = HttpClient::connect(tier.shards[0].addr()).expect("connect to a shard");
    for (i, (batch, body)) in stream.iter().zip(bodies).enumerate() {
        let text = String::from_utf8_lossy(&routed[i]);
        match oracle::parse_results(&text) {
            Some(answers) => {
                if let Err(e) = oracle::check_answers(&pred, batch, &answers) {
                    report.check(false, || format!("batch {i}: {e}"));
                }
                own_values += check_own_values(report, &cells, &pred, &exact, batch, &answers);
            }
            None => report.check(false, || format!("batch {i}: unparsable body {text}")),
        }
        match direct.post_json("/v1/predict", body) {
            Ok(d) => report.check(d.status == 200 && d.body == routed[i], || {
                format!("batch {i}: routed bytes differ from the single-shard answer")
            }),
            Err(e) => report.check(false, || format!("batch {i}: direct request failed: {e}")),
        }
    }
    report.check(own_values > 0, || {
        "no answer fell on a cell covered only by a residue-0 cluster".into()
    });
}

/// Largest residue taken as 0: the planted residue-0 clusters recompute to
/// about 1e-13 at this value scale, from rounding in the means. A planted
/// cluster that a later one partly overwrote is far above it.
const ZERO_RESIDUE: f64 = 1e-9;

/// Which of the `truth` clusters have residue 0 on `cells`.
fn zero_residue<'a>(cells: &Cells, truth: &'a [Sub]) -> Vec<&'a Sub> {
    truth
        .iter()
        .filter(|s| oracle::residue(cells, s) <= ZERO_RESIDUE)
        .collect()
}

/// On a specified cell covered by one cluster only, and that one of
/// residue 0, the prediction must be the cell's own value. Returns how
/// many answers this checked.
fn check_own_values(
    report: &mut Report,
    cells: &Cells,
    pred: &Predictor,
    exact: &[&Sub],
    batch: &[(usize, usize)],
    answers: &[oracle::Answer],
) -> usize {
    let mut checked = 0;
    for (&(r, c), a) in batch.iter().zip(answers) {
        let covers =
            |s: &&Sub| s.rows.binary_search(&r).is_ok() && s.cols.binary_search(&c).is_ok();
        if pred.cover_count(r, c) != 1 || !exact.iter().any(covers) {
            continue;
        }
        if let Some(v) = cells.get(r, c) {
            checked += 1;
            let p = a.prediction;
            report.check(
                p.is_some_and(|p| crate::common::close(p, v, oracle::REL_TOL)),
                || format!("({r},{c}) on a residue-0 cluster predicted {p:?}, cell holds {v}"),
            );
        }
    }
    checked
}

#[allow(clippy::too_many_arguments)]
fn layers(
    report: &mut Report,
    work: &WorkDir,
    model: &ServeModel,
    tier: &Tier,
    stream: &[Vec<(usize, usize)>],
    bodies: &[String],
    plain: &Load,
    traced: &Load,
    direct: &Load,
) {
    let all: Vec<(usize, usize)> = stream.iter().flatten().copied().collect();
    let (hits, predict_ns) = predict_ns(model, &all);
    report.layer("serve.predict_ns", predict_ns);
    report.layer("serve.hit_ratio", hits as f64 / all.len() as f64);

    let path = work.path().join("model.dcm");
    dc_serve::save(model, &path).expect("save model");
    let loads: Vec<f64> = (0..3)
        .map(|_| timed(|| dc_serve::load(&path).expect("load model")).1 * 1e3)
        .collect();
    report.layer("serve.model_load_ms", median(&loads));

    // Parse and handle the recorded requests through the public calls,
    // one pass over every body at a time; medians per request.
    let wire: Vec<u8> = bodies
        .iter()
        .flat_map(|b| request_bytes("bench", b))
        .collect();
    let state = AppState::new(model.clone(), None, 1, Obs::null());
    let (mut parse, mut handle) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(300) {
        let mut reader = HttpReader::new(Cursor::new(wire.as_slice()), Limits::default());
        let (reqs, p) = timed(|| {
            (0..bodies.len())
                .map(|_| reader.next_request(None).expect("recorded request parses"))
                .collect::<Vec<_>>()
        });
        parse.push(p * 1e6 / bodies.len() as f64);
        for r in &reqs {
            let (resp, h) = timed(|| dc_net::api::handle(&state, r));
            std::hint::black_box(resp);
            handle.push(h * 1e6);
        }
    }
    report.layer("net.parse_us", median(&parse));
    report.layer("net.handle_us", median(&handle));

    let routed_p50 = median(&plain.latencies_ms);
    let direct_p50 = median(&direct.latencies_ms);
    report.layer("net.direct_p50_ms", direct_p50);
    report.layer(
        "net.response_bytes",
        plain.bytes as f64 / plain.latencies_ms.len() as f64,
    );
    report.layer("predict_p99_ms", quantile(&plain.latencies_ms, 0.99));
    report.layer("router.overhead_ms", routed_p50 - direct_p50);
    report.layer(
        "trace.overhead",
        median(&traced.latencies_ms) / routed_p50 - 1.0,
    );

    let sink = tier.fronts[1].1.as_ref().expect("traced front records");
    let scatters = sink.named("router.scatter");
    let field = |k: &str| -> Vec<f64> {
        scatters
            .iter()
            .map(|e| e.u64_field(k).unwrap_or(0) as f64)
            .collect()
    };
    report.layer("router.scatter_us", median(&field("scatter_micros")));
    report.layer("router.fanout", crate::common::mean(&field("fanout")));
    report.layer("router.retries", field("retries").iter().sum());
}

/// `ServeModel::predict` over `cells`, repeated for at least 100 ms:
/// covered answers and nanoseconds per prediction.
pub fn predict_ns(model: &ServeModel, cells: &[(usize, usize)]) -> (usize, f64) {
    let hits = cells
        .iter()
        .filter(|&&(r, c)| model.predict(r, c).is_ok())
        .count();
    let (mut n, start) = (0usize, Instant::now());
    while start.elapsed() < Duration::from_millis(100) {
        for &(r, c) in cells {
            std::hint::black_box(model.predict(r, c).ok());
        }
        n += cells.len();
    }
    (hits, start.elapsed().as_secs_f64() * 1e9 / n as f64)
}

#[cfg(test)]
mod tests {
    //! The serving checks must reject corrupted answers from the real
    //! request path.
    use super::*;
    use crate::oracle::{check_answers, parse_results};

    fn toy() -> (Cells, Vec<Sub>, AppState) {
        let data =
            dc_datagen::embed::generate(&EmbedConfig::new(30, 10, vec![(8, 4); 2]).with_seed(5));
        let truth: Vec<Sub> = data.truth.iter().map(Sub::of).collect();
        let cells = Cells::of(&data.matrix);
        let k = data.truth.len();
        let model = ServeModel::new(data.matrix, data.truth, vec![0.0; k], 0.0).unwrap();
        (cells, truth, AppState::new(model, None, 1, Obs::null()))
    }

    /// A specified cell covered by one residue-0 cluster only.
    fn own_value_cell(cells: &Cells, truth: &[Sub]) -> (usize, usize) {
        let pred = Predictor::new(cells, truth.to_vec());
        zero_residue(cells, truth)
            .iter()
            .flat_map(|s| {
                s.rows
                    .iter()
                    .flat_map(|&r| s.cols.iter().map(move |&c| (r, c)))
            })
            .find(|&(r, c)| pred.cover_count(r, c) == 1 && cells.get(r, c).is_some())
            .expect("a cell covered by one residue-0 cluster only")
    }

    fn answer(state: &AppState, batch: &[(usize, usize)]) -> String {
        let wire = request_bytes("t", &body_of(batch));
        let req = HttpReader::new(Cursor::new(wire), Limits::default())
            .next_request(None)
            .unwrap();
        String::from_utf8(dc_net::api::handle(state, &req).body).unwrap()
    }

    #[test]
    fn program_answers_pass_and_corrupted_answers_fail() {
        let (cells, truth, state) = toy();
        let pred = Predictor::new(&cells, truth.clone());
        let covered = (truth[1].rows[0], truth[1].cols[0]);
        let uncovered = (0..30)
            .flat_map(|r| (0..10).map(move |c| (r, c)))
            .find(|&(r, c)| pred.cover_count(r, c) == 0)
            .unwrap();
        let batch = [covered, uncovered];
        let body = answer(&state, &batch);
        let good = parse_results(&body).unwrap();
        assert_eq!(check_answers(&pred, &batch, &good), Ok(()));

        let mut wrong_value = good.clone();
        wrong_value[0].prediction = wrong_value[0].prediction.map(|v| v + 1e-3);
        assert!(check_answers(&pred, &batch, &wrong_value).is_err());

        let mut covered_as_miss = good.clone();
        covered_as_miss[0].outcome = "miss".into();
        covered_as_miss[0].prediction = None;
        assert!(check_answers(&pred, &batch, &covered_as_miss).is_err());

        let mut uncovered_as_hit = good.clone();
        uncovered_as_hit[1].outcome = "hit".into();
        uncovered_as_hit[1].prediction = Some(1.0);
        assert!(check_answers(&pred, &batch, &uncovered_as_hit).is_err());

        assert!(check_answers(&pred, &batch, &good[..1]).is_err());
        assert!(parse_results(&body.replace("\"results\"", "\"rezults\"")).is_none());
    }

    #[test]
    fn a_residue_0_prediction_other_than_the_cell_value_is_rejected() {
        let (cells, truth, state) = toy();
        let pred = Predictor::new(&cells, truth.clone());
        let exact = zero_residue(&cells, &truth);
        let cell = exact
            .iter()
            .flat_map(|s| {
                s.rows
                    .iter()
                    .flat_map(|&r| s.cols.iter().map(move |&c| (r, c)))
            })
            .find(|&(r, c)| pred.cover_count(r, c) == 1 && cells.get(r, c).is_some())
            .expect("a cell covered by one residue-0 cluster only");
        let batch = [cell];
        let good = parse_results(&answer(&state, &batch)).unwrap();
        let mut report = Report::default();
        assert_eq!(
            check_own_values(&mut report, &cells, &pred, &exact, &batch, &good),
            1
        );
        assert!(report.problems.is_empty(), "{:?}", report.problems);

        let mut wrong = good.clone();
        wrong[0].prediction = wrong[0].prediction.map(|v| v + 1e-3);
        check_own_values(&mut report, &cells, &pred, &exact, &batch, &wrong);
        assert_eq!(report.problems.len(), 1, "{:?}", report.problems);
    }

    #[test]
    fn routed_bytes_that_differ_from_a_direct_answer_are_rejected() {
        let (cells, truth, state) = toy();
        let model = state.engine().model().clone();
        let tier = Tier::start(&model, false);
        let stream: Vec<Vec<(usize, usize)>> = vec![vec![own_value_cell(&cells, &truth), (1, 1)]];
        let bodies: Vec<String> = stream.iter().map(|b| body_of(b)).collect();
        let mut client = HttpClient::connect(tier.fronts[0].0.addr()).unwrap();
        let routed = vec![client.post_json("/v1/predict", &bodies[0]).unwrap().body];

        let mut report = Report::default();
        super::check_answers(
            &mut report,
            &model,
            &tier,
            &truth,
            &stream,
            &bodies,
            &routed,
        );
        assert!(report.problems.is_empty(), "{:?}", report.problems);

        // Same answers, one trailing space: only the byte comparison objects.
        let mut spaced = routed[0].clone();
        spaced.push(b' ');
        assert!(parse_results(&String::from_utf8_lossy(&spaced)).is_some());
        let mut report = Report::default();
        super::check_answers(
            &mut report,
            &model,
            &tier,
            &truth,
            &stream,
            &bodies,
            &[spaced],
        );
        assert_eq!(report.problems.len(), 1, "{:?}", report.problems);
        tier.stop();
    }
}
