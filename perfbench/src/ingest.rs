//! `online-ingest`: a `dc-online` miner consumes a generated
//! MovieLens-like event stream while a fixed burst of predicts is served
//! through `dc_net::api::handle` after every step, on whichever model is
//! installed at that moment.

use crate::common::{median, sub_seed, timed, Args, Report, SplitMix, WorkDir};
use crate::oracle::{self, Cells, Predictor, Sub, REL_TOL};
use dc_datagen::StreamConfig;
use dc_floc::{FlocConfig, Seeding};
use dc_net::http::HttpReader;
use dc_net::{AppState, Limits, Request};
use dc_obs::{MemorySink, Obs};
use dc_online::{InstallSink, Miner, MinerConfig, SourceSpec, StepOutcome};
use dc_serve::ServeModel;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

const USERS: usize = 600;
const MOVIES: usize = 120;
const EVENTS: usize = 3_000;
/// Events per miner step.
const BATCH: usize = 150;
const K: usize = 4;
/// Predict requests after each step, and queries in each.
const READS: usize = 4;
const READ_BATCH: usize = 64;

fn stream(seed: u64) -> StreamConfig {
    StreamConfig {
        users: USERS,
        movies: MOVIES,
        events: EVENTS,
        delete_percent: 5,
        seed: sub_seed(seed, 4),
        ..StreamConfig::default()
    }
}

fn floc(seed: u64) -> FlocConfig {
    FlocConfig::builder(K)
        .seed(sub_seed(seed, 5))
        .threads(1)
        // One refinement iteration per step, so a step's work does not
        // hinge on how soon a round converges on this seed's stream.
        .max_iterations(1)
        .seeding(Seeding::TargetSize {
            rows: USERS / 10,
            cols: MOVIES / 5,
        })
        .build()
}

/// Installs promoted models into the serving state, as `serve --mine`
/// does.
struct Install(Arc<AppState>);

impl InstallSink for Install {
    fn install(&self, model: ServeModel, path: &Path) {
        self.0.swap_model(model, Some(&path.to_string_lossy()));
    }
}

/// The read requests, parsed once at set-up.
fn read_requests(seed: u64) -> (Vec<Vec<(usize, usize)>>, Vec<Request>) {
    let mut rng = SplitMix(sub_seed(seed, 6));
    let batches: Vec<Vec<(usize, usize)>> = (0..READS)
        .map(|_| {
            (0..READ_BATCH)
                .map(|_| (rng.below(USERS), rng.below(MOVIES)))
                .collect()
        })
        .collect();
    let requests = batches
        .iter()
        .map(|b| {
            let cells: Vec<String> = b.iter().map(|(r, c)| format!("[{r},{c}]")).collect();
            let body = format!("{{\"queries\": [{}]}}", cells.join(","));
            let wire = format!(
                "POST /v1/predict HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            HttpReader::new(Cursor::new(wire.into_bytes()), Limits::default())
                .next_request(None)
                .expect("read request parses")
        })
        .collect();
    (batches, requests)
}

/// One pass over the whole stream.
#[derive(Default)]
struct Round {
    setup_s: f64,
    gen_s: f64,
    /// Every step's wall-clock, in stream order, and whether it promoted.
    step_ms: Vec<f64>,
    promoted: Vec<bool>,
    /// Events the steps consumed (the bootstrap consumes the first ones).
    step_events: usize,
    read_us: Vec<f64>,
    read_s: f64,
    attempted: u64,
    failed: u64,
    refinements: u64,
    promotions: u64,
    repairs: u64,
    checkpoint_bytes: u64,
    model_load_ms: f64,
    /// `ServeModel::predict` on the read cells against the final model:
    /// `(covered answers, ns per prediction)`, measured on request.
    predict: Option<(usize, f64)>,
}

impl Round {
    fn ingest_s(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() / 1e3
    }
}

/// Median ingest time of a pass over the stream, in seconds.
fn median_ingest_s(rounds: &[&Round]) -> f64 {
    median(&rounds.iter().map(|r| r.ingest_s()).collect::<Vec<_>>())
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let (batches, requests) = read_requests(args.seed);
    let deadline = Instant::now() + args.budget();
    let mut rounds: Vec<Round> = Vec::new();
    // A traced run needs a round of each kind.
    while rounds.len() < 1 + args.trace as usize || Instant::now() < deadline {
        let recording = args.trace && rounds.len() % 2 == 1;
        let dir = work.fresh(&format!("online-{}", rounds.len()));
        let layers = args.trace && rounds.is_empty();
        let (round, check) = one_round(args.seed, &dir, &requests, &batches, recording, layers);
        if let Err(e) = check {
            report.check(false, || format!("round {}: {e}", rounds.len()));
        }
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(round);
    }
    // In a traced run the odd rounds record events.
    let is_plain = |i: usize| !args.trace || i.is_multiple_of(2);
    let plain: Vec<&Round> = rounds
        .iter()
        .enumerate()
        .filter(|(i, _)| is_plain(*i))
        .map(|(_, r)| r)
        .collect();
    let traced: Vec<&Round> = rounds
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_plain(*i))
        .map(|(_, r)| r)
        .collect();
    for r in &rounds {
        report.attempted += r.attempted;
        report.failed += r.failed;
    }
    report.setup_s = median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    if steps.is_empty() {
        report.check(false, || "no miner step completed".into());
        return report;
    }
    let ingest_s = median_ingest_s(&plain);
    report.op_ms = median(&steps);
    report.items_per_s = plain[0].step_events as f64 / ingest_s;
    eprintln!(
        "perfbench: {} rounds, ingest s {:?}",
        rounds.len(),
        plain
            .iter()
            .map(|r| format!("{:.4}", r.ingest_s()))
            .collect::<Vec<_>>()
    );

    if args.trace {
        let r = plain[0];
        let promote: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.step_ms.iter().zip(&r.promoted))
            .filter(|(_, &p)| p)
            .map(|(&t, _)| t)
            .collect();
        report.layer(
            "datagen.gen_s",
            median(&rounds.iter().map(|r| r.gen_s).collect::<Vec<_>>()),
        );
        report.layer("online.step_ms", median(&steps));
        report.layer(
            "online.promote_step_ms",
            if promote.is_empty() {
                0.0
            } else {
                median(&promote)
            },
        );
        report.layer("online.refinements", r.refinements as f64);
        report.layer("online.promotions", r.promotions as f64);
        report.layer("online.repairs", r.repairs as f64);
        report.layer("online.checkpoint_bytes", r.checkpoint_bytes as f64);
        report.layer("serve.model_load_ms", r.model_load_ms);
        if let Some((hits, ns)) = r.predict {
            report.layer("serve.predict_ns", ns);
            report.layer("serve.hit_ratio", hits as f64 / (READS * READ_BATCH) as f64);
        }
        let reads: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.read_us.iter().copied())
            .collect();
        report.layer("net.handle_us", median(&reads));
        report.layer("online.read_ns", median(&reads) * 1e3 / READ_BATCH as f64);
        let read_s: f64 = plain.iter().map(|r| r.read_s).sum();
        report.layer("read_qps", reads.len() as f64 * READ_BATCH as f64 / read_s);
        if !traced.is_empty() {
            report.layer("trace.overhead", median_ingest_s(&traced) / ingest_s - 1.0);
        }
    }
    report
}

/// Bootstraps a miner in `dir`, steps it through the whole stream with a
/// read burst after every step, then checks the outputs.
fn one_round(
    seed: u64,
    dir: &Path,
    requests: &[Request],
    batches: &[Vec<(usize, usize)>],
    recording: bool,
    layers: bool,
) -> (Round, Result<(), String>) {
    let mut round = Round::default();
    let spec = SourceSpec::generated(stream(seed));
    // The oracle's copy of the stream; the miner generates its own.
    let (events, gen_s) = timed(|| dc_datagen::generate_events(&spec.stream));
    round.gen_s = gen_s;
    let config = MinerConfig {
        source: spec,
        floc: floc(seed),
        state_dir: dir.to_path_buf(),
        batch: BATCH,
        // Promote after every step, so every step repairs, refines,
        // checkpoints, writes a model and swaps it in: the same mix on
        // every seed.
        promote_margin: f64::NEG_INFINITY,
        refine_budget: None,
        keep_generations: 2,
    };
    let obs = if recording {
        Obs::new(MemorySink::new())
    } else {
        Obs::null()
    };

    let start = Instant::now();
    let (mut miner, model, _) =
        match Miner::bootstrap(config, Arc::new(AtomicBool::new(false)), obs) {
            Ok(m) => m,
            Err(e) => {
                round.attempted = 1;
                round.failed = 1;
                return (round, Err(format!("bootstrap failed: {e}")));
            }
        };
    let state = Arc::new(AppState::new(model, None, 1, Obs::null()));
    round.setup_s = start.elapsed().as_secs_f64();
    let install = Install(state.clone());

    let mut promoted_at = miner.cursor();
    round.step_events = miner.stream_len() - miner.cursor();
    let mut read_s = 0.0;
    while miner.cursor() < miner.stream_len() {
        let (out, dt) = timed(|| miner.step(&install));
        round.attempted += 1;
        match out {
            Ok(StepOutcome::Advanced { promoted, .. }) => {
                if promoted.is_some() {
                    promoted_at = miner.cursor();
                }
                round.step_ms.push(dt * 1e3);
                round.promoted.push(promoted.is_some());
            }
            Ok(other) => {
                round.failed += 1;
                return (round, Err(format!("step ended with {other:?}")));
            }
            Err(e) => {
                round.failed += 1;
                return (round, Err(format!("step failed: {e}")));
            }
        }
        let burst = Instant::now();
        for req in requests {
            let (resp, dt) = timed(|| dc_net::api::handle(&state, req));
            round.attempted += 1;
            round.read_us.push(dt * 1e6);
            if resp.status != 200 {
                round.failed += 1;
            }
        }
        read_s += burst.elapsed().as_secs_f64();
    }
    round.read_s = read_s;
    round.refinements = miner.refinements();
    round.promotions = miner.promotions();
    round.repairs = miner.repairs();

    let ckpt_path = dc_online::generation_path(dir, miner.generation());
    round.checkpoint_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
    let model_path = dc_online::model_path(dir, miner.promotions());
    round.model_load_ms = timed(|| dc_serve::load(&model_path)).1 * 1e3;

    if layers {
        let cells: Vec<(usize, usize)> = batches.iter().flatten().copied().collect();
        round.predict = Some(crate::serve::predict_ns(state.engine().model(), &cells));
    }
    let check = check_round(&events, promoted_at, &ckpt_path, &state, requests, batches);
    (round, check)
}

/// The installed model and the final checkpoint both hold what a naive
/// replay of the stream says they should.
fn check_round(
    events: &[dc_datagen::RatingEvent],
    promoted_at: usize,
    ckpt_path: &Path,
    state: &AppState,
    requests: &[Request],
    batches: &[Vec<(usize, usize)>],
) -> Result<(), String> {
    check_model(events, promoted_at, state, requests, batches)?;
    let ckpt = dc_online::load_miner_checkpoint(ckpt_path).map_err(|e| e.to_string())?;
    check_checkpoint(events, &ckpt)
}

/// The installed model's matrix is the naive replay up to its promotion,
/// and every read answer matches the oracle on it.
fn check_model(
    events: &[dc_datagen::RatingEvent],
    promoted_at: usize,
    state: &AppState,
    requests: &[Request],
    batches: &[Vec<(usize, usize)>],
) -> Result<(), String> {
    let engine = state.engine();
    let model = engine.model();
    let at_promotion = oracle::replay(USERS, MOVIES, &events[..promoted_at]);
    if Cells::of(model.matrix()) != at_promotion {
        return Err("installed model's matrix differs from the naive replay".into());
    }
    let subs: Vec<Sub> = model.clusters().iter().map(Sub::of).collect();
    let pred = Predictor::new(&at_promotion, subs);
    for (req, batch) in requests.iter().zip(batches) {
        let resp = dc_net::api::handle(state, req);
        let answers = oracle::parse_results(&String::from_utf8_lossy(&resp.body))
            .ok_or("unparsable read answer")?;
        oracle::check_answers(&pred, batch, &answers)?;
    }
    Ok(())
}

/// The final checkpoint holds the naive replay of the whole stream, and
/// every incumbent's stored residue matches its recomputation.
fn check_checkpoint(
    events: &[dc_datagen::RatingEvent],
    ckpt: &dc_online::MinerCheckpoint,
) -> Result<(), String> {
    if ckpt.cursor as usize != events.len() {
        return Err(format!(
            "final checkpoint at {} of {} events",
            ckpt.cursor,
            events.len()
        ));
    }
    let fin = oracle::replay(USERS, MOVIES, events);
    let mut replayed = dc_matrix::DataMatrix::builder(USERS, MOVIES).build();
    for (i, v) in fin.v.iter().enumerate() {
        if let Some(v) = v {
            replayed.set(i / MOVIES, i % MOVIES, *v);
        }
    }
    let specified = fin.v.iter().filter(|v| v.is_some()).count();
    if ckpt.floc.matrix_specified != specified
        || ckpt.floc.matrix_fingerprint != replayed.fingerprint()
    {
        return Err("final checkpoint's matrix differs from the naive replay".into());
    }
    for (i, (c, &got)) in ckpt
        .floc
        .clusters
        .iter()
        .zip(&ckpt.floc.residues)
        .enumerate()
    {
        let want = oracle::residue(&fin, &Sub::of(c));
        if !crate::common::close(got, want, REL_TOL) {
            return Err(format!(
                "incumbent {i}: residue {got} stored, {want} recomputed"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The ingest checks must reject a corrupted replay and a corrupted
    //! incumbent residue.
    use super::*;
    use dc_datagen::stream::RatingOp;

    #[test]
    fn replay_follows_sets_and_deletes_and_rejects_a_changed_event() {
        let cfg = StreamConfig {
            users: 20,
            movies: 10,
            events: 300,
            ..StreamConfig::default()
        };
        let events = dc_datagen::generate_events(&cfg);
        let mut program = dc_matrix::DataMatrix::builder(20, 10).build();
        for e in &events {
            e.apply(&mut program);
        }
        assert!(Cells::of(&program) == oracle::replay(20, 10, &events));

        let mut corrupted = events.clone();
        let last = corrupted.len() - 1;
        corrupted[last].op = match corrupted[last].op {
            RatingOp::Set(v) => RatingOp::Set(v + 1.0),
            RatingOp::Delete => RatingOp::Set(1.0),
        };
        assert!(Cells::of(&program) != oracle::replay(20, 10, &corrupted));
    }

    #[test]
    fn a_model_from_another_cursor_is_rejected() {
        let seed = 3;
        let events = dc_datagen::generate_events(&stream(seed));
        let (batches, requests) = read_requests(seed);
        // Serve the first `n` events with one cluster over the first rows
        // and columns, where the last of those events changed a cell.
        let n = (100..events.len())
            .find(|&n| {
                oracle::replay(USERS, MOVIES, &events[..n])
                    != oracle::replay(USERS, MOVIES, &events[..n - 1])
            })
            .unwrap();
        let mut matrix = dc_matrix::DataMatrix::builder(USERS, MOVIES).build();
        for e in &events[..n] {
            e.apply(&mut matrix);
        }
        let cluster = dc_floc::DeltaCluster::from_indices(USERS, MOVIES, 0..USERS, 0..MOVIES / 2);
        let model = ServeModel::new(matrix, vec![cluster], vec![0.0], 0.0).unwrap();
        let state = AppState::new(model, None, 1, Obs::null());
        assert_eq!(check_model(&events, n, &state, &requests, &batches), Ok(()));
        assert!(check_model(&events, n - 1, &state, &requests, &batches).is_err());
    }

    #[test]
    fn a_corrupted_final_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("perfbench-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = 9;
        let (batches, requests) = read_requests(seed);
        let (round, check) = one_round(seed, &dir, &requests, &batches, false, false);
        assert_eq!(check, Ok(()));
        assert_eq!(round.failed, 0);

        let events = dc_datagen::generate_events(&stream(seed));
        let gens = dc_online::list_generations(&dir).unwrap();
        let ckpt =
            dc_online::load_miner_checkpoint(dc_online::generation_path(&dir, gens[0])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(check_checkpoint(&events, &ckpt), Ok(()));

        let mut residue = ckpt.clone();
        residue.floc.residues[0] *= 1.01;
        assert!(check_checkpoint(&events, &residue).is_err());

        let mut changed = events.clone();
        let last = changed.len() - 1;
        changed[last].op = match changed[last].op {
            RatingOp::Set(v) => RatingOp::Set(v + 1.0),
            RatingOp::Delete => RatingOp::Set(1.0),
        };
        assert!(check_checkpoint(&changed, &ckpt).is_err());
    }
}
