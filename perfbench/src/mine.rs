//! `mine-outofcore`: repeated full FLOC mines of one generated planted
//! matrix with missing cells, read from paged block files through a block
//! cache that holds half of them.

use crate::common::{median, timed, Args, Report, WorkDir};
use crate::oracle::{self, Cells, Sub, REL_TOL};
use dc_datagen::EmbedConfig;
use dc_floc::{floc_with, FlocConfig, FlocResult, Seeding};
use dc_matrix::{BitSet, DataMatrix, PagedOptions};
use dc_obs::{MemorySink, Obs};
use std::path::{Path, PathBuf};
use std::time::Instant;

const ROWS: usize = 512;
const COLS: usize = 30;
/// Clusters to mine; as many are planted.
const K: usize = 10;
/// `(rows, cols)` of each planted cluster and of each phase-1 seed (§5.1:
/// seeds that resemble the clusters sought).
const CLUSTER: (usize, usize) = (32, 6);
const MISSING_RATE: f64 = 0.3;
/// Occupancy threshold of Definition 3.1.
const ALPHA: f64 = 0.5;
/// Rows per paged block (8 blocks) and the resident-block cap: half of
/// them, the side of the cache cliff where every column pass evicts what
/// the next one needs.
const CHUNK_ROWS: usize = 64;
const CACHE_BLOCKS: usize = 4;
/// The input and the search do not depend on `--seed`. At α = 0.5 FLOC
/// returns clusters below the threshold, so every mine fails the occupancy
/// check; a fixed input makes that failure the same on every run, where a
/// seeded one could fail on some seeds only (see README).
const INPUT_SEED: u64 = 0x0CC0_0001;
const FLOC_SEED: u64 = 0x0CC0_0002;

/// Phase-2 iteration cap: a fixed amount of work per mine, as in
/// `floc_perf`.
const ITERATIONS: usize = 2;
/// Rounds (set-up and mine) per run at least, however long they take.
const MIN_ROUNDS: usize = 3;

fn embed() -> EmbedConfig {
    let mut cfg = EmbedConfig::new(ROWS, COLS, vec![CLUSTER; K]).with_seed(INPUT_SEED);
    cfg.missing_rate = MISSING_RATE;
    cfg
}

fn floc_config() -> FlocConfig {
    FlocConfig::builder(K)
        .seed(FLOC_SEED)
        .alpha(ALPHA)
        .threads(1)
        .max_iterations(ITERATIONS)
        .seeding(Seeding::TargetSize {
            rows: CLUSTER.0,
            cols: CLUSTER.1,
        })
        .build()
}

fn open(dir: &Path) -> DataMatrix {
    DataMatrix::open_paged_with(
        dir,
        PagedOptions {
            chunk_rows: CHUNK_ROWS,
            cache_blocks: Some(CACHE_BLOCKS),
            verify_on_open: true,
        },
    )
    .expect("open paged matrix")
}

/// Phase split of one traced mine, from the program's own events.
#[derive(Clone, Default)]
struct Phases {
    wall_s: f64,
    seeding_s: f64,
    eval_s: f64,
    rebuild_s: f64,
    apply_s: f64,
    actions: f64,
    stale_rebuilds: f64,
    repairs: f64,
    misses: f64,
    hits: f64,
}

impl Phases {
    fn from_sink(sink: &MemorySink, wall_s: f64) -> Phases {
        let ns = |e: &dc_obs::OwnedEvent, k: &str| e.u64_field(k).unwrap_or(0) as f64;
        let mut p = Phases {
            wall_s,
            ..Phases::default()
        };
        for e in sink.named("floc.seeding") {
            p.seeding_s += ns(&e, "duration_nanos") / 1e9;
        }
        for e in sink.named("floc.iteration") {
            p.eval_s += ns(&e, "eval_nanos") / 1e9;
            p.rebuild_s += ns(&e, "rebuild_nanos") / 1e9;
            p.apply_s += ns(&e, "apply_nanos") / 1e9;
            p.actions += ns(&e, "actions_performed");
            p.stale_rebuilds += ns(&e, "stale_rebuilds");
            p.repairs += ns(&e, "repairs");
        }
        p
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let embed = embed();
    let cfg = floc_config();

    // Rounds until the deadline: set up afresh, then mine. The set-up
    // generates the input, writes it as paged blocks, opens it and builds
    // the lazy column mirror so no mine pays for it. A set-up in every
    // round samples the file system over the whole run, not in one burst,
    // and every mine starts from the same block cache state.
    let deadline = Instant::now() + args.budget();
    let (mut setup, mut gen, mut open_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut input: Option<(DataMatrix, PathBuf)> = None;
    let mut results: Vec<FlocResult> = Vec::new();
    let (mut plain, mut traced): (Vec<f64>, Vec<Phases>) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        // Drop the previous copy before making the next.
        if let Some((old, dir)) = input.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let start = Instant::now();
        let dir = work.fresh(&format!("paged-{round}"));
        let (data, g) = timed(|| {
            dc_datagen::embed::generate_paged(&embed, &dir, CHUNK_ROWS).expect("write paged matrix")
        });
        drop(data);
        gen.push(g);
        let (matrix, o) = timed(|| open(&dir));
        open_s.push(o);
        matrix.ensure_mirror();
        setup.push(start.elapsed().as_secs_f64());

        let with_trace = args.trace && round % 2 == 1;
        round += 1;
        let sink = MemorySink::new();
        let obs = if with_trace {
            Obs::new(sink.clone())
        } else {
            Obs::null()
        };
        let io_before = matrix.storage_backend().io_stats();
        let (res, wall) = timed(|| floc_with(&matrix, &cfg, &obs));
        report.attempted += 1;
        match res {
            Ok(r) => {
                if with_trace {
                    let mut p = Phases::from_sink(&sink, wall);
                    let io = matrix.storage_backend().io_stats();
                    p.misses = (io.misses - io_before.misses) as f64;
                    p.hits = (io.hits - io_before.hits) as f64;
                    traced.push(p);
                } else {
                    plain.push(wall);
                }
                results.push(r);
            }
            Err(e) => {
                report.failed += 1;
                errors.push(e.to_string());
            }
        }
        input = Some((matrix, dir));
    }
    let (matrix, dir) = input.expect("at least one round");
    report.setup_s = median(&setup);
    for e in &errors {
        eprintln!("perfbench: mine failed: {e}");
    }

    let first = match results.first() {
        Some(r) => r.clone(),
        None => {
            report.check(false, || "no mine succeeded".into());
            return report;
        }
    };
    let cell_iterations = (ROWS * COLS * first.iterations.max(1)) as f64;
    let op = median(&plain);
    report.op_ms = op * 1e3;
    report.items_per_s = cell_iterations / op;
    eprintln!(
        "perfbench: {} untraced mines, wall s: {:?}",
        plain.len(),
        plain.iter().map(|w| format!("{w:.4}")).collect::<Vec<_>>()
    );

    // A mine whose clustering breaks the occupancy threshold gave a wrong
    // answer: it counts as failed. The other checks make the run incorrect.
    let cells = Cells::of(&matrix);
    report.failed += results
        .iter()
        .filter(|r| below_alpha(&cells, cfg.alpha, r) > 0)
        .count() as u64;
    eprintln!(
        "perfbench: {} of {} clusters break the occupancy threshold {}",
        below_alpha(&cells, cfg.alpha, &first),
        first.clusters.len(),
        cfg.alpha
    );
    check_results(&mut report, &cells, &results);
    // The same mine on a memory copy must give the same clustering.
    let memory = matrix.to_memory();
    match floc_with(&memory, &cfg, &Obs::null()) {
        Ok(r) => report.check(same_result(&r, &first), || {
            "out-of-core mine differs from the in-memory mine".into()
        }),
        Err(e) => report.check(false, || format!("in-memory mine failed: {e}")),
    }

    if args.trace {
        layers(&mut report, &matrix, &first, &traced, &plain, &gen, &open_s);
    }
    drop(matrix);
    let _ = std::fs::remove_dir_all(dir);
    report
}

fn same_result(a: &FlocResult, b: &FlocResult) -> bool {
    a.clusters == b.clusters
        && a.iterations == b.iterations
        && a.avg_residue.to_bits() == b.avg_residue.to_bits()
        && a.residues.len() == b.residues.len()
        && a.residues
            .iter()
            .zip(&b.residues)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks a run's mines: all identical, every cluster's residue
/// recomputed from the paper's formulas, and the average.
pub fn check_results(report: &mut Report, cells: &Cells, results: &[FlocResult]) {
    let first = &results[0];
    for (i, r) in results.iter().enumerate().skip(1) {
        report.check(same_result(r, first), || {
            format!("mine {i} differs from mine 0")
        });
    }
    check_clustering(report, cells, first);
}

pub fn check_clustering(report: &mut Report, cells: &Cells, r: &FlocResult) {
    report.check(r.clusters.len() == r.residues.len(), || {
        format!(
            "{} clusters but {} residues",
            r.clusters.len(),
            r.residues.len()
        )
    });
    for (i, (c, &got)) in r.clusters.iter().zip(&r.residues).enumerate() {
        let want = oracle::residue(cells, &Sub::of(c));
        report.check(crate::common::close(got, want, REL_TOL), || {
            format!("cluster {i}: residue {got} reported, {want} recomputed")
        });
    }
    let mean = r.residues.iter().sum::<f64>() / r.residues.len().max(1) as f64;
    report.check(crate::common::close(r.avg_residue, mean, REL_TOL), || {
        format!(
            "avg_residue {} is not the mean {mean} of the residues",
            r.avg_residue
        )
    });
}

/// Clusters of `r` that break the occupancy threshold `alpha`.
pub fn below_alpha(cells: &Cells, alpha: f64, r: &FlocResult) -> usize {
    r.clusters
        .iter()
        .filter(|c| !oracle::meets_occupancy(cells, &Sub::of(c), alpha))
        .count()
}

fn layers(
    report: &mut Report,
    matrix: &DataMatrix,
    result: &FlocResult,
    traced: &[Phases],
    plain: &[f64],
    gen: &[f64],
    open: &[f64],
) {
    report.layer("datagen.gen_s", median(gen));
    report.layer("matrix.open_s", median(open));
    // The traced mine with the median wall-clock gives every phase figure,
    // so the phases add up to one real mine.
    let mut sorted = traced.to_vec();
    sorted.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let p = sorted[sorted.len() / 2].clone();
    let phases = p.seeding_s + p.eval_s + p.rebuild_s + p.apply_s;
    report.layer("floc.seeding_s", p.seeding_s);
    report.layer("floc.eval_s", p.eval_s);
    report.layer("floc.rebuild_s", p.rebuild_s);
    report.layer("floc.apply_s", p.apply_s);
    report.layer("floc.other_s", p.wall_s - phases);
    report.layer("floc.wall_s", p.wall_s);
    report.layer("floc.iterations", result.iterations as f64);
    report.layer("floc.actions_performed", p.actions);
    let evaluated = (result.iterations.max(1) * 2 * (ROWS + COLS) * K) as f64;
    report.layer("floc.ns_per_action", p.wall_s * 1e9 / evaluated);
    report.layer("floc.stale_rebuilds", p.stale_rebuilds);
    report.layer("floc.repairs", p.repairs);
    report.layer("floc.avg_residue", result.avg_residue);
    report.layer("matrix.block_misses", p.misses);
    report.layer("matrix.block_hits", p.hits);
    let walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    report.layer("trace.overhead", median(&walls) / median(plain) - 1.0);

    let (sum, scan_s) = timed(|| column_scan(matrix));
    std::hint::black_box(sum);
    report.layer("matrix.col_scan_s", scan_s);
    report.layer(
        "matrix.kernel_ns_per_cell",
        kernel_ns_per_cell(matrix, &result.clusters),
    );
}

/// One column-major pass over every specified cell through the public
/// accessors.
pub fn column_scan(matrix: &DataMatrix) -> f64 {
    let mut sum = 0.0;
    for c in 0..matrix.cols() {
        for (_, v) in matrix.col_entries(c) {
            sum += v;
        }
    }
    sum
}

/// Nanoseconds per footprint cell of the public residue kernels (row and
/// column sums, then row residues) over `clusters`, best of five passes.
pub fn kernel_ns_per_cell(matrix: &DataMatrix, clusters: &[dc_floc::DeltaCluster]) -> f64 {
    let cells: usize = clusters
        .iter()
        .map(|c| 3 * c.row_count() * c.col_count())
        .sum();
    if cells == 0 {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    let mut col_bases = vec![0.0; matrix.cols()];
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = 0.0;
        for c in clusters {
            let (rows, cols): (&BitSet, &BitSet) = (&c.rows, &c.cols);
            let (mut total, mut n) = (0.0, 0u32);
            for col in cols.iter() {
                let (s, k) = matrix.col_stats_in(col, rows);
                col_bases[col] = if k == 0 { 0.0 } else { s / k as f64 };
                total += s;
                n += k;
            }
            let base = if n == 0 { 0.0 } else { total / n as f64 };
            for row in rows.iter() {
                let (s, k) = matrix.row_stats_in(row, cols);
                let row_base = if k == 0 { base } else { s / k as f64 };
                acc += matrix.row_residue_in(row, cols, row_base, &col_bases, base, false);
            }
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best / cells as f64
}

#[cfg(test)]
mod tests {
    //! Each mining check must reject a deliberately corrupted answer.
    use super::*;

    fn toy() -> (Cells, FlocResult) {
        let mut embed = EmbedConfig::new(40, 12, vec![(10, 4); 2]).with_seed(7);
        embed.missing_rate = 0.2;
        let matrix = dc_datagen::embed::generate(&embed).matrix;
        let cfg = FlocConfig::builder(2)
            .seed(3)
            .max_iterations(3)
            .seeding(Seeding::TargetSize { rows: 10, cols: 4 })
            .build();
        let result = floc_with(&matrix, &cfg, &Obs::null()).expect("toy mine");
        (Cells::of(&matrix), result)
    }

    fn problems(cells: &Cells, results: &[FlocResult]) -> usize {
        let mut report = Report::default();
        check_results(&mut report, cells, results);
        report.problems.len()
    }

    #[test]
    fn the_program_passes_every_mining_check() {
        let (cells, r) = toy();
        assert_eq!(problems(&cells, &[r.clone(), r.clone()]), 0);
        assert_eq!(below_alpha(&cells, 0.0, &r), 0);
    }

    #[test]
    fn a_wrong_residue_is_rejected() {
        let (cells, mut r) = toy();
        r.residues[0] *= 1.001;
        assert!(problems(&cells, &[r]) > 0);
    }

    #[test]
    fn a_wrong_average_is_rejected() {
        let (cells, mut r) = toy();
        r.avg_residue += 0.5;
        assert!(problems(&cells, &[r]) > 0);
    }

    #[test]
    fn a_cluster_below_the_occupancy_threshold_is_rejected() {
        let (cells, r) = toy();
        // Some cluster cell is missing at 20% missing cells.
        assert!(below_alpha(&cells, 1.0, &r) > 0);
    }

    #[test]
    fn a_differing_repeat_is_rejected() {
        let (cells, r) = toy();
        let mut other = r.clone();
        other.residues[0] = f64::from_bits(other.residues[0].to_bits() ^ 1);
        assert!(problems(&cells, &[r, other]) > 0);
    }
}
