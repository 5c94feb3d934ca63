//! The delta-clusters benchmark: one command, three workloads, every
//! output checked against answers computed apart from the program.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod common;
mod ingest;
mod mine;
mod oracle;
mod serve;

use common::{median, reference_loop_ms, Args, Report, WorkDir, USAGE};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("items_per_s", "items/s"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload does not touch reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("datagen.gen_s", "s"),
    ("matrix.open_s", "s"),
    ("matrix.block_misses", "count"),
    ("matrix.block_hits", "count"),
    ("matrix.col_scan_s", "s"),
    ("matrix.kernel_ns_per_cell", "ns"),
    ("floc.seeding_s", "s"),
    ("floc.eval_s", "s"),
    ("floc.rebuild_s", "s"),
    ("floc.apply_s", "s"),
    ("floc.other_s", "s"),
    ("floc.wall_s", "s"),
    ("floc.iterations", "count"),
    ("floc.actions_performed", "count"),
    ("floc.ns_per_action", "ns"),
    ("floc.stale_rebuilds", "count"),
    ("floc.repairs", "count"),
    ("floc.avg_residue", "residue"),
    ("serve.predict_ns", "ns"),
    ("serve.hit_ratio", "ratio"),
    ("serve.model_load_ms", "ms"),
    ("net.parse_us", "us"),
    ("net.handle_us", "us"),
    ("net.direct_p50_ms", "ms"),
    ("net.response_bytes", "bytes"),
    ("predict_p99_ms", "ms"),
    ("router.scatter_us", "us"),
    ("router.overhead_ms", "ms"),
    ("router.fanout", "count"),
    ("router.retries", "count"),
    ("online.step_ms", "ms"),
    ("online.promote_step_ms", "ms"),
    ("online.refinements", "count"),
    ("online.promotions", "count"),
    ("online.repairs", "count"),
    ("online.checkpoint_bytes", "bytes"),
    ("online.read_ns", "ns"),
    ("read_qps", "predictions/s"),
    ("trace.overhead", "ratio"),
    ("host.ref_ms", "ms"),
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload: fn(&Args, &WorkDir) -> Report = match args.workload.as_str() {
        "mine-outofcore" => mine::run,
        "serve-routed" => serve::run,
        "online-ingest" => ingest::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(2);
        }
    };

    let mut host: Vec<f64> = (0..3).map(|_| reference_loop_ms()).collect();
    let mut report = workload(&args, &work);
    host.extend((0..3).map(|_| reference_loop_ms()));
    eprintln!(
        "perfbench: host reference loop ms, start {:.2?} end {:.2?}",
        &host[..3],
        &host[3..]
    );
    report.layer("host.ref_ms", median(&host));
    drop(work);
    if report.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        std::process::exit(1);
    }
    print_result(&args, &report);
}

fn print_result(args: &Args, report: &Report) {
    let peak_rss_mb = common::peak_rss_mb().unwrap_or(0.0);
    let metric = |name: &str| -> f64 {
        match name {
            "setup_s" => report.setup_s,
            "peak_rss_mb" => peak_rss_mb,
            "op_ms" => report.op_ms,
            "items_per_s" => report.items_per_s,
            layer => report.layers.get(layer).copied().unwrap_or(0.0),
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = metric(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
}
