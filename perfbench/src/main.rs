//! Service benchmark of the terrain server on the 1M-edge R-MAT rung.
//!
//! ```text
//! perfbench --workload <terrain-1m|tiles-1m|mutate-1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a server child
//! process; `--trace 1` replays a fixed script through an in-process,
//! span-recording server and reports the per-layer metrics. Both print a
//! table, then one JSON result as the last line of stdout, and exit 1 when
//! an operation or an output check failed.

mod calibrate;
mod check;
mod report;
mod traced;
mod untraced;
mod workload;

use workload::{Inputs, Plan, Workload};

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perfbench --workload <terrain-1m|tiles-1m|mutate-1m> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let pos = args
        .iter()
        .position(|a| a == name)
        .unwrap_or_else(|| usage(&format!("{name} is required")));
    args.get(pos + 1)
        .and_then(|raw| raw.parse().ok())
        .unwrap_or_else(|| usage(&format!("{name} needs a valid value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        untraced::serve_child();
        return;
    }
    let workload_name: String = flag(&args, "--workload");
    let workload = Workload::from_name(&workload_name)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload_name:?}")));
    let seed: u64 = flag(&args, "--seed");
    let seconds: u64 = flag(&args, "--seconds");
    let trace: u8 = flag(&args, "--trace");
    if seconds == 0 || trace > 1 {
        usage("--seconds must be positive and --trace 0 or 1");
    }

    let inputs = Inputs::generate(seed);
    let plan = Plan::new(workload, seed);
    eprintln!(
        "[perfbench] {} seed {seed}: {} vertices, {} edges, {} upload bytes",
        workload.name(),
        inputs.graph.vertex_count(),
        inputs.graph.edge_count(),
        inputs.upload.len()
    );
    let outcome = if trace == 1 {
        traced::run(&inputs, &plan, seconds, seed)
    } else {
        untraced::run(&inputs, &plan, seconds)
    };
    outcome.print();
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
