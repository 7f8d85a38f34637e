//! The end-to-end run: the terrain server in a child process with its
//! default `ServerConfig`, one closed-loop client thread, tracing off.
//!
//! Every time it reports is scaled to the reference host speed by the
//! kernel in [`crate::calibrate`], which runs before every cycle and every
//! set-up; the unscaled figures are printed beside them, outside
//! `BENCHMARK.json`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serve::client;
use serve::{Server, ServerConfig};

use crate::calibrate::Calibrator;
use crate::check::{check_outputs, expect, send, Kept};
use crate::report::{median, percentile, Outcome};
use crate::workload::{Class, Inputs, Plan, GRAPH_ID};

/// Set-ups per run before and after the timed phase; `setup_s` and
/// `peak_rss_mib` are medians over all of them. Splitting them around the
/// timed phase samples the host's speed at both ends of the run.
///
/// `peak_rss_mib` is read after a fixed script (upload and cycle 0) rather
/// than at the end of the timed phase: how many cycles a run completes
/// follows the host's speed, and with glibc's per-thread arenas the timed
/// server's final `VmHWM` on mutate-1m swung between 145 and 205 MiB from
/// run to run. That final figure is printed as `end_rss_mib`.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 4;

/// The child-process side: serve until the parent closes our stdin (or
/// dies), then shut down.
pub fn serve_child() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind the server");
    println!("{}", handle.addr());
    let mut rest = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut rest);
    handle.shutdown();
}

/// A server child process, killed and reaped on drop.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    fn spawn() -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn the server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        // Built before the checks below so that a failed start is reaped.
        let mut server = ServerChild { child, addr: "0.0.0.0:0".parse().expect("literal address") };
        read.map_err(|e| format!("read the server address: {e}"))?;
        server.addr = line.trim().parse().map_err(|e| format!("server address {line:?}: {e}"))?;
        Ok(server)
    }

    /// `VmHWM` of the server process, in MiB.
    fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One set-up: run the calibration kernel, start a server, upload the
/// graph and run cycle 0 as the warm-up. Returns the server, the seconds
/// to the answer of cycle 0's first request (the span `setup_s` measures)
/// and the server's `VmHWM` after the whole cycle.
fn set_up(
    inputs: &Inputs,
    plan: &Plan,
    cal: &mut Calibrator,
) -> Result<(ServerChild, f64, f64), String> {
    cal.run();
    let started = Instant::now();
    let server = ServerChild::spawn()?;
    let upload = client::post(server.addr, &format!("/graphs?id={GRAPH_ID}"), &inputs.upload)
        .map_err(|e| format!("upload: {e}"))?;
    if upload.status != 201 {
        return Err(format!("upload -> {}: {}", upload.status, upload.body_utf8()));
    }
    let mut secs = None;
    for req in plan.cycle(0) {
        let resp = send(server.addr, &req, inputs).map_err(|e| format!("warm-up: {e}"))?;
        secs.get_or_insert_with(|| started.elapsed().as_secs_f64());
        expect(&req, &resp).map_err(|e| format!("warm-up: {e}"))?;
    }
    let rss = server.peak_rss_mib().ok_or("cannot read the server's VmHWM")?;
    Ok((server, secs.expect("cycle 0 is not empty"), rss))
}

pub fn run(inputs: &Inputs, plan: &Plan, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut cal = Calibrator::new();
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut peaks = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut server = None;
    for _ in 0..SETUPS_BEFORE {
        match set_up(inputs, plan, &mut cal) {
            Ok((child, secs, rss)) => {
                setups.push(secs);
                peaks.push(rss);
                server = Some(child); // drops (kills) the previous one
            }
            Err(e) => {
                outcome.fail(format!("set-up: {e}"));
                return outcome;
            }
        }
    }
    // The last set-up's server, warmed up, serves the timed phase.
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    let mut latencies: [Vec<f64>; 3] = Default::default();
    let mut tile_hits = Vec::new();
    let mut busy_s = 0.0;
    let mut kept = Kept::default();
    let deadline = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut cycle = 0;
    let mut completed = 0u64;
    while started.elapsed() < deadline {
        cycle += 1;
        cal.run();
        for req in plan.cycle(cycle) {
            outcome.attempted += 1;
            let begin = Instant::now();
            let result = send(addr, &req, inputs);
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            let resp = match result
                .map_err(|e| e.to_string())
                .and_then(|r| expect(&req, &r).map(|()| r))
            {
                Ok(resp) => resp,
                Err(e) => {
                    outcome.fail(e);
                    continue;
                }
            };
            completed += 1;
            busy_s += ms / 1e3;
            match (req.class(), req.hit) {
                (Class::Tile, true) => tile_hits.push(ms),
                (class, _) => latencies[class as usize].push(ms),
            }
            kept.keep(plan.workload, cycle, &req, resp.body);
        }
    }
    let end_rss = server.peak_rss_mib();

    for failure in check_outputs(plan.workload, inputs, &kept, addr, cycle) {
        outcome.fail(failure);
    }
    drop(server);
    for _ in 0..SETUPS_AFTER {
        match set_up(inputs, plan, &mut cal) {
            Ok((_, secs, rss)) => {
                setups.push(secs);
                peaks.push(rss);
            }
            Err(e) => outcome.fail(format!("set-up after the timed phase: {e}")),
        }
    }

    // Every time is scaled by the one factor of this run; a median scales
    // with it.
    let scale = cal.scale();
    let scaled = |value: Option<f64>| value.map(|v| v * scale);
    outcome.push_scaled_p50("setup_s", &setups, "s", scale);
    outcome.push_p50("peak_rss_mib", &peaks, "MiB");
    if completed > 0 {
        outcome.push("req_per_s", completed as f64 / busy_s / scale, "1/s", completed as usize);
    }
    let [terrain, tiles, deltas] = &latencies;
    outcome.push_scaled_p50("terrain_ms_p50", terrain, "ms", scale);
    outcome.push_scaled_p50("tile_miss_ms_p50", tiles, "ms", scale);
    outcome.push_scaled_p50("delta_ms_p50", deltas, "ms", scale);

    // Informational lines, not in BENCHMARK.json: the kernel's time and
    // the unscaled figures, the tail where the sample supports it, tile
    // hits, and the timed server's own VmHWM.
    let info = |name: &str, value: Option<f64>, unit: &str, samples: usize| {
        if let Some(value) = value {
            println!("# {name:<36} {value:>14.4} {unit:<6} n={samples} (not in BENCHMARK.json)");
        }
    };
    info("calibration_kernel_ms_p50", median(&cal.kernel_ms), "ms", cal.kernel_ms.len());
    info("unscaled setup_s", median(&setups), "s", setups.len());
    info("unscaled req_per_s", Some(completed as f64 / busy_s), "1/s", completed as usize);
    info("unscaled terrain_ms_p50", median(terrain), "ms", terrain.len());
    info("unscaled tile_miss_ms_p50", median(tiles), "ms", tiles.len());
    info("unscaled delta_ms_p50", median(deltas), "ms", deltas.len());
    if tiles.len() >= 100 {
        info("tile_miss_ms_p90", scaled(percentile(tiles, 0.9)), "ms", tiles.len());
    }
    info("tile_hit_ms_p50", scaled(median(&tile_hits)), "ms", tile_hits.len());
    info("end_rss_mib", end_rss, "MiB", 1);
    outcome
}
