//! The `BENCH_*.json` perf-baseline schema, environment capture, and the
//! regression comparator behind `scale_ladder --compare`.
//!
//! A baseline file records one run of the scale ladder: a list of rungs, each
//! a full `TerrainPipeline` execution on a generated graph at one
//! [`Parallelism`] setting, with per-stage wall-clock seconds, throughput and
//! the process peak RSS. `PERFORMANCE.md` documents every field; this module
//! is the single source of truth for writing, validating and comparing the
//! format, so the doc, the CI gate and the binary cannot drift apart.
//!
//! [`Parallelism`]: ugraph::par::Parallelism

use serde::Serialize;
use serde_json::Value;

/// Version stamp written into every baseline. Bump when a field changes
/// meaning; the comparator refuses to diff files with mismatched versions.
///
/// v2 added the per-rung `storage` discriminator and the nullable
/// `open_seconds` field (snapshot-open rungs of the zero-copy storage layer).
pub const SCHEMA_VERSION: u64 = 2;

/// One complete ladder run — the top-level object of a `BENCH_*.json` file.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Always [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// ISO date (`YYYY-MM-DD`, UTC) the run started.
    pub created: String,
    /// `git rev-parse --short HEAD` of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Hardware threads visible to the process at run time.
    pub host_threads: usize,
    /// Operating system the run executed on (`std::env::consts::OS`).
    pub host_os: String,
    /// One entry per (rung, parallelism) pair, ladder order.
    pub rungs: Vec<RungResult>,
}

/// Per-stage wall-clock seconds of one pipeline run, mirroring
/// [`graph_terrain::StageTimings`] with every stage forced.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSeconds {
    /// Computing the scalar field (the measure).
    pub scalar: f64,
    /// Building the scalar tree (Algorithm 1 / 3).
    pub tree: f64,
    /// Merging into the super tree (Algorithm 2).
    pub super_tree: f64,
    /// Deciding on / applying the Section II-E simplification.
    pub simplify: f64,
    /// The nested 2D boundary layout.
    pub layout: f64,
    /// The 3D mesh extrusion.
    pub mesh: f64,
    /// SVG serialization.
    pub svg: f64,
}

impl StageSeconds {
    /// Sum of all stages — the `total_seconds` written per rung.
    pub fn total(&self) -> f64 {
        self.scalar
            + self.tree
            + self.super_tree
            + self.simplify
            + self.layout
            + self.mesh
            + self.svg
    }
}

/// One (rung, parallelism) measurement.
#[derive(Clone, Debug)]
pub struct RungResult {
    /// Ladder rung name (`"1k"`, `"10k"`, ..., `"10M"`).
    pub rung: String,
    /// Generator that produced the graph (`"rmat"`).
    pub generator: String,
    /// Generator scale parameter (the graph has `2^scale` vertices).
    pub scale: u32,
    /// Edge samples requested from the generator.
    pub target_edges: usize,
    /// Realized vertex count of the generated graph.
    pub vertices: usize,
    /// Realized edge count (dedup and self-loop removal make it < target).
    pub edges: usize,
    /// Seconds spent generating the graph (amortized: the graph is generated
    /// once per rung and shared by every parallelism setting).
    pub generate_seconds: f64,
    /// Measure driving the scalar field (`"pagerank"`, `"degree"`, ...).
    pub measure: String,
    /// How the rung obtained its graph: `"generated"` (in-memory RMAT, the
    /// pipeline rungs) or `"snapshot-v3-mapped"` (binary v3 via
    /// [`ugraph::MappedCsrGraph`]). Baselines recorded before the v2 codec
    /// was retired also carry `"snapshot-v2"` rows.
    pub storage: String,
    /// Seconds to reopen the graph from its snapshot (checksum + validation
    /// included). `None` on `"generated"` rungs, which never touch disk.
    pub open_seconds: Option<f64>,
    /// The `Parallelism` setting, in its `parse` round-trip form
    /// (`"serial"`, `"4"`, `"4x128"`).
    pub parallelism: String,
    /// Thread count the setting resolves to.
    pub threads: usize,
    /// Chunk width the setting resolves to.
    pub width: usize,
    /// Per-stage wall-clock seconds.
    pub stages: StageSeconds,
    /// Sum of all stage seconds.
    pub total_seconds: f64,
    /// `edges / total_seconds` — the ladder's throughput headline.
    pub edges_per_second: f64,
    /// Process peak RSS (`VmHWM` from `/proc/self/status`) observed *after*
    /// this rung, in bytes. Monotone over a run; `null` where unavailable.
    pub peak_rss_bytes: Option<u64>,
}

// Hand-written JSON emission: the vendored serde has no derive macros, so
// each report struct writes its own object with the shared field helper
// (also used by the `LOAD_*.json` sibling schema in [`crate::load_report`]).
pub(crate) struct JsonObject<'a> {
    out: &'a mut String,
    indent: usize,
    any: bool,
}

impl<'a> JsonObject<'a> {
    pub(crate) fn new(out: &'a mut String, indent: usize) -> Self {
        out.push('{');
        JsonObject { out, indent, any: false }
    }

    pub(crate) fn field(&mut self, key: &str, value: &dyn Serialize) -> &mut Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent + 1));
        key.json_write(self.out, self.indent + 1);
        self.out.push_str(": ");
        value.json_write(self.out, self.indent + 1);
        self
    }

    pub(crate) fn finish(self) {
        if self.any {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.indent));
        }
        self.out.push('}');
    }
}

impl Serialize for StageSeconds {
    fn json_write(&self, out: &mut String, indent: usize) {
        let mut obj = JsonObject::new(out, indent);
        obj.field("scalar", &self.scalar)
            .field("tree", &self.tree)
            .field("super_tree", &self.super_tree)
            .field("simplify", &self.simplify)
            .field("layout", &self.layout)
            .field("mesh", &self.mesh)
            .field("svg", &self.svg);
        obj.finish();
    }
}

impl Serialize for RungResult {
    fn json_write(&self, out: &mut String, indent: usize) {
        let mut obj = JsonObject::new(out, indent);
        obj.field("rung", &self.rung)
            .field("generator", &self.generator)
            .field("scale", &self.scale)
            .field("target_edges", &self.target_edges)
            .field("vertices", &self.vertices)
            .field("edges", &self.edges)
            .field("generate_seconds", &self.generate_seconds)
            .field("measure", &self.measure)
            .field("storage", &self.storage)
            .field("open_seconds", &self.open_seconds)
            .field("parallelism", &self.parallelism)
            .field("threads", &self.threads)
            .field("width", &self.width)
            .field("stages", &self.stages)
            .field("total_seconds", &self.total_seconds)
            .field("edges_per_second", &self.edges_per_second)
            .field("peak_rss_bytes", &self.peak_rss_bytes);
        obj.finish();
    }
}

impl Serialize for BenchReport {
    fn json_write(&self, out: &mut String, indent: usize) {
        let mut obj = JsonObject::new(out, indent);
        obj.field("schema_version", &self.schema_version)
            .field("created", &self.created)
            .field("git_rev", &self.git_rev)
            .field("host_threads", &self.host_threads)
            .field("host_os", &self.host_os)
            .field("rungs", &self.rungs);
        obj.finish();
    }
}

/// Process peak resident set size in bytes, read from the `VmHWM` line of
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: "VmHWM:    123456 kB"
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Short git revision of the working tree, or `"unknown"` when git is
/// unavailable (e.g. a source tarball).
pub fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → (year, month, day), Howard Hinnant's `civil_from_days`.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// A schema violation or regression found by [`validate`] / [`compare`].
pub type SchemaError = String;

/// Validate a parsed `BENCH_*.json` document against the schema this module
/// writes. Returns every violation (empty = valid).
pub fn validate(doc: &Value) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(v) => errors.push(format!("schema_version {v} != supported {SCHEMA_VERSION}")),
        None => errors.push("missing numeric schema_version".to_string()),
    }
    for key in ["created", "git_rev", "host_os"] {
        if doc.get(key).and_then(Value::as_str).is_none() {
            errors.push(format!("missing string field {key:?}"));
        }
    }
    if doc.get("host_threads").and_then(Value::as_u64).is_none() {
        errors.push("missing numeric field \"host_threads\"".to_string());
    }
    let Some(rungs) = doc.get("rungs").and_then(Value::as_array) else {
        errors.push("missing array field \"rungs\"".to_string());
        return errors;
    };
    for (i, rung) in rungs.iter().enumerate() {
        for key in ["rung", "generator", "measure", "storage", "parallelism"] {
            if rung.get(key).and_then(Value::as_str).is_none() {
                errors.push(format!("rungs[{i}]: missing string field {key:?}"));
            }
        }
        for key in ["scale", "target_edges", "vertices", "edges", "threads", "width"] {
            if rung.get(key).and_then(Value::as_u64).is_none() {
                errors.push(format!("rungs[{i}]: missing numeric field {key:?}"));
            }
        }
        for key in ["generate_seconds", "total_seconds", "edges_per_second"] {
            if rung.get(key).and_then(Value::as_f64).is_none() {
                errors.push(format!("rungs[{i}]: missing numeric field {key:?}"));
            }
        }
        match rung.get("stages") {
            Some(stages) => {
                for key in ["scalar", "tree", "super_tree", "simplify", "layout", "mesh", "svg"] {
                    if stages.get(key).and_then(Value::as_f64).is_none() {
                        errors.push(format!("rungs[{i}].stages: missing numeric field {key:?}"));
                    }
                }
            }
            None => errors.push(format!("rungs[{i}]: missing object field \"stages\"")),
        }
        match rung.get("peak_rss_bytes") {
            Some(v) if v.is_null() || v.as_u64().is_some() => {}
            _ => errors.push(format!("rungs[{i}]: peak_rss_bytes must be a number or null")),
        }
        match rung.get("open_seconds") {
            Some(v) if v.is_null() || v.as_f64().is_some() => {}
            _ => errors.push(format!("rungs[{i}]: open_seconds must be a number or null")),
        }
    }
    errors
}

/// Reference timings below this are treated as noise and never flagged: at
/// sub-10ms scale, allocator and scheduler jitter routinely exceeds 2x. The
/// floor is set so the CI smoke ladder's 10k/100k rungs (tens of
/// milliseconds) are still gated while the trivial 1k rung is not.
pub const COMPARE_NOISE_FLOOR_SECONDS: f64 = 0.01;

/// Compare a current run against a committed reference baseline.
///
/// Rungs are matched by the `(rung, measure, parallelism, storage)` tuple; a
/// rung
/// present in only one file is skipped (ladders may grow). A matched rung is
/// a regression when `current.total_seconds > tolerance ×
/// reference.total_seconds` and the reference is above
/// [`COMPARE_NOISE_FLOOR_SECONDS`]. Returns one human-readable line per
/// regression (empty = pass).
pub fn compare(current: &Value, reference: &Value, tolerance: f64) -> Vec<SchemaError> {
    let mut problems = Vec::new();
    let version = |doc: &Value| doc.get("schema_version").and_then(Value::as_u64);
    if version(current) != version(reference) {
        problems.push(format!(
            "schema_version mismatch: current {:?} vs reference {:?}",
            version(current),
            version(reference)
        ));
        return problems;
    }
    let key_of = |rung: &Value| -> Option<(String, String, String, String)> {
        Some((
            rung.get("rung")?.as_str()?.to_string(),
            rung.get("measure")?.as_str()?.to_string(),
            rung.get("parallelism")?.as_str()?.to_string(),
            rung.get("storage")?.as_str()?.to_string(),
        ))
    };
    let empty = Vec::new();
    let current_rungs = current.get("rungs").and_then(Value::as_array).unwrap_or(&empty);
    let reference_rungs = reference.get("rungs").and_then(Value::as_array).unwrap_or(&empty);
    for reference_rung in reference_rungs {
        let Some(key) = key_of(reference_rung) else { continue };
        let Some(current_rung) = current_rungs.iter().find(|r| key_of(r).as_ref() == Some(&key))
        else {
            continue;
        };
        let reference_total =
            reference_rung.get("total_seconds").and_then(Value::as_f64).unwrap_or(0.0);
        let current_total =
            current_rung.get("total_seconds").and_then(Value::as_f64).unwrap_or(0.0);
        if reference_total < COMPARE_NOISE_FLOOR_SECONDS {
            continue;
        }
        if current_total > tolerance * reference_total {
            problems.push(format!(
                "{}/{}/{}/{}: {:.3}s vs reference {:.3}s ({:.2}x > {:.2}x tolerance)",
                key.0,
                key.1,
                key.2,
                key.3,
                current_total,
                reference_total,
                current_total / reference_total,
                tolerance
            ));
        }
    }
    problems
}

/// Render a [`BenchReport`] as the aligned text table the binary prints (and
/// `PERFORMANCE.md` quotes).
pub fn format_table_for(report: &BenchReport) -> String {
    let rows: Vec<Vec<String>> = report
        .rungs
        .iter()
        .map(|r| {
            vec![
                r.rung.clone(),
                r.storage.clone(),
                r.parallelism.clone(),
                r.vertices.to_string(),
                r.edges.to_string(),
                match r.open_seconds {
                    Some(open) => format!("{open:.3}"),
                    None => "n/a".to_string(),
                },
                format!("{:.3}", r.stages.scalar),
                format!("{:.3}", r.stages.tree + r.stages.super_tree),
                format!(
                    "{:.3}",
                    r.stages.simplify + r.stages.layout + r.stages.mesh + r.stages.svg
                ),
                format!("{:.3}", r.total_seconds),
                format!("{:.0}", r.edges_per_second),
                match r.peak_rss_bytes {
                    Some(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
                    None => "n/a".to_string(),
                },
            ]
        })
        .collect();
    crate::output::format_table(
        &[
            "rung", "storage", "par", "vertices", "edges", "open_s", "scalar", "tree", "viz",
            "total_s", "edges/s", "rss_MiB",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            created: "2026-08-07".to_string(),
            git_rev: "abc1234".to_string(),
            host_threads: 4,
            host_os: "linux".to_string(),
            rungs: vec![RungResult {
                rung: "1k".to_string(),
                generator: "rmat".to_string(),
                scale: 7,
                target_edges: 1_000,
                vertices: 128,
                edges: 900,
                generate_seconds: 0.001,
                measure: "pagerank".to_string(),
                storage: "generated".to_string(),
                open_seconds: None,
                parallelism: "serial".to_string(),
                threads: 1,
                width: 32,
                stages: StageSeconds {
                    scalar: 0.1,
                    tree: 0.2,
                    super_tree: 0.3,
                    simplify: 0.0,
                    layout: 0.01,
                    mesh: 0.02,
                    svg: 0.03,
                },
                total_seconds: 0.66,
                edges_per_second: 1363.6,
                peak_rss_bytes: Some(10 * 1024 * 1024),
            }],
        }
    }

    #[test]
    fn report_serializes_and_validates_round_trip() {
        let json = serde_json::to_string_pretty(&sample_report()).unwrap();
        let doc = serde_json::from_str(&json).unwrap();
        assert_eq!(validate(&doc), Vec::<String>::new(), "{json}");
        let rung = &doc.get("rungs").unwrap().as_array().unwrap()[0];
        assert_eq!(rung.get("edges").unwrap().as_u64(), Some(900));
        assert_eq!(rung.get("stages").unwrap().get("tree").unwrap().as_f64(), Some(0.2));
        assert_eq!(rung.get("parallelism").unwrap().as_str(), Some("serial"));
    }

    #[test]
    fn missing_rss_serializes_as_null_and_stays_valid() {
        let mut report = sample_report();
        report.rungs[0].peak_rss_bytes = None;
        let json = serde_json::to_string_pretty(&report).unwrap();
        let doc = serde_json::from_str(&json).unwrap();
        assert!(validate(&doc).is_empty());
        assert!(doc.get("rungs").unwrap().as_array().unwrap()[0]
            .get("peak_rss_bytes")
            .unwrap()
            .is_null());
    }

    #[test]
    fn validate_reports_schema_violations() {
        let doc = serde_json::from_str(r#"{"schema_version": 99, "rungs": [{}]}"#).unwrap();
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("schema_version 99")));
        assert!(errors.iter().any(|e| e.contains("rungs[0]")));
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let reference = serde_json::to_string_pretty(&sample_report()).unwrap();
        let reference = serde_json::from_str(&reference).unwrap();

        // Identical run: no regressions.
        assert!(compare(&reference, &reference, 2.0).is_empty());

        // 3x slower: flagged at 2x tolerance.
        let mut slow = sample_report();
        slow.rungs[0].total_seconds *= 3.0;
        let slow = serde_json::from_str(&serde_json::to_string_pretty(&slow).unwrap()).unwrap();
        let problems = compare(&slow, &reference, 2.0);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("1k/pagerank/serial"), "{}", problems[0]);

        // A sub-noise-floor reference rung never flags.
        let mut tiny = sample_report();
        tiny.rungs[0].total_seconds = 0.005;
        let tiny_ref = serde_json::from_str(&serde_json::to_string_pretty(&tiny).unwrap()).unwrap();
        tiny.rungs[0].total_seconds = 1.0;
        let tiny_cur = serde_json::from_str(&serde_json::to_string_pretty(&tiny).unwrap()).unwrap();
        assert!(compare(&tiny_cur, &tiny_ref, 2.0).is_empty());

        // Rungs only in the reference are skipped, not errors.
        let mut extra = sample_report();
        extra.rungs[0].rung = "10k".to_string();
        let extra = serde_json::from_str(&serde_json::to_string_pretty(&extra).unwrap()).unwrap();
        assert!(compare(&extra, &reference, 2.0).is_empty());
    }

    #[test]
    fn environment_capture_works_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
        let date = utc_date();
        assert_eq!(date.len(), 10);
        assert_eq!(&date[4..5], "-");
        assert!(!git_short_rev().is_empty());
    }

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(20_672), (2026, 8, 7)); // 2026-08-07
    }
}
