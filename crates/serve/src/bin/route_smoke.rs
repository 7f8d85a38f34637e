//! Scripted smoke check against a *running* terrain server: upload a graph,
//! render it through two exporter backends, query peaks and stats, and
//! verify the cache protocol (miss → hit byte-equality, ETag stability,
//! `If-None-Match` → 304). CI boots `terrain_server` on an ephemeral port,
//! runs this binary, then byte-diffs the saved `terrain.svg` against a
//! direct `quickstart` render of the same snapshot — closing the loop that
//! the *served* artifact equals the *library* artifact. The script also
//! exercises the dynamic-graph routes: it streams insert/delete batches at
//! a fixed base graph and byte-diffs the mutated render against a
//! from-scratch upload of the final edge list (saved as
//! `terrain_delta.svg` / `terrain_delta_rebuilt.svg` for CI to re-diff),
//! and the viewport-tile routes: one tile must miss then hit
//! byte-identically, answer `If-None-Match` with a 304, 404 past the grid,
//! and stream a `GTSC` scene document (saved as `tile_1_0_0.svg` /
//! `scene.gtsc` so CI can byte-diff a re-requested tile). A second tile of
//! the same graph and measure must render from the retained scene: `/stats`
//! `scenes.builds` may not grow, and the first k-core tile, served after a
//! k-core terrain, must start from the super tree that terrain retained:
//! `super_trees.builds` may not grow either. Two terrain widths of a
//! measure not used before must compute its scalar field once, inside its
//! one super-tree build, and build its render tree once:
//! `super_trees.builds` and `render_trees.builds` each grow by 1. A terrain
//! at a new `budget` then builds one more render tree from the retained
//! super tree: `render_trees.builds` grows by 1 and `super_trees.builds` by
//! 0. `/stats` must time the scalar stage (`stage_seconds.scalar > 0`) and
//! have no `scalars` view: the server retains no scalar field. Last, the
//! snapshot re-uploaded with one byte flipped must be a 400 `invalid_graph`
//! that registers nothing (`GET /graphs` lists only the script's graphs).
//!
//! ```text
//! route_smoke --addr <host:port> --graph <v3 snapshot> [--out-dir <dir>]
//! ```
//!
//! Exits 0 and prints `route smoke: PASS` only if every step held.

use std::net::SocketAddr;
use std::path::PathBuf;

use serve::client;

fn flag(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = arg.strip_prefix(&prefix) {
            return Some(value.to_string());
        }
        if arg == name {
            return iter.next().cloned();
        }
    }
    None
}

fn fail(step: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("route smoke: FAIL at {step}: {detail}");
    std::process::exit(1);
}

fn expect_status(step: &str, response: &client::HttpResponse, status: u16) {
    if response.status != status {
        fail(
            step,
            format!("expected status {status}, got {} with body {}", response.status, {
                let body = response.body_utf8();
                body.chars().take(300).collect::<String>()
            }),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: SocketAddr = flag(&args, "--addr")
        .unwrap_or_else(|| fail("args", "--addr <host:port> is required"))
        .parse()
        .unwrap_or_else(|e| fail("args", format!("bad --addr: {e}")));
    let graph_path =
        flag(&args, "--graph").unwrap_or_else(|| fail("args", "--graph <path> is required"));
    let out_dir = flag(&args, "--out-dir").map(PathBuf::from);
    let graph_bytes = std::fs::read(&graph_path)
        .unwrap_or_else(|e| fail("read graph", format!("{graph_path}: {e}")));

    // 1. Health first: the server is actually up.
    let health = client::get(addr, "/healthz").unwrap_or_else(|e| fail("healthz", e));
    expect_status("healthz", &health, 200);

    // 2. Upload the graph under a fixed id.
    let upload =
        client::post(addr, "/graphs?id=smoke", &graph_bytes).unwrap_or_else(|e| fail("upload", e));
    expect_status("upload", &upload, 201);
    if !upload.body_utf8().contains("\"id\":\"smoke\"") {
        fail("upload", format!("body does not echo the id: {}", upload.body_utf8()));
    }

    // 3. First terrain render must be a cache miss with an ETag.
    let target = "/graphs/smoke/terrain?measure=kcore&format=svg";
    let miss = client::get(addr, target).unwrap_or_else(|e| fail("terrain miss", e));
    expect_status("terrain miss", &miss, 200);
    if miss.header("x-cache") != Some("miss") {
        fail("terrain miss", format!("X-Cache = {:?}, expected miss", miss.header("x-cache")));
    }
    let etag =
        miss.header("etag").unwrap_or_else(|| fail("terrain miss", "no ETag header")).to_string();
    if miss.body.is_empty() || !miss.body_utf8().contains("<svg") {
        fail("terrain miss", "body is not an SVG document");
    }

    // 4. The same request again: a hit, byte-identical, same ETag.
    let hit = client::get(addr, target).unwrap_or_else(|e| fail("terrain hit", e));
    expect_status("terrain hit", &hit, 200);
    if hit.header("x-cache") != Some("hit") {
        fail("terrain hit", format!("X-Cache = {:?}, expected hit", hit.header("x-cache")));
    }
    if hit.body != miss.body {
        fail("terrain hit", "cache hit bytes differ from the miss render");
    }
    if hit.header("etag") != Some(etag.as_str()) {
        fail("terrain hit", "ETag changed between miss and hit");
    }

    // 5. Conditional request: 304, no body.
    let conditional = client::get_with_headers(addr, target, &[("If-None-Match", &etag)])
        .unwrap_or_else(|e| fail("conditional", e));
    expect_status("conditional", &conditional, 304);
    if !conditional.body.is_empty() {
        fail("conditional", "304 must not carry a body");
    }

    // 6. A second exporter backend over the same session defaults.
    let json_render = client::get(addr, "/graphs/smoke/terrain?measure=kcore&format=json")
        .unwrap_or_else(|e| fail("terrain json", e));
    expect_status("terrain json", &json_render, 200);
    serde_json::from_str(&json_render.body_utf8())
        .unwrap_or_else(|e| fail("terrain json", format!("body is not JSON: {e}")));

    // 7. Peaks.
    let peaks =
        client::get(addr, "/graphs/smoke/peaks?count=3").unwrap_or_else(|e| fail("peaks", e));
    expect_status("peaks", &peaks, 200);
    let peaks_doc = serde_json::from_str(&peaks.body_utf8())
        .unwrap_or_else(|e| fail("peaks", format!("body is not JSON: {e}")));
    if peaks_doc.get("peaks").and_then(|p| p.as_array()).is_none() {
        fail("peaks", "no peaks array in response");
    }

    // 8. A bad measure is a structured 400 that lists the accepted names.
    let bad = client::get(addr, "/graphs/smoke/terrain?measure=bogus")
        .unwrap_or_else(|e| fail("bad measure", e));
    expect_status("bad measure", &bad, 400);
    if !bad.body_utf8().contains("kcore") {
        fail("bad measure", "400 body should list known measures");
    }

    // 9. Stats must reflect the traffic above: at least one hit, one miss.
    let stats = client::get(addr, "/stats").unwrap_or_else(|e| fail("stats", e));
    expect_status("stats", &stats, 200);
    let stats_doc = serde_json::from_str(&stats.body_utf8())
        .unwrap_or_else(|e| fail("stats", format!("body is not JSON: {e}")));
    let cache = stats_doc.get("cache").unwrap_or_else(|| fail("stats", "no cache object"));
    let hits = cache.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
    let misses = cache.get("misses").and_then(|v| v.as_u64()).unwrap_or(0);
    if hits < 1 || misses < 1 {
        fail("stats", format!("expected hits >= 1 and misses >= 1, got {hits}/{misses}"));
    }
    let scalar_seconds = stats_doc.get("stage_seconds").and_then(|s| s.get("scalar")?.as_f64());
    if !scalar_seconds.is_some_and(|seconds| seconds > 0.0) {
        fail("stats", format!("stage_seconds.scalar = {scalar_seconds:?}, expected > 0"));
    }
    if stats_doc.get("scalars").is_some() {
        fail("stats", "a scalars view, but no scalar field is retained");
    }

    // 10. Tiles: a pan/zoom tile misses, hits byte-identically, honors
    // If-None-Match, and out-of-grid keys are 404s decided before any
    // render. The whole-scene GTSC stream must carry its magic.
    let builds = |object: &str| {
        let stats = client::get(addr, "/stats").unwrap_or_else(|e| fail("build stats", e));
        expect_status("build stats", &stats, 200);
        serde_json::from_str(&stats.body_utf8())
            .ok()
            .and_then(|doc| doc.get(object)?.get("builds")?.as_u64())
            .unwrap_or_else(|| fail("build stats", format!("no {object}.builds in /stats")))
    };
    let super_trees_before = builds("super_trees");
    let tile_target = "/graphs/smoke/tiles/1/0/0?measure=kcore";
    let tile_miss = client::get(addr, tile_target).unwrap_or_else(|e| fail("tile miss", e));
    expect_status("tile miss", &tile_miss, 200);
    if tile_miss.header("x-cache") != Some("miss") {
        fail("tile miss", format!("X-Cache = {:?}, expected miss", tile_miss.header("x-cache")));
    }
    if !tile_miss.body_utf8().starts_with("<svg") {
        fail("tile miss", "tile body is not an SVG document");
    }
    // The k-core terrain of step 3 retained the super tree the scene needs.
    let super_trees_after = builds("super_trees");
    if super_trees_after != super_trees_before {
        fail(
            "tile miss",
            format!(
                "super_trees.builds went {super_trees_before} -> {super_trees_after}; \
                 the tile rebuilt the k-core super tree"
            ),
        );
    }
    let tile_etag =
        tile_miss.header("etag").unwrap_or_else(|| fail("tile miss", "no ETag")).to_string();
    let tile_hit = client::get(addr, tile_target).unwrap_or_else(|e| fail("tile hit", e));
    expect_status("tile hit", &tile_hit, 200);
    if tile_hit.header("x-cache") != Some("hit") {
        fail("tile hit", format!("X-Cache = {:?}, expected hit", tile_hit.header("x-cache")));
    }
    if tile_hit.body != tile_miss.body {
        fail("tile hit", "cache hit bytes differ from the miss render");
    }
    let tile_conditional =
        client::get_with_headers(addr, tile_target, &[("If-None-Match", &tile_etag)])
            .unwrap_or_else(|e| fail("tile conditional", e));
    expect_status("tile conditional", &tile_conditional, 304);
    if !tile_conditional.body.is_empty() {
        fail("tile conditional", "304 must not carry a body");
    }
    // A second tile of the same graph and measure renders from the scene the
    // first tile retained: `/stats` must show no new scene build.
    let scene_builds = || builds("scenes");
    let builds_before = scene_builds();
    let second_tile = client::get(addr, "/graphs/smoke/tiles/1/1/0?measure=kcore")
        .unwrap_or_else(|e| fail("second tile", e));
    expect_status("second tile", &second_tile, 200);
    if second_tile.header("x-cache") != Some("miss") {
        fail(
            "second tile",
            format!("X-Cache = {:?}, expected miss", second_tile.header("x-cache")),
        );
    }
    let builds_after = scene_builds();
    if builds_after != builds_before {
        fail(
            "second tile",
            format!("scenes.builds went {builds_before} -> {builds_after}; the scene was rebuilt"),
        );
    }
    // Two terrain widths of one measure share its retained super tree (the
    // one computation of its field) and its retained render tree.
    let kinds = ["super_trees", "render_trees"];
    let builds_before = kinds.map(builds);
    for width in [640, 800] {
        let target = format!("/graphs/smoke/terrain?measure=pagerank&width={width}");
        let render = client::get(addr, &target).unwrap_or_else(|e| fail("terrain width", e));
        expect_status("terrain width", &render, 200);
    }
    for (kind, before) in kinds.into_iter().zip(builds_before) {
        let made = builds(kind) - before;
        if made != 1 {
            fail(
                "retained state",
                format!("two terrain widths made {made} {kind} builds, expected 1"),
            );
        }
    }
    // A new budget is one snap-and-cap pass over the retained super tree.
    let kinds = ["render_trees", "super_trees"];
    let builds_before = kinds.map(builds);
    let budget = client::get(addr, "/graphs/smoke/terrain?measure=pagerank&budget=64")
        .unwrap_or_else(|e| fail("terrain budget", e));
    expect_status("terrain budget", &budget, 200);
    for ((kind, before), expected) in kinds.into_iter().zip(builds_before).zip([1, 0]) {
        let made = builds(kind) - before;
        if made != expected {
            fail(
                "retained state",
                format!("a new budget made {made} {kind} builds, expected {expected}"),
            );
        }
    }
    for bad_target in ["/graphs/smoke/tiles/99/0/0", "/graphs/smoke/tiles/1/2/0"] {
        let out_of_grid =
            client::get(addr, bad_target).unwrap_or_else(|e| fail("tile out of grid", e));
        expect_status("tile out of grid", &out_of_grid, 404);
        if !out_of_grid.body_utf8().contains("outside the grid") {
            fail("tile out of grid", format!("unexpected body: {}", out_of_grid.body_utf8()));
        }
    }
    let scene =
        client::get(addr, "/graphs/smoke/scene?measure=kcore").unwrap_or_else(|e| fail("scene", e));
    expect_status("scene", &scene, 200);
    if !scene.body.starts_with(b"GTSC") {
        fail("scene", "scene body does not start with the GTSC magic");
    }
    if scene.header("content-type") != Some("application/octet-stream") {
        fail("scene", format!("content-type = {:?}", scene.header("content-type")));
    }

    // 11. Dynamic graphs: upload a small fixed base, stream an insert and a
    // delete batch at it, and check the mutated graph renders
    // byte-identically to a from-scratch upload of the final edge list.
    let base = client::post(addr, "/graphs?id=delta-base", b"0 1\n1 2\n2 0\n0 3\n")
        .unwrap_or_else(|e| fail("delta base upload", e));
    expect_status("delta base upload", &base, 201);
    let pre = client::get(addr, "/graphs/delta-base/terrain")
        .unwrap_or_else(|e| fail("pre-delta render", e));
    expect_status("pre-delta render", &pre, 200);
    let pre_etag =
        pre.header("etag").unwrap_or_else(|| fail("pre-delta render", "no ETag")).to_string();

    let insert = client::post(addr, "/graphs/delta-base/deltas", b"3 4\n1 3\n")
        .unwrap_or_else(|e| fail("delta insert", e));
    expect_status("delta insert", &insert, 200);
    if !insert.body_utf8().contains("\"structural\":true") {
        fail("delta insert", format!("expected a structural delta: {}", insert.body_utf8()));
    }
    let delete = client::post(addr, "/graphs/delta-base/deltas?op=delete", b"0 3\n")
        .unwrap_or_else(|e| fail("delta delete", e));
    expect_status("delta delete", &delete, 200);

    let mutated = client::get(addr, "/graphs/delta-base/terrain")
        .unwrap_or_else(|e| fail("post-delta render", e));
    expect_status("post-delta render", &mutated, 200);
    if mutated.header("x-cache") != Some("miss") {
        fail("post-delta render", "a mutated graph must not serve stale cached bytes");
    }
    if mutated.header("etag") == Some(pre_etag.as_str()) {
        fail("post-delta render", "the ETag must change when the graph mutates");
    }
    // Final edge list after both batches: the base plus {3-4, 1-3} minus {0-3}.
    let rebuilt = client::post(addr, "/graphs?id=delta-rebuilt", b"0 1\n1 2\n2 0\n1 3\n3 4\n")
        .unwrap_or_else(|e| fail("rebuilt upload", e));
    expect_status("rebuilt upload", &rebuilt, 201);
    let direct = client::get(addr, "/graphs/delta-rebuilt/terrain")
        .unwrap_or_else(|e| fail("rebuilt render", e));
    expect_status("rebuilt render", &direct, 200);
    if direct.body != mutated.body {
        fail("delta coherence", "incremental and from-scratch renders disagree byte-wise");
    }

    // 12. DELETE unregisters; a second DELETE is a 404.
    let deleted =
        client::delete(addr, "/graphs/delta-rebuilt").unwrap_or_else(|e| fail("delete graph", e));
    expect_status("delete graph", &deleted, 200);
    let gone =
        client::delete(addr, "/graphs/delta-rebuilt").unwrap_or_else(|e| fail("delete again", e));
    expect_status("delete again", &gone, 404);
    let lookup =
        client::get(addr, "/graphs/delta-rebuilt").unwrap_or_else(|e| fail("deleted lookup", e));
    expect_status("deleted lookup", &lookup, 404);

    // 13. The snapshot with one byte flipped is a 400 `invalid_graph` that
    // registers nothing: the listing holds exactly the graphs this script
    // registered and kept.
    let mut corrupt = graph_bytes.clone();
    corrupt[graph_bytes.len() / 2] ^= 0x01;
    let rejected = client::post(addr, "/graphs?id=corrupt", &corrupt)
        .unwrap_or_else(|e| fail("corrupt upload", e));
    expect_status("corrupt upload", &rejected, 400);
    let rejected_doc = serde_json::from_str(&rejected.body_utf8())
        .unwrap_or_else(|e| fail("corrupt upload", format!("body is not JSON: {e}")));
    let code = rejected_doc.get("error").and_then(|e| e.get("code")?.as_str());
    if code != Some("invalid_graph") {
        fail("corrupt upload", format!("error code = {code:?}, expected invalid_graph"));
    }
    let listing = client::get(addr, "/graphs").unwrap_or_else(|e| fail("graph listing", e));
    expect_status("graph listing", &listing, 200);
    let listing_doc = serde_json::from_str(&listing.body_utf8())
        .unwrap_or_else(|e| fail("graph listing", format!("body is not JSON: {e}")));
    let mut ids: Vec<&str> = listing_doc
        .get("graphs")
        .and_then(|g| g.as_array())
        .unwrap_or_else(|| fail("graph listing", "no graphs array"))
        .iter()
        .filter_map(|g| g.get("id")?.as_str())
        .collect();
    ids.sort_unstable();
    if ids != ["delta-base", "smoke"] {
        fail("graph listing", format!("expected [\"delta-base\", \"smoke\"], got {ids:?}"));
    }

    // 14. Save artifacts for the CI byte-diff against a direct render (and
    // the tile/scene re-request diffs).
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail("out-dir", e));
        std::fs::write(dir.join("terrain.svg"), &miss.body)
            .unwrap_or_else(|e| fail("write svg", e));
        std::fs::write(dir.join("tile_1_0_0.svg"), &tile_miss.body)
            .unwrap_or_else(|e| fail("write tile svg", e));
        std::fs::write(dir.join("scene.gtsc"), &scene.body)
            .unwrap_or_else(|e| fail("write scene", e));
        std::fs::write(dir.join("terrain.json"), &json_render.body)
            .unwrap_or_else(|e| fail("write json", e));
        std::fs::write(dir.join("peaks.json"), &peaks.body)
            .unwrap_or_else(|e| fail("write peaks", e));
        std::fs::write(dir.join("terrain_delta.svg"), &mutated.body)
            .unwrap_or_else(|e| fail("write delta svg", e));
        std::fs::write(dir.join("terrain_delta_rebuilt.svg"), &direct.body)
            .unwrap_or_else(|e| fail("write rebuilt svg", e));
    }

    println!("route smoke: PASS ({} byte SVG, {hits} hits / {misses} misses)", miss.body.len());
}
