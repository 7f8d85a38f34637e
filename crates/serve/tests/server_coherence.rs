//! Concurrent coherence: many client threads hammering one server must get
//! artifacts *byte-identical* to a fresh, serial, single-session
//! [`TerrainPipeline`] render of the same graph — whether a response came
//! from a cold render, a cache hit, or raced another thread's identical
//! request. This is the server-side face of the pipeline's determinism
//! contract, and it is what justifies the cache returning stored bytes at
//! all.

use std::collections::HashMap;
use std::sync::Arc;

use graph_terrain::{Measure, SharedGraph, SvgSize, TerrainPipeline};
use serve::client;
use serve::state::{AppState, ServerConfig};
use serve::Server;
use terrain::exporter_by_name;

mod common;
use common::test_graph;

/// Number of concurrent client threads — the ISSUE floor is 8.
const CLIENT_THREADS: usize = 10;
/// Requests each client issues.
const REQUESTS_PER_CLIENT: usize = 12;

/// A fresh serial render, started from scratch — the reference bytes.
fn direct_render(graph: &SharedGraph, measure: Measure, exporter_name: &str) -> Vec<u8> {
    let mut session = TerrainPipeline::from_shared(graph.clone(), measure);
    session.set_svg_size(SvgSize::default());
    let exporter = exporter_by_name(exporter_name).expect("known backend");
    let mut bytes = Vec::new();
    // The deterministic variant, as the server uses: the scene carries no
    // wall-clock timings, so two independent renders agree byte-for-byte.
    session.render_deterministic_to(exporter.as_ref(), &mut bytes).expect("reference render");
    bytes
}

#[test]
fn concurrent_clients_get_bytes_identical_to_a_fresh_serial_pipeline() {
    let graph = SharedGraph::new(test_graph());
    let state = Arc::new(AppState::new(ServerConfig { workers: 8, ..ServerConfig::default() }));
    state.insert_graph(Some("coh".into()), graph.clone()).unwrap();
    let server = Server::bind_with_state("127.0.0.1:0", state).expect("bind");
    let addr = server.addr();

    // The reference artifacts, rendered serially outside the server.
    let cases: Vec<(String, Measure, &str)> = vec![
        ("/graphs/coh/terrain?measure=kcore&format=svg".into(), Measure::KCore, "svg"),
        ("/graphs/coh/terrain?measure=degree&format=svg".into(), Measure::Degree, "svg"),
        ("/graphs/coh/terrain?measure=kcore&format=json".into(), Measure::KCore, "json"),
        ("/graphs/coh/terrain?measure=ktruss&format=obj".into(), Measure::KTruss, "obj"),
    ];
    let reference: HashMap<String, Vec<u8>> = cases
        .iter()
        .map(|(target, measure, backend)| {
            (target.clone(), direct_render(&graph, measure.clone(), backend))
        })
        .collect();
    let reference = Arc::new(reference);
    let targets: Arc<Vec<String>> =
        Arc::new(cases.iter().map(|(target, _, _)| target.clone()).collect());

    // Every thread cycles through all targets at a different phase, so the
    // same artifact is requested cold, warm, and concurrently-cold.
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|thread_idx| {
            let reference = Arc::clone(&reference);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                let mut etags: HashMap<String, String> = HashMap::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let target = &targets[(thread_idx + i) % targets.len()];
                    let response = client::get(addr, target).expect("request");
                    assert_eq!(response.status, 200, "{target}");
                    assert_eq!(
                        &response.body,
                        reference.get(target).expect("reference exists"),
                        "thread {thread_idx} request {i}: served bytes for {target} \
                         differ from the fresh serial pipeline render"
                    );
                    // The ETag must be identical on every response for a
                    // target, hit or miss.
                    let etag = response.header("etag").expect("etag present").to_string();
                    match etags.get(target) {
                        Some(previous) => assert_eq!(previous, &etag, "{target}"),
                        None => {
                            etags.insert(target.clone(), etag);
                        }
                    }
                }
                etags
            })
        })
        .collect();

    // All threads must agree on every target's ETag, too.
    let mut global_etags: HashMap<String, String> = HashMap::new();
    for thread in threads {
        for (target, etag) in thread.join().expect("client thread must not panic") {
            match global_etags.get(&target) {
                Some(previous) => assert_eq!(previous, &etag, "{target}"),
                None => {
                    global_etags.insert(target, etag);
                }
            }
        }
    }
    assert_eq!(global_etags.len(), targets.len());

    // The cache must have seen real concurrency: far more lookups than
    // entries, with every miss but the cold ones converted to hits.
    let stats = server.state().cache.lock().unwrap().stats();
    assert!(stats.hits > 0, "the run must produce cache hits");
    assert_eq!(
        stats.hits + stats.misses,
        (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64,
        "every request is exactly one cache lookup"
    );
    server.shutdown();
}

#[test]
fn hit_and_miss_responses_are_byte_and_etag_identical() {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    state.insert_graph(Some("coh".into()), SharedGraph::new(test_graph())).unwrap();
    let server = Server::bind_with_state("127.0.0.1:0", state).expect("bind");
    let addr = server.addr();

    let target = "/graphs/coh/terrain?measure=kcore&format=svg";
    let miss = client::get(addr, target).unwrap();
    let hit = client::get(addr, target).unwrap();
    assert_eq!(miss.header("x-cache"), Some("miss"));
    assert_eq!(hit.header("x-cache"), Some("hit"));
    assert_eq!(miss.body, hit.body, "hit must serve exactly the missed bytes");
    assert_eq!(miss.header("etag"), hit.header("etag"));
    assert_eq!(miss.header("content-type"), hit.header("content-type"));

    // And the conditional request closes the loop at zero bytes.
    let etag = miss.header("etag").unwrap();
    let not_modified = client::get_with_headers(addr, target, &[("If-None-Match", etag)]).unwrap();
    assert_eq!(not_modified.status, 304);
    assert!(not_modified.body.is_empty());
    assert_eq!(not_modified.header("etag"), Some(etag));
    server.shutdown();
}

#[test]
fn mapped_and_owned_uploads_serve_identical_artifacts() {
    // The same graph uploaded two ways — as an edge list (parsed, owned)
    // and as a v3 snapshot (zero-copy mapped) — must serve byte-identical
    // terrain.
    let graph = test_graph();
    let snapshot = ugraph::io::encode_binary_v3(&graph, None).expect("encode v3");
    let mut edge_list = String::new();
    for edge in graph.edges() {
        edge_list.push_str(&format!("{} {}\n", edge.u, edge.v));
    }

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let up_mapped = client::post(addr, "/graphs?id=mapped", &snapshot).unwrap();
    assert_eq!(up_mapped.status, 201, "{}", up_mapped.body_utf8());
    assert!(
        up_mapped.body_utf8().contains("\"storage\":\"mapped\""),
        "snapshot upload must register zero-copy: {}",
        up_mapped.body_utf8()
    );
    let up_owned =
        client::post(addr, "/graphs?id=owned&format=edgelist", edge_list.as_bytes()).unwrap();
    assert_eq!(up_owned.status, 201, "{}", up_owned.body_utf8());

    let mapped = client::get(addr, "/graphs/mapped/terrain?measure=kcore").unwrap();
    let owned = client::get(addr, "/graphs/owned/terrain?measure=kcore").unwrap();
    assert_eq!(mapped.status, 200);
    assert_eq!(owned.status, 200);
    assert_eq!(mapped.body, owned.body, "storage backend must be byte-invisible");
    server.shutdown();
}
