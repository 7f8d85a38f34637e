//! Seeded route fuzzer: many spellings of one request must be one artifact.
//!
//! Each canonical request (a route plus a value for every parameter that
//! changes its bytes) is sent in random spellings: the query order is
//! shuffled, the measure goes by any of its aliases (`kcore`, `k-core`,
//! `KCORE`, ...), `threads` is omitted or any accepted budget, and each
//! parameter at its default is omitted or spelled out (`width=900.0`,
//! `levels=64`, `format=svg`, `color=height`, ...). Every spelling of one
//! canonical request must answer with the same bytes and ETag, distinct
//! canonical requests with distinct ETags, the whole run must render each
//! canonical request once, and compute one scalar field per measure.

use std::collections::{BTreeMap, BTreeSet};

use graph_terrain::SharedGraph;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serve::routes;

mod common;
use common::{get, state_with, test_graph};

/// One parameter of a canonical request: its accepted spellings (the first
/// is the canonical one) and whether it is the route's default, which may
/// then also be omitted.
struct Param {
    name: &'static str,
    spellings: &'static [&'static str],
    default: bool,
}

const fn value(name: &'static str, spellings: &'static [&'static str]) -> Param {
    Param { name, spellings, default: false }
}

const fn default(name: &'static str, spellings: &'static [&'static str]) -> Param {
    Param { name, spellings, default: true }
}

/// The measures under test, each with its aliases; `k-core` is also the
/// default measure.
const MEASURES: [(&str, &[&str]); 3] = [
    ("k-core", &["kcore", "k-core", "KCORE", "K-Core"]),
    ("pagerank", &["pagerank", "PageRank", "PAGERANK"]),
    ("degree", &["degree", "DEGREE", "Degree"]),
];

const THREADS: [Option<&str>; 5] = [None, Some("serial"), Some("1"), Some("2"), Some("auto")];

/// A canonical request: a path, the measure (index into [`MEASURES`]) and
/// every other byte-relevant parameter.
struct Canonical {
    path: &'static str,
    measure: usize,
    params: Vec<Param>,
}

impl Canonical {
    /// The test's own cache key: path, measure and each parameter's
    /// canonical spelling — independent of how the server builds its keys.
    fn key(&self) -> String {
        let mut key = format!("{}|measure={}", self.path, MEASURES[self.measure].0);
        for param in &self.params {
            key.push_str(&format!("|{}={}", param.name, param.spellings[0]));
        }
        key
    }

    /// One random spelling of the request.
    fn spell(&self, rng: &mut ChaCha8Rng) -> String {
        let mut query: Vec<String> = Vec::new();
        let (_, aliases) = MEASURES[self.measure];
        // The default measure may go unnamed.
        if self.measure != 0 || rng.gen_bool(0.75) {
            query.push(format!("measure={}", aliases.choose(rng).unwrap()));
        }
        if let Some(threads) = THREADS.choose(rng).unwrap() {
            query.push(format!("threads={threads}"));
        }
        for param in &self.params {
            if !param.default || rng.gen_bool(0.5) {
                query.push(format!("{}={}", param.name, param.spellings.choose(rng).unwrap()));
            }
        }
        query.shuffle(rng);
        if query.is_empty() {
            self.path.to_string()
        } else {
            format!("{}?{}", self.path, query.join("&"))
        }
    }
}

/// Every canonical request of the run: terrains over a grid of size,
/// simplification and color knobs, peaks at two counts, and two tiles at
/// two sizes, each for every measure.
fn canonical_requests() -> Vec<Canonical> {
    let mut all = Vec::new();
    for measure in 0..MEASURES.len() {
        for wide in [false, true] {
            for coarse in [false, true] {
                for by_degree in [false, true] {
                    all.push(Canonical {
                        path: "/graphs/g/terrain",
                        measure,
                        params: vec![
                            if wide {
                                value("width", &["640", "640.0", "6.4e2"])
                            } else {
                                default("width", &["900", "900.0"])
                            },
                            default("height", &["700", "700.0"]),
                            if coarse {
                                value("levels", &["4", "04"])
                            } else {
                                default("levels", &["64", "064"])
                            },
                            if coarse {
                                value("budget", &["8", "08"])
                            } else {
                                default("budget", &["4000", "04000"])
                            },
                            default("format", &["svg"]),
                            if by_degree {
                                value("color", &["degree"])
                            } else {
                                default("color", &["height"])
                            },
                        ],
                    });
                }
            }
        }
        for count in [None, Some(&["3", "03"][..])] {
            all.push(Canonical {
                path: "/graphs/g/peaks",
                measure,
                params: vec![match count {
                    None => default("count", &["5", "05"]),
                    Some(spellings) => value("count", spellings),
                }],
            });
        }
        for path in ["/graphs/g/tiles/0/0/0", "/graphs/g/tiles/1/0/1"] {
            for small in [false, true] {
                all.push(Canonical {
                    path,
                    measure,
                    params: vec![
                        default("format", &["svg"]),
                        if small {
                            value("size", &["128", "0128"])
                        } else {
                            default("size", &["256", "0256"])
                        },
                    ],
                });
            }
        }
    }
    all
}

#[test]
fn every_spelling_of_a_request_is_one_artifact_and_one_scalar_per_measure() {
    let requests = canonical_requests();
    for seed in [1u64, 2, 3] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = state_with(&SharedGraph::new(test_graph()));
        // Canonical key -> (first spelling, its bytes, its ETag).
        let mut seen: BTreeMap<String, (String, Vec<u8>, String)> = BTreeMap::new();
        let mut measures_used = BTreeSet::new();
        for _ in 0..400 {
            let canonical = requests.choose(&mut rng).unwrap();
            let target = canonical.spell(&mut rng);
            let response = routes::handle(&state, &get(&target));
            assert_eq!(
                response.status,
                200,
                "seed {seed}, {target}: {}",
                String::from_utf8_lossy(&response.body)
            );
            let etag = response.header_value("etag").expect("an ETag").to_string();
            measures_used.insert(canonical.measure);
            let (first, bytes, first_etag) = seen
                .entry(canonical.key())
                .or_insert_with(|| (target.clone(), response.body.to_vec(), etag.clone()));
            assert_eq!(&etag, first_etag, "seed {seed}: {target} vs {first}");
            assert!(
                response.body.as_slice() == bytes.as_slice(),
                "seed {seed}: {target} vs {first}"
            );
        }

        let etags: BTreeSet<&String> = seen.values().map(|(_, _, etag)| etag).collect();
        assert_eq!(etags.len(), seen.len(), "seed {seed}: two canonical requests share an ETag");
        let stats_body = routes::handle(&state, &get("/stats")).body;
        let stats: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&stats_body)).expect("stats are JSON");
        let counter = |object: &str, name: &str| stats.get(object)?.get(name)?.as_u64();
        assert_eq!(counter("cache", "misses"), Some(seen.len() as u64), "seed {seed}");
        assert_eq!(
            counter("super_trees", "builds"),
            Some(measures_used.len() as u64),
            "seed {seed}: one super tree, so one scalar field, per measure"
        );
    }
}
