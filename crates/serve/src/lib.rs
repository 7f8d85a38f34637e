//! Terrain-as-a-service: a concurrent multi-session HTTP server over the
//! terrain pipeline, with a byte-exact artifact cache.
//!
//! The crate is `std`-only by design — `TcpListener` plus a bounded pool of
//! worker threads ([`server`]) — because the deployment target is the same
//! offline container the rest of the workspace builds in. What makes a
//! *cache* (rather than a best-effort memo) possible is the pipeline's
//! determinism contract: the same graph and render settings produce
//! bit-identical artifacts at every thread count, so
//!
//! * a cache hit returns exactly the bytes a fresh render would have
//!   produced (the coherence test races ≥8 client threads against a serial
//!   reference to prove it), and
//! * the strong ETag can be computed from the canonical cache *key* alone,
//!   which lets `If-None-Match` short-circuit to `304 Not Modified` before
//!   any render work.
//!
//! Module map: [`http`] (hand-rolled request/response layer with typed
//! errors), [`error`] (structured JSON API errors), [`cache`] (the bounded
//! LRU, one instance for rendered artifacts and one for the retained store
//! of super trees, render trees and tile scenes), [`flight`]
//! (single-flight builds for both), [`state`] (graph registry, retained
//! store + shared counters), [`routes`] (the
//! handlers and their one fetch-or-build helper), [`server`] (accept loop
//! and worker pool), [`client`] (the matching minimal client).
//!
//! ```no_run
//! use serve::{Server, ServerConfig};
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving terrains on http://{}", handle.addr());
//! # handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod error;
pub mod flight;
pub mod http;
pub mod routes;
pub mod server;
pub mod state;

pub use cache::{etag_for_key, CacheStats, CachedArtifact, LruCache, Weighted};
pub use error::ApiError;
pub use http::{HttpError, Method, Request, Response};
pub use server::{Server, ServerHandle};
pub use state::{AppState, GraphEntry, ServerConfig, StageTotals};
