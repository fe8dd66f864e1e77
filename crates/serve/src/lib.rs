//! ptsim-serve — the concurrent simulation service.
//!
//! PyTorchSim-rs simulations are deterministic, compile-dominated, and
//! CPU-bound — exactly the profile that benefits from being run *behind a
//! daemon*: one process holds the shared compile cache and a
//! content-addressed result cache, and many clients (sweep drivers,
//! notebooks, CI jobs) submit [`pytorchsim::RunSpec`]s over plain HTTP.
//!
//! The crate is dependency-free by construction (no tokio, no hyper): a
//! hand-rolled HTTP/1.1 subset over `std::net` ([`http`]), a bounded
//! admission queue and fixed worker pool ([`server`]), request coalescing
//! ([`inflight`]), an LRU result cache ([`rescache`]), a blocking client
//! ([`client`]), and a load generator ([`loadgen`]).
//!
//! # API
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/simulate` | Run one `RunSpec`, return `{fingerprint, report}` |
//! | `POST /v1/sweep` | Run `{points: [RunSpec...], jobs}`; JSON-lines reply |
//! | `GET /healthz` | Liveness plus drain state |
//! | `GET /metrics` | Prometheus text exposition of the metrics registry |
//! | `GET /metrics.json` | The same registry as one JSON object |
//! | `POST /admin/shutdown` | Graceful drain |
//!
//! Every response carries an `x-ptsim-request-id` header (monotonic per
//! server process) so client logs can be correlated with server-side
//! metrics; a `RunSpec` with `"profile":true` additionally returns a
//! bottleneck-attribution summary under `"profile"` in the simulate body.
//!
//! Error codes: `400` unparseable request, `404`/`405` routing, `422`
//! valid JSON but failed validation/compilation/simulation, `429`
//! admission queue full, `503` draining, deadline exceeded (in the queue
//! *or* mid-simulation — runs are cooperatively cancelled when
//! `deadline_ms` expires), or cancelled by a grace-expired shutdown.
//!
//! # Example
//!
//! ```
//! use ptsim_serve::server::{start, ServeConfig};
//!
//! let handle = start(ServeConfig::default()).unwrap();
//! let mut client = ptsim_serve::client::HttpClient::new(handle.addr());
//! let resp = client
//!     .post("/v1/simulate", r#"{"model":{"kind":"gemm","n":16}}"#)
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! client.post("/admin/shutdown", "").unwrap();
//! drop(client);
//! handle.join();
//! ```

pub mod client;
pub mod http;
pub mod inflight;
pub mod loadgen;
pub mod rescache;
pub mod server;

pub use client::{HttpClient, HttpResponse};
pub use loadgen::{LoadReport, LoadgenConfig, Mix};
pub use rescache::{ResultCache, ResultCacheStats};
pub use server::{start, ServeConfig, ServerHandle};

// The server shares its state across accept, connection, and worker
// threads; a non-Send type sneaking in must fail the build, not the run.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<ResultCache>();
    assert_send_sync::<inflight::InflightMap>();
};
