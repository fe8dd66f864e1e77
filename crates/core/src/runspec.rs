//! Wire-serializable simulation requests.
//!
//! A [`RunSpec`] is the self-contained, JSON-round-trippable description of
//! one simulation: which model to build, the NPU configuration, compiler
//! options, fidelity, and safety limit. It is the request schema of the
//! `ptsim-serve` HTTP API, but lives here so any frontend — a CLI replaying
//! recorded requests, the check harness generating random ones — speaks the
//! same format.
//!
//! Models are requested by *family and dimensions* ([`ModelRequest`]), not
//! by shipping a graph over the wire: the zoo constructors in
//! [`ptsim_models`] are deterministic, so `(family, dims)` is a complete
//! and compact model identity. Dimensions are validated against generous
//! upper bounds before any allocation happens, so a hostile request cannot
//! make the server build a terabyte graph.
//!
//! [`RunSpec::fingerprint`] hashes the canonical JSON rendering, giving
//! content-addressed identity for result caches and request coalescing:
//! two specs with equal fingerprints (plus equal canonical JSON, which the
//! server compares to guard against collisions) simulate identically,
//! because simulation is deterministic.
//!
//! # Wire versioning
//!
//! The schema carries an explicit version in the `"v"` key. A request
//! without one is **v1** — the original schema, which predates versioning
//! and has no `"backend"` key. **v2** adds the `"backend"` field selecting
//! the [`ExecutionBackend`] (`"serial"`, `"parallel:N"`, or
//! `"reference"`); v1 requests default to the serial backend, and a v1
//! request that nonetheless carries `"backend"` is rejected rather than
//! silently reinterpreted. **v3** adds the optional `"profile"` flag
//! requesting an inline performance-counter summary alongside the report.
//! To keep fingerprints of pre-existing requests stable, serialization
//! emits the *lowest* version that can express the spec: `"v":2` unless
//! `profile` is set, `"v":3` (with `"profile":true`) when it is. As with
//! `"backend"` at v1, a `"profile"` key on a sub-v3 request is rejected
//! rather than silently dropped. Versions outside `1..=`[`WIRE_VERSION`]
//! come back as [`Error::UnsupportedSchema`] from [`RunSpec::parse_wire`],
//! so servers can tell "speak a newer protocol" apart from "garbage
//! request".

use crate::cache::CompileCache;
use crate::simulator::{RunOptions, Simulator};
use crate::sweep::SweepPoint;
use ptsim_common::config::SimConfig;
use ptsim_common::json::{FromJson, Json, ToJson};
use ptsim_common::{Error, Result};
use ptsim_compiler::CompilerOptions;
use ptsim_models::{self as models, ModelSpec};
use ptsim_togsim::{ExecutionBackend, SimReport};
use std::sync::Arc;

/// Largest accepted value for any single model dimension.
pub const MAX_DIM: usize = 16_384;
/// Largest accepted transformer layer count.
pub const MAX_LAYERS: usize = 128;
/// The highest wire-schema version this build speaks (it accepts
/// `1..=WIRE_VERSION` and emits the lowest version expressing the spec).
pub const WIRE_VERSION: u64 = 3;
/// Largest accepted parallel-backend worker count on the wire.
pub const MAX_WORKERS: usize = 256;

/// A model drawn from the zoo by family and dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelRequest {
    /// Square GEMM of dimension `n`.
    Gemm {
        /// Matrix dimension.
        n: usize,
    },
    /// Rectangular GEMM `[m,k] × [k,n]`.
    GemmRect {
        /// Rows of the activation.
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// The §5.5 MLP classifier.
    Mlp {
        /// Batch size.
        batch: usize,
        /// Hidden width.
        hidden: usize,
    },
    /// A 3×3 same-channel convolution.
    Conv {
        /// Batch size.
        batch: usize,
        /// Input/output channels.
        channels: usize,
        /// Feature-map height/width.
        hw: usize,
    },
    /// A standalone LayerNorm kernel.
    LayerNorm {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A standalone Softmax kernel.
    Softmax {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A transformer encoder stack (BERT family).
    Bert {
        /// Sequence length.
        seq: usize,
        /// Batch size.
        batch: usize,
        /// Hidden width.
        hidden: usize,
        /// Encoder layers.
        layers: usize,
        /// Attention heads.
        heads: usize,
        /// Feed-forward inner width.
        intermediate: usize,
    },
}

impl ModelRequest {
    /// Every dimension of the request, for bounds checking.
    fn dims(&self) -> Vec<usize> {
        match *self {
            ModelRequest::Gemm { n } => vec![n],
            ModelRequest::GemmRect { m, k, n } => vec![m, k, n],
            ModelRequest::Mlp { batch, hidden } => vec![batch, hidden],
            ModelRequest::Conv { batch, channels, hw } => vec![batch, channels, hw],
            ModelRequest::LayerNorm { rows, cols } | ModelRequest::Softmax { rows, cols } => {
                vec![rows, cols]
            }
            ModelRequest::Bert { seq, batch, hidden, layers, heads, intermediate } => {
                vec![seq, batch, hidden, layers, heads, intermediate]
            }
        }
    }

    /// Rejects zero or absurd dimensions before anything is allocated.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending request.
    pub fn validate(&self) -> Result<()> {
        for d in self.dims() {
            if d == 0 {
                return Err(Error::InvalidConfig(format!("{self:?}: dimensions must be nonzero")));
            }
            if d > MAX_DIM {
                return Err(Error::InvalidConfig(format!(
                    "{self:?}: dimension {d} exceeds the limit of {MAX_DIM}"
                )));
            }
        }
        if let ModelRequest::Bert { hidden, layers, heads, .. } = *self {
            if layers > MAX_LAYERS {
                return Err(Error::InvalidConfig(format!(
                    "{self:?}: {layers} layers exceeds the limit of {MAX_LAYERS}"
                )));
            }
            if hidden % heads != 0 {
                return Err(Error::InvalidConfig(format!(
                    "{self:?}: hidden ({hidden}) must be divisible by heads ({heads})"
                )));
            }
        }
        Ok(())
    }

    /// Builds the model graph.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelRequest::validate`] failures.
    pub fn build(&self) -> Result<ModelSpec> {
        self.validate()?;
        Ok(match *self {
            ModelRequest::Gemm { n } => models::gemm(n),
            ModelRequest::GemmRect { m, k, n } => models::gemm_rect(m, k, n),
            ModelRequest::Mlp { batch, hidden } => models::mlp(batch, hidden),
            ModelRequest::Conv { batch, channels, hw } => {
                models::conv_custom(batch, channels, channels, hw, 3, 1, 1)
            }
            ModelRequest::LayerNorm { rows, cols } => models::layernorm_kernel(rows, cols),
            ModelRequest::Softmax { rows, cols } => models::softmax_kernel(rows, cols),
            ModelRequest::Bert { seq, batch, hidden, layers, heads, intermediate } => models::bert(
                models::BertConfig { hidden, layers, heads, intermediate, seq, batch },
                &format!("bert_h{hidden}_l{layers}_a{heads}_i{intermediate}_s{seq}_b{batch}"),
            ),
        })
    }
}

impl ToJson for ModelRequest {
    fn to_json(&self) -> Json {
        let u = |n: usize| Json::u64(n as u64);
        match *self {
            ModelRequest::Gemm { n } => Json::obj().set("kind", Json::str("gemm")).set("n", u(n)),
            ModelRequest::GemmRect { m, k, n } => Json::obj()
                .set("kind", Json::str("gemm_rect"))
                .set("m", u(m))
                .set("k", u(k))
                .set("n", u(n)),
            ModelRequest::Mlp { batch, hidden } => Json::obj()
                .set("kind", Json::str("mlp"))
                .set("batch", u(batch))
                .set("hidden", u(hidden)),
            ModelRequest::Conv { batch, channels, hw } => Json::obj()
                .set("kind", Json::str("conv"))
                .set("batch", u(batch))
                .set("channels", u(channels))
                .set("hw", u(hw)),
            ModelRequest::LayerNorm { rows, cols } => Json::obj()
                .set("kind", Json::str("layernorm"))
                .set("rows", u(rows))
                .set("cols", u(cols)),
            ModelRequest::Softmax { rows, cols } => Json::obj()
                .set("kind", Json::str("softmax"))
                .set("rows", u(rows))
                .set("cols", u(cols)),
            ModelRequest::Bert { seq, batch, hidden, layers, heads, intermediate } => Json::obj()
                .set("kind", Json::str("bert"))
                .set("seq", u(seq))
                .set("batch", u(batch))
                .set("hidden", u(hidden))
                .set("layers", u(layers))
                .set("heads", u(heads))
                .set("intermediate", u(intermediate)),
        }
    }
}

impl FromJson for ModelRequest {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        match v.req_str("kind")? {
            "gemm" => Ok(ModelRequest::Gemm { n: v.req_usize("n")? }),
            "gemm_rect" => Ok(ModelRequest::GemmRect {
                m: v.req_usize("m")?,
                k: v.req_usize("k")?,
                n: v.req_usize("n")?,
            }),
            "mlp" => Ok(ModelRequest::Mlp {
                batch: v.req_usize("batch")?,
                hidden: v.req_usize("hidden")?,
            }),
            "conv" => Ok(ModelRequest::Conv {
                batch: v.req_usize("batch")?,
                channels: v.req_usize("channels")?,
                hw: v.req_usize("hw")?,
            }),
            "layernorm" => Ok(ModelRequest::LayerNorm {
                rows: v.req_usize("rows")?,
                cols: v.req_usize("cols")?,
            }),
            "softmax" => {
                Ok(ModelRequest::Softmax { rows: v.req_usize("rows")?, cols: v.req_usize("cols")? })
            }
            "bert" => Ok(ModelRequest::Bert {
                seq: v.req_usize("seq")?,
                batch: v.req_usize("batch")?,
                hidden: v.req_usize("hidden")?,
                layers: v.req_usize("layers")?,
                heads: v.req_usize("heads")?,
                intermediate: v.req_usize("intermediate")?,
            }),
            other => Err(format!(
                "unknown model kind {other:?} (expected gemm, gemm_rect, mlp, conv, \
                 layernorm, softmax, or bert)"
            )),
        }
    }
}

/// Requested simulation fidelity, as a wire-friendly tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelitySpec {
    /// Tile-Level Simulation (fast; the paper's default).
    #[default]
    Tls,
    /// Instruction-Level Simulation. Parsing also accepts one retired
    /// legacy tag for it (see the `FromJson` impl); it is never emitted.
    Ils,
}

impl FidelitySpec {
    /// The run options this fidelity selects.
    pub fn run_options(&self) -> RunOptions {
        match self {
            FidelitySpec::Tls => RunOptions::tls(),
            FidelitySpec::Ils => RunOptions::ils(),
        }
    }

    /// The wire tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            FidelitySpec::Tls => "tls",
            FidelitySpec::Ils => "ils",
        }
    }
}

impl ToJson for FidelitySpec {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl FromJson for FidelitySpec {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        match v.as_str() {
            Some("tls") => Ok(FidelitySpec::Tls),
            // Legacy spelling, accepted for one release: ILS no longer has
            // a separate timing-only variant.
            Some("ils" | "ils_timing") => Ok(FidelitySpec::Ils),
            Some(other) => Err(format!("unknown fidelity {other:?} (expected \"tls\" or \"ils\")")),
            None => Err("fidelity must be a string".into()),
        }
    }
}

/// One complete, serializable simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The model to build and simulate.
    pub model: ModelRequest,
    /// NPU configuration (defaults to [`SimConfig::default`] when absent
    /// from the wire form).
    pub config: SimConfig,
    /// Compiler options (defaults when absent from the wire form).
    pub options: CompilerOptions,
    /// Simulation fidelity (defaults to TLS when absent).
    pub fidelity: FidelitySpec,
    /// Optional cycle safety limit.
    pub max_cycles: Option<u64>,
    /// Execution backend (defaults to serial; on the wire, v2 only).
    pub backend: ExecutionBackend,
    /// Request an inline performance-counter summary (on the wire, v3
    /// only; defaults to off).
    pub profile: bool,
}

impl RunSpec {
    /// A TLS-fidelity spec with default config and compiler options.
    pub fn new(model: ModelRequest) -> Self {
        RunSpec {
            model,
            config: SimConfig::default(),
            options: CompilerOptions::default(),
            fidelity: FidelitySpec::Tls,
            max_cycles: None,
            backend: ExecutionBackend::Serial,
            profile: false,
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the compiler options.
    #[must_use]
    pub fn with_options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the fidelity.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: FidelitySpec) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Replaces the execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Requests (or clears) the inline performance-counter summary.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Validates the model dimensions, the configuration, and the backend.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] from any part.
    pub fn validate(&self) -> Result<()> {
        self.model.validate()?;
        self.config.validate()?;
        if let ExecutionBackend::Parallel { workers } = self.backend {
            if workers == 0 || workers > MAX_WORKERS {
                return Err(Error::InvalidConfig(format!(
                    "parallel backend workers must be in 1..={MAX_WORKERS}, got {workers}"
                )));
            }
        }
        Ok(())
    }

    /// The run options (fidelity, backend, safety limit) this spec selects.
    pub fn run_options(&self) -> RunOptions {
        let mut run = self.fidelity.run_options();
        run.max_cycles = self.max_cycles;
        run.backend = self.backend;
        run
    }

    /// The canonical rendering: field order is fixed by construction, so
    /// equal specs render to byte-equal strings.
    pub fn canonical_json(&self) -> String {
        self.to_json_string()
    }

    /// FNV-1a over the canonical JSON — the content address of this spec.
    ///
    /// Simulation is deterministic, so equal fingerprints (confirmed by an
    /// equal canonical rendering, which callers that cannot tolerate hash
    /// collisions should compare) imply equal [`SimReport`]s.
    pub fn fingerprint(&self) -> u64 {
        ptsim_common::fingerprint::fnv1a(self.canonical_json().as_bytes())
    }

    /// Runs the spec through `cache`, compiling at most once per unique
    /// (model, config, options) across every caller sharing the cache.
    ///
    /// # Errors
    ///
    /// Validation, compilation, or simulation failures.
    pub fn run(&self, cache: &Arc<CompileCache>) -> Result<SimReport> {
        self.run_with_cancel(cache, None)
    }

    /// [`RunSpec::run`] with cooperative cancellation: `cancel` is polled
    /// through every layer of the run (compile stages and the engine step
    /// loop), so a fired token unwinds with
    /// [`Error::Cancelled`] instead of finishing the simulation. This is
    /// how `ptsim-serve` enforces `deadline_ms` on in-flight runs.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run`], plus [`Error::Cancelled`] once `cancel` fires.
    pub fn run_with_cancel(
        &self,
        cache: &Arc<CompileCache>,
        cancel: Option<&ptsim_common::CancelToken>,
    ) -> Result<SimReport> {
        self.run_observed(cache, cancel, None)
    }

    /// [`RunSpec::run_with_cancel`] with an optional [`CounterHub`]
    /// attached to the run, so callers honouring the spec's `profile` flag
    /// (the serve execute path) can collect cycle-resolved counters without
    /// re-deriving run options themselves. Counters only observe; the
    /// returned report is bit-identical with or without a hub.
    ///
    /// [`CounterHub`]: ptsim_obs::CounterHub
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run_with_cancel`].
    pub fn run_observed(
        &self,
        cache: &Arc<CompileCache>,
        cancel: Option<&ptsim_common::CancelToken>,
        counters: Option<Arc<ptsim_obs::CounterHub>>,
    ) -> Result<SimReport> {
        self.validate()?;
        let spec = self.model.build()?;
        let sim = Simulator::builder(self.config.clone())
            .compiler_options(self.options.clone())
            .shared_cache(Arc::clone(cache))
            .build();
        let mut run = self.run_options();
        run.cancel = cancel.cloned();
        run.counters = counters;
        sim.run(&spec, run)
    }

    /// Parses the wire form with *typed* errors: a schema version outside
    /// `1..=`[`WIRE_VERSION`] comes back as [`Error::UnsupportedSchema`]
    /// (the client must speak a different protocol revision), every other
    /// malformation as [`Error::Serde`] (the request is just broken).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedSchema`] or [`Error::Serde`] as above.
    pub fn parse_wire(v: &Json) -> Result<RunSpec> {
        let version = wire_version(v).map_err(Error::Serde)?;
        if version == 0 || version > WIRE_VERSION {
            return Err(Error::UnsupportedSchema(format!(
                "RunSpec schema v{version} (this build speaks v1..=v{WIRE_VERSION})"
            )));
        }
        Self::from_json(v).map_err(Error::Serde)
    }

    /// The equivalent sweep point, for batch execution of many specs.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn to_sweep_point(&self) -> Result<SweepPoint> {
        self.validate()?;
        let spec = self.model.build()?;
        Ok(SweepPoint::model(spec, self.config.clone())
            .with_options(self.options.clone())
            .with_run(self.run_options()))
    }
}

impl ToJson for RunSpec {
    fn to_json(&self) -> Json {
        // Emit the lowest version that can express the spec: a profile-less
        // spec renders exactly as it did under v2, keeping its fingerprint
        // (and thus every result-cache key derived from it) stable.
        let version = if self.profile { 3 } else { 2 };
        let mut j = Json::obj()
            .set("v", Json::u64(version))
            .set("model", self.model.to_json())
            .set("config", self.config.to_json())
            .set("options", self.options.to_json())
            .set("fidelity", self.fidelity.to_json())
            .set("backend", Json::str(self.backend.as_wire()));
        if self.profile {
            j = j.set("profile", Json::Bool(true));
        }
        if let Some(m) = self.max_cycles {
            j = j.set("max_cycles", Json::u64(m));
        }
        j
    }
}

/// The declared wire version of a request object: the `"v"` key, or 1 when
/// absent (the original, pre-versioning schema).
fn wire_version(v: &Json) -> std::result::Result<u64, String> {
    match v.get("v") {
        None => Ok(1),
        Some(n) => n
            .as_num()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as u64)
            .ok_or_else(|| "\"v\" must be a non-negative integer".to_string()),
    }
}

impl FromJson for RunSpec {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        let version = wire_version(v)?;
        if version == 0 || version > WIRE_VERSION {
            return Err(format!(
                "unsupported RunSpec schema v{version} (this build speaks v1..=v{WIRE_VERSION})"
            ));
        }
        let backend = match (version, v.get("backend")) {
            (1, Some(_)) => {
                return Err("\"backend\" requires schema v2; add \"v\":2 to the request".to_string())
            }
            (_, None) => ExecutionBackend::Serial,
            (_, Some(b)) => b
                .as_str()
                .ok_or_else(|| "backend must be a string".to_string())?
                .parse::<ExecutionBackend>()?,
        };
        let profile = match (version, v.get("profile")) {
            (1 | 2, Some(_)) => {
                return Err("\"profile\" requires schema v3; add \"v\":3 to the request".to_string())
            }
            (_, None) => false,
            (_, Some(p)) => p.as_bool().ok_or_else(|| "profile must be a boolean".to_string())?,
        };
        let model = ModelRequest::from_json(v.req("model")?)?;
        let config = match v.get("config") {
            Some(c) => SimConfig::from_json(c)?,
            None => SimConfig::default(),
        };
        let options = match v.get("options") {
            Some(o) => CompilerOptions::from_json(o)?,
            None => CompilerOptions::default(),
        };
        let fidelity = match v.get("fidelity") {
            Some(f) => FidelitySpec::from_json(f)?,
            None => FidelitySpec::Tls,
        };
        let max_cycles = match v.get("max_cycles") {
            Some(Json::Null) | None => None,
            Some(m) => Some(
                m.as_num()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .map(|n| n as u64)
                    .ok_or_else(|| "max_cycles must be a non-negative integer".to_string())?,
            ),
        };
        Ok(RunSpec { model, config, options, fidelity, max_cycles, backend, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_round_trips_through_json() {
        let specs = [
            RunSpec::new(ModelRequest::Gemm { n: 32 }),
            RunSpec::new(ModelRequest::GemmRect { m: 16, k: 32, n: 48 })
                .with_config(SimConfig::tiny())
                .with_fidelity(FidelitySpec::Ils),
            RunSpec::new(ModelRequest::Bert {
                seq: 16,
                batch: 1,
                hidden: 32,
                layers: 1,
                heads: 2,
                intermediate: 64,
            })
            .with_options(CompilerOptions::unoptimized()),
        ];
        for spec in specs {
            let back = RunSpec::from_json_str(&spec.canonical_json()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.fingerprint(), spec.fingerprint());
        }
    }

    #[test]
    fn wire_defaults_fill_missing_fields() {
        let spec = RunSpec::from_json_str(r#"{"model":{"kind":"gemm","n":16}}"#).unwrap();
        assert_eq!(spec, RunSpec::new(ModelRequest::Gemm { n: 16 }));
        assert_eq!(spec.fidelity, FidelitySpec::Tls);
        assert!(spec.max_cycles.is_none());
        assert_eq!(spec.backend, ExecutionBackend::Serial);
    }

    #[test]
    fn v2_round_trips_the_backend() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 })
            .with_backend(ExecutionBackend::Parallel { workers: 3 });
        let json = spec.canonical_json();
        assert!(json.contains("\"v\":2"), "{json}");
        assert!(json.contains("\"backend\":\"parallel:3\""), "{json}");
        let back = RunSpec::from_json_str(&json).unwrap();
        assert_eq!(back, spec);
        // An explicit v2 request without a backend key defaults to serial.
        let spec = RunSpec::from_json_str(r#"{"v":2,"model":{"kind":"gemm","n":16}}"#).unwrap();
        assert_eq!(spec.backend, ExecutionBackend::Serial);
    }

    #[test]
    fn v1_requests_with_a_backend_key_are_rejected() {
        let err =
            RunSpec::from_json_str(r#"{"model":{"kind":"gemm","n":16},"backend":"parallel:4"}"#)
                .unwrap_err();
        assert!(err.contains("requires schema v2"), "{err}");
    }

    #[test]
    fn unknown_wire_versions_are_typed_errors() {
        let v4 =
            ptsim_common::json::parse_json(r#"{"v":4,"model":{"kind":"gemm","n":16}}"#).unwrap();
        match RunSpec::parse_wire(&v4) {
            Err(Error::UnsupportedSchema(msg)) => assert!(msg.contains("v4"), "{msg}"),
            other => panic!("expected UnsupportedSchema, got {other:?}"),
        }
        let v0 =
            ptsim_common::json::parse_json(r#"{"v":0,"model":{"kind":"gemm","n":16}}"#).unwrap();
        assert!(matches!(RunSpec::parse_wire(&v0), Err(Error::UnsupportedSchema(_))));
        // Garbage is Serde, not UnsupportedSchema.
        let junk = ptsim_common::json::parse_json(r#"{"v":2}"#).unwrap();
        assert!(matches!(RunSpec::parse_wire(&junk), Err(Error::Serde(_))));
    }

    #[test]
    fn v3_round_trips_the_profile_flag() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 }).with_profile(true);
        let json = spec.canonical_json();
        assert!(json.contains("\"v\":3"), "{json}");
        assert!(json.contains("\"profile\":true"), "{json}");
        let back = RunSpec::from_json_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(back.profile);
        // An explicit v3 request without a profile key defaults to off.
        let spec = RunSpec::from_json_str(r#"{"v":3,"model":{"kind":"gemm","n":16}}"#).unwrap();
        assert!(!spec.profile);
    }

    #[test]
    fn profile_free_specs_still_serialize_as_v2() {
        // Fingerprint stability: adding the v3 schema must not re-render
        // (and thus re-key) requests that do not use it.
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 });
        let json = spec.canonical_json();
        assert!(json.contains("\"v\":2"), "{json}");
        assert!(!json.contains("profile"), "{json}");
    }

    #[test]
    fn sub_v3_requests_with_a_profile_key_are_rejected() {
        for wire in [
            r#"{"model":{"kind":"gemm","n":16},"profile":true}"#,
            r#"{"v":2,"model":{"kind":"gemm","n":16},"profile":true}"#,
        ] {
            let err = RunSpec::from_json_str(wire).unwrap_err();
            assert!(err.contains("requires schema v3"), "{err}");
        }
    }

    #[test]
    fn profile_flag_changes_the_fingerprint() {
        let plain = RunSpec::new(ModelRequest::Gemm { n: 16 });
        let profiled = plain.clone().with_profile(true);
        assert_ne!(plain.fingerprint(), profiled.fingerprint());
    }

    #[test]
    fn run_observed_fills_the_hub_without_perturbing_the_report() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 }).with_config(SimConfig::tiny());
        let cache = CompileCache::shared();
        let plain = spec.run(&cache).unwrap();
        let hub = ptsim_obs::CounterHub::shared(ptsim_obs::CounterConfig::default());
        let observed = spec.run_observed(&cache, None, Some(Arc::clone(&hub))).unwrap();
        assert_eq!(plain, observed, "counters must observe, never perturb");
        assert!(!hub.snapshot().is_empty(), "the hub must have recorded series");
    }

    #[test]
    fn validate_bounds_the_parallel_worker_count() {
        let base = RunSpec::new(ModelRequest::Gemm { n: 16 });
        assert!(base
            .clone()
            .with_backend(ExecutionBackend::Parallel { workers: 0 })
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_backend(ExecutionBackend::Parallel { workers: MAX_WORKERS + 1 })
            .validate()
            .is_err());
        assert!(base
            .with_backend(ExecutionBackend::Parallel { workers: MAX_WORKERS })
            .validate()
            .is_ok());
    }

    #[test]
    fn backend_threads_through_to_run_options() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 })
            .with_backend(ExecutionBackend::Parallel { workers: 2 });
        assert_eq!(spec.run_options().backend, ExecutionBackend::Parallel { workers: 2 });
    }

    #[test]
    fn fingerprint_separates_distinct_specs() {
        let a = RunSpec::new(ModelRequest::Gemm { n: 32 });
        let b = RunSpec::new(ModelRequest::Gemm { n: 33 });
        let c = a.clone().with_fidelity(FidelitySpec::Ils);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn legacy_ils_timing_spelling_is_the_same_spec_as_ils() {
        let model = r#""model":{"kind":"gemm","n":16}"#;
        let legacy = RunSpec::from_json_str(&format!(r#"{{{model},"fidelity":"ils_timing"}}"#));
        let current = RunSpec::from_json_str(&format!(r#"{{{model},"fidelity":"ils"}}"#));
        let (legacy, current) = (legacy.unwrap(), current.unwrap());
        assert_eq!(legacy.fidelity, FidelitySpec::Ils);
        assert_eq!(legacy.canonical_json(), current.canonical_json());
        assert_eq!(legacy.fingerprint(), current.fingerprint());
        assert!(!legacy.canonical_json().contains("ils_timing"));
        let err = RunSpec::from_json_str(&format!(r#"{{{model},"fidelity":"slow"}}"#)).unwrap_err();
        assert!(err.contains(r#"expected "tls" or "ils""#), "{err}");
    }

    #[test]
    fn validation_rejects_hostile_dimensions() {
        assert!(ModelRequest::Gemm { n: 0 }.validate().is_err());
        assert!(ModelRequest::Gemm { n: MAX_DIM + 1 }.validate().is_err());
        assert!(ModelRequest::Bert {
            seq: 8,
            batch: 1,
            hidden: 33,
            layers: 1,
            heads: 2,
            intermediate: 64
        }
        .validate()
        .is_err());
        assert!(RunSpec::new(ModelRequest::Gemm { n: 0 }).run(&CompileCache::shared()).is_err());
    }

    #[test]
    fn run_matches_direct_simulator() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 }).with_config(SimConfig::tiny());
        let via_spec = spec.run(&CompileCache::shared()).unwrap();
        let sim = Simulator::new(SimConfig::tiny());
        let direct = sim.run(&ptsim_models::gemm(16), RunOptions::tls()).unwrap();
        assert_eq!(via_spec, direct);
    }
}
