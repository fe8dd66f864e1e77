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
//! # Wire schema
//!
//! There is one schema. A request carries `"model"` and optionally
//! `"config"`, `"options"`, `"fidelity"` (`"tls"` or `"ils"`),
//! `"profile"` (an inline performance-counter summary alongside the report)
//! and `"max_cycles"`; absent keys take their defaults and unknown keys are
//! ignored. The canonical rendering carries no version. A `"v"` key of 1, 2
//! or 3, which earlier builds emitted, reads as this same schema, so old
//! requests still parse and, re-rendered, hit the same cache entry. Any
//! other `"v"` comes back as [`Error::UnsupportedSchema`] from
//! [`RunSpec::parse_wire`], so servers can tell "speak a different
//! protocol" apart from "garbage request". A `"backend"` key is one of the
//! ignored keys: every [`ExecutionBackend`](ptsim_togsim::ExecutionBackend)
//! yields the same report, so it is not part of a spec's identity.

use crate::cache::CompileCache;
use crate::simulator::{RunOptions, Simulator};
use crate::sweep::SweepPoint;
use ptsim_common::config::SimConfig;
use ptsim_common::json::{FromJson, Json, ToJson};
use ptsim_common::{Error, Result};
use ptsim_compiler::CompilerOptions;
use ptsim_models::{self as models, ModelSpec};
use ptsim_togsim::{Fidelity, SimReport};
use std::sync::Arc;

/// Largest accepted value for any single model dimension. The config's
/// bounds (counts, latencies, timings) sit with `SimConfig::validate` as
/// `ptsim_common::config::MAX_*`.
pub const MAX_DIM: usize = 16_384;
/// Largest accepted transformer layer count.
pub const MAX_LAYERS: usize = 128;

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
            "gemm" => Ok(ModelRequest::Gemm { n: v.field("n")? }),
            "gemm_rect" => {
                Ok(ModelRequest::GemmRect { m: v.field("m")?, k: v.field("k")?, n: v.field("n")? })
            }
            "mlp" => Ok(ModelRequest::Mlp { batch: v.field("batch")?, hidden: v.field("hidden")? }),
            "conv" => Ok(ModelRequest::Conv {
                batch: v.field("batch")?,
                channels: v.field("channels")?,
                hw: v.field("hw")?,
            }),
            "layernorm" => {
                Ok(ModelRequest::LayerNorm { rows: v.field("rows")?, cols: v.field("cols")? })
            }
            "softmax" => {
                Ok(ModelRequest::Softmax { rows: v.field("rows")?, cols: v.field("cols")? })
            }
            "bert" => Ok(ModelRequest::Bert {
                seq: v.field("seq")?,
                batch: v.field("batch")?,
                hidden: v.field("hidden")?,
                layers: v.field("layers")?,
                heads: v.field("heads")?,
                intermediate: v.field("intermediate")?,
            }),
            other => Err(format!(
                "unknown model kind {other:?} (expected gemm, gemm_rect, mlp, conv, \
                 layernorm, softmax, or bert)"
            )),
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
    pub fidelity: Fidelity,
    /// Optional cycle safety limit.
    pub max_cycles: Option<u64>,
    /// Request an inline performance-counter summary (defaults to off).
    pub profile: bool,
}

impl RunSpec {
    /// A TLS-fidelity spec with default config and compiler options.
    pub fn new(model: ModelRequest) -> Self {
        RunSpec {
            model,
            config: SimConfig::default(),
            options: CompilerOptions::default(),
            fidelity: Fidelity::Tls,
            max_cycles: None,
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
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Requests (or clears) the inline performance-counter summary.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Validates the model dimensions and the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] from either part.
    pub fn validate(&self) -> Result<()> {
        self.model.validate()?;
        self.config.validate()
    }

    /// The run options (fidelity, safety limit) this spec selects.
    pub fn run_options(&self) -> RunOptions {
        RunOptions { fidelity: self.fidelity, max_cycles: self.max_cycles, ..RunOptions::default() }
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
    /// collisions should compare) imply equal [`SimReport`]s. This renders
    /// the canonical JSON again; a caller already holding it gets the same
    /// value from `fnv1a(canon.as_bytes())`.
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
        self.run_observed(cache, None, None)
    }

    /// [`RunSpec::run`] with cooperative cancellation and an optional
    /// [`CounterHub`]. `cancel` is polled through every layer of the run
    /// (compile stages and the engine step loop), so a fired token unwinds
    /// with [`Error::Cancelled`] instead of finishing the simulation; this
    /// is how `ptsim-serve` enforces `deadline_ms` on in-flight runs. The
    /// hub lets callers honouring the spec's `profile` flag (the serve
    /// execute path) collect cycle-resolved counters without re-deriving
    /// run options themselves. Counters only observe; the returned report
    /// is bit-identical with or without a hub.
    ///
    /// [`CounterHub`]: ptsim_obs::CounterHub
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run`], plus [`Error::Cancelled`] once `cancel` fires.
    pub fn run_observed(
        &self,
        cache: &Arc<CompileCache>,
        cancel: Option<&ptsim_common::CancelToken>,
        counters: Option<Arc<ptsim_obs::CounterHub>>,
    ) -> Result<SimReport> {
        self.validate()?;
        let spec = self.model.build()?;
        let sim =
            Simulator::with_cache(self.config.clone(), self.options.clone(), Arc::clone(cache));
        let mut run = self.run_options();
        run.cancel = cancel.cloned();
        run.counters = counters;
        sim.run(&spec, run)
    }

    /// Parses the wire form with *typed* errors: a `"v"` other than absent,
    /// 1, 2 or 3 comes back as [`Error::UnsupportedSchema`] (the client
    /// speaks a different protocol), every other malformation as
    /// [`Error::Serde`] (the request is just broken).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedSchema`] or [`Error::Serde`] as above.
    pub fn parse_wire(v: &Json) -> Result<RunSpec> {
        match v.field::<Option<u64>>("v").map_err(Error::Serde)? {
            None | Some(1..=3) => read_fields(v).map_err(Error::Serde),
            Some(n) => Err(Error::UnsupportedSchema(format!(
                "RunSpec schema v{n} (this build reads v1..=v3, all as one schema)"
            ))),
        }
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
        let mut j = Json::obj()
            .set("model", self.model.to_json())
            .set("config", self.config.to_json())
            .set("options", self.options.to_json())
            .set("fidelity", self.fidelity.to_json());
        if self.profile {
            j = j.set("profile", Json::Bool(true));
        }
        if let Some(m) = self.max_cycles {
            j = j.set("max_cycles", Json::u64(m));
        }
        j
    }
}

/// The fields of a request whose version [`RunSpec::parse_wire`] accepted;
/// an absent or `null` optional field takes its default.
fn read_fields(v: &Json) -> std::result::Result<RunSpec, String> {
    Ok(RunSpec {
        model: v.field("model")?,
        config: v.field::<Option<_>>("config")?.unwrap_or_default(),
        options: v.field::<Option<_>>("options")?.unwrap_or_default(),
        fidelity: v.field::<Option<_>>("fidelity")?.unwrap_or_default(),
        max_cycles: v.field("max_cycles")?,
        profile: v.field::<Option<_>>("profile")?.unwrap_or_default(),
    })
}

impl FromJson for RunSpec {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        RunSpec::parse_wire(v).map_err(|e| e.to_string())
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
                .with_fidelity(Fidelity::Ils),
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
        assert_eq!(spec.fidelity, Fidelity::Tls);
        assert!(spec.max_cycles.is_none());
        assert!(!spec.profile);
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
        // `FromJson` reads through the same version check.
        let err = RunSpec::from_json_str(r#"{"v":9,"model":{"kind":"gemm","n":16}}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        // Garbage is Serde, not UnsupportedSchema.
        let junk = ptsim_common::json::parse_json(r#"{"v":2}"#).unwrap();
        assert!(matches!(RunSpec::parse_wire(&junk), Err(Error::Serde(_))));
    }

    #[test]
    fn v3_round_trips_the_profile_flag() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 }).with_profile(true);
        let json = spec.canonical_json();
        assert!(json.contains("\"profile\":true"), "{json}");
        assert_eq!(RunSpec::from_json_str(&json).unwrap(), spec);
        // The v3 spelling earlier builds emitted is the same spec.
        let v3 = json.replacen('{', r#"{"v":3,"#, 1);
        assert_eq!(RunSpec::from_json_str(&v3).unwrap(), spec);
    }

    /// A v2 request naming a backend is the backend-free spec: the key is
    /// ignored, and the spec renders to the one canon without it.
    #[test]
    fn v2_round_trips_the_backend() {
        let canon = RunSpec::new(ModelRequest::Gemm { n: 16 });
        for backend in ["serial", "reference", "parallel:3"] {
            let wire =
                format!(r#"{{"v":2,"model":{{"kind":"gemm","n":16}},"backend":"{backend}"}}"#);
            let spec = RunSpec::from_json_str(&wire).unwrap();
            assert_eq!(spec, canon, "{wire}");
            assert_eq!(spec.fingerprint(), canon.fingerprint(), "{wire}");
            assert!(!spec.canonical_json().contains("backend"), "{wire}");
        }
        // An explicit v2 request without a backend key is the same spec.
        let spec = RunSpec::from_json_str(r#"{"v":2,"model":{"kind":"gemm","n":16}}"#).unwrap();
        assert_eq!(spec, canon);
    }

    /// Schema v1 once rejected a `"backend"` key; with one schema it is an
    /// ignored unknown key, so such a request reads as the plain spec.
    #[test]
    fn v1_requests_with_a_backend_key_are_rejected() {
        for wire in [
            r#"{"model":{"kind":"gemm","n":16},"backend":"parallel:4"}"#,
            r#"{"v":1,"model":{"kind":"gemm","n":16},"backend":"parallel:4"}"#,
        ] {
            let spec = RunSpec::from_json_str(wire).unwrap();
            assert_eq!(spec, RunSpec::new(ModelRequest::Gemm { n: 16 }), "{wire}");
        }
        // A malformed request is still refused, backend key or not.
        let err = RunSpec::from_json_str(r#"{"v":1,"backend":"parallel:4"}"#).unwrap_err();
        assert!(err.contains("model"), "{err}");
    }

    /// Fingerprint stability: a spec that does not set `profile` renders
    /// without the key, so it keys the same cache entry as a request that
    /// never heard of profiling.
    #[test]
    fn profile_free_specs_still_serialize_as_v2() {
        let spec = RunSpec::new(ModelRequest::Gemm { n: 16 });
        let json = spec.canonical_json();
        assert!(!json.contains("profile"), "{json}");
        assert!(!json.contains(r#""v":"#), "{json}");
        let v2 = json.replacen('{', r#"{"v":2,"#, 1);
        assert_eq!(RunSpec::from_json_str(&v2).unwrap().canonical_json(), json);
    }

    /// The profile flag once required schema v3; with one schema a `v1`,
    /// `v2` or version-less request may set it, and it is the same spec.
    #[test]
    fn sub_v3_requests_with_a_profile_key_are_rejected() {
        let profiled = RunSpec::new(ModelRequest::Gemm { n: 16 }).with_profile(true);
        for wire in [
            r#"{"model":{"kind":"gemm","n":16},"profile":true}"#,
            r#"{"v":1,"model":{"kind":"gemm","n":16},"profile":true}"#,
            r#"{"v":2,"model":{"kind":"gemm","n":16},"profile":true}"#,
        ] {
            let spec = RunSpec::from_json_str(wire).unwrap();
            assert_eq!(spec, profiled, "{wire}");
            assert_eq!(spec.fingerprint(), profiled.fingerprint(), "{wire}");
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
    fn fingerprint_separates_distinct_specs() {
        let a = RunSpec::new(ModelRequest::Gemm { n: 32 });
        let b = RunSpec::new(ModelRequest::Gemm { n: 33 });
        let c = a.clone().with_fidelity(Fidelity::Ils);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn unknown_fidelity_tags_are_rejected() {
        let model = r#""model":{"kind":"gemm","n":16}"#;
        for tag in ["ils_timing", "slow", "TLS"] {
            let wire = format!(r#"{{{model},"fidelity":"{tag}"}}"#);
            let err = RunSpec::from_json_str(&wire).unwrap_err();
            assert!(err.contains(r#"expected "tls" or "ils""#), "{tag}: {err}");
        }
    }

    /// `ptsim-serve` answers a request from its bytes alone when they equal
    /// a cached canonical rendering. That is sound because the canonical
    /// form is a fixpoint of parse → render, its FNV-1a is the fingerprint,
    /// and every legacy spelling of a spec renders to the same canon: a
    /// `"v"` of 1, 2 or 3, and any `"backend"` earlier builds sent.
    #[test]
    fn canonical_json_is_a_parse_fixpoint_keyed_by_its_own_fnv() {
        use ptsim_common::fingerprint::fnv1a;
        use ptsim_common::json::parse_json;
        let models = [
            ModelRequest::Gemm { n: 32 },
            ModelRequest::GemmRect { m: 16, k: 32, n: 48 },
            ModelRequest::Mlp { batch: 4, hidden: 48 },
            ModelRequest::Conv { batch: 1, channels: 8, hw: 14 },
            ModelRequest::LayerNorm { rows: 8, cols: 64 },
            ModelRequest::Softmax { rows: 16, cols: 96 },
            ModelRequest::Bert {
                seq: 16,
                batch: 1,
                hidden: 32,
                layers: 1,
                heads: 2,
                intermediate: 64,
            },
        ];
        let reparse = |wire: &str| {
            let v = parse_json(wire).unwrap_or_else(|e| panic!("{e}: {wire}"));
            RunSpec::parse_wire(&v).unwrap_or_else(|e| panic!("{e}: {wire}")).canonical_json()
        };
        const LEGACY: [&str; 6] = [
            r#"{"v":1,"#,
            r#"{"v":2,"#,
            r#"{"v":3,"#,
            r#"{"backend":"serial","#,
            r#"{"v":2,"backend":"reference","#,
            r#"{"v":3,"backend":"parallel:4","#,
        ];
        let mut cases = 0;
        for model in models {
            for config in [SimConfig::tiny(), SimConfig::default(), SimConfig::tpu_v3()] {
                for fidelity in [Fidelity::Tls, Fidelity::Ils] {
                    for profile in [false, true] {
                        for max_cycles in [None, Some(1_000_000)] {
                            let spec = RunSpec {
                                max_cycles,
                                ..RunSpec::new(model)
                                    .with_config(config.clone())
                                    .with_fidelity(fidelity)
                                    .with_profile(profile)
                            };
                            let canon = spec.canonical_json();
                            assert_eq!(reparse(&canon), canon);
                            assert_eq!(fnv1a(canon.as_bytes()), spec.fingerprint(), "{canon}");
                            // No string in a spec holds a quote, so `,"` and
                            // `":` only occur between tokens.
                            let spaced = canon.replace(",\"", ",\n\t\"").replace("\":", "\" : ");
                            assert_eq!(reparse(&format!(" {spaced}\n")), canon);
                            assert!(!canon.contains(r#""v":"#), "{canon}");
                            assert!(!canon.contains("backend"), "{canon}");
                            assert_eq!(canon.contains("profile"), profile, "{canon}");
                            for legacy in LEGACY {
                                let wire = canon.replacen('{', legacy, 1);
                                assert_eq!(reparse(&wire), canon, "{wire}");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 7 * 3 * 2 * 2 * 2);
    }

    /// Fingerprints of four canonical renderings, pinned. A change to how
    /// any config or options record renders (a key renamed, reordered,
    /// dropped or re-formatted) re-keys every result cache and shows here.
    /// The third spec sets every optional subtree, which no figure reaches.
    #[test]
    fn canonical_fingerprints_are_pinned() {
        use ptsim_common::config::{ChipletLinkConfig, L1CacheConfig, MemSchedulerPolicy, NocKind};
        let gemm = || RunSpec::new(ModelRequest::Gemm { n: 16 });
        let mut full = SimConfig::tpu_v3();
        full.npu.l1_cache = Some(L1CacheConfig::kib_128());
        full.noc.chiplet = Some(ChipletLinkConfig::paper_two_chiplets());
        full.dram.scheduler = MemSchedulerPolicy::Fcfs;
        full.noc.kind = NocKind::Simple;
        let autotuned = CompilerOptions { autotune: true, ..CompilerOptions::unoptimized() };
        let pinned = [
            (gemm().with_config(SimConfig::tiny()), 0x99d8_e05c_aba9_43a5),
            (gemm().with_config(SimConfig::tpu_v3()), 0x377b_778d_d371_fe7e),
            (gemm().with_config(full), 0x50f6_be0c_c17a_6241),
            (gemm().with_options(autotuned), 0x1dc3_a2cd_b3cc_082e),
        ];
        for (spec, fp) in pinned {
            assert_eq!(spec.fingerprint(), fp, "{}", spec.canonical_json());
        }
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
