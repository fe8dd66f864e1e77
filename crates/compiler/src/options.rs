//! Compiler options controlling the optimizations studied in §5.3.

use ptsim_common::config::DmaGranularity;
use ptsim_common::fingerprint::Fnv;
use ptsim_common::json_record;

/// Knobs of the NPU compiler backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// DMA decomposition strategy (Fig. 8a: CG vs FG vs SFG).
    pub dma: DmaGranularity,
    /// Tensors larger than this (bytes) keep coarse-grained DMA under
    /// [`DmaGranularity::SelectiveFine`], recovering DRAM row locality for
    /// large GEMMs (the GEMM(2048) effect in Fig. 8a).
    pub sfg_threshold_bytes: u64,
    /// Fuse elementwise epilogues (bias add, ReLU, GELU) into the preceding
    /// GEMM/CONV kernel (§3.6.3).
    pub fuse_epilogue: bool,
    /// Apply the CONV layout optimizations for batch = 1 and small input
    /// channel counts (§3.6.3, Fig. 8b–c).
    pub conv_layout_opt: bool,
    /// Upper bound on the M dimension of a GEMM tile, rows.
    pub max_m_tile: usize,
    /// Input-channel count below which the HNWC small-C layout is used.
    pub small_c_threshold: usize,
    /// Autotune the GEMM M-tile by measuring candidate kernels offline
    /// (§3.6.3: "Inductor's autotuning for choosing tile sizes").
    pub autotune: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            dma: DmaGranularity::SelectiveFine,
            sfg_threshold_bytes: 8 * 1024 * 1024,
            fuse_epilogue: true,
            conv_layout_opt: true,
            max_m_tile: 512,
            small_c_threshold: 16,
            autotune: false,
        }
    }
}

impl CompilerOptions {
    /// A baseline configuration with every optimization off, for ablations.
    pub fn unoptimized() -> Self {
        CompilerOptions {
            dma: DmaGranularity::Coarse,
            fuse_epilogue: false,
            conv_layout_opt: false,
            ..Self::default()
        }
    }

    /// Content fingerprint over every option, for staged-pipeline cache
    /// keys. All fields are folded in explicitly — adding an option
    /// without extending this is a compile error via the destructuring.
    pub fn fingerprint(&self) -> u64 {
        let CompilerOptions {
            dma,
            sfg_threshold_bytes,
            fuse_epilogue,
            conv_layout_opt,
            max_m_tile,
            small_c_threshold,
            autotune,
        } = self;
        Fnv::new()
            .str("compiler-options-v1")
            .str(&format!("{dma:?}"))
            .u64(*sfg_threshold_bytes)
            .u64(u64::from(*fuse_epilogue))
            .u64(u64::from(*conv_layout_opt))
            .usize(*max_m_tile)
            .usize(*small_c_threshold)
            .u64(u64::from(*autotune))
            .finish()
    }
}

json_record!(CompilerOptions {
    dma,
    sfg_threshold_bytes,
    fuse_epilogue,
    conv_layout_opt,
    max_m_tile,
    small_c_threshold,
    autotune,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_paper_optimizations() {
        let o = CompilerOptions::default();
        assert_eq!(o.dma, DmaGranularity::SelectiveFine);
        assert!(o.fuse_epilogue);
        assert!(o.conv_layout_opt);
    }

    #[test]
    fn unoptimized_disables_everything() {
        let o = CompilerOptions::unoptimized();
        assert_eq!(o.dma, DmaGranularity::Coarse);
        assert!(!o.fuse_epilogue);
        assert!(!o.conv_layout_opt);
    }

    /// Changing any one key of the JSON form changes exactly that key after
    /// a parse and re-render: no key is read into another field.
    #[test]
    fn options_serialize_round_trip_key_by_key() {
        use ptsim_common::json::{FromJson, Json, ToJson};
        let o = CompilerOptions { autotune: true, ..CompilerOptions::unoptimized() };
        assert_eq!(CompilerOptions::from_json_str(&o.to_json_string()).unwrap(), o);
        let Json::Obj(fields) = o.to_json() else { panic!("options render as an object") };
        for i in 0..fields.len() {
            let mut changed = fields.clone();
            changed[i].1 = match &changed[i].1 {
                Json::Num(n) => Json::Num(n + 1.0),
                Json::Bool(b) => Json::Bool(!b),
                Json::Str(_) => Json::str("Fine"),
                other => panic!("{}: unexpected leaf {other:?}", changed[i].0),
            };
            let changed = Json::Obj(changed);
            assert_eq!(CompilerOptions::from_json(&changed).unwrap().to_json(), changed);
        }
    }
}
