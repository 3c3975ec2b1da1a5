//! # tps-sketches
//!
//! Deterministic and randomized stream summaries used as substrates by the
//! truly perfect samplers and by the baseline (non-truly-perfect) samplers
//! they are compared against.
//!
//! The deterministic structures matter most: the paper's `L_p` samplers for
//! `p ∈ [1, 2]` obtain their rejection normaliser from a **deterministic**
//! Misra–Gries bound on `‖f‖_∞` (Theorem 3.2 / 3.4) precisely because any
//! randomized estimate that can fail — however rarely — would re-introduce
//! additive error and the sampler would no longer be *truly* perfect.
//!
//! | module | structure | used by |
//! |---|---|---|
//! | [`misra_gries`] | Misra–Gries heavy hitters (deterministic) | `L_p` sampler normaliser, fast `p<1` baseline |
//! | [`space_saving`] | SpaceSaving (deterministic) | ablation alternative to Misra–Gries |
//! | [`count_min`] | CountMin sketch (randomized, overestimates) | ablation: why a randomized normaliser breaks truly-perfectness |
//! | [`count_sketch`] | CountSketch (randomized, unbiased) | baseline heavy-hitter recovery |
//! | [`ams_f2`] | AMS tug-of-war `F_2` estimator | sliding-window `L_2` estimation substrate |
//! | [`fp_estimate`] | AMS sampling-based `F_p` estimator | smooth-histogram `L_p` estimation |
//! | [`sparse_recovery`] | Reed–Solomon syndrome `k`-sparse recovery (deterministic under the sparsity promise) | strict-turnstile `F_0` sampler (Theorem D.3) |
//! | [`exact_counter`] | exact hash-map counter | ground truth, offsets table |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ams_f2;
pub mod count_min;
pub mod count_sketch;
pub mod exact_counter;
pub mod fp_estimate;
pub mod misra_gries;
pub mod space_saving;
pub mod sparse_recovery;

pub use ams_f2::AmsF2;
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use exact_counter::ExactCounter;
pub use fp_estimate::AmsFpEstimator;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;
pub use sparse_recovery::SparseRecovery;
