//! # tps-window
//!
//! Sliding-window substrate: the smooth-histogram framework of
//! Braverman–Ostrovsky and the window-restricted `F_p`/`L_p` estimators the
//! paper's sliding-window samplers rely on (Appendix A, Theorem A.5).
//!
//! In the sliding-window model only the `W` most recent updates are active.
//! The smooth histogram maintains a logarithmic number of checkpointed
//! estimator instances whose start times "sandwich" the active window
//! (Figure 1 of the paper); for any `(α, β)`-smooth function the estimate of
//! the instance straddling the window boundary is within a constant factor
//! of the true window value.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod estimate;
pub mod histogram;
pub mod smooth;

pub use estimate::SlidingWindowLpEstimate;
pub use histogram::{EstimatorFactory, SmoothHistogram};
pub use smooth::fp_smoothness;
