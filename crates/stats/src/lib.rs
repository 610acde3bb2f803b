//! # stats
//!
//! Minimal statistics for the experiment harness: streaming moments
//! (Welford), the 99% confidence-interval half-width the paper reports for
//! every figure (Student-t for small samples), percentiles over collected
//! samples, and plain-text/CSV tables for experiment output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ci;
pub mod percentile;
pub mod table;
pub mod welford;

pub use ci::ci99_halfwidth;
pub use percentile::Samples;
pub use table::Table;
pub use welford::Welford;
