//! # besst-models — performance-model development
//!
//! The Model Development half of the BE-SST workflow (paper Fig. 2, left):
//! turn benchmark timing samples into calibrated performance models that
//! the simulator can query, and validate them with the paper's error
//! metric.
//!
//! Two methods from the paper plus one ablation family:
//!
//! * [`table::SampleTable`] — lookup tables holding the raw sample
//!   distributions, answering off-grid queries by multilinear
//!   interpolation ("interpolation method", §III-A);
//! * [`symreg`] — genetic-programming symbolic regression producing
//!   [`expr::Expr`] trees ("symbolic regression method", §III-A, used by
//!   the paper's case study), evolved as flat [`genome::Genome`]s;
//! * [`powerlaw`] — deterministic power-law regression, our ablation
//!   reference for symreg stability.
//!
//! Fitted models are wrapped in [`model::PerfModel`] (point estimate +
//! Monte-Carlo draw with calibrated residual spread) and grouped into
//! [`model::ModelBundle`]s, the artifact the Co-Design phase consumes.
//! [`stats`] provides MAPE/MPE/RMSE/R² and the deterministic train/test
//! splitter.

#![warn(missing_docs)]

pub mod codec;
pub mod expr;
pub mod genome;
pub mod model;
pub mod powerlaw;
pub mod stats;
pub mod symreg;
pub mod table;

pub use codec::BundleError;
pub use expr::Expr;
pub use model::{ModelBundle, PerfModel};
pub use stats::{mape, mpe, quantile, r_squared, rmse, train_test_split};
pub use symreg::{Dataset, SymRegConfig, SymRegResult};
pub use table::{Interpolation, SampleTable};
