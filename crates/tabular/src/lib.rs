//! Tabular data substrate for the Shahin reproduction.
//!
//! Shahin ([SIGMOD'21]) operates over *tabular* data: tuples with a mix of
//! categorical and numeric attributes. This crate provides everything the
//! explainers and the batch optimizer need from the data layer:
//!
//! * a column-oriented [`Dataset`] with code-compressed categorical columns,
//! * quartile [`Discretizer`] turning numeric attributes into categorical
//!   bins (the representation LIME and Anchor perturb in) together with the
//!   inverse "undiscretize" sampling step,
//! * per-attribute training-set frequency statistics ([`TrainingStats`])
//!   used as the perturbation distribution,
//! * deterministic synthetic generators ([`synth`]) reproducing the shape of
//!   the five evaluation datasets of the paper (attribute counts, domain
//!   cardinalities, value skew), and
//! * train/test splitting utilities.
//!
//! [SIGMOD'21]: https://doi.org/10.1145/3448016.3457332

pub mod dataset;
pub mod discretize;
pub mod io;
pub mod schema;
pub mod split;
pub mod stats;
pub mod synth;
pub mod value;

pub use dataset::{Column, Dataset, DiscreteTable};
pub use discretize::{BinSpec, Discretizer};
pub use io::{read_csv, write_csv, CsvDataset, CsvError};
pub use schema::{AttrKind, Attribute, Schema};
pub use split::{train_test_split, Split};
pub use stats::TrainingStats;
pub use synth::{DatasetPreset, SynthSpec};
pub use value::{Feature, Instance};
