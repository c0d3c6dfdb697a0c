//! # facepoint-sig
//!
//! Face and point signature vectors for NPN classification — the core
//! machinery of the DATE 2023 paper *"Rethinking NPN Classification from
//! Face and Point Characteristics of Boolean Functions"*
//! (arXiv:2301.12122).
//!
//! The paper views an `n`-variable Boolean function as an induced subgraph
//! of the hypercube `Q_n` and derives NPN-invariant *signature vectors*
//! from three complementary characteristics:
//!
//! | characteristic | geometric view | module | vectors |
//! |---|---|---|---|
//! | cofactor | a *face* of the cube | [`ocv1`]/[`ocv2`]/[`ocv`] | `OCVℓ` |
//! | influence | a *point–face* relation | [`influence`]/[`oiv`] | `OIV` |
//! | sensitivity | a *point* and its neighbours | [`osv`]/[`SensitivityProfile`] | `OSV`, `OSV0`, `OSV1` |
//! | sensitivity distance | pairs of points | [`osdv`]/[`Osdv`] | `OSDV`, `OSDV0`, `OSDV1` |
//!
//! Equality of each vector is *necessary* for NPN equivalence
//! (Theorems 1–4, executable in [`theorems`]), so the concatenated,
//! polarity-canonicalized [`msv`] can bucket functions into candidate NPN
//! classes with plain hashing — no transformation enumeration. The
//! [`spectral`] module adds the Walsh spectrum for comparison and powers
//! the fast `OSDV` engine.
//!
//! # Quick start
//!
//! ```
//! use facepoint_sig::{msv, oiv, osv1, SignatureSet};
//! use facepoint_truth::TruthTable;
//!
//! let maj = TruthTable::majority(3);
//! assert_eq!(oiv(&maj), vec![2, 2, 2]);        // Table I, row OIV
//! assert_eq!(osv1(&maj), vec![0, 2, 2, 2]);    // Table I, row OSV1
//!
//! // The full mixed signature vector used by the classifier:
//! let key = msv(&maj, SignatureSet::all());
//! assert!(!key.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cofactor;
mod distance;
mod influence;
mod kernel;
mod msv;
mod sensitivity;
pub mod spectral;
pub mod symmetry;
pub mod theorems;

pub use cofactor::{ocv, ocv1, ocv2};
pub use distance::{
    classic_crossover, osdv, osdv0, osdv1, osdv_from_profile, osdv_rows_into, osdv_with,
    MintermFilter, Osdv, OsdvEngine, OsdvScratch,
};
pub use influence::{influence, influences, oiv, total_influence};
pub use kernel::{MsvSink, SigKernel};
pub use msv::{msv, msv_reference, push_stage_sections, raw_msv, Msv, SignatureSet, STAGE_ORDER};
pub use sensitivity::{
    osv, osv0, osv1, osv_histogram, osv_histograms_by_value, sen, sen0, sen1, SensitivityProfile,
};
