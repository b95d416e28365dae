//! k-wise independent hash families and derandomization strategies for the
//! `powersparse` reproduction of *Distributed Symmetry Breaking on Power
//! Graphs via Sparsification* (PODC 2023).
//!
//! The paper's deterministic sparsification (Section 5.2) derandomizes a
//! sampling process whose analysis only needs `8 log n`-wise independence
//! (Theorem 5.3, \[SSS95\]). Nodes simulate their coin flips by evaluating a
//! shared hash function drawn from a k-wise independent family
//! (Definition 2.2 / Lemma 2.3); the `O(log² n)`-bit seed is then fixed bit
//! by bit with the method of conditional expectations (Claim 5.6). The
//! reproduction instead scans whole seeds ([`derand::seed_search`]); see
//! "Derandomization over a global BFS tree" in the `powersparse::params`
//! docs.
//!
//! This crate provides:
//!
//! * [`gf::Gf2`] — binary extension fields `GF(2^b)`. Using `GF(2^b)`
//!   instead of a prime field makes the seed space exactly a power of two,
//!   so *every* bit string is a valid seed and bit-by-bit fixing introduces
//!   no bias.
//! * [`family::KWiseFamily`] — degree-`(k−1)` polynomials over `GF(2^b)`:
//!   an exactly k-wise independent family with `k·b` seed bits.
//! * [`seed::Seed`] and [`seed::PartialSeed`] — bit strings with partial
//!   assignment, as manipulated by the derandomizers.
//! * [`derand`] — the two derandomization strategies: deterministic
//!   [`derand::seed_search`] (scan the seeds of a counter range in order,
//!   return the first counter under which no bad event occurs), which
//!   every derandomized stage of the reproduction runs, and exact
//!   [`derand::conditional_expectations`] (the paper's bit-by-bit method,
//!   feasible for small seed spaces; the tested reference for
//!   Claim 5.6).
//!
//! # Example
//!
//! ```
//! use powersparse_kwise::family::KWiseFamily;
//! use powersparse_kwise::seed::Seed;
//!
//! // A 4-wise independent family over GF(2^16).
//! let fam = KWiseFamily::new(4, 16);
//! assert_eq!(fam.seed_len(), 64);
//! let seed = Seed::from_counter(fam.seed_len(), 7);
//! let h = fam.eval(&seed, 42);
//! assert!(h < 1 << 16);
//! ```

pub mod derand;
pub mod family;
pub mod gf;
pub mod seed;

pub use derand::{conditional_expectations, seed_search, DerandError};
pub use family::KWiseFamily;
pub use seed::{PartialSeed, Seed};
