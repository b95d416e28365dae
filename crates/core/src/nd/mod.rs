//! Network decompositions of power graphs (Appendix A of the paper) and
//! the distance-`k` ball graphs of Lemma 8.3.

mod ball;
mod cluster;

pub use ball::{build_ball_graph, BallGraph};
pub use cluster::{cluster_parts, diameter_bound, power_nd, NdError, NetworkDecomposition};
