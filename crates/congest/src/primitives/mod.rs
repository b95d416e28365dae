//! Communication primitives (Section 4 of the paper), implemented as node
//! programs over the round engine. Round costs are *measured* by the
//! engine, not asserted.

pub mod aggregate;
pub mod beep;
pub mod flood;
pub mod idexchange;
pub mod multicast;
pub mod spanning;

pub use aggregate::{broadcast_from_root, converge_sum, sum_and_broadcast};
pub use beep::{khop_beep, khop_beep_multi};
pub use flood::{flood_flags, grow_balls, khop_min};
pub use idexchange::{extend_trees, init_knowledge_and_trees};
pub use multicast::q_broadcast;
pub use spanning::elect_leader_and_tree;
