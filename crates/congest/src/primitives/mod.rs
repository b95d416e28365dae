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
pub use beep::{khop_beep, khop_beep_masked, khop_beep_multi, khop_beep_with_fanout};
pub use flood::{flood_flags, grow_balls, khop_min_source};
pub use idexchange::{exchange_with_neighbors, extend_trees, init_knowledge_and_trees};
pub use multicast::{q_broadcast, q_message};
pub use spanning::{bfs_tree_from, elect_leader_and_tree};
