//! Exact solvers for the tri-criteria problem on homogeneous platforms.
//!
//! The (reliability, latency) problem is NP-complete even on homogeneous
//! platforms (Theorem 3), so exact solving is only practical on small
//! instances. Three exact solvers are provided, in decreasing order of speed:
//!
//! * [`exhaustive::optimal_homogeneous`] enumerates the `2^{n−1}` interval
//!   partitions, filters them by the period and latency bounds (which do not
//!   depend on the processor assignment on a homogeneous platform) and
//!   allocates processors optimally with Algo-Alloc — certified optimal and
//!   fast enough for the paper's instance sizes (`n = 15`);
//! * [`ilp::optimal_by_ilp`] builds the Section 5.4 integer linear program and
//!   solves it with the `rpo-lp` branch-and-bound (the CPLEX substitute);
//! * [`brute_force`] additionally enumerates the replica-count vectors and is
//!   used only to validate the other two on tiny instances.

pub mod exhaustive;
pub mod ilp;
pub mod profiles;

pub use exhaustive::{brute_force, optimal_homogeneous};
pub use ilp::{build_ilp, optimal_by_ilp};
pub use profiles::{PartitionProfile, ProfileSet};
