//! The comparison alternatives of §3.8.
//!
//! * **Return Nothing** ([`rn`]): the standard KWS-S behaviour — non-answers
//!   produce an empty page, and a developer debugging "why not" re-submits
//!   every keyword-subset query by hand; the system executes the candidate
//!   networks of each. Incomplete (only minimal networks whose leaves are all
//!   keyword-bound are ever explored) and redundant (answers of alive MTNs
//!   are recomputed).
//! * **Return Everything** ([`re`]): no lattice — classify every MTN by
//!   executing it, then execute *every* descendant of every dead MTN to find
//!   its alive sub-queries, with no R1/R2 inference and no sharing across
//!   MTNs. Complete but maximally redundant.
//!
//! Both report the same query-count/time metrics as
//! [`crate::traversal::TraversalOutcome`], so Figures 14 and 15 compare all
//! three approaches directly.

pub mod re;
pub mod rn;

pub use re::run_return_everything;
pub use rn::{run_return_nothing, RnOutcome};
