//! Top-down with reuse (TDWR, §2.5.2).
//!
//! The top-down analogue of Algorithm 3: one shared status map, one sweep
//! from the highest lattice level down. Alive nodes propagate rule R1 over
//! the descendant cones of *all* MTNs at once. On workloads where answers
//! concentrate at high levels (the DBLife behaviour in §3.5), this is the
//! strongest of the four order-based strategies.
//!
//! As a [`Frontier`], TDWR emits one wave per global lattice level,
//! descending: the maximal equal-level runs of `(0..len).rev()`. Same-level
//! nodes are never descendants of each other, so R1 from one wave member
//! can never classify another.
//!
//! Metrics recorded (see [`crate::metrics`]): each visit skipped because the
//! shared status map already classified the node is one `reuse_hits`
//! (cross-MTN sharing, Figure 13); each descendant newly revived by R1 is one
//! `r1_inferences`. The wave loop consults memoized verdicts before the budget
//! ([`crate::oracle::AlivenessOracle::verdict_if_known`]), so cached nodes
//! never touch it. Like TD, the descending order never fires R2.
//!
//! Degraded mode: abandoned probes stay unknown and the sweep continues;
//! budget exhaustion stops the sweep and the partial status map yields the
//! MTN classification and MPAN bounds.

use crate::metrics::Metrics;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Classified, Frontier, Status};

pub(super) struct TdwrFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Number of dense nodes already emitted, walking `0..len` in reverse.
    emitted: usize,
    status: Vec<Status>,
}

impl<'p> TdwrFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        TdwrFrontier { pruned, emitted: 0, status: vec![Status::Unknown; pruned.len()] }
    }

    /// The dense node at reverse-walk position `pos`.
    fn at(&self, pos: usize) -> usize {
        self.pruned.len() - 1 - pos
    }
}

impl Frontier for TdwrFrontier<'_> {
    fn next_wave(&mut self, out: &mut Vec<usize>) {
        let len = self.pruned.len();
        if self.emitted >= len {
            return;
        }
        let lvl = self.pruned.level(self.at(self.emitted));
        while self.emitted < len && self.pruned.level(self.at(self.emitted)) == lvl {
            out.push(self.at(self.emitted));
            self.emitted += 1;
        }
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, metrics: &Metrics) {
        if alive {
            let mut inferred = 0;
            for &d in self.pruned.desc_plus(n) {
                if d != n && self.status[d] == Status::Unknown {
                    inferred += 1;
                }
                self.status[d] = Status::Alive;
            }
            metrics.r1_inferences.add(inferred);
        } else {
            self.status[n] = Status::Dead;
        }
    }

    fn abandon(&mut self, _n: usize) {}

    fn exhaust(&mut self) {
        self.emitted = self.pruned.len();
    }

    fn finish(self: Box<Self>) -> Classified {
        outcome_from_global_status(self.pruned, &self.status)
    }
}
