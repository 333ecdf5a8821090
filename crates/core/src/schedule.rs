//! Communication schedules for the barrier (and extension) algorithms.
//!
//! A [`Schedule`] is one rank's view of a round-synchronous communication
//! pattern: in round `r` it sends to `sends[r]` and expects messages from
//! `recv_from[r]`. The execution rule — shared by the GM collective engine,
//! the Elan chain builder and the host-based baselines — is:
//!
//! > the sends of round `r` may be issued once the process has entered the
//! > operation and every expected message of rounds `< r` has arrived; the
//! > operation completes when every expected message of every round has
//! > arrived and all sends are issued.
//!
//! Three barrier algorithms from §5 of the paper are provided —
//! [`Schedule::dissemination`], [`Schedule::pairwise_exchange`] and
//! [`Schedule::gather_broadcast`] — plus a binomial broadcast tree used by
//! the extension collectives. [`validate`] checks global consistency (every
//! expected receive is someone's send in the same round, and vice versa) and
//! [`disseminates`] checks the barrier correctness condition (every rank's
//! entry causally precedes every rank's exit).

/// One rank's plan for one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Peer ranks this rank sends to in this round.
    pub sends: Vec<usize>,
    /// Peer ranks this rank expects a message from in this round.
    pub recv_from: Vec<usize>,
}

/// One rank's complete schedule.
///
/// ```
/// use nicbar_core::schedule::{Algorithm, Schedule};
///
/// // Rank 0 of an 8-rank dissemination barrier: 3 rounds, sending to
/// // ranks 1, 2, 4 and hearing from ranks 7, 6, 4.
/// let s = Schedule::for_algorithm(Algorithm::Dissemination, 8, 0);
/// assert_eq!(s.num_rounds(), 3);
/// assert_eq!(s.rounds[0].sends, vec![1]);
/// assert_eq!(s.rounds[2].recv_from, vec![4]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Group size.
    pub n: usize,
    /// This rank.
    pub rank: usize,
    /// Per-round plans; all ranks of a group have the same number of rounds.
    pub rounds: Vec<RoundPlan>,
}

/// The algorithm selector (paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// ⌈log₂N⌉ rounds; rank `i` sends to `(i + 2^m) mod N` in round `m`.
    Dissemination,
    /// Recursive doubling (MPICH); `log₂N` rounds for powers of two,
    /// `⌊log₂N⌋ + 2` steps otherwise.
    PairwiseExchange,
    /// Combine up a d-ary tree, broadcast down (2·depth+1 rounds). Included
    /// for completeness; the paper dismisses it as inferior.
    GatherBroadcast {
        /// Tree degree.
        degree: usize,
    },
}

impl Algorithm {
    /// Human-readable short name (used by the benchmark harness).
    pub fn short_name(&self) -> &'static str {
        match self {
            Algorithm::Dissemination => "DS",
            Algorithm::PairwiseExchange => "PE",
            Algorithm::GatherBroadcast { .. } => "GB",
        }
    }
}

impl Schedule {
    /// Build the schedule for `rank` under `algo`.
    pub fn for_algorithm(algo: Algorithm, n: usize, rank: usize) -> Schedule {
        match algo {
            Algorithm::Dissemination => Schedule::dissemination(n, rank),
            Algorithm::PairwiseExchange => Schedule::pairwise_exchange(n, rank),
            Algorithm::GatherBroadcast { degree } => Schedule::gather_broadcast(n, rank, degree),
        }
    }

    /// The dissemination algorithm (§5.1, Fig. 4): in round `m`, rank `i`
    /// sends to `(i + 2^m) mod N` and hears from `(i − 2^m) mod N`. Takes
    /// ⌈log₂N⌉ rounds for any `N`.
    pub fn dissemination(n: usize, rank: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        let rounds = ceil_log2(n);
        let plans = (0..rounds)
            .map(|m| {
                let d = (1usize << m) % n;
                RoundPlan {
                    sends: vec![(rank + d) % n],
                    recv_from: vec![(rank + n - d) % n],
                }
            })
            .collect();
        Schedule {
            n,
            rank,
            rounds: plans,
        }
    }

    /// The pairwise-exchange algorithm (§5.1, Fig. 3). For `N` a power of
    /// two: `log₂N` rounds of partner exchange (`j = i XOR 2^m`). Otherwise
    /// (`M` = largest power of two ≤ `N`): a pre-step in which ranks `≥ M`
    /// notify `i − M`, the `M`-rank exchange, and a post-step notifying the
    /// high ranks back — `⌊log₂N⌋ + 2` steps, matching the paper.
    pub fn pairwise_exchange(n: usize, rank: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        if n == 1 {
            return Schedule {
                n,
                rank,
                rounds: Vec::new(),
            };
        }
        let m_rounds = floor_log2(n);
        let m = 1usize << m_rounds; // largest power of two ≤ n
        if m == n {
            let rounds = (0..m_rounds)
                .map(|k| {
                    let partner = rank ^ (1usize << k);
                    RoundPlan {
                        sends: vec![partner],
                        recv_from: vec![partner],
                    }
                })
                .collect();
            return Schedule { n, rank, rounds };
        }
        // Non-power-of-two: pre round + m_rounds exchange rounds + post round.
        let total = m_rounds + 2;
        let mut rounds = vec![RoundPlan::default(); total];
        if rank >= m {
            // Extra rank: announce in the pre-step, wait for the post-step.
            rounds[0].sends = vec![rank - m];
            rounds[total - 1].recv_from = vec![rank - m];
        } else {
            if rank + m < n {
                // Partnered low rank: absorb the extra's announcement first…
                rounds[0].recv_from = vec![rank + m];
                // …and release it at the end.
                rounds[total - 1].sends = vec![rank + m];
            }
            for k in 0..m_rounds {
                let partner = rank ^ (1usize << k);
                rounds[k + 1].sends = vec![partner];
                rounds[k + 1].recv_from = vec![partner];
            }
        }
        Schedule { n, rank, rounds }
    }

    /// Gather-broadcast over a `degree`-ary tree rooted at rank 0 (§5.1,
    /// Fig. 2): leaves combine upward (deepest level first), the root
    /// releases a broadcast downward. `2·D + 1` rounds for tree depth `D`.
    pub fn gather_broadcast(n: usize, rank: usize, degree: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        assert!(degree >= 2, "tree degree must be at least 2");
        if n == 1 {
            return Schedule {
                n,
                rank,
                rounds: Vec::new(),
            };
        }
        let depth_of = |i: usize| -> usize {
            let mut d = 0;
            let mut x = i;
            while x != 0 {
                x = (x - 1) / degree;
                d += 1;
            }
            d
        };
        let max_depth = (0..n).map(depth_of).max().expect("n > 0");
        let my_depth = depth_of(rank);
        let parent = if rank == 0 {
            None
        } else {
            Some((rank - 1) / degree)
        };
        let children: Vec<usize> = (1..=degree)
            .map(|k| degree * rank + k)
            .filter(|&c| c < n)
            .collect();
        // Gather rounds 0..max_depth: a node at depth k sends up in round
        // (max_depth - k); its children (depth k+1) sent in the round
        // before. Broadcast rounds max_depth..2·max_depth+1: a node at depth
        // k sends down in round (max_depth + 1 + k) and received from its
        // parent in round (max_depth + k).
        let total = 2 * max_depth + 1;
        let mut rounds = vec![RoundPlan::default(); total];
        if let Some(p) = parent {
            rounds[max_depth - my_depth].sends = vec![p];
            rounds[max_depth + my_depth].recv_from = vec![p];
        }
        if !children.is_empty() {
            let child_depth = my_depth + 1;
            rounds[max_depth - child_depth].recv_from = children.clone();
            rounds[max_depth + child_depth].sends = children;
        }
        Schedule { n, rank, rounds }
    }

    /// Binomial broadcast tree rooted at `root` (extension collective):
    /// relative rank `q = (rank − root) mod N` receives in round
    /// `⌊log₂ q⌋` from `q − 2^⌊log₂ q⌋` and forwards in later rounds.
    pub fn binomial_broadcast(n: usize, rank: usize, root: usize) -> Schedule {
        assert!(rank < n && root < n, "rank out of range");
        let rounds_total = ceil_log2(n);
        let q = (rank + n - root) % n;
        let abs = |rel: usize| (rel + root) % n;
        let mut rounds = vec![RoundPlan::default(); rounds_total];
        for (m, round) in rounds.iter_mut().enumerate() {
            let d = 1usize << m;
            if q < d && q + d < n {
                round.sends = vec![abs(q + d)];
            }
            if q >= d && q < 2 * d {
                round.recv_from = vec![abs(q - d)];
            }
        }
        Schedule { n, rank, rounds }
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages this rank sends per operation.
    pub fn total_sends(&self) -> usize {
        self.rounds.iter().map(|r| r.sends.len()).sum()
    }

    /// The slot index of `sender` within round `r`'s expected list.
    pub fn recv_slot(&self, r: usize, sender: usize) -> Option<usize> {
        self.rounds[r].recv_from.iter().position(|&s| s == sender)
    }
}

/// ⌈log₂ n⌉ (0 for n ≤ 1).
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// ⌊log₂ n⌋ (0 for n ≤ 1).
pub fn floor_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - 1 - n.leading_zeros()) as usize
    }
}

/// Build all ranks' schedules for a group.
pub fn schedules_for(algo: Algorithm, n: usize) -> Vec<Schedule> {
    (0..n)
        .map(|r| Schedule::for_algorithm(algo, n, r))
        .collect()
}

/// Check global consistency: all ranks agree on the round count, and every
/// `recv_from` entry in round `r` is matched by exactly one `sends` entry of
/// that peer in round `r` (and vice versa). Returns an error description.
pub fn validate(schedules: &[Schedule]) -> Result<(), String> {
    let n = schedules.len();
    if n == 0 {
        return Err("empty group".into());
    }
    let rounds = schedules[0].num_rounds();
    for s in schedules {
        if s.num_rounds() != rounds {
            return Err(format!(
                "rank {} has {} rounds, rank 0 has {rounds}",
                s.rank,
                s.num_rounds()
            ));
        }
        if s.n != n {
            return Err(format!("rank {} built for group size {}", s.rank, s.n));
        }
    }
    for r in 0..rounds {
        for s in schedules {
            for &dst in &s.rounds[r].sends {
                if dst >= n {
                    return Err(format!("rank {} sends to out-of-range {dst}", s.rank));
                }
                if dst == s.rank {
                    return Err(format!("rank {} sends to itself in round {r}", s.rank));
                }
                let matched = schedules[dst].rounds[r]
                    .recv_from
                    .iter()
                    .filter(|&&x| x == s.rank)
                    .count();
                if matched != 1 {
                    return Err(format!(
                        "round {r}: rank {} sends to {dst} but {dst} expects it {matched} times",
                        s.rank
                    ));
                }
            }
            for &src in &s.rounds[r].recv_from {
                let matched = schedules[src].rounds[r]
                    .sends
                    .iter()
                    .filter(|&&x| x == s.rank)
                    .count();
                if matched != 1 {
                    return Err(format!(
                        "round {r}: rank {} expects from {src} but {src} sends it {matched} times",
                        s.rank
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Check the barrier correctness condition: for every pair `(a, b)`, rank
/// `a`'s entry causally precedes rank `b`'s completion. Uses the execution
/// rule (send of round r happens after own entry and all receives < r) to
/// propagate "knowledge sets" round by round.
pub fn disseminates(schedules: &[Schedule]) -> bool {
    let n = schedules.len();
    if n == 0 {
        return false;
    }
    let rounds = schedules[0].num_rounds();
    // knows[i] = set of ranks whose entry causally precedes i's current state.
    let mut knows: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| j == i).collect()).collect();
    for r in 0..rounds {
        // All sends of round r are computed from pre-round knowledge.
        let snapshot = knows.clone();
        for s in schedules {
            for &dst in &s.rounds[r].sends {
                for j in 0..n {
                    if snapshot[s.rank][j] {
                        knows[dst][j] = true;
                    }
                }
            }
        }
    }
    knows.iter().all(|k| k.iter().all(|&b| b))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[usize] = &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 31, 32, 33, 64,
    ];

    #[test]
    fn log_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(7), 2);
        assert_eq!(floor_log2(8), 3);
    }

    #[test]
    fn dissemination_round_count_matches_paper() {
        // "This algorithm takes ⌈log₂N⌉ steps, irrespective of whether N is
        // a power of two or not."
        for &n in SIZES {
            let s = Schedule::dissemination(n, 0);
            assert_eq!(s.num_rounds(), ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn pairwise_exchange_round_count_matches_paper() {
        // log₂N for powers of two, ⌊log₂N⌋ + 2 otherwise.
        for &n in SIZES {
            let s = Schedule::pairwise_exchange(n, 0);
            let expect = if n == 1 {
                0
            } else if n.is_power_of_two() {
                floor_log2(n)
            } else {
                floor_log2(n) + 2
            };
            assert_eq!(s.num_rounds(), expect, "n={n}");
        }
    }

    #[test]
    fn gather_broadcast_round_count() {
        // Depth-2 complete binary tree over 7 ranks: 2*2+1 = 5 rounds.
        let s = Schedule::gather_broadcast(7, 0, 2);
        assert_eq!(s.num_rounds(), 5);
    }

    #[test]
    fn all_schedules_globally_consistent() {
        for &n in SIZES {
            for algo in [
                Algorithm::Dissemination,
                Algorithm::PairwiseExchange,
                Algorithm::GatherBroadcast { degree: 2 },
                Algorithm::GatherBroadcast { degree: 4 },
            ] {
                let all = schedules_for(algo, n);
                validate(&all).unwrap_or_else(|e| panic!("{algo:?} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn all_barrier_schedules_disseminate() {
        for &n in SIZES {
            for algo in [
                Algorithm::Dissemination,
                Algorithm::PairwiseExchange,
                Algorithm::GatherBroadcast { degree: 2 },
                Algorithm::GatherBroadcast { degree: 4 },
            ] {
                let all = schedules_for(algo, n);
                assert!(disseminates(&all), "{algo:?} n={n} is not a barrier");
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_from_any_root() {
        for &n in &[1usize, 2, 3, 5, 8, 13, 16] {
            for root in [0, n / 2, n - 1] {
                let all: Vec<Schedule> = (0..n)
                    .map(|r| Schedule::binomial_broadcast(n, r, root))
                    .collect();
                validate(&all).unwrap_or_else(|e| panic!("bcast n={n} root={root}: {e}"));
                // Reachability from the root only.
                let rounds = all[0].num_rounds();
                let mut has = vec![false; n];
                has[root] = true;
                for r in 0..rounds {
                    let snap = has.clone();
                    for s in &all {
                        if snap[s.rank] {
                            for &d in &s.rounds[r].sends {
                                has[d] = true;
                            }
                        } else {
                            assert!(
                                s.rounds[r].sends.is_empty(),
                                "rank {} forwards before receiving (n={n}, root={root}, r={r})",
                                s.rank
                            );
                        }
                    }
                }
                assert!(has.iter().all(|&x| x), "bcast n={n} root={root} incomplete");
            }
        }
    }

    #[test]
    fn broadcast_message_count_is_n_minus_1() {
        for &n in &[2usize, 3, 5, 8, 13] {
            let total: usize = (0..n)
                .map(|r| Schedule::binomial_broadcast(n, r, 0).total_sends())
                .sum();
            assert_eq!(total, n - 1, "n={n}");
        }
    }

    #[test]
    fn dissemination_messages_per_barrier() {
        // N·⌈log₂N⌉ messages total.
        for &n in &[2usize, 5, 8, 16] {
            let total: usize = schedules_for(Algorithm::Dissemination, n)
                .iter()
                .map(|s| s.total_sends())
                .sum();
            assert_eq!(total, n * ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn pe_extras_have_pre_and_post_steps() {
        // n=6: extras are ranks 4 and 5; they speak only in the pre round
        // and listen only in the post round.
        let s5 = Schedule::pairwise_exchange(6, 5);
        assert_eq!(s5.rounds[0].sends, vec![1]);
        assert!(s5.rounds[0].recv_from.is_empty());
        let last = s5.num_rounds() - 1;
        assert_eq!(s5.rounds[last].recv_from, vec![1]);
        assert!(s5.rounds[last].sends.is_empty());
        // Their partners mirror that.
        let s1 = Schedule::pairwise_exchange(6, 1);
        assert_eq!(s1.rounds[0].recv_from, vec![5]);
        assert_eq!(s1.rounds[last].sends, vec![5]);
    }

    #[test]
    fn recv_slot_lookup() {
        let s = Schedule::gather_broadcast(7, 0, 2);
        // Root gathers from children 1 and 2 in round 1 (depth-2 tree).
        let r = s
            .rounds
            .iter()
            .position(|p| p.recv_from.len() == 2)
            .expect("gather round");
        assert_eq!(s.recv_slot(r, 1), Some(0));
        assert_eq!(s.recv_slot(r, 2), Some(1));
        assert_eq!(s.recv_slot(r, 3), None);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics() {
        Schedule::dissemination(4, 4);
    }
}
