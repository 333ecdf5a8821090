//! The paper's §8 closed loop ([`BarrierLog`]) and the GM applications
//! that run it: the host-based barrier baselines and the NIC-based barrier
//! driver.
//!
//! Every barrier benchmark app, on either substrate, logs its completions
//! in a [`BarrierLog`], which says whether to re-enter at once, compute
//! first, or stop. The apps differ only in how they enter a barrier.
//!
//! The host-based barrier (the paper's `Host-DS` / `Host-PE` curves) runs
//! the same schedules as the NIC-based protocol, but every message crosses
//! the I/O bus twice and traverses the full point-to-point send path —
//! token queues, packet claim, payload DMA, per-packet ACKs — with the host
//! CPU dispatching every round. The NIC-based driver posts one doorbell per
//! group per barrier and waits for the completion events. Either can run
//! beside a [`GmStream`], the §6.1 bulk traffic.

use crate::schedule::{Algorithm, Schedule};
use crate::traffic::GmStream;
use nicbar_gm::{GmApi, GmApp, GroupId, MsgId, MsgTag, BULK_TAG};
use nicbar_net::NodeId;
use nicbar_sim::{SimRng, SimTime};
use std::sync::Arc;

/// Barrier message payload size (one integer, as in the paper).
pub const BARRIER_MSG_BYTES: u32 = 4;

/// Encode `(epoch, round)` into a GM tag. Epochs are bounded by the
/// benchmark's iteration count, so 24 bits are ample.
pub fn encode_tag(epoch: u64, round: usize) -> MsgTag {
    assert!(epoch < (1 << 24), "epoch too large for tag encoding");
    assert!(round < 256, "round too large for tag encoding");
    let epoch = u32::try_from(epoch).expect("checked by the 24-bit assert above");
    let round = u32::try_from(round).expect("checked by the 8-bit assert above");
    MsgTag((epoch << 8) | round)
}

/// Decode a tag produced by [`encode_tag`].
pub fn decode_tag(tag: MsgTag) -> (u64, usize) {
    ((tag.0 >> 8) as u64, (tag.0 & 0xff) as usize)
}

/// Host-side schedule executor: the same round-frontier rule as the NIC
/// protocol engine, minus payloads and NACKs (GM's point-to-point layer
/// already guarantees reliable ordered delivery to the host).
///
/// Arrivals bank in one bit mask per `(epoch parity, round)`. Banking is
/// one epoch deep, by the induction `PaperCollective` relies on: a peer
/// cannot finish epoch `e + 1` before this rank has sent its epoch-`e + 1`
/// messages, which it does only after finishing `e`, so every arrival is
/// for the current epoch or the next. A round's mask is cleared when the
/// frontier moves past it, ready for the epoch two ahead. The runner
/// allocates nothing after construction.
pub struct HostScheduleRunner {
    schedule: Schedule,
    entered: u64,
    completed: u64,
    live: bool,
    next_send_round: usize,
    /// `banked[(epoch & 1) * rounds + round]`: senders of that round heard
    /// from, by `recv_from` slot.
    banked: Vec<u64>,
    /// What the last `begin` or `on_msg` made issuable.
    sends: Vec<(usize, usize)>,
}

impl HostScheduleRunner {
    /// Build for one rank's schedule.
    pub fn new(schedule: Schedule) -> Self {
        let rounds = schedule.num_rounds();
        let max_sends = schedule.rounds.iter().map(|r| r.sends.len()).sum();
        HostScheduleRunner {
            schedule,
            entered: 0,
            completed: 0,
            live: false,
            next_send_round: 0,
            banked: vec![0; 2 * rounds],
            sends: Vec::with_capacity(max_sends),
        }
    }

    /// Barriers completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Epoch of the most recently entered barrier (valid for tagging the
    /// sends returned by the call that entered or progressed it).
    ///
    /// # Panics
    /// Panics before the first [`HostScheduleRunner::begin`].
    pub fn current_epoch(&self) -> u64 {
        self.entered.checked_sub(1).expect("no barrier entered yet")
    }

    /// The rank's schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The sends the last [`HostScheduleRunner::begin`] or
    /// [`HostScheduleRunner::on_msg`] made issuable, as `(destination rank,
    /// round)`, in issue order.
    pub fn sends(&self) -> &[(usize, usize)] {
        &self.sends
    }

    /// Enter the next barrier; its initially issuable sends are in
    /// [`HostScheduleRunner::sends`]. Returns true if the barrier completed
    /// immediately (trivial schedules or fully banked arrivals).
    pub fn begin(&mut self) -> bool {
        assert!(!self.live, "re-entered barrier before completion");
        self.live = true;
        self.next_send_round = 0;
        self.entered += 1;
        self.sends.clear();
        self.progress()
    }

    /// Feed an arrival. Its newly issuable sends are in
    /// [`HostScheduleRunner::sends`]; returns whether the current barrier
    /// completed.
    pub fn on_msg(&mut self, epoch: u64, round: usize, from_rank: usize) -> bool {
        self.sends.clear();
        let slot = self
            .schedule
            .recv_slot(round, from_rank)
            .unwrap_or_else(|| panic!("unexpected sender {from_rank} in round {round}"));
        assert!(
            epoch <= self.entered,
            "arrival for epoch {epoch} more than one epoch ahead of {}",
            self.entered
        );
        let current = epoch + 1 == self.entered;
        if epoch < self.completed || (current && round + 1 < self.next_send_round) {
            return false; // duplicate of a round already passed
        }
        let at = self.bank_index(epoch, round);
        let mask = &mut self.banked[at];
        if *mask & (1 << slot) != 0 {
            return false; // duplicate
        }
        *mask |= 1 << slot;
        self.live && current && self.progress()
    }

    fn bank_index(&self, epoch: u64, round: usize) -> usize {
        usize::from(epoch & 1 == 1) * self.schedule.num_rounds() + round
    }

    fn round_satisfied(&self, epoch: u64, round: usize) -> bool {
        let expected = self.schedule.rounds[round].recv_from.len();
        if expected == 0 {
            return true;
        }
        let full = (1u64 << expected) - 1;
        self.banked[self.bank_index(epoch, round)] & full == full
    }

    /// Advance the frontier as far as banked arrivals allow, appending the
    /// sends it passes to `sends`; returns whether the barrier completed.
    fn progress(&mut self) -> bool {
        let epoch = self.entered - 1;
        loop {
            let r = self.next_send_round;
            if r > 0 && !self.round_satisfied(epoch, r - 1) {
                return false;
            }
            if r > 0 {
                let at = self.bank_index(epoch, r - 1);
                self.banked[at] = 0;
            }
            if r == self.schedule.num_rounds() {
                self.live = false;
                self.completed = epoch + 1;
                return true;
            }
            for &dst in &self.schedule.rounds[r].sends {
                self.sends.push((dst, r));
            }
            self.next_send_round = r + 1;
        }
    }
}

/// The paper's §8 closed loop and its measurement record: a process runs
/// `iters` consecutive barriers and re-enters as soon as one completes or,
/// with compute skew, after a compute phase drawn uniformly from
/// `[0, skew_us)`. Every barrier benchmark app logs its completions here
/// and asks `complete` what to do next.
#[derive(Clone, Debug)]
pub struct BarrierLog {
    /// Completion time of each epoch, in order.
    pub completions: Vec<SimTime>,
    iters: u64,
    skew_us: f64,
}

/// What a process does after a barrier completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Next {
    /// Enter the next barrier now (the paper's tight loop).
    Enter,
    /// Compute for this long, then enter from the timer.
    Compute(SimTime),
    /// The last barrier completed.
    Stop,
}

impl BarrierLog {
    /// A loop of `iters` barriers with up to `skew_us` of compute before
    /// each re-entry (0 = the paper's tight loop). Room for every
    /// completion is reserved up front, so steady-state pushes never
    /// reallocate (the zero-allocation gate measures the run).
    pub fn new(iters: u64, skew_us: f64) -> Self {
        BarrierLog {
            completions: Vec::with_capacity(
                usize::try_from(iters).expect("iteration count exceeds usize"),
            ),
            iters,
            skew_us,
        }
    }

    /// Whether barriers remain. A bulk stream replenishes only while this
    /// holds.
    pub(crate) fn running(&self) -> bool {
        (self.completions.len() as u64) < self.iters
    }

    /// Log a completion at `now` and say what comes next. The compute
    /// phase is drawn from `rng` only when `skew_us > 0`, and a drawn phase
    /// always goes through the timer, however short.
    pub(crate) fn complete(&mut self, now: SimTime, rng: &mut SimRng) -> Next {
        self.completions.push(now);
        if !self.running() {
            Next::Stop
        } else if self.skew_us > 0.0 {
            Next::Compute(SimTime::from_us(rng.range_f64(0.0, self.skew_us)))
        } else {
            Next::Enter
        }
    }
}

/// The host-based barrier benchmark application (`Host-DS` / `Host-PE`),
/// optionally beside a bulk stream.
pub struct HostBarrierApp {
    runner: HostScheduleRunner,
    /// Rank → node placement, one list shared by every rank of the group.
    members: Arc<[NodeId]>,
    stream: Option<GmStream>,
    /// Measurements.
    pub log: BarrierLog,
}

impl HostBarrierApp {
    /// Build for `rank` of a group over `members` (rank order), running
    /// `iters` consecutive barriers with `algo` beside `stream`, if any.
    pub fn new(
        algo: Algorithm,
        members: impl Into<Arc<[NodeId]>>,
        rank: usize,
        iters: u64,
        skew_us: f64,
        stream: Option<GmStream>,
    ) -> Self {
        let members = members.into();
        let schedule = Schedule::for_algorithm(algo, members.len(), rank);
        HostBarrierApp {
            runner: HostScheduleRunner::new(schedule),
            members,
            stream,
            log: BarrierLog::new(iters, skew_us),
        }
    }

    /// The rank → node placement this app sends by.
    #[cfg(test)]
    pub(crate) fn members(&self) -> &Arc<[NodeId]> {
        &self.members
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        let done = self.runner.begin();
        self.issue(api, done);
    }

    /// Post the runner's pending sends, then, if the barrier completed,
    /// log it and go on.
    fn issue(&mut self, api: &mut GmApi<'_>, done: bool) {
        let epoch = self.runner.current_epoch();
        for &(dst_rank, round) in self.runner.sends() {
            api.send(
                self.members[dst_rank],
                BARRIER_MSG_BYTES,
                encode_tag(epoch, round),
            );
        }
        if done {
            match self.log.complete(api.now(), api.rng()) {
                Next::Enter => self.enter(api),
                Next::Compute(d) => api.set_timer(d),
                Next::Stop => {}
            }
        }
    }
}

impl GmApp for HostBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(stream) = &mut self.stream {
            stream.start(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, _len: u32) {
        if tag == BULK_TAG {
            return;
        }
        let (epoch, round) = decode_tag(tag);
        // The sender is one of the round's expected senders (one under
        // dissemination): look there, not through the member list.
        let from_rank = self.runner.schedule().rounds[round]
            .recv_from
            .iter()
            .copied()
            .find(|&rank| self.members[rank] == src)
            .unwrap_or_else(|| panic!("unexpected sender {src:?} in round {round}"));
        let done = self.runner.on_msg(epoch, round, from_rank);
        self.issue(api, done);
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        if let Some(stream) = &mut self.stream {
            stream.on_send_done(api, msg_id, self.log.running());
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// The NIC-based barrier benchmark application: one doorbell per group per
/// barrier, optionally beside a bulk stream.
pub struct NicBarrierApp {
    /// Groups entered each epoch, in entry order; an epoch completes when
    /// all of them have.
    groups: Vec<GroupId>,
    /// Groups still outstanding in the current epoch.
    pending: usize,
    /// Boxed: most runs stream nothing, and every build allocates one app
    /// per node.
    stream: Option<Box<GmStream>>,
    /// Measurements.
    pub log: BarrierLog,
}

impl NicBarrierApp {
    /// Run `iters` consecutive NIC-based barriers on `group`.
    pub fn new(group: GroupId, iters: u64, skew_us: f64) -> Self {
        Self::on_groups(vec![group], None, iters, skew_us)
    }

    /// Run `iters` epochs, each entering every group of `groups` in order,
    /// beside `stream`, if any.
    pub fn on_groups(
        groups: Vec<GroupId>,
        stream: Option<GmStream>,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        NicBarrierApp {
            groups,
            pending: 0,
            stream: stream.map(Box::new),
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.pending = self.groups.len();
        for &g in &self.groups {
            api.collective(g, 0);
        }
    }
}

impl GmApp for NicBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(stream) = &mut self.stream {
            stream.start(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, tag: MsgTag, _len: u32) {
        assert_eq!(
            tag, BULK_TAG,
            "NIC-barrier app received a barrier point-to-point message"
        );
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        if let Some(stream) = &mut self.stream {
            stream.on_send_done(api, msg_id, self.log.running());
        }
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, _value: u64) {
        assert!(self.groups.contains(&group), "completion for foreign group");
        assert_eq!(
            epoch,
            self.log.completions.len() as u64,
            "completions out of order"
        );
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        match self.log.complete(api.now(), api.rng()) {
            Next::Enter => self.enter(api),
            Next::Compute(d) => api.set_timer(d),
            Next::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// A driver for the extension collectives: performs `iters` operations,
/// recording completion values (`on_coll_done`'s result word).
pub struct CollOpApp {
    group: GroupId,
    iters: u64,
    /// Contribution for each epoch (indexed by epoch).
    contributions: Vec<u64>,
    /// `(completion time, result value)` per epoch.
    pub results: Vec<(SimTime, u64)>,
}

impl CollOpApp {
    /// Run `iters` operations contributing `contributions[epoch]` each time.
    pub fn new(group: GroupId, contributions: Vec<u64>) -> Self {
        CollOpApp {
            group,
            iters: contributions.len() as u64,
            contributions,
            results: Vec::new(),
        }
    }
}

impl GmApp for CollOpApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if self.iters > 0 {
            api.collective(self.group, self.contributions[0]);
        }
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("collective app received a point-to-point message");
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, _group: GroupId, epoch: u64, value: u64) {
        self.results.push((api.now(), value));
        let next = epoch + 1;
        if next < self.iters {
            let next = usize::try_from(next).expect("iteration count exceeds usize");
            api.collective(self.group, self.contributions[next]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for (epoch, round) in [(0, 0), (99_999, 7), (123_456, 7), ((1 << 24) - 1, 255)] {
            assert_eq!(decode_tag(encode_tag(epoch, round)), (epoch, round));
        }
    }

    #[test]
    fn closed_loop_reenters_computes_then_stops() {
        let mut rng = SimRng::new(1);
        let t = SimTime::from_us(1.0);
        let mut tight = BarrierLog::new(2, 0.0);
        assert!(tight.running());
        assert_eq!(tight.complete(t, &mut rng), Next::Enter);
        assert_eq!(tight.complete(t, &mut rng), Next::Stop);
        assert!(!tight.running());
        let mut skewed = BarrierLog::new(3, 2.0);
        for _ in 0..2 {
            let Next::Compute(d) = skewed.complete(t, &mut rng) else {
                panic!("a skewed loop computes before re-entering");
            };
            assert!(d < SimTime::from_us(2.0));
        }
        assert_eq!(skewed.complete(t, &mut rng), Next::Stop);
        assert_eq!(skewed.completions, vec![t; 3]);
    }

    #[test]
    #[should_panic(expected = "epoch too large")]
    fn tag_overflow_rejected() {
        encode_tag(1 << 24, 0);
    }

    #[test]
    fn runner_walks_dissemination_rounds() {
        // rank 0 of 4: sends to 1 then 2; receives from 3 then 2.
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        assert!(!r.begin());
        assert_eq!(r.sends(), &[(1, 0)]);
        assert!(!r.on_msg(0, 0, 3));
        assert_eq!(r.sends(), &[(2, 1)]);
        assert!(r.on_msg(0, 1, 2));
        assert!(r.sends().is_empty());
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn runner_banks_early_next_epoch_messages() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(2, 0));
        assert!(!r.begin());
        // Peer races: both its epoch-0 and epoch-1 messages arrive.
        assert!(r.on_msg(0, 0, 1));
        let done = r.on_msg(1, 0, 1);
        assert!(
            r.sends().is_empty() && !done,
            "future epoch banked, not applied"
        );
        // Entering epoch 1 releases it immediately.
        assert!(r.begin());
        assert_eq!(r.sends().len(), 1);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn runner_ignores_duplicates() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        r.begin();
        r.on_msg(0, 0, 3);
        assert_eq!(r.sends().len(), 1);
        let done = r.on_msg(0, 0, 3);
        assert!(r.sends().is_empty() && !done);
        // A duplicate of a passed round is not banked for the epoch two
        // ahead, which shares its parity: epoch 2 still waits for it.
        r.on_msg(0, 1, 2);
        r.begin();
        r.on_msg(1, 0, 3);
        r.on_msg(1, 1, 2);
        assert!(!r.begin());
        assert_eq!(r.sends(), &[(1, 0)]);
        assert!(!r.on_msg(2, 1, 2), "round 1 banked, round 0 still open");
        assert!(r.on_msg(2, 0, 3));
        assert_eq!(r.completed(), 3);
    }

    /// Epochs alternate between the two banks for thousands of barriers,
    /// with every peer message a barrier early, and the runner never
    /// allocates past construction (its buffers keep their capacity).
    #[test]
    fn runner_reuses_its_banks_epoch_after_epoch() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(8, 0));
        let capacity = (r.banked.capacity(), r.sends.capacity());
        for epoch in 0..5_000u64 {
            let from = [7, 6, 4];
            // Round 0's arrival comes before entry, the rest after.
            assert!(!r.on_msg(epoch, 0, from[0]));
            assert!(!r.begin());
            assert_eq!(r.sends(), &[(1, 0), (2, 1)]);
            assert!(!r.on_msg(epoch, 1, from[1]));
            assert_eq!(r.sends(), &[(4, 2)]);
            assert!(r.on_msg(epoch, 2, from[2]));
            assert_eq!(r.completed(), epoch + 1);
        }
        assert_eq!((r.banked.capacity(), r.sends.capacity()), capacity);
        assert!(r.banked.iter().all(|&m| m == 0));
    }

    #[test]
    #[should_panic(expected = "more than one epoch ahead")]
    fn runner_rejects_arrivals_two_epochs_ahead() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        r.begin();
        r.on_msg(2, 0, 3);
    }

    #[test]
    fn trivial_single_rank_barrier() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(1, 0));
        assert!(r.begin());
        assert!(r.sends().is_empty());
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn runner_rejects_reentry() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        let _ = r.begin();
        let _ = r.begin();
    }
}
