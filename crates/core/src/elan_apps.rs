//! Elan benchmark applications: the chained-RDMA NIC barrier driver, the
//! Elanlib tree barrier (`elan_gsync`) and the hardware barrier
//! (`elan_hgsync`) — the four curves of the paper's Fig. 7. Each runs the
//! §8 closed loop of [`BarrierLog`]; the NIC barrier can also enter several
//! groups per epoch beside an [`ElanStream`] (the contention scenario).
//!
//! The Elanlib tree runs the NIC's own engine on the host: the
//! `GatherBroadcast` schedule in a [`crate::protocol::PaperCollective`],
//! its messages carried as tagged tport sends.

use crate::elan_chain::{chain_done_cookie, ENTRY_EVENT};
use crate::host_app::{BarrierLog, GroupEngine, Next};
use crate::protocol::GroupOp;
use crate::schedule::{Algorithm, Schedule};
use crate::traffic::ElanStream;
use nicbar_elan::host::ELAN_SPAN_GROUP;
use nicbar_elan::{hw_cookie, ElanApi, ElanApp, EventId, TportTag, BULK_TPORT_TAG};
use nicbar_gm::CollKind;
use nicbar_net::NodeId;
use std::sync::Arc;

/// Tag of an `elan_gsync` gather (up-tree) message.
pub const GATHER_TAG: TportTag = TportTag(0xE1A0);
/// Tag of an `elan_gsync` release (down-tree) message.
pub const BCAST_TAG: TportTag = TportTag(0xE1A1);
/// Payload size of an `elan_gsync` message (one synchronization word).
pub const GSYNC_MSG_BYTES: u32 = 4;

/// NIC-based barrier over chained RDMA (paper §7): the host sets each
/// group's entry event once per barrier and waits for the done
/// notifications, optionally beside a bulk stream.
pub struct ElanNicBarrierApp {
    /// `(group, entry event)` per group, in entry order; an epoch
    /// completes when every group's chain has.
    entries: Vec<(u64, EventId)>,
    /// Groups still outstanding in the current epoch.
    pending: usize,
    stream: Option<ElanStream>,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanNicBarrierApp {
    /// Run `iters` consecutive barriers on the one-group chain of
    /// [`crate::elan_chain::build_chains`].
    pub fn new(iters: u64, skew_us: f64) -> Self {
        Self::on_groups(vec![(ELAN_SPAN_GROUP, ENTRY_EVENT)], None, iters, skew_us)
    }

    /// Run `iters` epochs, each setting every entry event of `entries` in
    /// order (group `g` of a [`crate::elan_chain::build_chains_multi`]
    /// program completes with `chain_done_cookie(g)`), beside `stream`, if
    /// any.
    pub fn on_groups(
        entries: Vec<(u64, EventId)>,
        stream: Option<ElanStream>,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        ElanNicBarrierApp {
            entries,
            pending: 0,
            stream,
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        self.pending = self.entries.len();
        for &(group, event) in &self.entries {
            api.set_nic_event_for_group(event, group);
        }
    }
}

impl ElanApp for ElanNicBarrierApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        if let Some(stream) = &self.stream {
            stream.start(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, _src: NodeId, tag: TportTag, _len: u32) {
        assert_eq!(tag, BULK_TPORT_TAG, "NIC-barrier app got a barrier tport");
        if let Some(stream) = &self.stream {
            stream.on_recv(api, self.log.running());
        }
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert!(
            (0..self.entries.len() as u64).any(|g| chain_done_cookie(g) == cookie),
            "unexpected cookie {cookie:#x}"
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

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }
}

/// Elanlib `elan_gsync()` benchmark app: the host runs the
/// gather-broadcast tree schedule (§4.1, Fig. 2) and sends each message as
/// a tagged tport message, so the host is on the critical path at every
/// tree level.
pub struct ElanGsyncApp {
    group: GroupEngine,
    /// The round that hears this rank's children's gathers (none at a
    /// leaf) and the round that hears its parent's release (none at the
    /// root). Sends before the release round go up the tree.
    gather_round: Option<usize>,
    release_round: Option<usize>,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanGsyncApp {
    /// Run `iters` consecutive `elan_gsync` barriers for `rank` of the
    /// group placed on `members` (rank order), with a `degree`-ary tree.
    pub fn new(
        rank: usize,
        members: impl Into<Arc<[NodeId]>>,
        degree: usize,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        let members = members.into();
        let schedule = Schedule::gather_broadcast(members.len(), rank, degree);
        // Of the ranks this one hears, only its parent ranks lower: the
        // parent's release comes in one round, every child's gather in
        // another.
        let hearing = |parent: bool| {
            schedule.rounds.iter().position(|plan| {
                plan.recv_from
                    .first()
                    .is_some_and(|&from| (from < rank) == parent)
            })
        };
        let algo = Algorithm::GatherBroadcast { degree };
        ElanGsyncApp {
            gather_round: hearing(false),
            release_round: hearing(true),
            group: GroupEngine::new(members, rank, GroupOp::Barrier, algo),
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        self.group.enter(api.now(), 0);
        self.issue(api);
    }

    /// Send the engine's pending messages, then, if the barrier completed,
    /// log it and go on.
    fn issue(&mut self, api: &mut ElanApi<'_>) {
        let release_round = self.release_round;
        let done = self.group.relay(|dst, pkt| {
            let up = release_round.is_some_and(|r| usize::from(pkt.round) < r);
            let tag = if up { GATHER_TAG } else { BCAST_TAG };
            api.tport_send(dst, tag, GSYNC_MSG_BYTES);
        });
        if done.is_some() {
            match self.log.complete(api.now(), api.rng()) {
                Next::Enter => self.enter(api),
                Next::Compute(d) => api.set_timer(d),
                Next::Stop => {}
            }
        }
    }
}

impl ElanApp for ElanGsyncApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, src: NodeId, tag: TportTag, _len: u32) {
        let round = if tag == GATHER_TAG {
            self.gather_round
        } else {
            assert_eq!(tag, BCAST_TAG, "unexpected tport tag");
            self.release_round
        };
        let round = round.unwrap_or_else(|| panic!("{tag:?} from {src:?} has no round here"));
        // Tports carry no epoch, and none is needed: in a tree every
        // arrival belongs to the first epoch this rank has not completed.
        // A child's next gather needs this rank's release, and the
        // parent's next release needs this rank's next gather.
        let epoch = self.group.completed();
        self.group
            .arrive(api.now(), src, epoch, round, CollKind::Barrier);
        self.issue(api);
    }

    fn on_coll_done(&mut self, _api: &mut ElanApi<'_>, cookie: u64) {
        panic!("gsync app got a NIC completion (cookie {cookie:#x})");
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }
}

/// Hardware barrier (`elan_hgsync` fast path) benchmark app.
pub struct ElanHwBarrierApp {
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanHwBarrierApp {
    /// Run `iters` consecutive hardware barriers.
    pub fn new(iters: u64, skew_us: f64) -> Self {
        ElanHwBarrierApp {
            log: BarrierLog::new(iters, skew_us),
        }
    }
}

impl ElanApp for ElanHwBarrierApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        api.hw_sync();
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        let epoch = self.log.completions.len() as u64;
        assert_eq!(cookie, hw_cookie(epoch), "hw epochs out of order");
        match self.log.complete(api.now(), api.rng()) {
            Next::Enter => api.hw_sync(),
            Next::Compute(d) => api.set_timer(d),
            Next::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        api.hw_sync();
    }
}
