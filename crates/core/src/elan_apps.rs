//! Elan benchmark applications: the chained-RDMA NIC barrier driver, the
//! Elanlib tree barrier (`elan_gsync`) and the hardware barrier
//! (`elan_hgsync`) — the four curves of the paper's Fig. 7. Each runs the
//! §8 closed loop of [`BarrierLog`]; the NIC barrier can also enter several
//! groups per epoch beside an [`ElanStream`] (the contention scenario).

use crate::elan_chain::{chain_done_cookie, ENTRY_EVENT};
use crate::host_app::{BarrierLog, Next};
use crate::traffic::ElanStream;
use nicbar_elan::host::ELAN_SPAN_GROUP;
use nicbar_elan::{
    hw_cookie, ElanApi, ElanApp, EventId, Gsync, GsyncStep, TportTag, BCAST_TAG, BULK_TPORT_TAG,
    GATHER_TAG, GSYNC_MSG_BYTES,
};
use nicbar_net::NodeId;
use std::sync::Arc;

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

/// Elanlib `elan_gsync()` benchmark app: host-driven tree gather-broadcast.
pub struct ElanGsyncApp {
    gsync: Gsync,
    /// Rank → node placement (the tree is built in rank space), one list
    /// shared by every rank.
    members: Arc<[NodeId]>,
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
        let n = members.len();
        ElanGsyncApp {
            gsync: Gsync::new(rank, n, degree),
            members,
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        let step = self.gsync.begin();
        self.issue(api, step);
    }

    fn issue(&mut self, api: &mut ElanApi<'_>, step: GsyncStep) {
        for s in step.sends {
            // Gsync speaks in ranks; translate to the physical placement.
            api.tport_send(self.members[s.dst.0], s.tag, GSYNC_MSG_BYTES);
        }
        if step.done {
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

    fn on_recv(&mut self, api: &mut ElanApi<'_>, _src: NodeId, tag: TportTag, _len: u32) {
        let step = if tag == GATHER_TAG {
            self.gsync.on_gather()
        } else {
            assert_eq!(tag, BCAST_TAG, "unexpected tport tag");
            self.gsync.on_bcast()
        };
        self.issue(api, step);
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
