//! End-to-end tests of the Elan substrate: chained RDMA descriptors,
//! banked event sets and the hardware barrier. The Elanlib tree barrier,
//! which runs over tports, is `nicbar-core`'s and is tested there.
#![allow(clippy::unwrap_used)] // test code: panicking on bad state is the point

use nicbar_elan::host::ELAN_SPAN_GROUP;
use nicbar_elan::{
    hw_cookie, DescId, ElanApi, ElanApp, ElanCluster, ElanClusterSpec, ElanNic, ElanParams,
    EventAction, EventId, NicProgram, RdmaDesc,
};
use nicbar_net::NodeId;
use nicbar_sim::{RunOutcome, SimTime};

/// App that fires descriptor 0 at start and records completion cookies.
struct ChainDriver {
    fire_at_start: bool,
    cookies: Vec<(SimTime, u64)>,
}

impl ElanApp for ChainDriver {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        if self.fire_at_start {
            api.doorbell(DescId(0));
        }
    }
    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        self.cookies.push((api.now(), cookie));
    }
}

/// A zero-byte RDMA to `dst` that sets event 0 there.
fn event_fire(dst: NodeId) -> RdmaDesc {
    RdmaDesc {
        dst,
        bytes: 0,
        remote_event: Some(EventId(0)),
        local_event: None,
    }
}

#[test]
fn two_node_rdma_chain_ping_pong() {
    // Node 0: desc0 -> remote event at node 1; node 1's event fires its
    // desc0 back to node 0; node 0's event notifies the host. One full
    // chained round trip with zero host involvement in the middle.
    let spec = ElanClusterSpec::new(ElanParams::elan3(), 2);
    let mut prog0 = NicProgram::default();
    prog0.desc(event_fire(NodeId(1)), ELAN_SPAN_GROUP);
    prog0.event(
        1,
        ELAN_SPAN_GROUP,
        &[EventAction::NotifyHost { cookie: 42 }],
    );
    let mut prog1 = NicProgram::default();
    prog1.desc(event_fire(NodeId(0)), ELAN_SPAN_GROUP);
    prog1.event(1, ELAN_SPAN_GROUP, &[EventAction::FireDesc(DescId(0))]);
    let apps: Vec<Box<dyn ElanApp>> = vec![
        Box::new(ChainDriver {
            fire_at_start: true,
            cookies: Vec::new(),
        }),
        Box::new(ChainDriver {
            fire_at_start: false,
            cookies: Vec::new(),
        }),
    ];
    let mut cluster = ElanCluster::build(spec, apps, vec![prog0, prog1]);
    let outcome = cluster.run_until(SimTime::from_us(1_000.0));
    assert_eq!(outcome, RunOutcome::Idle);
    let driver = cluster.app_ref::<ChainDriver>(0);
    assert_eq!(driver.cookies.len(), 1);
    assert_eq!(driver.cookies[0].1, 42);
    let rtt = driver.cookies[0].0.as_us();
    // A chained zero-byte RDMA round trip on Elan3 is a handful of µs.
    assert!(
        (1.0..10.0).contains(&rtt),
        "chained RTT {rtt:.2}us implausible"
    );
    assert_eq!(cluster.engine.counters().get("elan.rdma_sent"), 2);
}

#[test]
fn banked_event_sets_survive_fast_sender() {
    // Node 0 fires its descriptor 3 times back-to-back; node 1's event has
    // threshold 1 and notifies its host each trip — all three must arrive.
    struct TripleFire;
    impl ElanApp for TripleFire {
        fn on_start(&mut self, api: &mut ElanApi<'_>) {
            api.doorbell(DescId(0));
            api.doorbell(DescId(0));
            api.doorbell(DescId(0));
        }
        fn on_coll_done(&mut self, _api: &mut ElanApi<'_>, _cookie: u64) {}
    }
    let spec = ElanClusterSpec::new(ElanParams::elan3(), 2);
    let mut prog0 = NicProgram::default();
    prog0.desc(event_fire(NodeId(1)), ELAN_SPAN_GROUP);
    let mut prog1 = NicProgram::default();
    prog1.event(1, ELAN_SPAN_GROUP, &[EventAction::NotifyHost { cookie: 7 }]);
    let apps: Vec<Box<dyn ElanApp>> = vec![
        Box::new(TripleFire),
        Box::new(ChainDriver {
            fire_at_start: false,
            cookies: Vec::new(),
        }),
    ];
    let mut cluster = ElanCluster::build(spec, apps, vec![prog0, prog1]);
    cluster.run_until(SimTime::from_us(1_000.0));
    assert_eq!(cluster.app_ref::<ChainDriver>(1).cookies.len(), 3);
    // NIC-side event state agrees.
    let nic1 = cluster.nics[1];
    let ev = cluster
        .engine
        .component_ref::<ElanNic>(nic1)
        .unwrap()
        .event(EventId(0));
    assert_eq!(ev.sets, 3);
    assert_eq!(ev.threshold, 4);
}

/// Hardware-barrier benchmark app.
struct HwApp {
    iters: u64,
    done: u64,
    finish: Option<SimTime>,
}

impl ElanApp for HwApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        api.hw_sync();
    }
    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert_eq!(cookie, hw_cookie(self.done));
        self.done += 1;
        if self.done >= self.iters {
            self.finish = Some(api.now());
        } else {
            api.hw_sync();
        }
    }
}

#[test]
fn hardware_barrier_is_flat_and_fast() {
    let latency = |n: usize| -> f64 {
        let iters = 100;
        let spec = ElanClusterSpec::new(ElanParams::elan3(), n)
            .with_seed(4)
            .with_hw_barrier();
        let apps: Vec<Box<dyn ElanApp>> = (0..n)
            .map(|_| {
                Box::new(HwApp {
                    iters,
                    done: 0,
                    finish: None,
                }) as Box<dyn ElanApp>
            })
            .collect();
        let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); n]);
        assert_eq!(
            cluster.run_until(SimTime::from_us(1_000_000.0)),
            RunOutcome::Idle
        );
        let t = (0..n)
            .map(|i| cluster.app_ref::<HwApp>(i).finish.unwrap())
            .max()
            .unwrap();
        t.as_us() / iters as f64
    };
    let l2 = latency(2);
    let l8 = latency(8);
    // Paper: elan_hgsync ≈ 4.2 µs at 8 nodes, nearly flat in N.
    assert!((3.0..6.0).contains(&l8), "hw barrier {l8:.2}us at 8 nodes");
    assert!(
        (l8 - l2).abs() < 1.5,
        "hw barrier should be nearly flat: {l2:.2} vs {l8:.2}"
    );
}

/// The hardware barrier's synchronization caveat (§4.1): skewed arrivals
/// make the test-and-set wave retry, growing its latency — the reason
/// Elanlib falls back to the software tree for poorly synchronized
/// processes.
#[test]
fn hardware_barrier_pays_for_skewed_arrivals() {
    struct SkewedHw {
        delay_us: f64,
        iters: u64,
        done: u64,
        finish: Option<SimTime>,
        started: bool,
    }
    impl ElanApp for SkewedHw {
        fn on_start(&mut self, api: &mut ElanApi<'_>) {
            if self.delay_us > 0.0 {
                self.started = false;
                api.set_timer(SimTime::from_us(self.delay_us));
            } else {
                api.hw_sync();
            }
        }
        fn on_timer(&mut self, api: &mut ElanApi<'_>) {
            if !self.started {
                self.started = true;
                api.hw_sync();
            } else {
                api.hw_sync();
            }
        }
        fn on_coll_done(&mut self, api: &mut ElanApi<'_>, _cookie: u64) {
            self.done += 1;
            if self.done >= self.iters {
                self.finish = Some(api.now());
            } else if self.delay_us > 0.0 {
                api.set_timer(SimTime::from_us(self.delay_us));
            } else {
                api.hw_sync();
            }
        }
    }
    let latency = |skew: f64| -> f64 {
        let iters = 50;
        let spec = ElanClusterSpec::new(ElanParams::elan3(), 8)
            .with_seed(13)
            .with_hw_barrier();
        // Node 7 lags every barrier by `skew` µs.
        let apps: Vec<Box<dyn ElanApp>> = (0..8)
            .map(|i| {
                Box::new(SkewedHw {
                    delay_us: if i == 7 { skew } else { 0.0 },
                    iters,
                    done: 0,
                    finish: None,
                    started: false,
                }) as Box<dyn ElanApp>
            })
            .collect();
        let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); 8]);
        cluster.run_until(SimTime::from_us(10_000_000.0));
        let t = (0..8)
            .map(|i| cluster.app_ref::<SkewedHw>(i).finish.unwrap())
            .max()
            .unwrap();
        t.as_us() / iters as f64
    };
    let tight = latency(0.0);
    let skewed = latency(10.0);
    // The skewed run pays the laggard's 10 µs *plus* the retry penalty
    // (hw_skew_factor × spread): clearly more than tight + 10.
    assert!(
        skewed > tight + 10.0 + 3.0,
        "skew penalty missing: tight {tight:.2}, skewed {skewed:.2}"
    );
}
