//! Raw discrete-event-engine throughput: events per second through the
//! scheduler. A regression here slows every simulation in the workspace.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nicbar_sim::{Component, ComponentId, Ctx, Engine, SimTime};

const EVENTS: u64 = 100_000;
/// Concurrent tokens in the `flows` workload — the steady queue depth the
/// figure simulations actually run at.
const FLOW_TOKENS: usize = 64;

enum Msg {
    Hop(u64),
}

/// Bounces an event around a ring of components until the hop budget runs
/// out — a pure scheduler workload.
struct RingHop {
    next: ComponentId,
    stride: u64,
}

impl Component<Msg> for RingHop {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Hop(remaining) = msg;
        if remaining > 0 {
            ctx.send(
                SimTime::from_ns(self.stride),
                self.next,
                Msg::Hop(remaining - 1),
            );
        }
    }
}

fn ring_hop() -> u64 {
    let mut engine: Engine<Msg> = Engine::new(0);
    let ids: Vec<ComponentId> = (0..16).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 10,
            },
        );
    }
    engine.schedule_at(SimTime::ZERO, ids[0], Msg::Hop(EVENTS));
    engine.run();
    engine.events_processed()
}

/// `FLOW_TOKENS` tokens circulating at staggered strides: sustained queue
/// depth of `FLOW_TOKENS`.
fn flows() -> u64 {
    let mut engine: Engine<Msg> = Engine::new(0);
    let ids: Vec<ComponentId> = (0..FLOW_TOKENS).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 5 + (i as u64 % 13),
            },
        );
    }
    for (i, &id) in ids.iter().enumerate() {
        engine.schedule_at(
            SimTime::from_ns(i as u64),
            id,
            Msg::Hop(EVENTS / FLOW_TOKENS as u64),
        );
    }
    engine.run();
    engine.events_processed()
}

// A fan-out heavy workload: every event schedules 4 children until a depth
// budget is hit (heap-pressure profile).
struct FanOut;
enum FMsg {
    Spawn(u32),
}
impl Component<FMsg> for FanOut {
    fn handle(&mut self, msg: FMsg, ctx: &mut Ctx<'_, FMsg>) {
        let FMsg::Spawn(depth) = msg;
        if depth > 0 {
            for k in 0..4u64 {
                ctx.send_self(SimTime::from_ns(10 + k), FMsg::Spawn(depth - 1));
            }
        }
    }
}

fn fanout() -> u64 {
    let mut engine: Engine<FMsg> = Engine::new(0);
    let id = engine.add(FanOut);
    engine.schedule_at(SimTime::ZERO, id, FMsg::Spawn(8));
    engine.run();
    engine.events_processed()
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("ring_hop_100k_events", |b| b.iter(ring_hop));
    g.bench_function("flows_64_tokens", |b| b.iter(flows));
    g.bench_function("fanout_4^8_events", |b| b.iter(fanout));
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
