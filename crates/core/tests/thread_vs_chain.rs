//! The §7 design choice, measured: chained RDMA descriptors vs a NIC
//! thread for the barrier, and the thread-based allreduce that chains
//! cannot express.

use nicbar_core::{Algorithm, Barrier, BarrierStats, ReduceOp, RunCfg, Scenario};
use nicbar_elan::ElanParams;

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 20,
        iters: 300,
        ..RunCfg::default()
    }
}

/// Run a thread allreduce on `n` Elan3 nodes: its statistics plus every
/// rank's per-epoch results.
fn allreduce(
    n: usize,
    cfg: &RunCfg,
    op: ReduceOp,
    contribution: fn(usize, u64) -> u64,
) -> (BarrierStats, Vec<Vec<u64>>) {
    let barrier = Barrier::ThreadAllreduce(op, contribution);
    let mut sim = Scenario::elan(ElanParams::elan3(), n, barrier).build(cfg);
    sim.drain();
    (sim.stats(), sim.thread_results())
}

#[test]
fn thread_barrier_completes_and_is_correct() {
    for n in [2usize, 3, 5, 8] {
        let s = Scenario::elan(ElanParams::elan3(), n, Barrier::ThreadBarrier).run(&cfg());
        assert!(
            s.mean_us > 1.0 && s.mean_us < 25.0,
            "n={n}: {:.2}µs",
            s.mean_us
        );
    }
}

#[test]
fn chained_descriptors_beat_the_thread_barrier() {
    // "an extra thread does increase the processing load to the Elan NIC"
    // (§7) — the reason the paper chose chains. Quantified: the thread
    // barrier must be measurably slower at every size.
    for n in [2usize, 4, 8, 16] {
        let chain = Scenario::elan(
            ElanParams::elan3(),
            n,
            Barrier::Nic(Algorithm::Dissemination),
        )
        .run(&cfg());
        let thread = Scenario::elan(ElanParams::elan3(), n, Barrier::ThreadBarrier).run(&cfg());
        assert!(
            thread.mean_us > chain.mean_us * 1.1,
            "n={n}: thread {:.2}µs should clearly exceed chain {:.2}µs",
            thread.mean_us,
            chain.mean_us
        );
        assert!(
            thread.mean_us < chain.mean_us * 2.0,
            "n={n}: thread {:.2}µs implausibly worse than chain {:.2}µs",
            thread.mean_us,
            chain.mean_us
        );
    }
}

#[test]
fn thread_allreduce_computes_sums() {
    let (stats, results) = allreduce(8, &cfg(), ReduceOp::Sum, |rank, epoch| {
        (rank as u64 + 1) * (epoch + 1)
    });
    assert!(stats.mean_us > 1.0);
    let total = cfg().total();
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r.len() as u64, total, "rank {rank}");
        for (e, &v) in r.iter().enumerate() {
            assert_eq!(v, 36 * (e as u64 + 1), "rank {rank}, epoch {e}");
        }
    }
}

#[test]
fn thread_allreduce_max_any_size() {
    let cfg = RunCfg {
        warmup: 2,
        iters: 20,
        ..RunCfg::default()
    };
    let (_, results) = allreduce(6, &cfg, ReduceOp::Max, |rank, epoch| {
        100 * epoch + rank as u64
    });
    for r in &results {
        for (e, &v) in r.iter().enumerate() {
            assert_eq!(v, 100 * e as u64 + 5);
        }
    }
}

#[test]
fn thread_allreduce_is_cheap_relative_to_host_round_trips() {
    // The point of ref \[14\]: NIC-side combining costs barely more than the
    // NIC barrier itself — far below what log₂N host round trips would.
    let barrier = Scenario::elan(ElanParams::elan3(), 8, Barrier::ThreadBarrier).run(&cfg());
    let (reduce, _) = allreduce(8, &cfg(), ReduceOp::Sum, |rank, _| rank as u64);
    assert!(
        reduce.mean_us < barrier.mean_us * 1.3,
        "allreduce {:.2}µs should cost ≈ the thread barrier {:.2}µs",
        reduce.mean_us,
        barrier.mean_us
    );
}

#[test]
fn thread_runs_are_deterministic() {
    let a = Scenario::elan(ElanParams::elan3(), 8, Barrier::ThreadBarrier).run(&cfg());
    let b = Scenario::elan(ElanParams::elan3(), 8, Barrier::ThreadBarrier).run(&cfg());
    assert_eq!(a.mean_us, b.mean_us);
}
