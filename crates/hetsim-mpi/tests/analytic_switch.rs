//! The process-global lockstep switch ([`set_analytic_enabled`]) gets
//! its own test binary: flipping it while sibling tests run in parallel
//! would let them observe the forced scheduler mid-suite. This file
//! holds the only test that flips it, so no concurrent test shares the
//! flag.

use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::MpichEthernet;
use hetsim_cluster::node::NodeSpec;
use hetsim_mpi::{record_spmd, set_analytic_enabled, SpmdProgram, SpmdTimer, Tag};

fn het3() -> ClusterSpec {
    ClusterSpec::new(
        "het3",
        vec![
            NodeSpec::synthetic("a", 90.0),
            NodeSpec::synthetic("b", 50.0),
            NodeSpec::synthetic("c", 110.0),
        ],
    )
    .unwrap()
}

/// A body exercising every op kind, with rank-skewed compute so waits,
/// rendezvous, and arrival orders are all non-trivial.
fn mixed_body<T: SpmdTimer>(t: &mut T) {
    let me = t.rank();
    let p = t.size();
    t.compute_flops(1e6 * (me + 1) as f64);
    if p > 1 {
        if me == 0 {
            for peer in 1..p {
                t.send_count(peer, Tag(5), 17 + peer);
            }
        } else {
            t.recv_count(0, Tag(5), 17 + me);
        }
    }
    t.barrier();
    t.broadcast_count(p - 1, 33);
    t.compute_flops(2.5e5 * (p - me) as f64);
    t.gather_count(0, 3 * me + 1);
    t.allgather_count(me + 2);
    if p > 1 {
        if me == p - 1 {
            t.send_count(0, Tag(9), 4);
        } else if me == 0 {
            t.recv_count(p - 1, Tag(9), 4);
        }
    }
    t.barrier();
}

#[test]
fn disabling_analytic_forces_the_scheduler_with_identical_results() {
    let cluster = het3();
    let net = MpichEthernet::new(0.2e-3, 1e8);
    let program: SpmdProgram<()> = record_spmd(&cluster, mixed_body);
    let on = program.simulate(&cluster, &net);
    set_analytic_enabled(false);
    let off = program.simulate(&cluster, &net);
    set_analytic_enabled(true);
    assert_eq!(on.times, off.times);
    assert_eq!(on.compute_times, off.compute_times);
    assert_eq!(on.comm_times, off.comm_times);
    assert_eq!(on.wait_times, off.wait_times);
}
