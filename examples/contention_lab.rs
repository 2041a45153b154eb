//! Contention lab: the paper's §V-A observes that STAMP "can be used to
//! evaluate contention management policies as well" — this example does
//! exactly that on one high-contention workload (intruder), comparing:
//!
//! * the paper's eager-HTM design point (requester aborts, no backoff);
//! * LogTM-style requester stalling (timestamp deadlock avoidance);
//! * randomized linear and exponential backoff;
//! * the coarse-grain global lock the introduction argues TM replaces.
//!
//! Run with: `cargo run --release --example contention_lab`

use stamp::intruder;
use stamp::tm::{CmPolicy, HtmConflictPolicy, SystemKind, TmConfig};
use stamp::util::IntruderParams;

fn main() {
    let params = IntruderParams {
        attack_percent: 10,
        max_packets_per_flow: 4,
        num_flows: 512,
        seed: 1,
    };
    const THREADS: usize = 8;
    println!(
        "intruder, {} flows, {THREADS} logical processors — contention-management comparison\n",
        params.num_flows
    );
    println!(
        "{:<44} {:>14} {:>12} {:>9}",
        "policy", "sim cycles", "retries/txn", "verified"
    );

    let run = |label: &str, cfg: TmConfig| {
        let rep = intruder::run(&params, cfg);
        println!(
            "{:<44} {:>14} {:>12.2} {:>9}",
            label,
            rep.run.sim_cycles,
            rep.run.stats.retries_per_txn(),
            rep.verified
        );
        assert!(rep.verified);
    };

    run(
        "eager HTM, requester aborts (paper)",
        TmConfig::new(SystemKind::EagerHtm, THREADS),
    );
    run(
        "eager HTM, requester stalls (LogTM-style)",
        TmConfig::new(SystemKind::EagerHtm, THREADS)
            .htm_conflict(HtmConflictPolicy::RequesterStalls),
    );
    run(
        "eager HTM + randomized linear backoff",
        TmConfig::new(SystemKind::EagerHtm, THREADS).cm(CmPolicy::DEFAULT_LINEAR),
    );
    run(
        "eager HTM + exponential backoff",
        TmConfig::new(SystemKind::EagerHtm, THREADS).cm(CmPolicy::ExponentialRandom {
            after: 2,
            base: 100,
            max_exp: 10,
        }),
    );
    run(
        "lazy HTM (paper's winner on intruder)",
        TmConfig::new(SystemKind::LazyHtm, THREADS),
    );
    run(
        "coarse-grain global lock",
        TmConfig::new(SystemKind::GlobalLock, THREADS),
    );
    println!("\nLower cycles = better; the spread shows how much contention policy matters");
    println!("on a high-contention workload (§V-B3 of the paper).");
}
