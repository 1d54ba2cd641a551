//! Security-vs-performance trade-offs of the four IMPACT defenses (§7):
//! how much each slows down honest workloads, and what it does to the
//! covert channel.
//!
//! ```text
//! cargo run --release --example defense_tradeoffs
//! ```

use impact::attacks::PnmCovertChannel;
use impact::core::config::SystemConfig;
use impact::core::rng::SimRng;
use impact::core::Error;
use impact::memctrl::{ActConfig, Defense, MemoryController, MprPartition};
use impact::sim::System;
use impact::workloads::graph::Graph;
use impact::workloads::{kernels, replay_lanes};

fn main() -> Result<(), Error> {
    let clock = SystemConfig::paper_table2().clock;
    let message = SimRng::seed(99).bits(1024);
    let graph = Graph::rmat(256, 1024, 5);
    let (_, trace) = kernels::bfs(&graph, 0);

    println!(
        "{:<18} {:>14} {:>14} {:>12}",
        "defense", "BFS slowdown", "channel Mb/s", "error rate"
    );

    let defenses: Vec<(&str, Defense)> = vec![
        ("None", Defense::None),
        ("CRP", Defense::Crp),
        ("CTD", Defense::Ctd),
        ("ACT-Aggressive", Defense::Act(ActConfig::aggressive())),
        ("ACT-Mild", Defense::Act(ActConfig::mild())),
        ("ACT-Conservative", Defense::Act(ActConfig::conservative())),
    ];

    // Workload cost: one BFS replay, the system's own controller
    // undefended (the baseline) and one controller per defense.
    let cfg = SystemConfig::paper_table2_noiseless();
    let mut lanes: Vec<MemoryController> = defenses
        .iter()
        .map(|(_, defense)| {
            let mut ctrl = MemoryController::from_config(&cfg);
            ctrl.set_defense(defense.clone());
            ctrl
        })
        .collect();
    let mut sys = System::new(cfg);
    let agent = sys.spawn_agent();
    let reports = replay_lanes(&mut sys, agent, &trace, &mut lanes)?;
    let base = reports[0];

    for ((name, defense), defended) in defenses.into_iter().zip(&reports[1..]) {
        let slowdown = defended.cycles.as_f64() / base.cycles.as_f64();

        // Attack effect.
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        sys.set_defense(defense);
        let mut ch = PnmCovertChannel::setup(&mut sys, 16)?;
        let r = ch.transmit(&mut sys, &message)?;
        println!(
            "{:<18} {:>13.2}x {:>14.2} {:>11.1}%",
            name,
            slowdown,
            r.goodput_mbps(clock),
            r.error_rate() * 100.0
        );
    }

    // MPR prevents co-location outright.
    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut partition = MprPartition::new(16);
    partition.assign_round_robin(&[100, 200]); // banks belong to others
    sys.set_defense(Defense::Mpr(partition));
    match PnmCovertChannel::setup(&mut sys, 16) {
        Err(e) => println!("{:<18} {:>13} channel setup fails: {e}", "MPR", "n/a"),
        Ok(_) => println!("{:<18} unexpected: co-location allowed", "MPR"),
    }

    println!("\npaper conclusion (§7): every effective defense costs significant");
    println!("performance; ACT trades security for overhead without closing the channel.");
    Ok(())
}
