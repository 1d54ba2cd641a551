//! The IMPACT side channel on genomic read mapping (§4.3): a victim maps
//! private sequencing reads on a PiM-enabled system; an attacker sweeping
//! the DRAM banks reconstructs which hash-table entries the victim probed
//! and narrows down the query genome's regions.
//!
//! ```text
//! cargo run --release --example genome_exfiltration
//! ```

use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::core::config::SystemConfig;
use impact::core::Error;
use impact::genomics::imputation::candidate_buckets;
use impact::genomics::index::BankLayout;
use impact::sim::System;

fn main() -> Result<(), Error> {
    let banks = 1024u32;
    let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(banks);
    let clock = cfg.clock;
    let mut sys = System::new(cfg);

    let sc_cfg = SideChannelConfig::default();
    let table_buckets = sc_cfg.table_buckets;
    let attack = SideChannelAttack::new(sc_cfg);
    let report = attack.run(&mut sys)?;

    println!("victim: minimap2-style read mapper, hash table across {banks} banks");
    println!("attacker: row-buffer probe sweep with PiM-enabled instructions\n");
    println!("victim seeding probes   : {}", report.victim_accesses);
    println!("attacker probes         : {}", report.probes);
    println!("correct detections (TP) : {}", report.score.true_positives);
    println!("false detections  (FP)  : {}", report.score.false_positives);
    println!("missed/aliased    (FN)  : {}", report.score.false_negatives);
    println!(
        "error rate              : {:.2}%",
        report.error_rate() * 100.0
    );
    println!("leaked information      : {:.0} bits", report.leaked_bits);
    println!(
        "leakage throughput      : {:.2} Mb/s (paper: 7.57 Mb/s at 1024 banks)",
        report.throughput_mbps(clock)
    );

    // What one detection buys the attacker: the victim's probe is narrowed
    // to the hash-table entries resident in the detected bank (§6.3).
    let layout = BankLayout::new(banks as usize, table_buckets);
    let example_bank = 42;
    let candidates = candidate_buckets(&layout, example_bank);
    println!(
        "\na detection in bank {example_bank} narrows the probed entry to {} of {} buckets ({:.0} bits)",
        candidates.len(),
        layout.buckets,
        layout.bits_per_identified_access()
    );
    println!(
        "candidate buckets: {:?} ...",
        &candidates[..8.min(candidates.len())]
    );
    Ok(())
}
