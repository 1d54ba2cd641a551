//! Quickstart: exchange a covert message between two processes through the
//! DRAM row buffer using PiM-enabled instructions (IMPACT-PnM).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use impact::attacks::channel::message_from_str;
use impact::attacks::PnmCovertChannel;
use impact::core::config::SystemConfig;
use impact::core::Error;
use impact::sim::System;

fn main() -> Result<(), Error> {
    // The paper's Table 2 machine, with prefetcher/page-walker noise on.
    let cfg = SystemConfig::paper_table2();
    let clock = cfg.clock;
    let mut sys = System::new(cfg);

    // Co-locate sender and receiver rows in all 16 banks and initialize.
    let mut channel = PnmCovertChannel::setup(&mut sys, 16)?;

    let message = message_from_str("1110010011100100"); // Fig. 8a
    let report = channel.transmit(&mut sys, &message)?;

    println!(
        "IMPACT-PnM covert channel (16 banks, threshold {} cycles)",
        report.threshold
    );
    println!("bank  sent  measured  decoded");
    for o in &report.observations {
        println!(
            "{:>4}  {:>4}  {:>8}  {:>7}",
            o.bank,
            u8::from(o.sent),
            o.measured,
            u8::from(o.decoded)
        );
    }
    println!();
    println!("bits sent      : {}", report.bits_sent);
    println!("bit errors     : {}", report.bit_errors);
    println!("elapsed        : {}", report.elapsed);
    println!("goodput        : {:.2} Mb/s", report.goodput_mbps(clock));
    Ok(())
}
