//! Races all five covert channels of the paper's evaluation (§5.2.2) on
//! the same message and system, reproducing the Fig. 9 ordering: the PiM
//! attacks dominate because they need no cache bypassing.
//!
//! ```text
//! cargo run --release --example covert_channel_race
//! ```

use impact::attacks::baseline::{BaselineChannel, BaselinePrimitive};
use impact::attacks::{PnmCovertChannel, PumCovertChannel};
use impact::core::config::SystemConfig;
use impact::core::rng::SimRng;
use impact::core::Error;
use impact::sim::System;

fn main() -> Result<(), Error> {
    let message = SimRng::seed(2024).bits(2048);
    let clock = SystemConfig::paper_table2().clock;
    println!(
        "racing 5 covert channels over a {}-bit message\n",
        message.len()
    );
    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "attack", "Mb/s", "errors", "error rate"
    );

    let mut results: Vec<(String, f64, u64, f64)> = Vec::new();

    for primitive in [
        BaselinePrimitive::Clflush,
        BaselinePrimitive::Eviction,
        BaselinePrimitive::Dma,
    ] {
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = BaselineChannel::setup(&mut sys, primitive)?;
        let r = ch.transmit(&mut sys, &message)?;
        results.push((
            primitive.name().to_string(),
            r.goodput_mbps(clock),
            r.bit_errors,
            r.error_rate(),
        ));
    }

    let mut sys = System::new(SystemConfig::paper_table2());
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16)?;
    let r = pnm.transmit(&mut sys, &message)?;
    results.push((
        "IMPACT-PnM".into(),
        r.goodput_mbps(clock),
        r.bit_errors,
        r.error_rate(),
    ));

    let mut sys = System::new(SystemConfig::paper_table2());
    let mut pum = PumCovertChannel::setup(&mut sys, 16)?;
    let r = pum.transmit(&mut sys, &message)?;
    results.push((
        "IMPACT-PuM".into(),
        r.goodput_mbps(clock),
        r.bit_errors,
        r.error_rate(),
    ));

    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, mbps, errors, rate) in &results {
        println!(
            "{name:<22} {mbps:>12.2} {errors:>10} {:>11.2}%",
            rate * 100.0
        );
    }
    println!("\npaper reference: PuM 14.8 Mb/s > PnM 8.2 Mb/s > clflush 2.29 > DMA 0.81");
    Ok(())
}
