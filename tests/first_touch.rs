//! First-touch memory: building and forking an engine costs only the
//! memory the run writes.
//!
//! The bounds read this process's resident set (`VmRSS` in
//! `/proc/self/status`), so the binary holds exactly one `#[test]`: the
//! harness runs the tests of one binary on parallel threads, and a second
//! test allocating at the same time would show up in the measurement.

#![cfg(target_os = "linux")]

use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::core::addr::VirtAddr;
use impact::core::config::SystemConfig;
use impact::sim::{AgentId, System};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Resident set size of this process in bytes.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line in kB");
    kib * KIB
}

/// The fleet's synthetic warm parent: an attacker, a victim and a
/// co-tenant, each with one TLB-warmed row in each of 16 banks, every row
/// opened once.
fn warm_fleet_parent() -> (System, Vec<(AgentId, Vec<VirtAddr>)>) {
    let mut eng = System::new(SystemConfig::paper_table2_noiseless());
    let mut agents = Vec::new();
    for _ in 0..3 {
        let agent = eng.spawn_agent();
        let rows: Vec<VirtAddr> = (0..16)
            .map(|bank| eng.alloc_row_in_bank(agent, bank).expect("row fits"))
            .collect();
        agents.push((agent, rows));
    }
    for (agent, rows) in &agents {
        for &va in rows {
            eng.pim_op_direct(*agent, va).expect("warmed row");
        }
    }
    (eng, agents)
}

#[test]
fn construction_and_forks_touch_only_what_they_write() {
    // fig11's largest point: an 8,192-bank system and the side channel's
    // set-up, measured first, before other builds leave freed heap behind.
    // Its 1,024-bank point runs first: that pages in the code and the
    // bank-independent heap (genome, reads), so the reading is the same
    // on every run: about 700 KiB, and about 890 KiB if `from_config`
    // builds ACT and RFM tables (32 B per bank).
    let set_up = |banks: u32| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless().with_total_banks(banks));
        let init = SideChannelAttack::new(SideChannelConfig::default())
            .init(&mut sys)
            .expect("side channel set-up");
        (sys, init)
    };
    drop(set_up(1024));
    let before = vm_rss();
    let point = set_up(8192);
    let grown = vm_rss().saturating_sub(before);
    assert!(
        grown < 800 * KIB,
        "fig11's 8,192-bank set-up grew VmRSS by {} KiB",
        grown / KIB
    );
    drop(point);

    // fig9's build order: five systems per LLC size, 1 to 128 MiB, each
    // dropped before the next is built. Once the allocator has freed a
    // large block it may serve a smaller one from reused heap memory and
    // clear it, so a line store allocated whole at construction would
    // grow the resident set by up to 17 MiB here.
    let before = vm_rss();
    for mb in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        for build in 1..=5 {
            let sys = System::new(SystemConfig::paper_table2().with_llc_size(mb << 20));
            let grown = vm_rss().saturating_sub(before);
            assert!(
                grown < 4 * MIB,
                "build {build} of fig9's {mb} MiB-LLC system grew VmRSS by {} KiB",
                grown / KIB
            );
            drop(sys);
        }
    }

    // fig9's largest point. Writing every line of a 128 MiB LLC at
    // construction would grow the resident set by about 48 MiB.
    let before = vm_rss();
    let sys = System::new(SystemConfig::paper_table2().with_llc_size(128 << 20));
    let grown = vm_rss().saturating_sub(before);
    assert!(
        grown < MIB,
        "building a 128 MiB-LLC system grew VmRSS by {} KiB",
        grown / KIB
    );
    drop(sys);

    // Live forks of a warmed fleet parent, each after one probe round:
    // the victim opens its bank-0 row, then the attacker probes all 16
    // banks. Copying pre-sized TLB indexes and the PMU table into every
    // fork would cost about 120 KiB per fork.
    const FORKS: u64 = 2_000;
    let (mut parent, agents) = warm_fleet_parent();
    let (victim, victim_rows) = &agents[1];
    let (attacker, attacker_rows) = &agents[0];
    let before = vm_rss();
    let forks: Vec<System> = (0..FORKS)
        .map(|_| {
            let mut fork = parent.fork();
            fork.pim_op_direct(*victim, victim_rows[0])
                .expect("warmed row");
            for &va in attacker_rows {
                fork.pim_op_direct(*attacker, va).expect("warmed row");
            }
            fork
        })
        .collect();
    let per_fork = vm_rss().saturating_sub(before) / FORKS;
    assert!(
        per_fork < 8 * KIB,
        "each live fork grew VmRSS by {per_fork} bytes"
    );
    drop(forks);
}
