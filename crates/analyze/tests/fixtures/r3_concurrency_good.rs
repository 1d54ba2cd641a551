//! R3 clean: deterministic code stays single-threaded; parallelism is
//! expressed through the sanctioned scheduler APIs, and test code may thread.
use impact_fleet::{FleetConfig, FleetService};

fn parallel_population(seed: u64) -> FleetService {
    // Handing sessions to the fleet's epoch scheduler is the sanctioned way
    // to go parallel — no raw threads or shared-state primitives here.
    FleetService::new(FleetConfig::quick(seed).with_workers(4))
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_are_fine_in_tests() {
        let h = std::thread::spawn(|| 2 + 2);
        assert_eq!(h.join().unwrap(), 4);
    }
}
