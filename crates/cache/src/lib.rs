//! Cache-hierarchy simulator for the IMPACT reproduction.
//!
//! Provides the processor-centric side of the story: the deep cache
//! hierarchy that main-memory timing attacks must bypass (§3.2–§3.3 of the
//! paper). Contains:
//!
//! * [`SetAssocCache`] — a set-associative cache with LRU and SRRIP
//!   replacement (Table 2 uses LRU in L1 and SRRIP in L2/L3);
//! * [`CacheHierarchy`] — the three-level hierarchy with `clflush` support;
//! * [`cacti`] — a CACTI-6.0-style latency model `lat(size, ways)`, which
//!   times the LLC of every hierarchy (so the LLC sweeps of Figs. 2, 3
//!   and 9 time each size they simulate);
//! * prefetchers ([`IpStridePrefetcher`], [`StreamerPrefetcher`]) — the
//!   noise sources of §5.2.3.
//!
//! # Example
//!
//! ```
//! use impact_cache::{CacheHierarchy, HitLevel};
//! use impact_core::config::SystemConfig;
//! use impact_core::addr::PhysAddr;
//!
//! let mut h = CacheHierarchy::from_config(&SystemConfig::paper_table2());
//! let a = PhysAddr(0x4000);
//! let first = h.load(a);
//! assert_eq!(first.level, HitLevel::Memory); // cold miss
//! let second = h.load(a);
//! assert_eq!(second.level, HitLevel::L1);    // now cached
//! ```

pub mod cacti;
pub mod hierarchy;
pub mod prefetch;
pub mod set_assoc;

pub use hierarchy::{CacheHierarchy, HierarchyOutcome, HitLevel};
pub use prefetch::{IpStridePrefetcher, PrefetchRequest, StreamerPrefetcher};
pub use set_assoc::{AccessResult, EvictedLine, SetAssocCache};
