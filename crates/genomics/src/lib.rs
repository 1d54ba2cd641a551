//! Genomic read-mapping substrate for the IMPACT side-channel attack.
//!
//! The paper's side channel (§4.3) targets a read-mapping (RM) victim built
//! on minimap2-style seeding: the reference genome is indexed into a hash
//! table of seed (minimizer) positions, the table is distributed across
//! DRAM banks, and the victim's per-read hash-table probes activate rows
//! whose bank identity an attacker can observe through the row-buffer
//! timing channel.
//!
//! This crate is a self-contained RM implementation:
//!
//! * [`genome`] — synthetic reference genomes and read sampling (the paper
//!   uses the human genome + synthetic query genomes; we substitute a
//!   seeded synthetic reference — the module docs explain why);
//! * [`index`] — k-mer/minimizer extraction and the bank-distributed hash
//!   table ([`index::BankLayout`]);
//! * [`chain`] — anchor chaining (the paper assumes chaining, §5.1);
//! * [`align`] — banded dynamic-programming alignment;
//! * [`mapper`] — the end-to-end mapper with an observer hook
//!   ([`mapper::SeedAccessObserver`]) through which the simulator sees
//!   every hash-table access — the exact signal the attacker steals;
//! * [`imputation`] — completion-attack style scoring of leaked accesses
//!   against ground truth.
//!
//! # Example
//!
//! ```
//! use impact_genomics::genome::{Genome, ReadSampler};
//! use impact_genomics::index::KmerIndex;
//! use impact_genomics::mapper::ReadMapper;
//!
//! let genome = Genome::synthesize(10_000, 7);
//! let index = KmerIndex::build(&genome, 15, 5, 1024);
//! let reads = ReadSampler::new(42).sample(&genome, 20, 100, 0.01);
//! let mapper = ReadMapper::new(&genome, &index);
//! let hits = reads
//!     .iter()
//!     .filter(|r| {
//!         mapper
//!             .map_read(r)
//!             .is_some_and(|m| m.position.abs_diff(r.true_position) < 50)
//!     })
//!     .count();
//! assert!(hits * 10 >= reads.len() * 8); // >= 80% mapped correctly
//! ```

pub mod align;
pub mod chain;
pub mod genome;
pub mod imputation;
pub mod index;
pub mod mapper;

pub use genome::{Genome, ReadSampler, ReadSeq};
pub use index::{BankLayout, KmerIndex};
pub use mapper::{MapResult, ReadMapper, SeedAccessObserver};
