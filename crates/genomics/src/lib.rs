//! Genomic read-mapping victim for the IMPACT side-channel attack.
//!
//! The paper's side channel (§4.3) targets a read-mapping (RM) victim built
//! on minimap2-style seeding: the reference genome is indexed into a hash
//! table of seed (minimizer) positions, the table is distributed across
//! DRAM banks, and the victim's per-read hash-table probes activate rows
//! whose bank identity an attacker can observe through the row-buffer
//! timing channel.
//!
//! Only the seeding stage reaches the attacker, so only seeding is
//! implemented. The victim's chaining and alignment work between probes
//! is modelled as a fixed compute gap (`SideChannelConfig::victim_gap` in
//! `impact-attacks`).
//!
//! * [`genome`] — synthetic reference genomes and read sampling (the paper
//!   uses the human genome + synthetic query genomes; we substitute a
//!   seeded synthetic reference — the module docs explain why);
//! * [`index`] — minimizer seeding ([`index::seed_buckets`], the victim's
//!   probe stream) and the bank-distributed hash table's layout
//!   ([`index::BankLayout`]);
//! * [`imputation`] — the score of leaked accesses against ground truth
//!   ([`imputation::LeakScore`], which the side channel fills in as it
//!   probes) and the attacker's candidate reconstruction.
//!
//! # Example
//!
//! ```
//! use impact_genomics::genome::{Genome, ReadSampler};
//! use impact_genomics::index::{seed_buckets, BankLayout};
//!
//! let genome = Genome::synthesize(10_000, 7);
//! let reads = ReadSampler::new(42).sample(&genome, 20, 100, 0.01);
//! let stream = seed_buckets(&reads, 15, 5, 1024);
//! // About 2/(w+1) of a read's 86 k-mers are minimizers, each one probe.
//! assert!(stream.len() > 20 * 20);
//! // The attacker sees the bank of every probe, never the bucket itself.
//! let layout = BankLayout::new(64, 1024);
//! assert!(stream.iter().all(|&b| layout.bank_of(b) < 64));
//! assert_eq!(layout.buckets_per_bank(), 16);
//! ```

pub mod genome;
pub mod imputation;
pub mod index;

pub use genome::{Genome, ReadSampler, ReadSeq};
pub use index::BankLayout;
