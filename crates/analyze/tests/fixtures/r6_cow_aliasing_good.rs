//! R6 clean: sharing an `Arc` is not an unshare, and the one unshare
//! carries its justification.
use std::sync::Arc;

fn share(config: &Arc<Vec<u64>>) -> Arc<Vec<u64>> {
    Arc::clone(config)
}

fn shared(config: &Arc<Vec<u64>>) -> bool {
    Arc::strong_count(config) > 1
}

fn take(shared: Arc<Vec<u64>>) -> Vec<u64> {
    // analyze::allow(cow-aliasing): the value's only unshare site
    Arc::unwrap_or_clone(shared)
}

fn build() -> Arc<Vec<u64>> {
    Arc::new(vec![0; 16])
}
