//! R6 violations: every way to unshare copy-on-write state, outside a
//! justified site, in deterministic production code.
use std::rc::Rc;
use std::sync::Arc;

fn write(banks: &mut Arc<Vec<u64>>) {
    Arc::make_mut(banks)[0] = 1;
}

fn take(banks: Arc<Vec<u64>>, monitor: Rc<Vec<u64>>) -> (Vec<u64>, Vec<u64>) {
    (Arc::unwrap_or_clone(banks), Rc::unwrap_or_clone(monitor))
}

fn last(banks: &mut Arc<Vec<u64>>) -> Option<&mut Vec<u64>> {
    Arc::get_mut(banks)
}

fn sole(banks: Arc<Vec<u64>>) -> Vec<u64> {
    Arc::try_unwrap(banks).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    #[test]
    fn tests_may_unshare() {
        let mut a = Arc::new(vec![1u64]);
        Arc::make_mut(&mut a)[0] = 2;
        assert_eq!(Arc::unwrap_or_clone(a), vec![2]);
    }
}
