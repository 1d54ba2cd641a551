//! Copy-on-write simulation state that costs nothing until a fork.
//!
//! A [`CowBox<T>`] starts out owning its value: reads and writes go
//! straight to it, with no reference count and no atomic. [`CowBox::fork`]
//! moves the value behind an [`Arc`] once and hands out a second handle to
//! it. From then on both handles read the shared value, and the first
//! write through either one ([`CowBox::to_mut`]) gives that handle its own
//! copy, unless the other handles are gone by then, in which case it takes
//! the value back without copying. Each handle writes with no atomic again
//! after that.
//!
//! Every table a fork may share (the DRAM bank array, cache line chunk
//! tables, page-table radixes, TLB levels, the PMU monitor, the prefetcher
//! tables and the controller's ACT and RFM tables) sits in a `CowBox`, so
//! the unshare below is the one place simulation state leaves an `Arc`.
//!
//! # Example
//!
//! ```
//! use impact_core::cow::CowBox;
//!
//! let mut parent = CowBox::new(vec![1, 2, 3]);
//! parent.to_mut()[0] = 10; // owned: written in place
//! let mut child = parent.fork(); // both handles share one vector
//! child.to_mut()[1] = 20; // the child copies, then writes
//! assert_eq!(*parent, [10, 2, 3]);
//! assert_eq!(*child, [10, 20, 3]);
//! ```

use core::ops::Deref;
use std::sync::Arc;

/// A value owned by one handle until [`CowBox::fork`], then shared
/// copy-on-write. See the [module docs](self).
///
/// `CowBox` does not implement `Clone`: `fork` is the one way to copy it,
/// and it needs `&mut self` to move an owned value behind an `Arc`.
#[derive(Debug)]
pub struct CowBox<T>(Repr<T>);

#[derive(Debug)]
enum Repr<T> {
    /// The only handle: written in place.
    Owned(Box<T>),
    /// Possibly shared with forks: the first write copies.
    Shared(Arc<T>),
}

impl<T> CowBox<T> {
    /// An owned value.
    #[must_use]
    pub fn new(value: T) -> CowBox<T> {
        CowBox(Repr::Owned(Box::new(value)))
    }

    /// True when another handle still shares the value, so the next
    /// [`CowBox::to_mut`] copies it.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        match &self.0 {
            Repr::Owned(_) => false,
            Repr::Shared(shared) => Arc::strong_count(shared) > 1,
        }
    }
}

impl<T: Default> CowBox<T> {
    /// A second handle to the value. An owned value moves behind an `Arc`
    /// first (the move leaves `T::default()` in the old box, which is then
    /// freed); a shared one just gains a handle. Neither side copies the
    /// value until it writes.
    #[must_use]
    pub fn fork(&mut self) -> CowBox<T> {
        let shared = match &mut self.0 {
            Repr::Owned(owned) => Arc::new(std::mem::take(&mut **owned)),
            Repr::Shared(shared) => return CowBox(Repr::Shared(Arc::clone(shared))),
        };
        self.0 = Repr::Shared(Arc::clone(&shared));
        CowBox(Repr::Shared(shared))
    }
}

impl<T: Clone + Default> CowBox<T> {
    /// The value for writing. An owned value is returned as is; a shared
    /// one is copied first, and this handle owns the copy from then on.
    #[inline]
    pub fn to_mut(&mut self) -> &mut T {
        if let Repr::Shared(_) = self.0 {
            self.unshare();
        }
        match &mut self.0 {
            Repr::Owned(owned) => owned,
            Repr::Shared(_) => unreachable!("unshared above"),
        }
    }

    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        if let Repr::Shared(shared) = &mut self.0 {
            // analyze::allow(cow-aliasing): the one unshare of forked
            // simulation state; a handle still shared with a fork writes
            // only its own copy, and the last handle takes the value back
            let value = match Arc::get_mut(shared) {
                Some(last) => std::mem::take(last),
                None => T::clone(shared),
            };
            self.0 = Repr::Owned(Box::new(value));
        }
    }
}

impl<T> Deref for CowBox<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match &self.0 {
            Repr::Owned(owned) => owned,
            Repr::Shared(shared) => shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The address of the value a handle reads.
    fn addr<T>(cow: &CowBox<T>) -> *const T {
        &**cow
    }

    #[test]
    fn owned_writes_never_copy() {
        let mut cow = CowBox::new(vec![0u64; 4]);
        let before = addr(&cow);
        let data = cow.as_ptr();
        for i in 0..4 {
            cow.to_mut()[i] = i as u64;
        }
        assert_eq!(addr(&cow), before, "the value moved");
        assert_eq!(cow.as_ptr(), data, "the vector was copied");
        assert!(!cow.is_shared());
        assert_eq!(*cow, [0, 1, 2, 3]);
    }

    #[test]
    fn each_side_copies_once_on_its_first_write() {
        let mut parent = CowBox::new(vec![1u64, 2, 3]);
        let mut child = parent.fork();
        assert!(parent.is_shared() && child.is_shared());
        assert_eq!(addr(&parent), addr(&child), "fork copied the value");

        // The child's first write copies; the parent still reads the
        // shared value, which no fork shares any longer.
        child.to_mut()[0] = 10;
        assert_ne!(addr(&child), addr(&parent));
        assert!(!child.is_shared() && !parent.is_shared());
        let child_value = addr(&child);
        child.to_mut()[1] = 20;
        assert_eq!(addr(&child), child_value, "second write copied again");
        assert_eq!(*parent, [1, 2, 3]);

        // The parent is the last handle: its first write takes the value
        // back without copying the vector.
        let shared_data = parent.as_ptr();
        parent.to_mut()[2] = 30;
        assert_eq!(parent.as_ptr(), shared_data, "last handle copied");
        assert_eq!(*parent, [1, 2, 30]);
        assert_eq!(*child, [10, 20, 3]);
    }

    #[test]
    fn a_shared_parent_copies_and_leaves_its_forks_unchanged() {
        let mut parent = CowBox::new(vec![7u64; 3]);
        let first = parent.fork();
        let second = parent.fork();
        assert_eq!(addr(&first), addr(&second));
        parent.to_mut()[0] = 0;
        assert_eq!(*parent, [0, 7, 7]);
        assert_eq!(*first, [7, 7, 7]);
        assert_eq!(*second, [7, 7, 7]);
        // The two forks still share one value.
        assert_eq!(addr(&first), addr(&second));
        assert!(first.is_shared() && !parent.is_shared());
    }
}
