//! The uncore power-state change count behind
//! [`SkxSoc::uncore_change_epoch`](crate::SkxSoc::uncore_change_epoch).

use std::cell::Cell;
use std::rc::Rc;

/// A count of power-state changes. The uncore components of one socket
/// share one count, which the socket reads in O(1); a component built on
/// its own counts alone until a socket adopts it.
#[derive(Debug, Default)]
pub(crate) struct PowerChanges(Rc<Cell<u64>>);

impl PowerChanges {
    /// Counts one power-state change.
    pub(crate) fn bump(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Changes counted so far.
    pub(crate) fn get(&self) -> u64 {
        self.0.get()
    }

    /// A handle on the same count.
    pub(crate) fn share(&self) -> Self {
        PowerChanges(Rc::clone(&self.0))
    }
}

/// A clone counts on its own, from the same total: a cloned component never
/// moves the count of the socket its original belongs to.
impl Clone for PowerChanges {
    fn clone(&self) -> Self {
        PowerChanges(Rc::new(Cell::new(self.get())))
    }
}
