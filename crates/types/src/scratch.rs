//! Derived scratch state that sits beside architectural state.
//!
//! A memoized verdict ("this head of line is still blocked", "no DRAM
//! command can issue before cycle N") is a pure function of the fields
//! around it. The fork-and-compare suites compare components through their
//! derived `Debug` output; wrapping a memo in [`Scratch`] keeps it out of
//! that comparison without hand-writing a `Debug` impl that the next new
//! field would silently fall out of.

use std::fmt;

/// A value excluded from its owner's `Debug` output.
///
/// # Example
///
/// ```
/// use gmh_types::Scratch;
///
/// assert_eq!(format!("{:?}", Scratch(7)), format!("{:?}", Scratch(8)));
/// ```
#[derive(Clone)]
pub struct Scratch<T>(pub T);

impl<T> fmt::Debug for Scratch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}
