//! R1 fixture: a hash map, a mutable static and a spawned thread in model code.

use std::collections::HashMap;

static mut TICKS: u64 = 0;

pub fn noop() {
    std::thread::spawn(|| {});
}
