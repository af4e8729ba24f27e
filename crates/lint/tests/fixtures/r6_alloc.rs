//! R6 fixture: allocation inside hot-loop functions (a `vec![..]` and a
//! `.collect()` in `cycle`, a `Vec::new()` in a `Component`-style `tick`),
//! an inline-justified site, and the same patterns legal in a cold
//! function.

pub struct Switch {
    grants: Vec<bool>,
}

impl Switch {
    pub fn cycle(&mut self) {
        let used = vec![false; self.grants.len()];
        let _ = used;
        let order: Vec<usize> = (0..self.grants.len()).collect();
        let _ = order;
        // lint: allow(R6): one-shot drain path, runs at most once per run.
        let justified = vec![0u8; 4];
        let _ = justified;
    }

    pub fn tick(&mut self) -> bool {
        self.grants = Vec::new();
        false
    }

    pub fn reset(&mut self) {
        // Cold path: allocation outside the per-cycle functions is fine.
        self.grants = vec![false; 8];
        let _all: Vec<usize> = (0..8).collect();
    }
}
