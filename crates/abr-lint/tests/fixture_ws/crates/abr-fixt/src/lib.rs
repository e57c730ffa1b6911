//! Taint fixture: each chain below is asserted by tests/deep.rs at
//! these exact line numbers — renumber the asserts if you edit.

pub struct RunSpec;

impl RunSpec {
    pub fn dispatch(&self) {
        helper_a();
        // abr-lint: allow(D004, fixture: this edge is cut, the chain below must stay silent)
        cut_chain();
        seeded();
    }
}

fn helper_a() {
    helper_b();
}

fn helper_b() {
    let _t = std::time::Instant::now();
}

fn cut_chain() {
    let _t = std::time::Instant::now();
}

fn seeded() {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2u32);
}

fn dead_fn() {
    let _ = std::time::SystemTime::now();
}
