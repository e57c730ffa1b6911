//! P001 fixture: two unannotated calls at known lines, for the ratchet
//! cases in tests/ratchet.rs (over, at, under, and a file with none).

pub fn first(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn second(v: Option<u32>) -> u32 {
    v.expect("fixture")
}
