// Fixture for D001: randomized-order containers (banned in every crate).
// Linted under more than one crate's path: the rule is not crate scoped.
use std::collections::BTreeMap;
use std::collections::HashMap;

pub struct Counts {
    fine: BTreeMap<u64, u64>,
    bad: HashMap<u64, u64>,
    excused: HashMap<u64, u64>, // abr-lint: allow(D001, fixture: order never leaves this struct)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _scratch: std::collections::HashMap<u8, u8> = Default::default();
    }
}
