//! Hash-order iteration, method-call and for-loop form: D-HASH fires on
//! the bindings (lines 6 and 9) every such iteration depends on, so no
//! separate iteration rule is needed. The BTreeMap twin draws nothing.

use std::collections::BTreeMap;
use std::collections::HashMap;

fn tally() -> u64 {
    let mut counts: HashMap<u32, u64> = HashMap::new();
    counts.insert(1, 10);
    let mut sum = 0;
    for v in counts.values() {
        sum += v;
    }
    for (_k, v) in &counts {
        sum += v;
    }
    sum
}

fn tally_sorted() -> u64 {
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    counts.insert(1, 10);
    let mut sum = 0;
    for v in counts.values() {
        sum += v;
    }
    sum
}
