//! Fixture: A-ALLOC and A-PUSH violations inside `// mmr-lint: hot` bodies.
//!
//! Never compiled — linted by `tests/golden.rs`.

struct Scheduler {
    grants: Vec<u32>,
}

impl Scheduler {
    // mmr-lint: hot
    fn select(&mut self, requests: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        for &r in requests {
            out.push(r);
        }
        let label = format!("round {}", requests.len());
        let _ = label;
        self.grants.extend(out.iter().copied());
        requests.to_vec()
    }

    fn cold_setup(&mut self, ports: usize) {
        // Allocation outside hot functions is fine: setup runs once.
        self.grants = Vec::with_capacity(ports);
    }
}
