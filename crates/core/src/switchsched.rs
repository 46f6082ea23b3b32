//! Switch scheduling: matching input ports to output ports each flit cycle.
//!
//! §4.4: the MMR is *input-driven* — link schedulers offer candidate sets
//! and the switch scheduler "attempts to maximize the probability of
//! assigning virtual channels to every output link during each flit cycle by
//! using sets of candidates (4–8) at each input port and fast priority
//! biasing schemes".
//!
//! [`SwitchScheduler`] implements the matching rule of every evaluated
//! scheme:
//!
//! * priority matching (fixed / biased / round-robin): iterative
//!   propose-and-grant where each unmatched input offers its best remaining
//!   candidate whose output is still free and contested outputs go to the
//!   best-ranked proposal;
//! * [`ArbiterKind::Autonet`]: Anderson et al.'s parallel iterative matching
//!   (random grant, random accept, k iterations);
//! * [`ArbiterKind::Islip`]: rotating-pointer grant/accept iterations;
//! * [`ArbiterKind::Perfect`]: the paper's lower bound — every input
//!   transmits its best candidate, outputs accept any number of flits.
//!
//! The matchers answer per-port questions from 64-bit port words (bit *p* =
//! port *p*, hence the 64-port limit). PIM and iSLIP share one request
//! phase that fills a request word per output and grant into one word per
//! input; a grant or accept picks a set bit — the n-th for PIM's random
//! draw, the first at or after the pointer for iSLIP (Tiny Tera's request
//! and grant bitmaps with priority encoders).

use mmr_sim::SeededRng;

use crate::arbiter::{ArbiterKind, Candidate};
use crate::ids::{ConnectionId, PortId, VcIndex};
use crate::table::{set_ports, PortMap};

/// One (input VC → output port) assignment for the coming flit cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair {
    /// Input port transmitting.
    pub input: PortId,
    /// Input virtual channel whose head flit crosses the switch.
    pub vc: VcIndex,
    /// Output port receiving.
    pub output: PortId,
    /// The connection being serviced.
    pub conn: ConnectionId,
}

impl From<&Candidate> for MatchedPair {
    fn from(c: &Candidate) -> Self {
        MatchedPair { input: c.input, vc: c.vc, output: c.output, conn: c.conn }
    }
}

/// The switch scheduler with its per-scheme state (rotating pointers).
#[derive(Debug, Clone)]
pub struct SwitchScheduler {
    kind: ArbiterKind,
    ports: usize,
    /// Per-output grant pointer over input ports (round-robin, iSLIP).
    grant_ptr: PortMap<usize>,
    /// Per-input accept pointer over output ports (iSLIP).
    accept_ptr: PortMap<usize>,
    /// Reusable per-output winner slots for priority matching.
    winners: PortMap<Option<Candidate>>,
    /// Reusable request words for PIM/iSLIP: bit *p* of output *o*'s word
    /// ⇔ input *p* requests output *o*.
    requests: PortMap<u64>,
    /// Reusable grant words for PIM/iSLIP: bit *o* of input *p*'s word ⇔
    /// output *o* granted input *p*.
    grants: PortMap<u64>,
}

impl SwitchScheduler {
    /// Creates a scheduler for a `ports`×`ports` multiplexed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(kind: ArbiterKind, ports: usize) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(ports > 0, "a router needs at least one port");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(ports <= 64, "the scheduler's request bitmaps support up to 64 ports");
        SwitchScheduler {
            kind,
            ports,
            grant_ptr: PortMap::filled(ports, 0),
            accept_ptr: PortMap::filled(ports, 0),
            winners: PortMap::filled(ports, None),
            requests: PortMap::filled(ports, 0),
            grants: PortMap::filled(ports, 0),
        }
    }

    /// For tests: [`SwitchScheduler::schedule_into`] into a fresh vector.
    #[doc(hidden)]
    pub fn schedule(
        &mut self,
        candidates: &[Vec<Candidate>],
        output_blocked: &[bool],
        rng: &mut SeededRng,
    ) -> Vec<MatchedPair> {
        let mut pairs = Vec::new();
        self.schedule_into(candidates, output_blocked, rng, &mut pairs);
        pairs
    }

    /// Computes the matching for the next flit cycle into `pairs` (cleared
    /// first, so the per-cycle router loop reuses one buffer).
    /// `candidates[p]` is input port `p`'s ranked candidate list;
    /// `output_blocked[o]` marks outputs already claimed this cycle (e.g. by
    /// a VCT cut-through, §3.4: "the corresponding switch port and output
    /// link will be considered busy during link arbitration for the next
    /// flit cycle").
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the port count.
    // mmr-lint: hot
    pub fn schedule_into(
        &mut self,
        candidates: &[Vec<Candidate>],
        output_blocked: &[bool],
        rng: &mut SeededRng,
        pairs: &mut Vec<MatchedPair>,
    ) {
        // mmr-lint: allow(P-PANIC, reason="sizing contract vs construction-time invariant; one comparison per cycle, not data-dependent")
        assert_eq!(candidates.len(), self.ports, "one candidate list per input port");
        // mmr-lint: allow(P-PANIC, reason="sizing contract vs construction-time invariant; one comparison per cycle, not data-dependent")
        assert_eq!(output_blocked.len(), self.ports, "one blocked flag per output port");
        let offered = port_word(candidates.iter().map(|list| !list.is_empty()));
        let blocked = port_word(output_blocked.iter().copied());
        self.schedule_offered(candidates, offered, blocked, rng, pairs);
    }

    /// The matching itself, handed per-port request words instead of
    /// discovering them: bit *p* of `offered` ⇔ `candidates[p]` is non-empty
    /// (no other list is read), bit *o* of `blocked` ⇔ output *o* is already
    /// claimed this cycle. [`SwitchScheduler::schedule_into`] folds its
    /// slices into these; the router keeps them as it goes.
    // mmr-lint: hot
    pub(crate) fn schedule_offered(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        rng: &mut SeededRng,
        pairs: &mut Vec<MatchedPair>,
    ) {
        pairs.clear();
        // No scheme matches, draws randomness or moves a pointer when no
        // input offers anything.
        if offered == 0 {
            return;
        }
        match self.kind {
            ArbiterKind::FixedPriority
            | ArbiterKind::BiasedPriority
            | ArbiterKind::OldestFirst => {
                self.priority_match(candidates, offered, blocked, false, pairs)
            }
            ArbiterKind::RoundRobin => {
                self.priority_match(candidates, offered, blocked, true, pairs)
            }
            ArbiterKind::Autonet { iterations } => {
                self.pim_match(candidates, offered, blocked, iterations, rng, pairs)
            }
            ArbiterKind::Islip { iterations } => {
                self.islip_match(candidates, offered, blocked, iterations, pairs)
            }
            ArbiterKind::Perfect => Self::perfect_match(candidates, offered, pairs),
        }
    }

    /// Iterative propose-and-grant with ranked candidates. With
    /// `rotating_outputs` the contested-output winner is chosen by the
    /// output's rotating pointer instead of candidate rank.
    // mmr-lint: hot
    fn priority_match(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        rotating_outputs: bool,
        pairs: &mut Vec<MatchedPair>,
    ) {
        let ports = self.ports;
        let mut input_matched: u64 = 0;
        let mut output_matched = blocked;

        loop {
            // Each unmatched input proposes its best candidate whose output
            // is still free; contested outputs keep only the best-ranked
            // proposal (or, for round-robin, the one nearest the output's
            // rotating pointer). Streaming in ascending input order keeps
            // the earliest input on ties, exactly like the old
            // collect-then-reduce pass, without building proposal lists.
            // `winner_mask` marks the outputs whose winner slot is live this
            // round — stale slots are never read, so no per-round clear.
            let mut winner_mask: u64 = 0;
            // Only inputs that offered can propose, so the rounds walk a
            // shrinking bitmask instead of re-visiting idle ports.
            for p in set_ports(offered & !input_matched) {
                let Some(list) = candidates.get(p) else { continue };
                let Some(c) = list.iter().find(|c| output_matched & (1 << c.output.index()) == 0)
                else {
                    continue;
                };
                let o = c.output.index();
                let better = if winner_mask & (1 << o) == 0 {
                    true
                } else {
                    match self.winners.at(o) {
                        Some(best) if rotating_outputs => {
                            let ptr = *self.grant_ptr.at(o) % ports;
                            (c.input.index() + ports - ptr) % ports
                                < (best.input.index() + ports - ptr) % ports
                        }
                        Some(best) => c.rank_before(best),
                        // Unreachable: a live winner bit implies a filled
                        // slot; kept as a grant rather than a panic.
                        None => true,
                    }
                };
                if better {
                    winner_mask |= 1 << o;
                    *self.winners.at_mut(o) = Some(*c);
                }
            }
            if winner_mask == 0 {
                break;
            }

            // Grant phase: match every output that received a proposal.
            for o in set_ports(winner_mask) {
                let Some(w) = *self.winners.at(o) else { continue };
                if rotating_outputs {
                    *self.grant_ptr.at_mut(o) = (w.input.index() + 1) % ports;
                }
                input_matched |= 1 << w.input.index();
                output_matched |= 1 << o;
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                pairs.push(MatchedPair::from(&w));
            }
        }
    }

    /// The request phase PIM and iSLIP share: fills output *o*'s request
    /// word with the `inputs` holding a candidate for it, for every *o*
    /// outside `output_matched`, clears the grant words and returns the word
    /// of requested outputs.
    // mmr-lint: hot
    fn request(&mut self, candidates: &[Vec<Candidate>], inputs: u64, output_matched: u64) -> u64 {
        self.requests.iter_mut().for_each(|word| *word = 0);
        self.grants.iter_mut().for_each(|word| *word = 0);
        let mut requested: u64 = 0;
        for p in set_ports(inputs) {
            for c in candidates.get(p).into_iter().flatten() {
                let o = c.output.index();
                if output_matched & (1 << o) == 0 {
                    *self.requests.at_mut(o) |= 1 << p;
                    requested |= 1 << o;
                }
            }
        }
        requested
    }

    /// Parallel iterative matching (Anderson et al.): in each iteration,
    /// every requested output grants a *random* requesting input and every
    /// granted input accepts a *random* grant.
    // mmr-lint: hot
    fn pim_match(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        iterations: u32,
        rng: &mut SeededRng,
        pairs: &mut Vec<MatchedPair>,
    ) {
        let mut input_matched: u64 = 0;
        let mut output_matched = blocked;
        for _ in 0..iterations.max(1) {
            // Every request is granted and every grant accepted, so the
            // first iteration without requests is the first to match none.
            let requested = self.request(candidates, offered & !input_matched, output_matched);
            if requested == 0 {
                break;
            }
            let mut granted: u64 = 0;
            for o in set_ports(requested) {
                let word = *self.requests.at(o);
                let Some(p) = nth_set_port(word, rng.index(word.count_ones() as usize)) else {
                    continue;
                };
                *self.grants.at_mut(p) |= 1 << o;
                granted |= 1 << p;
            }
            for p in set_ports(granted) {
                let word = *self.grants.at(p);
                let Some(o) = nth_set_port(word, rng.index(word.count_ones() as usize)) else {
                    continue;
                };
                // The flit transmitted is a random candidate of (p, o).
                let matching =
                    || candidates.get(p).into_iter().flatten().filter(|c| c.output.index() == o);
                let count = matching().count();
                debug_assert!(count > 0, "grant implies a candidate");
                let Some(c) = matching().nth(rng.index(count.max(1))) else { continue };
                input_matched |= 1 << p;
                output_matched |= 1 << o;
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                pairs.push(MatchedPair::from(c));
            }
        }
    }

    /// iSLIP-style matching: each requested output grants the first
    /// requester at or after its pointer and each granted input accepts the
    /// first grant at or after its own; pointers advance only for matches
    /// made in the first iteration (the standard rule that preserves
    /// fairness).
    // mmr-lint: hot
    fn islip_match(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        iterations: u32,
        pairs: &mut Vec<MatchedPair>,
    ) {
        let ports = self.ports;
        let mut input_matched: u64 = 0;
        let mut output_matched = blocked;
        for it in 0..iterations.max(1) {
            // As in PIM: no requests, no match.
            let requested = self.request(candidates, offered & !input_matched, output_matched);
            if requested == 0 {
                break;
            }
            let mut granted: u64 = 0;
            for o in set_ports(requested) {
                let Some(p) = next_set_port(*self.requests.at(o), *self.grant_ptr.at(o)) else {
                    continue;
                };
                *self.grants.at_mut(p) |= 1 << o;
                granted |= 1 << p;
            }
            for p in set_ports(granted) {
                let Some(o) = next_set_port(*self.grants.at(p), *self.accept_ptr.at(p)) else {
                    continue;
                };
                let Some(c) =
                    candidates.get(p).and_then(|list| list.iter().find(|c| c.output.index() == o))
                else {
                    debug_assert!(false, "granted output came from a candidate");
                    continue;
                };
                input_matched |= 1 << p;
                output_matched |= 1 << o;
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                pairs.push(MatchedPair::from(c));
                if it == 0 {
                    *self.grant_ptr.at_mut(o) = (p + 1) % ports;
                    *self.accept_ptr.at_mut(p) = (o + 1) % ports;
                }
            }
        }
    }

    /// The perfect switch: every input transmits its top-ranked candidate;
    /// outputs accept any number of flits in the same cycle.
    // mmr-lint: hot
    fn perfect_match(candidates: &[Vec<Candidate>], offered: u64, pairs: &mut Vec<MatchedPair>) {
        // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
        pairs.extend(
            set_ports(offered).filter_map(|p| candidates.get(p)?.first().map(MatchedPair::from)),
        );
    }
}

/// The `n`-th set bit of a port word, counting up from bit 0: PIM's random
/// pick among the requesters or grants the word holds.
fn nth_set_port(word: u64, n: usize) -> Option<usize> {
    set_ports(word).nth(n)
}

/// The first set bit of a port word at or after bit `from`, wrapping round
/// to bit 0: iSLIP's rotating-pointer pick.
fn next_set_port(word: u64, from: usize) -> Option<usize> {
    let at_or_after = u32::try_from(from).ok().and_then(|from| u64::MAX.checked_shl(from));
    let above = word & at_or_after.unwrap_or(0);
    set_ports(if above != 0 { above } else { word }).next()
}

/// Packs one flag per port into a port word.
fn port_word(flags: impl Iterator<Item = bool>) -> u64 {
    flags.enumerate().fold(0u64, |word, (p, set)| word | u64::from(set) << p)
}

/// For tests: whether a matching is feasible for a multiplexed crossbar (one flit per input and, unless `allow_output_sharing`, per output).
#[doc(hidden)]
pub fn is_valid_matching(pairs: &[MatchedPair], ports: usize, allow_output_sharing: bool) -> bool {
    let mut in_used = vec![false; ports];
    let mut out_used = vec![false; ports];
    for p in pairs {
        // A pair addressing a port outside the switch is invalid outright.
        let Some(islot) = in_used.get_mut(p.input.index()) else { return false };
        if std::mem::replace(islot, true) {
            return false;
        }
        let Some(oslot) = out_used.get_mut(p.output.index()) else { return false };
        if !allow_output_sharing && std::mem::replace(oslot, true) {
            return false;
        }
    }
    true
}

/// The oracles for the word matchers: PIM and iSLIP as they were before
/// the request and grant words, each rebuilding its request phase into
/// per-output lists of requesting inputs and per-input lists of granting
/// outputs.
#[cfg(test)]
impl SwitchScheduler {
    /// The request phase both list matchers ran: per output, the unmatched
    /// inputs that hold a candidate for it, ascending.
    fn reference_requests(
        &self,
        candidates: &[Vec<Candidate>],
        inputs: u64,
        output_matched: u64,
    ) -> Vec<Vec<usize>> {
        let mut requests = vec![Vec::new(); self.ports];
        for p in set_ports(inputs) {
            let mut seen: u64 = 0;
            for c in candidates.get(p).into_iter().flatten() {
                let o = c.output.index();
                if (output_matched | seen) & (1 << o) == 0 {
                    seen |= 1 << o;
                    requests[o].push(p);
                }
            }
        }
        requests
    }

    /// PIM over request and grant lists.
    pub(crate) fn reference_pim_match(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        iterations: u32,
        rng: &mut SeededRng,
        pairs: &mut Vec<MatchedPair>,
    ) {
        let mut input_matched: u64 = 0;
        let mut output_matched = blocked;
        for _ in 0..iterations.max(1) {
            let requests = self.reference_requests(candidates, offered & !input_matched, output_matched);
            let mut grants = vec![Vec::new(); self.ports];
            for (o, reqs) in requests.iter().enumerate() {
                if !reqs.is_empty() {
                    grants[reqs[rng.index(reqs.len())]].push(o);
                }
            }
            let mut progress = false;
            for (p, gs) in grants.iter().enumerate() {
                if gs.is_empty() {
                    continue;
                }
                let o = gs[rng.index(gs.len())];
                let matching: Vec<&Candidate> =
                    candidates[p].iter().filter(|c| c.output.index() == o).collect();
                let c = matching[rng.index(matching.len())];
                input_matched |= 1 << p;
                output_matched |= 1 << o;
                pairs.push(MatchedPair::from(c));
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    /// iSLIP over request and grant lists.
    pub(crate) fn reference_islip_match(
        &mut self,
        candidates: &[Vec<Candidate>],
        offered: u64,
        blocked: u64,
        iterations: u32,
        pairs: &mut Vec<MatchedPair>,
    ) {
        let ports = self.ports;
        let mut input_matched: u64 = 0;
        let mut output_matched = blocked;
        for it in 0..iterations.max(1) {
            let requests = self.reference_requests(candidates, offered & !input_matched, output_matched);
            let mut grants = vec![Vec::new(); ports];
            for (o, reqs) in requests.iter().enumerate() {
                let ptr = self.grant_ptr.at(o) % ports;
                if let Some(&pick) = reqs.iter().min_by_key(|&&p| (p + ports - ptr) % ports) {
                    grants[pick].push(o);
                }
            }
            let mut progress = false;
            for (p, gs) in grants.iter().enumerate() {
                let ptr = self.accept_ptr.at(p) % ports;
                let Some(&o) = gs.iter().min_by_key(|&&o| (o + ports - ptr) % ports) else {
                    continue;
                };
                let c = candidates[p].iter().find(|c| c.output.index() == o).expect("granted");
                input_matched |= 1 << p;
                output_matched |= 1 << o;
                pairs.push(MatchedPair::from(c));
                progress = true;
                if it == 0 {
                    *self.grant_ptr.at_mut(o) = (p + 1) % ports;
                    *self.accept_ptr.at_mut(p) = (o + 1) % ports;
                }
            }
            if !progress {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ServicePhase;

    fn cand(input: u8, vc: u16, output: u8, prio: f64) -> Candidate {
        Candidate {
            input: PortId(input),
            vc: VcIndex(vc),
            output: PortId(output),
            conn: ConnectionId(u32::from(vc)),
            phase: ServicePhase::CbrGuaranteed,
            priority: prio,
        }
    }

    fn rng() -> SeededRng {
        SeededRng::new(7)
    }

    #[test]
    fn priority_match_resolves_conflict_by_priority() {
        let mut s = SwitchScheduler::new(ArbiterKind::BiasedPriority, 4);
        // Inputs 0 and 1 both want output 2; input 1 has higher priority and
        // input 0 has a fallback to output 3.
        let cands = vec![
            vec![cand(0, 0, 2, 1.0), cand(0, 1, 3, 0.5)],
            vec![cand(1, 0, 2, 9.0)],
            vec![],
            vec![],
        ];
        let pairs = s.schedule(&cands, &[false; 4], &mut rng());
        assert!(is_valid_matching(&pairs, 4, false));
        assert_eq!(pairs.len(), 2, "loser falls back to its second candidate");
        let winner = pairs.iter().find(|p| p.output == PortId(2)).expect("output 2 matched");
        assert_eq!(winner.input, PortId(1));
        let fallback = pairs.iter().find(|p| p.output == PortId(3)).expect("output 3 matched");
        assert_eq!(fallback.input, PortId(0));
    }

    #[test]
    fn single_candidate_loser_goes_unmatched() {
        let mut s = SwitchScheduler::new(ArbiterKind::BiasedPriority, 2);
        let cands = vec![vec![cand(0, 0, 1, 1.0)], vec![cand(1, 0, 1, 2.0)]];
        let pairs = s.schedule(&cands, &[false; 2], &mut rng());
        assert_eq!(pairs.len(), 1, "with one candidate there is no fallback");
        assert_eq!(pairs[0].input, PortId(1));
    }

    #[test]
    fn blocked_outputs_are_skipped() {
        let mut s = SwitchScheduler::new(ArbiterKind::BiasedPriority, 2);
        let cands = vec![vec![cand(0, 0, 1, 1.0)], vec![]];
        let pairs = s.schedule(&cands, &[false, true], &mut rng());
        assert!(pairs.is_empty(), "output 1 is claimed by a cut-through");
    }

    #[test]
    fn more_candidates_fill_more_ports() {
        // All inputs prefer output 0; extra candidates let losers divert.
        let lists_1: Vec<Vec<Candidate>> =
            (0..4).map(|i| vec![cand(i, 0, 0, f64::from(i))]).collect();
        let lists_4: Vec<Vec<Candidate>> = (0..4u8)
            .map(|i| {
                (0..4u8)
                    .map(|o| cand(i, u16::from(o), o, f64::from(i) + f64::from(4 - o)))
                    .collect()
            })
            .collect();
        let mut s = SwitchScheduler::new(ArbiterKind::BiasedPriority, 4);
        let one = s.schedule(&lists_1, &[false; 4], &mut rng()).len();
        let four = s.schedule(&lists_4, &[false; 4], &mut rng()).len();
        assert_eq!(one, 1);
        assert_eq!(four, 4, "4 candidates per input saturate the switch");
    }

    #[test]
    fn pim_produces_valid_maximal_matchings() {
        let mut s = SwitchScheduler::new(ArbiterKind::autonet_default(), 8);
        let mut r = rng();
        // Dense request pattern: every input offers every output.
        let cands: Vec<Vec<Candidate>> =
            (0..8).map(|i| (0..8).map(|o| cand(i, u16::from(o), o, 0.0)).collect()).collect();
        for _ in 0..50 {
            let pairs = s.schedule(&cands, &[false; 8], &mut r);
            assert!(is_valid_matching(&pairs, 8, false));
            assert_eq!(pairs.len(), 8, "dense PIM converges to a perfect matching");
        }
    }

    #[test]
    fn pim_respects_blocked_outputs() {
        let mut s = SwitchScheduler::new(ArbiterKind::autonet_default(), 4);
        let cands: Vec<Vec<Candidate>> =
            (0..4).map(|i| vec![cand(i, 0, 0, 0.0)]).collect();
        let blocked = [true, false, false, false];
        let pairs = s.schedule(&cands, &blocked, &mut rng());
        assert!(pairs.is_empty());
    }

    #[test]
    fn islip_is_deterministic_and_valid() {
        let mut s = SwitchScheduler::new(ArbiterKind::Islip { iterations: 4 }, 4);
        let cands: Vec<Vec<Candidate>> =
            (0..4).map(|i| (0..4).map(|o| cand(i, u16::from(o), o, 0.0)).collect()).collect();
        let pairs = s.schedule(&cands, &[false; 4], &mut rng());
        assert!(is_valid_matching(&pairs, 4, false));
        assert_eq!(pairs.len(), 4);
        // Pointers rotate: repeated scheduling shifts the grants.
        let again = s.schedule(&cands, &[false; 4], &mut rng());
        assert!(is_valid_matching(&again, 4, false));
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn islip_pointer_rotation_shares_contested_output() {
        let mut s = SwitchScheduler::new(ArbiterKind::Islip { iterations: 1 }, 2);
        let cands = vec![vec![cand(0, 0, 0, 0.0)], vec![cand(1, 0, 0, 0.0)]];
        let first = s.schedule(&cands, &[false; 2], &mut rng());
        let second = s.schedule(&cands, &[false; 2], &mut rng());
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].input, second[0].input, "pointer moved past the first winner");
    }

    #[test]
    fn perfect_switch_ignores_conflicts() {
        let mut s = SwitchScheduler::new(ArbiterKind::Perfect, 4);
        let cands: Vec<Vec<Candidate>> =
            (0..4).map(|i| vec![cand(i, 0, 0, 0.0)]).collect();
        let pairs = s.schedule(&cands, &[false; 4], &mut rng());
        assert_eq!(pairs.len(), 4, "all four inputs transmit to output 0 at once");
        assert!(is_valid_matching(&pairs, 4, true));
        assert!(!is_valid_matching(&pairs, 4, false));
    }

    #[test]
    fn round_robin_rotates_winners() {
        let mut s = SwitchScheduler::new(ArbiterKind::RoundRobin, 2);
        let cands = vec![vec![cand(0, 0, 0, 0.0)], vec![cand(1, 0, 0, 0.0)]];
        let a = s.schedule(&cands, &[false; 2], &mut rng())[0].input;
        let b = s.schedule(&cands, &[false; 2], &mut rng())[0].input;
        assert_ne!(a, b, "grant pointer alternates the contested output");
    }

    #[test]
    fn empty_candidates_yield_empty_matching() {
        let mut s = SwitchScheduler::new(ArbiterKind::BiasedPriority, 3);
        let pairs = s.schedule(&vec![Vec::new(); 3], &[false; 3], &mut rng());
        assert!(pairs.is_empty());
    }

    #[test]
    fn nth_set_port_counts_up_from_bit_zero() {
        let word = 1 | 1 << 5 | 1 << 63;
        assert_eq!(nth_set_port(word, 0), Some(0));
        assert_eq!(nth_set_port(word, 1), Some(5));
        assert_eq!(nth_set_port(word, 2), Some(63), "port 63 is the last bit");
        assert_eq!(nth_set_port(word, 3), None);
        assert_eq!(nth_set_port(1 << 9, 0), Some(9), "a single set bit");
        assert_eq!(nth_set_port(0, 0), None);
    }

    #[test]
    fn next_set_port_wraps_past_the_last_port() {
        let word = 1 << 2 | 1 << 40 | 1 << 63;
        assert_eq!(next_set_port(word, 0), Some(2));
        assert_eq!(next_set_port(word, 2), Some(2), "at the pointer counts");
        assert_eq!(next_set_port(word, 3), Some(40));
        assert_eq!(next_set_port(word, 41), Some(63), "port 63");
        assert_eq!(next_set_port(1 << 63, 63), Some(63));
        assert_eq!(next_set_port(1 << 2 | 1 << 40, 41), Some(2), "wrap-around");
        assert_eq!(next_set_port(1 << 2 | 1 << 40, 64), Some(2), "a pointer past bit 63");
        for from in [0, 17, 63] {
            assert_eq!(next_set_port(1 << 17, from), Some(17), "a single set bit from {from}");
        }
        assert_eq!(next_set_port(0, 5), None);
    }

    proptest::proptest! {
        /// On random candidate sets (2–64 ports), blocked outputs and 1–4
        /// iterations, called repeatedly on one scheduler, the word matchers
        /// return the pairs the list matchers return, in the same order,
        /// and leave the same pointers and the same RNG state.
        #[test]
        fn the_word_matchers_match_the_list_rule(
            seed in proptest::any::<u64>(),
            ports in 2usize..65,
            iterations in 1u32..5,
            islip in proptest::any::<bool>(),
        ) {
            let kind = if islip {
                ArbiterKind::Islip { iterations }
            } else {
                ArbiterKind::Autonet { iterations }
            };
            let mut draw = SeededRng::new(seed);
            let mut word = SwitchScheduler::new(kind, ports);
            let mut list = word.clone();
            let (mut word_rng, mut list_rng) = (SeededRng::new(!seed), SeededRng::new(!seed));
            for call in 0..6 {
                let density = draw.unit();
                let cands: Vec<Vec<Candidate>> = (0..ports)
                    .map(|i| {
                        let n = if draw.chance(density) { 1 + draw.index(8) } else { 0 };
                        (0..n)
                            .map(|v| cand(i as u8, v as u16, draw.index(ports) as u8, 0.0))
                            .collect()
                    })
                    .collect();
                let blocked: Vec<bool> = (0..ports).map(|_| draw.chance(0.2)).collect();
                let offered = port_word(cands.iter().map(|l| !l.is_empty()));
                let blocked_word = port_word(blocked.iter().copied());
                let got = word.schedule(&cands, &blocked, &mut word_rng);
                let mut want = Vec::new();
                if offered != 0 {
                    if islip {
                        list.reference_islip_match(
                            &cands, offered, blocked_word, iterations, &mut want,
                        );
                    } else {
                        list.reference_pim_match(
                            &cands, offered, blocked_word, iterations, &mut list_rng, &mut want,
                        );
                    }
                }
                proptest::prop_assert_eq!(&got, &want, "call {}", call);
                let ptrs = |s: &SwitchScheduler| {
                    (0..ports).map(|p| (*s.grant_ptr.at(p), *s.accept_ptr.at(p))).collect::<Vec<_>>()
                };
                proptest::prop_assert_eq!(ptrs(&word), ptrs(&list), "call {}", call);
                proptest::prop_assert_eq!(&word_rng, &list_rng, "call {}", call);
            }
        }
    }
}
