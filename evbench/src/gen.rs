//! Seeded input generators. The benchmark owns these: the engine under
//! test only ever sees what they produce, and the same `--seed` gives the
//! same inputs on every commit.
//!
//! Every input is a pure function of `(seed, seq)`, so the producer, the
//! sink-side verifier and the reference calculators all derive an event
//! from its sequence number alone and share no state.

/// SplitMix64: the whole generator. Small, seedable, and good enough for
/// workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generator positioned at event `seq` of stream `seed`.
fn at(seed: u64, seq: u64) -> Rng {
    Rng(mix(seed ^ 0x6576_6265_6e63_6831).wrapping_add(seq.wrapping_mul(0xd1b5_4a32_d192_ed03)))
}

pub const SYMBOLS: u64 = 64;
/// Prices are whole cents in `[100.00, 200.00)` so their text form
/// round-trips exactly through the wire protocol.
pub const PRICE_LO_CENTS: u64 = 10_000;
pub const PRICE_SPAN_CENTS: u64 = 10_000;
/// Event-time origin (ms): keeps every window start positive.
pub const TS_BASE: i64 = 1_000_000;
/// Share of ticks whose event time trails their arrival slot.
const DELAYED_PER_MILLE: u64 = 50;
/// Upper bound of that delay; strictly inside the 200 ms lateness the
/// window workload configures, so no tick is ever dropped as late.
const MAX_DELAY_MS: u64 = 150;

pub fn sym_name(sym: u64) -> String {
    format!("S{sym:02}")
}

/// One market tick: the input of the three stream workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    pub seq: u64,
    pub sym: u64,
    pub price: f64,
    pub volume: i64,
    /// How far this tick's event time trails its arrival slot (ms); 0 for
    /// the 95 % that arrive in order.
    pub delay_ms: i64,
}

pub fn tick(seed: u64, seq: u64) -> Tick {
    let mut r = at(seed, seq);
    let sym = r.below(SYMBOLS);
    let price = (PRICE_LO_CENTS + r.below(PRICE_SPAN_CENTS)) as f64 / 100.0;
    let volume = 1 + r.below(1_000) as i64;
    let delay_ms = if r.below(1_000) < DELAYED_PER_MILLE {
        1 + r.below(MAX_DELAY_MS) as i64
    } else {
        0
    };
    Tick {
        seq,
        sym,
        price,
        volume,
        delay_ms,
    }
}

impl Tick {
    /// Event time when ticks are scheduled `rate` per second: the arrival
    /// slot's schedule time, minus this tick's delay.
    pub fn event_ts(&self, rate: u64) -> i64 {
        slot_ts(self.seq, rate) - self.delay_ms
    }
}

/// Schedule time (event-time ms) of arrival slot `seq` at `rate` per second.
pub fn slot_ts(seq: u64, rate: u64) -> i64 {
    TS_BASE + (seq * 1_000 / rate) as i64
}

/// The first arrival whose tick carries the stream's maximum event time to
/// at least `ts`: the event that makes a watermark (or an event-time
/// frontier) reach `ts`. No slot scheduled before `ts` can (a delay only
/// lowers a tick's time), so the search starts at the first slot
/// scheduled at or after `ts` and skips ticks delayed back below it.
pub fn first_seq_reaching(seed: u64, rate: u64, ts: i64) -> u64 {
    let ms = (ts - TS_BASE).max(0) as u64;
    // Smallest seq with seq * 1000 / rate >= ms.
    let mut seq = (ms * rate).div_ceil(1_000);
    while tick(seed, seq).event_ts(rate) < ts {
        seq += 1;
    }
    seq
}

/// One order row: the input of `durable_pipeline`.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub oid: u64,
    pub sym: u64,
    pub qty: i64,
    pub price: f64,
}

/// The alert rule on orders fires for `qty >= ALERT_QTY`: 10 of the 100
/// equally likely quantities.
pub const ALERT_QTY: i64 = 91;

pub fn order(seed: u64, oid: u64) -> Order {
    let mut r = at(seed ^ 0x6f72_6465_7273, oid);
    Order {
        oid,
        sym: r.below(SYMBOLS),
        qty: 1 + r.below(100) as i64,
        price: (PRICE_LO_CENTS + r.below(PRICE_SPAN_CENTS)) as f64 / 100.0,
    }
}

impl Order {
    pub fn notional(&self) -> f64 {
        self.qty as f64 * self.price
    }

    pub fn alerts(&self) -> bool {
        self.qty >= ALERT_QTY
    }
}

/// One alert rule of `rules_embedded`.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleSpec {
    /// `sym = 'Sxx' AND price BETWEEN lo AND hi`: indexed on `sym`.
    Band { sym: u64, lo: f64, hi: f64 },
    /// `sym LIKE 'S<d>%' AND volume % 97 = k`: no indexable conjunct, so
    /// the matcher evaluates it for every event.
    Residual { digit: u64, k: i64 },
}

impl RuleSpec {
    pub fn predicate(&self) -> String {
        match self {
            RuleSpec::Band { sym, lo, hi } => {
                format!(
                    "sym = '{}' AND price BETWEEN {lo:.2} AND {hi:.2}",
                    sym_name(*sym)
                )
            }
            RuleSpec::Residual { digit, k } => {
                format!("sym LIKE 'S{digit}%' AND volume % 97 = {k}")
            }
        }
    }
}

pub const RULES: usize = 10_000;
/// One rule in twenty is residual-only.
const RESIDUAL_EVERY: usize = 20;

/// The seeded rule set. Band widths are drawn so that a tick matches
/// about two of the ~150 bands on its symbol.
pub fn rule_set(seed: u64) -> Vec<RuleSpec> {
    let mut r = Rng::new(mix(seed ^ 0x0072_756c_6573));
    (0..RULES)
        .map(|i| {
            if i % RESIDUAL_EVERY == RESIDUAL_EVERY - 1 {
                RuleSpec::Residual {
                    digit: r.below(7),
                    k: r.below(97) as i64,
                }
            } else {
                let lo_cents = PRICE_LO_CENTS + r.below(PRICE_SPAN_CENTS);
                let width_cents = 20 + r.below(240);
                RuleSpec::Band {
                    sym: r.below(SYMBOLS),
                    lo: lo_cents as f64 / 100.0,
                    hi: (lo_cents + width_cents) as f64 / 100.0,
                }
            }
        })
        .collect()
}

/// A band that no tick can satisfy (prices stop below 200): what the
/// producer adds and removes while matching runs. It lands in the same
/// index posting list as a live band, and leaves the expected match
/// count of every event untouched.
pub fn churn_rule(n: u64) -> RuleSpec {
    RuleSpec::Band {
        sym: n % SYMBOLS,
        lo: 1_000.0 + n as f64,
        hi: 1_001.0 + n as f64,
    }
}

/// Reference match counter: how many rules of the set a tick satisfies,
/// by plain arithmetic on the generator's own values, independent of the
/// engine's index and evaluator.
pub struct RuleOracle {
    by_sym: Vec<Vec<(f64, f64)>>,
    residual: Vec<(u64, i64)>,
}

impl RuleOracle {
    pub fn new(rules: &[RuleSpec]) -> RuleOracle {
        let mut by_sym = vec![Vec::new(); SYMBOLS as usize];
        let mut residual = Vec::new();
        for rule in rules {
            match rule {
                RuleSpec::Band { sym, lo, hi } => by_sym[*sym as usize].push((*lo, *hi)),
                RuleSpec::Residual { digit, k } => residual.push((*digit, *k)),
            }
        }
        RuleOracle { by_sym, residual }
    }

    pub fn count(&self, t: &Tick) -> u32 {
        let bands = self.by_sym[t.sym as usize]
            .iter()
            .filter(|(lo, hi)| *lo <= t.price && t.price <= *hi)
            .count();
        let residual = self
            .residual
            .iter()
            .filter(|(digit, k)| t.sym / 10 == *digit && t.volume % 97 == *k)
            .count();
        (bands + residual) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        assert_eq!(tick(7, 123), tick(7, 123));
        assert_eq!(order(7, 9), order(7, 9));
        assert_eq!(rule_set(3), rule_set(3));
        assert_ne!(
            (0..64).map(|i| tick(1, i)).collect::<Vec<_>>(),
            (0..64).map(|i| tick(2, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ticks_stay_in_their_domain() {
        let mut delayed = 0;
        for seq in 0..20_000 {
            let t = tick(11, seq);
            assert!(t.sym < SYMBOLS);
            assert!((100.0..200.0).contains(&t.price));
            assert!((1..=1_000).contains(&t.volume));
            assert!((0..=MAX_DELAY_MS as i64).contains(&t.delay_ms));
            delayed += (t.delay_ms > 0) as u32;
        }
        // 5 % nominal.
        assert!((800..1_200).contains(&delayed), "{delayed}");
    }

    #[test]
    fn first_seq_reaching_is_the_first_in_order_tick_at_that_time() {
        for (seed, rate) in [(5, 4_000), (6, 300)] {
            for ts in [TS_BASE, TS_BASE + 1, TS_BASE + 999, TS_BASE + 12_345] {
                let seq = first_seq_reaching(seed, rate, ts);
                assert!(tick(seed, seq).event_ts(rate) >= ts);
                // Nothing earlier carries the maximum that far.
                let max_before = (0..seq).map(|s| tick(seed, s).event_ts(rate)).max();
                assert!(max_before.is_none_or(|m| m < ts), "ts {ts} seq {seq}");
            }
        }
    }

    #[test]
    fn rule_oracle_agrees_with_a_hand_checked_fixture() {
        let rules = vec![
            RuleSpec::Band {
                sym: 3,
                lo: 110.0,
                hi: 120.0,
            },
            RuleSpec::Band {
                sym: 3,
                lo: 119.5,
                hi: 119.5,
            },
            RuleSpec::Band {
                sym: 4,
                lo: 100.0,
                hi: 200.0,
            },
            RuleSpec::Residual { digit: 0, k: 5 },
            RuleSpec::Residual { digit: 1, k: 5 },
        ];
        let oracle = RuleOracle::new(&rules);
        let t = |sym, price, volume| Tick {
            seq: 0,
            sym,
            price,
            volume,
            delay_ms: 0,
        };
        // S03 at 119.50: both S03 bands (bounds inclusive); 102 % 97 = 5 and
        // 'S03' starts with 'S0', so the first residual rule too.
        assert_eq!(oracle.count(&t(3, 119.5, 102)), 3);
        // S03 at 120.01: outside both bands; volume 6 misses the residue.
        assert_eq!(oracle.count(&t(3, 120.01, 6)), 0);
        // S13: no band on that symbol; 'S13' starts with 'S1', 5 % 97 = 5.
        assert_eq!(oracle.count(&t(13, 150.0, 5)), 1);
    }

    #[test]
    fn churn_rules_never_match_and_the_set_has_both_kinds() {
        let rules = rule_set(1);
        assert_eq!(rules.len(), RULES);
        let residual = rules
            .iter()
            .filter(|r| matches!(r, RuleSpec::Residual { .. }))
            .count();
        assert_eq!(residual, RULES / RESIDUAL_EVERY);
        for seq in 0..2_000 {
            assert_eq!(RuleOracle::new(&[churn_rule(seq)]).count(&tick(1, seq)), 0);
        }
        // About two matches per tick, so notification volume stays modest.
        let oracle = RuleOracle::new(&rules);
        let total: u32 = (0..2_000).map(|s| oracle.count(&tick(1, s))).sum();
        assert!((2_000..8_000).contains(&total), "{total}");
    }

    #[test]
    fn a_tenth_of_orders_alert() {
        let alerts = (0..10_000).filter(|&i| order(1, i).alerts()).count();
        assert!((800..1_200).contains(&alerts), "{alerts}");
        let o = Order {
            oid: 1,
            sym: 0,
            qty: 3,
            price: 100.5,
        };
        assert_eq!(o.notional(), 301.5);
    }
}
