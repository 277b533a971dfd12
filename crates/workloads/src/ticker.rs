//! The stock-market data generator (the paper's motivating scenario).

use wsg_net::{Rng64, RngExt};

use wsg_xml::Element;

use crate::zipf::Zipf;

/// One market-data event.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Global tick sequence number.
    pub seq: u64,
    /// Symbol name ("SYM00", …).
    pub symbol: String,
    /// Last trade price.
    pub price: f64,
    /// Trade volume.
    pub volume: u32,
}

impl Tick {
    /// Encode as the SOAP payload element used by the examples/harness.
    pub fn to_element(&self) -> Element {
        Element::new("tick")
            .with_attr("seq", self.seq.to_string())
            .with_child(Element::text_node("symbol", self.symbol.clone()))
            .with_child(Element::text_node("price", format!("{:.2}", self.price)))
            .with_child(Element::text_node("volume", self.volume.to_string()))
    }

    /// Decode from the payload element.
    pub fn from_element(element: &Element) -> Option<Tick> {
        Some(Tick {
            seq: element.attr("seq")?.parse().ok()?,
            symbol: element.child("symbol")?.text(),
            price: element.child("price")?.text().parse().ok()?,
            volume: element.child("volume")?.text().parse().ok()?,
        })
    }
}

/// A multi-symbol random-walk market: Zipf-popular symbols, geometric
/// price steps, heavy-tailed volumes.
///
/// ```
/// use wsg_workloads::StockTicker;
/// use wsg_net::Pcg32;
///
/// let mut ticker = StockTicker::new(16);
/// let mut rng = Pcg32::new(9, 0);
/// let tick = ticker.next_tick(&mut rng);
/// assert!(tick.price > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct StockTicker {
    prices: Vec<f64>,
    popularity: Zipf,
    next_seq: u64,
}

impl StockTicker {
    /// A market of `symbols` symbols, all starting near 100.0.
    ///
    /// # Panics
    ///
    /// Panics when `symbols` is zero.
    pub fn new(symbols: usize) -> Self {
        assert!(symbols > 0, "need at least one symbol");
        StockTicker {
            prices: (0..symbols).map(|i| 80.0 + 5.0 * (i % 9) as f64).collect(),
            popularity: Zipf::new(symbols, 1.1),
            next_seq: 0,
        }
    }

    /// The symbol name of a rank.
    fn symbol_name(rank: usize) -> String {
        format!("SYM{rank:02}")
    }

    /// Generate the next tick.
    pub fn next_tick<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Tick {
        let rank = self.popularity.sample(rng);
        // Geometric random walk, ±0.5% per tick, floored at a penny.
        let step: f64 = rng.gen_range(-0.005..0.005);
        self.prices[rank] = (self.prices[rank] * (1.0 + step)).max(0.01);
        // Heavy-tailed volume: 10^(0..3) scale.
        let magnitude: f64 = rng.gen_range(0.0..3.0);
        let volume = (10f64.powf(magnitude)).round() as u32 * 100;
        let tick = Tick {
            seq: self.next_seq,
            symbol: Self::symbol_name(rank),
            price: self.prices[rank],
            volume,
        };
        self.next_seq += 1;
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::Pcg32;

    #[test]
    fn ticks_have_increasing_seq() {
        let mut ticker = StockTicker::new(4);
        let mut rng = Pcg32::new(1, 0);
        let a = ticker.next_tick(&mut rng);
        let b = ticker.next_tick(&mut rng);
        assert_eq!(b.seq, a.seq + 1);
    }

    #[test]
    fn prices_stay_positive() {
        let mut ticker = StockTicker::new(2);
        let mut rng = Pcg32::new(2, 0);
        for _ in 0..10_000 {
            assert!(ticker.next_tick(&mut rng).price > 0.0);
        }
    }

    #[test]
    fn element_roundtrip() {
        let mut ticker = StockTicker::new(8);
        let mut rng = Pcg32::new(3, 0);
        let tick = ticker.next_tick(&mut rng);
        let parsed = Tick::from_element(&tick.to_element()).unwrap();
        assert_eq!(parsed.seq, tick.seq);
        assert_eq!(parsed.symbol, tick.symbol);
        assert_eq!(parsed.volume, tick.volume);
        assert!((parsed.price - tick.price).abs() < 0.01);
    }

    #[test]
    fn hot_symbols_dominate() {
        let mut ticker = StockTicker::new(20);
        let mut rng = Pcg32::new(4, 0);
        let mut counts = vec![0u32; 20];
        for _ in 0..20_000 {
            let tick = ticker.next_tick(&mut rng);
            let rank: usize = tick.symbol[3..].parse().unwrap();
            counts[rank] += 1;
        }
        assert!(counts[0] > counts[10] * 3, "zipf head should dominate: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one symbol")]
    fn zero_symbols_rejected() {
        let _ = StockTicker::new(0);
    }
}
