//! The NF corpus — every network function the evaluation analyses,
//! written in NFL.
//!
//! The paper studies **snort 1.0** (2,678 LoC) and **balance 3.5**
//! (1,559 LoC) plus the Figure 1 load balancer. Their C sources are
//! substituted by NFL programs with the same analysis-relevant anatomy;
//! [`snort`] and [`balance`] are *generators* so the original-code size
//! (and with it the path-explosion behaviour Table 2 reports) scales to
//! the paper's numbers: the generated bulk is exactly the kind of code
//! the paper says slicing prunes — "logs, failure handling, locking,
//! etc."
//!
//! | module | paper artefact | shape |
//! |---|---|---|
//! | [`fig1_lb`]   | Figure 1 scapy LB     | callback (Fig. 4b), NAT maps, RR/hash modes |
//! | [`balance`]   | balance 3.5, Figure 3 | nested loop (Fig. 4d), socket API, hidden TCP state |
//! | [`snort`]     | snort 1.0             | callback, preprocessors + rule chain, log counters |
//! | [`nat`]       | classic NAPT          | callback, bidirectional translation |
//! | [`firewall`]  | stateful firewall     | callback, outbound-initiated pinholes |
//! | [`structures`]| Figure 4 a–d          | the four structure archetypes |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod fig1_lb;
pub mod firewall;
pub mod nat;
pub mod portknock;
pub mod ratelimiter;
pub mod router;
pub mod snort;
pub mod structures;

/// A corpus entry: name + NFL source.
#[derive(Debug, Clone)]
pub struct CorpusNf {
    /// Short identifier used in reports.
    pub name: &'static str,
    /// The NFL source text.
    pub source: String,
}

/// The default corpus at paper-comparable sizes: `snort` ≈ 2.7k LoC and
/// `balance` ≈ 1.5k LoC like Table 2's originals.
pub fn default_corpus() -> Vec<CorpusNf> {
    vec![
        CorpusNf {
            name: "fig1-lb",
            source: fig1_lb::source(),
        },
        CorpusNf {
            name: "balance",
            source: balance::source(balance::PAPER_SCALE_EXTRAS),
        },
        CorpusNf {
            name: "snort",
            source: snort::source(snort::PAPER_SCALE_RULES),
        },
        CorpusNf {
            name: "nat",
            source: nat::source(),
        },
        CorpusNf {
            name: "firewall",
            source: firewall::source(),
        },
        CorpusNf {
            name: "ratelimiter",
            source: ratelimiter::source(),
        },
        CorpusNf {
            name: "portknock",
            source: portknock::source(),
        },
        CorpusNf {
            name: "router",
            source: router::source(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_corpus_parses_and_checks() {
        for nf in default_corpus() {
            nfl_lang::parse_and_check(&nf.source).unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        }
    }

    #[test]
    fn corpus_loc_matches_paper_scale() {
        let corpus = default_corpus();
        let loc = |name: &str| {
            let nf = corpus.iter().find(|n| n.name == name).unwrap();
            nfl_lang::parse(&nf.source).unwrap().loc()
        };
        let snort_loc = loc("snort");
        let balance_loc = loc("balance");
        // Table 2: snort 2678, balance 1559. Stay within ±25%.
        assert!((2000..=3400).contains(&snort_loc), "snort LoC {snort_loc}");
        assert!(
            (1150..=2000).contains(&balance_loc),
            "balance LoC {balance_loc}"
        );
        assert!(snort_loc > balance_loc, "snort is the bigger NF");
    }
}
