//! The NFL builtin function table.
//!
//! §3.1 of the paper: *"NF programs usually use standard library or system
//! functions to exchange packets with the OS kernel/network devices — thus,
//! NFactor leverages this knowledge to locate packet read/write statements
//! in the program."* This table is that knowledge, made explicit: every
//! builtin carries an [`Effect`] so the analyses can recognise packet I/O
//! (`send` is `PKT_OUTPUT_FUNC` in Algorithm 1), logging (pruned from
//! slices), and socket calls with hidden OS state (unfolded by `nf-tcp`).

use crate::types::Ty;

/// The analysis-relevant effect of a builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// No side effect; value depends only on arguments.
    Pure,
    /// Reads one packet from the wire (`recv`). Its result is the packet
    /// variable (`pktVar`).
    PacketInput,
    /// Writes a packet to the wire (`send`). Slicing criteria start here.
    PacketOutput,
    /// Explicitly discards the packet (`drop` — usually implicit, §3.2
    /// "Drop Action").
    Drop,
    /// Writes to the log. `logVar`s flow only into these.
    Log,
    /// A socket API call whose semantics live in the OS TCP state machine
    /// (§3.2 "Hidden States"); replaced by `nf-tcp`'s unfolding pass.
    Socket,
    /// Mutates its first argument in place (map/queue operations).
    Mutator,
    /// Registers a callback packet loop (`sniff`) — the Figure 4b
    /// structure, normalised away by `nfl-analysis`.
    Loop,
}

/// Signature and classification of one builtin.
#[derive(Debug, Clone)]
pub struct Builtin {
    /// Callable name.
    pub name: &'static str,
    /// Minimum number of arguments.
    pub min_args: usize,
    /// Maximum number of arguments.
    pub max_args: usize,
    /// Parameter types (padded with [`Ty::Unknown`] = any for variadic
    /// tails).
    pub params: &'static [Ty],
    /// Return type.
    pub ret: Ty,
    /// Effect classification.
    pub effect: Effect,
    /// Index of an argument that is mutated in place, if any.
    pub mutates: Option<usize>,
}

/// The full builtin table.
pub const BUILTINS: &[Builtin] = &[
    // Packet I/O ---------------------------------------------------------
    Builtin {
        name: "recv",
        min_args: 0,
        max_args: 1, // optional interface name
        params: &[Ty::Str],
        ret: Ty::Packet,
        effect: Effect::PacketInput,
        mutates: None,
    },
    Builtin {
        name: "send",
        min_args: 1,
        max_args: 2, // optional interface name
        params: &[Ty::Packet, Ty::Str],
        ret: Ty::Unit,
        effect: Effect::PacketOutput,
        mutates: None,
    },
    Builtin {
        name: "drop",
        min_args: 0,
        max_args: 1,
        params: &[Ty::Packet],
        ret: Ty::Unit,
        effect: Effect::Drop,
        mutates: None,
    },
    Builtin {
        name: "sniff",
        min_args: 1,
        max_args: 2, // callback, optional interface
        params: &[Ty::Unknown, Ty::Str],
        ret: Ty::Unit,
        effect: Effect::Loop,
        mutates: None,
    },
    Builtin {
        name: "spawn",
        min_args: 1,
        max_args: 1, // a zero-argument thread body function
        params: &[Ty::Unknown],
        ret: Ty::Unit,
        effect: Effect::Loop,
        mutates: None,
    },
    // Logging -------------------------------------------------------------
    Builtin {
        name: "log",
        min_args: 1,
        max_args: 4,
        params: &[Ty::Unknown, Ty::Unknown, Ty::Unknown, Ty::Unknown],
        ret: Ty::Unit,
        effect: Effect::Log,
        mutates: None,
    },
    // Pure helpers ---------------------------------------------------------
    Builtin {
        name: "hash",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Unknown],
        ret: Ty::Int,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "len",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Unknown],
        ret: Ty::Int,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "min",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Int, Ty::Int],
        ret: Ty::Int,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "max",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Int, Ty::Int],
        ret: Ty::Int,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "checksum",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Packet],
        ret: Ty::Int,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "fragment",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Packet, Ty::Int],
        ret: Ty::ARRAY_OF_PACKET,
        effect: Effect::Pure,
        mutates: None,
    },
    // Constructors ---------------------------------------------------------
    Builtin {
        name: "map",
        min_args: 0,
        max_args: 0,
        params: &[],
        ret: Ty::MAP_UNKNOWN,
        effect: Effect::Pure,
        mutates: None,
    },
    Builtin {
        name: "queue",
        min_args: 0,
        max_args: 0,
        params: &[],
        ret: Ty::Queue,
        effect: Effect::Pure,
        mutates: None,
    },
    // Mutators --------------------------------------------------------------
    Builtin {
        name: "map_remove",
        min_args: 2,
        max_args: 2,
        params: &[Ty::MAP_UNKNOWN, Ty::Unknown],
        ret: Ty::Unit,
        effect: Effect::Mutator,
        mutates: Some(0),
    },
    Builtin {
        name: "q_push",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Queue, Ty::Packet],
        ret: Ty::Unit,
        effect: Effect::Mutator,
        mutates: Some(0),
    },
    Builtin {
        name: "q_pop",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Queue],
        ret: Ty::Packet,
        effect: Effect::Mutator,
        mutates: Some(0),
    },
    // Socket API (hidden TCP state; unfolded by nf-tcp) ---------------------
    Builtin {
        name: "listen",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Int], // port
        ret: Ty::Int,       // listening fd
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "accept",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Int], // listening fd
        ret: Ty::Int,       // connection fd
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "connect",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Int, Ty::Int], // addr, port
        ret: Ty::Int,                // connection fd
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "sock_read",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Int],
        ret: Ty::Packet, // a buffer, viewed as payload-only packet
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "sock_write",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Int, Ty::Packet],
        ret: Ty::Unit,
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "sock_close",
        min_args: 1,
        max_args: 1,
        params: &[Ty::Int],
        ret: Ty::Unit,
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "fork",
        min_args: 0,
        max_args: 0,
        params: &[],
        ret: Ty::Int, // 0 in child, 1 in parent (simplified)
        effect: Effect::Socket,
        mutates: None,
    },
    Builtin {
        name: "select2",
        min_args: 2,
        max_args: 2,
        params: &[Ty::Int, Ty::Int],
        ret: Ty::Int, // which fd is readable: 0 or 1
        effect: Effect::Socket,
        mutates: None,
    },
];

/// Look up a builtin by name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// Is `name` the packet output function (`PKT_OUTPUT_FUNC` of Algorithm 1)?
pub fn is_packet_output(name: &str) -> bool {
    lookup(name).map(|b| b.effect == Effect::PacketOutput) == Some(true)
}

/// Is `name` a socket builtin with hidden OS state?
pub fn is_socket(name: &str) -> bool {
    lookup(name).map(|b| b.effect == Effect::Socket) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_and_unknown() {
        assert!(lookup("send").is_some());
        assert!(lookup("frobnicate").is_none());
    }

    #[test]
    fn effect_queries() {
        assert!(is_packet_output("send"));
        assert!(!is_packet_output("recv"));
        assert!(is_socket("accept"));
        assert!(!is_socket("hash"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = BUILTINS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn arg_bounds_consistent() {
        for b in BUILTINS {
            assert!(b.min_args <= b.max_args, "{}", b.name);
            assert!(b.params.len() >= b.max_args.min(b.params.len()));
            if let Some(i) = b.mutates {
                assert!(i < b.max_args, "{} mutates out-of-range arg", b.name);
            }
        }
    }
}
