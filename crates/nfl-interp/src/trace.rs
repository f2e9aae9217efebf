//! Execution traces.
//!
//! A [`Trace`] is the dynamic record of one packet's journey through the
//! NF: the id of every executed statement, the outcome of each branch,
//! and the *event index* of the branch instance each statement was
//! controlled by. It records only what happened at run time. What a
//! statement reads and writes is a static property of its text, so the
//! dynamic slicer reads it from the program
//! (`nfl_analysis::defuse::def_use`) as it walks the trace backwards
//! (Agrawal–Horgan \[3\]) to find the statements that *really*
//! contributed to an output, versus the static slice's *might*.

use nfl_lang::StmtId;

/// One executed statement instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The statement that executed.
    pub stmt: StmtId,
    /// For branch statements: which way the condition went.
    pub branch: Option<bool>,
    /// Event index of the innermost enclosing branch instance, if any —
    /// the *dynamic* control dependence.
    pub ctrl: Option<usize>,
    /// Did this instance emit a packet (`send`)?
    pub emitted: bool,
}

/// The full trace of one per-packet execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Record an event, returning its index.
    pub fn push(&mut self, ev: TraceEvent) -> usize {
        self.events.push(ev);
        self.events.len() - 1
    }

    /// Indices of events that emitted packets.
    pub fn emit_indices(&self) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.emitted)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stmt: u32, emitted: bool) -> TraceEvent {
        TraceEvent {
            stmt: StmtId(stmt),
            branch: None,
            ctrl: None,
            emitted,
        }
    }

    #[test]
    fn emit_indices_finds_sends() {
        let mut t = Trace::default();
        t.push(ev(0, false));
        t.push(ev(1, true));
        t.push(ev(2, false));
        t.push(ev(1, true));
        assert_eq!(t.emit_indices(), vec![1, 3]);
    }
}
