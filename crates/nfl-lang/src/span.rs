//! Source positions, used for diagnostics and for the Table 2 LoC
//! accounting (a slice is reported by which source lines it keeps).

use std::fmt;

/// A half-open byte range in the source with the 1-based line of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Span {
    /// A span covering `start..end` on `line`.
    pub fn new(start: usize, end: usize, line: u32) -> Self {
        Span { start, end, line }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// Precomputed line-start table for a source text, turning byte offsets
/// into `(line, column)` pairs and back into line text — the substrate
/// for rustc-style diagnostic snippets (`nfl-lint`'s text renderer).
#[derive(Debug, Clone)]
pub struct LineIndex {
    /// Byte offset of the first character of each line (line 1 first).
    starts: Vec<usize>,
    /// Total source length, so the last line has a known end.
    len: usize,
}

impl LineIndex {
    /// Index `src`'s line structure.
    pub fn new(src: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex {
            starts,
            len: src.len(),
        }
    }

    /// 1-based `(line, column)` of a byte offset. Offsets past the end
    /// clamp to the last position.
    pub fn line_col(&self, offset: usize) -> (u32, u32) {
        let offset = offset.min(self.len);
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = offset - self.starts[line] + 1;
        (line as u32 + 1, col as u32)
    }

    /// The byte range `start..end` of a 1-based line (newline excluded).
    pub fn line_range(&self, line: u32) -> Option<(usize, usize)> {
        let i = (line as usize).checked_sub(1)?;
        let start = *self.starts.get(i)?;
        let end = self
            .starts
            .get(i + 1)
            .map(|s| s.saturating_sub(1))
            .unwrap_or(self.len);
        Some((start, end))
    }

    /// The text of a 1-based line (no trailing newline).
    pub fn line_text<'a>(&self, src: &'a str, line: u32) -> Option<&'a str> {
        let (start, end) = self.line_range(line)?;
        src.get(start..end)
    }
}

/// A span resolved against a [`LineIndex`]: where it starts and how wide
/// the underline should be on that first line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedSpan {
    /// 1-based line of the span start.
    pub line: u32,
    /// 1-based column of the span start.
    pub col: u32,
    /// Underline width in bytes, clamped to the end of the start line
    /// (multi-line spans underline only their first line) and at least 1.
    pub width: usize,
}

impl Span {
    /// Resolve this span's start position and underline width.
    pub fn resolve(&self, index: &LineIndex) -> ResolvedSpan {
        let (line, col) = index.line_col(self.start);
        let line_end = index.line_range(line).map(|(_, e)| e).unwrap_or(self.start);
        let width = self.end.min(line_end).saturating_sub(self.start).max(1);
        ResolvedSpan { line, col, width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_extremes() {
        let a = Span::new(10, 20, 2);
        let b = Span::new(5, 15, 1);
        let m = a.merge(b);
        assert_eq!((m.start, m.end, m.line), (5, 20, 1));
    }

    #[test]
    fn display_is_line_oriented() {
        assert_eq!(Span::new(0, 1, 7).to_string(), "line 7");
    }

    #[test]
    fn line_index_maps_offsets() {
        let src = "ab\ncde\n\nf";
        let ix = LineIndex::new(src);
        assert_eq!(ix.line_col(0), (1, 1));
        assert_eq!(ix.line_col(1), (1, 2));
        assert_eq!(ix.line_col(3), (2, 1));
        assert_eq!(ix.line_col(5), (2, 3));
        assert_eq!(ix.line_col(7), (3, 1));
        assert_eq!(ix.line_col(8), (4, 1));
        // Past the end clamps.
        assert_eq!(ix.line_col(999), (4, 2));
    }

    #[test]
    fn line_text_excludes_newline() {
        let src = "ab\ncde\n\nf";
        let ix = LineIndex::new(src);
        assert_eq!(ix.line_text(src, 1), Some("ab"));
        assert_eq!(ix.line_text(src, 2), Some("cde"));
        assert_eq!(ix.line_text(src, 3), Some(""));
        assert_eq!(ix.line_text(src, 4), Some("f"));
        assert_eq!(ix.line_text(src, 5), None);
    }

    #[test]
    fn resolve_clamps_multiline_spans() {
        let src = "ab\ncde\nf";
        let ix = LineIndex::new(src);
        // Span covering "cde\nf" starts at line 2 col 1; underline stops
        // at the end of line 2.
        let r = Span::new(3, 8, 2).resolve(&ix);
        assert_eq!((r.line, r.col, r.width), (2, 1, 3));
        // Zero-width spans still underline one character.
        let r = Span::new(4, 4, 2).resolve(&ix);
        assert_eq!((r.line, r.col, r.width), (2, 2, 1));
    }
}
