//! Greedy delta-debugging minimizers for failing fuzz cases.
//!
//! Classic ddmin shape: try removing progressively smaller chunks of the
//! input, keeping any removal under which the failure still reproduces.
//! The predicate decides "still failing"; the minimizers are pure
//! functions of it, so they work for any oracle. Iteration counts are
//! bounded so a pathological predicate cannot loop forever.

/// Minimize a list of items under `still_fails`. Returns the shortest
/// failing subsequence found.
fn ddmin<T: Clone>(items: Vec<T>, still_fails: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = items;
    let mut chunk = (cur.len() / 2).max(1);
    let mut rounds = 0usize;
    while chunk >= 1 && rounds < 1000 {
        let mut removed_any = false;
        let mut start = 0;
        while start < cur.len() {
            rounds += 1;
            if rounds >= 1000 {
                break;
            }
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                cur = candidate;
                removed_any = true;
                // Same start position now holds the next chunk.
            } else {
                start = end;
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

/// Minimize failing NFL source line-wise: the smallest subset of lines
/// on which `still_fails` still returns true.
pub fn minimize_text(src: &str, mut still_fails: impl FnMut(&str) -> bool) -> String {
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return src.to_string();
    }
    let kept = ddmin(lines, &mut |cand: &[String]| still_fails(&cand.join("\n")));
    kept.join("\n")
}

/// Minimize failing wire bytes: the smallest subsequence of bytes on
/// which `still_fails` still returns true.
pub fn minimize_wire(bytes: &[u8], mut still_fails: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    ddmin(bytes.to_vec(), &mut |cand: &[u8]| still_fails(cand))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_minimizer_isolates_the_offending_line() {
        let src = "alpha\nbeta\nTRIGGER\ngamma\ndelta\nepsilon";
        let out = minimize_text(src, |s| s.contains("TRIGGER"));
        assert_eq!(out, "TRIGGER");
    }

    #[test]
    fn wire_minimizer_isolates_the_offending_byte() {
        let bytes: Vec<u8> = (0..64).collect();
        let out = minimize_wire(&bytes, |b| b.contains(&42));
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn minimizer_preserves_conjunction_of_requirements() {
        // Failure needs both markers — ddmin must keep both.
        let src = "x\nNEED_A\ny\nz\nNEED_B\nw";
        let out = minimize_text(src, |s| s.contains("NEED_A") && s.contains("NEED_B"));
        assert_eq!(out, "NEED_A\nNEED_B");
    }

    #[test]
    fn non_reproducing_input_is_returned_whole() {
        let src = "a\nb\nc";
        // Predicate that never fails once anything is removed.
        let out = minimize_text(src, |s| s == src);
        assert_eq!(out, src);
    }
}
