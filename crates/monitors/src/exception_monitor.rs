//! The exception monitor's host half: reading the crash banner back.
//!
//! "During fuzzing initialization, EOF also inserts breakpoints at
//! various embedded OS-specific exception functions like
//! `panic_handler()` in FreeRTOS and `common_exception()` in RT-Thread.
//! Once the agent reaches these functions, the fuzzer captures the
//! relevant crash information." (§4.5.2)
//!
//! The executor arms the handler breakpoint itself, in the same
//! transaction as its sync points. What it captures once the handler
//! halts is the banner the handler printed; this module recovers the
//! symbolised backtrace from it.

use crate::patterns::Pattern;

/// Recover the symbolised backtrace from banner lines — the inverse of
/// the agent's Figure-6-style `Level: N: frame` output. Returns frames
/// innermost first.
pub fn parse_backtrace(lines: &[String]) -> Vec<String> {
    let level = Pattern::new("^Level: ");
    let mut frames = Vec::new();
    for line in lines {
        if level.matches(line) {
            if let Some((_, frame)) = line.split_once(": ").and_then(|(_, rest)| {
                rest.split_once(": ")
                    .map(|(n, f)| (n, f.trim().to_string()))
            }) {
                frames.push(frame);
            } else if let Some((_, frame)) = line.rsplit_once(": ") {
                frames.push(frame.trim().to_string());
            }
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrace_recovery_from_banner() {
        let lines = vec![
            "BUG: unexpected stop: bus fault in _serial_poll_tx".to_string(),
            "Stack frames at BUG: unexpected stop:".to_string(),
            "Level: 1: rt_serial_write".to_string(),
            "Level: 2: rt_device_write".to_string(),
            "Level: 3: _kputs".to_string(),
            "Level: 4: rt_kprintf".to_string(),
            "Level: 5: sal_socket".to_string(),
        ];
        let frames = parse_backtrace(&lines);
        assert_eq!(
            frames,
            vec![
                "rt_serial_write",
                "rt_device_write",
                "_kputs",
                "rt_kprintf",
                "sal_socket"
            ]
        );
    }

    #[test]
    fn backtrace_ignores_unrelated_lines() {
        let lines = vec![
            "I (1) boot: ok".to_string(),
            "Level: 1: frame_a".to_string(),
        ];
        assert_eq!(parse_backtrace(&lines), vec!["frame_a"]);
    }
}
