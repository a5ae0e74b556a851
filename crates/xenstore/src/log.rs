//! The xenstored access log and its rotation spikes.
//!
//! The paper (§4.2) observes that the XenStore "logs every access to log
//! files (20 of them), and rotates them when a certain maximum number of
//! lines is reached (13,215 lines by default); the spikes happen when this
//! rotation takes place". This module reproduces exactly that: every
//! access appends a line; when the live file reaches the threshold, all
//! files are rotated at a cost proportional to their number.

/// Number of rotated log files xenstored keeps.
pub const NUM_LOG_FILES: usize = 20;

/// Lines after which rotation triggers (xenstored default).
pub const ROTATE_LINES: u64 = 13_215;

/// Access-log state: a line counter plus rotation bookkeeping.
#[derive(Clone, Debug)]
pub struct AccessLog {
    enabled: bool,
    lines_in_current: u64,
    rotations: u64,
    total_lines: u64,
}

/// What a single append did (for cost charging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogOutcome {
    /// Logging disabled; nothing written.
    Disabled,
    /// One line appended.
    Line,
    /// One line appended and a rotation of all files triggered.
    LineAndRotation {
        /// Number of files rotated.
        files: usize,
    },
}

impl Default for AccessLog {
    fn default() -> Self {
        Self::new(true)
    }
}

impl AccessLog {
    /// Creates a log, enabled or not.
    pub fn new(enabled: bool) -> AccessLog {
        AccessLog {
            enabled,
            lines_in_current: 0,
            rotations: 0,
            total_lines: 0,
        }
    }

    /// Enables/disables logging (the ablation the paper mentions trying).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one access.
    pub fn append(&mut self) -> LogOutcome {
        if !self.enabled {
            return LogOutcome::Disabled;
        }
        self.total_lines += 1;
        self.lines_in_current += 1;
        if self.lines_in_current >= ROTATE_LINES {
            self.lines_in_current = 0;
            self.rotations += 1;
            LogOutcome::LineAndRotation {
                files: NUM_LOG_FILES,
            }
        } else {
            LogOutcome::Line
        }
    }

    /// Records `n` accesses at once, returning `(lines, rotations)`:
    /// how many lines were written and how many rotations triggered.
    /// Counter state afterwards is exactly what `n` calls of
    /// [`AccessLog::append`] would leave (each append increments the
    /// live-file counter and resets it at [`ROTATE_LINES`], which is
    /// plain div/mod arithmetic), so batched callers charge
    /// `lines * line_cost + rotations * rotation_cost` — the same
    /// integer total as per-call charging, in O(1).
    pub fn append_many(&mut self, n: u64) -> (u64, u64) {
        if !self.enabled || n == 0 {
            return (0, 0);
        }
        self.total_lines += n;
        let reached = self.lines_in_current + n;
        let rotations = reached / ROTATE_LINES;
        self.lines_in_current = reached % ROTATE_LINES;
        self.rotations += rotations;
        (n, rotations)
    }

    /// Rotations performed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Total lines written.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_triggers_at_threshold() {
        let mut log = AccessLog::new(true);
        for i in 1..ROTATE_LINES {
            assert_eq!(log.append(), LogOutcome::Line, "line {i}");
        }
        assert_eq!(
            log.append(),
            LogOutcome::LineAndRotation {
                files: NUM_LOG_FILES
            }
        );
        assert_eq!(log.rotations(), 1);
        // Counter resets.
        assert_eq!(log.append(), LogOutcome::Line);
    }

    #[test]
    fn disabled_log_writes_nothing() {
        let mut log = AccessLog::new(false);
        for _ in 0..(2 * ROTATE_LINES) {
            assert_eq!(log.append(), LogOutcome::Disabled);
        }
        assert_eq!(log.rotations(), 0);
        assert_eq!(log.total_lines(), 0);
    }

    #[test]
    fn append_many_matches_per_call_appends() {
        // Sweep batch sizes across the rotation boundary, comparing a
        // batched log against a per-call twin after every batch.
        for batch in [1u64, 7, 100, ROTATE_LINES - 1, ROTATE_LINES, ROTATE_LINES + 3] {
            let mut a = AccessLog::new(true);
            let mut b = AccessLog::new(true);
            for round in 0..4 {
                let (mut lines, mut rotations) = (0u64, 0u64);
                for _ in 0..batch {
                    match b.append() {
                        LogOutcome::Disabled => {}
                        LogOutcome::Line => lines += 1,
                        LogOutcome::LineAndRotation { .. } => {
                            lines += 1;
                            rotations += 1;
                        }
                    }
                }
                assert_eq!(
                    a.append_many(batch),
                    (lines, rotations),
                    "batch {batch}, round {round}"
                );
                assert_eq!(a.total_lines(), b.total_lines());
                assert_eq!(a.rotations(), b.rotations());
                assert_eq!(a.lines_in_current, b.lines_in_current);
            }
        }
        // Disabled logs batch to nothing.
        let mut off = AccessLog::new(false);
        assert_eq!(off.append_many(1000), (0, 0));
        assert_eq!(off.total_lines(), 0);
    }

    #[test]
    fn rotations_repeat_periodically() {
        let mut log = AccessLog::new(true);
        for _ in 0..(3 * ROTATE_LINES) {
            log.append();
        }
        assert_eq!(log.rotations(), 3);
        assert_eq!(log.total_lines(), 3 * ROTATE_LINES);
    }
}
