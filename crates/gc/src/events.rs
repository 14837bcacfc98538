//! GC event log.

use polm2_metrics::{IntervalHistogram, PauseHistogram, SimDuration, SimTime};

use crate::GcWork;

/// The kind of collection a pause belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcKind {
    /// Young-generation (minor) collection.
    Minor,
    /// Mixed collection: young plus a slice of old regions.
    Mixed,
    /// Full collection: everything, with compaction.
    Full,
    /// A bounded safepoint of a concurrent collector (C4 phase flip).
    ConcurrentPhase,
}

impl GcKind {
    /// Short label for logs and tables.
    pub fn label(self) -> &'static str {
        match self {
            GcKind::Minor => "minor",
            GcKind::Mixed => "mixed",
            GcKind::Full => "full",
            GcKind::ConcurrentPhase => "concurrent-phase",
        }
    }
}

/// A pause produced by a collector, not yet stamped with a time.
///
/// Collectors return these from [`Collector::alloc`]; the runtime assigns the
/// timestamp (it owns the clock) and appends the stamped [`GcEvent`] to the
/// [`GcLog`].
///
/// [`Collector::alloc`]: crate::Collector::alloc
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseEvent {
    /// What kind of collection paused the world.
    pub kind: GcKind,
    /// How long the world was stopped.
    pub pause: SimDuration,
    /// The work performed during the pause.
    pub work: GcWork,
}

/// A stamped pause event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcEvent {
    /// When the pause began.
    pub at: SimTime,
    /// What kind of collection paused the world.
    pub kind: GcKind,
    /// How long the world was stopped.
    pub pause: SimDuration,
    /// The work performed during the pause.
    pub work: GcWork,
}

/// Append-only log of stamped GC events.
///
/// # Examples
///
/// ```
/// use polm2_gc::{GcEvent, GcKind, GcLog, GcWork};
/// use polm2_metrics::{SimDuration, SimTime};
///
/// let mut log = GcLog::new();
/// log.push(GcEvent {
///     at: SimTime::from_secs(1),
///     kind: GcKind::Minor,
///     pause: SimDuration::from_millis(12),
///     work: GcWork::default(),
/// });
/// assert_eq!(log.cycle_count(), 1);
/// assert_eq!(log.total_pause(), SimDuration::from_millis(12));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GcLog {
    events: Vec<GcEvent>,
}

impl GcLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        GcLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: GcEvent) {
        self.events.push(event);
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[GcEvent] {
        &self.events
    }

    /// Number of completed GC cycles (the Recorder's snapshot trigger counts
    /// these).
    pub fn cycle_count(&self) -> usize {
        self.events.len()
    }

    /// Total stop-the-world time.
    pub fn total_pause(&self) -> SimDuration {
        self.events.iter().map(|e| e.pause).sum()
    }

    /// Pause histogram over events at or after `since` (the paper ignores
    /// the first five minutes of every run).
    pub fn pause_histogram(&self, since: SimTime) -> PauseHistogram {
        self.events
            .iter()
            .filter(|e| e.at >= since)
            .map(|e| e.pause)
            .collect()
    }

    /// Duration-interval histogram over events at or after `since`
    /// (Figure 6).
    pub fn interval_histogram(&self, since: SimTime) -> IntervalHistogram {
        let mut h = IntervalHistogram::paper_default();
        h.extend(
            self.events
                .iter()
                .filter(|e| e.at >= since)
                .map(|e| e.pause),
        );
        h
    }

    /// Aggregate work across all events.
    pub fn total_work(&self) -> GcWork {
        self.events
            .iter()
            .fold(GcWork::default(), |acc, e| acc.merged(e.work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_s: u64, ms: u64, kind: GcKind) -> GcEvent {
        GcEvent {
            at: SimTime::from_secs(at_s),
            kind,
            pause: SimDuration::from_millis(ms),
            work: GcWork {
                copied_bytes: ms,
                ..GcWork::default()
            },
        }
    }

    #[test]
    fn log_accumulates() {
        let mut log = GcLog::new();
        log.push(event(1, 10, GcKind::Minor));
        log.push(event(2, 20, GcKind::Mixed));
        assert_eq!(log.cycle_count(), 2);
        assert_eq!(log.total_pause(), SimDuration::from_millis(30));
        assert_eq!(log.total_work().copied_bytes, 30);
    }

    #[test]
    fn histograms_respect_warmup_cutoff() {
        let mut log = GcLog::new();
        log.push(event(1, 500, GcKind::Full)); // warm-up noise
        log.push(event(400, 10, GcKind::Minor));
        let h = log.pause_histogram(SimTime::from_secs(300));
        assert_eq!(h.len(), 1);
        let ih = log.interval_histogram(SimTime::from_secs(300));
        assert_eq!(ih.total(), 1);
        let all = log.pause_histogram(SimTime::ZERO);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(GcKind::Minor.label(), "minor");
        assert_eq!(GcKind::Mixed.label(), "mixed");
        assert_eq!(GcKind::Full.label(), "full");
        assert_eq!(GcKind::ConcurrentPhase.label(), "concurrent-phase");
    }
}
