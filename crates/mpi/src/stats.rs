//! Communication statistics.

use p2pmpi_simgrid::time::SimDuration;

/// Counters accumulated by one process instance (and aggregated per job).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Logical messages sent (replica fan-out copies count once).
    pub messages_sent: u64,
    /// Messages received and accepted.
    pub messages_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Abstract operations charged to the compute model.
    pub compute_ops: f64,
    /// Virtual time spent in compute sections.
    pub compute_time: SimDuration,
}

impl CommStats {
    /// Adds another instance's counters into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.compute_ops += other.compute_ops;
        self.compute_time += other.compute_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_everything() {
        let mut a = CommStats {
            messages_sent: 1,
            messages_received: 2,
            bytes_sent: 10,
            bytes_received: 20,
            compute_ops: 5.0,
            compute_time: SimDuration::from_millis(3),
        };
        let b = CommStats {
            messages_sent: 3,
            messages_received: 4,
            bytes_sent: 30,
            bytes_received: 40,
            compute_ops: 2.5,
            compute_time: SimDuration::from_millis(7),
        };
        a.merge(&b);
        assert_eq!(a.messages_sent, 4);
        assert_eq!(a.messages_received, 6);
        assert_eq!(a.bytes_sent, 40);
        assert_eq!(a.bytes_received, 60);
        assert_eq!(a.compute_ops, 7.5);
        assert_eq!(a.compute_time, SimDuration::from_millis(10));
    }

    #[test]
    fn default_is_zero() {
        let s = CommStats::default();
        assert_eq!(s.messages_sent + s.messages_received, 0);
        assert_eq!(s.bytes_sent + s.bytes_received, 0);
        assert_eq!(s.compute_time, SimDuration::ZERO);
    }
}
