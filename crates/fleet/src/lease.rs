//! Lease-based slot ownership: the local state machine behind the
//! cluster's single-writer guarantee.
//!
//! A serving node's right to answer for a route slot is a **renewable
//! lease**: a deadline granted by the cluster coordinator and renewed
//! while the node is healthy. A node whose lease lapses — it was
//! partitioned, paused, or its coordinator re-homed the slot — must
//! refuse to serve the slot with a typed error rather than keep
//! answering from possibly re-homed state; the refusal is what closes
//! the dual-writer window during a migration that the crashed node
//! never heard about.
//!
//! The table is deliberately **opt-in**: until the first grant arrives
//! the node is not participating in lease-managed ownership and serves
//! every slot freely (the standalone and pre-lease cluster behaviour).
//! The first grant flips the table to enforcing, and from then on a
//! slot without an unexpired lease is refused. No coordinator in this
//! workspace sends grants yet (only tests do), so shipped nodes stay
//! non-enforcing. Time is passed in by the caller
//! ([`std::time::Instant`]) so expiry is directly testable.
//!
//! The table holds plain data behind no lock of its own; the serving
//! layer (`sofia-net`) wraps it in whatever synchronization its
//! request path needs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Why a slot may (or may not) be served right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// The table is not enforcing (no lease was ever granted): every
    /// slot is served freely.
    Unmanaged,
    /// The slot's lease is held and unexpired.
    Active,
    /// The table is enforcing and the slot's lease lapsed (or was
    /// revoked, or never granted): the slot must be refused.
    Lapsed,
}

/// Per-slot ownership leases for one serving node.
#[derive(Debug, Default)]
pub struct LeaseTable {
    enforcing: bool,
    deadlines: BTreeMap<u64, Instant>,
}

impl LeaseTable {
    /// An empty, non-enforcing table (the standalone default).
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Whether any lease was ever granted — once true, slots without an
    /// unexpired lease are refused.
    pub fn enforcing(&self) -> bool {
        self.enforcing
    }

    /// Grants (or renews) the lease on `slot` until `now + ttl`. The
    /// first grant flips the table to enforcing.
    pub fn grant(&mut self, slot: u64, ttl: Duration, now: Instant) {
        self.enforcing = true;
        self.deadlines.insert(slot, now + ttl);
    }

    /// Revokes `slot`'s lease immediately (the coordinator is about to
    /// re-home it); returns whether a lease existed. The table stays
    /// enforcing — a revoked slot is refused until re-granted.
    pub fn revoke(&mut self, slot: u64) -> bool {
        self.enforcing = true;
        self.deadlines.remove(&slot).is_some()
    }

    /// The slot's serving state at `now`.
    pub fn state(&self, slot: u64, now: Instant) -> LeaseState {
        if !self.enforcing {
            return LeaseState::Unmanaged;
        }
        match self.deadlines.get(&slot) {
            Some(&deadline) if now < deadline => LeaseState::Active,
            _ => LeaseState::Lapsed,
        }
    }

    /// Whether the node may serve `slot` at `now` — `Unmanaged` and
    /// `Active` serve, `Lapsed` refuses.
    pub fn permits(&self, slot: u64, now: Instant) -> bool {
        self.state(slot, now) != LeaseState::Lapsed
    }

    /// Slots with an unexpired lease at `now`, ascending.
    pub fn active_slots(&self, now: Instant) -> Vec<u64> {
        self.deadlines
            .iter()
            .filter(|(_, &d)| now < d)
            .map(|(&s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmanaged_table_permits_everything() {
        let table = LeaseTable::new();
        let now = Instant::now();
        assert!(!table.enforcing());
        for slot in [0, 3, u64::MAX] {
            assert_eq!(table.state(slot, now), LeaseState::Unmanaged);
            assert!(table.permits(slot, now));
        }
    }

    #[test]
    fn first_grant_flips_to_enforcing_and_ungranted_slots_lapse() {
        let mut table = LeaseTable::new();
        let now = Instant::now();
        table.grant(2, Duration::from_secs(10), now);
        assert!(table.enforcing());
        assert_eq!(table.state(2, now), LeaseState::Active);
        assert!(table.permits(2, now));
        // Every other slot is now refused: enforcement is table-wide.
        assert_eq!(table.state(0, now), LeaseState::Lapsed);
        assert!(!table.permits(0, now));
        assert_eq!(table.active_slots(now), vec![2]);
    }

    #[test]
    fn leases_expire_at_their_deadline_and_renew() {
        let mut table = LeaseTable::new();
        let now = Instant::now();
        let ttl = Duration::from_millis(50);
        table.grant(1, ttl, now);
        assert!(table.permits(1, now + Duration::from_millis(49)));
        // The deadline itself is already lapsed (`now < deadline`).
        assert!(!table.permits(1, now + ttl));
        assert_eq!(table.state(1, now + ttl), LeaseState::Lapsed);
        // Renewal resurrects the slot from lapsed.
        table.grant(1, ttl, now + Duration::from_millis(100));
        assert!(table.permits(1, now + Duration::from_millis(149)));
    }

    #[test]
    fn revoke_refuses_immediately_until_regranted() {
        let mut table = LeaseTable::new();
        let now = Instant::now();
        table.grant(4, Duration::from_secs(60), now);
        assert!(table.revoke(4));
        assert!(!table.revoke(4), "second revoke finds nothing");
        assert!(!table.permits(4, now));
        table.grant(4, Duration::from_secs(60), now);
        assert!(table.permits(4, now));
    }

    #[test]
    fn revoke_on_a_fresh_table_starts_enforcement() {
        // A coordinator fencing a node it never granted to: the revoke
        // alone must stop the node serving that slot.
        let mut table = LeaseTable::new();
        let now = Instant::now();
        assert!(!table.revoke(9));
        assert!(table.enforcing());
        assert!(!table.permits(9, now));
    }
}
