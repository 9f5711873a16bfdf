//! The deterministic virtual clock.
//!
//! All time in the simulation is virtual: API calls cost a fixed number of
//! milliseconds, `Sleep` advances the clock by its argument, and
//! `GetTickCount` reports uptime relative to a configurable boot offset
//! (fresh sandboxes have tiny uptimes — an evasion signal the paper's
//! sample `ad0d7d0` used via `GetTickCount()`).

/// The machine clock.
///
/// ```
/// use winsim::Clock;
/// let mut c = Clock::new();
/// c.boot_offset_ms = 5 * 60 * 1000; // a freshly booted sandbox
/// c.advance(2_000);
/// assert_eq!(c.tick_count(), 5 * 60 * 1000 + 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    /// Milliseconds elapsed since the simulation started.
    now_ms: u64,
    /// Uptime the machine already had when the simulation started.
    pub boot_offset_ms: u64,
}

/// Virtual cost charged per API call.
pub(crate) const API_CALL_COST_MS: u64 = 1;

impl Default for Clock {
    fn default() -> Self {
        Clock { now_ms: 0, boot_offset_ms: 30 * 60 * 1000 }
    }
}

impl Clock {
    /// A clock with the default 30-minute prior uptime.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current simulation time in ms (since simulation start).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// `GetTickCount`: ms since machine boot.
    pub fn tick_count(&self) -> u64 {
        self.boot_offset_ms + self.now_ms
    }

    /// Advances the clock.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms += ms;
    }

    /// Charges the cost of one API call.
    pub fn charge_api_call(&mut self) {
        self.now_ms += API_CALL_COST_MS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_count_includes_boot_offset() {
        let mut c = Clock::new();
        c.boot_offset_ms = 1000;
        c.advance(500);
        assert_eq!(c.tick_count(), 1500);
        assert_eq!(c.now_ms(), 500);
    }

    #[test]
    fn api_calls_charge_time() {
        let mut c = Clock::new();
        let before = c.now_ms();
        c.charge_api_call();
        assert_eq!(c.now_ms(), before + API_CALL_COST_MS);
    }
}
