//! Sandbox containers (paper §2 ❷).

use sebs_sim::SimTime;

/// Identifier of a container instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctr-{}", self.0)
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Warm and idle, ready to serve.
    Idle,
    /// Currently executing an invocation.
    Busy,
}

/// A sandbox holding one warm copy of a function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Container {
    /// Identifier.
    pub id: ContainerId,
    /// Stable index within the pool's creation sequence; the half-life
    /// eviction policy keys its deterministic coin flips on this.
    pub slot: u64,
    /// Creation (cold-start completion) time.
    pub created_at: SimTime,
    /// Last time an invocation finished here.
    pub last_used_at: SimTime,
    /// Number of invocations served.
    pub invocations: u64,
    /// Current state.
    pub state: ContainerState,
}

impl Container {
    /// Creates a freshly booted container occupying pool `slot`.
    pub fn new(id: ContainerId, slot: u64, now: SimTime) -> Container {
        Container {
            id,
            slot,
            created_at: now,
            last_used_at: now,
            invocations: 0,
            state: ContainerState::Idle,
        }
    }

    /// Marks the start of an invocation.
    ///
    /// # Panics
    ///
    /// Panics if the container is already busy — the pool must never
    /// double-assign a sandbox.
    pub fn begin(&mut self) {
        assert_eq!(
            self.state,
            ContainerState::Idle,
            "container double-assigned"
        );
        self.state = ContainerState::Busy;
    }

    /// Marks the completion of an invocation at `now`.
    pub fn finish(&mut self, now: SimTime) {
        debug_assert_eq!(self.state, ContainerState::Busy);
        self.state = ContainerState::Idle;
        self.last_used_at = now;
        self.invocations += 1;
    }

    /// Idle time at `now`.
    pub fn idle_for(&self, now: SimTime) -> sebs_sim::SimDuration {
        now.saturating_duration_since(self.last_used_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimDuration;

    #[test]
    fn lifecycle() {
        let t0 = SimTime::from_secs(10);
        let mut c = Container::new(ContainerId(1), 0, t0);
        assert_eq!(c.state, ContainerState::Idle);
        assert_eq!(c.invocations, 0);
        c.begin();
        assert_eq!(c.state, ContainerState::Busy);
        let t1 = t0 + SimDuration::from_secs(2);
        c.finish(t1);
        assert_eq!(c.state, ContainerState::Idle);
        assert_eq!(c.invocations, 1);
        assert_eq!(c.last_used_at, t1);
        assert_eq!(
            c.idle_for(t1 + SimDuration::from_secs(5)),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    #[should_panic(expected = "double-assigned")]
    fn double_begin_panics() {
        let mut c = Container::new(ContainerId(1), 0, SimTime::ZERO);
        c.begin();
        c.begin();
    }

    #[test]
    fn display() {
        assert_eq!(ContainerId(9).to_string(), "ctr-9");
    }
}
