//! Sequential localization: smoothing a *stream* of NObLe fixes.
//!
//! The paper's title promises localization *and tracking*; for WiFi the
//! tracking story is a walker scanning periodically while moving. Raw
//! per-scan fixes jump between neighborhood centroids; this module adds
//! the standard post-processing — an exponentially weighted
//! constant-velocity smoother with optional map projection — turning
//! independent fixes into a coherent trajectory.
//!
//! This is an extension beyond the paper's evaluation; it reuses only
//! public NObLe outputs and the map
//! substrate, so it works with any per-fix localizer.
//!
//! [`ZoneDetector`] is the second tracking primitive: it debounces a
//! per-fix zone-membership stream into stable entered/left transitions
//! (`stability_k` consecutive agreeing fixes commit a change), which is
//! what the `noble-serve` session layer turns into per-device zone
//! events.

use noble_geo::{CampusMap, Point};

/// Configuration of the trajectory smoother.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmootherConfig {
    /// Blend factor for new fixes in `[0, 1]`: 1.0 trusts each fix
    /// entirely (no smoothing), small values trust the motion model.
    pub fix_weight: f64,
    /// Velocity damping per step in `[0, 1]` (0 disables the motion
    /// model; 1 keeps full inertia).
    pub velocity_retention: f64,
    /// Maximum speed in meters per step; motion beyond this is clamped
    /// (pedestrian plausibility constraint).
    pub max_step_m: f64,
    /// Whether to project each smoothed state onto the map's accessible
    /// space.
    pub snap_to_map: bool,
}

impl Default for SmootherConfig {
    fn default() -> Self {
        SmootherConfig {
            fix_weight: 0.6,
            velocity_retention: 0.7,
            max_step_m: 5.0,
            snap_to_map: true,
        }
    }
}

/// An exponentially weighted constant-velocity smoother over position
/// fixes.
///
/// # Example
///
/// ```
/// use noble::wifi::tracking::{SmootherConfig, TrajectorySmoother};
/// use noble_geo::Point;
///
/// let mut smoother = TrajectorySmoother::new(SmootherConfig {
///     snap_to_map: false,
///     ..SmootherConfig::default()
/// });
/// let fixes = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(9.0, 0.0)];
/// let track: Vec<Point> = fixes.iter().map(|&f| smoother.update(f, None)).collect();
/// // The 8 m jump of the last fix is tempered by the motion model.
/// assert!(track[2].x < 9.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrajectorySmoother {
    config: SmootherConfig,
    state: Option<(Point, Point)>, // (position, velocity per step)
}

impl TrajectorySmoother {
    /// Creates a smoother; the first fix initializes the state verbatim.
    pub fn new(config: SmootherConfig) -> Self {
        TrajectorySmoother {
            config,
            state: None,
        }
    }

    /// Current smoothed position, if any fix has been consumed.
    pub fn position(&self) -> Option<Point> {
        self.state.map(|(p, _)| p)
    }

    /// Resets the smoother to its initial empty state.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Consumes one fix and returns the smoothed position. Pass the map
    /// for accessible-space snapping when [`SmootherConfig::snap_to_map`]
    /// is on.
    pub fn update(&mut self, fix: Point, map: Option<&CampusMap>) -> Point {
        let cfg = self.config;
        let snap = |p: Point| match (cfg.snap_to_map, map) {
            (true, Some(m)) => m.project(p),
            _ => p,
        };
        match self.state {
            None => {
                let position = snap(fix);
                self.state = Some((position, Point::ORIGIN));
                position
            }
            Some((pos, vel)) => {
                // Predict with the motion model, then blend in the fix.
                let predicted = pos + vel * cfg.velocity_retention;
                let blended = predicted.lerp(fix, cfg.fix_weight.clamp(0.0, 1.0));
                // Pedestrian plausibility: clamp the step length.
                let step = blended - pos;
                let clamped = if step.length() > cfg.max_step_m {
                    pos + step * (cfg.max_step_m / step.length())
                } else {
                    blended
                };
                let position = snap(clamped);
                // The velocity must describe the motion of the *stored*
                // (snapped) state. An earlier revision kept
                // `clamped - pos` here, so with snapping on, a track
                // pressed against a wall accumulated phantom velocity
                // pointing off-map every step.
                let new_vel = position - pos;
                self.state = Some((position, new_vel));
                position
            }
        }
    }

    /// Smooths a whole fix sequence at once.
    pub fn smooth_sequence(&mut self, fixes: &[Point], map: Option<&CampusMap>) -> Vec<Point> {
        fixes.iter().map(|&f| self.update(f, map)).collect()
    }
}

/// A committed zone change reported by [`ZoneDetector::observe`].
///
/// `left` is the zone the track departed (`None` when it was outside
/// every zone) and `entered` the zone it settled in (`None` when it
/// settled outside). At least one side is always `Some` — a transition
/// from outside to outside is not a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneTransition {
    /// Zone index departed, if the track was in one.
    pub left: Option<usize>,
    /// Zone index settled into, if any.
    pub entered: Option<usize>,
}

/// Zone membership with stability hysteresis: a per-fix zone stream
/// (`Some(zone index)` or `None` for "outside every zone") commits a
/// transition only after `stability_k` *consecutive* fixes agree on the
/// new zone.
///
/// Raw per-fix zone lookups flap: a track walking a corridor along a
/// room boundary resolves to a different side scan by scan. The
/// detector is the standard debounce (BLE room trackers call it a
/// *room stability threshold*): observations matching the current zone
/// reset the pending candidate; a change of candidate restarts the
/// count; only a full window of agreement commits. Two committed
/// transitions are therefore always at least `stability_k` observations
/// apart, and alternating boundary jitter never commits at all.
///
/// The detector is a pure, allocation-free state machine — the sharded
/// session layer in `noble-serve` holds one per device, and its
/// determinism contract (same observation sequence ⇒ same event
/// sequence, regardless of sharding or threading) reduces to this
/// struct being deterministic, which it trivially is.
///
/// # Example
///
/// ```
/// use noble::wifi::tracking::ZoneDetector;
///
/// let mut d = ZoneDetector::new(2);
/// assert_eq!(d.observe(Some(0)), None); // 1 of 2
/// let t = d.observe(Some(0)).unwrap(); // 2 of 2: committed
/// assert_eq!((t.left, t.entered), (None, Some(0)));
/// assert_eq!(d.observe(Some(1)), None); // boundary jitter...
/// assert_eq!(d.observe(Some(0)), None); // ...never commits
/// assert_eq!(d.current(), Some(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneDetector {
    stability_k: u32,
    current: Option<usize>,
    /// Pending zone (`Some(None)` = pending "outside"); `None` = no
    /// pending change.
    candidate: Option<Option<usize>>,
    streak: u32,
}

impl ZoneDetector {
    /// Creates a detector requiring `stability_k` consecutive agreeing
    /// fixes (0 is treated as 1: every change commits immediately). The
    /// initial state is outside every zone.
    pub fn new(stability_k: u32) -> Self {
        ZoneDetector {
            stability_k: stability_k.max(1),
            current: None,
            candidate: None,
            streak: 0,
        }
    }

    /// The committed zone, if the track has settled in one.
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// The configured stability window.
    pub fn stability_k(&self) -> u32 {
        self.stability_k
    }

    /// Consumes one per-fix zone observation; returns the transition if
    /// this observation completed a stability window.
    pub fn observe(&mut self, zone: Option<usize>) -> Option<ZoneTransition> {
        if zone == self.current {
            // Agreement with the committed zone cancels any pending
            // change — the jitter never lasted a full window.
            self.candidate = None;
            self.streak = 0;
            return None;
        }
        if self.candidate == Some(zone) {
            self.streak += 1;
        } else {
            self.candidate = Some(zone);
            self.streak = 1;
        }
        if self.streak < self.stability_k {
            return None;
        }
        let transition = ZoneTransition {
            left: self.current,
            entered: zone,
        };
        self.current = zone;
        self.candidate = None;
        self.streak = 0;
        Some(transition)
    }

    /// Forces the track out of its committed zone (the away-timeout
    /// path: the device went silent, so the session layer closes its
    /// zone membership without waiting for fixes). Returns the zone
    /// left, if there was one; pending candidates are discarded either
    /// way.
    pub fn force_leave(&mut self) -> Option<usize> {
        self.candidate = None;
        self.streak = 0;
        self.current.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noble_geo::{Building, Polygon};

    fn no_snap() -> SmootherConfig {
        SmootherConfig {
            snap_to_map: false,
            ..SmootherConfig::default()
        }
    }

    #[test]
    fn first_fix_passes_through() {
        let mut s = TrajectorySmoother::new(no_snap());
        assert_eq!(s.position(), None);
        let p = s.update(Point::new(3.0, 4.0), None);
        assert_eq!(p, Point::new(3.0, 4.0));
        assert_eq!(s.position(), Some(p));
    }

    #[test]
    fn outlier_fix_is_tempered() {
        let mut s = TrajectorySmoother::new(no_snap());
        s.update(Point::new(0.0, 0.0), None);
        s.update(Point::new(1.0, 0.0), None);
        let p = s.update(Point::new(50.0, 0.0), None);
        // max_step 5 m caps the jump.
        assert!(p.x <= 1.0 + 5.0 + 1e-9, "outlier not clamped: {p}");
    }

    #[test]
    fn steady_walk_tracks_closely() {
        let mut s = TrajectorySmoother::new(no_snap());
        let mut last = Point::ORIGIN;
        for i in 0..20 {
            let fix = Point::new(i as f64 * 1.2, 0.0);
            last = s.update(fix, None);
        }
        // After settling, the smoothed track stays within a step of truth.
        assert!((last.x - 19.0 * 1.2).abs() < 2.0, "lag too large: {last}");
    }

    #[test]
    fn snapping_keeps_track_on_map() {
        let map = CampusMap::new(vec![Building::new(
            Polygon::rectangle(0.0, 0.0, 20.0, 4.0).unwrap(),
            1,
        )
        .unwrap()])
        .unwrap();
        let mut s = TrajectorySmoother::new(SmootherConfig::default());
        for i in 0..10 {
            // Noisy fixes that sometimes leave the corridor.
            let fix = Point::new(i as f64 * 2.0, if i % 2 == 0 { 6.0 } else { 2.0 });
            let p = s.update(fix, Some(&map));
            assert!(map.is_accessible(p), "smoothed point {p} off map");
        }
    }

    #[test]
    fn wall_adjacent_track_accumulates_no_phantom_velocity() {
        // Regression: velocity used to be computed from the pre-snap
        // position, so a track pinned against a wall by off-map fixes
        // accumulated a constant phantom velocity pointing off-map
        // (fixed point ~1.67 m/step with the default config below).
        let map = CampusMap::new(vec![Building::new(
            Polygon::rectangle(0.0, 0.0, 20.0, 4.0).unwrap(),
            1,
        )
        .unwrap()])
        .unwrap();
        let mut s = TrajectorySmoother::new(SmootherConfig::default());

        // Press the track against the y = 4 wall with off-map fixes.
        let wall = s.update(Point::new(2.0, 6.0), Some(&map));
        assert_eq!(wall, Point::new(2.0, 4.0));
        for _ in 0..10 {
            let p = s.update(Point::new(2.0, 6.0), Some(&map));
            // The smoothed state is stationary at the wall...
            assert!(p.distance(wall) < 1e-9, "track drifted to {p}");
        }

        // ...so a fix back inside must be tracked like from standstill:
        // blended y = (1 - fix_weight) * 4 + fix_weight * 2 = 2.8. With the
        // phantom velocity bug the prediction overshoots off-map first and
        // the response lands at y ≈ 3.27.
        let inside = s.update(Point::new(2.0, 2.0), Some(&map));
        assert!(
            inside.y < 3.0,
            "phantom velocity is dragging the track toward the wall: {inside}"
        );
        assert!(
            (inside.y - 2.8).abs() < 1e-9,
            "unexpected response {inside}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut s = TrajectorySmoother::new(no_snap());
        s.update(Point::new(1.0, 1.0), None);
        s.reset();
        assert_eq!(s.position(), None);
        // Next fix re-initializes verbatim.
        let p = s.update(Point::new(9.0, 9.0), None);
        assert_eq!(p, Point::new(9.0, 9.0));
    }

    #[test]
    fn smooth_sequence_matches_iterated_updates() {
        let fixes = vec![
            Point::new(0.0, 0.0),
            Point::new(1.5, 0.2),
            Point::new(2.8, 0.1),
        ];
        let mut a = TrajectorySmoother::new(no_snap());
        let seq = a.smooth_sequence(&fixes, None);
        let mut b = TrajectorySmoother::new(no_snap());
        let manual: Vec<Point> = fixes.iter().map(|&f| b.update(f, None)).collect();
        assert_eq!(seq, manual);
    }

    #[test]
    fn detector_commits_only_after_full_window() {
        let mut d = ZoneDetector::new(3);
        assert_eq!(d.current(), None);
        assert_eq!(d.observe(Some(2)), None);
        assert_eq!(d.observe(Some(2)), None);
        let t = d.observe(Some(2)).unwrap();
        assert_eq!(
            t,
            ZoneTransition {
                left: None,
                entered: Some(2)
            }
        );
        assert_eq!(d.current(), Some(2));
        // Leaving needs a full window of "outside" too.
        assert_eq!(d.observe(None), None);
        assert_eq!(d.observe(None), None);
        let t = d.observe(None).unwrap();
        assert_eq!(
            t,
            ZoneTransition {
                left: Some(2),
                entered: None
            }
        );
        assert_eq!(d.current(), None);
    }

    #[test]
    fn detector_boundary_jitter_never_commits() {
        let mut d = ZoneDetector::new(2);
        d.observe(Some(0));
        d.observe(Some(0));
        assert_eq!(d.current(), Some(0));
        // Alternating 0/1 observations: the candidate streak restarts on
        // every flip and agreement with the current zone clears it.
        for _ in 0..50 {
            assert_eq!(d.observe(Some(1)), None);
            assert_eq!(d.observe(Some(0)), None);
        }
        assert_eq!(d.current(), Some(0));
    }

    #[test]
    fn detector_candidate_switch_restarts_the_window() {
        let mut d = ZoneDetector::new(3);
        assert_eq!(d.observe(Some(0)), None);
        assert_eq!(d.observe(Some(0)), None);
        // Third observation disagrees: zone 1 starts its own window.
        assert_eq!(d.observe(Some(1)), None);
        assert_eq!(d.observe(Some(1)), None);
        let t = d.observe(Some(1)).unwrap();
        assert_eq!(t.entered, Some(1));
    }

    #[test]
    fn detector_direct_zone_to_zone_transition() {
        let mut d = ZoneDetector::new(1);
        assert_eq!(
            d.observe(Some(0)),
            Some(ZoneTransition {
                left: None,
                entered: Some(0)
            })
        );
        // k = 1: the change commits immediately, carrying both sides.
        assert_eq!(
            d.observe(Some(4)),
            Some(ZoneTransition {
                left: Some(0),
                entered: Some(4)
            })
        );
        assert_eq!(d.current(), Some(4));
    }

    #[test]
    fn detector_force_leave_closes_membership_once() {
        let mut d = ZoneDetector::new(2);
        d.observe(Some(3));
        d.observe(Some(3));
        assert_eq!(d.force_leave(), Some(3));
        assert_eq!(d.current(), None);
        // Idempotent: nothing left to leave.
        assert_eq!(d.force_leave(), None);
        // And a pending candidate is discarded by the forced leave.
        d.observe(Some(1));
        assert_eq!(d.force_leave(), None);
        assert_eq!(d.observe(Some(1)), None);
        assert_eq!(d.observe(Some(1)).unwrap().entered, Some(1));
    }

    #[test]
    fn detector_zero_k_behaves_as_one() {
        let mut d = ZoneDetector::new(0);
        assert_eq!(d.stability_k(), 1);
        assert_eq!(d.observe(Some(7)).unwrap().entered, Some(7));
    }

    #[test]
    fn fix_weight_one_follows_fixes_exactly_when_unclamped() {
        let mut s = TrajectorySmoother::new(SmootherConfig {
            fix_weight: 1.0,
            velocity_retention: 0.0,
            max_step_m: 1e9,
            snap_to_map: false,
        });
        for i in 0..5 {
            let fix = Point::new(i as f64 * 3.0, 1.0);
            assert_eq!(s.update(fix, None), fix);
        }
    }
}
