//! Transport-mode inference (paper §4.2, Algorithm 2 lines 20–23).
//!
//! After map matching, each run of records on a segment is annotated with
//! the transportation mode "determined by the characteristics of the move
//! episode and the matched road segments, including average velocity,
//! average acceleration, road type". The classifier below follows exactly
//! that recipe: hard road-type evidence first (rail ⇒ metro), then motion
//! statistics, then a median smoothing pass so brief speed dips (bus
//! stops, corners) don't fragment a leg into alternating modes.

use super::RouteEntry;
use semitri_data::road::RoadClass;
use semitri_data::{GpsRecord, RoadNetwork, TransportMode};

/// Motion features of one record run, exposed for tests and analytics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionFeatures {
    /// Mean speed in m/s.
    pub avg_speed: f64,
    /// Median speed in m/s (robust to noise spikes and transit halts).
    pub median_speed: f64,
    /// 95th-percentile speed in m/s.
    pub p95_speed: f64,
    /// Mean absolute acceleration in m/s².
    pub avg_abs_accel: f64,
}

/// Computes motion features over a record slice.
///
/// [`ModeInferencer::annotate`] computes speeds and accelerations once per
/// matched slice instead and reads each entry's window as sub-slices; the
/// features are bit-identical to this per-window call.
pub fn motion_features(records: &[GpsRecord]) -> MotionFeatures {
    if records.len() < 2 {
        return MotionFeatures::default();
    }
    let (speeds, accels) = kinematics(records);
    window_features(&speeds, &accels, &mut Vec::new())
}

/// Speeds and accelerations of a record slice: `speeds[k]` is records
/// `k → k+1` and `accels[k]` the change from `speeds[k]` to
/// `speeds[k + 1]`. Each value depends only on its own records, so the
/// values of a window `lo..hi` are the sub-slices `speeds[lo..hi - 1]` and
/// `accels[lo..hi - 2]` of the whole slice's.
fn kinematics(records: &[GpsRecord]) -> (Vec<f64>, Vec<f64>) {
    let speeds: Vec<f64> = records.windows(2).map(|w| w[0].speed_to(&w[1])).collect();
    let accels = (1..speeds.len())
        .map(|i| {
            // speeds[i-1] and speeds[i] are means over [i-1,i] and [i,i+1];
            // the speed change happens between the *midpoints* of those
            // windows, half the span records[i-1]..records[i+1] — not the
            // single interval records[i]..records[i+1], which inflates
            // acceleration whenever sampling is irregular
            let dt = (records[i + 1].t.since(records[i - 1].t) / 2.0).max(1e-6);
            ((speeds[i] - speeds[i - 1]) / dt).abs()
        })
        .collect();
    (speeds, accels)
}

/// Motion features of a window of at least two records, from its
/// [`kinematics`]; `sorted` is a reused buffer for the order statistics.
fn window_features(speeds: &[f64], accels: &[f64], sorted: &mut Vec<f64>) -> MotionFeatures {
    let avg_speed = speeds.iter().sum::<f64>() / speeds.len() as f64;
    let avg_abs_accel = if accels.is_empty() {
        0.0
    } else {
        accels.iter().sum::<f64>() / accels.len() as f64
    };
    sorted.clear();
    sorted.extend_from_slice(speeds);
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite speeds"));
    MotionFeatures {
        avg_speed,
        median_speed: sorted[sorted.len() / 2],
        p95_speed: sorted[((sorted.len() - 1) as f64 * 0.95) as usize],
        avg_abs_accel,
    }
}

/// The transport-mode classifier.
#[derive(Debug, Clone, Copy)]
pub struct ModeInferencer {
    /// When `true`, fast street movement is classified as [`TransportMode::Car`]
    /// (vehicle datasets); when `false`, the people palette of the paper is
    /// used (walk / bicycle / bus / metro).
    pub allow_car: bool,
    /// Half-width of the median smoothing window over consecutive entries.
    pub smoothing_half_width: usize,
}

impl Default for ModeInferencer {
    fn default() -> Self {
        Self {
            allow_car: false,
            smoothing_half_width: 2,
        }
    }
}

impl ModeInferencer {
    /// Classifies one run from its features and matched road segment.
    pub fn classify(
        &self,
        features: MotionFeatures,
        class: RoadClass,
        bus_route: bool,
    ) -> TransportMode {
        // hard road-type evidence dominates — but only for the people
        // palette AND at rail-plausible speed; vehicles can't ride rails,
        // and a slow "rail" match is a map-matching artifact of collinear
        // street/rail geometry, so both fall through to motion statistics
        if class == RoadClass::Rail && !self.allow_car && features.p95_speed >= 8.0 {
            return TransportMode::Metro;
        }
        // speed bands sit between the mode cruise speeds (walk 1.4, bike
        // 4.2, bus 7, metro 16 m/s), noise-inflated: the *median* speed is
        // robust to GPS spikes and transit halts for the slow bands, and
        // the 95th percentile separates motorized movement (a bus between
        // halts runs at bus speed even when halts drag the mean down)
        if features.median_speed < 2.6 && features.p95_speed < 6.5 {
            return TransportMode::Walk;
        }
        if features.p95_speed < 6.5 {
            return TransportMode::Bicycle;
        }
        // motorized
        if self.allow_car {
            return TransportMode::Car;
        }
        // metro lines often run along/under streets, so a street match
        // with sustained rail-grade speed is still a metro ride (buses
        // don't sustain > ~10 m/s in traffic)
        if features.avg_speed >= 10.0 {
            return TransportMode::Metro;
        }
        let _ = bus_route;
        TransportMode::Bus
    }

    /// Infers and writes the mode of every [`RouteEntry`] in place
    /// (Algorithm 2: `⟨segment, mode⟩` pairs), then median-smooths modes
    /// across consecutive entries.
    ///
    /// `records` must be the slice the entries' index ranges refer to.
    pub fn annotate(&self, net: &RoadNetwork, records: &[GpsRecord], entries: &mut [RouteEntry]) {
        let (speeds, accels) = kinematics(records);
        let mut sorted = Vec::new();
        // raw classification per entry
        let raw: Vec<TransportMode> = entries
            .iter()
            .map(|e| {
                // widen very short runs so speeds are estimable
                let lo = e.start.saturating_sub(2);
                let hi = (e.end + 2).min(records.len());
                let f = if hi < lo + 2 {
                    MotionFeatures::default()
                } else {
                    window_features(&speeds[lo..hi - 1], &accels[lo..hi - 2], &mut sorted)
                };
                let seg = net.segment(e.segment);
                self.classify(f, seg.class, seg.bus_route)
            })
            .collect();

        // median (majority) smoothing over a window, but never overriding
        // hard rail evidence
        let k = self.smoothing_half_width;
        for (i, e) in entries.iter_mut().enumerate() {
            // rail matches that classified as metro stay metro (smoothing
            // must not let surface modes bleed onto the rail ride)
            if raw[i] == TransportMode::Metro
                && net.segment(e.segment).class == RoadClass::Rail
                && !self.allow_car
            {
                e.mode = Some(TransportMode::Metro);
                continue;
            }
            let lo = i.saturating_sub(k);
            let hi = (i + k + 1).min(raw.len());
            let window = &raw[lo..hi];
            let mut best = raw[i];
            let mut best_count = 0;
            for &cand in window {
                if cand == TransportMode::Metro {
                    continue; // rail evidence doesn't spread onto streets
                }
                let c = window.iter().filter(|&&m| m == cand).count();
                if c > best_count {
                    best_count = c;
                    best = cand;
                }
            }
            e.mode = Some(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_geo::{Point, TimeSpan, Timestamp};

    fn records_at_speed(v: f64, n: usize) -> Vec<GpsRecord> {
        (0..n)
            .map(|i| GpsRecord::new(Point::new(i as f64 * v, 0.0), Timestamp(i as f64)))
            .collect()
    }

    #[test]
    fn features_constant_speed() {
        let f = motion_features(&records_at_speed(5.0, 20));
        assert!((f.avg_speed - 5.0).abs() < 1e-9);
        assert!((f.p95_speed - 5.0).abs() < 1e-9);
        assert!(f.avg_abs_accel < 1e-9);
    }

    #[test]
    fn features_acceleration_uses_midpoint_gap_on_uneven_sampling() {
        // 10 m/s for 1 s, then a 10 s gap at 12 m/s: the speed change
        // straddles window midpoints 0.5 s and 6.0 s apart ⇒ dt = 5.5 s
        let records = vec![
            GpsRecord::new(Point::new(0.0, 0.0), Timestamp(0.0)),
            GpsRecord::new(Point::new(10.0, 0.0), Timestamp(1.0)),
            GpsRecord::new(Point::new(130.0, 0.0), Timestamp(11.0)),
        ];
        let f = motion_features(&records);
        let expected = (12.0 - 10.0) / ((11.0 - 0.0) / 2.0);
        assert!(
            (f.avg_abs_accel - expected).abs() < 1e-9,
            "avg_abs_accel = {}, expected {expected}",
            f.avg_abs_accel
        );
        // regular 1 Hz sampling is unchanged: midpoint gap == sample gap
        let regular = vec![
            GpsRecord::new(Point::new(0.0, 0.0), Timestamp(0.0)),
            GpsRecord::new(Point::new(10.0, 0.0), Timestamp(1.0)),
            GpsRecord::new(Point::new(22.0, 0.0), Timestamp(2.0)),
        ];
        let f = motion_features(&regular);
        assert!((f.avg_abs_accel - 2.0).abs() < 1e-9);
    }

    #[test]
    fn features_degenerate_inputs() {
        assert_eq!(motion_features(&[]), MotionFeatures::default());
        assert_eq!(
            motion_features(&records_at_speed(3.0, 1)),
            MotionFeatures::default()
        );
    }

    #[test]
    fn window_features_are_bit_identical_to_motion_features() {
        // irregular sampling and speeds, every window of a 40-record slice
        let mut state = 0xA5_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let (mut x, mut t) = (0.0, 0.0);
        let records: Vec<GpsRecord> = (0..40)
            .map(|_| {
                x += next() * 25.0;
                t += 0.5 + next() * 9.0;
                GpsRecord::new(Point::new(x, next() * 3.0), Timestamp(t))
            })
            .collect();
        let (speeds, accels) = kinematics(&records);
        let bits = |f: MotionFeatures| {
            [f.avg_speed, f.median_speed, f.p95_speed, f.avg_abs_accel].map(f64::to_bits)
        };
        let mut sorted = Vec::new();
        for lo in 0..records.len() {
            for hi in lo + 2..=records.len() {
                let got = window_features(&speeds[lo..hi - 1], &accels[lo..hi - 2], &mut sorted);
                assert_eq!(
                    bits(got),
                    bits(motion_features(&records[lo..hi])),
                    "{lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn classify_by_speed_bands() {
        let inf = ModeInferencer::default();
        let f = |v: f64| MotionFeatures {
            avg_speed: v,
            median_speed: v,
            p95_speed: v,
            avg_abs_accel: 0.1,
        };
        assert_eq!(
            inf.classify(f(1.2), RoadClass::Street, false),
            TransportMode::Walk
        );
        assert_eq!(
            inf.classify(f(4.0), RoadClass::Path, false),
            TransportMode::Bicycle
        );
        assert_eq!(
            inf.classify(f(8.0), RoadClass::Street, true),
            TransportMode::Bus
        );
        assert_eq!(
            inf.classify(f(8.0), RoadClass::Rail, false),
            TransportMode::Metro
        );
    }

    #[test]
    fn rail_requires_plausible_speed() {
        let inf = ModeInferencer::default();
        // fast movement on rail is a metro ride
        let fast = MotionFeatures {
            avg_speed: 14.0,
            median_speed: 14.0,
            p95_speed: 16.0,
            ..MotionFeatures::default()
        };
        assert_eq!(
            inf.classify(fast, RoadClass::Rail, false),
            TransportMode::Metro
        );
        // a slow "rail" match is a collinear-geometry artifact: falls back
        // to the motion statistics
        let slow = MotionFeatures {
            avg_speed: 0.5,
            ..MotionFeatures::default()
        };
        assert_eq!(
            inf.classify(slow, RoadClass::Rail, false),
            TransportMode::Walk
        );
    }

    #[test]
    fn car_palette_for_vehicles() {
        let inf = ModeInferencer {
            allow_car: true,
            ..ModeInferencer::default()
        };
        let fast = MotionFeatures {
            avg_speed: 14.0,
            median_speed: 14.0,
            p95_speed: 20.0,
            avg_abs_accel: 0.5,
        };
        assert_eq!(
            inf.classify(fast, RoadClass::Street, false),
            TransportMode::Car
        );
        assert_eq!(
            inf.classify(fast, RoadClass::Highway, false),
            TransportMode::Car
        );
    }

    #[test]
    fn annotate_smooths_brief_dips() {
        use semitri_data::road::RoadClass;
        // network: 5 consecutive street segments
        let nodes: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let edges = (0..5)
            .map(|i| {
                (
                    i as u32,
                    i as u32 + 1,
                    RoadClass::Street,
                    true,
                    format!("s{i}"),
                )
            })
            .collect();
        let net = RoadNetwork::new(nodes, edges);

        // records: bus-speed movement with a dip in the middle
        let mut records = Vec::new();
        let mut x = 0.0;
        for i in 0..50 {
            let v = if (20..24).contains(&i) { 0.5 } else { 7.0 };
            x += v;
            records.push(GpsRecord::new(Point::new(x, 0.0), Timestamp(i as f64)));
        }
        // entries: one per 10 records on segments 0..5
        let mut entries: Vec<RouteEntry> = (0..5)
            .map(|k| RouteEntry {
                segment: k as u32,
                span: TimeSpan::new(Timestamp(k as f64 * 10.0), Timestamp(k as f64 * 10.0 + 9.0)),
                start: k * 10,
                end: (k + 1) * 10,
                mode: None,
            })
            .collect();
        ModeInferencer::default().annotate(&net, &records, &mut entries);
        // the dip entry is outvoted by its bus neighbors
        assert!(
            entries.iter().all(|e| e.mode == Some(TransportMode::Bus)),
            "modes: {:?}",
            entries.iter().map(|e| e.mode).collect::<Vec<_>>()
        );
    }
}
