//! Simulated network path to a data source.
//!
//! DISCO targets a wide-area environment where "it is likely that some of
//! the data sources will be unavailable" (§4) and where per-source access
//! cost varies widely (§3.3).  The real paper ran against remote servers;
//! this reproduction substitutes a deterministic simulator: every
//! repository gets a [`NetworkProfile`] describing its availability and
//! latency, and the wrapper consults the profile before answering.
//!
//! The simulator produces both *simulated* costs (returned as numbers, fed
//! to the calibrating cost model) and, optionally, *real* delays, so that
//! the runtime's deadline-based partial evaluation is exercised with
//! genuine wall-clock behaviour.  The link never sleeps itself: a
//! [`LinkDelay`] says whether its caller has to wait the latency out, and
//! the caller knows how to wait without holding up other calls.

use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Availability state of a simulated source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// The source answers normally.
    Available,
    /// The source does not answer at all (calls block until the deadline).
    Unavailable,
    /// The source answers, but only after an extra fixed delay — useful for
    /// deadline-boundary experiments.
    Slow {
        /// Extra delay in milliseconds.
        extra_ms: u64,
    },
    /// The source answers, but its throughput is degraded: every *chunk*
    /// of a streamed answer pays an extra fixed delay.  With chunking
    /// disabled (one chunk per call) this behaves like [`Availability::Slow`];
    /// with chunking enabled it models a link that trickles data out —
    /// the shape the streamed-resolution fault-injection tests exercise.
    Degraded {
        /// Extra delay per chunk, in milliseconds.
        chunk_extra_ms: u64,
    },
}

/// The latency/availability profile of the path to one repository.
#[derive(Debug, Clone)]
pub struct NetworkProfile {
    /// Fixed per-call latency in microseconds.
    pub base_latency_us: u64,
    /// Additional latency per row transferred, in microseconds.
    pub per_row_us: u64,
    /// Relative jitter (0.0–1.0) applied to the total latency.
    pub jitter: f64,
    /// Availability state.
    pub availability: Availability,
    /// When `true`, the delays of this link are to be waited out for real
    /// ([`LinkDelay::real_sleep`]); when `false` they are only reported.
    pub real_sleep: bool,
    /// Rows per streamed answer chunk.  `0` (the default) disables
    /// chunking: a call delivers its whole answer as one chunk.
    pub chunk_rows: usize,
}

impl Default for NetworkProfile {
    fn default() -> Self {
        NetworkProfile {
            base_latency_us: 500,
            per_row_us: 5,
            jitter: 0.1,
            availability: Availability::Available,
            real_sleep: false,
            chunk_rows: 0,
        }
    }
}

impl NetworkProfile {
    /// A fast, local-area profile.
    #[must_use]
    pub fn fast() -> Self {
        NetworkProfile {
            base_latency_us: 100,
            per_row_us: 1,
            ..NetworkProfile::default()
        }
    }

    /// A slow, wide-area profile.
    #[must_use]
    pub fn wide_area() -> Self {
        NetworkProfile {
            base_latency_us: 20_000,
            per_row_us: 50,
            ..NetworkProfile::default()
        }
    }

    /// Marks the source unavailable.
    #[must_use]
    pub fn unavailable() -> Self {
        NetworkProfile {
            availability: Availability::Unavailable,
            ..NetworkProfile::default()
        }
    }

    /// Sets the availability state.
    #[must_use]
    pub fn with_availability(mut self, availability: Availability) -> Self {
        self.availability = availability;
        self
    }

    /// Enables real sleeping for wall-clock experiments.
    #[must_use]
    pub fn with_real_sleep(mut self, real_sleep: bool) -> Self {
        self.real_sleep = real_sleep;
        self
    }

    /// Sets the rows-per-chunk of streamed answers (`0` disables chunking).
    #[must_use]
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
    }

    /// Number of chunks an answer of `rows` rows is delivered in.
    #[must_use]
    pub fn chunks_for(&self, rows: usize) -> usize {
        if self.chunk_rows == 0 || rows <= self.chunk_rows {
            1
        } else {
            rows.div_ceil(self.chunk_rows)
        }
    }
}

/// The delay of one call or chunk over a [`SimulatedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelay {
    /// The simulated network + processing latency.
    pub latency: Duration,
    /// Whether the profile asks the caller to really wait `latency`
    /// before it delivers.
    pub real_sleep: bool,
}

/// The simulated link to one repository.
///
/// Thread-safe: `exec` calls run in parallel.
#[derive(Debug)]
pub struct SimulatedLink {
    endpoint: String,
    profile: Mutex<NetworkProfile>,
    rng: Mutex<StdRng>,
    calls: Mutex<u64>,
    chunks: Mutex<u64>,
}

impl SimulatedLink {
    /// Creates a link with a deterministic jitter seed.
    pub fn new(endpoint: impl Into<String>, profile: NetworkProfile, seed: u64) -> Self {
        SimulatedLink {
            endpoint: endpoint.into(),
            profile: Mutex::new(profile),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            calls: Mutex::new(0),
            chunks: Mutex::new(0),
        }
    }

    /// The endpoint (repository) name.
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Replaces the profile (e.g. to fail or recover a source mid-test).
    pub fn set_profile(&self, profile: NetworkProfile) {
        *self.profile.lock() = profile;
    }

    /// Changes only the availability state.
    pub fn set_availability(&self, availability: Availability) {
        self.profile.lock().availability = availability;
    }

    /// The current availability state.
    #[must_use]
    pub fn availability(&self) -> Availability {
        self.profile.lock().availability
    }

    /// Returns `true` when the source currently answers.
    #[must_use]
    pub fn is_available(&self) -> bool {
        !matches!(self.profile.lock().availability, Availability::Unavailable)
    }

    /// Number of calls made over this link.
    #[must_use]
    pub fn call_count(&self) -> u64 {
        *self.calls.lock()
    }

    /// Number of streamed chunks delivered over this link (bumped once per
    /// [`SimulatedLink::chunk_delay`]) — lets tests observe whether a
    /// cancelled call actually stopped producing chunks.
    #[must_use]
    pub fn chunk_count(&self) -> u64 {
        *self.chunks.lock()
    }

    /// Applies the profile's jitter to a raw microsecond latency.
    fn jittered(&self, profile: &NetworkProfile, raw_us: f64) -> Duration {
        let jitter_factor = if profile.jitter > 0.0 {
            let j: f64 = self.rng.lock().gen_range(-profile.jitter..=profile.jitter);
            1.0 + j
        } else {
            1.0
        };
        let us = (raw_us * jitter_factor).max(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Duration::from_micros(us as u64)
    }

    /// The chunk sizes an answer of `rows` rows streams in under the
    /// current profile.  Always at least one chunk, so even empty answers
    /// pay (and report) the base latency.
    #[must_use]
    pub fn chunk_sizes(&self, rows: usize) -> Vec<usize> {
        let profile = self.profile.lock().clone();
        let chunks = profile.chunks_for(rows);
        if chunks <= 1 {
            return vec![rows];
        }
        let size = profile.chunk_rows;
        (0..chunks)
            .map(|i| {
                let start = i * size;
                ((i + 1) * size).min(rows) - start
            })
            .collect()
    }

    /// Simulates the delivery of one streamed chunk of `rows` rows; the
    /// first chunk of a call additionally pays the base latency (and bumps
    /// the call counter).  This is the link's one latency model: a call
    /// costs the sum of its chunks' delays.
    ///
    /// Returns `None` when the source is unavailable.
    #[must_use]
    pub fn chunk_delay(&self, rows: usize, first: bool) -> Option<LinkDelay> {
        let profile = self.profile.lock().clone();
        if first {
            *self.calls.lock() += 1;
        }
        *self.chunks.lock() += 1;
        match profile.availability {
            Availability::Unavailable => None,
            Availability::Available | Availability::Slow { .. } | Availability::Degraded { .. } => {
                let extra_ms = match profile.availability {
                    // The whole-call penalty lands on the first chunk.
                    Availability::Slow { extra_ms } if first => extra_ms,
                    Availability::Slow { .. } => 0,
                    Availability::Degraded { chunk_extra_ms } => chunk_extra_ms,
                    Availability::Available | Availability::Unavailable => 0,
                };
                let base_us = if first { profile.base_latency_us } else { 0 };
                let raw_us = base_us as f64
                    + profile.per_row_us as f64 * rows as f64
                    + extra_ms as f64 * 1000.0;
                Some(LinkDelay {
                    latency: self.jittered(&profile, raw_us),
                    real_sleep: profile.real_sleep,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(availability: Availability, chunk_rows: usize) -> SimulatedLink {
        SimulatedLink::new(
            "r0",
            NetworkProfile {
                base_latency_us: 1000,
                per_row_us: 10,
                jitter: 0.0,
                availability,
                real_sleep: false,
                chunk_rows,
            },
            42,
        )
    }

    #[test]
    fn available_links_report_latency_scaling_with_rows() {
        let link = link(Availability::Available, 0);
        let small = link.chunk_delay(10, true).unwrap().latency;
        let large = link.chunk_delay(10_000, true).unwrap().latency;
        assert!(large > small);
        assert_eq!(small, Duration::from_micros(1000 + 100));
        // Only a call's first chunk pays the base latency and counts a call.
        let next = link.chunk_delay(10, false).unwrap().latency;
        assert_eq!(next, Duration::from_micros(100));
        assert_eq!((link.call_count(), link.chunk_count()), (2, 3));
    }

    #[test]
    fn unavailable_links_return_none() {
        let link = SimulatedLink::new("r0", NetworkProfile::unavailable(), 1);
        assert!(!link.is_available());
        assert!(link.chunk_delay(5, true).is_none());
        // Recovery.
        link.set_availability(Availability::Available);
        assert!(link.is_available());
        assert!(link.chunk_delay(5, true).is_some());
    }

    #[test]
    fn slow_links_add_extra_delay() {
        // `Slow` charges its penalty once per call, on the first chunk;
        // `Degraded` charges its penalty on every chunk.
        let delays = |availability| {
            let link = link(availability, 10);
            link.chunk_sizes(30)
                .into_iter()
                .enumerate()
                .map(|(i, rows)| link.chunk_delay(rows, i == 0).unwrap().latency)
                .collect::<Vec<_>>()
        };
        let normal = delays(Availability::Available);
        assert_eq!(normal.len(), 3);
        let ms = Duration::from_millis;
        let slow = delays(Availability::Slow { extra_ms: 5 });
        assert_eq!(slow, vec![normal[0] + ms(5), normal[1], normal[2]]);
        let degraded = delays(Availability::Degraded { chunk_extra_ms: 2 });
        assert_eq!(
            degraded,
            normal.iter().map(|&d| d + ms(2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed() {
        let a = SimulatedLink::new("r0", NetworkProfile::default(), 99);
        let b = SimulatedLink::new("r0", NetworkProfile::default(), 99);
        for first in [true, false, false] {
            assert_eq!(a.chunk_delay(100, first), b.chunk_delay(100, first));
        }
    }

    #[test]
    fn real_sleep_is_asked_of_the_caller() {
        let profile = NetworkProfile {
            base_latency_us: 2000,
            per_row_us: 0,
            jitter: 0.0,
            availability: Availability::Available,
            real_sleep: true,
            chunk_rows: 0,
        };
        let link = SimulatedLink::new("r0", profile.clone(), 3);
        let delay = link.chunk_delay(1, true).unwrap();
        assert_eq!(delay.latency, Duration::from_micros(2000));
        assert!(delay.real_sleep);
        link.set_profile(profile.with_real_sleep(false));
        assert!(!link.chunk_delay(1, true).unwrap().real_sleep);
    }
}
