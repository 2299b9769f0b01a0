//! Uniform-grid spatial index for radius-bounded neighbor queries, and
//! the disk-graph connectivity of a snapshot built on it.
//!
//! The flooding simulator asks, every time step and for every non-informed
//! agent, "is any informed agent within Euclidean distance `R`?". With `n`
//! agents this must not be `O(n²)`. This crate provides:
//!
//! * [`GridIndexBuffer`] — a bucket grid in **reusable, allocation-free**
//!   form: retained CSR storage re-binned in place every rebuild, entries
//!   split into parallel `ids` / packed-coordinate arrays so the inner
//!   distance loop streams dense 16-byte pairs. Radius queries scan only
//!   the buckets overlapping the query disk. It can index an arbitrary
//!   *subset* of an agent population (the flooding simulator's gossip
//!   path bins the shrinking uninformed set) without copying positions,
//!   and after warm-up a rebuild performs **zero heap allocations**;
//! * **incremental maintenance** — a buffer built with
//!   [`GridIndexBuffer::rebuild_incremental`] lays its CSR rows out with
//!   *slack capacity* and keeps an id→slot map, so
//!   [`GridIndexBuffer::update_membership`] can then remove and insert
//!   agents in `O(1)` each while the entries that merely moved keep
//!   their (stale) cached coordinates. When agents move far less than a
//!   bucket per step (the MRWP regime of the source paper) a binning
//!   stays valid up to a known drift bound for many steps, and one
//!   `rebuild_incremental` of the grid re-files it once that bound is
//!   spent — see `docs/ARCHITECTURE.md` ("Spatial layer contract") for
//!   the invariants;
//! * the **bucket join** — two buffers binned with a *shared* grid
//!   geometry ([`GridIndexBuffer::rebuild_subset_shared`]) can be joined
//!   bucket-against-bucket ([`GridIndexBuffer::join_covered_by`]):
//!   instead of issuing one scattered disk query per agent, the join
//!   walks the occupied buckets of one side
//!   ([`GridIndexBuffer::occupied_buckets`]) and resolves each against
//!   the ≤ 3×3 facing CSR slices of the other, with a cheap per-pair
//!   AABB distance prune. This is the transmit kernel of the flooding
//!   engine's dense large-`n` regime (cf. Clementi–Monti–Silvestri,
//!   *Fast Flooding over Manhattan*, PODC 2010);
//! * [`BruteForceIndex`] — a deliberately naive `O(n)`-per-query oracle
//!   used for correctness tests;
//! * **snapshot connectivity** — at every step the agents and radius `R`
//!   induce the disk graph `G_t` (an edge iff two agents are within
//!   `R`). The paper contrasts flooding far below the connectivity
//!   threshold of the MRWP snapshot (a *root of n*) with the
//!   `Θ(√log n)` threshold of uniform-like clouds; experiment E11
//!   measures both with [`disk_giant_fraction`], the giant-component
//!   fraction of an exact cell union (cells of side just under R/√2 are
//!   cliques, so each joins one union-find set untested, and
//!   neighbouring cells merge at their first close pair), and
//!   [`connectivity_threshold`], a bisection for the critical radius of
//!   a point-cloud sampler configured by [`ThresholdSearch`].
//!
//! # Examples
//!
//! ```
//! use fastflood_geom::{Point, Rect};
//! use fastflood_spatial::{disk_giant_fraction, GridIndexBuffer};
//!
//! let region = Rect::square(100.0)?;
//! let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0), Point::new(50.0, 50.0)];
//! let mut index = GridIndexBuffer::new();
//! index.rebuild(region, 5.0, &pts)?;
//!
//! let mut hits = Vec::new();
//! index.for_each_within(Point::new(0.0, 0.0), 3.0, |i| hits.push(i));
//! hits.sort();
//! assert_eq!(hits, vec![0, 1]);
//!
//! // the disk graph at R = 5 joins the first two points only
//! assert_eq!(disk_giant_fraction(region, 5.0, &pts)?, 2.0 / 3.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk_graph;
mod threshold;
mod union_find;

pub use disk_graph::disk_giant_fraction;
pub use threshold::{connectivity_threshold, ThresholdSearch};

use fastflood_geom::{Point, Rect};
use fastflood_parallel::{run_ctx, WorkerPool};
use std::error::Error;
use std::fmt;

/// Error produced when building a spatial index from invalid inputs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpatialError {
    /// The bucket size must be strictly positive and finite.
    BadBucketSize(f64),
    /// A position had a NaN or infinite coordinate.
    NotFinite {
        /// Index of the offending point.
        index: usize,
    },
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::BadBucketSize(v) => {
                write!(f, "bucket size must be positive and finite, got {v}")
            }
            SpatialError::NotFinite { index } => {
                write!(f, "position {index} has a non-finite coordinate")
            }
        }
    }
}

impl Error for SpatialError {}

/// A reusable bucket-grid index with retained storage and SoA entries.
///
/// Buckets have side at least the requested `bucket_size` on both axes
/// (the grid is sized by the region's shorter side, and an integer
/// number of buckets tiles it), so queries with radius
/// `r ≤ bucket_size` touch at most a 3×3 block of buckets; larger radii
/// scan proportionally more. The number of buckets per axis is capped
/// near `2·√k` for `k` indexed points, so memory stays `O(k)` even for
/// tiny bucket sizes.
///
/// The buffer is rebuilt **in place**: bucket tables and entry
/// arrays keep their capacity across rebuilds, so a simulation loop that
/// re-bins moving points every step performs no steady-state heap
/// allocations. Entries are stored as parallel `ids`/`xs`/`ys` arrays
/// (structure-of-arrays), which keeps the hot distance loop on flat
/// `f64` data.
///
/// The buffer can index an arbitrary subset of a larger population via
/// [`GridIndexBuffer::rebuild_subset`]; queries then report the original
/// population ids. The bucket count per axis adapts to the subset size
/// (capped near `2·√k` for `k` indexed points) so small frontiers get
/// proportionally small bucket tables. When two subsets of the same
/// population must be compared bucket-against-bucket, rebuild both with
/// [`GridIndexBuffer::rebuild_subset_shared`] (which derives the
/// geometry from an explicit population count instead of the subset
/// size) and join them with [`GridIndexBuffer::join_covered_by`].
///
/// When the indexed population moves only a small fraction of a bucket
/// per step, skip the per-step full re-bin entirely: build with
/// [`GridIndexBuffer::rebuild_incremental`] (a slack-capacity variant
/// of the same layout), patch membership with
/// [`GridIndexBuffer::update_membership`], and rebuild only once the
/// entries' drift outgrows what the stale join tolerates.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Rect};
/// use fastflood_spatial::GridIndexBuffer;
///
/// let region = Rect::square(100.0)?;
/// let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0), Point::new(90.0, 90.0)];
/// let mut buf = GridIndexBuffer::new();
/// buf.rebuild_subset(region, 5.0, &pts, &[0, 2])?; // index points 0 and 2 only
/// assert!(buf.any_within(Point::new(0.0, 0.0), 2.0));
/// assert!(!buf.any_within(Point::new(2.0, 2.0), 0.5)); // 1 not indexed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndexBuffer {
    region: Rect,
    m: usize,
    bucket_len_x: f64,
    bucket_len_y: f64,
    /// CSR layout: bucket `b` owns the entry-array *slots*
    /// `starts[b]..starts[b+1]`. In a tight layout every slot is live;
    /// in a slack (incremental) layout only the prefix up to `ends[b]`
    /// is, the rest is spare insertion room.
    starts: Vec<u32>,
    /// Live end of each bucket row: entries of bucket `b` occupy
    /// `starts[b]..ends[b]`. Tight rebuilds set `ends[b] ==
    /// starts[b + 1]`; incremental updates move it within the row's
    /// slot range. Every query path reads rows through this bound, so
    /// slack slots are never observed.
    ends: Vec<u32>,
    /// Binning cursor, retained to avoid reallocating each rebuild.
    cursor: Vec<u32>,
    /// Entries sorted by bucket, ids and packed coordinates in parallel
    /// arrays: the distance loop streams dense 16-byte coordinate pairs
    /// and touches `ids` only on hits, while a rebuild's scatter pass
    /// writes two cache lines per point instead of three.
    ids: Vec<u32>,
    pts: Vec<(f64, f64)>,
    /// Gather scratch: subset coordinates copied densely before binning,
    /// so the two binning passes read sequentially and pay the
    /// `positions[id]` indirection exactly once per point.
    gather: Vec<(f64, f64)>,
    /// Per-point bucket index computed in the counting pass and reused
    /// by the scatter pass, so the clamp/truncate math runs once per
    /// point instead of twice.
    bkt: Vec<u32>,
    /// Buckets holding at least one point, ascending — the worklist of
    /// the bucket join (built for free inside the prefix-sum pass, and
    /// re-derived after every incremental update).
    occupied: Vec<u32>,
    /// Slack layouts only: remaining *expected-arrival headroom* per
    /// bucket — row capacity pre-reserved for ids announced via
    /// `rebuild_incremental`'s `expected` list, decremented as arrivals
    /// land. Keeps a grid whose membership grows monotonically (the
    /// transmit roster) from overflowing its rows on every frontier
    /// advance; honored by re-layouts.
    extra: Vec<u32>,
    /// Slack layouts only: `slot_of[id]` is the entry slot currently
    /// holding original id `id` (`u32::MAX` when not indexed), the
    /// `O(1)` handle behind removals and row shifts. Entries for
    /// ids outside the indexed subset are stale garbage and must never
    /// be read — callers name ids explicitly, so they never are.
    slot_of: Vec<u32>,
    /// Slack layouts only: inserts that found their row full, parked
    /// here until the end of the update borrows a slot for each (or,
    /// failing that, re-layouts). Always empty between calls.
    pending: Vec<(u32, f64, f64)>,
    /// Frontier-band filter of the stale join: `band_stamp[b] ==
    /// band_epoch` marks bucket `b` as lying in the 3×3 neighborhood of
    /// an occupied bucket of the *other* side, computed when the other
    /// side occupies fewer buckets so the join can skip the rest of this
    /// side's occupied list with one read each. Epoch-stamped (no
    /// per-join clear); entries from older joins or geometries hold
    /// smaller epochs and can never collide.
    band_stamp: Vec<u32>,
    band_epoch: u32,
    /// Whether the current layout is a slack layout with a live slot
    /// map (built by `rebuild_incremental`, required by
    /// `update_membership`).
    incremental: bool,
    /// Cumulative full re-layouts taken by membership updates (the
    /// slack-overflow fallback); a diagnostic for tests and tuning.
    relayouts: u64,
    /// Cumulative slots borrowed from another row by parked entries;
    /// read by the unit tests to prove the overflow path ran.
    borrows: u64,
    /// Parallel-join output scratch: per-shard disjoint regions sized by
    /// each shard's live entry count, compacted into the caller's output
    /// in canonical shard order. Grow-only; pre-sized by
    /// [`GridIndexBuffer::reserve_parallel`].
    par_out: Vec<u32>,
    len: usize,
}

/// Ceiling on parallel shards of the sharded join pass: keeps
/// the per-call shard descriptors on the stack (no per-step allocation)
/// while still letting a wide pool split the work 2–4 ways per thread.
const MAX_PAR_SHARDS: usize = 32;

impl Default for GridIndexBuffer {
    fn default() -> GridIndexBuffer {
        GridIndexBuffer::new()
    }
}

impl GridIndexBuffer {
    /// Pre-allocates storage for rebuilds of up to `points` points, so
    /// no later rebuild of that size or smaller allocates at all.
    ///
    /// The reservation also covers the incremental machinery
    /// ([`GridIndexBuffer::rebuild_incremental`] /
    /// [`GridIndexBuffer::update_membership`]): the slack layout's spare
    /// slots (including expected-arrival headroom, for
    /// `subset + expected` totals up to `points`), the id→slot map,
    /// and the overflow scratch — for populations and
    /// `geometry_points` of up to `points`, provided the slack layout's
    /// geometry has at most `points/4` rows. Slack layouts are built
    /// with coarse buckets (several radii per side — the join
    /// geometries), where rows ≪ points; reserving the constant
    /// per-row slack floor across the *finest* possible table instead
    /// would cost ~32·points slots up front for a layout shape that is
    /// never built. A finer-than-`points/4`-rows slack layout simply
    /// allocates on first build and retains the storage afterwards.
    pub fn reserve(&mut self, points: usize) {
        let cap = (2.0 * (points.max(1) as f64).sqrt()).ceil() as usize + 1;
        let table = cap * cap + 1;
        // the worst-case slack layout: every row keeps `count/4 + 8`
        // spare slots (`slack_cap`), the per-row floor term bounded by
        // the coarse-geometry row counts described above
        let slots = points + points / 4 + 8 * table.min(points / 4 + 1);
        self.starts.reserve(table.saturating_sub(self.starts.len()));
        self.ends.reserve(table.saturating_sub(self.ends.len()));
        self.extra.reserve(table.saturating_sub(self.extra.len()));
        self.cursor.reserve(table.saturating_sub(self.cursor.len()));
        self.ids.reserve(slots.saturating_sub(self.ids.len()));
        self.pts.reserve(slots.saturating_sub(self.pts.len()));
        self.gather
            .reserve(points.saturating_sub(self.gather.len()));
        self.bkt.reserve(points.saturating_sub(self.bkt.len()));
        self.slot_of
            .reserve(points.saturating_sub(self.slot_of.len()));
        self.pending
            .reserve(points.saturating_sub(self.pending.len()));
        self.band_stamp
            .reserve(table.saturating_sub(self.band_stamp.len()));
        // at most one occupied bucket per point (and never more than the
        // bucket table itself)
        self.occupied
            .reserve(points.min(table).saturating_sub(self.occupied.len()));
    }

    /// Creates an empty buffer; storage grows on first rebuild and is
    /// retained afterwards.
    pub fn new() -> GridIndexBuffer {
        GridIndexBuffer {
            region: Rect::square(1.0).expect("unit square is valid"),
            m: 1,
            bucket_len_x: 1.0,
            bucket_len_y: 1.0,
            starts: Vec::new(),
            ends: Vec::new(),
            cursor: Vec::new(),
            ids: Vec::new(),
            pts: Vec::new(),
            gather: Vec::new(),
            bkt: Vec::new(),
            occupied: Vec::new(),
            extra: Vec::new(),
            slot_of: Vec::new(),
            pending: Vec::new(),
            band_stamp: Vec::new(),
            band_epoch: 0,
            incremental: false,
            relayouts: 0,
            borrows: 0,
            par_out: Vec::new(),
            len: 0,
        }
    }

    /// Pre-sizes the sharded-join output scratch of
    /// [`GridIndexBuffer::join_covered_by_stale_par`] for populations of
    /// up to `points`, so parallel joins are allocation-free from the
    /// first call. Complements [`GridIndexBuffer::reserve`] (which
    /// covers the sequential machinery); callers that never use the
    /// parallel join need not call this — the scratch also grows on
    /// demand and is retained.
    pub fn reserve_parallel(&mut self, points: usize) {
        if self.par_out.len() < points {
            self.par_out.resize(points, 0);
        }
    }

    /// Re-bins every position into the buffer (ids `0..positions.len()`)
    /// with buckets of side at least `bucket_size`.
    ///
    /// Positions outside `region` are clamped into the border buckets (the
    /// simulator keeps agents inside the region; clamping makes the index
    /// total rather than partial).
    ///
    /// # Errors
    ///
    /// * [`SpatialError::BadBucketSize`] — non-positive or non-finite size;
    /// * [`SpatialError::NotFinite`] — a position with NaN/infinite
    ///   coordinates.
    pub fn rebuild(
        &mut self,
        region: Rect,
        bucket_size: f64,
        positions: &[Point],
    ) -> Result<(), SpatialError> {
        self.rebuild_inner(region, bucket_size, positions, None, None, None)
    }

    /// Re-bins only the positions selected by `subset` (original indices
    /// into `positions`); queries report those original indices.
    ///
    /// # Errors
    ///
    /// As [`GridIndexBuffer::rebuild`]. A subset id out of bounds of `positions`
    /// panics.
    pub fn rebuild_subset(
        &mut self,
        region: Rect,
        bucket_size: f64,
        positions: &[Point],
        subset: &[u32],
    ) -> Result<(), SpatialError> {
        self.rebuild_inner(region, bucket_size, positions, Some(subset), None, None)
    }

    /// Like [`GridIndexBuffer::rebuild_subset`], but derives the grid
    /// geometry (buckets per axis) from `geometry_points` instead of the
    /// subset length.
    ///
    /// Two buffers rebuilt over the same `region` / `bucket_size` /
    /// `geometry_points` triple have **identical bucket layouts**, which
    /// is the precondition of [`GridIndexBuffer::join_covered_by`]: bin
    /// the two sides of a join with the size of their *common population*
    /// (so the bucket resolution doesn't degrade as one side shrinks),
    /// then join bucket-against-bucket.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_geom::{Point, Rect};
    /// use fastflood_spatial::GridIndexBuffer;
    ///
    /// let region = Rect::square(100.0)?;
    /// let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0), Point::new(90.0, 90.0)];
    /// let (mut a, mut b) = (GridIndexBuffer::new(), GridIndexBuffer::new());
    /// a.rebuild_subset_shared(region, 5.0, &pts, &[0], pts.len())?;
    /// b.rebuild_subset_shared(region, 5.0, &pts, &[1, 2], pts.len())?;
    /// assert_eq!(a.buckets_per_axis(), b.buckets_per_axis());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`GridIndexBuffer::rebuild`]. A subset id out of bounds of `positions`
    /// panics.
    pub fn rebuild_subset_shared(
        &mut self,
        region: Rect,
        bucket_size: f64,
        positions: &[Point],
        subset: &[u32],
        geometry_points: usize,
    ) -> Result<(), SpatialError> {
        self.rebuild_inner(
            region,
            bucket_size,
            positions,
            Some(subset),
            Some(geometry_points),
            None,
        )
    }

    /// Like [`GridIndexBuffer::rebuild_subset_shared`], but lays the CSR
    /// rows out with **slack capacity** (each bucket keeps `count/4 + 8`
    /// spare slots) and builds an id→slot map, arming the buffer for
    /// [`GridIndexBuffer::update_membership`]. Calling it again on a
    /// warm buffer is also how a slack grid is re-filed: every entry is
    /// binned by its current position and its staleness drops to zero.
    ///
    /// `expected` announces ids likely to be *inserted later* (they are
    /// **not** indexed now): each reserves one extra slot in the row its
    /// current position bins to, consumed as arrivals land and honored
    /// by overflow re-layouts. A membership that only grows — the
    /// flooding engine's transmit roster, fed by the shrinking
    /// uninformed set — would otherwise exhaust any constant slack on
    /// every frontier advance and borrow or re-layout each step; with
    /// its future members announced, rows absorb the whole flood. Pass
    /// `&[]` when membership shrinks or churns symmetrically.
    /// (Positions of `expected` ids are a capacity hint only; non-finite
    /// ones are tolerated.)
    ///
    /// Queries and [`GridIndexBuffer::join_covered_by`] behave exactly
    /// as after a tight rebuild — every read path walks the *live*
    /// prefix of each row, never the slack — and the grid geometry is
    /// derived from `geometry_points` the same way, so an incremental
    /// buffer joins against tight shared-geometry buffers freely.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_geom::{Point, Rect};
    /// use fastflood_spatial::GridIndexBuffer;
    ///
    /// let region = Rect::square(100.0)?;
    /// let mut pts = vec![Point::new(1.0, 1.0), Point::new(40.0, 40.0)];
    /// let mut buf = GridIndexBuffer::new();
    /// buf.rebuild_incremental(region, 5.0, &pts, &[0, 1], pts.len(), &[])?;
    ///
    /// // agent 0 drifts across a bucket boundary; re-filing is a rebuild
    /// pts[0] = Point::new(6.5, 1.0);
    /// buf.rebuild_incremental(region, 5.0, &pts, &[0, 1], pts.len(), &[])?;
    /// assert!(buf.any_within(Point::new(6.5, 1.0), 0.1));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`GridIndexBuffer::rebuild`]. A subset id out of bounds of `positions`
    /// panics.
    pub fn rebuild_incremental(
        &mut self,
        region: Rect,
        bucket_size: f64,
        positions: &[Point],
        subset: &[u32],
        geometry_points: usize,
        expected: &[u32],
    ) -> Result<(), SpatialError> {
        self.rebuild_inner(
            region,
            bucket_size,
            positions,
            Some(subset),
            Some(geometry_points),
            Some(expected),
        )
    }

    /// Shared rebuild: `expected` is `None` for a tight layout, or
    /// `Some(arrival hints)` for a slack (incremental) layout.
    fn rebuild_inner(
        &mut self,
        region: Rect,
        bucket_size: f64,
        positions: &[Point],
        subset: Option<&[u32]>,
        geometry_points: Option<usize>,
        expected: Option<&[u32]>,
    ) -> Result<(), SpatialError> {
        let slack = expected.is_some();
        if bucket_size <= 0.0 || !bucket_size.is_finite() {
            return Err(SpatialError::BadBucketSize(bucket_size));
        }
        let k = subset.map_or(positions.len(), <[u32]>::len);
        // size the grid by the SHORTER side so the bucket side is at
        // least `bucket_size` on both axes — the neighborhood guarantees
        // of radius-`bucket_size` queries and of the bucket join hold on
        // non-square regions too
        let side = region.width().min(region.height());
        let geo = geometry_points.unwrap_or(k);
        let cap = (2.0 * (geo.max(1) as f64).sqrt()).ceil() as usize + 1;
        let m = ((side / bucket_size).floor() as usize).clamp(1, cap.max(1));
        self.region = region;
        self.m = m;
        self.bucket_len_x = region.width() / m as f64;
        self.bucket_len_y = region.height() / m as f64;
        self.len = k;
        self.incremental = false;
        self.pending.clear();

        // retained-capacity resizes: no allocation once warmed up. The
        // bucket table must be zeroed (counts accumulate into it); the
        // entry arrays only ever *grow* — the scatter pass overwrites
        // exactly the live slots, and every query range stays within a
        // row's live prefix, so stale entries are never read and the
        // ~1 MB-per-rebuild memset of a clear-and-resize is avoided.
        self.starts.clear();
        self.starts.resize(m * m + 1, 0);

        let min = region.min();
        let inv_x = 1.0 / self.bucket_len_x;
        let inv_y = 1.0 / self.bucket_len_y;
        // the shared binning formula with the reciprocals hoisted out
        // of the hot loops
        let bucket_of = |x: f64, y: f64| -> usize { bin(x, y, min, inv_x, inv_y, m) };

        // pass 1, fused gather + count: pay the `positions[id]`
        // indirection once, validate, record the bucket of each point
        // (the scatter pass reuses it) and count bucket sizes
        self.gather.clear();
        self.bkt.clear();
        let mut bad: Option<usize> = None;
        match subset {
            Some(sub) => {
                for &id in sub {
                    let p = positions[id as usize];
                    if !p.is_finite() {
                        bad = Some(id as usize);
                        break;
                    }
                    let b = bucket_of(p.x, p.y);
                    self.gather.push((p.x, p.y));
                    self.bkt.push(b as u32);
                    self.starts[b + 1] += 1;
                }
            }
            None => {
                for (id, p) in positions.iter().enumerate() {
                    if !p.is_finite() {
                        bad = Some(id);
                        break;
                    }
                    let b = bucket_of(p.x, p.y);
                    self.gather.push((p.x, p.y));
                    self.bkt.push(b as u32);
                    self.starts[b + 1] += 1;
                }
            }
        }
        if let Some(index) = bad {
            self.degrade_to_empty();
            return Err(SpatialError::NotFinite { index });
        }
        // prefix sums; the occupied-bucket list falls out of the same
        // pass, already sorted ascending. The slack variant widens each
        // row by `slack_cap` plus expected-arrival headroom and records
        // the live end separately.
        if slack {
            // expected-arrival headroom: one pre-reserved slot per
            // announced id, in the row its current position bins to
            self.extra.clear();
            self.extra.resize(m * m, 0);
            for &id in expected.unwrap_or(&[]) {
                self.extra[bucket_of(positions[id as usize].x, positions[id as usize].y)] += 1;
            }
            self.slack_prefix_from_counts();
            if self.slot_of.len() < positions.len() {
                // grow-only; stale values behind non-member ids are
                // never read (diff lists name member ids only)
                self.slot_of.resize(positions.len(), u32::MAX);
            }
        } else {
            self.occupied.clear();
            self.ends.clear();
            for b in 1..self.starts.len() {
                if self.starts[b] > 0 {
                    self.occupied.push((b - 1) as u32);
                }
                self.starts[b] += self.starts[b - 1];
            }
            self.ends.extend_from_slice(&self.starts[1..]);
            // grow-only entry storage sized to the slot total (== k)
            let slots = self.starts[m * m] as usize;
            if self.ids.len() < slots {
                self.ids.resize(slots, 0);
            }
            if self.pts.len() < slots {
                self.pts.resize(slots, (0.0, 0.0));
            }
            self.cursor.clear();
            self.cursor.extend_from_slice(&self.starts[..m * m]);
        }
        // pass 2: scatter, reusing the cached bucket indices
        match subset {
            Some(sub) => {
                for ((&b, &xy), &id) in self.bkt.iter().zip(&self.gather).zip(sub) {
                    let at = self.cursor[b as usize] as usize;
                    self.cursor[b as usize] += 1;
                    self.ids[at] = id;
                    self.pts[at] = xy;
                    if slack {
                        self.slot_of[id as usize] = at as u32;
                    }
                }
            }
            None => {
                for (i, (&b, &xy)) in self.bkt.iter().zip(&self.gather).enumerate() {
                    let at = self.cursor[b as usize] as usize;
                    self.cursor[b as usize] += 1;
                    self.ids[at] = i as u32;
                    self.pts[at] = xy;
                    if slack {
                        self.slot_of[i] = at as u32;
                    }
                }
            }
        }
        self.incremental = slack;
        Ok(())
    }

    /// Collapses the buffer to an empty index after a failed rebuild or
    /// update: counts/rows were partially mutated, so zero the tables
    /// and the length — a caller that catches the error and queries
    /// anyway sees nothing rather than stale entries behind garbage
    /// ranges.
    fn degrade_to_empty(&mut self) {
        self.len = 0;
        self.occupied.clear();
        self.pending.clear();
        self.incremental = false;
        for s in &mut self.starts {
            *s = 0;
        }
        for e in &mut self.ends {
            *e = 0;
        }
    }

    /// Row-major bucket of a (possibly out-of-region, clamped)
    /// coordinate pair under the current geometry — the shared [`bin`]
    /// formula (`1.0 / len` reproduces the exact reciprocals the hot
    /// loops hoist, so every path agrees bit-for-bit).
    #[inline]
    fn bucket_index(&self, x: f64, y: f64) -> usize {
        bin(
            x,
            y,
            self.region.min(),
            1.0 / self.bucket_len_x,
            1.0 / self.bucket_len_y,
            self.m,
        )
    }

    /// Removes one indexed id in `O(1)`: slot-map lookup, swap-remove
    /// within the row its **cached** coordinates bin to (the coherence
    /// invariant — valid however stale the cache is).
    #[inline]
    fn remove_one(&mut self, id: u32) {
        let slot = self.slot_of[id as usize] as usize;
        debug_assert!(
            slot < self.ids.len() && self.ids[slot] == id,
            "removed id {id} is not indexed"
        );
        let (x, y) = self.pts[slot];
        let b = self.bucket_index(x, y);
        debug_assert!(
            (self.starts[b] as usize..self.ends[b] as usize).contains(&slot),
            "slot map points outside the entry's row"
        );
        let last = self.ends[b] as usize - 1;
        self.ids[slot] = self.ids[last];
        self.pts[slot] = self.pts[last];
        self.slot_of[self.ids[slot] as usize] = slot as u32;
        self.ends[b] = last as u32;
        self.slot_of[id as usize] = u32::MAX;
        self.len -= 1;
        if last == self.starts[b] as usize {
            // non-empty → empty transition keeps `occupied` exact
            // without any table scan (rare: O(occupied) memmove)
            if let Ok(i) = self.occupied.binary_search(&(b as u32)) {
                self.occupied.remove(i);
            }
        }
    }

    /// Membership-only resynchronization of a slack layout: `O(1)`
    /// removals and insertions, **without** touching the entries that
    /// merely moved — their cached coordinates go stale instead.
    ///
    /// This is the per-step fast path of temporally-coherent
    /// maintenance: as long as every indexed agent has moved at most
    /// `slop` from where it was last filed (by
    /// [`GridIndexBuffer::rebuild_incremental`] or by its own insertion,
    /// whichever came last), radius-`r` transmit joins stay exact via
    /// [`GridIndexBuffer::join_covered_by_stale`] with that `slop` as
    /// this buffer's side of the drift budget, and no per-step `O(len)`
    /// pass runs at all. Call [`GridIndexBuffer::rebuild_incremental`]
    /// again to re-file everything and reset this buffer's staleness.
    ///
    /// `removed` must name currently indexed ids (each exactly once);
    /// `inserted` ids must not be indexed and must index `positions`.
    /// Grid geometry is untouched, so shared geometry for joins
    /// survives updates.
    ///
    /// Inserted ids are filed by their **current** position (their own
    /// staleness starts at zero) and consume the expected-arrival
    /// headroom of their row. An insert into a full row is parked; after
    /// all insertions each parked entry **borrows** one slot from the
    /// nearest row with spare capacity on either side (row-major order,
    /// at most one bucket row — `m` rows — away): every row in between
    /// shifts by one slot, moving one of its entries from one end to the
    /// other, so the cost is one entry move per row crossed. Only when
    /// no row in reach can lend does the buffer re-layout in place
    /// (counted by [`GridIndexBuffer::relayouts`]). Borrows move entries
    /// with their cached coordinates and re-layouts re-bin by them, so
    /// staleness is unaffected either way, and the occupied list stays
    /// exact throughout. Allocation-free once the buffer is warm
    /// ([`GridIndexBuffer::reserve`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_geom::{Point, Rect};
    /// use fastflood_spatial::GridIndexBuffer;
    ///
    /// let region = Rect::square(100.0)?;
    /// let mut pts = vec![
    ///     Point::new(10.0, 10.0),
    ///     Point::new(12.0, 10.0),
    ///     Point::new(90.0, 90.0),
    /// ];
    /// let mut buf = GridIndexBuffer::new();
    /// buf.rebuild_incremental(region, 8.0, &pts, &[0, 1], pts.len(), &[])?;
    ///
    /// // agents drift a little (far less than a bucket) while the
    /// // membership churns; the index is NOT re-binned
    /// pts[0] = Point::new(10.5, 10.2);
    /// pts[1] = Point::new(12.4, 9.8);
    /// buf.update_membership(&pts, &[0], &[2])?;
    ///
    /// // stale-tolerant join against a fresh transmitter grid still
    /// // answers exactly, given this side's drift bound (the fresh
    /// // side has drifted 0)
    /// let mut tx = GridIndexBuffer::new();
    /// tx.rebuild_subset_shared(region, 8.0, &pts, &[0], pts.len())?;
    /// let mut covered = Vec::new();
    /// buf.join_covered_by_stale(&tx, 2.0, 0.6, 0.0, &pts, |id| covered.push(id));
    /// assert_eq!(covered, vec![1]); // only 1 is near 0; 2 is far away
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SpatialError::NotFinite`] when an inserted position is
    /// NaN/infinite; the buffer degrades to an empty index.
    ///
    /// # Panics
    ///
    /// Panics when the buffer does not hold a slack layout, or — in
    /// debug builds — when `removed` names an id that is not indexed.
    pub fn update_membership(
        &mut self,
        positions: &[Point],
        removed: &[u32],
        inserted: &[u32],
    ) -> Result<(), SpatialError> {
        assert!(
            self.incremental,
            "update_membership requires a slack layout (build with rebuild_incremental)"
        );
        if self.slot_of.len() < positions.len() {
            self.slot_of.resize(positions.len(), u32::MAX);
        }
        for &id in removed {
            self.remove_one(id);
        }
        for &id in inserted {
            let p = positions[id as usize];
            if !p.is_finite() {
                self.degrade_to_empty();
                return Err(SpatialError::NotFinite { index: id as usize });
            }
            self.insert_raw(self.bucket_index(p.x, p.y), id, p.x, p.y);
            self.len += 1;
        }
        // `occupied` was maintained in place by the surgery above and
        // is kept so by the borrows; only the re-layout fallback
        // re-derives it
        self.settle_pending();
        Ok(())
    }

    /// Files arrival `id` (position `(x, y)`) into row `nb`'s slack; a
    /// full row parks the entry on the pending list for the
    /// end-of-update borrow instead. The arrival consumes one slot of
    /// the row's expected-arrival headroom, so a later re-layout
    /// re-reserves only what is still pending, and an empty→non-empty
    /// transition keeps the occupied list exact.
    fn insert_raw(&mut self, nb: usize, id: u32, x: f64, y: f64) {
        if self.extra[nb] > 0 {
            self.extra[nb] -= 1;
        }
        let end = self.ends[nb] as usize;
        if end < self.starts[nb + 1] as usize {
            self.ids[end] = id;
            self.pts[end] = (x, y);
            self.slot_of[id as usize] = end as u32;
            self.ends[nb] = end as u32 + 1;
            if end == self.starts[nb] as usize {
                self.mark_occupied(nb);
            }
        } else {
            self.pending.push((id, x, y));
        }
    }

    /// Records an empty → non-empty transition of row `b` in the
    /// occupied list without any table scan (rare: `O(occupied)`
    /// memmove; no allocation, the list is reserved for worst case).
    fn mark_occupied(&mut self, b: usize) {
        if let Err(i) = self.occupied.binary_search(&(b as u32)) {
            self.occupied.insert(i, b as u32);
        }
    }

    /// Files every parked entry by borrowing a slot
    /// ([`GridIndexBuffer::borrow_slot`]); entries with no lender in
    /// reach stay parked and one re-layout files them with the rest.
    /// Expects an exact occupied list and keeps it exact.
    fn settle_pending(&mut self) {
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let (id, x, y) = self.pending[i];
            if !self.borrow_slot(id, x, y) {
                self.pending[kept] = (id, x, y);
                kept += 1;
            }
        }
        self.pending.truncate(kept);
        if kept > 0 {
            self.relayout();
        }
    }

    /// Files parked entry `id` (cached position `(x, y)`) into its row
    /// `nb`, taking one slot from the nearest row with spare capacity
    /// within one bucket row (`m` rows, row-major, ties to the right).
    /// The rows strictly between are full, and each shifts by one slot
    /// toward the lender: on a right borrow every such row moves its
    /// first entry to one past its end, on a left borrow its last entry
    /// to one before its start; `slot_of` follows every moved entry.
    /// Returns `false`, changing nothing, when no row in reach has room.
    fn borrow_slot(&mut self, id: u32, x: f64, y: f64) -> bool {
        let rows = self.m * self.m;
        let nb = self.bucket_index(x, y);
        let has_room = |b: usize| self.ends[b] < self.starts[b + 1];
        let Some(lender) = (0..=self.m).find_map(|d| {
            if nb + d < rows && has_room(nb + d) {
                Some(nb + d)
            } else if d <= nb && has_room(nb - d) {
                Some(nb - d)
            } else {
                None
            }
        }) else {
            return false;
        };
        let was_empty = self.ends[nb] == self.starts[nb];
        let at = if lender >= nb {
            for b in (nb + 1..=lender).rev() {
                let (start, end) = (self.starts[b] as usize, self.ends[b] as usize);
                if end > start {
                    self.move_entry(start, end);
                }
                self.starts[b] += 1;
                self.ends[b] += 1;
            }
            self.ends[nb] += 1;
            self.ends[nb] as usize - 1
        } else {
            for b in lender + 1..nb {
                let (start, end) = (self.starts[b] as usize, self.ends[b] as usize);
                if end > start {
                    self.move_entry(end - 1, start - 1);
                }
                self.starts[b] -= 1;
                self.ends[b] -= 1;
            }
            self.starts[nb] -= 1;
            self.starts[nb] as usize
        };
        self.ids[at] = id;
        self.pts[at] = (x, y);
        self.slot_of[id as usize] = at as u32;
        if lender != nb {
            self.borrows += 1;
        }
        if was_empty {
            self.mark_occupied(nb);
        }
        true
    }

    /// Moves the entry in slot `from` to slot `to`, keeping the slot
    /// map in step.
    #[inline]
    fn move_entry(&mut self, from: usize, to: usize) {
        let id = self.ids[from];
        self.ids[to] = id;
        self.pts[to] = self.pts[from];
        self.slot_of[id as usize] = to as u32;
    }

    /// Turns per-bucket counts (left in `starts[b + 1]` by a counting
    /// pass) into the slack-layout prefix shared by full rebuilds and
    /// re-layouts: `starts` become slot offsets (count + `slack_cap`
    /// slack + remaining expected-arrival headroom per row), `ends` the
    /// live row ends, `occupied` the non-empty rows ascending; entry
    /// storage grows to the slot total and the scatter cursor is reset
    /// to the row starts.
    fn slack_prefix_from_counts(&mut self) {
        let m = self.m;
        self.occupied.clear();
        self.ends.clear();
        for b in 0..m * m {
            let c = self.starts[b + 1];
            if c > 0 {
                self.occupied.push(b as u32);
            }
            let start = self.starts[b];
            self.ends.push(start + c);
            self.starts[b + 1] = start + slack_cap(c) + self.extra[b];
        }
        let slots = self.starts[m * m] as usize;
        if self.ids.len() < slots {
            self.ids.resize(slots, 0);
        }
        if self.pts.len() < slots {
            self.pts.resize(slots, (0.0, 0.0));
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..m * m]);
    }

    /// Rebuilds the slack layout in place from the currently indexed
    /// entries (live rows plus pending overflow), granting every row
    /// fresh slack. `O(len + rows)`, entirely out of retained storage.
    fn relayout(&mut self) {
        self.relayouts += 1;
        let m = self.m;
        // snapshot live entries into the binning scratch of full
        // rebuilds (`bkt` doubles as the id scratch here)
        self.bkt.clear();
        self.gather.clear();
        for b in 0..m * m {
            for e in self.starts[b] as usize..self.ends[b] as usize {
                self.bkt.push(self.ids[e]);
                self.gather.push(self.pts[e]);
            }
        }
        while let Some((id, x, y)) = self.pending.pop() {
            self.bkt.push(id);
            self.gather.push((x, y));
        }
        debug_assert_eq!(self.bkt.len(), self.len, "entry snapshot is complete");
        let min = self.region.min();
        let inv_x = 1.0 / self.bucket_len_x;
        let inv_y = 1.0 / self.bucket_len_y;
        let bucket_of = |x: f64, y: f64| -> usize { bin(x, y, min, inv_x, inv_y, m) };
        self.starts.clear();
        self.starts.resize(m * m + 1, 0);
        for &(x, y) in &self.gather {
            self.starts[bucket_of(x, y) + 1] += 1;
        }
        // still-pending expected arrivals keep their reservations
        // (`extra` is consumed by inserts, not reset here)
        self.slack_prefix_from_counts();
        for (&id, &(x, y)) in self.bkt.iter().zip(&self.gather) {
            let b = bucket_of(x, y);
            let at = self.cursor[b] as usize;
            self.cursor[b] += 1;
            self.ids[at] = id;
            self.pts[at] = (x, y);
            self.slot_of[id as usize] = at as u32;
        }
    }

    /// Whether the buffer holds a slack (incremental) layout — i.e.
    /// [`GridIndexBuffer::update_membership`] may be called on it.
    #[inline]
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Cumulative slack-overflow re-layouts taken by
    /// [`GridIndexBuffer::update_membership`] since construction — the
    /// fallback's amortized-cost diagnostic. A full row normally
    /// borrows a slot from a nearby row instead; this counts only the
    /// updates where some row had no lender within one bucket row.
    #[inline]
    pub fn relayouts(&self) -> u64 {
        self.relayouts
    }

    /// Calls `f(bucket, id, position)` for every live entry, buckets
    /// ascending (order within a bucket unspecified).
    ///
    /// Works on tight and slack layouts alike — the canonical way to
    /// snapshot the *entry set*, e.g. to assert that an incrementally
    /// maintained buffer holds exactly what a fresh rebuild would.
    pub fn for_each_entry<F: FnMut(usize, usize, Point)>(&self, mut f: F) {
        for &b in &self.occupied {
            let b = b as usize;
            for e in self.starts[b] as usize..self.ends[b] as usize {
                let (x, y) = self.pts[e];
                f(b, self.ids[e] as usize, Point::new(x, y));
            }
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer currently indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets per axis of the current rebuild.
    #[inline]
    pub fn buckets_per_axis(&self) -> usize {
        self.m
    }

    /// Bucket indices (row-major, `cy·m + cx`) that hold at least one
    /// point, ascending. Rebuilt for free inside every rebuild's
    /// prefix-sum pass; the outer worklist of the bucket join.
    #[inline]
    pub fn occupied_buckets(&self) -> &[u32] {
        &self.occupied
    }

    /// The indexed original ids in **bucket order** — a spatial sort of
    /// the indexed subset for free.
    ///
    /// Points binned into the same bucket are adjacent in this slice and
    /// buckets appear row-major, so iterating a worklist in this order
    /// makes consecutive spatial queries touch the same or neighboring
    /// buckets (probe-order locality). The flooding engine's bucket-join
    /// mode consumes its worklist in exactly this order.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_geom::{Point, Rect};
    /// use fastflood_spatial::GridIndexBuffer;
    ///
    /// let region = Rect::square(100.0)?;
    /// // two far-apart clusters, interleaved in id order
    /// let pts = vec![
    ///     Point::new(1.0, 1.0),
    ///     Point::new(90.0, 90.0),
    ///     Point::new(2.0, 2.0),
    ///     Point::new(91.0, 91.0),
    /// ];
    /// let mut buf = GridIndexBuffer::new();
    /// buf.rebuild(region, 10.0, &pts)?;
    /// // bucket order groups each cluster together
    /// assert_eq!(buf.ids(), &[0, 2, 1, 3]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a slack (incremental) layout, whose live entries are
    /// not one contiguous slice; snapshot those via
    /// [`GridIndexBuffer::for_each_entry`] instead.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        assert!(
            !self.incremental,
            "ids() requires a tight layout; slack layouts are not contiguous \
             (use for_each_entry)"
        );
        &self.ids[..self.len]
    }

    /// Resolves the ≤ 3×3 facing CSR slices of `other` around bucket
    /// `(cx, cy)` into `slices` — skipping empty buckets, each slice
    /// carrying its (possibly unbounded: border buckets absorb clamped
    /// out-of-region points) cell rectangle for pruning — and returns
    /// the count. Shared by the exact and stale-tolerant joins so the
    /// border-extent logic can never diverge between the two kernels.
    #[inline]
    fn facing_slices(
        &self,
        other: &GridIndexBuffer,
        cx: usize,
        cy: usize,
        slices: &mut [Slice; 9],
    ) -> usize {
        let m = self.m;
        let min = self.region.min();
        let mut count = 0usize;
        for ny in cy.saturating_sub(1)..=(cy + 1).min(m - 1) {
            let cell_y0 = if ny == 0 {
                f64::NEG_INFINITY
            } else {
                min.y + ny as f64 * self.bucket_len_y
            };
            let cell_y1 = if ny == m - 1 {
                f64::INFINITY
            } else {
                min.y + (ny + 1) as f64 * self.bucket_len_y
            };
            for nx in cx.saturating_sub(1)..=(cx + 1).min(m - 1) {
                let nb = ny * m + nx;
                let tlo = other.starts[nb];
                let thi = other.ends[nb];
                if tlo == thi {
                    continue;
                }
                let cell_x0 = if nx == 0 {
                    f64::NEG_INFINITY
                } else {
                    min.x + nx as f64 * self.bucket_len_x
                };
                let cell_x1 = if nx == m - 1 {
                    f64::INFINITY
                } else {
                    min.x + (nx + 1) as f64 * self.bucket_len_x
                };
                slices[count] = Slice {
                    lo: tlo,
                    hi: thi,
                    x0: cell_x0,
                    x1: cell_x1,
                    y0: cell_y0,
                    y1: cell_y1,
                };
                count += 1;
            }
        }
        count
    }

    /// Drops the slices in `slices[..count]` whose cell rectangle is
    /// farther than `pad2` (squared distance) from the tight AABB of
    /// this bucket's cached points `lo..hi`; returns the kept count.
    /// The bucket-pair prune of both join kernels (the stale-tolerant
    /// one inflates `pad2` for drift on both sides).
    #[inline]
    fn prune_slices_by_aabb(
        &self,
        lo: usize,
        hi: usize,
        slices: &mut [Slice; 9],
        count: usize,
        pad2: f64,
    ) -> usize {
        let (mut ax0, mut ay0) = self.pts[lo];
        let (mut ax1, mut ay1) = (ax0, ay0);
        for &(x, y) in &self.pts[lo + 1..hi] {
            ax0 = ax0.min(x);
            ax1 = ax1.max(x);
            ay0 = ay0.min(y);
            ay1 = ay1.max(y);
        }
        let mut kept = 0usize;
        for i in 0..count {
            let s = slices[i];
            let gap_x = (s.x0 - ax1).max(ax0 - s.x1).max(0.0);
            let gap_y = (s.y0 - ay1).max(ay0 - s.y1).max(0.0);
            if gap_x * gap_x + gap_y * gap_y <= pad2 {
                slices[kept] = s;
                kept += 1;
            }
        }
        kept
    }

    /// Whether `other` was rebuilt with the same grid geometry (region,
    /// bucket layout) as `self` — the precondition of
    /// [`GridIndexBuffer::join_covered_by`], guaranteed by rebuilding
    /// both sides via [`GridIndexBuffer::rebuild_subset_shared`] with
    /// identical `region` / `bucket_size` / `geometry_points`.
    #[inline]
    pub fn shares_geometry_with(&self, other: &GridIndexBuffer) -> bool {
        self.m == other.m
            && self.region == other.region
            && self.bucket_len_x == other.bucket_len_x
            && self.bucket_len_y == other.bucket_len_y
    }

    /// Bucket join: calls `f(id)` once for every point indexed in `self`
    /// that lies within Euclidean distance `r` (inclusive) of **some**
    /// point indexed in `other`.
    ///
    /// Instead of issuing a scattered disk query per point, the join
    /// iterates the occupied buckets of `self`; for each it resolves the
    /// ≤ 3×3 facing CSR slices of `other` **once** (skipping empty
    /// buckets, and pruning slices whose bucket rectangle is farther
    /// than `r` from the tight AABB of this bucket's points), then runs
    /// dense slice-×-slice distance loops with first-hit early exit per
    /// point. Both sides stream in bucket order, so the inner loops read
    /// sequential memory and the per-bucket slice set stays cache-hot —
    /// the win over per-agent probing in dense large-`n` populations.
    ///
    /// Each id is reported at most once (a point lives in exactly one
    /// bucket). Allocation-free: the slice set lives in a fixed array.
    ///
    /// # Panics
    ///
    /// Panics when the two buffers were not rebuilt with a shared
    /// geometry (see [`GridIndexBuffer::rebuild_subset_shared`]), or
    /// when `r` exceeds the bucket side (the 3×3 neighborhood would miss
    /// pairs; rebuild with `bucket_size >= r`).
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_geom::{Point, Rect};
    /// use fastflood_spatial::GridIndexBuffer;
    ///
    /// let region = Rect::square(100.0)?;
    /// let pts = vec![
    ///     Point::new(10.0, 10.0), // uninformed, near the transmitter
    ///     Point::new(60.0, 60.0), // uninformed, far away
    ///     Point::new(12.0, 10.0), // transmitter
    /// ];
    /// let (mut uninformed, mut tx) = (GridIndexBuffer::new(), GridIndexBuffer::new());
    /// uninformed.rebuild_subset_shared(region, 5.0, &pts, &[0, 1], pts.len())?;
    /// tx.rebuild_subset_shared(region, 5.0, &pts, &[2], pts.len())?;
    ///
    /// let mut covered = Vec::new();
    /// uninformed.join_covered_by(&tx, 5.0, |id| covered.push(id));
    /// assert_eq!(covered, vec![0]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn join_covered_by<F: FnMut(usize)>(&self, other: &GridIndexBuffer, r: f64, mut f: F) {
        assert!(
            self.shares_geometry_with(other),
            "join requires both buffers rebuilt with a shared geometry"
        );
        debug_assert!(r >= 0.0, "join radius must be nonnegative");
        assert!(
            self.m == 1 || r <= self.bucket_len_x.min(self.bucket_len_y) * (1.0 + 1e-12),
            "join radius {r} exceeds bucket side {}",
            self.bucket_len_x.min(self.bucket_len_y)
        );
        if self.len == 0 || other.len == 0 {
            return;
        }
        let m = self.m;
        let r2 = r * r;
        for &b in &self.occupied {
            let b = b as usize;
            let lo = self.starts[b] as usize;
            let hi = self.ends[b] as usize;
            let (cx, cy) = (b % m, b / m);
            // facing slices of `other`, resolved once per bucket (≤ 3×3
            // because the bucket side is at least r)
            let mut slices = [Slice::EMPTY; 9];
            let count = self.facing_slices(other, cx, cy, &mut slices);
            if count == 0 {
                // the common far-from-frontier case: no facing points at
                // all, skip before doing any per-point work
                continue;
            }
            // bucket-pair AABB prune: drop slices whose cell rectangle
            // is farther than r from the tight AABB of this bucket's
            // points (computed lazily — only frontier-adjacent buckets
            // get this far)
            let count = self.prune_slices_by_aabb(lo, hi, &mut slices, count, r2);
            if count == 0 {
                continue;
            }
            // CSR-slice × CSR-slice inner loops, early exit per point.
            // With coarse buckets a slice holds many candidates, so each
            // point first checks its distance to the slice's cell
            // rectangle — frontier-band points skip most slices outright
            // instead of scanning them to exhaustion.
            for e in lo..hi {
                let (px, py) = self.pts[e];
                'probe: for s in &slices[..count] {
                    let ddx = px.clamp(s.x0, s.x1) - px;
                    let ddy = py.clamp(s.y0, s.y1) - py;
                    if ddx * ddx + ddy * ddy > r2 {
                        continue;
                    }
                    for t in s.lo as usize..s.hi as usize {
                        let (qx, qy) = other.pts[t];
                        let dx = qx - px;
                        let dy = qy - py;
                        if dx * dx + dy * dy <= r2 {
                            f(self.ids[e] as usize);
                            break 'probe;
                        }
                    }
                }
            }
        }
    }

    /// Stamps the 3×3 neighborhoods of `other`'s occupied buckets into
    /// the retained band-filter scratch under a fresh epoch — the
    /// frontier band of [`GridIndexBuffer::join_covered_by_stale`].
    /// `O(9 · other.occupied)`; allocation-free once the stamp table has
    /// grown to the geometry (covered by [`GridIndexBuffer::reserve`]).
    fn stamp_band(&mut self, other: &GridIndexBuffer) {
        let m = self.m;
        if self.band_stamp.len() < m * m {
            // grow-only; surviving entries hold older epochs and stay
            // inert under the new one
            self.band_stamp.resize(m * m, u32::MAX);
        }
        if self.band_epoch == u32::MAX {
            // epoch wrap (once per 2^32 joins): restart the epoch space
            for s in &mut self.band_stamp {
                *s = u32::MAX;
            }
            self.band_epoch = 0;
        }
        self.band_epoch += 1;
        let epoch = self.band_epoch;
        for &tb in &other.occupied {
            let (cx, cy) = (tb as usize % m, tb as usize / m);
            for ny in cy.saturating_sub(1)..=(cy + 1).min(m - 1) {
                let row = ny * m;
                for nx in cx.saturating_sub(1)..=(cx + 1).min(m - 1) {
                    self.band_stamp[row + nx] = epoch;
                }
            }
        }
    }

    /// Stale-tolerant bucket join: like
    /// [`GridIndexBuffer::join_covered_by`], but correct even when the
    /// indexed entries' cached coordinates lag their true positions —
    /// by up to `slop_self` in this buffer and up to `slop_other` in
    /// `other` — the companion of
    /// [`GridIndexBuffer::update_membership`]'s deferred-move regime.
    /// The two sides go stale independently: each is re-filed by its
    /// own [`GridIndexBuffer::rebuild_incremental`].
    ///
    /// Binning and occupied lists are taken from the (stale) cached
    /// state; every *distance decision* reads the exact coordinates
    /// from `positions`. The bucket-level prunes are inflated to stay
    /// conservative under drift: a facing slice survives when its cell
    /// rectangle is within `r + slop_self + slop_other` of the bucket's
    /// cached-point AABB (both sides may have drifted), a point skips a
    /// slice only when it is farther than `r + slop_other` from the
    /// slice's cell rectangle (the point reads its exact position; only
    /// the slice's contents may have drifted out of their cells), and
    /// the inner loops compare true positions against `r` exactly — so
    /// the reported set is *identical* to a fresh re-bin's join.
    ///
    /// With both slops 0 this is semantically `join_covered_by`; prefer
    /// that one on freshly re-binned buffers (it streams the packed
    /// coordinates instead of reading `positions` through the ids).
    ///
    /// **Frontier-band iteration.** When the facing side occupies fewer
    /// buckets than this one (the usual mid-flood shape: a compact
    /// transmitter disk against the spread-out uninformed complement),
    /// the join first stamps the 3×3 neighborhood of the facing side's
    /// occupied buckets and then walks only the own occupied buckets
    /// inside that band — every bucket outside it is provably hit-free
    /// (its 3×3 holds no facing point), so it is skipped with one stamp
    /// read instead of nine facing-slice probes. The reported set and
    /// its order are identical either way; the stamp scratch is retained
    /// (takes `&mut self`), keeping the join allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics when the buffers do not share a geometry, or when
    /// `r + slop_self + slop_other` exceeds the bucket side (the 3×3
    /// neighborhood could miss drifted pairs; re-file entries with
    /// [`GridIndexBuffer::rebuild_incremental`] before the staleness
    /// budget runs out). Indexed ids must be in bounds of `positions`.
    pub fn join_covered_by_stale<F: FnMut(usize)>(
        &mut self,
        other: &GridIndexBuffer,
        r: f64,
        slop_self: f64,
        slop_other: f64,
        positions: &[Point],
        mut f: F,
    ) {
        self.check_stale_join(other, r, slop_self, slop_other);
        if self.len == 0 || other.len == 0 {
            return;
        }
        let use_band = other.occupied.len() < self.occupied.len();
        if use_band {
            self.stamp_band(other);
        }
        self.stale_join_occ_range(
            other,
            0..self.occupied.len(),
            use_band,
            r,
            slop_self,
            slop_other,
            positions,
            &mut f,
        );
    }

    /// The stale join's preconditions: a shared geometry, and a drift
    /// budget `r + slop_self + slop_other` that fits the bucket side.
    fn check_stale_join(&self, other: &GridIndexBuffer, r: f64, slop_self: f64, slop_other: f64) {
        assert!(
            self.shares_geometry_with(other),
            "join requires both buffers rebuilt with a shared geometry"
        );
        debug_assert!(r >= 0.0, "join radius must be nonnegative");
        debug_assert!(
            slop_self >= 0.0 && slop_other >= 0.0,
            "staleness bounds must be nonnegative"
        );
        assert!(
            self.m == 1
                || r + slop_self + slop_other
                    <= self.bucket_len_x.min(self.bucket_len_y) * (1.0 + 1e-12),
            "join radius {r} + staleness {slop_self} + {slop_other} exceeds bucket side {}",
            self.bucket_len_x.min(self.bucket_len_y)
        );
    }

    /// The per-bucket kernel of the stale-tolerant join over a range of
    /// this side's occupied-bucket list — the one body shared by the
    /// sequential [`GridIndexBuffer::join_covered_by_stale`] (full
    /// range) and each shard of
    /// [`GridIndexBuffer::join_covered_by_stale_par`] (contiguous
    /// sub-ranges), so the two entry points can never diverge. Reads
    /// only (`&self`); the band stamp for the current epoch must already
    /// be in place when `use_band` is set.
    #[allow(clippy::too_many_arguments)]
    fn stale_join_occ_range<F: FnMut(usize)>(
        &self,
        other: &GridIndexBuffer,
        occ_range: std::ops::Range<usize>,
        use_band: bool,
        r: f64,
        slop_self: f64,
        slop_other: f64,
        positions: &[Point],
        f: &mut F,
    ) {
        let epoch = self.band_epoch;
        let m = self.m;
        let r2 = r * r;
        let pair_pad = (r + slop_self + slop_other) * (r + slop_self + slop_other);
        let point_pad = (r + slop_other) * (r + slop_other);
        for idx in occ_range {
            let b = self.occupied[idx] as usize;
            if use_band && self.band_stamp[b] != epoch {
                // no occupied facing bucket within the 3×3: hit-free
                continue;
            }
            let lo = self.starts[b] as usize;
            let hi = self.ends[b] as usize;
            let (cx, cy) = (b % m, b / m);
            let mut slices = [Slice::EMPTY; 9];
            let count = self.facing_slices(other, cx, cy, &mut slices);
            if count == 0 {
                continue;
            }
            // bucket-pair prune on the CACHED AABB, inflated for drift
            // on both sides
            let count = self.prune_slices_by_aabb(lo, hi, &mut slices, count, pair_pad);
            if count == 0 {
                continue;
            }
            // exact distances on true positions; prunes tolerate the
            // slices' contents having drifted out of their cells
            for e in lo..hi {
                let p = positions[self.ids[e] as usize];
                let (px, py) = (p.x, p.y);
                'probe: for s in &slices[..count] {
                    let ddx = px.clamp(s.x0, s.x1) - px;
                    let ddy = py.clamp(s.y0, s.y1) - py;
                    if ddx * ddx + ddy * ddy > point_pad {
                        continue;
                    }
                    for t in s.lo as usize..s.hi as usize {
                        let q = positions[other.ids[t] as usize];
                        let dx = q.x - px;
                        let dy = q.y - py;
                        if dx * dx + dy * dy <= r2 {
                            f(self.ids[e] as usize);
                            break 'probe;
                        }
                    }
                }
            }
        }
    }

    /// Parallel form of [`GridIndexBuffer::join_covered_by_stale`]:
    /// partitions this side's occupied-bucket list into contiguous
    /// shards (balanced by live entry count), runs the shared per-bucket
    /// kernel on `pool` with each shard writing a private region of
    /// retained scratch, and appends the shard outputs to `out` in
    /// canonical shard order.
    ///
    /// Because the shards are contiguous ranges of the same
    /// occupied-bucket walk, the concatenated output is **exactly the
    /// sequence the sequential join reports — whatever the thread count
    /// or scheduling** (the kernel draws no randomness and the merge
    /// order is fixed). Allocation-free once the scratch is warm
    /// ([`GridIndexBuffer::reserve_parallel`]).
    ///
    /// # Panics
    ///
    /// As [`GridIndexBuffer::join_covered_by_stale`].
    #[allow(clippy::too_many_arguments)]
    pub fn join_covered_by_stale_par(
        &mut self,
        other: &GridIndexBuffer,
        r: f64,
        slop_self: f64,
        slop_other: f64,
        positions: &[Point],
        pool: &WorkerPool,
        out: &mut Vec<u32>,
    ) {
        self.check_stale_join(other, r, slop_self, slop_other);
        if self.len == 0 || other.len == 0 {
            return;
        }
        let use_band = other.occupied.len() < self.occupied.len();
        if use_band {
            self.stamp_band(other);
        }
        // a 1-thread pool gains nothing from sharding: run the shared
        // kernel directly (no region bookkeeping, no merge)
        let tasks = if pool.threads() <= 1 {
            1
        } else {
            pool.threads()
                .saturating_mul(4)
                .min(MAX_PAR_SHARDS)
                .min(self.occupied.len())
        };
        if tasks <= 1 {
            self.stale_join_occ_range(
                other,
                0..self.occupied.len(),
                use_band,
                r,
                slop_self,
                slop_other,
                positions,
                &mut |id| out.push(id as u32),
            );
            return;
        }
        // shard boundaries over the occupied list, balanced by live
        // entry count; each shard's output region is sized by exactly
        // that count, so regions never overflow
        let total: usize = self.len;
        let per_shard = total.div_ceil(tasks);
        let mut occ_bound = [0usize; MAX_PAR_SHARDS + 1];
        let mut out_bound = [0usize; MAX_PAR_SHARDS + 1];
        {
            let mut shard = 0usize;
            let mut acc = 0usize;
            for (idx, &b) in self.occupied.iter().enumerate() {
                let b = b as usize;
                if acc >= (shard + 1) * per_shard && shard + 1 < tasks {
                    shard += 1;
                    occ_bound[shard] = idx;
                    out_bound[shard] = acc;
                }
                acc += (self.ends[b] - self.starts[b]) as usize;
            }
            debug_assert_eq!(acc, total, "live entries cover the occupied list");
            for s in shard + 1..=tasks {
                occ_bound[s] = self.occupied.len();
                out_bound[s] = acc;
            }
        }
        // the scratch is taken out of `self` so the shards can borrow it
        // mutably while the kernel reads `self` shared; put back below
        let mut par_out = std::mem::take(&mut self.par_out);
        if par_out.len() < total {
            par_out.resize(total, 0);
        }
        struct JoinShard<'a> {
            occ_lo: usize,
            occ_hi: usize,
            out: &'a mut [u32],
            hits: usize,
        }
        let mut shards: [Option<JoinShard>; MAX_PAR_SHARDS] = std::array::from_fn(|_| None);
        {
            let mut rest: &mut [u32] = &mut par_out[..total];
            for (s, slot) in shards.iter_mut().enumerate().take(tasks) {
                let take = out_bound[s + 1] - out_bound[s];
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                *slot = Some(JoinShard {
                    occ_lo: occ_bound[s],
                    occ_hi: occ_bound[s + 1],
                    out: head,
                    hits: 0,
                });
            }
        }
        run_ctx(pool, &mut shards[..tasks], |_s, shard| {
            let sh = shard.as_mut().expect("shard built above");
            let mut k = 0usize;
            self.stale_join_occ_range(
                other,
                sh.occ_lo..sh.occ_hi,
                use_band,
                r,
                slop_self,
                slop_other,
                positions,
                &mut |id| {
                    sh.out[k] = id as u32;
                    k += 1;
                },
            );
            sh.hits = k;
        });
        for shard in shards.iter().take(tasks) {
            let sh = shard.as_ref().expect("shard built above");
            out.extend_from_slice(&sh.out[..sh.hits]);
        }
        self.par_out = par_out;
    }

    /// Retained capacities `(bucket_table, entries)` — stable across
    /// steady-state rebuilds, which is what the zero-allocation tests
    /// assert.
    pub fn capacities(&self) -> (usize, usize) {
        (
            self.starts.capacity().max(self.cursor.capacity()),
            self.ids
                .capacity()
                .min(self.pts.capacity())
                .min(self.gather.capacity()),
        )
    }

    #[inline]
    fn bucket_axis_range(&self, lo: f64, hi: f64, origin: f64, inv_len: f64) -> (usize, usize) {
        let a = (((lo - origin) * inv_len).floor().max(0.0) as usize).min(self.m - 1);
        let b = (((hi - origin) * inv_len).floor().max(0.0) as usize).min(self.m - 1);
        (a, b)
    }

    /// Visits indexed points within distance `r` of `p`, stopping early
    /// when `f` returns `false`; returns `false` iff stopped early.
    pub fn visit_within<F: FnMut(usize) -> bool>(&self, p: Point, r: f64, mut f: F) -> bool {
        debug_assert!(r >= 0.0, "query radius must be nonnegative");
        if self.len == 0 {
            return true;
        }
        let r2 = r * r;
        let min = self.region.min();
        let inv_x = 1.0 / self.bucket_len_x;
        let inv_y = 1.0 / self.bucket_len_y;
        let (cx0, cx1) = self.bucket_axis_range(p.x - r, p.x + r, min.x, inv_x);
        let (cy0, cy1) = self.bucket_axis_range(p.y - r, p.y + r, min.y, inv_y);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let b = cy * self.m + cx;
                let lo = self.starts[b] as usize;
                let hi = self.ends[b] as usize;
                for e in lo..hi {
                    let (x, y) = self.pts[e];
                    let dx = x - p.x;
                    let dy = y - p.y;
                    if dx * dx + dy * dy <= r2 && !f(self.ids[e] as usize) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Calls `f(id)` for every indexed point within distance `r` of `p`.
    #[inline]
    pub fn for_each_within<F: FnMut(usize)>(&self, p: Point, r: f64, mut f: F) {
        self.visit_within(p, r, |i| {
            f(i);
            true
        });
    }

    /// Whether any indexed point lies within distance `r` of `p`
    /// (early-exiting at the first hit).
    #[inline]
    pub fn any_within(&self, p: Point, r: f64) -> bool {
        !self.visit_within(p, r, |_| false)
    }
}

/// Slot capacity of a slack-layout row currently holding `count` live
/// entries: proportional headroom plus a constant floor, so arrivals
/// between rebuilds rarely overflow a row into a borrow or re-layout,
/// while total storage stays within `len + len/4 + 8·rows`.
#[inline]
fn slack_cap(count: u32) -> u32 {
    count + count / 4 + 8
}

/// THE binning formula of `GridIndexBuffer`: reciprocal multiply with
/// truncating casts (float→int casts saturate in Rust, negatives to 0,
/// so the cast is the floor-and-clamp-low in one instruction).
///
/// Every buffer path — rebuild counting/scatter, incremental
/// removal/insertion, re-layout — must bin through this one
/// function with the same `inv_*` values (`1.0 / bucket_len`): mixing
///, say, a division-based variant can disagree by one bucket for
/// coordinates within an ulp of a row boundary, and a removal that
/// recomputes a different bucket than the one an entry was filed under
/// corrupts two rows' bookkeeping.
#[inline]
fn bin(x: f64, y: f64, min: Point, inv_x: f64, inv_y: f64, m: usize) -> usize {
    let cx = (((x - min.x) * inv_x) as usize).min(m - 1);
    let cy = (((y - min.y) * inv_y) as usize).min(m - 1);
    cy * m + cx
}

/// One facing CSR slice of a bucket join, with the (possibly
/// unbounded) cell rectangle backing the per-point prune.
#[derive(Clone, Copy)]
struct Slice {
    lo: u32,
    hi: u32,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Slice {
    const EMPTY: Slice = Slice {
        lo: 0,
        hi: 0,
        x0: 0.0,
        x1: 0.0,
        y0: 0.0,
        y1: 0.0,
    };
}

/// An `O(n)`-per-query reference index with the same semantics as
/// [`GridIndexBuffer`].
///
/// Exists as the correctness oracle for property tests; not intended for
/// production use.
#[derive(Debug, Clone)]
pub struct BruteForceIndex {
    positions: Vec<Point>,
}

impl BruteForceIndex {
    /// Builds the oracle from a slice of positions.
    pub fn build(positions: &[Point]) -> BruteForceIndex {
        BruteForceIndex {
            positions: positions.to_vec(),
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Indices of all points within distance `r` of `p`.
    pub fn indices_within(&self, p: Point, r: f64) -> Vec<usize> {
        let r2 = r * r;
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, q)| p.euclid_sq(**q) <= r2)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of points within distance `r` of `p`.
    pub fn count_within(&self, p: Point, r: f64) -> usize {
        self.indices_within(p, r).len()
    }

    /// All unordered pairs `(i, j)`, `i < j`, within distance `r`.
    pub fn pairs_within(&self, r: f64) -> Vec<(usize, usize)> {
        let r2 = r * r;
        let mut out = Vec::new();
        for i in 0..self.positions.len() {
            for j in i + 1..self.positions.len() {
                if self.positions[i].euclid_sq(self.positions[j]) <= r2 {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::square(100.0).unwrap()
    }

    #[test]
    fn parallel_stale_join_reports_the_sequential_sequence() {
        // pseudo-random population, many occupied buckets: the parallel
        // join must report exactly the sequential output SEQUENCE (not
        // just set) at every thread count
        let mut seed = 123456789u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 600;
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let members: Vec<u32> = (0..n as u32 / 2).collect();
        let tx_ids: Vec<u32> = (n as u32 / 2..n as u32).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region(), 8.0, &pts, &members, n, &[])
            .unwrap();
        let mut tx = GridIndexBuffer::new();
        tx.rebuild_subset_shared(region(), 8.0, &pts, &tx_ids, n)
            .unwrap();
        // drift everyone a little below the slop
        for p in pts.iter_mut() {
            *p = Point::new(
                (p.x + 0.3 * next()).min(100.0),
                (p.y + 0.3 * next()).min(100.0),
            );
        }
        let mut sequential = Vec::new();
        inc.join_covered_by_stale(&tx, 2.0, 0.5, 0.5, &pts, |id| sequential.push(id as u32));
        assert!(!sequential.is_empty(), "the scenario must produce hits");
        for threads in [1usize, 2, 5, 16] {
            let pool = WorkerPool::new(threads);
            let mut parallel = Vec::new();
            inc.join_covered_by_stale_par(&tx, 2.0, 0.5, 0.5, &pts, &pool, &mut parallel);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn banded_stale_join_is_stable_across_repeated_joins() {
        // repeated joins on the same buffer reuse the epoch-stamped band
        // scratch; every round must report the same set
        let mut pts = vec![
            Point::new(10.0, 10.0),
            Point::new(30.0, 30.0),
            Point::new(52.0, 52.0),
            Point::new(75.0, 75.0),
            Point::new(90.0, 10.0),
            Point::new(11.0, 11.5),
        ];
        let members: Vec<u32> = (0..5).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region(), 8.0, &pts, &members, pts.len(), &[])
            .unwrap();
        let mut tx = GridIndexBuffer::new();
        // one clustered transmitter: fewer occupied tx buckets than
        // member buckets, so the band path engages
        tx.rebuild_subset_shared(region(), 8.0, &pts, &[5], pts.len())
            .unwrap();
        for round in 0..3 {
            // drift below the announced slop, then join
            pts[0] = Point::new(10.0 + 0.1 * round as f64, 10.0);
            let mut got = Vec::new();
            inc.join_covered_by_stale(&tx, 2.0, 0.5, 0.5, &pts, |id| got.push(id));
            assert_eq!(got, vec![0], "round {round}");
        }
    }

    /// Sorted ids within `r` of `p`.
    fn hits(buf: &GridIndexBuffer, p: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        buf.for_each_within(p, r, |i| out.push(i));
        out.sort_unstable();
        out
    }

    #[test]
    fn build_validates() {
        // every rebuild flavor rejects bad sizes, and a subset reports the
        // original id of a non-finite position
        let pts = [Point::new(1.0, 1.0), Point::new(f64::NAN, 0.0)];
        let mut buf = GridIndexBuffer::new();
        for size in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                buf.rebuild_subset(region(), size, &pts, &[0]),
                Err(SpatialError::BadBucketSize(size))
            );
            assert!(buf
                .rebuild_incremental(region(), size, &pts, &[0], 2, &[])
                .is_err());
        }
        assert_eq!(
            buf.rebuild_subset(region(), 5.0, &pts, &[0, 1]),
            Err(SpatialError::NotFinite { index: 1 })
        );
        assert_eq!(
            buf.rebuild_incremental(region(), 5.0, &pts, &[1], 2, &[]),
            Err(SpatialError::NotFinite { index: 1 })
        );
    }

    #[test]
    fn empty_index() {
        // a buffer that was never rebuilt answers every query with nothing
        let buf = GridIndexBuffer::new();
        assert!(buf.is_empty());
        assert!(hits(&buf, Point::new(0.5, 0.5), 100.0).is_empty());
        assert!(!buf.any_within(Point::new(0.5, 0.5), 100.0));
        assert!(buf.occupied_buckets().is_empty());
    }

    #[test]
    fn visit_within_early_stop_reports() {
        // six points over two buckets of a row: the scan crosses into the
        // second bucket and stops exactly at the visitor's fourth hit
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(2.0 + 5.0 * i as f64, 1.0))
            .collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        let mut seen = Vec::new();
        let completed = buf.visit_within(Point::new(14.0, 1.0), 30.0, |i| {
            seen.push(i);
            seen.len() < 4
        });
        assert!(!completed);
        assert_eq!(buf.buckets_per_axis(), 6);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let mut all = 0;
        assert!(buf.visit_within(Point::new(14.0, 1.0), 30.0, |_| {
            all += 1;
            true
        }));
        assert_eq!(all, 6);
    }

    #[test]
    fn any_within_early_exit_and_pred() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(90.0, 90.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        assert!(buf.any_within(Point::new(0.0, 0.0), 3.0));
        // a predicate search is a visit that stops at the first match
        let any = |pred: &dyn Fn(usize) -> bool| {
            !buf.visit_within(Point::new(0.0, 0.0), 3.0, |i| !pred(i))
        };
        assert!(any(&|i| i == 1));
        assert!(!any(&|i| i == 2));
        // nothing near the middle within 3
        assert!(!buf.any_within(Point::new(60.0, 60.0), 3.0));
    }

    #[test]
    fn query_includes_boundary_distance() {
        let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 10.0, &pts).unwrap();
        // exactly at distance 5: inclusive
        assert_eq!(hits(&buf, Point::new(0.0, 0.0), 5.0), vec![0, 1]);
        assert_eq!(hits(&buf, Point::new(0.0, 0.0), 4.999), vec![0]);
    }

    #[test]
    fn query_radius_larger_than_bucket() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 10.0, 50.0)).collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        // radius 25 spans several buckets
        assert_eq!(
            hits(&buf, Point::new(45.0, 50.0), 25.0),
            vec![2, 3, 4, 5, 6, 7]
        );
    }

    #[test]
    fn pairs_match_brute_force_on_grid_pattern() {
        // every close pair of a 10×10 lattice, gathered from one radius
        // query per point, is exactly the brute-force pair set
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(i as f64 * 7.3 + 1.0, j as f64 * 6.1 + 2.0));
            }
        }
        let r = 8.0;
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), r, &pts).unwrap();
        let mut got = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            got.extend(hits(&buf, p, r).into_iter().filter(|&j| j > i).map(|j| (i, j)));
        }
        let mut expected = BruteForceIndex::build(&pts).pairs_within(r);
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn points_on_region_border_are_indexed() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 7.0, &pts).unwrap();
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(hits(&buf, p, 0.0), vec![i]);
        }
    }

    #[test]
    fn coincident_points_all_reported() {
        let p = Point::new(33.0, 66.0);
        let pts = [p, p, p];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 4.0, &pts).unwrap();
        assert_eq!(hits(&buf, p, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn bucket_cap_keeps_memory_reasonable() {
        // tiny radius over a big region: bucket count must stay near 2·√n
        let pts = [Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 1e-6, &pts).unwrap();
        assert!(buf.buckets_per_axis() <= 4);
        // queries still correct
        assert_eq!(hits(&buf, Point::new(1.0, 1.0), 2.0), vec![0, 1]);
    }

    #[test]
    fn brute_force_index_api() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let b = BruteForceIndex::build(&pts);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.count_within(Point::new(0.0, 0.0), 0.5), 1);
        assert_eq!(b.pairs_within(1.0), vec![(0, 1)]);
        assert!(BruteForceIndex::build(&[]).is_empty());
    }

    #[test]
    fn error_display() {
        assert!(!SpatialError::BadBucketSize(0.0).to_string().is_empty());
        assert!(!SpatialError::NotFinite { index: 3 }.to_string().is_empty());
    }

    #[test]
    fn buffer_matches_grid_index_queries() {
        // a lattice has many points at exactly the query radius
        let mut pts = Vec::new();
        for i in 0..17 {
            for j in 0..17 {
                pts.push(Point::new(i as f64 * 5.0 + 0.5, j as f64 * 4.0 + 0.5));
            }
        }
        let oracle = BruteForceIndex::build(&pts);
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 6.0, &pts).unwrap();
        assert_eq!(buf.len(), pts.len());
        for q in [
            Point::new(0.0, 0.0),
            Point::new(50.5, 48.5),
            Point::new(99.0, 1.0),
            Point::new(33.3, 66.6),
        ] {
            for r in [0.5, 4.0, 5.0, 11.0, 30.0] {
                let expected = oracle.indices_within(q, r);
                assert_eq!(hits(&buf, q, r), expected, "query {q} r {r}");
                assert_eq!(buf.any_within(q, r), !expected.is_empty());
            }
        }
    }

    #[test]
    fn buffer_subset_reports_original_ids() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(3.0, 3.0),
            Point::new(90.0, 90.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_subset(region(), 5.0, &pts, &[1, 3]).unwrap();
        assert_eq!(buf.len(), 2);
        let mut got = Vec::new();
        buf.for_each_within(Point::new(2.0, 2.0), 2.0, |i| got.push(i));
        assert_eq!(got, vec![1], "only subset members are indexed");
        assert!(buf.any_within(Point::new(91.0, 91.0), 3.0));
        assert!(
            !buf.any_within(Point::new(1.0, 1.0), 0.5),
            "0 not in subset"
        );
    }

    #[test]
    fn buffer_rebuild_reuses_capacity() {
        let mut pts: Vec<Point> = (0..500)
            .map(|i| Point::new((i % 23) as f64 * 4.0 + 1.0, (i % 19) as f64 * 5.0 + 1.0))
            .collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        let caps = buf.capacities();
        // shrinking subsets and moved positions must not grow storage
        let all: Vec<u32> = (0..pts.len() as u32).collect();
        for round in 0..50 {
            for p in &mut pts {
                *p = Point::new((p.x + 7.3) % 100.0, (p.y + 3.1) % 100.0);
            }
            let take = pts.len() - round * 9;
            buf.rebuild_subset(region(), 5.0, &pts, &all[..take])
                .unwrap();
            assert_eq!(buf.capacities(), caps, "round {round} grew storage");
            assert_eq!(buf.len(), take);
        }
    }

    #[test]
    fn buffer_validates_input() {
        let mut buf = GridIndexBuffer::new();
        assert!(buf.rebuild(region(), 0.0, &[]).is_err());
        assert!(buf.rebuild(region(), -1.0, &[]).is_err());
        assert!(buf.rebuild(region(), f64::NAN, &[]).is_err());
        let bad = [Point::new(0.0, f64::INFINITY)];
        assert!(matches!(
            buf.rebuild(region(), 1.0, &bad),
            Err(SpatialError::NotFinite { index: 0 })
        ));
        // empty buffer answers queries
        buf.rebuild(region(), 5.0, &[]).unwrap();
        assert!(buf.is_empty());
        assert!(!buf.any_within(Point::new(1.0, 1.0), 50.0));
    }

    #[test]
    fn occupied_buckets_are_sorted_and_exact() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.5), // same bucket as the first
            Point::new(90.0, 90.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 10.0, &pts).unwrap();
        let occ = buf.occupied_buckets();
        assert_eq!(occ.len(), 2, "two distinct buckets occupied");
        assert!(occ.windows(2).all(|w| w[0] < w[1]), "ascending");
        let total: usize = occ
            .iter()
            .map(|&b| {
                let mut n = 0;
                // count via ids layout: entries of bucket b
                let b = b as usize;
                n += (buf.starts[b + 1] - buf.starts[b]) as usize;
                n
            })
            .sum();
        assert_eq!(total, pts.len(), "occupied buckets hold every point");
        buf.rebuild(region(), 10.0, &[]).unwrap();
        assert!(buf.occupied_buckets().is_empty());
    }

    #[test]
    fn shared_geometry_is_shared_and_join_requires_it() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 7) as f64 * 13.0 + 1.0, (i / 7) as f64 * 15.0 + 2.0))
            .collect();
        let mut a = GridIndexBuffer::new();
        let mut b = GridIndexBuffer::new();
        // subset sizes differ wildly; shared geometry must still match
        a.rebuild_subset_shared(region(), 5.0, &pts, &[0, 1], pts.len())
            .unwrap();
        b.rebuild_subset_shared(
            region(),
            5.0,
            &pts,
            &(2..40).collect::<Vec<u32>>(),
            pts.len(),
        )
        .unwrap();
        assert!(a.shares_geometry_with(&b));
        // plain subset rebuilds derive geometry from the subset size and
        // generally do NOT share
        let mut c = GridIndexBuffer::new();
        c.rebuild_subset(region(), 5.0, &pts, &[0, 1]).unwrap();
        assert!(!c.shares_geometry_with(&b));
    }

    #[test]
    #[should_panic(expected = "shared geometry")]
    fn join_panics_on_mismatched_geometry() {
        let pts = [Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let mut a = GridIndexBuffer::new();
        let mut b = GridIndexBuffer::new();
        a.rebuild_subset(region(), 5.0, &pts, &[0]).unwrap();
        b.rebuild_subset_shared(region(), 5.0, &pts, &[1], 10_000)
            .unwrap();
        a.join_covered_by(&b, 5.0, |_| {});
    }

    fn join_vs_brute(pts: &[Point], left: &[u32], right: &[u32], bucket: f64, r: f64) {
        let mut a = GridIndexBuffer::new();
        let mut b = GridIndexBuffer::new();
        a.rebuild_subset_shared(region(), bucket, pts, left, pts.len())
            .unwrap();
        b.rebuild_subset_shared(region(), bucket, pts, right, pts.len())
            .unwrap();
        let mut got = Vec::new();
        a.join_covered_by(&b, r, |id| got.push(id));
        got.sort_unstable();
        let r2 = r * r;
        let expected: Vec<usize> = left
            .iter()
            .filter(|&&u| {
                right
                    .iter()
                    .any(|&t| pts[u as usize].euclid_sq(pts[t as usize]) <= r2)
            })
            .map(|&u| u as usize)
            .collect();
        assert_eq!(got, expected, "left {left:?} right {right:?} r {r}");
        // no duplicates: each id reported at most once
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn join_matches_brute_force_dense_and_sparse() {
        let mut pts = Vec::new();
        for i in 0..14 {
            for j in 0..14 {
                pts.push(Point::new(i as f64 * 7.1 + 0.4, j as f64 * 6.9 + 0.8));
            }
        }
        let n = pts.len() as u32;
        let left: Vec<u32> = (0..n).filter(|i| i % 3 != 0).collect();
        let right: Vec<u32> = (0..n).filter(|i| i % 3 == 0).collect();
        for r in [0.5, 3.0, 7.0] {
            join_vs_brute(&pts, &left, &right, 7.0, r);
            // swapped roles
            join_vs_brute(&pts, &right, &left, 7.0, r);
        }
        // sparse: a handful of points, huge empty region
        let sparse = [
            Point::new(1.0, 1.0),
            Point::new(4.0, 1.0),
            Point::new(99.0, 99.0),
            Point::new(50.0, 2.0),
        ];
        join_vs_brute(&sparse, &[0, 2], &[1, 3], 5.0, 4.0);
        join_vs_brute(&sparse, &[0, 1, 2, 3], &[], 5.0, 4.0);
        join_vs_brute(&sparse, &[], &[0, 1], 5.0, 4.0);
    }

    #[test]
    fn join_includes_boundary_distance_and_coincident_points() {
        let pts = [
            Point::new(10.0, 10.0),
            Point::new(13.0, 14.0), // exactly distance 5 from the first
            Point::new(10.0, 10.0), // coincident with the first
        ];
        join_vs_brute(&pts, &[1, 2], &[0], 5.0, 5.0);
        join_vs_brute(&pts, &[1, 2], &[0], 5.0, 4.999);
    }

    #[test]
    fn join_handles_clamped_out_of_region_points() {
        // positions outside the region clamp into border buckets; the
        // prune must not discard them
        let pts = [
            Point::new(105.0, 50.0), // outside, clamps into the east border
            Point::new(103.0, 50.0), // outside, within r of the first
            Point::new(-4.0, -4.0),  // outside the SW corner
            Point::new(1.0, 1.0),
        ];
        join_vs_brute(&pts, &[0, 2], &[1, 3], 8.0, 8.0);
    }

    #[test]
    fn ids_are_in_bucket_order_and_cover_subset() {
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        let subset: Vec<u32> = (0..60).step_by(2).collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_subset_shared(region(), 10.0, &pts, &subset, pts.len())
            .unwrap();
        let mut ids = buf.ids().to_vec();
        assert_eq!(ids.len(), subset.len());
        ids.sort_unstable();
        assert_eq!(ids, subset, "bucket order is a permutation of the subset");
    }

    #[test]
    fn non_square_region_keeps_bucket_side_on_both_axes() {
        // regression: geometry sized by the longer side made the short
        // axis's buckets smaller than bucket_size, so the join's 3×3
        // guarantee broke (panicking guard) on non-square regions
        let region = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0)).unwrap();
        let pts = [
            Point::new(10.0, 10.0),
            Point::new(13.0, 13.0),
            Point::new(90.0, 40.0),
        ];
        let mut a = GridIndexBuffer::new();
        let mut b = GridIndexBuffer::new();
        a.rebuild_subset_shared(region, 5.0, &pts, &[0, 2], 10_000)
            .unwrap();
        b.rebuild_subset_shared(region, 5.0, &pts, &[1], 10_000)
            .unwrap();
        let mut got = Vec::new();
        a.join_covered_by(&b, 5.0, |id| got.push(id));
        assert_eq!(got, vec![0], "distance √18 < 5 from point 1");
        // plain queries agree with brute force on the same region
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region, 5.0, &pts).unwrap();
        let mut hits = Vec::new();
        buf.for_each_within(Point::new(11.0, 11.0), 5.0, |i| hits.push(i));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn failed_rebuild_degrades_to_empty_index() {
        // regression: a NotFinite error mid-rebuild used to leave
        // partially accumulated counts over stale entries — queries on
        // the errored buffer returned garbage ids instead of nothing
        let good = [Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &good).unwrap();
        assert!(buf.any_within(Point::new(1.0, 1.0), 1.0));

        let bad = [Point::new(1.0, 1.0), Point::new(f64::NAN, 2.0)];
        assert!(matches!(
            buf.rebuild(region(), 5.0, &bad),
            Err(SpatialError::NotFinite { index: 1 })
        ));
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert!(buf.occupied_buckets().is_empty());
        assert!(buf.ids().is_empty());
        assert!(!buf.any_within(Point::new(1.0, 1.0), 50.0));
        let mut seen = 0;
        buf.for_each_within(Point::new(1.0, 1.0), 50.0, |_| seen += 1);
        assert_eq!(seen, 0, "errored buffer must act empty");
    }

    /// Sorted `(bucket, id)` snapshot of a buffer's live entries.
    fn entry_set(buf: &GridIndexBuffer) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        buf.for_each_entry(|b, id, _| v.push((b, id)));
        v.sort_unstable();
        v
    }

    /// Asserts the slack-layout invariants straight from the private
    /// state: rows are ordered and within their capacity, every live
    /// entry bins to its row and is named by the slot map, and the
    /// occupied list is exactly the non-empty rows.
    fn assert_coherent(buf: &GridIndexBuffer) {
        let rows = buf.m * buf.m;
        let mut live = 0;
        for b in 0..rows {
            let (start, end) = (buf.starts[b] as usize, buf.ends[b] as usize);
            assert!(start <= end && end <= buf.starts[b + 1] as usize, "row {b}");
            for e in start..end {
                let (x, y) = buf.pts[e];
                assert_eq!(
                    buf.bucket_index(x, y),
                    b,
                    "slot {e} is filed in the wrong row"
                );
                assert_eq!(
                    buf.slot_of[buf.ids[e] as usize] as usize, e,
                    "slot map of slot {e}"
                );
            }
            live += end - start;
        }
        assert_eq!(live, buf.len());
        let occupied: Vec<u32> = (0..rows as u32)
            .filter(|&b| buf.ends[b as usize] > buf.starts[b as usize])
            .collect();
        assert_eq!(buf.occupied_buckets(), &occupied[..]);
    }

    #[test]
    fn incremental_membership_and_join_match_tight_buffers() {
        let pts: Vec<Point> = (0..120)
            .map(|i| Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        // membership split drifts over rounds: ids migrate from the
        // "uninformed" incremental side to a tight "transmitter" side
        let mut members: Vec<u32> = (0..120).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region(), 10.0, &pts, &members, pts.len(), &[])
            .unwrap();
        let mut gone: Vec<u32> = Vec::new();
        for round in 0..10 {
            // remove every 7th remaining member, reinstate one old one
            let removed: Vec<u32> = members.iter().copied().step_by(7).collect();
            members.retain(|id| !removed.contains(id));
            let inserted: Vec<u32> = gone.pop().into_iter().collect();
            members.extend(&inserted);
            gone.extend(&removed);
            inc.update_membership(&pts, &removed, &inserted).unwrap();
            assert_eq!(inc.len(), members.len(), "round {round}");

            let mut fresh = GridIndexBuffer::new();
            fresh
                .rebuild_subset_shared(region(), 10.0, &pts, &members, pts.len())
                .unwrap();
            assert_eq!(entry_set(&inc), entry_set(&fresh), "round {round}");

            // the incremental side joins against a tight shared-geometry
            // buffer exactly as a tight buffer would
            let mut tx = GridIndexBuffer::new();
            tx.rebuild_subset_shared(region(), 10.0, &pts, &gone, pts.len())
                .unwrap();
            let mut got = Vec::new();
            inc.join_covered_by(&tx, 10.0, |id| got.push(id));
            got.sort_unstable();
            let mut expected = Vec::new();
            fresh.join_covered_by(&tx, 10.0, |id| expected.push(id));
            expected.sort_unstable();
            assert_eq!(got, expected, "round {round}");
        }
    }

    #[test]
    fn expected_headroom_absorbs_monotone_growth_without_relayouts() {
        // transmit-roster pattern: membership only grows, every future
        // member announced up front; the reserved headroom must absorb
        // the whole influx without a single borrow or re-layout
        let n = 500usize;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(((i * 37) % 100) as f64, ((i * 53) % 100) as f64))
            .collect();
        let expected: Vec<u32> = (1..n as u32).collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_incremental(region(), 8.0, &pts, &[0], n, &expected)
            .unwrap();
        let mut next = 1u32;
        while (next as usize) < n {
            let batch: Vec<u32> = (next..(next + 7).min(n as u32)).collect();
            next += batch.len() as u32;
            buf.update_membership(&pts, &[], &batch).unwrap();
        }
        assert_eq!(buf.len(), n);
        assert_eq!(buf.borrows, 0, "headroom must absorb monotone growth");
        assert_eq!(buf.relayouts(), 0, "headroom must absorb monotone growth");
        // without the announcement the same influx must have overflowed
        // its rows and borrowed from neighbors
        let mut bare = GridIndexBuffer::new();
        bare.rebuild_incremental(region(), 8.0, &pts, &[0], n, &[])
            .unwrap();
        let all: Vec<u32> = (1..n as u32).collect();
        bare.update_membership(&pts, &[], &all).unwrap();
        assert!(bare.borrows > 0, "plain slack cannot absorb n-1 inserts");
        assert_eq!(bare.len(), n);
        assert_coherent(&bare);
    }

    #[test]
    #[should_panic(expected = "requires a slack layout")]
    fn update_membership_requires_incremental_layout() {
        let pts = [Point::new(1.0, 1.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        let _ = buf.update_membership(&pts, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "requires a tight layout")]
    fn ids_panics_on_slack_layout() {
        let pts = [Point::new(1.0, 1.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_incremental(region(), 5.0, &pts, &[0], 1, &[])
            .unwrap();
        let _ = buf.ids();
    }

    #[test]
    fn failed_update_degrades_to_empty_index() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(f64::NAN, 2.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_incremental(region(), 5.0, &pts, &[0, 1], 3, &[])
            .unwrap();
        assert!(matches!(
            buf.update_membership(&pts, &[0], &[2]),
            Err(SpatialError::NotFinite { index: 2 })
        ));
        assert!(buf.is_empty());
        assert!(!buf.is_incremental());
        assert!(buf.occupied_buckets().is_empty());
        assert!(!buf.any_within(Point::new(1.0, 1.0), 50.0));
    }

    /// Capacities of every vector a slack rebuild or membership update
    /// may resize.
    fn slack_capacities(buf: &GridIndexBuffer) -> [usize; 10] {
        [
            buf.starts.capacity(),
            buf.ends.capacity(),
            buf.cursor.capacity(),
            buf.ids.capacity(),
            buf.pts.capacity(),
            buf.gather.capacity(),
            buf.bkt.capacity(),
            buf.occupied.capacity(),
            buf.extra.capacity(),
            buf.slot_of.capacity(),
        ]
    }

    #[test]
    fn incremental_rebuilds_reuse_capacity_after_reserve() {
        // re-filing by rebuild, round after round, while contraction
        // piles everyone into the corner bucket: every rebuild must
        // match a fresh tight one and fit the storage `reserve` made
        // (8×8 rows, within the `points/4` rows it provisions for)
        let n = 400usize;
        let mut pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 21) as f64 * 4.7 + 0.5, (i % 23) as f64 * 4.3 + 0.5))
            .collect();
        // a third of the ids announced as arrivals, so `subset +
        // expected` stays within the reservation
        let (expected, subset): (Vec<u32>, Vec<u32>) = (0..n as u32).partition(|i| i % 3 == 0);
        let mut buf = GridIndexBuffer::new();
        buf.reserve(n);
        let caps = slack_capacities(&buf);
        let mut fresh = GridIndexBuffer::new();
        for round in 0..80 {
            buf.rebuild_incremental(region(), 12.0, &pts, &subset, n, &expected)
                .unwrap();
            assert_eq!(buf.buckets_per_axis(), 8);
            assert_eq!(slack_capacities(&buf), caps, "round {round} grew storage");
            assert_coherent(&buf);
            fresh
                .rebuild_subset_shared(region(), 12.0, &pts, &subset, n)
                .unwrap();
            assert!(buf.shares_geometry_with(&fresh), "round {round}");
            assert_eq!(entry_set(&buf), entry_set(&fresh), "round {round}");
            assert_eq!(buf.occupied_buckets(), fresh.occupied_buckets());
            for p in &mut pts {
                *p = Point::new(p.x * 0.93 + 0.1, p.y * 0.93 + 0.1);
            }
        }
        assert_eq!(buf.occupied_buckets(), &[0], "everyone ends in the corner");
    }

    #[test]
    fn borrows_shift_rows_both_ways_and_keep_the_slot_map() {
        // 10×10 buckets of side 10, every row starts empty with the
        // constant 8-slot slack floor; ids 0..20 sit in bucket 0 (the
        // first row), ids 20..40 in bucket 99 (the last row)
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                if i < 20 {
                    Point::new(5.0, 5.0)
                } else {
                    Point::new(95.0, 95.0)
                }
            })
            .collect();
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_incremental(region(), 10.0, &pts, &[], 100, &[])
            .unwrap();
        assert_eq!(buf.buckets_per_axis(), 10);
        let floor = slack_cap(0);
        // first row: 8 fit, the 9th borrows rightward from bucket 1
        buf.update_membership(&pts, &[], &(0..9).collect::<Vec<_>>())
            .unwrap();
        assert_eq!((buf.borrows, buf.starts[1]), (1, floor + 1));
        // last row: only a left lender exists
        buf.update_membership(&pts, &[], &(20..29).collect::<Vec<_>>())
            .unwrap();
        assert_eq!((buf.borrows, buf.starts[99]), (2, 99 * floor - 1));
        assert_coherent(&buf);
        // fill the lenders, then overflow again: each borrow now shifts
        // a full row, whose entries move across its ends
        let p1 = Point::new(15.0, 5.0);
        let p98 = Point::new(85.0, 95.0);
        let mut pts = pts;
        pts.extend((0..7).map(|_| p1).chain((0..7).map(|_| p98)));
        buf.update_membership(&pts, &[], &(40..54).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(buf.borrows, 2, "bucket 1 and 98 had room for 7 each");
        buf.update_membership(&pts, &[], &[9, 29]).unwrap();
        assert_eq!(buf.borrows, 4);
        assert_eq!(buf.starts[1..3], [floor + 2, 2 * floor + 1]);
        assert_eq!(buf.starts[98..100], [98 * floor - 1, 99 * floor - 2]);
        assert_eq!(buf.relayouts(), 0);
        assert_coherent(&buf);
        // removals go through the slot map, so they find shifted entries
        let gone: Vec<u32> = (40..54).chain([0, 9, 20, 29]).collect();
        buf.update_membership(&pts, &gone, &[]).unwrap();
        let members: Vec<u32> = (1..9).chain(21..29).collect();
        let mut fresh = GridIndexBuffer::new();
        fresh
            .rebuild_incremental(region(), 10.0, &pts, &members, 100, &[])
            .unwrap();
        assert_eq!(entry_set(&buf), entry_set(&fresh));
        assert_coherent(&buf);
    }

    #[test]
    fn overflow_beyond_lender_reach_falls_back_to_relayout() {
        // one entry per bucket, then 300 arrivals into one bucket: the
        // rows within one bucket row (10 rows each side) lend 8 slots
        // each, far fewer than the influx needs
        let mut pts: Vec<Point> = (0..100)
            .map(|b| Point::new((b % 10) as f64 * 10.0 + 5.0, (b / 10) as f64 * 10.0 + 5.0))
            .collect();
        pts.extend((0..300).map(|_| Point::new(55.0, 55.0)));
        let n = pts.len();
        let mut buf = GridIndexBuffer::new();
        buf.reserve(n);
        buf.rebuild_incremental(region(), 10.0, &pts, &(0..100).collect::<Vec<_>>(), n, &[])
            .unwrap();
        let caps = buf.capacities();
        buf.update_membership(&pts, &[], &(100..n as u32).collect::<Vec<_>>())
            .unwrap();
        assert!(buf.borrows > 0, "the nearby rows lend what they have");
        assert_eq!(buf.relayouts(), 1, "the rest needs one re-layout");
        assert_eq!(buf.capacities(), caps, "the fallback allocates nothing");
        assert_coherent(&buf);
        let mut fresh = GridIndexBuffer::new();
        fresh
            .rebuild_subset_shared(region(), 10.0, &pts, &(0..n as u32).collect::<Vec<_>>(), n)
            .unwrap();
        assert_eq!(entry_set(&buf), entry_set(&fresh));
    }

    #[test]
    fn clamped_out_of_region_points_survive_updates() {
        // positions outside the region clamp into border buckets, both
        // when a rebuild re-files them and when they arrive as inserts,
        // and their removal finds the clamped row again
        let mut pts = vec![
            Point::new(99.0, 50.0),
            Point::new(50.0, 50.0),
            Point::new(50.0, -6.0),
        ];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild_incremental(region(), 10.0, &pts, &[0, 1], 3, &[])
            .unwrap();
        pts[0] = Point::new(107.0, 50.0); // wandered out east
        buf.rebuild_incremental(region(), 10.0, &pts, &[0, 1], 3, &[])
            .unwrap();
        assert!(buf.any_within(Point::new(100.0, 50.0), 8.0));
        buf.update_membership(&pts, &[], &[2]).unwrap(); // arrives south
        assert!(buf.any_within(Point::new(50.0, 0.0), 6.5));
        assert_coherent(&buf);
        buf.update_membership(&pts, &[0, 2], &[]).unwrap();
        assert!(!buf.any_within(Point::new(100.0, 50.0), 8.0));
        assert!(!buf.any_within(Point::new(50.0, 0.0), 6.5));
        assert_eq!(buf.len(), 1);
        assert_coherent(&buf);
    }

    #[test]
    fn buffer_visit_within_early_stop() {
        let pts = [Point::new(1.0, 1.0), Point::new(1.5, 1.0)];
        let mut buf = GridIndexBuffer::new();
        buf.rebuild(region(), 5.0, &pts).unwrap();
        let mut seen = 0;
        let completed = buf.visit_within(Point::new(1.0, 1.0), 2.0, |_| {
            seen += 1;
            false
        });
        assert!(!completed);
        assert_eq!(seen, 1);
    }
}
