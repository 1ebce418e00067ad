//! The push-based vertex-centric programming API.
//!
//! HyTGraph executes *push-mode* vertex programs (Fig. 1 of the paper): in
//! each step, every **active** vertex scatters messages along its out-edges;
//! a receiving vertex folds the message into its state and becomes active
//! when the fold changed (or crossed) something. The API decomposes that
//! into four hooks, chosen so both value-replacement algorithms (SSSP, BFS,
//! CC — monotone min-folds) and value-accumulation algorithms (Δ-PageRank,
//! PHP — commutative add-folds) fit without special cases:
//!
//! 1. [`VertexProgram::activate`] — atomically claim the scatter seed from
//!    the vertex's own state (PR swaps its pending Δ to zero here; SSSP
//!    just reads its distance).
//! 2. [`VertexProgram::message`] — the per-edge message computed from the
//!    seed and the edge context.
//! 3. [`VertexProgram::accumulate`] — fold a message into the target state
//!    (must be commutative and idempotent-safe under retry).
//! 4. [`VertexProgram::should_activate`] — whether the fold makes the
//!    target active (PR only activates when Δ crosses ε).
//!
//! # Value width
//!
//! Values live in a [`Values`] array of 64-bit atoms. A program's state is
//! no longer restricted to *one* atom: [`VertexValue::LANES`] declares how
//! many consecutive 64-bit lanes one vertex's state occupies (striped
//! per-vertex), and [`VertexValue::WIRE_BYTES`] how many bytes of it cross
//! an interconnect when the vertex is published. Single-lane values keep
//! the paper's lock-free CAS update path bit-for-bit (the CPU analogue of
//! the `atomicMin`/`atomicAdd` the paper's CUDA kernels use); multi-lane
//! values — e.g. the 64 HyperLogLog registers of
//! `hyt_algos::hyperball` — update under a striped mutex (multi-word CAS
//! does not exist) while reads stay lock-free per lane. A lock-free read
//! may therefore be *torn* across lanes: each lane is individually valid
//! but possibly from different moments. That is safe exactly when the
//! program's fold is lane-wise monotone and idempotent (every lane of a
//! torn read is between the old and new states, so re-merging it cannot
//! un-converge anything) — the contract wide programs must satisfy, and
//! HLL register-max does.
//!
//! Engine pricing, exchange sizing, and budget carving all derive the
//! per-vertex footprint from the program's [`ValueLayout`] instead of
//! assuming ~8 bytes; [`ValueLayout::narrow`] is the paper's 8-byte
//! footprint, so every single-lane program prices as the paper does.
//!
//! # Convergence contract (non-monotone folds allowed)
//!
//! The runner's convergence test is purely *operational*: a vertex is
//! re-activated whenever [`VertexProgram::accumulate`] reports a change
//! (returns `Some`) and [`VertexProgram::should_activate`] agrees, and the
//! run ends when an iteration activates nobody. Nothing in the runner,
//! the priority scheduler, or the cost model assumes the fold is a
//! monotone semiring — `accumulate` may be **any commutative merge with
//! explicit change detection**. Termination is the *program's*
//! obligation: it must guarantee that every vertex's state can change
//! only finitely often (monotone folds get this for free; idempotent
//! bounded merges like HLL register-max get it because registers only
//! grow within a finite range; ε-thresholded accumulation gets it by
//! declining sub-ε changes in `should_activate`). Under the asynchronous
//! mode the fold should additionally be idempotent or
//! delta-conserving, since a recompute pass may re-deliver a message
//! that raced with a concurrent claim.
//!
//! # Per-iteration observation
//!
//! Programs that need the trajectory — not just the fixpoint — opt in
//! with [`VertexProgram::OBSERVES_ITERATIONS`]: after every iteration the
//! runner hands [`VertexProgram::observe_iteration`] a snapshot of all
//! values in **original** vertex-id order (hub-sort relabelling undone).
//! HyperBall uses this to read the neighbourhood function N(t) off the
//! sketch estimates at every radius t.
//!
//! # Snapshot consistency contract
//!
//! [`Values::snapshot`] reads lock-free, so its guarantees are exactly
//! the lock-free read's, spelled out per lane count:
//!
//! * **Per-lane atomicity, always.** Every 64-bit lane of every returned
//!   value was atomically stored by some writer (or is the initial
//!   state); lanes are never out-of-thin-air or mixed within themselves.
//!   Single-lane values are therefore *never* torn — their whole state
//!   is one atom.
//! * **Cross-lane consistency only when quiesced.** Under concurrent
//!   multi-lane updates, different lanes of one value may come from
//!   different committed states (a *torn* observation). With no writer
//!   running, a snapshot is an exact point-in-time copy, wide or not.
//!
//! The runner only snapshots **quiesced** state: `observe_iteration`,
//! the sync-mode seed snapshot, and the final result are all taken at
//! iteration barriers, after every kernel task of the iteration has
//! completed and before the next iteration starts. Observers and
//! convergence decisions therefore never see a torn multi-lane value —
//! a half-merged HLL sketch can never be mistaken for a converged one.
//! Code reading a live [`Values`] array from *outside* the runner's
//! barriers (debug probes, mid-run monitors) must either tolerate
//! cross-lane tearing or take the writers' stripes; the runner itself
//! never needs to. `tests::snapshots` holds both halves of this
//! contract under deliberate cross-thread hammering.
//!
//! ## Numbered invariants (checked by the interleaving explorer)
//!
//! The contract above decomposes into five machine-checked invariants.
//! `hyt_lint::interleave` models this store as an explicit state machine
//! and exhaustively explores every bounded thread interleaving of its
//! micro-steps; each assertion there cites one of these numbers, as does
//! `tests/interleave.rs` in this crate. Keep the numbering stable — it
//! is the cross-reference key between this contract, the checker, and
//! the repro claims.
//!
//! * **V1 — per-lane atomicity.** Every lane a read observes was
//!   committed by some completed or in-flight store of that exact lane
//!   value (or is the initial state); no out-of-thin-air or partial-lane
//!   bytes, under every interleaving.
//! * **V2 — quiesced exactness.** Once all writers have finished, every
//!   value equals the merge-fold of its initial state with all messages
//!   delivered to it — no lost updates and no residual tearing survive
//!   quiescence.
//! * **V3 — single-lane CAS linearizability.** For `LANES == 1`, each
//!   successful compare-and-swap merge is an atomic point: the final
//!   value is the fold of *all* messages, for every schedule of the
//!   lock-free retry loop.
//! * **V4 — stripe mutual exclusion.** Two wide RMWs on vertices that
//!   hash to the same stripe never interleave their
//!   load-merge-store micro-steps; the second observes the first's
//!   complete write.
//! * **V5 — merge schedule-independence.** The fold is commutative and
//!   idempotent lane-wise, so every explored schedule that delivers the
//!   same message multiset quiesces to the same state (bit-identical).

use hyt_graph::{VertexId, Weight};
use serde::Serialize;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on [`VertexValue::LANES`], so lane staging can use fixed
/// stack buffers (512 lanes = 4 KiB of state per vertex — sized for the
/// widest HyperBall precision, `p = 12` ⇒ 4096 one-byte registers).
pub const MAX_VALUE_LANES: usize = 512;

/// Bytes of the vertex-id half of an exchange record (a `u32` id).
pub const EXCHANGE_ID_BYTES: u64 = 4;

/// Mutex stripes shared by all wide-value vertices of one [`Values`]
/// array (lane count > 1 only; single-lane arrays allocate none).
const VALUE_LOCK_STRIPES: usize = 64;

/// A vertex state stored in one or more 64-bit lanes.
///
/// Single-lane values (`LANES == 1`, the default) round-trip through
/// [`to_bits`](VertexValue::to_bits)/[`from_bits`](VertexValue::from_bits)
/// and get the lock-free CAS update path. Wide values (`LANES > 1`)
/// implement [`store_lanes`](VertexValue::store_lanes)/
/// [`load_lanes`](VertexValue::load_lanes) instead; their `to_bits`/
/// `from_bits` are never called by [`Values`] and may panic.
pub trait VertexValue: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Consecutive 64-bit lanes one vertex's state occupies
    /// (1..=[`MAX_VALUE_LANES`]).
    const LANES: usize = 1;

    /// Bytes of state that ride an inter-device exchange record for one
    /// published vertex (alongside [`EXCHANGE_ID_BYTES`] of id). Defaults
    /// to one full lane; types that pack tighter (e.g. `u32`) or wider
    /// (e.g. 64 one-byte HLL registers) override it.
    const WIRE_BYTES: u64 = 8;

    /// Bytes of state a record must carry to turn a replica holding `old`
    /// into `self` (alongside [`EXCHANGE_ID_BYTES`] of id). The sync
    /// exchange prices each published vertex with this against its
    /// iteration-start value, which every replica already holds. Defaults
    /// to the full [`WIRE_BYTES`](VertexValue::WIRE_BYTES); HLL sketches
    /// override it to ship only the registers that rose.
    fn wire_bytes_since(&self, old: &Self) -> u64 {
        let _ = old;
        Self::WIRE_BYTES
    }

    /// Encode into the atomic cell (single-lane values).
    fn to_bits(self) -> u64;
    /// Decode from the atomic cell (single-lane values).
    fn from_bits(bits: u64) -> Self;

    /// Stage this value into `out` (`LANES` slots). Default delegates to
    /// [`to_bits`](VertexValue::to_bits); wide values must override.
    fn store_lanes(self, out: &mut [u64]) {
        out[0] = self.to_bits();
    }

    /// Rebuild from `lanes` (`LANES` slots). Default delegates to
    /// [`from_bits`](VertexValue::from_bits); wide values must override.
    fn load_lanes(lanes: &[u64]) -> Self {
        Self::from_bits(lanes[0])
    }
}

impl VertexValue for u32 {
    /// Half a lane on the wire: a 4-byte value makes a smaller exchange
    /// record than an 8-byte one (the exchange ships `id + value`, not
    /// the storage lane).
    const WIRE_BYTES: u64 = 4;

    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl VertexValue for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl VertexValue for f64 {
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// Two packed `f32`s — the state shape of Δ-accumulative algorithms
/// (PageRank, PHP): a settled component plus a pending delta.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F32Pair {
    /// Settled value (e.g. accumulated rank).
    pub a: f32,
    /// Pending value (e.g. unscattered Δ).
    pub b: f32,
}

impl VertexValue for F32Pair {
    fn to_bits(self) -> u64 {
        ((self.a.to_bits() as u64) << 32) | self.b.to_bits() as u64
    }
    fn from_bits(bits: u64) -> Self {
        F32Pair { a: f32::from_bits((bits >> 32) as u32), b: f32::from_bits(bits as u32) }
    }
}

/// Per-vertex value footprint of a program, as every width-sensitive
/// layer consumes it: storage lanes (budget carving, staging buffers)
/// and wire bytes (exchange records, compaction gathers).
///
/// [`ValueLayout::narrow`] — one lane, 8 wire bytes — is the paper's
/// per-vertex footprint, so it is the identity layout for every
/// 64-bit-atom program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ValueLayout {
    /// 64-bit storage lanes per vertex ([`VertexValue::LANES`]).
    pub lanes: u32,
    /// Bytes of value payload per exchanged vertex
    /// ([`VertexValue::WIRE_BYTES`]).
    pub wire_bytes: u64,
}

impl ValueLayout {
    /// The layout of value type `V`.
    pub fn of<V: VertexValue>() -> ValueLayout {
        ValueLayout { lanes: V::LANES as u32, wire_bytes: V::WIRE_BYTES }
    }

    /// The single-lane 64-bit-atom layout.
    pub const fn narrow() -> ValueLayout {
        ValueLayout { lanes: 1, wire_bytes: 8 }
    }

    /// Resident bytes of value storage per vertex (8 per lane).
    pub const fn lane_bytes(&self) -> u64 {
        8 * self.lanes as u64
    }

    /// Bytes per record of the inter-device frontier exchange: a 32-bit
    /// vertex id plus this value's wire payload. Narrow layout: 12
    /// (`EXCHANGE_RECORD_BYTES`).
    pub const fn record_bytes(&self) -> u64 {
        EXCHANGE_ID_BYTES + self.wire_bytes
    }

    /// GPU-resident vertex-associated bytes per vertex: 16 bytes of
    /// value-independent state (row offset, neighbour index, activity
    /// bitmaps) plus the value lanes. Narrow layout: 24, the
    /// `VERTEX_STATE_BYTES` carved out of device memory before edge data
    /// can be cached (Section II-A's data placement).
    pub const fn state_bytes(&self) -> u64 {
        16 + self.lane_bytes()
    }

    /// Extra per-active-vertex bytes a compaction gather (and its cost
    /// formula (2) pricing) moves beyond the 8-byte slot the narrow
    /// model already charges via `d2`. Zero for every value at or under
    /// 8 wire bytes — an exact pricing identity for all pre-existing
    /// programs — and `WIRE_BYTES − 8` for wide ones, which is what can
    /// flip an engine choice for sketch-width values.
    pub const fn compaction_surplus(&self) -> u64 {
        self.wire_bytes.saturating_sub(8)
    }
}

/// Edge context handed to [`VertexProgram::message`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeCtx {
    /// Out-degree of the scattering vertex.
    pub out_degree: u64,
    /// Weight of this edge (1 on unweighted graphs).
    pub weight: Weight,
    /// Sum of the scattering vertex's out-edge weights. Only computed when
    /// [`VertexProgram::NEEDS_WEIGHTED_DEGREE`] is set (PHP's normaliser);
    /// equals `out_degree` on unweighted graphs, 0 otherwise.
    pub weighted_degree: u64,
}

/// Which vertices start active.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitialFrontier {
    /// Every vertex (PageRank, CC).
    All,
    /// An explicit seed set (SSSP, BFS, PHP: the source).
    Set(Vec<VertexId>),
}

/// Which contribution signal drives priority scheduling for this program
/// (Section VI-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityMode {
    /// Hub-vertex-driven: schedule hub-heavy (front) partitions first.
    /// Right for value-replacement algorithms.
    Hub,
    /// Δ-driven: schedule partitions with the largest pending Δ first.
    /// Right for value-accumulation algorithms.
    Delta,
}

/// A push-based vertex program. See the module docs for the execution
/// contract of each hook and for the convergence contract (the fold need
/// not be monotone — only commutative, change-detecting, and finitely
/// changing).
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type Value: VertexValue;

    /// Ask the kernel to compute [`EdgeCtx::weighted_degree`] per scatter
    /// (one extra pass over the vertex's weight run; off by default).
    const NEEDS_WEIGHTED_DEGREE: bool = false;

    /// Whether the program reads edge weights. Weight-blind programs
    /// (BFS, CC, PageRank) only transfer the 4-byte neighbour array even
    /// on weighted graphs — the reason unified memory can cache all of
    /// SK for PR/CC/BFS in Table V while SSSP oversubscribes.
    const NEEDS_WEIGHTS: bool = false;

    /// Opt in to [`VertexProgram::observe_iteration`] snapshots. Off by
    /// default (the snapshot + relabelling pass costs a vertex scan per
    /// iteration, so only trajectory-reading programs pay it).
    const OBSERVES_ITERATIONS: bool = false;

    /// Initial state of vertex `v`.
    fn init(&self, v: VertexId) -> Self::Value;

    /// The initially active vertices.
    fn initial_frontier(&self) -> InitialFrontier;

    /// Atomically claim the scatter seed: returns `(new_state, seed)`.
    /// Runs in a CAS loop, so it must be a pure function of `state`.
    /// Default: state unchanged, seed = state (value-replacement shape).
    fn activate(&self, state: Self::Value) -> (Self::Value, Self::Value) {
        (state, state)
    }

    /// Synchronous-mode claim: split the live `state` given the snapshot
    /// view `snap` taken at iteration start, returning `(new_state,
    /// seed)`. Only the snapshot's pending contribution may be claimed —
    /// Δ that arrived *during* the iteration must stay pending, or it
    /// would be settled without ever being scattered. Value-replacement
    /// programs keep their state and scatter the snapshot value (the
    /// default); accumulative programs subtract exactly `snap`'s Δ.
    fn claim_from_snapshot(
        &self,
        state: Self::Value,
        snap: Self::Value,
    ) -> (Self::Value, Self::Value) {
        let _ = state;
        (state, self.activate(snap).1)
    }

    /// Message sent along one out-edge given the claimed seed; `None`
    /// sends nothing (e.g. unreachable SSSP seeds).
    fn message(&self, seed: Self::Value, ctx: EdgeCtx) -> Option<Self::Value>;

    /// Fold `msg` into the receiving vertex's state; `None` when the state
    /// is unchanged (no write, no activation). Must be commutative across
    /// concurrent messages, and must report *every* change — the runner's
    /// convergence accounting is driven entirely by this explicit change
    /// detection, with no monotonicity assumed (see the module docs).
    fn accumulate(&self, state: Self::Value, msg: Self::Value) -> Option<Self::Value>;

    /// Whether the fold `old → new` makes the receiver active. Default:
    /// any change activates (value-replacement semantics).
    fn should_activate(&self, _old: Self::Value, _new: Self::Value) -> bool {
        true
    }

    /// Contribution signal for the scheduler (Section VI-A).
    fn priority_mode(&self) -> PriorityMode {
        PriorityMode::Hub
    }

    /// Pending-contribution magnitude of a state (only consulted in
    /// [`PriorityMode::Delta`]).
    fn delta_of(&self, _state: Self::Value) -> f64 {
        0.0
    }

    /// End-of-iteration callback when
    /// [`OBSERVES_ITERATIONS`](Self::OBSERVES_ITERATIONS) is set:
    /// `values` is a snapshot of every vertex's state *after* iteration
    /// `iteration`, in original vertex-id order. Called for both the GPU and CPU-only paths, and
    /// for the final (nothing-activated) iteration too.
    fn observe_iteration(&self, _iteration: u32, _values: &[Self::Value]) {}
}

/// Shared references are programs too: a driver can run `&program` and
/// keep the program afterwards — how observer programs (HyperBall) hand
/// their accumulated trajectory back out of
/// [`observe_iteration`](VertexProgram::observe_iteration) state.
impl<P: VertexProgram + ?Sized> VertexProgram for &P {
    type Value = P::Value;
    const NEEDS_WEIGHTED_DEGREE: bool = P::NEEDS_WEIGHTED_DEGREE;
    const NEEDS_WEIGHTS: bool = P::NEEDS_WEIGHTS;
    const OBSERVES_ITERATIONS: bool = P::OBSERVES_ITERATIONS;

    fn init(&self, v: VertexId) -> Self::Value {
        (**self).init(v)
    }
    fn initial_frontier(&self) -> InitialFrontier {
        (**self).initial_frontier()
    }
    fn activate(&self, state: Self::Value) -> (Self::Value, Self::Value) {
        (**self).activate(state)
    }
    fn claim_from_snapshot(
        &self,
        state: Self::Value,
        snap: Self::Value,
    ) -> (Self::Value, Self::Value) {
        (**self).claim_from_snapshot(state, snap)
    }
    fn message(&self, seed: Self::Value, ctx: EdgeCtx) -> Option<Self::Value> {
        (**self).message(seed, ctx)
    }
    fn accumulate(&self, state: Self::Value, msg: Self::Value) -> Option<Self::Value> {
        (**self).accumulate(state, msg)
    }
    fn should_activate(&self, old: Self::Value, new: Self::Value) -> bool {
        (**self).should_activate(old, new)
    }
    fn priority_mode(&self) -> PriorityMode {
        (**self).priority_mode()
    }
    fn delta_of(&self, state: Self::Value) -> f64 {
        (**self).delta_of(state)
    }
    fn observe_iteration(&self, iteration: u32, values: &[Self::Value]) {
        (**self).observe_iteration(iteration, values)
    }
}

/// Per-vertex state array: `LANES` consecutive 64-bit atoms per vertex.
///
/// Single-lane values are lock-free (CAS update loops, exactly the
/// pre-refactor behaviour). Wide values serialise read-modify-write
/// updates through `VALUE_LOCK_STRIPES` mutex stripes while keeping
/// reads lock-free per lane — see the module docs for why torn reads are
/// safe for lane-wise monotone merges.
#[derive(Debug)]
pub struct Values<V: VertexValue> {
    bits: Vec<AtomicU64>,
    /// Update stripes; empty when `V::LANES == 1`.
    locks: Box<[Mutex<()>]>,
    len: usize,
    _marker: PhantomData<V>,
}

impl<V: VertexValue> Values<V> {
    /// Initialise from a program's [`VertexProgram::init`].
    pub fn init<P: VertexProgram<Value = V>>(program: &P, num_vertices: u32) -> Self {
        Self::init_with(num_vertices, |v| program.init(v))
    }

    /// Initialise from an arbitrary id→value function (used by the runner
    /// to compose `init` with the hub-sort relabelling).
    pub fn init_with(num_vertices: u32, f: impl Fn(VertexId) -> V) -> Self {
        assert!(
            (1..=MAX_VALUE_LANES).contains(&V::LANES),
            "VertexValue::LANES must be 1..={MAX_VALUE_LANES}, got {}",
            V::LANES
        );
        let mut bits = Vec::with_capacity(num_vertices as usize * V::LANES);
        let mut buf = [0u64; MAX_VALUE_LANES];
        for v in 0..num_vertices {
            f(v).store_lanes(&mut buf[..V::LANES]);
            bits.extend(buf[..V::LANES].iter().map(|&b| AtomicU64::new(b)));
        }
        let locks = if V::LANES == 1 {
            Box::from([])
        } else {
            (0..VALUE_LOCK_STRIPES).map(|_| Mutex::new(())).collect()
        };
        Values { bits, locks, len: num_vertices as usize, _marker: PhantomData }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-vertex graph.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read the state of `v`. Wide values read lock-free per lane, so
    /// the result can be torn across lanes under concurrent updates
    /// (safe for lane-wise monotone merges; see module docs).
    #[inline]
    pub fn get(&self, v: VertexId) -> V {
        if V::LANES == 1 {
            V::from_bits(self.bits[v as usize].load(Ordering::Relaxed))
        } else {
            self.read_lanes(v)
        }
    }

    /// Overwrite the state of `v` (single-threaded phases only).
    #[inline]
    pub fn set(&self, v: VertexId, val: V) {
        if V::LANES == 1 {
            self.bits[v as usize].store(val.to_bits(), Ordering::Relaxed);
        } else {
            self.write_lanes(v, val);
        }
    }

    /// Update loop: apply `f` until it either returns `None` (no change
    /// needed) or the write commits. Returns `Some((old, new))` on
    /// success, `None` if `f` declined. Single-lane values CAS
    /// lock-free; wide values hold their mutex stripe across the
    /// read-modify-write.
    #[inline]
    pub fn update(&self, v: VertexId, mut f: impl FnMut(V) -> Option<V>) -> Option<(V, V)> {
        if V::LANES != 1 {
            return self.update_wide(v, f);
        }
        let cell = &self.bits[v as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = V::from_bits(cur);
            let new = f(old)?;
            match cell.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((old, new)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Snapshot all states (oracle comparison, sync-mode seed reads,
    /// iteration observers).
    ///
    /// Lock-free: per-lane atomic always, cross-lane exact only when no
    /// writer is running — see the module-level *snapshot consistency
    /// contract*. The runner calls this only at iteration barriers, so
    /// everything it observes (including `observe_iteration` input) is
    /// untorn.
    pub fn snapshot(&self) -> Vec<V> {
        (0..self.len as u32).map(|v| self.get(v)).collect()
    }

    /// Wide-value read-modify-write under the vertex's mutex stripe.
    fn update_wide(&self, v: VertexId, mut f: impl FnMut(V) -> Option<V>) -> Option<(V, V)> {
        let stripe = &self.locks[v as usize % self.locks.len()];
        // hyt-lint: allow(unwrap-in-lib) -- a poisoned stripe means a writer panicked mid-RMW and the lanes may be torn (V2); propagating the panic is the only safe read
        let _guard = stripe.lock().expect("value stripe poisoned");
        let old = self.read_lanes(v);
        let new = f(old)?;
        self.write_lanes(v, new);
        Some((old, new))
    }

    fn read_lanes(&self, v: VertexId) -> V {
        let base = v as usize * V::LANES;
        with_lane_buf::<V, _>(|buf| {
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = self.bits[base + i].load(Ordering::Relaxed);
            }
            V::load_lanes(buf)
        })
    }

    fn write_lanes(&self, v: VertexId, val: V) {
        let base = v as usize * V::LANES;
        with_lane_buf::<V, _>(|buf| {
            val.store_lanes(buf);
            for (i, &b) in buf.iter().enumerate() {
                self.bits[base + i].store(b, Ordering::Relaxed);
            }
        })
    }
}

/// Lane count up to which a wide read or write stages through a small
/// stack array instead of a [`MAX_VALUE_LANES`]-sized one.
const SMALL_VALUE_LANES: usize = 16;

/// Run `f` over a zeroed staging buffer of exactly `V::LANES` lanes.
///
/// The branch folds at monomorphisation. Zeroing the full
/// [`MAX_VALUE_LANES`] array costs 4 KB per access unless the optimiser
/// inlines every lane accessor and elides it, and whether it does turned
/// on unrelated code elsewhere in the build (HyperBall's 8-lane kernel
/// measured ±40 % between otherwise equivalent builds); values of up to
/// [`SMALL_VALUE_LANES`] lanes therefore never touch more than 128 bytes.
fn with_lane_buf<V: VertexValue, R>(f: impl FnOnce(&mut [u64]) -> R) -> R {
    if V::LANES <= SMALL_VALUE_LANES {
        f(&mut [0u64; SMALL_VALUE_LANES][..V::LANES])
    } else {
        f(&mut [0u64; MAX_VALUE_LANES][..V::LANES])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MinProg;
    impl VertexProgram for MinProg {
        type Value = u32;
        fn init(&self, v: VertexId) -> u32 {
            if v == 0 {
                0
            } else {
                u32::MAX
            }
        }
        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::Set(vec![0])
        }
        fn message(&self, seed: u32, ctx: EdgeCtx) -> Option<u32> {
            (seed != u32::MAX).then(|| seed.saturating_add(ctx.weight))
        }
        fn accumulate(&self, state: u32, msg: u32) -> Option<u32> {
            (msg < state).then_some(msg)
        }
    }

    /// A 4-lane value: four independent u64 slots merged by element-wise
    /// max (the wide-value test stand-in for HLL registers).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Wide4([u64; 4]);
    impl VertexValue for Wide4 {
        const LANES: usize = 4;
        const WIRE_BYTES: u64 = 32;
        fn to_bits(self) -> u64 {
            unreachable!("wide values use the lane interface")
        }
        fn from_bits(_: u64) -> Self {
            unreachable!("wide values use the lane interface")
        }
        fn store_lanes(self, out: &mut [u64]) {
            out.copy_from_slice(&self.0);
        }
        fn load_lanes(lanes: &[u64]) -> Self {
            let mut a = [0u64; 4];
            a.copy_from_slice(lanes);
            Wide4(a)
        }
    }

    fn wide_max(a: Wide4, b: Wide4) -> Option<Wide4> {
        let merged =
            Wide4([a.0[0].max(b.0[0]), a.0[1].max(b.0[1]), a.0[2].max(b.0[2]), a.0[3].max(b.0[3])]);
        (merged != a).then_some(merged)
    }

    #[test]
    fn f32_pair_round_trips() {
        let p = F32Pair { a: 1.5, b: -2.25 };
        assert_eq!(F32Pair::from_bits(p.to_bits()), p);
        let z = F32Pair { a: 0.0, b: 0.0 };
        assert_eq!(z.to_bits(), 0);
    }

    #[test]
    fn u32_and_f64_round_trip() {
        assert_eq!(u32::from_bits(12345u32.to_bits()), 12345);
        // Not representable in f32: catches any lossy narrowing in to_bits.
        let x = 2.123456789012345f64;
        assert_eq!(f64::from_bits(VertexValue::to_bits(x)), x);
    }

    #[test]
    fn values_init_and_get() {
        let vals = Values::init(&MinProg, 4);
        assert_eq!(vals.get(0), 0);
        assert_eq!(vals.get(3), u32::MAX);
        assert_eq!(vals.len(), 4);
    }

    #[test]
    fn update_applies_min_fold() {
        let vals = Values::init(&MinProg, 2);
        let r = vals.update(1, |cur| MinProg.accumulate(cur, 7));
        assert_eq!(r, Some((u32::MAX, 7)));
        // Worse message declined.
        assert_eq!(vals.update(1, |cur| MinProg.accumulate(cur, 9)), None);
        assert_eq!(vals.get(1), 7);
    }

    #[test]
    fn concurrent_updates_keep_minimum() {
        // Vertex 1 starts at MAX; 8 threads race min-folds whose global
        // minimum is 1.
        let vals = std::sync::Arc::new(Values::init(&MinProg, 2));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let vals = vals.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    let msg = 1 + (i * 7 + t * 13) % 1000;
                    vals.update(1, |cur| MinProg.accumulate(cur, msg));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(vals.get(1), 1);
    }

    #[test]
    fn default_activate_is_identity() {
        let (new, seed) = MinProg.activate(5);
        assert_eq!(new, 5);
        assert_eq!(seed, 5);
        assert!(MinProg.should_activate(5, 3));
        assert_eq!(MinProg.priority_mode(), PriorityMode::Hub);
    }

    #[test]
    fn snapshot_matches_gets() {
        let vals = Values::init(&MinProg, 3);
        vals.set(2, 42);
        assert_eq!(vals.snapshot(), vec![0, u32::MAX, 42]);
    }

    #[test]
    fn reference_program_delegates() {
        // &P is a program too, sharing the underlying hooks.
        let p = &MinProg;
        assert_eq!(p.init(0), 0);
        assert_eq!(p.accumulate(9, 7), Some(7));
        let vals = Values::init(&p, 2);
        assert_eq!(vals.get(1), u32::MAX);
    }

    #[test]
    fn wide_values_store_and_update_per_lane() {
        let vals: Values<Wide4> = Values::init_with(3, |v| Wide4([v as u64; 4]));
        assert_eq!(vals.len(), 3);
        assert_eq!(vals.get(2), Wide4([2, 2, 2, 2]));
        // Element-wise max merge: only the raised lanes change.
        let r = vals.update(1, |cur| wide_max(cur, Wide4([0, 9, 0, 5])));
        assert_eq!(r, Some((Wide4([1, 1, 1, 1]), Wide4([1, 9, 1, 5]))));
        // A dominated merge declines.
        assert_eq!(vals.update(1, |cur| wide_max(cur, Wide4([1, 3, 1, 2]))), None);
        assert_eq!(vals.snapshot()[1], Wide4([1, 9, 1, 5]));
    }

    #[test]
    fn concurrent_wide_updates_converge_to_lane_maxima() {
        // 8 threads race element-wise max merges; the striped-lock RMW
        // must land on the per-lane maxima with no lost updates.
        let vals = std::sync::Arc::new(Values::<Wide4>::init_with(2, |_| Wide4([0; 4])));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let vals = vals.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let m = Wide4([i + t, (i * 3 + t) % 997, t * 100 + i % 50, i]);
                    vals.update(1, |cur| wide_max(cur, m));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let got = vals.get(1);
        assert_eq!(got, Wide4([499 + 7, 996, 749, 499]));
    }

    #[test]
    fn value_layouts_derive_widths() {
        let narrow = ValueLayout::narrow();
        assert_eq!((narrow.lanes, narrow.wire_bytes), (1, 8));
        assert_eq!(narrow.record_bytes(), 12, "EXCHANGE_RECORD_BYTES");
        assert_eq!(narrow.state_bytes(), 24, "VERTEX_STATE_BYTES");
        assert_eq!(narrow.compaction_surplus(), 0);
        // u64/f64/F32Pair are exactly the narrow layout.
        assert_eq!(ValueLayout::of::<u64>(), narrow);
        assert_eq!(ValueLayout::of::<f64>(), narrow);
        assert_eq!(ValueLayout::of::<F32Pair>(), narrow);
        // u32 stores a full lane but wires only 4 bytes.
        let u32l = ValueLayout::of::<u32>();
        assert_eq!((u32l.lanes, u32l.wire_bytes), (1, 4));
        assert_eq!(u32l.record_bytes(), 8);
        assert_eq!(u32l.state_bytes(), 24);
        assert_eq!(u32l.compaction_surplus(), 0, "sub-8-byte values price as narrow");
        // The wide test value: 4 lanes resident, 32 bytes on the wire.
        let w = ValueLayout::of::<Wide4>();
        assert_eq!(w.lane_bytes(), 32);
        assert_eq!(w.record_bytes(), 36);
        assert_eq!(w.state_bytes(), 48);
        assert_eq!(w.compaction_surplus(), 24);
    }

    /// The module-level *snapshot consistency contract*, held under
    /// deliberate cross-thread hammering.
    mod snapshots {
        use super::{Values, Wide4};
        use crate::api::{EdgeCtx, F32Pair, InitialFrontier, VertexProgram};
        use hyt_graph::VertexId;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        /// Call `read` — which checks one snapshot and returns whether it
        /// showed a committed write — at least `min_reads` times *and*
        /// until a write has been seen: on a small host the writers may
        /// not be scheduled before a fixed read count is spent, and the
        /// checks would pass vacuously on the initial state. Yields only
        /// until then — pinned to one core, every yield hands a spinning
        /// writer a whole slice.
        fn read_until_a_write_is_seen(min_reads: u32, mut read: impl FnMut() -> bool) {
            let (mut reads, mut saw_write) = (0u32, false);
            while reads < min_reads || !saw_write {
                saw_write |= read();
                reads += 1;
                if !saw_write {
                    std::thread::yield_now();
                }
            }
        }

        /// Single-lane values are one atom: the two f32 halves of an
        /// [`F32Pair`] can never be observed from different writes.
        #[test]
        fn single_lane_snapshots_are_never_torn() {
            let vals = Arc::new(Values::<F32Pair>::init_with(1, |_| F32Pair { a: 0.0, b: 0.0 }));
            let stop = Arc::new(AtomicBool::new(false));
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let vals = Arc::clone(&vals);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut x = t as f32;
                        while !stop.load(Ordering::Relaxed) {
                            // Invariant of every committed state: b == -a.
                            vals.update(0, |_| Some(F32Pair { a: x, b: -x }));
                            x += 4.0;
                        }
                    })
                })
                .collect();
            read_until_a_write_is_seen(50_000, || {
                let p = vals.snapshot()[0];
                assert_eq!(p.b, -p.a, "torn single-lane read: {p:?}");
                p.a != 0.0
            });
            stop.store(true, Ordering::Relaxed);
            for w in writers {
                w.join().unwrap();
            }
        }

        /// Wide values: every *lane* of a concurrent snapshot comes from
        /// some committed state (per-lane atomicity — no out-of-thin-air
        /// lanes), while *cross-lane* consistency is only promised once
        /// writers quiesce. Writers commit only states of the form
        /// `[k, 2k, 3k, 4k]`, so a lane not divisible by its position+1
        /// would prove a non-atomic lane, and unequal generations across
        /// lanes are exactly a (permitted) torn observation.
        #[test]
        fn concurrent_wide_snapshots_are_lane_atomic_and_exact_once_quiesced() {
            let vals = Arc::new(Values::<Wide4>::init_with(1, |_| Wide4([0; 4])));
            let stop = Arc::new(AtomicBool::new(false));
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let vals = Arc::clone(&vals);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut k = 1 + t as u64;
                        while !stop.load(Ordering::Relaxed) {
                            let gen = Wide4([k, 2 * k, 3 * k, 4 * k]);
                            vals.update(0, |cur| (gen.0[0] > cur.0[0]).then_some(gen));
                            k += 4;
                        }
                    })
                })
                .collect();
            read_until_a_write_is_seen(20_000, || {
                let w = vals.snapshot()[0];
                for (i, &lane) in w.0.iter().enumerate() {
                    assert_eq!(
                        lane % (i as u64 + 1),
                        0,
                        "lane {i} of {w:?} matches no committed state"
                    );
                }
                w.0[0] > 0
            });
            stop.store(true, Ordering::Relaxed);
            for w in writers {
                w.join().unwrap();
            }
            // Quiesced: the snapshot is an exact, untorn point-in-time copy.
            let w = vals.snapshot()[0];
            let k = w.0[0];
            assert!(k > 0, "writers committed nothing");
            assert_eq!(w, Wide4([k, 2 * k, 3 * k, 4 * k]));
            assert_eq!(vals.get(0), w);
        }

        /// The runner half of the contract: `observe_iteration` and the
        /// final result are snapshotted at iteration barriers, so even a
        /// parallel multi-lane run never shows an observer a torn value.
        /// Every state this program commits has all four lanes equal; an
        /// observer seeing anything else caught a torn observation
        /// leaking through the barrier.
        #[test]
        fn runner_observers_only_see_untorn_wide_state() {
            struct EqualLanes;
            impl VertexProgram for EqualLanes {
                type Value = Wide4;
                const OBSERVES_ITERATIONS: bool = true;
                fn init(&self, v: VertexId) -> Wide4 {
                    Wide4([u64::from(v) + 1000; 4])
                }
                fn initial_frontier(&self) -> InitialFrontier {
                    InitialFrontier::All
                }
                fn message(&self, seed: Wide4, _ctx: EdgeCtx) -> Option<Wide4> {
                    Some(seed)
                }
                fn accumulate(&self, s: Wide4, m: Wide4) -> Option<Wide4> {
                    let v = s.0[0].min(m.0[0]);
                    (v < s.0[0]).then_some(Wide4([v; 4]))
                }
                fn observe_iteration(&self, iteration: u32, values: &[Wide4]) {
                    for w in values {
                        assert!(
                            w.0.iter().all(|&l| l == w.0[0]),
                            "iteration {iteration} observed a torn value {w:?}"
                        );
                    }
                }
            }
            let g = hyt_graph::generators::rmat(8, 6.0, 11, false);
            // Default config: parallel host kernels, so lane writes race
            // snapshot-taking unless the barrier quiesces them.
            let mut sys =
                crate::runner::HyTGraphSystem::new(g, crate::config::HyTGraphConfig::default());
            let r = sys.run(EqualLanes);
            assert!(r.iterations >= 1, "the observer must have run at least once");
            assert!(r.values.iter().all(|w| w.0.iter().all(|&l| l == w.0[0])));
        }
    }
}
