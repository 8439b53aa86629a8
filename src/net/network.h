// Flow-level network engine with progressive-filling max-min fair sharing.
//
// This is the fluid TCP model standard in flow-level simulators: each active
// flow receives its max-min fair share of every link on its path, rates are
// recomputed whenever the active set changes, and per-flow completion times
// follow from draining the remaining bytes at the current rate. Relative to
// packet-level ns-3 this abstracts slow-start and loss recovery, which is the
// documented substitution for the paper's replay substrate (DESIGN.md §2).
//
// The fair-share hot path is INCREMENTAL (DESIGN.md §9): the engine keeps
// per-arc active-flow member lists and a dirty-arc frontier, and a reshare
// only re-solves the connected component(s) of the flow/arc sharing graph
// that a dirty arc can reach — flows elsewhere keep their cached rates.
// Because the solver freezes one bottleneck arc at a time with exact share
// comparisons (no tolerance batching), the allocation decomposes exactly
// over components, so the incremental result is bit-identical to a full
// recompute. The full recompute survives as the reference scheduler
// (KEDDAH_REFERENCE_SCHEDULER=1 or NetworkOptions::reference_scheduler):
// it marks every populated arc dirty on every reshare and runs the same
// solver, which is what tests/net_differential_test.cpp runs side-by-side
// with the incremental mode.
//
// Per-flow state is COLUMNAR (DESIGN.md §10): a struct-of-arrays arena of
// parallel flat vectors indexed by slot, with free-list slot reuse. Flow
// paths and the matching member-list back-references live in two shared
// flat pools addressed by (offset, length, capacity) per slot — no
// per-flow heap nodes anywhere on the hot path, and the id->slot lookup is
// an open-addressing flat table rather than std::unordered_map. The public
// API still speaks `Flow`: lookups materialize a view on demand.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <vector>

#include "net/flow.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace keddah::net {

/// Engine configuration.
struct NetworkOptions {
  /// Rate applied to loopback (src == dst) flows. Models local disk/IPC
  /// rather than the NIC; loopback flows bypass fair sharing.
  util::Rate loopback = util::Rate::bps(40.0e9);
  /// If true, a flow waits one path latency before its first byte moves
  /// (connection setup) and delivers its last byte one path latency after
  /// draining.
  bool model_latency = true;
  /// If true, approximate TCP slow-start: before entering fair sharing a
  /// flow spends ceil(log2(1 + bytes/initial_window)) round-trips ramping
  /// up, modelled as extra activation delay (capped at 10 RTTs). Short
  /// flows become latency-bound, as on real networks; long flows are
  /// barely affected. Off by default (pure fluid model).
  bool model_slow_start = false;
  /// Initial congestion window for the slow-start approximation
  /// (10 segments of 1460 B, the Linux default).
  util::Bytes initial_window{14600.0};
  /// Run the reference (full-recompute) scheduler instead of the
  /// incremental one. The KEDDAH_REFERENCE_SCHEDULER environment variable
  /// (any value other than "0") forces this on regardless of the field, so
  /// whole pipelines can be flipped without code changes.
  bool reference_scheduler = false;
  /// Compaction floor for the shared columnar path pool: the pool compacts
  /// (dropping segments abandoned by slot churn) only once it holds at
  /// least this many entries and at least half of them are dead. Lower it
  /// to force frequent compactions (the arena property tests do); raising
  /// it trades memory for fewer O(pool) rebuilds. Compaction is invisible
  /// to scheduling — it moves bytes, never changes any rate or order.
  std::size_t path_pool_compact_min = 4096;
};

/// Per-traffic-class byte ledger kept by the engine. The conservation
/// invariant audited under KEDDAH_CHECK: offered == delivered + aborted
/// once the class has no in-flight flows (and at any instant when in-flight
/// payload is added back in).
struct ClassTotals {
  util::Bytes offered;    ///< payload accepted by start_flow()
  util::Bytes delivered;  ///< payload that reached its destination
  util::Bytes aborted;    ///< payload lost to aborts (requested - delivered)
};

/// Perf counters for the fair-share scheduler (bench/perf_scheduler emits
/// them as BENCH_scheduler.json; the CLI prints them after run-scenario).
struct SchedulerStats {
  std::uint64_t reshares = 0;       ///< reshare() invocations
  std::uint64_t solves = 0;         ///< reshares that ran the water-filling solver
  std::uint64_t empty_reshares = 0; ///< reshares with a clean dirty set (rates reused)
  std::uint64_t links_touched = 0;  ///< arc-share evaluations inside solves
  std::uint64_t flows_visited = 0;  ///< flows pulled into solve subproblems
  std::uint64_t flows_rerated = 0;  ///< rate assignments that changed a flow's rate
  std::uint64_t heap_ops = 0;       ///< completion-heap sift swaps
  /// Per-solve links-touched histogram: bucket i counts solves that touched
  /// [4^i, 4^(i+1)) arc shares (bucket 0 is [0,4)). The reshare cost
  /// distribution the bench reports.
  std::array<std::uint64_t, 8> solve_size_hist{};

  /// Mean arc-share evaluations per reshare (the headline incremental win).
  double links_per_reshare() const {
    return reshares > 0 ? static_cast<double>(links_touched) / static_cast<double>(reshares) : 0.0;
  }
};

/// Occupancy counters for the columnar flow arena (bench/perf_scale emits
/// them; the arena property tests pin compaction behaviour with them).
struct ArenaStats {
  std::size_t slots = 0;          ///< arena height (allocated slot columns)
  std::size_t live = 0;           ///< slots currently holding an active flow
  std::size_t peak_live = 0;      ///< high-water mark of live
  std::size_t path_pool_len = 0;  ///< entries in the shared path pool
  std::uint64_t slot_reuses = 0;  ///< allocations served from the free list
  std::uint64_t path_pool_compactions = 0;
};

/// Open-addressing FlowId -> slot table (linear probing, power-of-two
/// capacity, backward-shift deletion). Two flat vectors, no per-entry heap
/// nodes — the columnar-arena replacement for the old std::unordered_map
/// id lookup. Keys are FlowIds, which are never 0 (kInvalidFlow), so 0 is
/// the empty sentinel.
class FlowSlotIndex {
 public:
  std::size_t size() const { return size_; }

  void insert(FlowId id, std::uint32_t slot) {
    if ((size_ + 1) * 4 >= keys_.size() * 3) grow();
    std::size_t i = probe_start(id);
    while (keys_[i] != kInvalidFlow) i = next(i);
    keys_[i] = id;
    vals_[i] = slot;
    ++size_;
  }

  /// Returns nullptr when absent; the pointer is valid until the next
  /// insert/erase.
  const std::uint32_t* find(FlowId id) const {
    if (keys_.empty()) return nullptr;
    std::size_t i = probe_start(id);
    while (keys_[i] != kInvalidFlow) {
      if (keys_[i] == id) return &vals_[i];
      i = next(i);
    }
    return nullptr;
  }

  bool erase(FlowId id) {
    if (keys_.empty()) return false;
    std::size_t i = probe_start(id);
    while (keys_[i] != id) {
      if (keys_[i] == kInvalidFlow) return false;
      i = next(i);
    }
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones: pull displaced entries back over the hole.
    std::size_t hole = i;
    for (std::size_t j = next(i); keys_[j] != kInvalidFlow; j = next(j)) {
      const std::size_t home = probe_start(keys_[j]);
      const bool movable = hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
      if (movable) {
        keys_[hole] = keys_[j];
        vals_[hole] = vals_[j];
        hole = j;
      }
    }
    keys_[hole] = kInvalidFlow;
    --size_;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  std::size_t probe_start(FlowId id) const { return mix(id) & (keys_.size() - 1); }
  std::size_t next(std::size_t i) const { return (i + 1) & (keys_.size() - 1); }

  void grow() {
    const std::size_t cap = keys_.empty() ? 16 : keys_.size() * 2;
    std::vector<FlowId> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    keys_.assign(cap, kInvalidFlow);
    vals_.assign(cap, 0);
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kInvalidFlow) insert(old_keys[i], old_vals[i]);
    }
  }

  std::vector<FlowId> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t size_ = 0;
};

/// The network simulator facade.
///
/// Ownership: Network borrows the Simulator (must outlive it) and owns the
/// Topology and all flow state.
class Network {
 public:
  using CompletionCallback = std::function<void(const Flow&)>;
  /// Tap invoked on flow lifecycle events (used by capture::FlowCollector).
  using Tap = std::function<void(const Flow&)>;

  Network(sim::Simulator& sim, Topology topology, NetworkOptions options = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topology_; }
  sim::Simulator& simulator() { return sim_; }

  /// Starts a flow of `bytes` payload from src to dst. `on_complete` (may be
  /// null) fires when the last byte is delivered. `rate_cap` bounds the
  /// flow below its fair share (application/disk limited senders); any
  /// non-positive rate means uncapped, same as the infinite default. Throws
  /// std::invalid_argument unless `bytes` is finite and >= 0.
  FlowId start_flow(NodeId src, NodeId dst, util::Bytes bytes, FlowMeta meta,
                    CompletionCallback on_complete = nullptr,
                    util::Rate rate_cap = util::Rate::infinite());

  /// Registers an observer for flow completions (all flows, loopback too).
  void add_completion_tap(Tap tap);

  /// Registers an observer for flow starts.
  void add_start_tap(Tap tap);

  /// Aborts one active flow: progress is advanced, the flow's `bytes` is
  /// rewritten to the payload actually delivered, `aborted` is set, and
  /// completion taps plus the callback fire immediately (a connection reset
  /// has no delivery tail latency). Returns false when the id is not active
  /// (already finished, still in connection setup, or unknown).
  bool abort_flow(FlowId id);

  /// Aborts every active flow whose source or destination is `node`
  /// (endpoint failure). Flows are aborted in id order with a single rate
  /// recomputation. Returns the number of flows aborted.
  std::size_t abort_flows_touching(NodeId node);

  /// Marks a node down/up. While a node is down, flows still in connection
  /// setup that touch it abort with zero payload at activation time, so a
  /// dead host sources no bytes. Aborting already-active flows is the
  /// caller's job (abort_flows_touching); marking up never resurrects flows.
  void set_node_down(NodeId node);
  void set_node_up(NodeId node);

  /// False only while `node` is marked down.
  bool node_up(NodeId node) const;

  /// Rewrites a link's per-direction capacity and recomputes fair shares
  /// (fault injection: link-degradation windows). A rewrite to the current
  /// capacity leaves the dirty set empty: no rate changes.
  void set_link_capacity(LinkId link, util::Rate capacity);

  /// Number of flows currently holding network capacity.
  std::size_t active_flows() const { return slot_index_.size(); }

  /// Flows started since construction.
  std::uint64_t total_flows() const { return next_flow_id_ - 1; }

  /// Total payload delivered so far.
  util::Bytes delivered_bytes() const { return delivered_bytes_; }

  /// Total payload accepted by start_flow() so far.
  util::Bytes offered_bytes() const { return offered_bytes_; }

  /// Number of fair-share recomputations (solver runs; perf counter).
  std::uint64_t recomputations() const { return sched_stats_.solves; }

  /// Scheduler perf counters (reshares, links touched, heap ops, ...).
  const SchedulerStats& scheduler_stats() const { return sched_stats_; }

  /// Columnar-arena occupancy counters (slots, pool size, compactions).
  ArenaStats arena_stats() const;

  /// True when the reference (full-recompute) scheduler is active.
  bool reference_scheduler() const { return reference_mode_; }

  /// Flows terminated early by abort_flow/abort_flows_touching or by
  /// activating against a down endpoint.
  std::uint64_t aborted_flows() const { return aborted_flows_; }

  /// Payload requested but never delivered because of aborts.
  util::Bytes aborted_bytes() const { return aborted_bytes_; }

  /// Per-traffic-class byte ledger (ground-truth FlowMeta::kind).
  const ClassTotals& class_totals(FlowKind kind) const {
    return class_totals_[static_cast<std::size_t>(kind)];
  }

  /// Audits byte conservation: per class and in aggregate,
  ///   offered == delivered + aborted + in-flight payload
  /// where in-flight covers flows in connection setup, active fair sharing,
  /// loopback transit, and the delivery-tail latency window. Throws
  /// util::AuditError naming the violated class on breach. Called
  /// automatically at the completion/abort seams in KEDDAH_CHECK builds;
  /// callable explicitly in any build (the audit test does).
  void audit_conservation() const;

  /// Audits the scheduler's internal structures: per-arc member lists and
  /// back-references consistent, completion heap well-formed, dirty flags in
  /// sync with the frontier, and columnar path pool segments in bounds.
  /// Throws util::AuditError on breach. Cheap enough for tests to call
  /// after every event; KEDDAH_CHECK builds do not call it automatically
  /// (it is O(active flows x path)).
  void audit_scheduler() const;

  /// Looks up an active flow; returns nullptr if finished or unknown. The
  /// returned flow's `remaining` is exact as of its last rate change
  /// (progress is materialized lazily); `rate_bps` is always current. The
  /// pointer refers to a view materialized from the columnar arena and is
  /// valid until the next call into the Network.
  const Flow* find_flow(FlowId id) const;

  /// Visits every active flow in flow-id order (tests and audits; not a hot
  /// path). Progress is as-of the flow's last rate change. The Flow& passed
  /// to `fn` is a per-call view; copy what you need.
  void visit_active_flows(const std::function<void(const Flow&)>& fn) const;

  /// Instantaneous aggregate rate over all active flows, bits/second.
  double aggregate_rate_bps() const;

  /// Bytes that have traversed a directed arc so far.
  double arc_bytes(Arc arc) const;

  /// Bytes over a link, both directions combined.
  double link_bytes(LinkId link) const;

  /// Mean utilization of a directed arc over [0, now] (0..1).
  double arc_utilization(Arc arc) const;

 private:
  /// Sentinel: slot absent from the completion heap.
  static constexpr std::int32_t kNotInHeap = -1;

  /// A slot's segment in the shared path/member-position pools. `cap`
  /// outlives the flow: a freed slot keeps its segment and reuses it in
  /// place when the next occupant's path fits, so steady-state churn
  /// allocates nothing. Segments abandoned by a longer path become dead
  /// bytes reclaimed by compact_path_pool().
  struct PathRef {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  /// Per-directed-arc scheduler state (indexed by Arc::index()).
  struct ArcState {
    /// Cached capacity (avoids the Topology indirection on the hot path).
    double capacity_bps = 0.0;
    /// Active flows crossing the arc as (arena slot, index of this arc in
    /// that flow's path). Unordered: removal is swap-remove, and the solver
    /// freezes all of a bottleneck's members at one share.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> members;
    /// True while the arc sits on the dirty frontier.
    bool dirty = false;
  };

  // --- lazy progress ------------------------------------------------------
  /// Settles `slot`'s transferred bytes over [last_update, now] at its
  /// current rate (remaining payload and per-arc byte counters).
  void materialize(std::uint32_t slot);
  /// Materializes every active flow (utilization queries).
  void sync_progress();

  // --- membership / dirty frontier ---------------------------------------
  void mark_dirty(std::uint32_t arc_index);
  void add_membership(std::uint32_t slot);
  void remove_membership(std::uint32_t slot);
  std::uint32_t allocate_slot();
  /// Copies `path` into the slot's pool segment, reusing it in place when
  /// it fits and appending a fresh segment (after a possible compaction)
  /// otherwise.
  void assign_path(std::uint32_t slot, const std::vector<Arc>& path);
  /// Rebuilds the path/member-position pools with only live segments,
  /// dropping dead bytes abandoned by slot churn.
  void compact_path_pool();
  /// Detaches an active flow from every scheduler structure and frees its
  /// slot; returns the flow (scalar fields only; the columnar path is not
  /// copied out) + callback for the caller to resolve.
  std::pair<Flow, CompletionCallback> detach(std::uint32_t slot);
  /// Materializes a Flow view of `slot` into view_flow_ (path included).
  const Flow& fill_view(std::uint32_t slot) const;

  // --- fair sharing -------------------------------------------------------
  /// Recomputes max-min rates over the component(s) reachable from the
  /// dirty frontier and re-arms the completion event.
  void reshare();
  /// Reference scheduler: marks every populated arc dirty so the solver
  /// recomputes the complete allocation from scratch.
  void compute_max_min_rates_reference();
  /// Water-filling over the dirty component(s): flood-fills the affected
  /// flow/arc set, then freezes one bottleneck per round, found by scanning
  /// the component's live arcs and its sorted rate caps. Clears the dirty
  /// frontier.
  void solve_dirty();
  /// Applies a freshly solved rate; no-op (and no heap churn) when the rate
  /// is unchanged.
  void assign_rate(std::uint32_t slot, double rate_bps);

  // --- completion heap ----------------------------------------------------
  bool finishes_before(std::uint32_t a, std::uint32_t b) const;
  /// Writes `slot` at heap position `pos` and fixes its back-reference.
  void heap_place(std::size_t pos, std::uint32_t slot);
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);
  void heap_insert(std::uint32_t slot);
  void heap_erase(std::uint32_t slot);
  void heap_update(std::uint32_t slot);
  /// (Re)schedules the single completion event at the heap top's projected
  /// finish; cancels it when no flow is active.
  void rearm_completion();

  void on_completion_event();

  /// Delivery tail: fires taps/callback for a fully drained, already
  /// detached flow, `tail_latency` seconds later (immediately when 0).
  void resolve_finished(Flow flow, CompletionCallback cb, double tail_latency);
  /// Terminates an already-detached flow with partial-byte accounting and
  /// fires taps/callback immediately.
  void resolve_aborted(Flow flow, CompletionCallback cb);

  sim::Simulator& sim_;
  Topology topology_;
  NetworkOptions options_;
  bool reference_mode_ = false;

  std::vector<Tap> completion_taps_;
  std::vector<Tap> start_taps_;

  /// Ledger bookkeeping shared by every path that resolves a flow.
  void account_offered(const Flow& flow);
  void account_delivered(const Flow& flow);
  void account_aborted(const Flow& flow, util::Bytes shortfall);
  /// Payload admitted but outside the active set (connection setup,
  /// loopback transit, delivery tail), per class; the audit adds it back in.
  util::Bytes& limbo(const Flow& flow) {
    return limbo_[static_cast<std::size_t>(flow.meta.kind)];
  }
  util::Bytes& limbo_kind(FlowKind kind) { return limbo_[static_cast<std::size_t>(kind)]; }

  // --- columnar flow arena ------------------------------------------------
  // Parallel flat vectors indexed by slot (struct-of-arrays). allocate_slot
  // appends one element to every column; the free list recycles slots.
  std::vector<FlowId> slot_id_;
  std::vector<NodeId> slot_src_;
  std::vector<NodeId> slot_dst_;
  std::vector<util::Bytes> slot_bytes_;
  std::vector<util::Bytes> slot_remaining_;
  std::vector<double> slot_rate_;          ///< current fair rate, bits/s
  std::vector<double> slot_rate_cap_;      ///< cap, +inf when uncapped
  std::vector<double> slot_submit_;
  std::vector<double> slot_start_;
  /// One-way path latency (0 unless modelled), taken from the route at
  /// start_flow and carried to the delivery tail so no flow is re-routed.
  std::vector<double> slot_latency_;
  std::vector<double> slot_last_update_;   ///< progress exact up to here
  std::vector<double> slot_finish_;        ///< projected finish (heap key)
  std::vector<FlowMeta> slot_meta_;
  std::vector<std::int32_t> slot_heap_pos_;
  std::vector<std::uint8_t> slot_in_use_;
  std::vector<PathRef> slot_path_;
  std::vector<CompletionCallback> slot_callback_;
  /// Shared pools addressed by slot_path_: the flow's arcs and, parallel to
  /// them, the flow's position in each arc's member list (maintained
  /// through swap-removes).
  std::vector<Arc> path_pool_;
  std::vector<std::uint32_t> member_pos_pool_;
  /// Dead pool entries: segments abandoned when a reused slot needed a
  /// longer one, plus segments parked on the free list at last compaction.
  std::size_t path_pool_dead_ = 0;
  /// Pool entries parked with free-list slots (reusable, not yet dead).
  std::size_t path_pool_parked_ = 0;
  std::size_t live_slots_ = 0;
  std::size_t peak_live_slots_ = 0;
  std::uint64_t slot_reuses_ = 0;
  std::uint64_t pool_compactions_ = 0;

  std::vector<std::uint32_t> free_slots_;
  FlowSlotIndex slot_index_;
  std::vector<ArcState> arcs_;
  std::vector<std::uint32_t> dirty_arcs_;
  std::vector<std::uint32_t> finish_heap_;
  /// Flow view materialized on demand by find_flow/visit_active_flows.
  mutable Flow view_flow_;

  // --- solver scratch (reused across solves; epoch-stamped visit marks) ---
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> arc_visit_;
  std::vector<std::uint64_t> slot_visit_;
  std::vector<std::uint32_t> scratch_arc_stack_;
  /// solve_dirty() working set, hoisted out of the solve so repeat solves
  /// are allocation-free: the component's arcs (global index) with their
  /// residual capacities and unfrozen member counts, position p of each
  /// describing one arc (arc_local_idx_ maps a global index to p), and the
  /// component's rate caps.
  std::vector<std::uint32_t> scratch_local_arcs_;
  std::vector<double> scratch_residual_;
  std::vector<std::uint32_t> scratch_unfrozen_;
  std::vector<std::uint32_t> arc_local_idx_;
  struct CapEntry {
    double cap;
    std::uint32_t slot;
  };
  std::vector<CapEntry> scratch_caps_;
  /// on_completion_event() drained batch, reused across completion events.
  struct Drained {
    Flow flow;
    CompletionCallback cb;
    double tail_latency;
  };
  std::vector<Drained> scratch_drained_;

  FlowId next_flow_id_ = 1;
  sim::EventId completion_event_ = sim::kInvalidEvent;
  /// Absolute time completion_event_ is armed for (infinity when unarmed).
  double armed_time_ = std::numeric_limits<double>::infinity();
  util::Bytes delivered_bytes_;
  util::Bytes offered_bytes_;
  SchedulerStats sched_stats_;
  std::uint64_t aborted_flows_ = 0;
  util::Bytes aborted_bytes_;
  std::array<ClassTotals, kNumFlowKinds> class_totals_{};
  std::array<util::Bytes, kNumFlowKinds> limbo_{};
  /// Per-arc transferred bits (indexed by Arc::index()).
  std::vector<double> arc_bits_;
  /// node_down_[n] is true while node n is marked down.
  std::vector<bool> node_down_;
};

}  // namespace keddah::net
