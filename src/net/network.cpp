#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "util/check.h"
#include "util/log.h"

namespace keddah::net {

namespace {
/// Residual payload below this many bits counts as drained. A popped flow's
/// post-materialization residue is floating-point noise (a few ulps of the
/// payload), never real payload — on_completion_event audits that.
constexpr double kDrainEpsilonBits = 1e-2;

constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* flow_kind_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::kHdfsRead:
      return "hdfs_read";
    case FlowKind::kShuffle:
      return "shuffle";
    case FlowKind::kHdfsWrite:
      return "hdfs_write";
    case FlowKind::kControl:
      return "control";
    case FlowKind::kOther:
      return "other";
  }
  return "unknown";
}

std::optional<FlowKind> flow_kind_from_name(std::string_view name) {
  for (std::size_t k = 0; k < kNumFlowKinds; ++k) {
    const auto kind = static_cast<FlowKind>(k);
    if (name == flow_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

Network::Network(sim::Simulator& sim, Topology topology, NetworkOptions options)
    : sim_(sim), topology_(std::move(topology)), options_(options) {
  const std::size_t n_arcs = topology_.num_arcs();
  arcs_.resize(n_arcs);
  for (LinkId l = 0; l < topology_.num_links(); ++l) {
    const double cap = topology_.link(l).capacity.bps();
    arcs_[Arc{l, 0}.index()].capacity_bps = cap;
    arcs_[Arc{l, 1}.index()].capacity_bps = cap;
  }
  arc_visit_.assign(n_arcs, 0);
  arc_local_idx_.assign(n_arcs, 0);
  arc_bits_.assign(n_arcs, 0.0);
  // Arc-bounded solver scratch is pre-sized once here; the flow-bounded cap
  // list grows with the arena (allocate_slot), so a solve allocates nothing.
  scratch_arc_stack_.reserve(n_arcs);
  scratch_local_arcs_.reserve(n_arcs);
  scratch_residual_.reserve(n_arcs);
  scratch_unfrozen_.reserve(n_arcs);
  node_down_.assign(topology_.num_nodes(), false);
  reference_mode_ = options_.reference_scheduler;
  const char* env = std::getenv("KEDDAH_REFERENCE_SCHEDULER");
  if (env != nullptr && *env != '\0' && std::string_view(env) != "0") reference_mode_ = true;
}

void Network::set_node_down(NodeId node) {
  if (node >= node_down_.size()) throw std::out_of_range("network: bad node id");
  node_down_[node] = true;
}

void Network::set_node_up(NodeId node) {
  if (node >= node_down_.size()) throw std::out_of_range("network: bad node id");
  node_down_[node] = false;
}

bool Network::node_up(NodeId node) const {
  return node < node_down_.size() ? !node_down_[node] : true;
}

void Network::set_link_capacity(LinkId link, util::Rate capacity) {
  if (topology_.set_link_capacity(link, capacity)) {
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      const std::uint32_t ai = Arc{link, dir}.index();
      arcs_[ai].capacity_bps = capacity.bps();
      mark_dirty(ai);
    }
  }
  // A no-op rewrite leaves the dirty set empty: reshare() re-arms and
  // changes no rate (the property tests pin this down).
  reshare();
}

void Network::account_offered(const Flow& flow) {
  offered_bytes_ += flow.bytes;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].offered += flow.bytes;
  limbo(flow) += flow.bytes;  // in setup/loopback transit until activation
}

void Network::account_delivered(const Flow& flow) {
  delivered_bytes_ += flow.bytes;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].delivered += flow.bytes;
}

void Network::account_aborted(const Flow& flow, util::Bytes shortfall) {
  ++aborted_flows_;
  aborted_bytes_ += shortfall;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].aborted += shortfall;
}

void Network::audit_conservation() const {
  // In-flight payload of flows currently holding capacity, per class.
  std::array<double, kNumFlowKinds> active_bytes{};
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (!slot_in_use_[slot]) continue;
    active_bytes[static_cast<std::size_t>(slot_meta_[slot].kind)] += slot_bytes_[slot].value();
  }
  double offered = 0.0, resolved = 0.0;
  for (std::size_t k = 0; k < kNumFlowKinds; ++k) {
    const ClassTotals& t = class_totals_[k];
    const double lhs = t.offered.value();
    const double rhs =
        t.delivered.value() + t.aborted.value() + limbo_[k].value() + active_bytes[k];
    const double tol = 1e-6 * std::max(1.0, lhs) + 1e-3;
    if (std::fabs(lhs - rhs) > tol) {
      throw util::AuditError(std::string("network conservation breach in class ") +
                             flow_kind_name(static_cast<FlowKind>(k)) + ": offered " +
                             std::to_string(lhs) + " B != delivered+aborted+in-flight " +
                             std::to_string(rhs) + " B");
    }
    offered += lhs;
    resolved += rhs;
  }
  const double tol = 1e-6 * std::max(1.0, offered) + 1e-3;
  if (std::fabs(offered - resolved) > tol) {
    throw util::AuditError("network conservation breach in aggregate ledger");
  }
  KEDDAH_AUDIT(std::fabs(offered_bytes_.value() - offered) <= tol,
               "aggregate offered counter out of sync with per-class ledger");
}

void Network::audit_scheduler() const {
  const auto fail = [](const std::string& what) {
    throw util::AuditError("network scheduler: " + what);
  };

  std::size_t in_use = 0;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (!slot_in_use_[slot]) continue;
    ++in_use;
    const std::uint32_t* found = slot_index_.find(slot_id_[slot]);
    if (found == nullptr || *found != slot) fail("slot index missing an active flow");
    const PathRef& pr = slot_path_[slot];
    if (pr.len > pr.cap) fail("path segment length exceeds its capacity");
    if (static_cast<std::size_t>(pr.off) + pr.cap > path_pool_.size()) {
      fail("path segment out of pool bounds");
    }
    for (std::uint32_t i = 0; i < pr.len; ++i) {
      const ArcState& s = arcs_[path_pool_[pr.off + i].index()];
      const std::uint32_t pos = member_pos_pool_[pr.off + i];
      if (pos >= s.members.size() || s.members[pos] != std::make_pair(slot, i)) {
        fail("member back-reference out of sync");
      }
    }
    if (slot_heap_pos_[slot] == kNotInHeap ||
        static_cast<std::size_t>(slot_heap_pos_[slot]) >= finish_heap_.size() ||
        finish_heap_[slot_heap_pos_[slot]] != slot) {
      fail("heap_pos out of sync");
    }
  }
  if (in_use != slot_index_.size()) fail("slot index size != live arena slots");
  if (in_use != live_slots_) fail("live-slot counter != live arena slots");
  if (finish_heap_.size() != in_use) fail("completion heap size != live arena slots");
  for (std::size_t pos = 1; pos < finish_heap_.size(); ++pos) {
    if (finishes_before(finish_heap_[pos], finish_heap_[(pos - 1) / 2])) {
      fail("completion heap order violated");
    }
  }
  if (member_pos_pool_.size() != path_pool_.size()) {
    fail("member-position pool size != path pool size");
  }
  std::size_t dirty_flags = 0;
  for (std::uint32_t ai = 0; ai < arcs_.size(); ++ai) {
    if (arcs_[ai].dirty) ++dirty_flags;
    for (std::uint32_t pos = 0; pos < arcs_[ai].members.size(); ++pos) {
      const auto [slot, pi] = arcs_[ai].members[pos];
      if (slot >= slot_id_.size() || !slot_in_use_[slot]) fail("member refers to a dead slot");
      const PathRef& pr = slot_path_[slot];
      if (pi >= pr.len || path_pool_[pr.off + pi].index() != ai ||
          member_pos_pool_[pr.off + pi] != pos) {
        fail("member list entry inconsistent with flow path");
      }
    }
  }
  std::size_t frontier = 0;
  for (const std::uint32_t ai : dirty_arcs_) {
    if (!arcs_[ai].dirty) fail("dirty frontier holds a clean arc");
    ++frontier;
  }
  if (frontier != dirty_flags) fail("dirty flags out of sync with frontier");

}

ArenaStats Network::arena_stats() const {
  ArenaStats s;
  s.slots = slot_id_.size();
  s.live = live_slots_;
  s.peak_live = peak_live_slots_;
  s.path_pool_len = path_pool_.size();
  s.slot_reuses = slot_reuses_;
  s.path_pool_compactions = pool_compactions_;
  return s;
}

double Network::arc_bytes(Arc arc) const {
  // Materialize lazy progress so the counter reflects now(), not each
  // flow's last rate-change time.
  const_cast<Network*>(this)->sync_progress();
  return arc_bits_.at(arc.index()) / 8.0;
}

double Network::link_bytes(LinkId link) const {
  return arc_bytes(Arc{link, 0}) + arc_bytes(Arc{link, 1});
}

double Network::arc_utilization(Arc arc) const {
  const double elapsed = sim_.now();
  if (elapsed <= 0.0) return 0.0;
  const_cast<Network*>(this)->sync_progress();
  return arc_bits_.at(arc.index()) / (topology_.link(arc.link).capacity.bps() * elapsed);
}

void Network::add_completion_tap(Tap tap) { completion_taps_.push_back(std::move(tap)); }

void Network::add_start_tap(Tap tap) { start_taps_.push_back(std::move(tap)); }

const Flow& Network::fill_view(std::uint32_t slot) const {
  view_flow_.id = slot_id_[slot];
  view_flow_.src = slot_src_[slot];
  view_flow_.dst = slot_dst_[slot];
  view_flow_.bytes = slot_bytes_[slot];
  view_flow_.meta = slot_meta_[slot];
  view_flow_.submit_time = slot_submit_[slot];
  view_flow_.start_time = slot_start_[slot];
  view_flow_.end_time = 0.0;
  view_flow_.rate_bps = slot_rate_[slot];
  view_flow_.rate_cap_bps = slot_rate_cap_[slot];
  view_flow_.remaining = slot_remaining_[slot];
  const PathRef& pr = slot_path_[slot];
  view_flow_.path.assign(path_pool_.begin() + pr.off, path_pool_.begin() + pr.off + pr.len);
  view_flow_.done = false;
  view_flow_.aborted = false;
  return view_flow_;
}

const Flow* Network::find_flow(FlowId id) const {
  const std::uint32_t* slot = slot_index_.find(id);
  return slot == nullptr ? nullptr : &fill_view(*slot);
}

void Network::visit_active_flows(const std::function<void(const Flow&)>& fn) const {
  std::vector<std::uint32_t> slots;
  slots.reserve(slot_index_.size());
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slot_id_[a] < slot_id_[b];
  });
  for (const std::uint32_t slot : slots) fn(fill_view(slot));
}

double Network::aggregate_rate_bps() const {
  double total = 0.0;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) total += slot_rate_[slot];
  }
  return total;
}

// keddah:hot(start-flow)
FlowId Network::start_flow(NodeId src, NodeId dst, util::Bytes bytes, FlowMeta meta,
                           CompletionCallback on_complete, util::Rate rate_cap) {
  if (!std::isfinite(bytes.value()) || bytes.value() < 0.0) {
    throw std::invalid_argument("network: flow size must be finite and >= 0");
  }
  const FlowId id = next_flow_id_++;

  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.bytes = bytes;
  flow.meta = meta;
  flow.submit_time = sim_.now();
  flow.remaining = bytes;
  // A non-positive cap means "uncapped": callers that compute a cap of 0.0
  // (e.g. a disabled throttle) must not end up with a 1 bps near-deadlock.
  flow.rate_cap_bps =
      rate_cap.bps() > 0.0 ? rate_cap.bps() : std::numeric_limits<double>::infinity();
  account_offered(flow);

  if (flow.loopback()) {
    // Local transfer: never touches the fabric; drain at the loopback rate.
    flow.start_time = sim_.now();
    const double duration = flow.remaining.bits() / options_.loopback.bps();
    flow.rate_bps = options_.loopback.bps();
    for (const auto& tap : start_taps_) tap(flow);
    sim_.schedule_in(duration, [this, flow, cb = std::move(on_complete)]() mutable {
      flow.end_time = sim_.now();
      flow.remaining = util::Bytes(0.0);
      flow.done = true;
      limbo(flow) -= flow.bytes;
      account_delivered(flow);
      for (const auto& tap : completion_taps_) tap(flow);
      if (cb) cb(flow);
      if constexpr (util::kAuditEnabled) audit_conservation();
    });
    return id;
  }

  flow.path = topology_.route(src, dst, id);
  const double latency =
      options_.model_latency ? topology_.path_latency(flow.path).value() : 0.0;
  double ramp = 0.0;
  if (options_.model_slow_start && latency > 0.0) {
    // Slow-start approximation: the window doubles each RTT until the
    // payload is covered. The ramp rounds are modelled as transfer time at
    // ~zero rate before the flow enters fair sharing, so they appear in the
    // flow's duration (first byte leaves on time, last byte is late).
    const double rounds = std::ceil(
        std::log2(1.0 + bytes.value() / std::max(options_.initial_window.value(), 1.0)));
    ramp = 2.0 * latency * std::min(rounds, 10.0);
  }

  // Connection establishment: first byte moves one path latency after submit.
  sim_.schedule_in(latency + ramp,
                   [this, flow = std::move(flow), latency, ramp,
                    cb = std::move(on_complete)]() mutable {
                     flow.start_time = sim_.now() - ramp;
                     if (!node_up(flow.src) || !node_up(flow.dst)) {
                       // Endpoint died during connection setup: the connect
                       // fails and no payload ever moves.
                       limbo(flow) -= flow.bytes;
                       account_aborted(flow, flow.bytes);
                       flow.bytes = util::Bytes(0.0);
                       flow.remaining = util::Bytes(0.0);
                       flow.done = true;
                       flow.aborted = true;
                       flow.end_time = sim_.now();
                       for (const auto& tap : completion_taps_) tap(flow);
                       if (cb) cb(flow);
                       if constexpr (util::kAuditEnabled) audit_conservation();
                       return;
                     }
                     for (const auto& tap : start_taps_) tap(flow);
                     limbo(flow) -= flow.bytes;  // now held in the active set
                     const std::uint32_t slot = allocate_slot();
                     slot_id_[slot] = flow.id;
                     slot_src_[slot] = flow.src;
                     slot_dst_[slot] = flow.dst;
                     slot_bytes_[slot] = flow.bytes;
                     slot_remaining_[slot] = flow.remaining;
                     // Rate sentinel: solved rates are never negative, so the
                     // first assign_rate after insertion always fires (even a
                     // solved rate of 0.0 must install a projected finish).
                     slot_rate_[slot] = -1.0;
                     slot_rate_cap_[slot] = flow.rate_cap_bps;
                     slot_submit_[slot] = flow.submit_time;
                     slot_start_[slot] = flow.start_time;
                     slot_latency_[slot] = latency;
                     slot_last_update_[slot] = sim_.now();
                     slot_finish_[slot] = kInf;
                     slot_meta_[slot] = flow.meta;
                     slot_heap_pos_[slot] = kNotInHeap;
                     slot_callback_[slot] = std::move(cb);
                     assign_path(slot, flow.path);
                     slot_in_use_[slot] = 1;
                     ++live_slots_;
                     peak_live_slots_ = std::max(peak_live_slots_, live_slots_);
                     slot_index_.insert(flow.id, slot);
                     add_membership(slot);
                     heap_insert(slot);
                     reshare();
                   });
  return id;
}

// --- lazy progress ---------------------------------------------------------

// keddah:hot(materialize)
void Network::materialize(std::uint32_t slot) {
  const sim::Time now = sim_.now();
  const double dt = now - slot_last_update_[slot];
  if (dt > 0.0 && slot_rate_[slot] > 0.0) {
    const util::Bytes moved = std::min(
        slot_remaining_[slot], util::Rate::bps(slot_rate_[slot]) * util::Seconds(dt));
    slot_remaining_[slot] -= moved;  // audited against NaN/negative under KEDDAH_CHECK
    const PathRef& pr = slot_path_[slot];
    for (std::uint32_t i = 0; i < pr.len; ++i) {
      arc_bits_[path_pool_[pr.off + i].index()] += moved.bits();
    }
  }
  slot_last_update_[slot] = now;
}

void Network::sync_progress() {
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) materialize(slot);
  }
}

// --- membership / dirty frontier -------------------------------------------

void Network::mark_dirty(std::uint32_t arc_index) {
  if (!arcs_[arc_index].dirty) {
    arcs_[arc_index].dirty = true;
    dirty_arcs_.push_back(arc_index);
  }
}

std::uint32_t Network::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++slot_reuses_;
    // The slot's parked pool segment becomes the new occupant's to reuse
    // (or abandon) in assign_path.
    path_pool_parked_ -= slot_path_[slot].cap;
    return slot;
  }
  // Grow every column in lockstep; the arena height only ever increases.
  const std::uint32_t slot = static_cast<std::uint32_t>(slot_id_.size());
  slot_id_.push_back(kInvalidFlow);
  slot_src_.push_back(NodeId{0});
  slot_dst_.push_back(NodeId{0});
  slot_bytes_.emplace_back();
  slot_remaining_.emplace_back();
  slot_rate_.push_back(0.0);
  slot_rate_cap_.push_back(kInf);
  slot_submit_.push_back(0.0);
  slot_start_.push_back(0.0);
  slot_latency_.push_back(0.0);
  slot_last_update_.push_back(0.0);
  slot_finish_.push_back(kInf);
  slot_meta_.emplace_back();
  slot_heap_pos_.push_back(kNotInHeap);
  slot_in_use_.push_back(0);
  slot_path_.emplace_back();
  slot_callback_.emplace_back();
  slot_visit_.push_back(0);
  // A solve's cap list holds at most one entry per live flow, so growing its
  // capacity with the arena keeps the solve allocation-free.
  if (scratch_caps_.capacity() < slot_id_.size()) scratch_caps_.reserve(2 * slot_id_.size());
  return slot;
}

void Network::assign_path(std::uint32_t slot, const std::vector<Arc>& path) {
  PathRef& pr = slot_path_[slot];
  const std::uint32_t len = static_cast<std::uint32_t>(path.size());
  if (len <= pr.cap) {
    // Reuse in place: steady-state churn through same-shaped flows never
    // grows the pool.
    pr.len = len;
    std::copy(path.begin(), path.end(), path_pool_.begin() + pr.off);
    return;
  }
  // Abandon the too-small segment (dead until the next compaction) and
  // append a fresh one at the tail.
  path_pool_dead_ += pr.cap;
  pr = PathRef{};
  if (path_pool_.size() >= options_.path_pool_compact_min &&
      2 * (path_pool_dead_ + path_pool_parked_) >= path_pool_.size()) {
    compact_path_pool();
  }
  pr.off = static_cast<std::uint32_t>(path_pool_.size());
  pr.len = len;
  pr.cap = len;
  path_pool_.insert(path_pool_.end(), path.begin(), path.end());
  member_pos_pool_.resize(path_pool_.size(), 0);
}

void Network::compact_path_pool() {
  // Safe point: only ever called from assign_path, before the slot being
  // assigned holds a segment and never during a solve. Members reference
  // (slot, path index), not pool offsets, so moving segments is invisible
  // to the scheduler.
  std::vector<Arc> new_path;
  std::vector<std::uint32_t> new_member_pos;
  std::size_t live = 0;
  for (std::uint32_t slot = 0; slot < slot_path_.size(); ++slot) {
    if (slot_in_use_[slot]) live += slot_path_[slot].len;
  }
  new_path.reserve(live);
  new_member_pos.reserve(live);
  for (std::uint32_t slot = 0; slot < slot_path_.size(); ++slot) {
    PathRef& pr = slot_path_[slot];
    if (!slot_in_use_[slot]) {
      pr = PathRef{};
      continue;
    }
    const std::uint32_t off = static_cast<std::uint32_t>(new_path.size());
    new_path.insert(new_path.end(), path_pool_.begin() + pr.off,
                    path_pool_.begin() + pr.off + pr.len);
    new_member_pos.insert(new_member_pos.end(), member_pos_pool_.begin() + pr.off,
                          member_pos_pool_.begin() + pr.off + pr.len);
    pr.off = off;
    pr.cap = pr.len;
  }
  path_pool_ = std::move(new_path);
  member_pos_pool_ = std::move(new_member_pos);
  path_pool_dead_ = 0;
  path_pool_parked_ = 0;
  ++pool_compactions_;
}

void Network::add_membership(std::uint32_t slot) {
  const PathRef& pr = slot_path_[slot];
  for (std::uint32_t i = 0; i < pr.len; ++i) {
    const std::uint32_t ai = path_pool_[pr.off + i].index();
    ArcState& s = arcs_[ai];
    member_pos_pool_[pr.off + i] = static_cast<std::uint32_t>(s.members.size());
    s.members.emplace_back(slot, i);
    mark_dirty(ai);
  }
}

void Network::remove_membership(std::uint32_t slot) {
  const PathRef& pr = slot_path_[slot];
  for (std::uint32_t i = 0; i < pr.len; ++i) {
    const std::uint32_t ai = path_pool_[pr.off + i].index();
    ArcState& s = arcs_[ai];
    const std::uint32_t pos = member_pos_pool_[pr.off + i];
    const auto moved = s.members.back();
    s.members[pos] = moved;
    s.members.pop_back();
    if (moved.first != slot) {
      const PathRef& mp = slot_path_[moved.first];
      member_pos_pool_[mp.off + moved.second] = pos;
    }
    mark_dirty(ai);
  }
}

std::pair<Flow, Network::CompletionCallback> Network::detach(std::uint32_t slot) {
  remove_membership(slot);
  heap_erase(slot);
  slot_index_.erase(slot_id_[slot]);
  slot_in_use_[slot] = 0;
  --live_slots_;
  // The slot keeps its pool segment parked for its next occupant; only the
  // length is cleared so audits and compaction see it as empty.
  path_pool_parked_ += slot_path_[slot].cap;
  slot_path_[slot].len = 0;
  Flow flow;
  flow.id = slot_id_[slot];
  flow.src = slot_src_[slot];
  flow.dst = slot_dst_[slot];
  flow.bytes = slot_bytes_[slot];
  flow.meta = slot_meta_[slot];
  flow.submit_time = slot_submit_[slot];
  flow.start_time = slot_start_[slot];
  flow.rate_bps = slot_rate_[slot];
  flow.rate_cap_bps = slot_rate_cap_[slot];
  flow.remaining = slot_remaining_[slot];
  // flow.path stays empty: nothing downstream of detach reads it, and
  // copying it out of the pool would be the hot path's only allocation.
  CompletionCallback cb = std::move(slot_callback_[slot]);
  slot_callback_[slot] = nullptr;
  free_slots_.push_back(slot);
  return {std::move(flow), std::move(cb)};
}

// --- fair sharing ----------------------------------------------------------

// keddah:hot(reshare)
void Network::reshare() {
  ++sched_stats_.reshares;
  if (reference_mode_) compute_max_min_rates_reference();
  if (dirty_arcs_.empty()) {
    ++sched_stats_.empty_reshares;
  } else {
    solve_dirty();
  }
  rearm_completion();
}

void Network::compute_max_min_rates_reference() {
  for (std::uint32_t ai = 0; ai < arcs_.size(); ++ai) {
    if (!arcs_[ai].members.empty()) mark_dirty(ai);
  }
}

void Network::assign_rate(std::uint32_t slot, double rate_bps) {
  // Bit-identical rate: nothing moved, the projected finish is still exact.
  // This skip is what keeps the reference scheduler's full sweeps from
  // perturbing flows whose allocation did not change.
  if (slot_rate_[slot] == rate_bps) return;
  materialize(slot);
  slot_rate_[slot] = rate_bps;
  slot_finish_[slot] = sim_.now() + slot_remaining_[slot].bits() / std::max(rate_bps, 1e-9);
  heap_update(slot);
  ++sched_stats_.flows_rerated;
}

// keddah:hot(solve)
void Network::solve_dirty() {
  ++sched_stats_.solves;
  // Two stamps per solve: `epoch` marks the component's arcs and flows,
  // `frozen` marks a component flow whose rate is fixed. Stamps only grow,
  // so neither needs clearing.
  visit_epoch_ += 2;
  const std::uint64_t epoch = visit_epoch_;
  const std::uint64_t frozen = epoch + 1;

  // Per-arc solve state is component-sized: position p of the local arcs,
  // residuals and unfrozen counts describes one arc, and arc_local_idx_
  // maps the arc's global index to p.
  scratch_local_arcs_.clear();
  scratch_residual_.clear();
  scratch_unfrozen_.clear();
  scratch_caps_.clear();
  scratch_arc_stack_.clear();

  // Seed the flood fill with the populated dirty arcs; arcs whose last
  // member departed (or that were never populated) just get their flag
  // cleared — no flow's rate can depend on them.
  for (const std::uint32_t ai : dirty_arcs_) {
    arcs_[ai].dirty = false;
    if (!arcs_[ai].members.empty() && arc_visit_[ai] != epoch) {
      arc_visit_[ai] = epoch;
      scratch_arc_stack_.push_back(ai);
    }
  }
  dirty_arcs_.clear();

  // Flood fill the connected component(s) of the flow/arc sharing graph
  // that contain a dirty arc. Rates of flows outside these components are
  // unaffected by whatever changed (max-min decomposes exactly over
  // components), so their cached values stand. The component is closed
  // under membership, so an arc's member count is its exact unfrozen count.
  std::size_t nf = 0;
  while (!scratch_arc_stack_.empty()) {
    const std::uint32_t ai = scratch_arc_stack_.back();
    scratch_arc_stack_.pop_back();
    const ArcState& arc = arcs_[ai];
    arc_local_idx_[ai] = static_cast<std::uint32_t>(scratch_local_arcs_.size());
    scratch_local_arcs_.push_back(ai);
    scratch_residual_.push_back(arc.capacity_bps);
    scratch_unfrozen_.push_back(static_cast<std::uint32_t>(arc.members.size()));
    for (const auto& [slot, pi] : arc.members) {
      (void)pi;
      if (slot_visit_[slot] == epoch) continue;
      slot_visit_[slot] = epoch;
      ++nf;
      if (std::isfinite(slot_rate_cap_[slot])) {
        scratch_caps_.push_back({slot_rate_cap_[slot], slot});
      }
      const PathRef& pr = slot_path_[slot];
      for (std::uint32_t i = 0; i < pr.len; ++i) {
        const std::uint32_t aj = path_pool_[pr.off + i].index();
        if (arc_visit_[aj] != epoch) {
          arc_visit_[aj] = epoch;
          scratch_arc_stack_.push_back(aj);
        }
      }
    }
  }

  auto& local_arcs = scratch_local_arcs_;
  auto& residual = scratch_residual_;
  auto& unfrozen = scratch_unfrozen_;
  auto& caps = scratch_caps_;
  sched_stats_.links_touched += local_arcs.size();
  {
    // Histogram bucket i holds solves that touched [4^i, 4^(i+1)) arcs.
    std::size_t n = local_arcs.size();
    std::size_t bucket = 0;
    while (n >= 4 && bucket + 1 < sched_stats_.solve_size_hist.size()) {
      n >>= 2;
      ++bucket;
    }
    ++sched_stats_.solve_size_hist[bucket];
  }
  if (nf == 0) return;
  sched_stats_.flows_visited += nf;

  // Rate caps in the order their rounds would come: (cap, flow id).
  std::sort(caps.begin(), caps.end(), [this](const CapEntry& a, const CapEntry& b) {
    return a.cap != b.cap ? a.cap < b.cap : slot_id_[a.slot] < slot_id_[b.slot];
  });

  // A frozen flow takes `share` off the residual of every arc on its path.
  const auto freeze = [&](std::uint32_t slot, double share) {
    slot_visit_[slot] = frozen;
    --nf;
    assign_rate(slot, share);
    const PathRef& pr = slot_path_[slot];
    for (std::uint32_t i = 0; i < pr.len; ++i) {
      const std::uint32_t p = arc_local_idx_[path_pool_[pr.off + i].index()];
      residual[p] -= share;
      --unfrozen[p];
    }
  };

  // Progressive filling, one bottleneck per round. Exact comparisons
  // throughout (DESIGN.md §9): the bottleneck is the least (share, global
  // arc index) over the arcs that still have unfrozen members, and a cap
  // round is taken only when the least unfrozen cap is strictly below it.
  std::size_t live = local_arcs.size();
  std::size_t next_cap = 0;
  while (nf > 0) {
    double share = kInf;
    std::uint32_t bottleneck = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t p = 0; p < live;) {
      if (unfrozen[p] == 0) {
        // A fully frozen arc leaves the scan: the last live arc takes its
        // place, and no later freeze can reach it.
        --live;
        local_arcs[p] = local_arcs[live];
        residual[p] = residual[live];
        unfrozen[p] = unfrozen[live];
        arc_local_idx_[local_arcs[p]] = static_cast<std::uint32_t>(p);
        continue;
      }
      const double s = std::max(0.0, residual[p]) / static_cast<double>(unfrozen[p]);
      if (s < share || (s == share && local_arcs[p] < bottleneck)) {
        share = s;
        bottleneck = local_arcs[p];
      }
      ++p;
    }
    while (next_cap < caps.size() && slot_visit_[caps[next_cap].slot] == frozen) ++next_cap;
    if (next_cap < caps.size() && caps[next_cap].cap < share) {
      freeze(caps[next_cap].slot, caps[next_cap].cap);
      continue;
    }
    assert(live > 0);
    // All unfrozen members freeze at the same share, so the member list's
    // (swap-remove) order cannot change any floating-point result.
    for (const auto& [slot, pi] : arcs_[bottleneck].members) {
      (void)pi;
      if (slot_visit_[slot] != frozen) freeze(slot, share);
    }
  }
}

// --- completion heap -------------------------------------------------------

bool Network::finishes_before(std::uint32_t a, std::uint32_t b) const {
  if (slot_finish_[a] != slot_finish_[b]) return slot_finish_[a] < slot_finish_[b];
  return slot_id_[a] < slot_id_[b];
}

void Network::heap_place(std::size_t pos, std::uint32_t slot) {
  finish_heap_[pos] = slot;
  slot_heap_pos_[slot] = static_cast<std::int32_t>(pos);
}

void Network::heap_sift_up(std::size_t pos) {
  const std::uint32_t slot = finish_heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!finishes_before(slot, finish_heap_[parent])) break;
    heap_place(pos, finish_heap_[parent]);
    ++sched_stats_.heap_ops;
    pos = parent;
  }
  heap_place(pos, slot);
}

void Network::heap_sift_down(std::size_t pos) {
  const std::uint32_t slot = finish_heap_[pos];
  const std::size_t n = finish_heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && finishes_before(finish_heap_[child + 1], finish_heap_[child])) ++child;
    if (!finishes_before(finish_heap_[child], slot)) break;
    heap_place(pos, finish_heap_[child]);
    ++sched_stats_.heap_ops;
    pos = child;
  }
  heap_place(pos, slot);
}

void Network::heap_insert(std::uint32_t slot) {
  finish_heap_.push_back(slot);
  slot_heap_pos_[slot] = static_cast<std::int32_t>(finish_heap_.size() - 1);
  heap_sift_up(finish_heap_.size() - 1);
}

void Network::heap_erase(std::uint32_t slot) {
  const std::int32_t pos = slot_heap_pos_[slot];
  if (pos == kNotInHeap) return;
  slot_heap_pos_[slot] = kNotInHeap;
  const std::size_t last = finish_heap_.size() - 1;
  if (static_cast<std::size_t>(pos) != last) {
    const std::uint32_t moved = finish_heap_[last];
    finish_heap_.pop_back();
    heap_place(static_cast<std::size_t>(pos), moved);
    heap_sift_down(static_cast<std::size_t>(pos));
    heap_sift_up(static_cast<std::size_t>(slot_heap_pos_[moved]));
  } else {
    finish_heap_.pop_back();
  }
}

void Network::heap_update(std::uint32_t slot) {
  assert(slot_heap_pos_[slot] != kNotInHeap);
  heap_sift_up(static_cast<std::size_t>(slot_heap_pos_[slot]));
  heap_sift_down(static_cast<std::size_t>(slot_heap_pos_[slot]));
}

void Network::rearm_completion() {
  if (finish_heap_.empty() || !std::isfinite(slot_finish_[finish_heap_.front()])) {
    if (completion_event_ != sim::kInvalidEvent) {
      sim_.cancel(completion_event_);
      completion_event_ = sim::kInvalidEvent;
    }
    armed_time_ = kInf;
    return;
  }
  const double target = std::max(slot_finish_[finish_heap_.front()], sim_.now());
  if (completion_event_ != sim::kInvalidEvent) {
    if (target == armed_time_) return;  // already armed at the right time
    completion_event_ = sim_.reschedule(completion_event_, target);
  } else {
    completion_event_ = sim_.schedule_at(target, [this] { on_completion_event(); });
  }
  armed_time_ = target;
}

// keddah:hot(completion)
void Network::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  armed_time_ = kInf;
  const sim::Time now = sim_.now();
  // Every flow whose projected finish has arrived is mathematically drained:
  // a projected finish goes stale only when the rate changes, and a rate
  // change recomputes it. Any residue after materialization is
  // floating-point noise at the payload's ulp scale. The drained batch is
  // member scratch (hoisted local): completion events fire per flow, and a
  // fresh vector here was a per-event allocation. Callbacks run after the
  // heap drain and never re-enter this handler, so reuse is safe.
  scratch_drained_.clear();
  while (!finish_heap_.empty() && slot_finish_[finish_heap_.front()] <= now) {
    const std::uint32_t slot = finish_heap_.front();
    materialize(slot);
    KEDDAH_AUDIT(slot_remaining_[slot].bits() <=
                     kDrainEpsilonBits + 1e-9 * slot_bytes_[slot].bits(),
                 "completed flow left real payload behind");
    slot_remaining_[slot] = util::Bytes(0.0);
    const double tail_latency = slot_latency_[slot];
    auto [flow, cb] = detach(slot);
    // archlint:allow(hot-push-back): flow-bounded scratch; capacity
    // persists across completion events.
    scratch_drained_.push_back({std::move(flow), std::move(cb), tail_latency});
  }
  // Heap pop order is (finish, id): simultaneous completions resolve in
  // flow-id order, keeping downstream callbacks deterministic.
  for (auto& [flow, cb, tail_latency] : scratch_drained_) {
    resolve_finished(std::move(flow), std::move(cb), tail_latency);
  }
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
}

bool Network::abort_flow(FlowId id) {
  const std::uint32_t* found = slot_index_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  materialize(slot);
  auto [flow, cb] = detach(slot);
  resolve_aborted(std::move(flow), std::move(cb));
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
  return true;
}

std::size_t Network::abort_flows_touching(NodeId node) {
  std::vector<FlowId> victims;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot] && (slot_src_[slot] == node || slot_dst_[slot] == node)) {
      victims.push_back(slot_id_[slot]);
    }
  }
  if (victims.empty()) return 0;
  // Id order keeps abort callbacks deterministic regardless of arena layout.
  std::sort(victims.begin(), victims.end());
  std::size_t aborted = 0;
  for (const FlowId id : victims) {
    const std::uint32_t* found = slot_index_.find(id);
    if (found == nullptr) continue;  // removed by a nested callback
    const std::uint32_t slot = *found;
    materialize(slot);
    auto [flow, cb] = detach(slot);
    resolve_aborted(std::move(flow), std::move(cb));
    ++aborted;
  }
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
  return aborted;
}

void Network::resolve_finished(Flow flow, CompletionCallback cb, double tail_latency) {
  flow.done = true;
  if (tail_latency > 0.0) {
    limbo(flow) += flow.bytes;  // drained but not yet delivered (tail latency)
    sim_.schedule_in(tail_latency, [this, flow = std::move(flow), cb = std::move(cb)]() mutable {
      flow.end_time = sim_.now();
      limbo(flow) -= flow.bytes;
      account_delivered(flow);
      for (const auto& tap : completion_taps_) tap(flow);
      if (cb) cb(flow);
      if constexpr (util::kAuditEnabled) audit_conservation();
    });
  } else {
    flow.end_time = sim_.now();
    account_delivered(flow);
    for (const auto& tap : completion_taps_) tap(flow);
    if (cb) cb(flow);
  }
}

void Network::resolve_aborted(Flow flow, CompletionCallback cb) {
  const double delivered = std::max(0.0, flow.bytes.value() - flow.remaining.value());
  account_aborted(flow, util::Bytes(flow.bytes.value() - delivered));
  flow.bytes = util::Bytes(delivered);
  flow.remaining = util::Bytes(0.0);
  flow.done = true;
  flow.aborted = true;
  flow.end_time = sim_.now();
  account_delivered(flow);  // the partial payload did arrive
  for (const auto& tap : completion_taps_) tap(flow);
  if (cb) cb(flow);
}

}  // namespace keddah::net
