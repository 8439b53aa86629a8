// Discrete-event simulation kernel.
//
// A single-threaded, deterministic event loop: callbacks are executed in
// (time, insertion-sequence) order, so two events scheduled for the same
// instant fire in the order they were scheduled. Events can be cancelled,
// which is how the flow-level network model retracts completion events when
// fair-share rates change.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace keddah::sim {

/// Simulation time in seconds.
using Time = double;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// It packs the event's callback slot (low 24 bits) and that slot's
/// generation (high 40 bits), so a handle to a fired or cancelled event
/// never names the slot's next occupant.
using EventId = std::uint64_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEvent = 0;

/// The event loop. Components keep a reference and schedule callbacks.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. 0 before the first event fires.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  /// Returns a handle usable with cancel(). Throws std::length_error when
  /// 2^24 events are already pending.
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(Time delay, std::function<void()> fn);

  /// Cancels a pending event. Safe to call for already-fired, already-
  /// cancelled, or invalid handles (no effect). Returns true if the event
  /// was pending and is now cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `at`, reusing its callback slot
  /// (nothing is allocated), and returns the new handle; the old handle is
  /// dead. Returns kInvalidEvent when `id` is not pending. This is
  /// the re-arm primitive for components that keep one outstanding event
  /// whose deadline moves around (the network's next-completion event).
  EventId reschedule(EventId id, Time at);

  /// Runs until the queue drains or `until` is reached (infinity = drain).
  /// If `until` is finite, the clock is advanced to `until` even when the
  /// queue drains earlier. Returns the number of events executed.
  std::size_t run(Time until = kForever);

  /// Runs at most one event; returns false if no live event remains.
  bool step();

  /// Number of live (not cancelled, not yet fired) events.
  std::size_t pending() const { return live_; }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  static constexpr Time kForever = 1.0e300;

  /// Audits that advancing the clock to `next` keeps it monotone; throws
  /// util::AuditError otherwise. Called automatically before every event
  /// dispatch in KEDDAH_CHECK builds; callable explicitly in any build.
  void audit_clock(Time next) const;

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxGeneration = (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Heap entries are trivially copyable; the callback stays in its slot.
  /// An entry is stale once its slot's generation moved past `id`'s.
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  /// One callback slot. `generation` is odd while an event occupies the
  /// slot and even while it is free; every schedule, reschedule, fire and
  /// cancel advances it, which kills every handle issued before.
  struct Slot {
    std::function<void()> fn;
    std::uint64_t generation = 0;
  };

  /// True when `id` names the event that occupies its slot now.
  bool is_live(EventId id) const;

  /// Advances `slot`'s generation by `step` and returns the handle for the
  /// new generation; throws std::overflow_error past 40 generation bits.
  EventId advance(std::uint32_t slot, std::uint64_t step);

  /// Frees `id`'s slot for reuse; the caller has moved the callback out.
  void release(EventId id);

  /// Pops cancelled entries off the heap top.
  void skim_cancelled();

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace keddah::sim
