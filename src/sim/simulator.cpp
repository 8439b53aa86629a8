#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace keddah::sim {

bool Simulator::is_live(EventId id) const {
  const std::uint64_t slot = id & kSlotMask;
  const std::uint64_t generation = id >> kSlotBits;
  return slot < slots_.size() && slots_[slot].generation == generation && generation % 2 == 1;
}

EventId Simulator::advance(std::uint32_t slot, std::uint64_t step) {
  std::uint64_t& generation = slots_[slot].generation;
  if (generation + step > kMaxGeneration) {
    throw std::overflow_error("sim: event slot " + std::to_string(slot) +
                              " ran out of 40-bit generations");
  }
  generation += step;
  return (generation << kSlotBits) | slot;
}

void Simulator::release(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
  --live_;
}

// keddah:hot(schedule)
EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  if (at < now_) throw std::invalid_argument("sim: schedule_at in the past");
  const bool reuse = !free_slots_.empty();
  if (!reuse && slots_.size() > kSlotMask) {
    throw std::length_error("sim: more than 2^24 events pending at once");
  }
  const std::uint32_t slot =
      reuse ? free_slots_.back() : static_cast<std::uint32_t>(slots_.size());
  // archlint:allow(hot-push-back): the slot table grows only to the
  // high-water mark of pending events; after that every slot comes off the
  // free list, so no event allocates.
  if (!reuse) slots_.emplace_back();
  // A free slot's generation is even; the event makes it odd.
  const EventId id = advance(slot, 1);
  if (reuse) free_slots_.pop_back();
  slots_[slot].fn = std::move(fn);
  ++live_;
  queue_.push(Entry{at, next_seq_++, id});
  return id;
}

// keddah:hot(reschedule)
EventId Simulator::reschedule(EventId id, Time at) {
  if (!is_live(id)) return kInvalidEvent;
  if (at < now_) throw std::invalid_argument("sim: reschedule in the past");
  // The callback stays put; the old heap entry goes stale and is skimmed
  // lazily.
  const EventId nid = advance(static_cast<std::uint32_t>(id & kSlotMask), 2);
  queue_.push(Entry{at, next_seq_++, nid});
  return nid;
}

EventId Simulator::schedule_in(Time delay, std::function<void()> fn) {
  if (delay < 0.0) throw std::invalid_argument("sim: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  // Lazy deletion: free the slot; the heap entry is skipped when it reaches
  // the top. The callback dies after the bookkeeping, so a destructor that
  // re-enters the simulator sees a consistent table.
  if (!is_live(id)) return false;
  const auto dead = std::move(slots_[id & kSlotMask].fn);
  release(id);
  return true;
}

void Simulator::skim_cancelled() {
  while (!queue_.empty() && !is_live(queue_.top().id)) queue_.pop();
}

void Simulator::audit_clock(Time next) const {
  if (!(next >= now_)) {
    throw util::AuditError("sim clock would run backwards: now=" + std::to_string(now_) +
                           " next=" + std::to_string(next));
  }
}

// keddah:hot(dispatch)
bool Simulator::step() {
  skim_cancelled();
  if (queue_.empty()) return false;
  const Entry entry = queue_.top();
  queue_.pop();
  // The callback leaves its slot before it runs: it may schedule events,
  // which can reuse the slot or grow (and move) the slot table.
  const auto fn = std::move(slots_[entry.id & kSlotMask].fn);
  release(entry.id);
  assert(entry.at >= now_);
  if constexpr (util::kAuditEnabled) audit_clock(entry.at);
  now_ = entry.at;
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run(Time until) {
  std::size_t count = 0;
  for (;;) {
    skim_cancelled();
    if (queue_.empty() || queue_.top().at > until) break;
    if (!step()) break;
    ++count;
  }
  if (now_ < until && until < kForever) now_ = until;
  return count;
}

}  // namespace keddah::sim
