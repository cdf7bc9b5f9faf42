#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace daelite::sim {

Kernel::~Kernel() {
  for (Component* c : components_)
    if (c != nullptr) c->kernel_ = nullptr;
}

void Kernel::add(Component* c) {
  c->index_ = static_cast<std::uint32_t>(components_.size());
  components_.push_back(c);
  ++live_count_;
  schedule_dirty_ = true;
}

void Kernel::remove(Component* c) {
  const std::uint32_t i = c->index_;
  if (i >= components_.size() || components_[i] != c) return;
  components_[i] = nullptr; // tombstone; swept between cycles
  --live_count_;
  has_tombstones_ = true;
  if (!c->active_) --sleeping_count_;
  schedule_dirty_ = true;
}

void Kernel::notify_external_write(Component* c) {
  if (scheduler_ == Scheduler::kReference) return; // commits every cycle anyway
  if (c->touch_pending_) return;
  c->touch_pending_ = true;
  touched_.push_back(c->index_);
}

void Kernel::dispatch_first(Component& c) {
  if (c.first_) return;
  c.first_ = true;
  schedule_dirty_ = true;
}

void Kernel::sleep_component(Component& c, Cycle wake_at) {
  if (scheduler_ == Scheduler::kReference) return;
  // Waking happens at the start of the next step, so a wake this cycle or
  // the next would never skip a dispatch: don't churn the schedule.
  if (wake_at != kNoCycle && wake_at <= now_ + 1) return;
  if (c.active_) {
    c.active_ = false;
    ++sleeping_count_;
    schedule_dirty_ = true;
  }
  c.wake_at_ = wake_at;
  next_wake_ = std::min(next_wake_, wake_at);
}

void Kernel::wake(Component& c) {
  if (scheduler_ == Scheduler::kReference) return;
  if (c.active_) return;
  c.active_ = true;
  c.wake_at_ = kNoCycle;
  --sleeping_count_;
  schedule_dirty_ = true;
  // next_wake_ may now be stale (too early); wake_due() tolerates that.
}

void Kernel::wake_due() {
  if (sleeping_count_ == 0) {
    next_wake_ = kNoCycle;
    return;
  }
  if (next_wake_ > now_) return;
  Cycle next = kNoCycle;
  for (Component* c : components_) {
    if (c == nullptr || c->active_) continue;
    if (c->wake_at_ <= now_) {
      c->active_ = true;
      c->wake_at_ = kNoCycle;
      --sleeping_count_;
      schedule_dirty_ = true;
    } else {
      next = std::min(next, c->wake_at_);
    }
  }
  next_wake_ = next;
}

void Kernel::rebuild_schedule() {
  period_ = 1;
  for (const Component* c : components_) {
    if (c == nullptr || !c->active_) continue;
    const Cycle l = std::lcm(period_, static_cast<Cycle>(c->cadence_.stride));
    if (l <= kMaxPeriod) period_ = l;
  }
  due_.assign(period_, {});
  first_count_.assign(period_, 0);
  guarded_.clear();
  for (std::uint32_t i = 0; i < components_.size(); ++i) {
    const Component* c = components_[i];
    if (c == nullptr || !c->active_) continue;
    const Cycle s = c->cadence_.stride;
    if (period_ % s != 0) {
      guarded_.push_back(i); // stride overflowed the period cap: check per cycle
      continue;
    }
    for (Cycle r = c->cadence_.phase % s; r < period_; r += s) {
      std::vector<std::uint32_t>& list = due_[r];
      if (c->first_) {
        list.insert(list.begin() + first_count_[r]++, i);
      } else {
        list.push_back(i);
      }
    }
  }
  schedule_dirty_ = false;
}

void Kernel::sweep_tombstones() {
  std::size_t w = 0;
  for (Component* c : components_) {
    if (c == nullptr) continue;
    c->index_ = static_cast<std::uint32_t>(w);
    components_[w++] = c;
  }
  components_.resize(w);
  has_tombstones_ = false;
  schedule_dirty_ = true;
}

bool Kernel::due_now(const Component& c, Cycle cycle) const {
  return c.active_ && cycle % c.cadence_.stride == c.cadence_.phase;
}

bool Kernel::cycle_is_idle(Cycle cycle) const {
  if (!touched_.empty()) return false; // pending end-of-cycle commit
  if (!due_[cycle % period_].empty()) return false;
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c != nullptr && due_now(*c, cycle)) return false;
  }
  return true;
}

Cycle Kernel::next_due_cycle(Cycle from, Cycle limit) const {
  Cycle best = limit;
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c == nullptr || !c->active_) continue;
    const Cycle s = c->cadence_.stride;
    const Cycle p = c->cadence_.phase % s;
    best = std::min(best, from + (p + s - from % s) % s);
  }
  const Cycle scan_end = std::min(best, from + period_); // table is periodic
  for (Cycle c = from; c < scan_end; ++c) {
    if (!due_[c % period_].empty()) return std::min(best, c);
  }
  return best;
}

void Kernel::append_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                          std::uint64_t arg1) {
  if (c.trace_owner_ != &t) { // interned id is per-tracer; revalidate on swap
    c.trace_id_ = t.intern(c.name_);
    c.trace_owner_ = &t;
  }
  t.record(now_, c.trace_id_, event, arg0, arg1);
}

void Kernel::stage_trace(std::uint32_t key, const Component& c, TraceEvent event,
                         std::uint64_t arg0, std::uint64_t arg1) {
  // Contract: the emitter stays valid to the end of the cycle, and the
  // first-dispatched ticks stage in ascending key order (an engine walks
  // its elements in registration order), so one forward pass merges.
  assert(staged_.empty() || staged_.back().key <= key);
  staged_.push_back({key, &c, event, arg0, arg1});
}

void Kernel::record_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                          std::uint64_t arg1) {
  if (staging_) {
    stage_trace(stage_key_, c, event, arg0, arg1);
    return;
  }
  append_trace(c, t, event, arg0, arg1);
}

void Kernel::trace_as(const Component& as, TraceEvent event, std::uint64_t arg0,
                      std::uint64_t arg1) {
  Tracer* t = tracer_;
  if (t == nullptr || !t->enabled()) return;
  if (staging_) {
    // Staged under the element's own registration index, not the key of
    // the engine currently dispatching: the record merges exactly where
    // the element's own trace() would have landed in index order.
    stage_trace(as.index_, as, event, arg0, arg1);
    return;
  }
  append_trace(as, *t, event, arg0, arg1);
}

void Kernel::set_stage_key(const Component& c) {
  if (staging_) stage_key_ = c.index_;
}

void Kernel::flush_staged(std::size_t* next, std::uint32_t key_limit) {
  std::size_t k = *next;
  for (; k < staged_.size() && staged_[k].key < key_limit; ++k) {
    const StagedTrace& s = staged_[k];
    if (tracer_ != nullptr) append_trace(*s.emitter, *tracer_, s.event, s.arg0, s.arg1);
  }
  *next = k;
}

void Kernel::step_reference() {
  // Index loops (not iterators): remove() tombstones in place, so the
  // vector never reallocates or shifts mid-phase.
  const std::size_t n = components_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }
  for (std::size_t i = 0; i < n; ++i) {
    Component* c = components_[i];
    if (c != nullptr) c->commit();
  }
  if (has_tombstones_) sweep_tombstones();
  ++now_;
}

void Kernel::step_stride() {
  wake_due();
  if (schedule_dirty_) rebuild_schedule();

  // Snapshot which guarded components are due: a component may sleep
  // during its own tick, and it must still commit this cycle.
  guarded_due_.clear();
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c != nullptr && due_now(*c, now_)) guarded_due_.push_back(i);
  }

  const std::size_t r = static_cast<std::size_t>(now_ % period_);
  const std::vector<std::uint32_t>& due = due_[r];
  const std::size_t nfirst = first_count_[r];

  // First-dispatched components (a batched engine) tick before the rest,
  // with their records staged. The rest record directly; before each of
  // them ticks, the staged records keyed below its index are appended, so
  // the cycle's records land in registration order — the two streams
  // merge exactly as per-component dispatch in index order would emit them.
  if (nfirst > 0) {
    staging_ = true;
    for (std::size_t k = 0; k < nfirst; ++k) {
      Component* c = components_[due[k]];
      if (c != nullptr) {
        stage_key_ = due[k];
        c->tick();
      }
    }
    staging_ = false;
  }
  std::size_t next_staged = 0;
  for (std::size_t k = nfirst; k < due.size(); ++k) {
    const std::uint32_t i = due[k];
    if (next_staged < staged_.size()) flush_staged(&next_staged, i);
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }
  if (!staged_.empty()) {
    flush_staged(&next_staged, kNoKey);
    staged_.clear();
  }
  // Guarded components tick after every scheduled one, as in index order.
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }

  // Commit in the same order: first-dispatched latches, then the rest,
  // whose cross-component commits (the fault injector corrupting
  // committed link registers, the health monitor sampling them) observe
  // every latch exactly as when they commit last in index order.
  for (std::uint32_t i : due) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  // Externally mutated components commit at the end of the cycle of the
  // mutation, exactly as under the reference scheduler. Index loop: ticks
  // above may have appended (shells pushing into NI queues).
  for (std::size_t k = 0; k < touched_.size(); ++k) {
    Component* c = components_[touched_[k]];
    if (c != nullptr && c->touch_pending_) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  touched_.clear();

  if (has_tombstones_) sweep_tombstones();
  ++now_;
}

bool Kernel::all_quiescent() const {
  for (const Component* c : components_) {
    if (c == nullptr || !c->active_) continue;
    if (!c->quiescent()) return false;
  }
  return true;
}

void Kernel::advance_or_skip(Cycle end) {
  wake_due();
  if (schedule_dirty_) rebuild_schedule();
  const Cycle limit = std::min(end, next_wake_);
  if (limit > now_ + 1) {
    if (cycle_is_idle(now_)) {
      now_ = next_due_cycle(now_ + 1, limit);
      return;
    }
    // Components may be due, but if every active one certifies its tick a
    // no-op (see Component::quiescent()) the network state is a fixed
    // point: nothing can change before a wake or an external write, both
    // of which happen at or after `limit`.
    if (touched_.empty() && all_quiescent()) {
      now_ = limit;
      return;
    }
  }
  step_stride();
}

void Kernel::step() {
  if (scheduler_ == Scheduler::kReference) {
    step_reference();
  } else {
    step_stride();
  }
}

void Kernel::run(Cycle n) {
  const Cycle end = now_ + n;
  if (scheduler_ == Scheduler::kReference) {
    while (now_ < end) step_reference();
    return;
  }
  while (now_ < end) advance_or_skip(end);
}

bool Kernel::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  const Cycle end = now_ + max_cycles;
  if (scheduler_ == Scheduler::kReference) {
    while (now_ < end) {
      step_reference();
      if (pred()) return true;
    }
    return false;
  }
  while (now_ < end) {
    advance_or_skip(end);
    if (pred()) return true;
  }
  return false;
}

} // namespace daelite::sim
