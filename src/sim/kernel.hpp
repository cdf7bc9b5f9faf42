#pragma once
// The simulation kernel: a registry of Components and the cycle loop.
//
// One Kernel models one synchronous clock domain (the paper's daelite
// prototype is fully synchronous; aelite's mesochronous links are out of
// scope, as in the paper's experiments).
//
// Two schedulers are provided:
//
//   kStride    — the default. Each component registers a tick cadence
//                (stride + phase offset); the kernel precomputes per-residue
//                activation lists over the least common multiple of all
//                strides and dispatches only the components due in the
//                current cycle. Components may additionally sleep until a
//                known cycle (or indefinitely, woken by an external event),
//                and externally mutated components (NI queue pushes/pops,
//                config enqueues) are committed at the end of the cycle of
//                the mutation via the touched list. run()/run_until()
//                fast-forward now_ across spans where no component is due.
//   kReference — the original per-cycle loop: every component ticks and
//                commits every cycle, cadences and sleeps are ignored.
//                Kept as the oracle for the byte-identity ctests.
//
// Both schedulers dispatch components in registration order within a cycle,
// so trace record order and interned trace ids are identical between them.
//
// Batched engines (stride scheduler only): a component marked with
// dispatch_first() — hw::SlotEngine, which ticks and commits the
// suspended routers and NIs itself — ticks before every other component
// due in the same cycle and commits before them too. That is the order the
// index-order loop already implies for the elements it covers: every
// element registers before its config agent, and the components with
// cross-component commits (fault injector, health monitor) register after
// the network. Trace records the engine relays for its elements
// (trace_as()/set_stage_key()) are parked in one buffer keyed by each
// element's registration index and merged with the rest of the cycle's
// records in registration order, so traces and interned ids stay
// byte-identical to per-component dispatch (the ctests diff them).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace daelite::sim {

class Component;
class Tracer;
enum class TraceEvent : std::uint16_t;

/// Which cycle loop a Kernel runs. See file comment.
enum class Scheduler { kStride, kReference };

/// A component's tick/commit cadence: due at cycles where
/// cycle % stride == phase. The default (stride 1) is "every cycle".
struct Cadence {
  std::uint32_t stride = 1;
  std::uint32_t phase = 0;
};

class Kernel {
 public:
  explicit Kernel(Scheduler scheduler = Scheduler::kStride)
      : scheduler_(scheduler) {}
  /// Detaches every component still registered, so one that outlives the
  /// kernel (a probe created by a RunSpec::on_network hook) can still be
  /// destroyed safely; it must not be used in any other way.
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Scheduler scheduler() const { return scheduler_; }

  /// Current cycle number. Cycle N covers the Nth tick/commit pair;
  /// now() increments after the commit phase.
  Cycle now() const { return now_; }

  /// Advance exactly one cycle: tick all due components, then commit.
  void step();

  /// Advance n cycles. Under the stride scheduler, spans where no
  /// component is due (and none has a pending external write) are
  /// fast-forwarded without per-cycle work; so are spans where every
  /// active component certifies its tick a no-op (Component::quiescent()),
  /// e.g. a fully drained network carrying only empty slots.
  void run(Cycle n);

  /// Advance until pred() is true (checked after each cycle boundary) or
  /// max_cycles elapse. Returns true iff the predicate fired within the
  /// budget; on timeout the predicate is NOT re-evaluated and the call
  /// returns false with now() == start + max_cycles.
  ///
  /// Contract under the stride scheduler: idle spans are fast-forwarded,
  /// so a predicate's value may only change at cycles where some component
  /// is dispatched or woken (this holds for any predicate over committed
  /// component state, and for time-dependent predicates such as
  /// ConfigModule::idle() whose flip cycle coincides with the component's
  /// own wake cycle). Predicates violating this may be observed late.
  bool run_until(const std::function<bool()>& pred, Cycle max_cycles);

  /// Number of live (not yet destroyed) components.
  std::size_t component_count() const { return live_count_; }

  /// Deactivate a component until wake(): it stops ticking and committing
  /// from the next cycle on. The caller asserts the component is quiescent
  /// (its registers hold values that re-committing would not change and
  /// its tick is a no-op while suspended). No-op under kReference.
  void suspend(Component& c) { sleep_component(c, kNoCycle); }

  /// Put a component to sleep until cycle wake_at (it still commits the
  /// current cycle). No-op under kReference or when wake_at is next cycle.
  void sleep(Component& c, Cycle wake_at) { sleep_component(c, wake_at); }

  /// Reactivate a suspended/sleeping component from the next dispatch
  /// point (the cycle of the call if invoked between steps, the next
  /// cycle if invoked mid-step). No-op when already active.
  void wake(Component& c);

  /// Attach a structured event tracer (sim/trace.hpp). The kernel does not
  /// own it; pass nullptr to detach. Components check this pointer on
  /// every trace() call, so attaching before or after construction both
  /// work — attach before for complete traces.
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  // --- Batched-dispatch engine services (hw::SlotEngine) ---------------------
  // A batched engine is one Component that ticks and commits a whole set
  // of suspended elements itself. These hooks keep its dispatch
  // byte-identical to per-component dispatch: it runs before the rest of
  // the cycle, and the records it relays for an element carry the
  // element's name and merge at the element's registration index.

  /// Dispatch `c` before every other component due in the same cycle, in
  /// both the tick and the commit phase, with its trace records staged for
  /// the registration-order merge (see file comment). Call between steps.
  void dispatch_first(Component& c);

  /// Record a trace as if `as` had emitted it from its own dispatch slot:
  /// staged under as's registration index inside a first-dispatched tick,
  /// appended directly otherwise. For engines that inline an element's
  /// tick and must relay the records the element would have emitted.
  void trace_as(const Component& as, TraceEvent event, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0);

  /// Re-key staged records to component `c` for the rest of the current
  /// dispatch (no-op when not staging). For engines that call into an
  /// element's own tick body, whose trace() calls would otherwise stage
  /// under the engine's index.
  void set_stage_key(const Component& c);

 private:
  friend class Component;

  /// Longest supported precomputed schedule. Components whose stride does
  /// not divide the (capped) period fall back to a per-cycle residue check.
  static constexpr Cycle kMaxPeriod = 4096;

  void add(Component* c);
  /// Deferred removal: tombstone the slot now, sweep between cycles —
  /// safe to call from inside tick()/commit() (components destroying
  /// other components, or themselves, mid-phase).
  void remove(Component* c);
  /// Register c for a commit at the end of the current cycle because its
  /// state was mutated outside its own tick (queue push/pop from a shell,
  /// the runner, or a host). No-op under kReference.
  void notify_external_write(Component* c);

  /// Trace-record path shared by every Component::trace() call: appends
  /// directly to `t`, or stages the record while a first-dispatched
  /// component ticks. Interned-id caching lives here so staged records
  /// resolve their ids in merged order — identical to the serial
  /// interning order.
  void record_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                    std::uint64_t arg1);

  void sleep_component(Component& c, Cycle wake_at);
  void wake_due();
  void rebuild_schedule();
  void sweep_tombstones();
  bool due_now(const Component& c, Cycle cycle) const;
  bool cycle_is_idle(Cycle cycle) const;
  /// True when every active component certifies quiescence (see
  /// Component::quiescent()) — the network state is a fixed point and
  /// run()/run_until() may skip ahead to the next wake or budget end.
  bool all_quiescent() const;
  /// First cycle in [from, limit) where a scheduled or guarded component
  /// is due; limit if none (the due table is periodic, so scanning one
  /// period is exhaustive).
  Cycle next_due_cycle(Cycle from, Cycle limit) const;
  void step_reference();
  void step_stride();
  /// Shared by run()/run_until(): advance one dispatch point, either by
  /// executing the current cycle or by fast-forwarding to the next cycle
  /// (< end) where anything is due. Returns the kernel to a state where
  /// now() has advanced by at least one.
  void advance_or_skip(Cycle end);

  /// One trace record parked while a first-dispatched component ticks.
  /// `key` is the registration index the record merges at: the element
  /// named by set_stage_key()/trace_as(), else the dispatched component.
  struct StagedTrace {
    std::uint32_t key;
    const Component* emitter; ///< whose name the record carries
    TraceEvent event;
    std::uint64_t arg0;
    std::uint64_t arg1;
  };
  /// Merge key above every registration index: flushes all staged records.
  static constexpr std::uint32_t kNoKey = 0xFFFFFFFFu;

  void append_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                    std::uint64_t arg1);
  void stage_trace(std::uint32_t key, const Component& c, TraceEvent event, std::uint64_t arg0,
                   std::uint64_t arg1);
  /// Append the staged records from staged_[*next] on whose key is below
  /// `key_limit`, advancing *next.
  void flush_staged(std::size_t* next, std::uint32_t key_limit);

  Scheduler scheduler_;
  std::vector<Component*> components_; ///< registration order; null = tombstone
  std::size_t live_count_ = 0;
  bool has_tombstones_ = false;

  // Precomputed dispatch schedule (stride scheduler only).
  bool schedule_dirty_ = true;
  Cycle period_ = 1;
  std::vector<std::vector<std::uint32_t>> due_; ///< per residue, see first_count_
  std::vector<std::uint32_t> guarded_;          ///< stride doesn't divide period_
  std::vector<std::uint32_t> guarded_due_;      ///< per-cycle scratch of due guarded
  std::vector<std::uint32_t> touched_;          ///< pending end-of-cycle commits
  std::size_t sleeping_count_ = 0;
  Cycle next_wake_ = kNoCycle;

  /// Per residue: how many leading entries of due_[r] are
  /// first-dispatched components (dispatch_first). due_[r] lists those
  /// first, then the rest, each part ascending — so the commit loop walks
  /// due_[r] front to back and the tick loop stages only the prefix.
  std::vector<std::uint32_t> first_count_;
  std::vector<StagedTrace> staged_; ///< records of this cycle's first ticks
  bool staging_ = false;            ///< a first-dispatched component is ticking
  std::uint32_t stage_key_ = 0;     ///< merge key of records staged now

  Cycle now_ = 0;
  Tracer* tracer_ = nullptr;
};

} // namespace daelite::sim
