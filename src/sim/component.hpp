#pragma once
// Two-phase synchronous component model.
//
// The modelled hardware (daelite / aelite) is globally synchronous: one
// clock, every register latches on the same edge. We model this with two
// phases per cycle:
//
//   tick()   — combinational evaluation: read only *committed* state (your
//              own and other components' registers via Reg<T>::get()),
//              compute next state via Reg<T>::set().
//   commit() — the clock edge: every register copies next -> current.
//
// Because tick() never observes uncommitted values, the evaluation order of
// components within a cycle is irrelevant; the simulation is deterministic
// and exactly matches RTL register-transfer semantics with a one-cycle
// delay through every Reg.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace daelite::sim {

/// Type-erased register interface so a Component can commit all of its
/// registers generically.
class RegBase {
 public:
  virtual void commit_reg() = 0;

 protected:
  ~RegBase() = default;
};

/// A flip-flop (bank): holds its value across cycles unless set().
/// get() returns the value committed at the previous clock edge.
template <typename T>
class Reg : public RegBase {
 public:
  Reg() = default;
  explicit Reg(const T& init) : cur_(init), nxt_(init) {}

  const T& get() const { return cur_; }
  void set(const T& v) { nxt_ = v; }
  void set(T&& v) { nxt_ = static_cast<T&&>(v); }

  /// Mutable access to the *next* value — convenient for container-typed
  /// registers (e.g. pushing into a queue register during tick()).
  T& next() { return nxt_; }
  const T& next() const { return nxt_; }

  /// Reset both current and next immediately (use only outside tick()).
  void force(const T& v) {
    cur_ = v;
    nxt_ = v;
  }

  void commit_reg() override { cur_ = nxt_; }

 private:
  T cur_{};
  T nxt_{};
};

/// Base class for every modelled hardware block. Registers itself with the
/// Kernel on construction and deregisters on destruction.
///
/// A component declares a tick Cadence at construction: hardware that only
/// acts on TDM slot boundaries (routers, NIs) registers stride
/// words_per_slot so the stride scheduler never dispatches it on the
/// intermediate cycles its tick() would early-return from. State mutated
/// from outside tick() (queue pushes/pops, config enqueues) must be
/// followed by external_write() so the mutation commits at the end of the
/// current cycle regardless of the component's cadence.
class Component {
 public:
  Component(Kernel& kernel, std::string name, Cadence cadence = {});
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Combinational phase. Read committed state only; write via Reg::set().
  virtual void tick() = 0;

  /// Clock edge. The default commits every register registered via own().
  /// Override only to add extra sequential behaviour, and call the base.
  virtual void commit();

  const std::string& name() const { return name_; }
  Kernel& kernel() const { return *kernel_; }
  const Cadence& cadence() const { return cadence_; }

  /// False while suspended/sleeping under the stride scheduler.
  bool active() const { return active_; }

  /// Quiescence hint for the stride scheduler's whole-network fast-forward.
  /// Return true only when BOTH hold:
  ///   (a) every register this component shares with consumers currently
  ///       holds its "nothing" value (invalid flit, empty queue, zero
  ///       counter), and
  ///   (b) given that every register it reads also holds "nothing", its
  ///       tick() changes no observable state: no counters, no trace
  ///       records, and every written register keeps a "nothing" value.
  /// When every active component is quiescent (and no external write is
  /// pending), Kernel::run()/run_until() may skip the span wholesale —
  /// by induction the network state cannot change until a wake or an
  /// external write. The default (false) opts out: components that
  /// generate stimulus or sample state every cycle must never be skipped.
  virtual bool quiescent() const { return false; }

  /// Current simulation cycle (committed time; increments after commit).
  Cycle now() const;

 protected:
  /// Call after mutating this component's registers from outside its own
  /// tick() (e.g. a queue push from the runner or a shell): schedules a
  /// commit at the end of the current cycle even if the component is not
  /// due, so the mutation lands on the same clock edge as it would under
  /// the per-cycle reference scheduler.
  void external_write() { kernel_->notify_external_write(this); }

  /// Leave the schedule from the next cycle until `wake_at` (the current
  /// cycle still commits). Only sleep when provably quiescent: all owned
  /// registers stable and tick() a no-op until the wake cycle.
  void sleep_until(Cycle wake_at) { kernel_->sleep(*this, wake_at); }

  /// Sleep until some external event calls Kernel::wake(*this).
  void sleep() { kernel_->suspend(*this); }

  /// Declare a member Reg as part of this component's sequential state.
  void own(RegBase& reg) { regs_.push_back(&reg); }

  /// Append a structured trace record under this component's name. With no
  /// tracer attached (or a disabled one) this is a branch or two and no
  /// stores — cheap enough to leave in every model's hot path. The enabled
  /// path goes through the kernel so records emitted while a batched
  /// engine ticks are staged and merged back in registration order
  /// (Kernel::record_trace), keeping traces byte-identical to
  /// per-component dispatch.
  void trace(TraceEvent event, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) const {
    Tracer* t = kernel_->tracer();
    if (t == nullptr || !t->enabled()) return;
    kernel_->record_trace(*this, *t, event, arg0, arg1);
  }

  /// True when trace() would record — guards event argument computation
  /// too expensive for the hot path.
  bool tracing() const {
    const Tracer* t = kernel_->tracer();
    return t != nullptr && t->enabled();
  }

  /// For batched-dispatch engines (hw::SlotEngine): latch a suspended
  /// element this engine drives, clearing its pending external-write mark
  /// so the kernel's touched pass does not commit it a second time —
  /// exactly the bookkeeping the kernel performs when the element commits
  /// from a due list.
  static void commit_on_behalf(Component& c) {
    c.commit();
    c.touch_pending_ = false;
  }

 private:
  friend class Kernel;

  Kernel* kernel_;
  std::string name_;
  std::vector<RegBase*> regs_;
  Cadence cadence_;
  std::uint32_t index_ = 0;    ///< slot in the kernel's registry
  bool first_ = false;         ///< Kernel::dispatch_first(): ticks/commits before the rest
  bool active_ = true;         ///< false while suspended/sleeping
  bool touch_pending_ = false; ///< external write awaiting end-of-cycle commit
  Cycle wake_at_ = kNoCycle;
  mutable std::uint32_t trace_id_ = 0;          ///< interned lazily on first trace()
  mutable const Tracer* trace_owner_ = nullptr; ///< tracer trace_id_ belongs to
};

} // namespace daelite::sim
