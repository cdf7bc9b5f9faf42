#pragma once
// Batched slot dispatch over structure-of-arrays slot-table pools.
//
// Under the stride scheduler, the remaining per-slot cost is
// virtual tick() dispatch over pointer-chased per-router state: every
// router and NI is its own Component, each tick re-derives the slot,
// walks its own heap-allocated slot table, and re-writes its output
// registers even when the whole neighbourhood is idle.
//
// A SlotEngine replaces per-component dispatch for every router and NI of
// a network (DaeliteNetwork::enable_soa builds exactly one, with the
// elements in ascending node-id order). At finalize():
//
//  * every router slot table and NI tx/rx table is rebound into flat
//    pools owned by the engine (tdm::*SlotTable::rebind) — one
//    allocation per kind, indexed (element, output, slot) — so the
//    dispatch loop walks contiguous memory and the per-slot uint8
//    output masks live in one cache-friendly array;
//  * the elements are suspended (Kernel::suspend): the engine, a single
//    Component with the same words_per_slot cadence, ticks and commits
//    on their behalf;
//  * the engine is marked Kernel::dispatch_first, so it ticks and
//    commits before the serial set (config agents, shells, fault
//    injector, health monitor) — preserving the element-before-config-
//    agent tick order the index-order loop has — and the trace records
//    it relays (Kernel::trace_as/set_stage_key) merge back at each
//    element's registration index for byte-identical traces.
//
// The win is twofold. Dispatch cost: router forwarding is one inlined
// loop over the pools instead of a virtual call per element. Skip cost:
// an element whose links are provably idle this slot — no valid flit on
// any input, no valid flit latched on any output (tracked as a per-lane
// uint8 `valid_out` superset; fault injection can only clear valid
// bits, never set them), and for NIs nothing queued and no credits owed
// (Ni::slot_quiet) — is skipped entirely, tick AND commit. Skipping is
// exact for everything observable (registers' valid bits, counters,
// traces, reports): the only divergence is the payload bytes of stale
// *invalid* flits left in output registers, which every consumer gates
// on `valid` before reading. External queue writes to skipped NIs still
// commit through the kernel's touched pass, which the engine leaves
// untouched for elements it did not tick.
//
// The reference scheduler ignores suspension, so SoA is a stride-only
// mode (DaeliteNetwork::enable_soa refuses under kReference) and the
// reference remains the byte-identity oracle.

#include <cstdint>
#include <string>
#include <vector>

#include "daelite/ni.hpp"
#include "daelite/router.hpp"
#include "sim/component.hpp"
#include "tdm/params.hpp"
#include "tdm/slot_table.hpp"

namespace daelite::hw {

class SlotEngine final : public sim::Component {
 public:
  SlotEngine(sim::Kernel& k, std::string name, tdm::TdmParams params);

  /// Add elements in ascending kernel-registration order (ascending node
  /// id): relayed trace records stage under each element's registration
  /// index, and the staged buffer must stay ascending for the kernel's
  /// merge. Call before finalize(); elements must be fully wired.
  void add_router(Router& r);
  void add_ni(Ni& n);

  /// Build the pools, rebind every added element's slot tables into
  /// them, suspend the elements, and have the kernel dispatch this engine
  /// first. Call once, before the simulation runs traffic.
  void finalize();

  std::size_t element_count() const { return items_.size(); }

  void tick() override;
  /// Latches exactly the elements tick() dispatched this slot (clearing
  /// their pending external-write marks, as the kernel's own due-list
  /// commit would); skipped elements have nothing to latch.
  void commit() override;
  /// Quiescent iff every covered element is — the engine answers the
  /// kernel's whole-network fast-forward for its suspended elements.
  bool quiescent() const override;

 private:
  struct RouterLane {
    Router* r = nullptr;
    std::uint32_t nout = 0;
    std::uint32_t nin = 0;
    const sim::Reg<Flit>* inputs[8] = {};
    sim::Reg<Flit>* outputs = nullptr;       ///< -> the router's output regs
    std::uint64_t* fwd = nullptr;            ///< -> forwarded_per_out_
    Router::Stats* stats = nullptr;
    const tdm::PortIndex* entries = nullptr; ///< pooled, [nout * num_slots]
    const std::uint8_t* masks = nullptr;     ///< pooled, [num_slots]
    std::uint8_t valid_out = 0;              ///< superset of valid committed outputs
  };
  /// One dispatch slot, in element registration order.
  struct Item {
    Ni* ni = nullptr;       ///< nullptr: router lane
    std::uint32_t lane = 0; ///< index into routers_ when ni == nullptr
  };

  void tick_router(RouterLane& ln, tdm::Slot slot);

  tdm::TdmParams params_;
  std::vector<RouterLane> routers_;
  std::vector<Item> items_;
  std::vector<tdm::PortIndex> entry_pool_;   ///< router tables, (element, output, slot)
  std::vector<std::uint8_t> mask_pool_;      ///< per-slot output masks, (element, slot)
  std::vector<tdm::ChannelId> ni_table_pool_; ///< NI tx then rx, (element, slot)
  std::vector<sim::Component*> ticked_;      ///< elements dispatched this slot
  bool finalized_ = false;
};

} // namespace daelite::hw
