#include "daelite/slot_engine.hpp"

#include <cassert>

#include "sim/log.hpp"

namespace daelite::hw {

SlotEngine::SlotEngine(sim::Kernel& k, std::string name, tdm::TdmParams params)
    : sim::Component(k, std::move(name), sim::Cadence{params.words_per_slot, 0}),
      params_(params) {
  assert(params_.valid());
}

void SlotEngine::add_router(Router& r) {
  assert(!finalized_);
  assert(r.params_.num_slots == params_.num_slots &&
         r.params_.words_per_slot == params_.words_per_slot);
  RouterLane ln;
  ln.r = &r;
  ln.nout = static_cast<std::uint32_t>(r.outputs_.size());
  ln.nin = static_cast<std::uint32_t>(r.inputs_.size());
  assert(ln.nin <= 8 && ln.nout <= 8);
  for (std::uint32_t i = 0; i < ln.nin; ++i) ln.inputs[i] = r.inputs_[i];
  ln.outputs = r.outputs_.data();
  ln.fwd = r.forwarded_per_out_.data();
  ln.stats = &r.stats_;
  items_.push_back({nullptr, static_cast<std::uint32_t>(routers_.size())});
  routers_.push_back(ln);
}

void SlotEngine::add_ni(Ni& n) {
  assert(!finalized_);
  assert(n.params().tdm.num_slots == params_.num_slots);
  Item it;
  it.ni = &n;
  items_.push_back(it);
}

void SlotEngine::finalize() {
  assert(!finalized_);
  finalized_ = true;
  const std::size_t slots = params_.num_slots;

  std::size_t entry_total = 0;
  std::size_t ni_count = 0;
  for (const RouterLane& ln : routers_) entry_total += static_cast<std::size_t>(ln.nout) * slots;
  for (const Item& it : items_) ni_count += it.ni != nullptr ? 1 : 0;
  entry_pool_.assign(entry_total, tdm::kUnusedPort);
  mask_pool_.assign(routers_.size() * slots, 0);
  ni_table_pool_.assign(ni_count * 2 * slots, tdm::kNoChannel);

  std::size_t eoff = 0;
  std::size_t moff = 0;
  std::size_t noff = 0;
  for (const Item& it : items_) {
    if (it.ni != nullptr) {
      it.ni->table().rebind(ni_table_pool_.data() + noff, ni_table_pool_.data() + noff + slots);
      noff += 2 * slots;
    } else {
      RouterLane& ln = routers_[it.lane];
      ln.r->table_.rebind(entry_pool_.data() + eoff, mask_pool_.data() + moff);
      ln.entries = entry_pool_.data() + eoff;
      ln.masks = mask_pool_.data() + moff;
      eoff += static_cast<std::size_t>(ln.nout) * slots;
      moff += slots;
      // Seed the valid-output superset from the current register state
      // (normally all-invalid at construction time).
      ln.valid_out = 0;
      for (std::uint32_t o = 0; o < ln.nout; ++o) {
        if (ln.outputs[o].get().valid) ln.valid_out |= static_cast<std::uint8_t>(1u << o);
      }
    }
  }

  for (const Item& it : items_) {
    sim::Component* c =
        it.ni != nullptr ? static_cast<sim::Component*>(it.ni) : routers_[it.lane].r;
    kernel().suspend(*c);
  }
  kernel().dispatch_first(*this);
  ticked_.reserve(items_.size());
}

void SlotEngine::tick_router(RouterLane& ln, tdm::Slot slot) {
  const std::size_t slots = params_.num_slots;
  std::uint8_t consumed = 0;
  std::uint8_t vout = 0;
  if (ln.masks[slot] != 0) {
    for (std::uint32_t o = 0; o < ln.nout; ++o) {
      const tdm::PortIndex in = ln.entries[o * slots + slot];
      Flit f{};
      if (in != tdm::kUnusedPort && in < ln.nin && ln.inputs[in] != nullptr) {
        f = ln.inputs[in]->get();
        if (f.valid) {
          consumed |= static_cast<std::uint8_t>(1u << in);
          ++ln.stats->flits_forwarded;
          ++ln.fwd[o];
          vout |= static_cast<std::uint8_t>(1u << o);
          kernel().trace_as(*ln.r, sim::TraceEvent::kFlitForward, o, in);
        }
      }
      ln.outputs[o].set(f);
    }
  } else {
    // No table entry anywhere this slot: every output latches invalid.
    for (std::uint32_t o = 0; o < ln.nout; ++o) ln.outputs[o].set(Flit{});
  }
  for (std::uint32_t i = 0; i < ln.nin; ++i) {
    if (ln.inputs[i] == nullptr || !ln.inputs[i]->get().valid) continue;
    ++ln.stats->flits_in;
    if ((consumed & (1u << i)) == 0) {
      ++ln.stats->flits_dropped;
      kernel().trace_as(*ln.r, sim::TraceEvent::kFlitDrop, slot, i);
      sim::log_debug(ln.r->name(), "dropped flit at input ", i, " slot ", slot,
                     " (no slot-table entry)");
    }
  }
  ln.valid_out = vout;
}

void SlotEngine::tick() {
  if (!params_.is_slot_start(now())) return; // kReference never dispatches us; belt and braces
  const tdm::Slot slot = params_.slot_of_cycle(now());
  ticked_.clear();
  for (const Item& it : items_) {
    if (it.ni != nullptr) {
      if (it.ni->slot_quiet(slot)) continue;
      kernel().set_stage_key(*it.ni); // its trace() records merge at its own index
      it.ni->slot_tick(slot);
      ticked_.push_back(it.ni);
    } else {
      RouterLane& ln = routers_[it.lane];
      bool any_in = false;
      for (std::uint32_t i = 0; i < ln.nin && !any_in; ++i) {
        any_in = ln.inputs[i] != nullptr && ln.inputs[i]->get().valid;
      }
      if (!any_in && ln.valid_out == 0) continue; // idle neighbourhood: skip whole element
      tick_router(ln, slot);
      ticked_.push_back(ln.r);
    }
  }
}

void SlotEngine::commit() {
  sim::Component::commit(); // the engine owns no registers; kept for symmetry
  for (sim::Component* c : ticked_) commit_on_behalf(*c);
  ticked_.clear();
}

bool SlotEngine::quiescent() const {
  for (const Item& it : items_) {
    const sim::Component* c =
        it.ni != nullptr ? static_cast<const sim::Component*>(it.ni) : routers_[it.lane].r;
    if (!c->quiescent()) return false;
  }
  return true;
}

} // namespace daelite::hw
