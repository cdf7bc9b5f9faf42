#pragma once
// Slot tables — the distributed TDM schedule storage.
//
// daelite stores the schedule *inside each router* (paper Fig. 4): for
// every output port and every slot, which input port feeds it (or none).
// Two outputs may name the same input in the same slot — that is exactly
// how multicast works (paper Fig. 7). NIs hold a table governing both
// departures (which channel may inject in a slot) and arrivals (which
// channel queue an arriving flit belongs to) — paper Fig. 5.
//
// Storage can be *rebound* into an external structure-of-arrays pool
// (hw::SlotEngine): the table keeps its public API, but entries live in
// one flat allocation shared by every router of the engine, so the
// batched slot loop walks contiguous memory instead of chasing per-router
// vectors. A freshly constructed table owns its storage; rebind() copies
// the current contents into the pool and drops the owned backing.

#include <cassert>
#include <cstdint>
#include <vector>

#include "tdm/ids.hpp"
#include "tdm/params.hpp"

namespace daelite::tdm {

using PortIndex = std::uint8_t;
inline constexpr PortIndex kUnusedPort = 0xFF;

/// Per-router table: input_for(output, slot).
///
/// Alongside the entries it maintains two derived views kept exact on
/// every set()/clear():
///  - used_: the number of (output, slot) entries in use, so
///    used_entries()/empty() are O(1) instead of an O(outputs*slots)
///    scan (they sit on config-apply and recovery paths);
///  - masks_[slot]: bit o set iff entry (o, slot) is in use, letting a
///    batched dispatcher skip a router's whole slot with one byte test.
class RouterSlotTable {
 public:
  RouterSlotTable() = default;
  RouterSlotTable(std::size_t num_outputs, std::uint32_t num_slots)
      : num_slots_(num_slots),
        num_outputs_(num_outputs),
        owned_entries_(num_outputs * num_slots, kUnusedPort),
        owned_masks_(num_slots, 0) {
    entries_ = owned_entries_.data();
    masks_ = owned_masks_.data();
  }

  // Copies (and moves) always land in self-owned storage: a pool binding
  // belongs to the original table's engine, never to a copy.
  RouterSlotTable(const RouterSlotTable& o) { copy_from(o); }
  RouterSlotTable& operator=(const RouterSlotTable& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  RouterSlotTable(RouterSlotTable&& o) noexcept { copy_from(o); }
  RouterSlotTable& operator=(RouterSlotTable&& o) noexcept {
    if (this != &o) copy_from(o);
    return *this;
  }

  std::uint32_t num_slots() const { return num_slots_; }
  std::size_t num_outputs() const { return num_outputs_; }

  PortIndex input_for(std::size_t output, Slot slot) const {
    return entries_[output * num_slots_ + slot];
  }

  void set(std::size_t output, Slot slot, PortIndex input) {
    PortIndex& e = entries_[output * num_slots_ + slot];
    const bool was = e != kUnusedPort;
    const bool now = input != kUnusedPort;
    if (was != now) {
      if (now)
        ++used_;
      else
        --used_;
    }
    e = input;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << output);
    if (now)
      masks_[slot] |= bit;
    else
      masks_[slot] = static_cast<std::uint8_t>(masks_[slot] & ~bit);
  }
  void clear(std::size_t output, Slot slot) { set(output, slot, kUnusedPort); }

  /// Number of (output, slot) entries currently in use. O(1); checked
  /// against a full scan in Debug builds.
  std::size_t used_entries() const {
    assert(used_ == scan_used_entries());
    return used_;
  }

  /// True if no entry is set. O(1).
  bool empty() const { return used_entries() == 0; }

  /// Bit o set iff output o forwards in `slot`. 0 == nothing scheduled.
  std::uint8_t out_mask(Slot slot) const { return masks_[slot]; }

  /// Re-home the entries and per-slot masks into caller-provided storage
  /// (entries: num_outputs()*num_slots() PortIndex; masks: num_slots()
  /// bytes). Current contents are copied over; the table writes through
  /// the new storage from then on.
  void rebind(PortIndex* entries, std::uint8_t* masks);

 private:
  void copy_from(const RouterSlotTable& o);
  std::size_t scan_used_entries() const;

  std::uint32_t num_slots_ = 0;
  std::size_t num_outputs_ = 0;
  std::size_t used_ = 0;
  PortIndex* entries_ = nullptr;
  std::uint8_t* masks_ = nullptr;
  std::vector<PortIndex> owned_entries_;
  std::vector<std::uint8_t> owned_masks_;
};

/// Per-NI table: which channel may inject in each slot (tx) and which
/// channel an arrival in each slot belongs to (rx). Like the router
/// table, the tx/rx arrays can be rebound into an external pool.
class NiSlotTable {
 public:
  NiSlotTable() = default;
  explicit NiSlotTable(std::uint32_t num_slots)
      : num_slots_(num_slots),
        owned_tx_(num_slots, kNoChannel),
        owned_rx_(num_slots, kNoChannel) {
    tx_ = owned_tx_.data();
    rx_ = owned_rx_.data();
  }

  NiSlotTable(const NiSlotTable& o) { copy_from(o); }
  NiSlotTable& operator=(const NiSlotTable& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  NiSlotTable(NiSlotTable&& o) noexcept { copy_from(o); }
  NiSlotTable& operator=(NiSlotTable&& o) noexcept {
    if (this != &o) copy_from(o);
    return *this;
  }

  std::uint32_t num_slots() const { return num_slots_; }

  ChannelId tx_channel(Slot slot) const { return tx_[slot]; }
  ChannelId rx_channel(Slot slot) const { return rx_[slot]; }
  void set_tx(Slot slot, ChannelId ch) { tx_[slot] = ch; }
  void set_rx(Slot slot, ChannelId ch) { rx_[slot] = ch; }
  void clear_tx(Slot slot) { tx_[slot] = kNoChannel; }
  void clear_rx(Slot slot) { rx_[slot] = kNoChannel; }

  /// Remove every tx/rx entry that names `ch` (tear-down helper).
  void clear_channel(ChannelId ch);

  std::size_t tx_slot_count(ChannelId ch) const;
  std::size_t rx_slot_count(ChannelId ch) const;

  /// Re-home the tx/rx arrays into caller-provided storage (num_slots()
  /// ChannelId each). Current contents are copied over.
  void rebind(ChannelId* tx, ChannelId* rx);

 private:
  void copy_from(const NiSlotTable& o);

  std::uint32_t num_slots_ = 0;
  ChannelId* tx_ = nullptr;
  ChannelId* rx_ = nullptr;
  std::vector<ChannelId> owned_tx_;
  std::vector<ChannelId> owned_rx_;
};

} // namespace daelite::tdm
