// SoA batched slot dispatch: hw::SlotEngine and the rebindable slot
// tables it pools (tdm/slot_table.hpp, daelite/slot_engine.hpp).
//
// enable_soa() must be a pure wall-clock optimization, exactly like
// sharding: byte-identical reports, traces, counters, and delivery
// timing at every (scheduler, shards, soa) combination. These tests pin
// that property:
//   * slot-table mechanics: the O(1) used-count and per-slot output
//     masks stay exact across set/clear, rebinding into a pool preserves
//     contents and later writes, copies re-own their storage;
//   * randomized scenario property: seeded random meshes and connection
//     sets produce identical NetworkReport JSON across the default SoA
//     dispatch, the component path, shard counts 1/2/4, and the
//     per-cycle reference oracle;
//   * external-write timing into SoA-skipped NIs (host pushes during
//     idle stretches must still commit on the same edge);
//   * multicast-heavy delivery logs, word for word and cycle for cycle;
//   * fault-injected runs (the injector corrupts links around the
//     engine's skip logic — valid bits can only be cleared, so skipping
//     stays exact);
//   * full trace streams merge identically (records AND interned ids);
//   * enable_soa() refuses under the reference scheduler, which ignores
//     suspension and would double-dispatch the covered elements.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/trace.hpp"
#include "soc/runner.hpp"
#include "tdm/slot_table.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

// --- Slot-table mechanics ----------------------------------------------------------

TEST(RouterSlotTableSoA, UsedCountAndMasksStayExact) {
  tdm::RouterSlotTable t(4, 8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.out_mask(3), 0u);

  t.set(0, 3, 2);
  t.set(1, 3, 2); // multicast: two outputs, same input, same slot
  t.set(2, 5, 0);
  EXPECT_EQ(t.used_entries(), 3u);
  EXPECT_EQ(t.out_mask(3), 0b0011u);
  EXPECT_EQ(t.out_mask(5), 0b0100u);

  t.set(0, 3, 1);                  // overwrite used -> used: count unchanged
  EXPECT_EQ(t.used_entries(), 3u);
  t.clear(1, 3);
  EXPECT_EQ(t.used_entries(), 2u);
  EXPECT_EQ(t.out_mask(3), 0b0001u);
  t.clear(1, 3);                   // double clear: no underflow
  EXPECT_EQ(t.used_entries(), 2u);
  t.clear(0, 3);
  t.clear(2, 5);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.out_mask(3), 0u);
  EXPECT_EQ(t.out_mask(5), 0u);
}

TEST(RouterSlotTableSoA, RebindPreservesContentsAndWritesThrough) {
  tdm::RouterSlotTable t(3, 8);
  t.set(0, 1, 2);
  t.set(2, 6, 1);

  std::vector<tdm::PortIndex> entries(3 * 8, tdm::kUnusedPort);
  std::vector<std::uint8_t> masks(8, 0);
  t.rebind(entries.data(), masks.data());

  EXPECT_EQ(t.input_for(0, 1), 2);
  EXPECT_EQ(t.input_for(2, 6), 1);
  EXPECT_EQ(t.used_entries(), 2u);
  EXPECT_EQ(masks[1], 0b001u); // the pool IS the live storage now
  EXPECT_EQ(entries[2 * 8 + 6], 1);

  t.set(1, 4, 0);
  EXPECT_EQ(entries[1 * 8 + 4], 0);
  EXPECT_EQ(masks[4], 0b010u);
  t.clear(0, 1);
  EXPECT_EQ(entries[0 * 8 + 1], tdm::kUnusedPort);
  EXPECT_EQ(masks[1], 0u);
  EXPECT_EQ(t.used_entries(), 2u);
}

TEST(RouterSlotTableSoA, CopiesOfReboundTableReOwnStorage) {
  tdm::RouterSlotTable t(2, 4);
  std::vector<tdm::PortIndex> entries(2 * 4, tdm::kUnusedPort);
  std::vector<std::uint8_t> masks(4, 0);
  t.rebind(entries.data(), masks.data());
  t.set(0, 2, 1);

  tdm::RouterSlotTable copy = t;
  copy.set(1, 3, 0);
  // The copy's write must not leak into the original's pool.
  EXPECT_EQ(entries[1 * 4 + 3], tdm::kUnusedPort);
  EXPECT_EQ(t.used_entries(), 1u);
  EXPECT_EQ(copy.used_entries(), 2u);
  EXPECT_EQ(copy.input_for(0, 2), 1);
}

TEST(NiSlotTableSoA, RebindPreservesContentsAndWritesThrough) {
  tdm::NiSlotTable t(8);
  t.set_tx(2, 5);
  t.set_rx(6, 1);

  std::vector<tdm::ChannelId> tx(8, tdm::kNoChannel);
  std::vector<tdm::ChannelId> rx(8, tdm::kNoChannel);
  t.rebind(tx.data(), rx.data());

  EXPECT_EQ(t.tx_channel(2), 5u);
  EXPECT_EQ(t.rx_channel(6), 1u);
  EXPECT_EQ(tx[2], 5u);
  t.set_rx(3, 2);
  EXPECT_EQ(rx[3], 2u);
  t.clear_channel(5);
  EXPECT_EQ(tx[2], tdm::kNoChannel);
  EXPECT_EQ(t.tx_slot_count(5), 0u);
}

// --- Network scaffolding -----------------------------------------------------------

struct TestNet {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<DaeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  TestNet(int w, int h, std::uint32_t slots, std::uint32_t shards, bool soa) {
    mesh = topo::make_mesh(w, h);
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(slots);
    opt.cfg_root = mesh.ni(0, 0);
    net = std::make_unique<DaeliteNetwork>(kernel, mesh.topo, opt);
    if (shards > 1) net->assign_shards(shards);
    if (soa) EXPECT_TRUE(net->enable_soa());
    alloc = std::make_unique<alloc::SlotAllocator>(mesh.topo, opt.tdm);
  }

  alloc::AllocatedConnection connect(topo::NodeId src, std::vector<topo::NodeId> dsts,
                                     std::uint32_t req_slots, std::uint32_t resp_slots = 1) {
    alloc::UseCase uc;
    uc.connections.push_back({"c", src, std::move(dsts), req_slots, resp_slots});
    auto a = alloc::allocate_use_case(*alloc, uc);
    EXPECT_TRUE(a.has_value());
    return a->connections[0];
  }
};

/// Word-by-word delivery log of one destination: (payload, arrival cycle).
using DeliveryLog = std::vector<std::pair<std::uint32_t, sim::Cycle>>;

// --- Refusal under the reference scheduler -----------------------------------------

TEST(SlotEngine, RefusesUnderReferenceSchedulerAndIsIdempotent) {
  topo::Mesh mesh = topo::make_mesh(3, 3);
  DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(8);
  opt.cfg_root = mesh.ni(0, 0);
  {
    sim::Kernel k(sim::Scheduler::kReference);
    DaeliteNetwork net(k, mesh.topo, opt);
    EXPECT_FALSE(net.enable_soa());
    EXPECT_FALSE(net.soa_enabled());
  }
  {
    sim::Kernel k(sim::Scheduler::kStride);
    DaeliteNetwork net(k, mesh.topo, opt);
    EXPECT_TRUE(net.enable_soa());
    EXPECT_TRUE(net.soa_enabled());
    EXPECT_TRUE(net.enable_soa()); // idempotent: no second engine set
  }
}

// --- External-write timing into skipped NIs ----------------------------------------

/// Corner-to-corner unicast with an irregular host push pattern: pushes
/// land on slot starts, mid-slot cycles, and long idle stretches where
/// the SoA engine is skipping the source NI outright — the kernel's
/// touched pass must still commit those queue writes on the same edge.
DeliveryLog run_unicast(std::uint32_t shards, bool soa) {
  TestNet t(4, 4, 8, shards, soa);
  const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2, 1);
  const auto h = t.net->open_connection(conn);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& src = t.net->ni(h.conn.request.src_ni);
  Ni& dst = t.net->ni(h.conn.request.dst_nis[0]);
  DeliveryLog log;
  std::uint32_t next = 1000;
  for (int c = 0; c < 4000; ++c) {
    if (c % 7 == 0 || c % 13 == 4) {
      if (src.tx_push(h.src_tx_q, next)) ++next;
    }
    t.kernel.step();
    while (auto w = dst.rx_pop(h.dst_rx_qs[0])) log.push_back({*w, t.kernel.now()});
  }
  return log;
}

TEST(SlotEngine, ExternalWritesIntoSkippedNisAreCycleExact) {
  const DeliveryLog component = run_unicast(1, false);
  ASSERT_FALSE(component.empty());
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    const DeliveryLog soa = run_unicast(shards, true);
    ASSERT_EQ(soa.size(), component.size()) << shards << " shards";
    for (std::size_t i = 0; i < component.size(); ++i) {
      EXPECT_EQ(soa[i].first, component[i].first) << "word " << i << ", " << shards << " shards";
      EXPECT_EQ(soa[i].second, component[i].second)
          << "arrival cycle of word " << i << ", " << shards << " shards";
    }
  }
}

// --- Multicast-heavy delivery ------------------------------------------------------

/// A 3-destination multicast whose route tree fans across the mesh, plus
/// a unicast sharing links with it — the regime where two router outputs
/// forward the same input in the same slot.
std::vector<DeliveryLog> run_multicast(std::uint32_t shards, bool soa) {
  TestNet t(4, 4, 16, shards, soa);
  const auto mc = t.connect(t.mesh.ni(0, 0),
                            {t.mesh.ni(3, 1), t.mesh.ni(0, 2), t.mesh.ni(3, 3)}, 2,
                            /*resp_slots=*/0);
  const auto uc = t.connect(t.mesh.ni(3, 0), {t.mesh.ni(0, 3)}, 2, 1);
  const auto hm = t.net->open_connection(mc);
  const auto hu = t.net->open_connection(uc);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& msrc = t.net->ni(hm.conn.request.src_ni);
  Ni& usrc = t.net->ni(hu.conn.request.src_ni);
  std::vector<DeliveryLog> logs(hm.conn.request.dst_nis.size() + 1);
  std::uint32_t next = 5000;
  for (int c = 0; c < 3000; ++c) {
    if (c % 3 == 0 && msrc.tx_push(hm.src_tx_q, next)) ++next;
    if (c % 5 == 1 && usrc.tx_push(hu.src_tx_q, next + 100000)) ++next;
    t.kernel.step();
    for (std::size_t d = 0; d + 1 < logs.size(); ++d) {
      Ni& dst = t.net->ni(hm.conn.request.dst_nis[d]);
      while (auto w = dst.rx_pop(hm.dst_rx_qs[d])) logs[d].push_back({*w, t.kernel.now()});
    }
    Ni& udst = t.net->ni(hu.conn.request.dst_nis[0]);
    while (auto w = udst.rx_pop(hu.dst_rx_qs[0])) logs.back().push_back({*w, t.kernel.now()});
  }
  return logs;
}

TEST(SlotEngine, MulticastHeavyDeliveryIsIdentical) {
  const std::vector<DeliveryLog> component = run_multicast(1, false);
  for (const DeliveryLog& log : component) ASSERT_FALSE(log.empty());
  for (std::uint32_t shards : {1u, 4u}) {
    const std::vector<DeliveryLog> soa = run_multicast(shards, true);
    ASSERT_EQ(soa.size(), component.size());
    for (std::size_t d = 0; d < component.size(); ++d) {
      ASSERT_EQ(soa[d].size(), component[d].size()) << "destination " << d;
      for (std::size_t i = 0; i < component[d].size(); ++i) {
        EXPECT_EQ(soa[d][i].first, component[d][i].first) << "dst " << d << " word " << i;
        EXPECT_EQ(soa[d][i].second, component[d][i].second) << "dst " << d << " word " << i;
      }
    }
  }
}

// --- Randomized scenario property --------------------------------------------------

soc::Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = pick(3, 5);
  sc.height = pick(3, 4);
  sc.slots = pick(0, 1) != 0 ? 32u : 16u;
  sc.host = {sc.width / 2, sc.height / 2};
  sc.run_cycles = 5000;
  const auto coord = [&] {
    return std::pair<int, int>{pick(0, sc.width - 1), pick(0, sc.height - 1)};
  };
  const int nconn = pick(3, 5);
  for (int i = 0; i < nconn; ++i) {
    soc::Scenario::RawConnection c;
    c.name = "r" + std::to_string(i);
    c.src = coord();
    const int ndst = i == 0 ? pick(2, 3) : 1; // first connection multicasts
    while (static_cast<int>(c.dsts.size()) < ndst) {
      const auto d = coord();
      if (d != c.src && std::find(c.dsts.begin(), c.dsts.end(), d) == c.dsts.end())
        c.dsts.push_back(d);
    }
    c.bandwidth = 20.0 + 10.0 * pick(0, 2);
    sc.raw.push_back(std::move(c));
  }
  return sc;
}

/// The three dispatch paths of `--scheduler`. kSoA leaves the RunSpec at
/// its default (SoA) dispatch; kStride names the component path
/// explicitly; kReference keeps the default soa flag, which the per-cycle
/// oracle must ignore.
enum class Dispatch { kSoA, kStride, kReference };

TEST(SlotEngine, RunSpecDefaultsToSoADispatch) {
  const soc::RunSpec spec;
  EXPECT_TRUE(spec.soa);
  EXPECT_EQ(spec.scheduler, sim::Scheduler::kStride);
}

std::string run_report(const soc::Scenario& sc, Dispatch dispatch, std::uint32_t shards,
                       const sim::FaultPlan* plan = nullptr, std::string* error = nullptr) {
  soc::RunSpec spec;
  spec.label = "soa-prop";
  spec.scenario = sc;
  if (dispatch == Dispatch::kStride) spec.soa = false;
  if (dispatch == Dispatch::kReference) spec.scheduler = sim::Scheduler::kReference;
  spec.shards = shards;
  if (plan != nullptr) spec.fault_plan = *plan;
  const analysis::NetworkReport rep = soc::run_scenario(spec);
  if (error != nullptr) *error = rep.error;
  return rep.to_json().dump(2);
}

TEST(SlotEngine, RandomizedReportsIdenticalAcrossDispatchModes) {
  int meaningful = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const soc::Scenario sc = random_scenario(seed);
    std::string error;
    const std::string base = run_report(sc, Dispatch::kStride, 1, nullptr, &error);
    if (!error.empty()) continue; // a draw the allocator cannot schedule
    ++meaningful;
    EXPECT_EQ(run_report(sc, Dispatch::kReference, 1), base) << "seed " << seed;
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      EXPECT_EQ(run_report(sc, Dispatch::kSoA, shards), base)
          << "seed " << seed << ", " << shards << " shards";
    }
  }
  // The draws are deterministic, so this is a stable floor, not flakiness.
  EXPECT_GE(meaningful, 4);
}

// --- Fault injection around the skip logic -----------------------------------------

TEST(SlotEngine, FaultInjectedReportsIdenticalAcrossDispatchModes) {
  // Random per-word corruption on every data/config link: the injector
  // rewrites committed register values after the engine's commit, so the
  // per-lane valid-output superset must stay a superset (faults can only
  // clear valid bits, never set them).
  const soc::Scenario sc = random_scenario(7);
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.rate = 0.002;
  std::string error;
  const std::string base = run_report(sc, Dispatch::kStride, 1, &plan, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(run_report(sc, Dispatch::kReference, 1, &plan), base);
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(run_report(sc, Dispatch::kSoA, shards, &plan), base)
        << shards << " shards";
  }
}

// --- Trace identity ----------------------------------------------------------------

TEST(SlotEngine, TracesMergeIdenticallyUnderSoA) {
  // The engine relays router records through Kernel::trace_as and NI
  // records through the staged buffer keyed by the element's registration
  // index — the merged stream must match the component path record for
  // record, including interned name ids.
  const auto run_traced = [](std::uint32_t shards, bool soa) {
    sim::Tracer tracer;
    {
      TestNet t(4, 4, 8, shards, soa);
      t.kernel.set_tracer(&tracer);
      const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2, 1);
      const auto h = t.net->open_connection(conn);
      EXPECT_NE(t.net->run_config(), sim::kNoCycle);
      Ni& src = t.net->ni(h.conn.request.src_ni);
      Ni& dst = t.net->ni(h.conn.request.dst_nis[0]);
      for (int c = 0; c < 1500; ++c) {
        while (src.tx_push(h.src_tx_q, 1)) {
        }
        t.kernel.step();
        while (dst.rx_pop(h.dst_rx_qs[0])) {
        }
      }
    }
    std::vector<std::pair<std::string, sim::TraceRecord>> named;
    tracer.for_each([&](const sim::TraceRecord& r) { named.push_back({tracer.name(r.comp), r}); });
    return named;
  };

  const auto component = run_traced(1, false);
  ASSERT_FALSE(component.empty());
  for (std::uint32_t shards : {1u, 4u}) {
    const auto soa = run_traced(shards, true);
    ASSERT_EQ(soa.size(), component.size()) << shards << " shards";
    for (std::size_t i = 0; i < component.size(); ++i) {
      EXPECT_EQ(soa[i].first, component[i].first) << "record " << i;
      EXPECT_EQ(soa[i].second.cycle, component[i].second.cycle) << "record " << i;
      EXPECT_EQ(soa[i].second.comp, component[i].second.comp) << "record " << i;
      EXPECT_EQ(soa[i].second.event, component[i].second.event) << "record " << i;
      EXPECT_EQ(soa[i].second.arg0, component[i].second.arg0) << "record " << i;
      EXPECT_EQ(soa[i].second.arg1, component[i].second.arg1) << "record " << i;
    }
  }
}

} // namespace
