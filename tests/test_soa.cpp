// SoA batched slot dispatch: hw::SlotEngine and the rebindable slot
// tables it pools (tdm/slot_table.hpp, daelite/slot_engine.hpp).
//
// enable_soa() must be a pure wall-clock optimization: byte-identical
// reports, traces, counters, and delivery timing across the SoA default,
// the per-component stride path and the per-cycle reference oracle.
// These tests pin that property:
//   * slot-table mechanics: the O(1) used-count and per-slot output
//     masks stay exact across set/clear, rebinding into a pool preserves
//     contents and later writes, copies re-own their storage;
//   * randomized scenario property: seeded random meshes and connection
//     sets produce identical NetworkReport JSON across the default SoA
//     dispatch, the component path, and the per-cycle reference oracle;
//   * external-write timing into SoA-skipped NIs (host pushes during
//     idle stretches must still commit on the same edge);
//   * multicast-heavy delivery logs, word for word and cycle for cycle;
//   * fault-injected runs (the injector corrupts links around the
//     engine's skip logic — valid bits can only be cleared, so skipping
//     stays exact);
//   * a link killed mid-run with recovery armed: the injector, health
//     monitor and mid-run re-route run in the serial set around the
//     engine, and detection, verdicts and the repaired route must not
//     move by a cycle;
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
#include "alloc/dimension.hpp"
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

  TestNet(int w, int h, std::uint32_t slots, bool soa) {
    mesh = topo::make_mesh(w, h);
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(slots);
    opt.cfg_root = mesh.ni(0, 0);
    net = std::make_unique<DaeliteNetwork>(kernel, mesh.topo, opt);
    if (soa) {
      EXPECT_TRUE(net->enable_soa());
    }
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
DeliveryLog run_unicast(bool soa) {
  TestNet t(4, 4, 8, soa);
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
  const DeliveryLog component = run_unicast(false);
  ASSERT_FALSE(component.empty());
  const DeliveryLog soa = run_unicast(true);
  ASSERT_EQ(soa.size(), component.size());
  for (std::size_t i = 0; i < component.size(); ++i) {
    EXPECT_EQ(soa[i].first, component[i].first) << "word " << i;
    EXPECT_EQ(soa[i].second, component[i].second) << "arrival cycle of word " << i;
  }
}

// --- Multicast-heavy delivery ------------------------------------------------------

/// A 3-destination multicast whose route tree fans across the mesh, plus
/// a unicast sharing links with it — the regime where two router outputs
/// forward the same input in the same slot.
std::vector<DeliveryLog> run_multicast(bool soa) {
  TestNet t(4, 4, 16, soa);
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
  const std::vector<DeliveryLog> component = run_multicast(false);
  for (const DeliveryLog& log : component) ASSERT_FALSE(log.empty());
  const std::vector<DeliveryLog> soa = run_multicast(true);
  ASSERT_EQ(soa.size(), component.size());
  for (std::size_t d = 0; d < component.size(); ++d) {
    ASSERT_EQ(soa[d].size(), component[d].size()) << "destination " << d;
    for (std::size_t i = 0; i < component[d].size(); ++i) {
      EXPECT_EQ(soa[d][i].first, component[d][i].first) << "dst " << d << " word " << i;
      EXPECT_EQ(soa[d][i].second, component[d][i].second) << "dst " << d << " word " << i;
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

std::string run_report(const soc::Scenario& sc, Dispatch dispatch,
                       const sim::FaultPlan* plan = nullptr, std::string* error = nullptr,
                       bool recover = false) {
  soc::RunSpec spec;
  spec.label = "soa-prop";
  spec.scenario = sc;
  if (dispatch == Dispatch::kStride) spec.soa = false;
  if (dispatch == Dispatch::kReference) spec.scheduler = sim::Scheduler::kReference;
  if (plan != nullptr) spec.fault_plan = *plan;
  spec.recovery.enabled = recover;
  const analysis::NetworkReport rep = soc::run_scenario(spec);
  if (error != nullptr) *error = rep.error;
  return rep.to_json().dump(2);
}

TEST(SlotEngine, RandomizedReportsIdenticalAcrossDispatchModes) {
  int meaningful = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const soc::Scenario sc = random_scenario(seed);
    std::string error;
    const std::string base = run_report(sc, Dispatch::kStride, nullptr, &error);
    if (!error.empty()) continue; // a draw the allocator cannot schedule
    ++meaningful;
    EXPECT_EQ(run_report(sc, Dispatch::kReference), base) << "seed " << seed;
    EXPECT_EQ(run_report(sc, Dispatch::kSoA), base) << "seed " << seed;
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
  const std::string base = run_report(sc, Dispatch::kStride, &plan, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(run_report(sc, Dispatch::kReference, &plan), base);
  EXPECT_EQ(run_report(sc, Dispatch::kSoA, &plan), base);
}

// --- Link kill with recovery around the engine --------------------------------------

/// Four corner-to-opposite-corner connections on a 4x4 mesh.
soc::Scenario corner_scenario() {
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = 4;
  sc.height = 4;
  sc.slots = 16;
  sc.host = {2, 2};
  sc.run_cycles = 12000;
  const std::pair<int, int> corners[4] = {{0, 0}, {3, 0}, {0, 3}, {3, 3}};
  for (int i = 0; i < 4; ++i) {
    soc::Scenario::RawConnection c;
    c.name = "corner" + std::to_string(i);
    c.src = corners[i];
    c.dsts.push_back(corners[3 - i]);
    c.bandwidth = 100.0;
    sc.raw.push_back(std::move(c));
  }
  return sc;
}

TEST(SlotEngine, RecoveryReportsIdenticalAcrossDispatchModes) {
  // Kill the middle link of the first connection's route (found by
  // replaying the deterministic dimensioning) mid-run with recovery armed:
  // the fault injector, health monitor, quarantine and mid-run re-route
  // all run in the kernel's serial set around the engine — detection
  // cycles, verdicts and the repaired route must not move by a cycle.
  soc::Scenario sc = corner_scenario();
  topo::Mesh mesh = sc.build();
  const auto dim = alloc::dimension_network(mesh.topo, sc.connections,
                                            alloc::NocClocking{sc.clock_mhz, 4}, {*sc.slots});
  ASSERT_TRUE(dim.has_value());
  const auto& edges = dim->allocation.connections.front().request.edges;

  sim::FaultPlan plan;
  plan.seed = 42;
  sim::FaultDirective kill;
  kill.kind = sim::FaultDirective::Kind::kKill;
  kill.cls = sim::FaultClass::kData;
  kill.line_index = static_cast<std::int64_t>(edges[edges.size() / 2].link);
  kill.from = 4000;
  kill.to = sim::kNoCycle;
  plan.directives.push_back(kill);

  std::string error;
  const std::string base = run_report(sc, Dispatch::kStride, &plan, &error, /*recover=*/true);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_NE(base.find("\"restored\": true"), std::string::npos);
  EXPECT_EQ(run_report(sc, Dispatch::kSoA, &plan, nullptr, true), base);
  EXPECT_EQ(run_report(sc, Dispatch::kReference, &plan, nullptr, true), base);
}

// --- Trace identity ----------------------------------------------------------------

TEST(SlotEngine, TracesMergeIdenticallyUnderSoA) {
  // The engine relays router records through Kernel::trace_as and NI
  // records through the staged buffer keyed by the element's registration
  // index — the merged stream must match the component path record for
  // record, including interned name ids.
  const auto run_traced = [](bool soa) {
    sim::Tracer tracer;
    {
      TestNet t(4, 4, 8, soa);
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

  const auto component = run_traced(false);
  ASSERT_FALSE(component.empty());
  const auto soa = run_traced(true);
  ASSERT_EQ(soa.size(), component.size());
  for (std::size_t i = 0; i < component.size(); ++i) {
    EXPECT_EQ(soa[i].first, component[i].first) << "record " << i;
    EXPECT_EQ(soa[i].second.cycle, component[i].second.cycle) << "record " << i;
    EXPECT_EQ(soa[i].second.comp, component[i].second.comp) << "record " << i;
    EXPECT_EQ(soa[i].second.event, component[i].second.event) << "record " << i;
    EXPECT_EQ(soa[i].second.arg0, component[i].second.arg0) << "record " << i;
    EXPECT_EQ(soa[i].second.arg1, component[i].second.arg1) << "record " << i;
  }
}

} // namespace
