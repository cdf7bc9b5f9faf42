#include "soc/runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/dimension.hpp"
#include "alloc/switching.hpp"
#include "daelite/network.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "soc/health.hpp"
#include "workload/dnn.hpp"

namespace daelite::soc {

namespace {

/// Runner-side state machine of one connection's self-healing.
struct ConnRecovery {
  enum class Phase {
    kHealthy,        ///< delivering (or not yet touched by a fault)
    kReconfiguring,  ///< tear-down + set-up stream in flight
    kWaiting,        ///< reconfigured; waiting for delivery to every dst
    kDead,           ///< repair failed — connection abandoned, queues freed
  };
  Phase phase = Phase::kHealthy;
  std::size_t event = 0;       ///< index into report.recovery.events
  sim::Cycle detected = 0;
  std::uint64_t abort_base = 0; ///< config-module abort count at repair start
  std::vector<std::uint64_t> delivered_baseline;
  /// Integrity accounting that survives queue re-binding: totals saved
  /// from closed incarnations plus per-destination baselines of the
  /// current queue binding (a reused queue id keeps its old counters).
  std::uint64_t saved_corrupt = 0;
  std::uint64_t saved_lost = 0;
  std::vector<std::uint64_t> base_corrupt;
  std::vector<std::uint64_t> base_lost;
  std::uint64_t alarm_base = 0; ///< integrity total already acted upon
};

std::string topology_name(const Scenario& sc) {
  switch (sc.kind) {
    case Scenario::TopologyKind::kMesh:
      return "mesh " + std::to_string(sc.width) + "x" + std::to_string(sc.height);
    case Scenario::TopologyKind::kTorus:
      return "torus " + std::to_string(sc.width) + "x" + std::to_string(sc.height);
    case Scenario::TopologyKind::kRing:
      return "ring " + std::to_string(sc.width);
  }
  return "?";
}

/// Build the run's network on `kernel`, the same way for both pipelines:
/// attach the tracer, apply the watchdog overrides, switch to SoA dispatch
/// unless the spec selects the component path, then call the on_network
/// hook. SoA comes before the hook, and both before the injector and
/// monitor the caller adds, so those commit after the engine each cycle.
std::unique_ptr<hw::DaeliteNetwork> build_network(sim::Kernel& kernel, const RunSpec& spec,
                                                  const Scenario& sc, const topo::Mesh& mesh,
                                                  const tdm::TdmParams& params,
                                                  std::size_t min_ni_channels) {
  kernel.set_tracer(spec.tracer);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = params;
  opt.cfg_root = mesh.ni(sc.host.first, sc.host.second);
  opt.ni_channels = std::max(opt.ni_channels, min_ni_channels);
  if (spec.watchdog_retries) opt.cfg_max_retries = *spec.watchdog_retries;
  opt.cfg_timeout_mult = spec.watchdog_timeout_mult;
  auto net = std::make_unique<hw::DaeliteNetwork>(kernel, mesh.topo, opt);
  if (spec.soa) net->enable_soa();
  if (spec.on_network) spec.on_network(kernel, *net);
  return net;
}

/// Fill the report's hardware-counter tail once the run is over: the
/// reserved links of `schedule` with the slots a valid flit actually
/// crossed them (the upstream element's per-output counter — NI link
/// counter for the first hop, router forwarded_on for the rest) out of
/// `slots_elapsed`, the drop and health counters, and the energy price.
void fill_hw_counters(analysis::NetworkReport& report, const Scenario& sc,
                      const topo::Mesh& mesh, hw::DaeliteNetwork& net,
                      const tdm::Schedule& schedule, std::uint64_t slots_elapsed) {
  const auto busy_slots = [&](const topo::Link& link) {
    return mesh.topo.is_router(link.src) ? net.router(link.src).forwarded_on(link.src_port)
                                         : net.ni(link.src).stats().link_busy_slots;
  };
  report.schedule = analysis::summarize_schedule(mesh.topo, schedule);
  report.links = analysis::link_usage(mesh.topo, schedule);
  report.links.erase(std::find_if(report.links.begin(), report.links.end(),
                                  [](const analysis::LinkUsage& u) { return u.reserved == 0; }),
                     report.links.end());
  for (analysis::LinkUsage& u : report.links) {
    u.busy_slots = busy_slots(mesh.topo.link(u.link));
    u.slots_elapsed = slots_elapsed;
  }

  report.router_drops = net.total_router_drops();
  report.ni_drops = net.total_ni_drops();
  report.rx_overflow = net.total_rx_overflow();
  report.health.protocol_errors = net.total_protocol_errors();
  report.health.cfg_errors = net.total_cfg_errors();
  report.health.timeouts = net.config_module().timeouts();
  report.health.retries = net.config_module().retries();
  report.health.aborted = net.config_module().aborted();
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n) {
    if (!mesh.topo.is_ni(n)) continue;
    const hw::Ni& ni = net.ni(n);
    for (std::size_t q = 0; q < net.options().ni_channels; ++q) {
      report.health.words_sent += ni.tx_stats(q).words_sent;
      report.health.words_delivered += ni.rx_stats(q).words_received;
    }
  }
  report.health.corrupt_words = net.total_corrupt_words();
  report.health.lost_words = net.total_lost_words();

  // Price the run: word-link-crossings, words through the declared
  // DRAM-port NIs, and configuration words streamed. Only when the
  // scenario enabled a model, keeping older reports byte-identical.
  if (!sc.energy.enabled) return;
  report.energy.enabled = true;
  report.energy.model = sc.energy;
  for (topo::LinkId l = 0; l < mesh.topo.link_count(); ++l)
    report.energy.link_flit_hops += busy_slots(mesh.topo.link(l));
  for (const auto& d : sc.dram) {
    const hw::Ni& ni = net.ni(mesh.ni(d.first, d.second));
    for (std::size_t q = 0; q < net.options().ni_channels; ++q) {
      report.energy.dram_words += ni.tx_stats(q).words_sent;
      report.energy.dram_words += ni.rx_stats(q).words_received;
    }
  }
  report.energy.config_words = net.config_module().words_sent();
}

/// Execute a compiled DNN schedule: open layer 0, then per layer a
/// use-case switch through the broadcast tree (layer-invariant weight
/// broadcasts are kept streaming; rotating ifmap/ofmap connections are
/// torn down and set up) followed by a bounded streaming phase that
/// drives the layer's word volumes to completion.
void run_dnn_scenario(const RunSpec& spec, Scenario& sc, topo::Mesh& mesh,
                      analysis::NetworkReport& report) {
  if (spec.fault_plan.enabled() || spec.recovery.enabled) {
    report.error = "dnn scenarios do not support fault injection or recovery";
    return;
  }
  std::string why;
  auto wl = workload::compile(*sc.dnn, mesh, sc.dram, &why);
  if (!wl) {
    report.error = "dnn compile failed: " + why;
    return;
  }

  // Like the connection shuffle of plain scenarios: a nonzero seed permutes
  // the order each layer's connections reach the allocator. use_case() is
  // derived from traffic order, so the shuffle moves slot assignment but
  // never desynchronizes the volume bookkeeping.
  if (spec.seed != 0) {
    sim::Xoshiro256 rng(spec.seed);
    for (workload::CompiledLayer& layer : wl->layers)
      for (std::size_t i = layer.traffic.size() - 1; i > 0; --i)
        std::swap(layer.traffic[i], layer.traffic[rng.below(i + 1)]);
  }

  // Wheel-size probe: the whole layer SEQUENCE must fit — layer 0 plus
  // every switch, since kept connections pin their slots across switches —
  // so the probe replays the chain on a scratch allocator.
  const std::vector<std::uint32_t> candidates =
      sc.slots ? std::vector<std::uint32_t>{*sc.slots} : std::vector<std::uint32_t>{8, 16, 32};
  std::optional<tdm::TdmParams> params;
  for (std::uint32_t s : candidates) {
    const tdm::TdmParams p = tdm::daelite_params(s);
    alloc::SlotAllocator probe(mesh.topo, p);
    auto cur = alloc::allocate_use_case(probe, wl->layers[0].use_case(), &why);
    bool fits = cur.has_value();
    for (std::size_t l = 1; fits && l < wl->layers.size(); ++l) {
      auto next =
          alloc::execute_use_case_switch(probe, *cur, wl->layers[l].use_case(), nullptr, &why);
      if (next)
        cur = std::move(*next);
      else
        fits = false;
    }
    if (fits) {
      params = p;
      break;
    }
  }
  if (!params) {
    report.error = "dnn dimensioning failed: " + why;
    return;
  }
  report.slots = params->num_slots;

  // Per-NI queue demand peaks within one layer (tear-down frees its queues
  // before set-up allocates): size the NI channel count to the worst layer.
  std::size_t channels = 0;
  {
    std::map<topo::NodeId, std::size_t> tx, rx;
    for (const workload::CompiledLayer& layer : wl->layers) {
      tx.clear();
      rx.clear();
      for (const workload::CompiledConnection& c : layer.traffic) {
        ++tx[c.spec.src_ni];
        for (topo::NodeId d : c.spec.dst_nis) ++rx[d];
      }
      for (const auto& [n, k] : tx) channels = std::max(channels, k);
      for (const auto& [n, k] : rx) channels = std::max(channels, k);
    }
  }

  sim::Kernel kernel(spec.scheduler);
  const auto net_owner = build_network(kernel, spec, sc, mesh, *params, channels);
  hw::DaeliteNetwork& net = *net_owner;

  sim::Tracer* tr = (spec.tracer != nullptr && spec.tracer->enabled()) ? spec.tracer : nullptr;
  const std::uint32_t scen_id = tr ? tr->intern("scenario") : 0;
  const auto phase_mark = [&](sim::TraceEvent e, std::string_view label) {
    if (tr) tr->record(kernel.now(), scen_id, e, tr->intern(label));
  };

  alloc::SlotAllocator allocator(mesh.topo, *params);
  auto cur = alloc::allocate_use_case(allocator, wl->layers[0].use_case(), &why);
  if (!cur) { // the probe admitted this chain; never dereference blind anyway
    report.error = "dnn allocation diverged from the probe: " + why;
    return;
  }

  std::map<std::string, hw::ConnectionHandle> open;
  const auto run_switch = [&](sim::Cycle* cycles) {
    sim::Cycle c = net.run_config();
    if (c == sim::kNoCycle) {
      report.health.config_ok = false;
      c = kernel.now();
    }
    *cycles = c;
  };

  report.workload.enabled = true;
  report.workload.tiles = static_cast<std::uint32_t>(wl->tiles.size());
  report.workload.dram_ports = static_cast<std::uint32_t>(wl->dram_nis.size());
  report.workload.connections_per_layer =
      static_cast<std::uint32_t>(wl->layers[0].traffic.size());

  // One streaming phase: drive every connection's word budget, draining
  // the sinks each cycle, until every volume arrived at every destination
  // or the per-layer budget (the scenario's `run` cycles) expires.
  const auto stream_layer = [&](const workload::CompiledLayer& layer,
                                analysis::WorkloadLayerOutcome* out) {
    const sim::Cycle start = kernel.now();
    std::vector<std::uint64_t> pushed(layer.traffic.size(), 0);
    std::vector<std::vector<std::uint64_t>> got(layer.traffic.size());
    for (std::size_t i = 0; i < layer.traffic.size(); ++i)
      got[i].assign(layer.traffic[i].spec.dst_nis.size(), 0);
    const auto done = [&] {
      for (std::size_t i = 0; i < layer.traffic.size(); ++i)
        for (std::uint64_t words : got[i])
          if (words < layer.traffic[i].words) return false;
      return true;
    };
    while (!done() && kernel.now() - start < sc.run_cycles) {
      for (std::size_t i = 0; i < layer.traffic.size(); ++i) {
        const workload::CompiledConnection& c = layer.traffic[i];
        const hw::ConnectionHandle& h = open.at(c.spec.name);
        hw::Ni& src = net.ni(c.spec.src_ni);
        while (pushed[i] < c.words &&
               src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(pushed[i] + 1)))
          ++pushed[i];
        for (std::size_t d = 0; d < h.dst_rx_qs.size(); ++d) {
          hw::Ni& dst = net.ni(c.spec.dst_nis[d]);
          while (dst.rx_pop(h.dst_rx_qs[d])) ++got[i][d];
        }
      }
      kernel.step();
    }
    out->stream_cycles = kernel.now() - start;
    out->completed = done();
    for (const auto& per_dst : got)
      for (std::uint64_t words : per_dst) out->words_delivered += words;
  };

  phase_mark(sim::TraceEvent::kPhaseBegin, "configure");
  for (const alloc::AllocatedConnection& c : cur->connections)
    open.emplace(c.spec.name, net.open_connection(c));
  {
    analysis::WorkloadLayerOutcome out;
    out.name = wl->layers[0].name;
    out.set_up = cur->connections.size();
    run_switch(&out.switch_cycles);
    report.cfg_cycles = out.switch_cycles;
    phase_mark(sim::TraceEvent::kPhaseEnd, "configure");
    phase_mark(sim::TraceEvent::kPhaseBegin, "traffic");
    stream_layer(wl->layers[0], &out);
    report.workload.layers.push_back(std::move(out));
  }

  for (std::size_t l = 1; l < wl->layers.size(); ++l) {
    analysis::WorkloadLayerOutcome out;
    out.name = wl->layers[l].name;
    alloc::SwitchPlan plan;
    auto next =
        alloc::execute_use_case_switch(allocator, *cur, wl->layers[l].use_case(), &plan, &why);
    if (!next) {
      report.error = "use-case switch into '" + wl->layers[l].name + "' failed: " + why;
      return;
    }
    cur = std::move(*next);
    out.kept = plan.keep.size();
    out.torn_down = plan.tear_down.size();
    out.set_up = plan.set_up.size();
    // Tear down first so the freed NI queues are available for the new
    // connections (a re-routed "i3" reuses its name with a new source).
    for (const alloc::AllocatedConnection& t : plan.tear_down) {
      net.close_connection(open.at(t.spec.name));
      open.erase(t.spec.name);
    }
    for (const alloc::AllocatedConnection& c : cur->connections)
      if (open.find(c.spec.name) == open.end()) open.emplace(c.spec.name, net.open_connection(c));
    run_switch(&out.switch_cycles);
    stream_layer(wl->layers[l], &out);
    report.workload.layers.push_back(std::move(out));
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "traffic");

  report.workload.total_cycles = kernel.now();
  report.schedule_utilization = cur->schedule_utilization;
  fill_hw_counters(report, sc, mesh, net, allocator.schedule(),
                   kernel.now() / params->words_per_slot);

  bool all_done = true;
  for (const analysis::WorkloadLayerOutcome& lo : report.workload.layers)
    all_done = all_done && lo.completed;
  report.ok = all_done && report.router_drops == 0 && report.ni_drops == 0 &&
              report.rx_overflow == 0 && report.health.config_ok && report.health.aborted == 0;
}

} // namespace

analysis::NetworkReport run_scenario(const RunSpec& spec) {
  analysis::NetworkReport report;
  Scenario sc = spec.scenario;
  if (spec.slots_override) sc.slots = *spec.slots_override;
  if (spec.run_cycles_override) sc.run_cycles = *spec.run_cycles_override;

  report.label = spec.label.empty() ? topology_name(sc) : spec.label;
  report.topology = topology_name(sc);
  report.clock_mhz = sc.clock_mhz;
  report.seed = spec.seed;
  report.run_cycles = sc.run_cycles;

  // Scenario coordinates come from user-written files; reject anything
  // outside the grid before build() indexes with them.
  const int grid_h = sc.kind == Scenario::TopologyKind::kRing ? 1 : sc.height;
  const auto in_grid = [&](const std::pair<int, int>& c) {
    return c.first >= 0 && c.first < sc.width && c.second >= 0 && c.second < grid_h;
  };
  const auto coord_error = [&](const std::string& what, const std::pair<int, int>& c) {
    report.error = what + ": coordinate " + std::to_string(c.first) + "," +
                   std::to_string(c.second) + " outside " + topology_name(sc);
  };
  if (!in_grid(sc.host)) {
    coord_error("host", sc.host);
    return report;
  }
  for (const Scenario::RawConnection& c : sc.raw) {
    if (!in_grid(c.src)) {
      coord_error("connection '" + c.name + "'", c.src);
      return report;
    }
    for (const auto& d : c.dsts) {
      if (!in_grid(d)) {
        coord_error("connection '" + c.name + "'", d);
        return report;
      }
    }
  }
  for (const auto& d : sc.dram) {
    if (!in_grid(d)) {
      coord_error("dram port", d);
      return report;
    }
  }

  topo::Mesh mesh = sc.build();

  if (sc.dnn) {
    run_dnn_scenario(spec, sc, mesh, report);
    return report;
  }

  // A nonzero seed permutes the order connections reach the allocator
  // (Fisher–Yates over the spec list) — slot assignment is greedy and
  // order-dependent, so this is a real design-space axis.
  if (spec.seed != 0 && sc.connections.size() > 1) {
    sim::Xoshiro256 rng(spec.seed);
    for (std::size_t i = sc.connections.size() - 1; i > 0; --i)
      std::swap(sc.connections[i], sc.connections[rng.below(i + 1)]);
  }

  const alloc::NocClocking clk{sc.clock_mhz, 4};
  const std::vector<std::uint32_t> candidates =
      sc.slots ? std::vector<std::uint32_t>{*sc.slots} : std::vector<std::uint32_t>{8, 16, 32};
  std::string error;
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, clk, candidates, &error);
  if (!dim) {
    report.error = "dimensioning failed: " + error;
    return report;
  }
  report.slots = dim->params.num_slots;
  report.schedule_utilization = dim->schedule_utilization;

  // The `service` section exists only for QoS-aware runs: a declared
  // non-default class, or recovery running with preemption/compaction.
  // Everything else stays byte-identical to pre-service builds.
  bool any_class = false;
  for (const alloc::DimensionedConnection& d : dim->connections)
    any_class = any_class || d.spec.service_class != alloc::ServiceClass::kStandard;
  report.service.enabled =
      any_class || (spec.recovery.enabled && (spec.recovery.preempt_best_effort ||
                                              spec.recovery.compact_after_recovery));
  for (const alloc::DimensionedConnection& d : dim->connections)
    ++report.service.per_class[static_cast<std::size_t>(d.spec.service_class)].connections;

  sim::Kernel kernel(spec.scheduler);
  const auto net_owner = build_network(kernel, spec, sc, mesh, dim->params, 0);
  hw::DaeliteNetwork& net = *net_owner;

  // The injector is constructed after every network element so it commits
  // last each cycle (it corrupts freshly committed link values). Absent a
  // plan nothing is constructed and the run is byte-identical to a
  // pre-fault-injection build.
  std::optional<sim::FaultInjector> injector;
  if (spec.fault_plan.enabled()) {
    injector.emplace(kernel, "fault", spec.fault_plan);
    net.attach_fault_lines(*injector);
  }

  // The health monitor is constructed after the injector so its commit()
  // runs last and observes the corrupted values downstream consumers will
  // read. Without recovery nothing is constructed and the run is
  // byte-identical to a build without the subsystem.
  std::optional<HealthMonitor> monitor;
  if (spec.recovery.enabled) {
    HealthMonitor::Options mo;
    mo.epoch_cycles = spec.recovery.epoch_cycles;
    mo.suspect_threshold = spec.recovery.suspect_threshold;
    mo.dead_threshold = spec.recovery.dead_threshold;
    monitor.emplace(kernel, "health", net, mo);
  }

  // Phase spans: the runner's own coarse timeline on top of the per-element
  // event stream (the config module emits the per-connection set-up spans).
  sim::Tracer* tr = (spec.tracer != nullptr && spec.tracer->enabled()) ? spec.tracer : nullptr;
  const std::uint32_t scen_id = tr ? tr->intern("scenario") : 0;
  const auto phase_mark = [&](sim::TraceEvent e, std::string_view label) {
    if (tr) tr->record(kernel.now(), scen_id, e, tr->intern(label));
  };

  phase_mark(sim::TraceEvent::kPhaseBegin, "configure");
  std::vector<hw::ConnectionHandle> handles;
  for (const auto& c : dim->allocation.connections) handles.push_back(net.open_connection(c));
  if (injector) {
    // One verification read per connection: under faults the response path
    // (and the module's watchdog) is part of what set-up time measures.
    for (const hw::ConnectionHandle& h : handles) {
      net.config_module().enqueue_packet(
          hw::encode_read_flags(net.cfg_ids().at(h.conn.request.src_ni), h.src_tx_q),
          /*is_path=*/false, /*expects_response=*/true);
    }
  }
  report.cfg_cycles = net.run_config();
  if (report.cfg_cycles == sim::kNoCycle) {
    // The stream never converged (possible only with the watchdog off).
    // Keep going — partial configuration is itself the observable — but
    // flag it so ok == false and the health section says why.
    report.health.config_ok = false;
    report.cfg_cycles = kernel.now();
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "configure");
  phase_mark(sim::TraceEvent::kPhaseBegin, "traffic");

  // Live allocator mirror for recovery: the dimensioned allocation
  // restored route by route, so mid-run re-allocation sees the real
  // residual capacity and hands out ChannelIds that alias nothing.
  std::optional<alloc::SlotAllocator> live;
  if (spec.recovery.enabled) {
    live.emplace(mesh.topo, dim->params);
    for (const auto& c : dim->allocation.connections) {
      live->restore(c.request);
      if (c.has_response) live->restore(c.response);
    }
  }

  // Open-loop pacing for `stream` connections: offer `burst` words every
  // `period` cycles (optionally gated through a seeded on/off process like
  // BurstyWriter) instead of saturating the source. period == 0 keeps the
  // saturated loop, so legacy scenarios stay byte-identical.
  struct Pacer {
    std::uint32_t period = 0;
    std::uint32_t burst = 1;
    bool bursty = false;
    bool on = true;
    sim::Xoshiro256 rng;
    std::uint64_t owed = 0;    ///< offered but not yet accepted by the NI
    std::uint64_t offered = 0; ///< total words the source wanted to send
  };
  std::vector<Pacer> pacers(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const alloc::PhysicalConnectionSpec& ps = dim->connections[i].spec;
    pacers[i].period = ps.stream_period;
    pacers[i].burst = ps.stream_burst;
    if (ps.bursty_seed != 0) {
      pacers[i].bursty = true;
      pacers[i].on = false;
      pacers[i].rng.reseed(ps.bursty_seed);
    }
  }

  // Saturated traffic: sources push as fast as the NI accepts, sinks drain
  // every cycle; delivered words per destination measure achieved bandwidth.
  std::vector<std::vector<std::uint64_t>> delivered(handles.size());
  std::vector<ConnRecovery> rec(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const std::size_t dsts = handles[i].conn.request.dst_nis.size();
    delivered[i].assign(dsts, 0);
    rec[i].base_corrupt.assign(dsts, 0);
    rec[i].base_lost.assign(dsts, 0);
  }

  // Cumulative end-to-end integrity verdicts of one connection's
  // destinations, robust to queue re-binding across repairs.
  const auto integrity_total = [&](std::size_t i) {
    std::uint64_t total = rec[i].saved_corrupt + rec[i].saved_lost;
    if (rec[i].phase == ConnRecovery::Phase::kDead) return total; // queues freed
    for (std::size_t d = 0; d < delivered[i].size(); ++d) {
      const auto& rs =
          net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
      total += rs.corrupt_words - rec[i].base_corrupt[d];
      total += rs.lost_words - rec[i].base_lost[d];
    }
    return total;
  };
  const auto route_links = [&](std::size_t i) {
    std::vector<topo::LinkId> links;
    for (const alloc::RouteEdge& e : handles[i].conn.request.edges) links.push_back(e.link);
    if (handles[i].conn.has_response)
      for (const alloc::RouteEdge& e : handles[i].conn.response.edges) links.push_back(e.link);
    return links;
  };
  const std::uint32_t rec_id = tr ? tr->intern("recovery") : 0;

  // Drain and account a dying incarnation, then close it at the hardware
  // level: stale words must not fake a "restored" verdict, and the freed
  // queues' integrity counters survive into the per-connection totals.
  // Allocator bookkeeping (release) is the caller's job.
  const auto retire_incarnation = [&](std::size_t j) {
    ConnRecovery& stj = rec[j];
    for (std::size_t d = 0; d < delivered[j].size(); ++d) {
      hw::Ni& dst = net.ni(handles[j].conn.request.dst_nis[d]);
      while (dst.rx_pop(handles[j].dst_rx_qs[d])) ++delivered[j][d];
      const auto& rs = dst.rx_stats(handles[j].dst_rx_qs[d]);
      stj.saved_corrupt += rs.corrupt_words - stj.base_corrupt[d];
      stj.saved_lost += rs.lost_words - stj.base_lost[d];
    }
    net.close_connection(handles[j]);
  };

  // A recovery wave ran: run one compaction pass once the config stream is
  // idle again (only with compact_after_recovery).
  bool compact_pending = false;

  // Tear the connection down and re-set it up around the quarantine while
  // traffic keeps flowing: the set-up stream rides the broadcast tree, so
  // repair cost scales with path length, not slot count (the paper's
  // fast-set-up argument replayed as fast *recovery*).
  const auto start_recovery = [&](std::size_t i, topo::LinkId link, const char* trigger,
                                  sim::Cycle detect_cycle) {
    ConnRecovery& st = rec[i];
    if (spec.recovery.compact_after_recovery) compact_pending = true;
    analysis::RecoveryEvent ev;
    ev.connection = dim->connections[i].spec.name;
    ev.link = link;
    ev.trigger = trigger;
    ev.detected_cycle = detect_cycle;
    ev.hops_before = static_cast<std::uint32_t>(handles[i].conn.request.edges.size());

    retire_incarnation(i);
    live->release(handles[i].conn.request);
    if (handles[i].conn.has_response) live->release(handles[i].conn.response);

    const alloc::ConnectionSpec& cs = handles[i].conn.spec;
    const bool want_resp = handles[i].conn.has_response;
    const auto try_allocate = [&](std::optional<alloc::RouteTree>* req,
                                  std::optional<alloc::RouteTree>* resp) {
      *req = live->allocate({cs.src_ni, cs.dst_nis, cs.request_slots, cs.service_class});
      if (*req && want_resp) {
        *resp = live->allocate({cs.dst_nis[0], {cs.src_ni}, cs.response_slots, cs.service_class});
        if (!*resp) {
          live->release(**req);
          req->reset();
        }
      }
    };
    std::optional<alloc::RouteTree> new_req;
    std::optional<alloc::RouteTree> new_resp;
    try_allocate(&new_req, &new_resp);

    // Preemptive healing: a guaranteed connection squeezed out by the
    // quarantine may tear down best-effort traffic along a min-victims
    // candidate path instead of going dead.
    if (!new_req && spec.recovery.preempt_best_effort && cs.dst_nis.size() == 1 &&
        cs.service_class == alloc::ServiceClass::kGuaranteed) {
      std::unordered_map<tdm::ChannelId, std::size_t> owner;
      for (std::size_t j = 0; j < handles.size(); ++j) {
        if (j == i || rec[j].phase != ConnRecovery::Phase::kHealthy) continue;
        if (handles[j].conn.spec.service_class != alloc::ServiceClass::kBestEffort) continue;
        owner.emplace(handles[j].conn.request.channel, j);
        if (handles[j].conn.has_response) owner.emplace(handles[j].conn.response.channel, j);
      }
      const auto preemptable = [&](tdm::ChannelId ch) { return owner.count(ch) != 0; };
      // Two rounds: the request channel's plan may leave the response
      // channel still blocked.
      for (int round = 0; round < 2 && !new_req; ++round) {
        auto plan = live->plan_preemption(
            {cs.src_ni, cs.dst_nis, cs.request_slots, cs.service_class}, preemptable);
        if ((!plan || plan->victims.empty()) && want_resp)
          plan = live->plan_preemption(
              {cs.dst_nis[0], {cs.src_ni}, cs.response_slots, cs.service_class}, preemptable);
        if (!plan || plan->victims.empty()) break;
        std::vector<std::size_t> victims;
        for (tdm::ChannelId ch : plan->victims) victims.push_back(owner.at(ch));
        std::sort(victims.begin(), victims.end());
        victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
        for (std::size_t j : victims) {
          retire_incarnation(j);
          live->release(handles[j].conn.request);
          if (handles[j].conn.has_response) live->release(handles[j].conn.response);
          owner.erase(handles[j].conn.request.channel);
          if (handles[j].conn.has_response) owner.erase(handles[j].conn.response.channel);
          rec[j].phase = ConnRecovery::Phase::kDead;
          ++report.service.per_class[static_cast<std::size_t>(alloc::ServiceClass::kBestEffort)]
                .preempted;
        }
        ++report.service.preemption_events;
        if (tr)
          tr->record(kernel.now(), rec_id, sim::TraceEvent::kPreemptBegin,
                     report.recovery.events.size(), victims.size());
        try_allocate(&new_req, &new_resp);
      }
    }

    st.event = report.recovery.events.size();
    st.detected = detect_cycle;
    st.alarm_base = st.saved_corrupt + st.saved_lost;
    if (!new_req) {
      // No route around the quarantine: the connection stays down.
      st.phase = ConnRecovery::Phase::kDead;
      report.recovery.events.push_back(std::move(ev));
      return;
    }
    alloc::AllocatedConnection nc;
    nc.id = handles[i].conn.id;
    nc.spec = cs;
    nc.request = std::move(*new_req);
    nc.has_response = want_resp;
    if (want_resp) nc.response = std::move(*new_resp);
    ev.hops_after = static_cast<std::uint32_t>(nc.request.edges.size());
    handles[i] = net.open_connection(nc);
    for (std::size_t d = 0; d < delivered[i].size(); ++d) {
      const auto& rs =
          net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
      rec[i].base_corrupt[d] = rs.corrupt_words;
      rec[i].base_lost[d] = rs.lost_words;
    }
    st.phase = ConnRecovery::Phase::kReconfiguring;
    st.abort_base = net.config_module().aborted();
    if (tr) tr->record(kernel.now(), rec_id, sim::TraceEvent::kRecoveryBegin, st.event, link);
    report.recovery.events.push_back(std::move(ev));
  };

  // Slot compaction after a recovery wave: re-pack live standard and
  // best-effort connections under kFirstFit, keeping a move only when it
  // strictly lowers the (highest inject slot, route edges) packing score.
  // Close-before-open at both the allocator and the hardware level — an
  // accepted move rides the same reconfigure/wait machinery as a repair
  // (trigger "compaction"); guaranteed channels are never touched.
  const auto packing_score = [](const alloc::RouteTree& req, const alloc::RouteTree* resp) {
    std::uint32_t hi = 0;
    std::size_t edges = req.edges.size();
    for (tdm::Slot s : req.inject_slots) hi = std::max<std::uint32_t>(hi, s);
    if (resp) {
      for (tdm::Slot s : resp->inject_slots) hi = std::max<std::uint32_t>(hi, s);
      edges += resp->edges.size();
    }
    return std::make_pair(hi, edges);
  };
  const auto fnv = [](std::uint64_t& h, std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  const auto compaction_pass = [&]() {
    const alloc::SlotPolicy saved_policy = live->options().slot_policy;
    live->set_slot_policy(alloc::SlotPolicy::kFirstFit);
    std::uint64_t moves = 0;
    std::uint64_t pass_digest = 14695981039346656037ull;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (rec[i].phase != ConnRecovery::Phase::kHealthy) continue;
      const alloc::ConnectionSpec& cs = handles[i].conn.spec;
      if (cs.service_class == alloc::ServiceClass::kGuaranteed) continue;
      const alloc::RouteTree old_req = handles[i].conn.request;
      const bool want_resp = handles[i].conn.has_response;
      const alloc::RouteTree old_resp = handles[i].conn.response;
      // Allocator-only trial first, so rejected moves never touch the
      // hardware (close + identical reopen would cost config-stream time).
      live->release(old_req);
      if (want_resp) live->release(old_resp);
      auto new_req = live->allocate({cs.src_ni, cs.dst_nis, cs.request_slots, cs.service_class});
      std::optional<alloc::RouteTree> new_resp;
      if (new_req && want_resp) {
        new_resp = live->allocate({cs.dst_nis[0], {cs.src_ni}, cs.response_slots, cs.service_class});
        if (!new_resp) {
          live->release(*new_req);
          new_req.reset();
        }
      }
      const bool better = new_req && packing_score(*new_req, new_resp ? &*new_resp : nullptr) <
                                         packing_score(old_req, want_resp ? &old_resp : nullptr);
      if (!better) {
        if (new_resp) live->release(*new_resp);
        if (new_req) live->release(*new_req);
        // The old slots were just freed, so restore cannot fail.
        live->restore(old_req);
        if (want_resp) live->restore(old_resp);
        continue;
      }
      retire_incarnation(i);
      alloc::AllocatedConnection nc;
      nc.id = handles[i].conn.id;
      nc.spec = cs;
      nc.request = std::move(*new_req);
      nc.has_response = want_resp;
      if (want_resp) nc.response = std::move(*new_resp);
      analysis::RecoveryEvent ev;
      ev.connection = dim->connections[i].spec.name;
      ev.trigger = "compaction";
      ev.detected_cycle = kernel.now();
      ev.hops_before = static_cast<std::uint32_t>(old_req.edges.size());
      ev.hops_after = static_cast<std::uint32_t>(nc.request.edges.size());
      ConnRecovery& st = rec[i];
      st.event = report.recovery.events.size();
      st.detected = kernel.now();
      st.abort_base = net.config_module().aborted();
      handles[i] = net.open_connection(nc);
      for (std::size_t d = 0; d < delivered[i].size(); ++d) {
        const auto& rs =
            net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
        st.base_corrupt[d] = rs.corrupt_words;
        st.base_lost[d] = rs.lost_words;
      }
      st.phase = ConnRecovery::Phase::kReconfiguring;
      report.recovery.events.push_back(std::move(ev));
      ++moves;
      fnv(pass_digest, i);
      for (tdm::Slot s : old_req.inject_slots) fnv(pass_digest, s);
      for (tdm::Slot s : handles[i].conn.request.inject_slots) fnv(pass_digest, s);
    }
    live->set_slot_policy(saved_policy);
    ++report.service.compaction_passes;
    report.service.compaction_moves += moves;
    fnv(report.service.compaction_digest, pass_digest);
    if (tr)
      tr->record(kernel.now(), rec_id, sim::TraceEvent::kCompactionPass, moves, pass_digest);
  };

  // Post-step recovery poll: collect verdicts, quarantine, repair, and
  // advance in-flight repairs. Pure bookkeeping on committed kernel state,
  // so it is identical under both schedulers and any --jobs count.
  const auto poll_recovery = [&]() {
    for (const DeadLinkEvent& de : monitor->take_dead_events()) {
      report.recovery.dead_links.push_back({de.link, de.cycle, de.evidence});
      live->quarantine_link(de.link);
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (rec[i].phase != ConnRecovery::Phase::kHealthy) continue;
        const auto links = route_links(i);
        if (std::find(links.begin(), links.end(), de.link) != links.end())
          start_recovery(i, de.link, "link_dead", de.cycle);
      }
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      ConnRecovery& st = rec[i];
      switch (st.phase) {
        case ConnRecovery::Phase::kHealthy: {
          // End-to-end integrity alarm: repair even without a dead-link
          // verdict, provided the monitor can pin a suspect on the route.
          if (integrity_total(i) - st.alarm_base < spec.recovery.integrity_threshold) break;
          const auto suspects = monitor->suspects_among(route_links(i));
          if (suspects.empty()) break; // not localizable (yet)
          for (topo::LinkId l : suspects)
            if (!live->is_quarantined(l)) live->quarantine_link(l);
          start_recovery(i, suspects.front(), "integrity", kernel.now());
          break;
        }
        case ConnRecovery::Phase::kReconfiguring: {
          analysis::RecoveryEvent& ev = report.recovery.events[st.event];
          if (net.config_module().aborted() > st.abort_base ||
              kernel.now() - st.detected > spec.recovery.reconfig_timeout) {
            st.phase = ConnRecovery::Phase::kDead; // watchdog gave up on the stream
          } else if (net.config_idle()) {
            ev.reconfigured_cycle = kernel.now();
            st.delivered_baseline = delivered[i];
            st.phase = ConnRecovery::Phase::kWaiting;
          }
          break;
        }
        case ConnRecovery::Phase::kWaiting: {
          bool all = true;
          for (std::size_t d = 0; d < delivered[i].size(); ++d)
            all = all && delivered[i][d] > st.delivered_baseline[d];
          if (!all) break;
          analysis::RecoveryEvent& ev = report.recovery.events[st.event];
          ev.restored = true;
          ev.restored_cycle = kernel.now();
          st.alarm_base = integrity_total(i); // words lost mid-repair are acted upon
          if (tr)
            tr->record(kernel.now(), rec_id, sim::TraceEvent::kRecoveryEnd, st.event,
                       ev.restored_cycle - ev.detected_cycle);
          st.phase = ConnRecovery::Phase::kHealthy;
          break;
        }
        case ConnRecovery::Phase::kDead:
          break;
      }
    }
  };

  for (sim::Cycle c = 0; c < sc.run_cycles; ++c) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (rec[i].phase == ConnRecovery::Phase::kDead) continue; // queues freed
      hw::Ni& src = net.ni(handles[i].conn.request.src_ni);
      Pacer& p = pacers[i];
      if (p.period == 0) {
        while (src.tx_push(handles[i].src_tx_q, 1)) {
        }
      } else {
        if (c % p.period == 0) {
          if (p.bursty) {
            if (p.on) {
              if (p.rng.chance(0.10)) p.on = false; // BurstyWriter's p_stop
            } else if (p.rng.chance(0.05)) {
              p.on = true; // BurstyWriter's p_start
            }
          }
          if (p.on) {
            p.owed += p.burst;
            p.offered += p.burst;
          }
        }
        while (p.owed > 0 && src.tx_push(handles[i].src_tx_q, 1)) --p.owed;
      }
      for (std::size_t d = 0; d < delivered[i].size(); ++d) {
        hw::Ni& dst = net.ni(handles[i].conn.request.dst_nis[d]);
        while (dst.rx_pop(handles[i].dst_rx_qs[d])) ++delivered[i][d];
      }
    }
    kernel.step();
    if (monitor) {
      poll_recovery();
      if (compact_pending) {
        // Wait for every in-flight repair to settle and the config stream
        // to drain, so the pass sees a stable allocator and an idle tree.
        bool busy = !net.config_idle();
        for (const ConnRecovery& st : rec)
          busy = busy || st.phase == ConnRecovery::Phase::kReconfiguring ||
                 st.phase == ConnRecovery::Phase::kWaiting;
        if (!busy) {
          compact_pending = false;
          compaction_pass();
        }
      }
    }
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "traffic");

  bool all_met = true;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    std::uint64_t min_words = delivered[i].empty() ? 0 : delivered[i][0];
    for (auto w : delivered[i]) min_words = std::min(min_words, w);
    const double mbps = static_cast<double>(min_words) / static_cast<double>(sc.run_cycles) *
                        clk.link_mbytes_per_s();
    analysis::ConnectionOutcome out;
    out.name = dim->connections[i].spec.name;
    out.request_slots = dim->connections[i].request_slots;
    out.response_slots = dim->connections[i].response_slots;
    if (report.service.enabled) {
      const alloc::ServiceClass sc_class = dim->connections[i].spec.service_class;
      out.service_class = std::string(alloc::service_class_name(sc_class));
      if (spec.recovery.enabled && rec[i].phase == ConnRecovery::Phase::kDead)
        ++report.service.per_class[static_cast<std::size_t>(sc_class)].dead;
    }
    out.contract_mbps = dim->connections[i].spec.bandwidth_mbytes_per_s;
    out.measured_mbps = mbps;
    out.worst_latency_ns = dim->connections[i].worst_latency_ns;
    if (pacers[i].period == 0) {
      out.met = mbps + 1.0 >= out.contract_mbps;
    } else {
      // Open-loop source: met when everything offered arrived at every
      // destination, up to the in-flight slack of the NI queues plus one
      // burst still propagating when the run ends.
      out.met = min_words + 64 + pacers[i].burst >= pacers[i].offered;
    }
    all_met = all_met && out.met;
    // Per-connection integrity verdicts; integrity_total() accounts for
    // queue re-binding across repairs (a plain sum would double-count
    // reused queue ids).
    if (spec.recovery.enabled) {
      std::uint64_t corrupt = rec[i].saved_corrupt;
      std::uint64_t lost = rec[i].saved_lost;
      if (rec[i].phase != ConnRecovery::Phase::kDead) {
        for (std::size_t d = 0; d < delivered[i].size(); ++d) {
          const auto& rs =
              net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
          corrupt += rs.corrupt_words - rec[i].base_corrupt[d];
          lost += rs.lost_words - rec[i].base_lost[d];
        }
      }
      out.corrupt_words = corrupt;
      out.lost_words = lost;
    } else {
      for (std::size_t d = 0; d < delivered[i].size(); ++d) {
        const auto& rs =
            net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
        out.corrupt_words += rs.corrupt_words;
        out.lost_words += rs.lost_words;
      }
    }
    // End-to-end latency over every destination queue of the connection.
    for (std::size_t d = 0; d < handles[i].dst_rx_qs.size(); ++d) {
      const hw::Ni& dst = net.ni(handles[i].conn.request.dst_nis[d]);
      out.latency.merge(dst.rx_latency(handles[i].dst_rx_qs[d]));
    }
    report.connections.push_back(std::move(out));
  }

  // The live allocator already tracks post-recovery routes; without
  // recovery, rebuild the dimensioned allocation (identical content — the
  // same restore() sequence).
  alloc::SlotAllocator reporter(mesh.topo, dim->params);
  if (!live) {
    for (const auto& c : dim->allocation.connections) {
      reporter.restore(c.request);
      if (c.has_response) reporter.restore(c.response);
    }
  }
  const tdm::Schedule& final_schedule = live ? live->schedule() : reporter.schedule();
  fill_hw_counters(report, sc, mesh, net, final_schedule,
                   sc.run_cycles / dim->params.words_per_slot);

  report.health.enabled = injector.has_value();
  if (injector) {
    const sim::FaultCounters& fc = injector->counters();
    report.health.faults_injected = fc.injected;
    report.health.words_dropped = fc.dropped;
    report.health.words_flipped = fc.flipped;
    report.health.words_stuck = fc.stuck;
    report.health.words_killed = fc.killed;
  }

  report.recovery.enabled = spec.recovery.enabled;
  if (monitor) {
    report.recovery.missing_flits = monitor->total_missing();
    report.recovery.parity_errors = monitor->total_parity_errors();
    for (topo::LinkId l : live->quarantined_links()) report.recovery.quarantined.push_back(l);
  }
  if (report.service.enabled && spec.recovery.enabled) {
    std::unordered_map<std::string, std::size_t> class_of;
    for (const alloc::DimensionedConnection& d : dim->connections)
      class_of.emplace(d.spec.name, static_cast<std::size_t>(d.spec.service_class));
    for (const analysis::RecoveryEvent& e : report.recovery.events)
      if (e.restored) ++report.service.per_class[class_of.at(e.connection)].recovered;
  }

  report.ok = all_met && report.router_drops == 0 && report.ni_drops == 0 &&
              report.rx_overflow == 0 && report.health.config_ok &&
              report.health.aborted == 0;
  return report;
}

} // namespace daelite::soc
