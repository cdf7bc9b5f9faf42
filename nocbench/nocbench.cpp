// nocbench: the repository's end-to-end and per-layer benchmark driver.
//
//   nocbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Workloads (see README.md for why each exists):
//   mesh_traffic   12x12 scenario, saturated traffic through soc::run_scenario
//   dnn_switch     8x8 DNN schedule, 8 short layers, use-case switch chain
//   churn_online   8x8 open-loop set-up / tear-down / modify stream, one call at a time
//   degraded_heal  8x8 mixed-class scenario, link kills, recovery + preemption + compaction
//
// Every run repeats short rounds of work until --seconds is used up and
// reports medians over the rounds, scaled to a reference machine speed (see
// gauge_s). Simulated figures must repeat exactly across rounds and across
// runs of the same seed (checked against <out>/simulated.txt). --trace 1 reports the
// per-layer metrics instead, from spans the driver records around its own
// calls into each layer; it never feeds the end-to-end numbers.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only if every correctness check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/churn.hpp"
#include "alloc/dimension.hpp"
#include "alloc/switching.hpp"
#include "analysis/network_report.hpp"
#include "analysis/setup_time.hpp"
#include "daelite/network.hpp"
#include "inputs.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "sim/trace_sink.hpp"
#include "soc/runner.hpp"
#include "soc/scenario.hpp"
#include "spans.hpp"
#include "topology/generators.hpp"
#include "topology/path.hpp"
#include "workload/dnn.hpp"

#ifndef NOCBENCH_BUILD_TYPE
#define NOCBENCH_BUILD_TYPE "unknown"
#endif

using namespace daelite;

namespace nocbench {
namespace {

// --- Build refusal -------------------------------------------------------------

/// Non-empty: why this binary must not be timed. A Debug build runs a
/// from-scratch cross-check on every incremental allocator decision, and
/// sanitizers change every cost, so either would time a different program.
std::string instrumented_build() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
#if defined(_GLIBCXX_ASSERTIONS) || defined(_GLIBCXX_DEBUG)
  return "libstdc++ assertions are enabled";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is enabled";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "a sanitizer is enabled";
#endif
#endif
  return {};
}

// --- Statistics over the driver's own raw samples -------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0,1]) of raw samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Peak RSS of this process image. VmHWM starts afresh at exec, unlike
/// getrusage's ru_maxrss, which keeps the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// --- Machine-speed gauge --------------------------------------------------------------
//
// On a shared host the speed of the same code drifts by ±15 % over minutes
// (neighbours, frequency), far more than the bounds a regression gate needs.
// A fixed loop, independent of the program under test, is timed at every
// round boundary; each round's host times are scaled by kGaugeRefS over the
// mean of the two readings around it, i.e. reported in seconds at the
// reference speed. On a 4-vCPU 2.1 GHz Xeon this cut the spread of 20-round
// medians of the same work from 13 % to 5 %. Program changes cannot move
// the gauge, so they show in full.

constexpr double kGaugeRefS = 0.044; ///< the loop's median on that machine

double gauge_s() {
  static std::vector<std::uint64_t> table(std::size_t(1) << 19); // 4 MiB
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 3000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& e = table[x & (table.size() - 1)];
    acc += e;
    e = acc ^ x;
    acc = (acc & 1) ? acc * 3 + 1 : acc >> 1;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

/// Host-time samples tagged with the round they were taken in.
using Samples = std::vector<std::pair<int, double>>;

/// Median of the samples, each scaled to the reference speed of its round.
double scaled_median(const Samples& samples, const std::vector<double>& scale) {
  std::vector<double> v;
  for (const auto& [round, value] : samples) v.push_back(value * scale[std::size_t(round)]);
  return median(v);
}

/// Repeat `round` in cycles of `cycle` rounds until the budget is spent: at
/// least `min_rounds`, and no cycle is started that would predictably end
/// past the budget. Returns each round's speed scale (see gauge_s).
std::vector<double> run_rounds(double budget_s, int min_rounds, int cycle,
                               const std::function<void(int)>& round) {
  const Clock::time_point start = Clock::now();
  std::vector<double> took, scale;
  double before = gauge_s();
  int n = 0;
  while (n < min_rounds || seconds_between(start, Clock::now()) + median(took) < budget_s) {
    const Clock::time_point t = Clock::now();
    for (int k = 0; k < cycle; ++k) {
      round(n++);
      const double after = gauge_s();
      scale.push_back(2.0 * kGaugeRefS / (before + after));
      before = after;
    }
    took.push_back(seconds_between(t, Clock::now()));
  }
  return scale;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv_route(std::uint64_t& h, const alloc::RouteTree& r) {
  fnv_mix(h, r.channel);
  fnv_mix(h, r.inject_slots.size());
  for (tdm::Slot s : r.inject_slots) fnv_mix(h, s);
  for (const alloc::RouteEdge& e : r.edges) fnv_mix(h, (std::uint64_t(e.link) << 8) | e.depth);
}

bool same_route(const alloc::RouteTree& a, const alloc::RouteTree& b) {
  return a.channel == b.channel && a.edges == b.edges && a.inject_slots == b.inject_slots;
}

// --- Run state -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation produces.
struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;

  Spans spans{false};
  std::vector<Metric> metrics;
  /// Simulated (and other deterministic) figures: must be identical in
  /// every repetition and in every run of the same seed, traced or not.
  std::map<std::string, double> simulated;
  std::vector<std::string> errors;
  std::vector<std::string> notes; ///< printed, not part of the JSON line
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void error(const std::string& e) { errors.push_back(e); }
  /// Record a deterministic figure; a repetition that disagrees is an error.
  void figure(const std::string& name, double value) {
    auto [it, fresh] = simulated.emplace(name, value);
    if (!fresh && !(it->second == value)) {
      std::ostringstream os;
      os.precision(17);
      os << "simulated figure '" << name << "' changed between repetitions: " << it->second
         << " then " << value;
      error(os.str());
    }
  }
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

// --- Per-layer metric table -------------------------------------------------------
//
// Every traced run reports every per-layer metric. A layer the workload does
// not call reports 0 (its call count says so); README.md lists which
// workload drives which layer and the end-to-end metric each should move.

const char* const kChurnKinds[] = {"uc_setup_ok", "uc_setup_reject", "mc_setup_ok",
                                   "mc_setup_reject", "teardown", "modify_ok", "modify_fail"};
constexpr std::size_t kChurnKindCount = 7;

struct LayerFigures {
  double path_search_s = 0, path_searches = 0;
  double dimension_s = 0, switch_s = 0;
  struct Kind {
    double count = 0, us_p50 = 0, us_p99 = 0, total_s = 0;
  };
  Kind churn[kChurnKindCount];
  double final_utilization = 0, fragmentation = 0, admit_ratio = 0;
  double compile_s = 0;
  double build_s = 0, cfg_cycles = 0, config_words = 0, switch_p50 = 0, switch_max = 0;
  double node_cycles_per_s[4] = {0, 0, 0, 0}; ///< reference, stride, soa, soa_shards2
  double configure_cycles = 0, traffic_cycles = 0;
  double fault_overhead = 0, tracer_overhead = 0, trace_export_s = 0;
  double recovery_events = 0, detect_to_restore_mean = 0, detect_to_restore_max = 0,
         preempted = 0, compaction_moves = 0,
         dropped_flits = 0;
  double report_json_s = 0, report_bytes = 0, energy_pj = 0;
  double trace_overhead = 0;
};

void put_layers(Run& run, const LayerFigures& f) {
  run.put("topology.path_search_s", f.path_search_s, "s");
  run.put("topology.path_searches", f.path_searches, "count");
  run.put("alloc.dimension_s", f.dimension_s, "s");
  run.put("alloc.switch_s", f.switch_s, "s");
  for (std::size_t k = 0; k < kChurnKindCount; ++k) {
    const std::string p = std::string("alloc.") + kChurnKinds[k];
    run.put(p + ".count", f.churn[k].count, "count");
    run.put(p + ".us_p50", f.churn[k].us_p50, "us");
    run.put(p + ".us_p99", f.churn[k].us_p99, "us");
    run.put(p + ".total_s", f.churn[k].total_s, "s");
  }
  run.put("alloc.final_utilization", f.final_utilization, "1");
  run.put("alloc.fragmentation", f.fragmentation, "1");
  run.put("alloc.admit_ratio", f.admit_ratio, "1");
  run.put("workload.compile_s", f.compile_s, "s");
  run.put("daelite.build_s", f.build_s, "s");
  run.put("daelite.cfg_cycles", f.cfg_cycles, "cycles");
  run.put("daelite.config_words", f.config_words, "count");
  run.put("daelite.switch_cycles_p50", f.switch_p50, "cycles");
  run.put("daelite.switch_cycles_max", f.switch_max, "cycles");
  static const char* const kModes[] = {"reference", "stride", "soa", "soa_shards2"};
  for (int m = 0; m < 4; ++m)
    run.put(std::string("sim.") + kModes[m] + ".node_cycles_per_s", f.node_cycles_per_s[m], "1/s");
  run.put("sim.configure_cycles", f.configure_cycles, "cycles");
  run.put("sim.traffic_cycles", f.traffic_cycles, "cycles");
  run.put("sim.fault_overhead_ratio", f.fault_overhead, "1");
  run.put("sim.tracer_overhead_ratio", f.tracer_overhead, "1");
  run.put("sim.trace_export_s", f.trace_export_s, "s");
  run.put("soc.recovery_events", f.recovery_events, "count");
  run.put("soc.detect_to_restore_cycles_mean", f.detect_to_restore_mean, "cycles");
  run.put("soc.detect_to_restore_cycles_max", f.detect_to_restore_max, "cycles");
  run.put("soc.preempted", f.preempted, "count");
  run.put("soc.compaction_moves", f.compaction_moves, "count");
  run.put("soc.dropped_flits", f.dropped_flits, "count");
  run.put("analysis.report_json_s", f.report_json_s, "s");
  run.put("analysis.report_bytes", f.report_bytes, "bytes");
  run.put("analysis.energy_pj", f.energy_pj, "pJ");
  run.put("bench.trace_overhead_ratio", f.trace_overhead, "1");
}

/// The end-to-end sheet, identical in name and order for every workload.
struct EndToEnd {
  double setup_s = 0, run_s = 0, decision_p99_us = 0, peak_rss_mb = 0;
  double delivered_words_per_cycle = 0, latency_p99_cycles = 0, reconfig_cycles = 0,
         makespan_cycles = 0;
};

void put_end_to_end(Run& run, const EndToEnd& e) {
  run.put("setup_s", e.setup_s, "s");
  run.put("run_s", e.run_s, "s");
  run.put("decision_p99_us", e.decision_p99_us, "us");
  run.put("peak_rss_mb", e.peak_rss_mb, "MB");
  run.put("delivered_words_per_cycle", e.delivered_words_per_cycle, "words/cycle");
  run.put("latency_p99_cycles", e.latency_p99_cycles, "cycles");
  run.put("reconfig_cycles", e.reconfig_cycles, "cycles");
  run.put("makespan_cycles", e.makespan_cycles, "cycles");
}

// --- Simulation workloads (mesh_traffic, dnn_switch, degraded_heal) --------------

struct SimCase {
  std::string scenario_text;
  std::string kill_plan; ///< degraded_heal only
  soc::Scenario scenario;
  topo::Mesh mesh;
  soc::RunSpec base;
  bool dnn = false;
  bool degraded = false;
};

struct SimRound {
  double setup_s = 0, run_s = 0, json_s = 0;
  std::size_t json_bytes = 0;
  analysis::NetworkReport report;
};

/// One run_scenario call, timed from the call to the on_network hook
/// (build, compile, dimension, allocate, instantiate) and from the hook to
/// the serialized report.
SimRound sim_round(const soc::RunSpec& base, Spans& sp) {
  SimRound r;
  soc::RunSpec spec = base;
  Clock::time_point hook{};
  spec.on_network = [&hook](sim::Kernel&, hw::DaeliteNetwork&) { hook = Clock::now(); };
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(sp, "soc.run_scenario");
    r.report = soc::run_scenario(spec);
  }
  const Clock::time_point t1 = Clock::now();
  std::string json;
  {
    Scope s(sp, "analysis.report_json");
    json = r.report.to_json().dump();
  }
  const Clock::time_point t2 = Clock::now();
  if (hook == Clock::time_point{}) hook = t1; // failed before the network existed
  r.setup_s = seconds_between(t0, hook);
  r.run_s = seconds_between(hook, t2);
  r.json_s = seconds_between(t1, t2);
  r.json_bytes = json.size();
  return r;
}

sim::Cycle makespan_of(const analysis::NetworkReport& r) {
  return r.workload.enabled ? r.workload.total_cycles : r.cfg_cycles + r.run_cycles;
}

/// Simulated end-to-end figures of one report, and the correctness checks
/// that go with them. Counts attempted/failed units into `run`.
void sim_figures(Run& run, const SimCase& c, const analysis::NetworkReport& r, EndToEnd* e) {
  if (!r.error.empty()) {
    run.error("run_scenario failed: " + r.error);
    ++run.attempted;
    ++run.failed;
    return;
  }
  const double makespan = double(makespan_of(r));
  std::uint64_t delivered = 0;
  if (c.dnn) {
    for (const auto& l : r.workload.layers) delivered += l.words_delivered;
  } else {
    delivered = r.health.words_delivered;
  }
  e->makespan_cycles = makespan;
  e->delivered_words_per_cycle = makespan > 0 ? double(delivered) / makespan : 0.0;

  if (c.dnn) {
    // A DNN user sees per-layer latency: switch into the layer plus streaming it.
    std::vector<double> layer_cycles;
    double switches = 0;
    for (const auto& l : r.workload.layers) {
      layer_cycles.push_back(double(l.switch_cycles + l.stream_cycles));
      switches += double(l.switch_cycles);
    }
    e->latency_p99_cycles = percentile(layer_cycles, 0.99);
    e->reconfig_cycles = switches;
  } else {
    sim::Histogram merged;
    for (const auto& conn : r.connections) merged.merge(conn.latency);
    e->latency_p99_cycles = double(merged.quantile(0.99));
    // The initial configuration. Heal latency (soc.detect_to_restore_*)
    // depends on which connections a kill hits and spreads 17 % between
    // instances, too much for a bounded end-to-end figure.
    e->reconfig_cycles = double(r.cfg_cycles);
  }

  // Correctness: no drops, configuration converged, and every unit met its
  // contract — connections for plain scenarios, layers for DNN schedules,
  // guaranteed connections (restored where a kill hit them) when degraded.
  // degraded_heal's post-recovery compaction drops flits in flight (a
  // runner defect, see soc.dropped_flits); there only restoration gates.
  if (!c.degraded && (r.router_drops != 0 || r.ni_drops != 0 || r.rx_overflow != 0))
    run.error("dropped flits: router " + std::to_string(r.router_drops) + ", ni " +
              std::to_string(r.ni_drops) + ", rx overflow " + std::to_string(r.rx_overflow));
  if (!r.health.config_ok || r.health.aborted != 0) run.error("configuration did not converge");
  if (c.dnn) {
    for (const auto& l : r.workload.layers) {
      ++run.attempted;
      if (!l.completed) {
        ++run.failed;
        run.error("layer " + l.name + " did not complete");
      }
    }
    if (!r.ok) run.error("report not ok");
  } else if (c.degraded) {
    std::map<std::string, bool> healed;
    for (const auto& ev : r.recovery.events)
      healed[ev.connection] = healed.count(ev.connection) ? healed[ev.connection] && ev.restored
                                                          : ev.restored;
    for (const auto& conn : r.connections) {
      if (conn.service_class != "guaranteed") continue;
      ++run.attempted;
      const auto h = healed.find(conn.name);
      const bool good = h != healed.end() ? h->second : conn.met;
      if (!good) {
        ++run.failed;
        run.error("guaranteed connection " + conn.name + " not restored");
      }
    }
    if (r.recovery.events.empty()) run.error("kill plan triggered no recovery");
  } else {
    for (const auto& conn : r.connections) {
      ++run.attempted;
      if (!conn.met) {
        ++run.failed;
        run.error("connection " + conn.name + " missed its contract");
      }
    }
    if (!r.ok) run.error("report not ok");
  }
}

/// The allocator decisions a sim workload makes, replayed from outside:
/// each channel allocation of the dimensioned use case (plain scenarios),
/// or each layer's use-case switch (DNN schedules).
struct DecisionReplay {
  // Plain scenarios.
  tdm::TdmParams params;
  std::vector<alloc::ChannelSpec> channels;
  std::vector<alloc::RouteTree> expected;
  alloc::UseCaseAllocation allocation;
  std::vector<alloc::PhysicalConnectionSpec> physical;
  // DNN schedules.
  std::optional<workload::CompiledWorkload> compiled;
};

bool prepare_replay(Run& run, SimCase& c, std::uint32_t wheel, DecisionReplay* d) {
  std::string why;
  d->params = tdm::daelite_params(wheel);
  if (c.dnn) {
    d->compiled = workload::compile(*c.scenario.dnn, c.mesh, c.scenario.dram, &why);
    if (!d->compiled) run.error("dnn compile failed: " + why);
    return d->compiled.has_value();
  }
  d->physical = c.scenario.connections;
  const alloc::NocClocking clk{c.scenario.clock_mhz, 4};
  auto dim = alloc::dimension_network(c.mesh.topo, d->physical, clk, {wheel}, &why);
  if (!dim) {
    run.error("dimensioning failed: " + why);
    return false;
  }
  d->allocation = dim->allocation;
  for (const alloc::AllocatedConnection& ac : dim->allocation.connections) {
    alloc::ChannelSpec req;
    req.src_ni = ac.spec.src_ni;
    req.dst_nis = ac.spec.dst_nis;
    req.slots_required = ac.spec.request_slots;
    d->channels.push_back(req);
    d->expected.push_back(ac.request);
    if (ac.has_response) {
      alloc::ChannelSpec resp;
      resp.src_ni = ac.spec.dst_nis[0];
      resp.dst_nis = {ac.spec.src_ni};
      resp.slots_required = ac.spec.response_slots;
      d->channels.push_back(resp);
      d->expected.push_back(ac.response);
    }
  }
  return true;
}

/// One replay; appends per-decision host latencies (µs).
void replay_decisions(Run& run, const SimCase& c, const DecisionReplay& d,
                      std::vector<double>* us) {
  Spans& sp = run.spans;
  Scope s(sp, "alloc.replay");
  alloc::SlotAllocator a(c.mesh.topo, d.params);
  if (c.dnn) {
    auto cur = alloc::allocate_use_case(a, d.compiled->layers[0].use_case());
    if (!cur) {
      run.error("dnn replay: layer 0 does not allocate");
      return;
    }
    for (std::size_t l = 1; l < d.compiled->layers.size(); ++l) {
      const alloc::UseCase next_uc = d.compiled->layers[l].use_case();
      const Clock::time_point t0 = Clock::now();
      auto next = alloc::execute_use_case_switch(a, *cur, next_uc);
      const Clock::time_point t1 = Clock::now();
      sp.add("alloc.execute_use_case_switch", t0, t1);
      us->push_back(1e6 * seconds_between(t0, t1));
      if (!next) {
        run.error("dnn replay: switch into layer " + std::to_string(l) + " failed");
        return;
      }
      cur = std::move(next);
    }
    return;
  }
  for (std::size_t i = 0; i < d.channels.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    auto r = a.allocate(d.channels[i]);
    const Clock::time_point t1 = Clock::now();
    sp.add("alloc.allocate", t0, t1);
    us->push_back(1e6 * seconds_between(t0, t1));
    if (!r || !same_route(*r, d.expected[i])) {
      run.error("allocation replay diverged from dimension_network at channel " +
                std::to_string(i));
      return;
    }
  }
}

/// Unique (src, dst) pairs the workload's allocator searches paths for.
std::vector<std::pair<topo::NodeId, topo::NodeId>> search_pairs(const SimCase& c,
                                                                const DecisionReplay& d) {
  std::set<std::pair<topo::NodeId, topo::NodeId>> pairs;
  const auto add = [&](const alloc::ConnectionSpec& s) {
    for (topo::NodeId dst : s.dst_nis) pairs.insert({s.src_ni, dst});
    if (s.dst_nis.size() == 1 && s.response_slots > 0) pairs.insert({s.dst_nis[0], s.src_ni});
  };
  if (c.dnn) {
    for (const auto& l : d.compiled->layers)
      for (const auto& t : l.traffic) add(t.spec);
  } else {
    for (const auto& ac : d.allocation.connections) add(ac.spec);
  }
  return {pairs.begin(), pairs.end()};
}

/// Seeded probe paths for the fragmentation gauge (shortest paths between
/// random NI pairs, like run_churn's).
std::vector<topo::Path> probe_paths(const topo::Topology& t, std::uint64_t seed) {
  const auto nis = t.nodes_of_kind(topo::NodeKind::kNi);
  sim::Xoshiro256 rng(seed ^ 0x70726f6265ull);
  const topo::PathFinder finder(t);
  std::vector<topo::Path> probes;
  while (probes.size() < 64) {
    const topo::NodeId a = nis[rng.below(nis.size())];
    const topo::NodeId b = nis[rng.below(nis.size())];
    if (a == b) continue;
    topo::Path p = finder.shortest(a, b);
    if (!p.links.empty()) probes.push_back(std::move(p));
  }
  return probes;
}

/// Host seconds of the measured phase of one run_scenario call.
double measured_phase_s(const soc::RunSpec& spec) {
  soc::RunSpec s = spec;
  Clock::time_point hook{};
  s.on_network = [&hook](sim::Kernel&, hw::DaeliteNetwork&) { hook = Clock::now(); };
  (void)soc::run_scenario(s);
  return seconds_between(hook, Clock::now());
}

/// The traced run's layer probes for a sim workload.
void sim_layer_probes(Run& run, SimCase& c, const DecisionReplay& d, const SimRound& first,
                      LayerFigures* f) {
  Spans& sp = run.spans;
  const analysis::NetworkReport& r = first.report;

  {
    Scope s(sp, "topology");
    const auto pairs = search_pairs(c, d);
    alloc::AllocatorOptions inc;
    inc.incremental = true;
    alloc::SlotAllocator a(c.mesh.topo, d.params, inc);
    const Clock::time_point t0 = Clock::now();
    for (const auto& [src, dst] : pairs) (void)a.candidate_paths(src, dst);
    f->path_search_s = seconds_between(t0, Clock::now());
    f->path_searches = double(pairs.size());
  }

  std::optional<alloc::UseCaseAllocation> final_alloc;
  if (c.dnn) {
    Scope s(sp, "workload");
    std::vector<double> compile, chain;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto wl = workload::compile(*c.scenario.dnn, c.mesh, c.scenario.dram);
      compile.push_back(seconds_between(t0, Clock::now()));
      if (!wl) run.error("dnn compile failed in probe");
    }
    f->compile_s = median(compile);
    Scope s2(sp, "alloc.switch_chain");
    for (int i = 0; i < 3; ++i) {
      alloc::SlotAllocator a(c.mesh.topo, d.params);
      const Clock::time_point t0 = Clock::now();
      auto cur = alloc::allocate_use_case(a, d.compiled->layers[0].use_case());
      for (std::size_t l = 1; cur && l < d.compiled->layers.size(); ++l) {
        const alloc::UseCase to = d.compiled->layers[l].use_case();
        const alloc::SwitchPlan plan = alloc::plan_use_case_switch(*cur, to);
        (void)plan;
        cur = alloc::execute_use_case_switch(a, *cur, to);
      }
      chain.push_back(seconds_between(t0, Clock::now()));
      if (!cur) run.error("switch chain replay failed");
      if (i == 0 && cur) final_alloc = *cur;
    }
    f->switch_s = median(chain);
  } else {
    Scope s(sp, "alloc.dimension_network");
    std::vector<double> dim;
    const alloc::NocClocking clk{c.scenario.clock_mhz, 4};
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto res = alloc::dimension_network(c.mesh.topo, d.physical, clk, {d.params.num_slots});
      dim.push_back(seconds_between(t0, Clock::now()));
      if (!res) run.error("dimension_network failed in probe");
    }
    f->dimension_s = median(dim);
    final_alloc = d.allocation;
  }

  f->final_utilization = r.schedule_utilization;
  f->admit_ratio = 1.0; // dimensioning is all-or-nothing; a refusal is an error above
  if (final_alloc) {
    alloc::SlotAllocator mirror(c.mesh.topo, d.params);
    for (const auto& ac : final_alloc->connections) {
      mirror.restore(ac.request);
      if (ac.has_response) mirror.restore(ac.response);
    }
    alloc::ChurnService gauge(mirror);
    f->fragmentation = gauge.sample_fragmentation(probe_paths(c.mesh.topo, run.seed));
  }

  {
    Scope s(sp, "daelite.build");
    std::vector<double> build;
    for (int i = 0; i < 5; ++i) {
      sim::Kernel kernel;
      hw::DaeliteNetwork::Options opt;
      opt.tdm = d.params;
      opt.cfg_root = c.mesh.ni(c.scenario.host.first, c.scenario.host.second);
      const Clock::time_point t0 = Clock::now();
      hw::DaeliteNetwork net(kernel, c.mesh.topo, opt);
      build.push_back(seconds_between(t0, Clock::now()));
    }
    f->build_s = median(build);
  }
  f->cfg_cycles = double(r.cfg_cycles);
  f->config_words = double(r.energy.config_words);
  if (c.dnn) {
    std::vector<double> sw;
    for (const auto& l : r.workload.layers) sw.push_back(double(l.switch_cycles));
    f->switch_p50 = percentile(sw, 0.5);
    f->switch_max = percentile(sw, 1.0);
  } else {
    f->switch_p50 = f->switch_max = double(r.cfg_cycles); // the initial set-up is the one switch
  }

  // Kernel dispatch modes: the instance's scenario without faults, the
  // same RunSpec with only the mode changed, at most two threads. DNN
  // schedules keep their first 2 layers (the reference scheduler is ~20x
  // slower than stride there).
  soc::RunSpec plain = c.base;
  plain.fault_plan = {};
  plain.recovery = {};
  if (c.dnn)
    plain.scenario.dnn->layers.resize(std::min<std::size_t>(2, plain.scenario.dnn->layers.size()));
  {
    Scope s(sp, "sim.modes");
    const double nodes = double(c.mesh.topo.node_count());
    for (int m = 0; m < 4; ++m) {
      soc::RunSpec spec = plain;
      spec.scheduler = m == 0 ? sim::Scheduler::kReference : sim::Scheduler::kStride;
      spec.soa = m >= 2;
      spec.shards = m == 3 ? 2 : 1;
      Clock::time_point hook{};
      spec.on_network = [&hook](sim::Kernel&, hw::DaeliteNetwork&) { hook = Clock::now(); };
      const analysis::NetworkReport pr = soc::run_scenario(spec);
      const double host = seconds_between(hook, Clock::now());
      if (!pr.error.empty()) run.error("mode probe failed: " + pr.error);
      f->node_cycles_per_s[m] = host > 0 ? nodes * double(makespan_of(pr)) / host : 0.0;
    }
  }

  // Overhead ratios on a quarter-length run: median over three pairs, in
  // alternating order.
  soc::RunSpec probe = plain;
  if (!c.dnn) probe.run_cycles_override = c.scenario.run_cycles / 4;
  const auto overhead = [&](const soc::RunSpec& with) {
    std::vector<double> ratios;
    for (int k = 0; k < 3; ++k) {
      const double a = k % 2 ? measured_phase_s(with) : measured_phase_s(probe);
      const double b = k % 2 ? measured_phase_s(probe) : measured_phase_s(with);
      ratios.push_back(k % 2 ? a / b : b / a);
    }
    return median(ratios);
  };
  {
    Scope s(sp, "sim.tracer");
    sim::Tracer tracer(true, std::size_t(1) << 22);
    soc::RunSpec traced = probe;
    traced.tracer = &tracer;
    f->tracer_overhead = overhead(traced);
    tracer.clear();
    (void)soc::run_scenario(traced);
    std::map<std::string, sim::Cycle> begin, end;
    tracer.for_each([&](const sim::TraceRecord& rec) {
      const std::string& name = tracer.name(sim::Tracer::CompId(rec.arg0));
      if (rec.event == sim::TraceEvent::kPhaseBegin) begin[name] = rec.cycle;
      if (rec.event == sim::TraceEvent::kPhaseEnd) end[name] = rec.cycle;
    });
    if (begin.count("configure") && end.count("configure"))
      f->configure_cycles = double(end["configure"] - begin["configure"]);
    if (begin.count("traffic") && end.count("traffic"))
      f->traffic_cycles = double(end["traffic"] - begin["traffic"]);
    const Clock::time_point t0 = Clock::now();
    const std::string exported = sim::chrome_trace_json(tracer).dump();
    f->trace_export_s = seconds_between(t0, Clock::now());
    run.notes.push_back("tracer probe: " + std::to_string(tracer.size()) + " records, " +
                        std::to_string(tracer.dropped()) + " dropped, " +
                        std::to_string(exported.size()) + " bytes exported");
  }
  if (!c.dnn) { // the runner refuses fault injection on DNN schedules
    Scope s(sp, "sim.fault");
    soc::RunSpec armed = probe;
    std::string why;
    if (!sim::FaultPlan::parse_text("kill data@0 900000000 1000000000\n", &armed.fault_plan, &why))
      run.error("fault plan: " + why);
    f->fault_overhead = overhead(armed);
  }

  // Repairs the kills caused; compaction moves are counted separately.
  std::vector<double> heal;
  for (const auto& ev : r.recovery.events)
    if (ev.trigger != "compaction" && ev.restored) heal.push_back(double(ev.latency_cycles()));
  f->recovery_events = double(r.recovery.events.size());
  for (double h : heal) f->detect_to_restore_mean += h / double(heal.size());
  f->detect_to_restore_max = percentile(heal, 1.0);
  for (const auto& pc : r.service.per_class) f->preempted += double(pc.preempted);
  f->compaction_moves = double(r.service.compaction_moves);
  f->dropped_flits = double(r.router_drops + r.ni_drops + r.rx_overflow);
  f->report_bytes = double(first.json_bytes);
  f->energy_pj = r.energy.total_pj();
}

/// Instance `j` of the workload: its own scenario (and kill plan), made from
/// a sub-seed of the run's seed and written beside the results.
bool load_sim_case(Run& run, int j, SimCase* c) {
  const std::uint64_t seed = (run.seed << 8) | std::uint64_t(j);
  const std::string tag = "-" + std::to_string(j);
  std::string why;
  if (run.workload == "mesh_traffic") {
    c->scenario_text = mesh_traffic_scenario(seed);
  } else if (run.workload == "dnn_switch") {
    c->scenario_text = dnn_switch_scenario(seed);
    c->dnn = true;
  } else {
    c->scenario_text = degraded_heal_scenario(seed);
    c->degraded = true;
    c->kill_plan = degraded_heal_kill_plan(c->scenario_text, 2, 5000, 10000, &why);
    if (c->kill_plan.empty()) {
      run.error("kill plan: " + why);
      return false;
    }
  }
  std::istringstream in(c->scenario_text);
  auto sc = soc::parse_scenario(in, &why);
  if (!sc) {
    run.error("generated scenario does not parse: " + why);
    return false;
  }
  c->scenario = *sc;
  c->mesh = c->scenario.build();
  c->base.scenario = *sc;
  c->base.label = run.workload + tag;
  write_file(run.out + "/scenario" + tag + ".txt", c->scenario_text);
  std::string replay = "daelite_sim scenario" + tag + ".txt";
  if (c->degraded) {
    if (!sim::FaultPlan::parse_text(c->kill_plan, &c->base.fault_plan, &why)) {
      run.error("generated kill plan does not parse: " + why);
      return false;
    }
    c->base.recovery.enabled = true;
    c->base.recovery.preempt_best_effort = true;
    c->base.recovery.compact_after_recovery = true;
    write_file(run.out + "/kill" + tag + ".plan", c->kill_plan);
    replay += " --recover --preempt --compact --fault-plan kill" + tag + ".plan";
  }
  std::ofstream(run.out + "/replay.sh", std::ios::app) << replay << "\n";
  return true;
}

/// Scenario instances per run: the run's seed makes this many, and every
/// end-to-end figure averages over all of them, so two seeds differ by
/// less than one placement would.
int instances_of(const std::string& workload) { return workload == "dnn_switch" ? 2 : 4; }

void run_sim_workload(Run& run) {
  const int m = instances_of(run.workload);
  write_file(run.out + "/replay.sh", "# replay each instance with the repository's scenario tool\n");
  std::vector<SimCase> cases(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j)
    if (!load_sim_case(run, j, &cases[std::size_t(j)])) return;
  Spans& sp = run.spans;

  Samples setup, run_s, p99s;
  std::vector<double> json_s, traced_run, untraced_run;
  std::vector<std::optional<SimRound>> first(static_cast<std::size_t>(m));
  std::vector<DecisionReplay> replay(static_cast<std::size_t>(m));
  std::vector<bool> replay_ready(static_cast<std::size_t>(m), false);
  std::vector<EndToEnd> figs(static_cast<std::size_t>(m));
  std::uint64_t decisions = 0;

  // Rounds cycle through the instances; a run ends on a whole cycle. The
  // traced run alternates traced and untraced cycles (the recorder's
  // overhead) for half its budget and spends the rest on layer probes.
  const double budget = run.trace ? 0.5 * run.seconds : run.seconds;
  const std::vector<double> scale = run_rounds(budget, 2 * m, m, [&](int n) {
    const std::size_t j = std::size_t(n % m);
    SimCase& c = cases[j];
    sp.set_run(std::uint64_t(n));
    const bool traced_round = run.trace && (n / m) % 2 == 0;
    Spans quiet(false);
    Spans& rs = traced_round || !run.trace ? sp : quiet;
    Scope round(rs, "round");
    SimRound r = sim_round(c.base, rs);
    setup.push_back({n, r.setup_s});
    run_s.push_back({n, r.run_s});
    json_s.push_back(r.json_s);
    (traced_round ? traced_run : untraced_run).push_back(r.run_s);
    EndToEnd fig;
    const std::uint64_t att = run.attempted, fail = run.failed;
    sim_figures(run, c, r.report, &fig);
    if (n >= m) { // count each instance's units once; later rounds re-check them
      run.attempted = att;
      run.failed = fail;
    }
    const std::string p = "i" + std::to_string(j) + ".";
    run.figure(p + "delivered_words_per_cycle", fig.delivered_words_per_cycle);
    run.figure(p + "latency_p99_cycles", fig.latency_p99_cycles);
    run.figure(p + "reconfig_cycles", fig.reconfig_cycles);
    run.figure(p + "makespan_cycles", fig.makespan_cycles);
    run.figure(p + "slots", double(r.report.slots));
    run.figure(p + "report_bytes", double(r.json_bytes));
    if (n < m) {
      write_file(run.out + "/report-" + std::to_string(j) + ".json",
                 r.report.to_json().dump(1) + "\n");
      figs[j] = fig;
      replay_ready[j] =
          r.report.slots != 0 && prepare_replay(run, c, r.report.slots, &replay[j]);
      first[j] = std::move(r);
    }
    if (replay_ready[j]) {
      std::vector<double> us;
      for (int k = 0; k < (c.dnn ? 1 : 3); ++k) replay_decisions(run, c, replay[j], &us);
      p99s.push_back({n, percentile(us, 0.99)});
      decisions += us.size();
    }
  });

  EndToEnd e;
  for (const EndToEnd& f : figs) {
    e.delivered_words_per_cycle += f.delivered_words_per_cycle / m;
    e.latency_p99_cycles += f.latency_p99_cycles / m;
    e.reconfig_cycles += f.reconfig_cycles / m;
    e.makespan_cycles += f.makespan_cycles / m;
  }
  e.setup_s = scaled_median(setup, scale);
  e.run_s = scaled_median(run_s, scale);
  e.decision_p99_us = scaled_median(p99s, scale);
  run.notes.push_back(std::to_string(scale.size()) + " rounds over " + std::to_string(m) +
                      " instances; decision_p99_us is the median of " +
                      std::to_string(p99s.size()) + " per-round p99s, " +
                      std::to_string(decisions) + " raw samples in all");

  if (!run.trace) {
    e.peak_rss_mb = peak_rss_mb();
    put_end_to_end(run, e);
    return;
  }
  LayerFigures f;
  if (first[0] && replay_ready[0]) sim_layer_probes(run, cases[0], replay[0], *first[0], &f);
  f.report_json_s = median(json_s);
  f.trace_overhead = median(untraced_run) > 0 ? median(traced_run) / median(untraced_run) : 0.0;
  put_layers(run, f);
}

// --- churn_online -----------------------------------------------------------------

struct ChurnResult {
  std::uint64_t digest = 14695981039346656037ull;
  std::uint64_t prefix_digest = 0;
  std::vector<double> us;            ///< per call
  std::vector<std::uint8_t> kind;    ///< kChurnKinds index per call
  std::uint64_t rollback_failures = 0;
  std::uint64_t setups = 0, admitted = 0;
  double reserved_word_cycles = 0;   ///< ∫ reserved request words/cycle d(sim time)
  double makespan = 0;
  std::vector<double> wc_latency;    ///< worst-case latency bound of each admission
  double reconfig_cycles = 0;        ///< analytic daelite set-up cycles of admissions
  double final_utilization = 0, fragmentation = 0;
};

/// Drive `ops` operations of the seeded stream through a ChurnService, one
/// call at a time, timing each call.
ChurnResult churn_stream(alloc::SlotAllocator& a, const ChurnInputs& in, std::uint64_t ops,
                         std::uint64_t prefix, Spans& sp, std::uint64_t seed) {
  using Kind = alloc::ChurnWorkload::Op::Kind;
  ChurnResult res;
  res.us.reserve(ops);
  res.kind.reserve(ops);
  alloc::ChurnService service(a);
  alloc::ChurnWorkload wl(a.topology().nodes_of_kind(topo::NodeKind::kNi), in.workload);
  const double per_slot = 1.0 / double(a.params().num_slots);
  const std::uint32_t cool_down = hw::DaeliteNetwork::Options{}.cool_down_cycles;
  const auto words = [&](std::uint64_t id) {
    const alloc::AllocatedConnection* c = service.connection(id);
    return c ? double(c->request.slot_count() * c->request.dst_nis.size()) * per_slot : 0.0;
  };
  double reserved = 0.0, last_time = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (i == prefix) res.prefix_digest = res.digest;
    const alloc::ChurnWorkload::Op op = wl.next(service);
    res.reserved_word_cycles += reserved * (op.time - last_time);
    last_time = op.time;
    const double before = op.kind == Kind::kSetUp ? 0.0 : words(op.connection);
    alloc::ChurnService::Result r;
    const Clock::time_point t0 = Clock::now();
    switch (op.kind) {
      case Kind::kSetUp:
        r = service.set_up(op.spec);
        break;
      case Kind::kTearDown:
        r.status = service.tear_down(op.connection);
        r.connection = op.connection;
        break;
      case Kind::kModify:
        r = service.modify(op.connection, op.request_slots, op.response_slots);
        break;
    }
    const Clock::time_point t1 = Clock::now();
    const bool ok = r.status == alloc::ChurnStatus::kAdmitted;
    std::uint8_t k = 0;
    switch (op.kind) {
      case Kind::kSetUp:
        k = op.spec.dst_nis.size() > 1 ? (ok ? 2 : 3) : (ok ? 0 : 1);
        wl.on_setup_result(r);
        ++res.setups;
        break;
      case Kind::kTearDown:
        k = 4;
        break;
      case Kind::kModify:
        k = ok ? 5 : 6;
        break;
    }
    sp.add(kChurnKinds[k], t0, t1);
    res.us.push_back(1e6 * seconds_between(t0, t1));
    res.kind.push_back(k);

    fnv_mix(res.digest, std::uint64_t(op.kind));
    fnv_mix(res.digest, std::uint64_t(r.status));
    const std::uint64_t id = op.kind == Kind::kSetUp ? r.connection : op.connection;
    if (ok && op.kind != Kind::kTearDown) {
      const alloc::AllocatedConnection* c = service.connection(id);
      fnv_route(res.digest, c->request);
      if (c->has_response) fnv_route(res.digest, c->response);
      res.wc_latency.push_back(double(alloc::worst_case_latency_cycles(c->request, a.params())));
      res.reconfig_cycles += double(
          analysis::daelite_ideal_connection_setup_cycles(a.topology(), a.params(), *c, cool_down));
      if (op.kind == Kind::kSetUp) ++res.admitted;
    }
    reserved += (op.kind == Kind::kSetUp && !ok ? 0.0 : words(id)) - before;
  }
  if (prefix >= ops) res.prefix_digest = res.digest;
  res.makespan = last_time;
  res.rollback_failures = service.metrics().rollback_failures.value();
  res.final_utilization = a.utilization();
  res.fragmentation = service.sample_fragmentation(probe_paths(a.topology(), seed));
  return res;
}

void run_churn_workload(Run& run) {
  const ChurnInputs in = churn_online_inputs(run.seed);
  write_file(run.out + "/churn.txt", describe(in));
  Spans& sp = run.spans;
  const tdm::TdmParams params = tdm::daelite_params(in.slots);

  Samples setup, run_s, p99s;
  std::vector<double> fill, traced_run, untraced_run;
  std::vector<double> totals[kChurnKindCount];
  std::vector<double> samples[kChurnKindCount];
  std::optional<ChurnResult> first;
  double searches = 0;
  const double budget = run.trace ? 0.8 * run.seconds : run.seconds;
  // Set-up (topology, allocator, and the k-shortest-path cache for every
  // ordered endpoint pair — work the first requests would otherwise pay
  // inside the timed stream) runs every kSetupEvery rounds; the rounds in
  // between stream on an untimed copy of the last freshly set-up allocator,
  // so a run holds many short streams and a few set-ups.
  constexpr int kSetupEvery = 4;
  std::optional<topo::Mesh> mesh;
  std::optional<alloc::SlotAllocator> pristine;
  const std::vector<double> scale = run_rounds(budget, kSetupEvery, 1, [&](int n) {
    sp.set_run(std::uint64_t(n));
    const bool traced_round = run.trace && n % 2 == 0;
    Spans quiet(false);
    Spans& rs = traced_round || !run.trace ? sp : quiet;
    Scope round(rs, "round");

    if (n % kSetupEvery == 0) {
      const Clock::time_point t0 = Clock::now();
      Scope s(rs, "setup");
      pristine.reset();
      mesh = topo::make_mesh(in.mesh_dim, in.mesh_dim);
      alloc::AllocatorOptions opt;
      opt.incremental = true;
      pristine.emplace(mesh->topo, params, opt);
      const Clock::time_point f0 = Clock::now();
      Scope s2(rs, "topology.candidate_paths");
      const auto nis = mesh->topo.nodes_of_kind(topo::NodeKind::kNi);
      searches = 0;
      for (topo::NodeId src : nis)
        for (topo::NodeId dst : nis)
          if (src != dst) {
            (void)pristine->candidate_paths(src, dst);
            ++searches;
          }
      const Clock::time_point t1 = Clock::now();
      fill.push_back(seconds_between(f0, t1));
      setup.push_back({n, seconds_between(t0, t1)});
    }
    alloc::SlotAllocator a = *pristine;
    const Clock::time_point t1 = Clock::now();
    ChurnResult res = [&] {
      Scope s(rs, "alloc.churn_stream");
      return churn_stream(a, in, in.ops, in.check_ops, rs, run.seed);
    }();
    run_s.push_back({n, seconds_between(t1, Clock::now())});
    (traced_round ? traced_run : untraced_run).push_back(run_s.back().second);
    p99s.push_back({n, percentile(res.us, 0.99)});
    std::vector<double> tot(kChurnKindCount, 0.0);
    for (std::size_t i = 0; i < res.us.size(); ++i) {
      tot[res.kind[i]] += res.us[i] * 1e-6;
      samples[res.kind[i]].push_back(res.us[i]);
    }
    for (std::size_t k = 0; k < kChurnKindCount; ++k) totals[k].push_back(tot[k]);

    run.attempted += res.us.size();
    run.failed += res.rollback_failures;
    if (res.rollback_failures != 0)
      run.error(std::to_string(res.rollback_failures) + " modify roll-backs failed");
    run.figure("decision_digest", double(res.digest % (1ull << 52)));
    run.figure("delivered_words_per_cycle", res.reserved_word_cycles / res.makespan);
    run.figure("latency_p99_cycles", percentile(res.wc_latency, 0.99));
    run.figure("reconfig_cycles", res.reconfig_cycles);
    run.figure("makespan_cycles", res.makespan);
    run.figure("admitted", double(res.admitted));
    run.figure("final_utilization", res.final_utilization);
    run.figure("fragmentation", res.fragmentation);
    if (n == 0) first = std::move(res);
  });

  // Oracle: the untimed prefix replayed on the from-scratch allocator must
  // make the same decisions as the incremental one.
  {
    Scope s(sp, "check.scratch_prefix");
    const topo::Mesh mesh = topo::make_mesh(in.mesh_dim, in.mesh_dim);
    alloc::SlotAllocator scratch(mesh.topo, params);
    Spans quiet(false);
    const ChurnResult ref = churn_stream(scratch, in, in.check_ops, in.check_ops, quiet, run.seed);
    if (first && ref.prefix_digest != first->prefix_digest)
      run.error("from-scratch allocator diverged from the incremental one within the first " +
                std::to_string(in.check_ops) + " operations");
  }

  std::uint64_t per_round = first ? first->us.size() : 0;
  run.notes.push_back(std::to_string(scale.size()) + " rounds of " + std::to_string(per_round) +
                      " calls; decision_p99_us is the median of per-round p99s over " +
                      std::to_string(per_round) + " raw samples each");
  if (!run.trace) {
    EndToEnd e;
    e.setup_s = scaled_median(setup, scale);
    e.run_s = scaled_median(run_s, scale);
    e.decision_p99_us = scaled_median(p99s, scale);
    e.peak_rss_mb = peak_rss_mb();
    e.delivered_words_per_cycle = run.simulated["delivered_words_per_cycle"];
    e.latency_p99_cycles = run.simulated["latency_p99_cycles"];
    e.reconfig_cycles = run.simulated["reconfig_cycles"];
    e.makespan_cycles = run.simulated["makespan_cycles"];
    put_end_to_end(run, e);
    return;
  }
  LayerFigures f;
  f.path_search_s = median(fill);
  f.path_searches = searches;
  for (std::size_t k = 0; k < kChurnKindCount; ++k) {
    f.churn[k].count = double(samples[k].size()) / double(scale.size());
    f.churn[k].us_p50 = percentile(samples[k], 0.5);
    f.churn[k].us_p99 = percentile(samples[k], 0.99);
    f.churn[k].total_s = median(totals[k]);
  }
  if (first) {
    f.final_utilization = first->final_utilization;
    f.fragmentation = first->fragmentation;
    f.admit_ratio = first->setups ? double(first->admitted) / double(first->setups) : 0.0;
  }
  f.trace_overhead = median(untraced_run) > 0 ? median(traced_run) / median(untraced_run) : 0.0;
  put_layers(run, f);
}

// --- Driver ------------------------------------------------------------------------

/// Compare this run's deterministic figures with those an earlier run of the
/// same seed (traced or not) left in the output directory; create the file
/// on first use.
void check_against_earlier_runs(Run& run) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [k, v] : run.simulated) os << k << " " << v << "\n";
  const std::string path = run.out + "/simulated.txt";
  std::ifstream prev(path);
  if (prev) {
    std::stringstream old;
    old << prev.rdbuf();
    if (old.str() != os.str())
      run.error("simulated figures differ from an earlier run of the same seed (" + path + ")");
    return;
  }
  if (run.errors.empty()) write_file(path, os.str());
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::cerr << "nocbench: " << msg
            << "\nusage: nocbench --workload mesh_traffic|dnn_switch|churn_online|degraded_heal"
               " --seed N --seconds S --trace 0|1 --out DIR\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  Run run;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      run.workload = v;
    } else if (a == "--seed") {
      run.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      run.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(run.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      run.trace = v == "1";
    } else if (a == "--out") {
      run.out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  static const std::set<std::string> kWorkloads = {"mesh_traffic", "dnn_switch", "churn_online",
                                                   "degraded_heal"};
  if (!kWorkloads.count(run.workload)) return usage("unknown or missing --workload");
  if (run.out.empty()) return usage("missing --out");

  std::cout << "build type: " << NOCBENCH_BUILD_TYPE << "\n";
  if (const std::string why = instrumented_build(); !why.empty()) {
    std::cerr << "nocbench: refusing to time this build: " << why << "\n";
    return 3;
  }
  run.spans = Spans(run.trace);

  if (run.workload == "churn_online") {
    run_churn_workload(run);
  } else {
    run_sim_workload(run);
  }
  check_against_earlier_runs(run);

  if (run.trace) {
    std::ofstream f(run.out + "/spans.json");
    run.spans.write_json(f);
  }
  for (const std::string& n : run.notes) std::cout << "note: " << n << "\n";
  for (const std::string& e : std::set<std::string>(run.errors.begin(), run.errors.end()))
    std::cout << "FAILED: " << e << "\n";
  for (const Metric& m : run.metrics)
    std::cout << run.workload << "/" << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  const bool correct = run.errors.empty();
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::uint64_t>(run.attempted, 1) << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i)
    js << (i ? ", " : "") << "\"" << run.metrics[i].name << "\": {\"value\": "
       << number(run.metrics[i].value) << ", \"unit\": \"" << run.metrics[i].unit << "\"}";
  js << "}}";
  write_file(run.out + (run.trace ? "/result-trace1.json" : "/result-trace0.json"), js.str() + "\n");
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

} // namespace
} // namespace nocbench

int main(int argc, char** argv) { return nocbench::main_impl(argc, argv); }
