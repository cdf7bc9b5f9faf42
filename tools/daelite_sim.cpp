// daelite_sim — command-line scenario driver.
//
//   daelite_sim <scenario file> [--vcd out.vcd] [--json out.json]
//               [--trace out.trace.json] [--per-connection] [--quiet]
//               [--scheduler soa|stride|reference] [--shards N]
//               [--fault-seed N] [--fault-rate R] [--fault-plan file]
//
// Executes a scenario end to end through soc::run_scenario(): parse,
// dimension (choosing the wheel size unless the scenario pins one),
// instantiate the daelite network, configure every connection through the
// broadcast tree, drive saturated traffic for the requested number of
// cycles, and print the bandwidth / latency report plus schedule
// utilization. Returns nonzero if any contract is missed or any flit is
// dropped. --json additionally writes the metrics document the batch
// runner (daelite_batch) emits for whole sweeps. --trace records every
// hardware event into a bounded ring and writes a Chrome trace_event file
// (open in chrome://tracing or Perfetto). --per-connection prints the
// per-connection latency quantile table. --scheduler selects the dispatch
// path, the one option that does: `soa` (the default) runs the data path as
// batched structure-of-arrays slot dispatch (hw::SlotEngine) — one engine
// per shard band forwards the whole slot for all its routers/NIs over flat
// slot-table pools, skipping idle elements; `stride` is the per-component
// stride dispatch, kept as the cross-check; `reference` is the per-cycle
// oracle loop, which never enables SoA. All three produce byte-identical
// reports, traces and VCDs (CI diffs them). --shards N partitions the mesh
// into N bands of routers/NIs that tick and commit on N threads inside the
// one simulation (soa and stride only); every shard count produces
// byte-identical output — CI diffs --shards 1 against --shards 4 — so the
// flag only changes wall-clock time.
// --fault-rate / --fault-plan enable deterministic fault injection on the
// data and configuration links (see sim/fault.hpp for the plan grammar);
// the report then carries a `health` section. --recover additionally arms
// the self-healing subsystem (soc/health.hpp + runner recovery): links the
// health monitor declares dead are quarantined and the affected
// connections are torn down and re-set up on a new route mid-run; the
// report then carries a `recovery` section. --preempt lets a guaranteed
// connection that recovery cannot re-route tear down best-effort
// connections (min-victims plan); --compact re-packs standard/best-effort
// connections onto lower injection slots after every recovery wave; both
// add a `service` section with per-class outcomes. --watchdog-retries and
// --watchdog-timeout-mult tune the config module's response watchdog
// (retry budget, and a scale on the depth-derived timeout).

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "daelite/vcd_probes.hpp"
#include "sim/json.hpp"
#include "sim/trace_sink.hpp"
#include "soc/runner.hpp"
#include "cli_parse.hpp"

using namespace daelite;

namespace {

int usage() {
  std::cerr << "usage: daelite_sim <scenario file> [--vcd out.vcd] [--json out.json]\n"
               "                   [--trace out.trace.json] [--per-connection] [--quiet]\n"
               "                   [--scheduler soa|stride|reference] [--shards N]\n"
               "                   [--fault-seed N] [--fault-rate R] [--fault-plan file]\n"
               "                   [--recover] [--preempt] [--compact]\n"
               "                   [--watchdog-retries N] [--watchdog-timeout-mult X]\n"
               "see src/soc/scenario.hpp for the scenario grammar and\n"
               "src/sim/fault.hpp for the fault-plan grammar\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string vcd_path;
  std::string json_path;
  std::string trace_path;
  bool per_connection = false;
  bool quiet = false;
  sim::Scheduler scheduler = sim::Scheduler::kStride;
  std::uint32_t shards = 1;
  bool soa = true;
  sim::FaultPlan fault_plan;
  bool recover = false;
  bool preempt = false;
  bool compact = false;
  std::optional<std::uint32_t> watchdog_retries;
  double watchdog_timeout_mult = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vcd") == 0 && i + 1 < argc) {
      vcd_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--per-connection") == 0) {
      per_connection = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--scheduler") == 0 && i + 1 < argc) {
      if (!tools::parse_scheduler(argv[++i], &scheduler, &soa)) return usage();
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!tools::parse_int(argv[++i], &shards) || shards == 0) {
        std::cerr << "daelite_sim: --shards wants an integer >= 1, got '" << argv[i] << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      if (!tools::parse_int(argv[++i], &fault_plan.seed)) {
        std::cerr << "daelite_sim: --fault-seed wants an integer, got '" << argv[i] << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--fault-rate") == 0 && i + 1 < argc) {
      if (!tools::parse_double(argv[++i], &fault_plan.rate) || fault_plan.rate < 0.0 ||
          fault_plan.rate > 1.0) {
        std::cerr << "daelite_sim: --fault-rate wants a number in [0,1], got '" << argv[i]
                  << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      // The file may also set seed/rate; CLI flags given later still win.
      std::string ferr;
      if (!sim::FaultPlan::parse_file(argv[++i], &fault_plan, &ferr)) {
        std::cerr << "daelite_sim: " << ferr << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--preempt") == 0) {
      preempt = true;
    } else if (std::strcmp(argv[i], "--compact") == 0) {
      compact = true;
    } else if (std::strcmp(argv[i], "--watchdog-retries") == 0 && i + 1 < argc) {
      std::uint32_t n = 0;
      if (!tools::parse_int(argv[++i], &n)) {
        std::cerr << "daelite_sim: --watchdog-retries wants an integer >= 0, got '" << argv[i]
                  << "'\n";
        return 2;
      }
      watchdog_retries = n;
    } else if (std::strcmp(argv[i], "--watchdog-timeout-mult") == 0 && i + 1 < argc) {
      if (!tools::parse_double(argv[++i], &watchdog_timeout_mult) ||
          watchdog_timeout_mult <= 0.0) {
        std::cerr << "daelite_sim: --watchdog-timeout-mult wants a number > 0, got '" << argv[i]
                  << "'\n";
        return 2;
      }
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      scenario_path = argv[i];
    }
  }
  if (scenario_path.empty()) return usage();

  std::string error;
  auto scenario = soc::parse_scenario_file(scenario_path, &error);
  if (!scenario) {
    std::cerr << "daelite_sim: " << error << "\n";
    return 2;
  }

  soc::RunSpec spec;
  spec.label = scenario_path;
  spec.scenario = *scenario;
  spec.scheduler = scheduler;
  spec.shards = shards;
  spec.soa = soa;
  spec.fault_plan = fault_plan;
  spec.recovery.enabled = recover;
  spec.recovery.preempt_best_effort = preempt;
  spec.recovery.compact_after_recovery = compact;
  spec.watchdog_retries = watchdog_retries;
  spec.watchdog_timeout_mult = watchdog_timeout_mult;

  std::unique_ptr<sim::Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<sim::Tracer>();
    spec.tracer = tracer.get();
  }

  // VCD probes attach once the network exists; the writer and sampler live
  // here so they survive until the run finishes.
  std::ofstream vcd_os;
  std::unique_ptr<sim::VcdWriter> vcd;
  std::unique_ptr<hw::VcdSampler> sampler;
  if (!vcd_path.empty()) {
    vcd_os.open(vcd_path);
    if (!vcd_os) {
      std::cerr << "daelite_sim: cannot open " << vcd_path << "\n";
      return 2;
    }
    spec.on_network = [&](sim::Kernel& kernel, hw::DaeliteNetwork& net) {
      vcd = std::make_unique<sim::VcdWriter>(vcd_os);
      hw::attach_network_probes(*vcd, net);
      sampler = std::make_unique<hw::VcdSampler>(kernel, *vcd);
    };
  }

  const analysis::NetworkReport report = soc::run_scenario(spec);
  if (!report.error.empty()) {
    std::cerr << "daelite_sim: " << report.error << "\n";
    return 1;
  }
  if (!quiet) analysis::print_report(std::cout, report);
  if (per_connection) analysis::print_connection_latency(std::cout, report);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "daelite_sim: cannot open " << json_path << "\n";
      return 2;
    }
    os << report.to_json().dump(2) << "\n";
  }
  if (tracer != nullptr && !sim::write_chrome_trace_file(trace_path, *tracer)) {
    std::cerr << "daelite_sim: cannot open " << trace_path << "\n";
    return 2;
  }
  return report.ok ? 0 : 1;
}
