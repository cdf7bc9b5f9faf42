// daelite_sim — command-line scenario driver.
//
//   daelite_sim <scenario file> [--vcd out.vcd] [--json out.json]
//               [--trace out.trace.json] [--per-connection] [--quiet]
//               [--scheduler soa|stride|reference]
//               [--fault-seed N] [--fault-rate R] [--fault-plan file]
//               [--recover] [--preempt] [--compact]
//               [--watchdog-retries N] [--watchdog-timeout-mult X]
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
// forwards the whole slot for every router/NI over flat slot-table pools,
// skipping idle elements; `stride` is the per-component stride dispatch,
// kept as the cross-check; `reference` is the per-cycle oracle loop, which
// never enables SoA. All three produce byte-identical reports, traces and
// VCDs (CI diffs them); the simulation runs on one thread.
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
// (retry budget, and a scale on the depth-derived timeout). These shared
// RunSpec flags parse through tools::parse_run_flags, exactly as in
// daelite_batch.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

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
               "                   [--scheduler soa|stride|reference]\n"
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
  soc::RunSpec spec;
  for (int i = 1; i < argc; ++i) {
    switch (tools::parse_run_flags("daelite_sim", argc, argv, &i, &spec)) {
      case tools::RunFlag::kParsed: continue;
      case tools::RunFlag::kBad: return 2;
      case tools::RunFlag::kNone: break;
    }
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
  spec.label = scenario_path;
  spec.scenario = *scenario;

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
