// daelite_batch — parallel batch experiment runner.
//
//   daelite_batch [options] <scenario file>...
//
//   --jobs N           worker threads (default: hardware concurrency)
//   --out FILE         write the JSON results document (default: results.json)
//   --slots A,B,C      sweep wheel sizes: run every scenario once per value
//   --seeds K          sweep allocation-order seeds 1..K (default: one run, seed 0)
//   --mesh WxHs,...    add synthetic corner-stress scenarios on these mesh
//                      sizes (e.g. 3x3,4x4; suffix 't' for torus: 4x4t)
//   --run-cycles C     override the run length of every job
//   --scheduler S      dispatch path of every job: soa (default, batched
//                      SoA slot dispatch via hw::SlotEngine) | stride (the
//                      per-component cross-check) | reference (the
//                      per-cycle oracle, never SoA). Byte-identical output
//                      on all three — only wall-clock time changes
//   --fault-seed N, --fault-rate R, --fault-plan F
//                      deterministic fault injection on every job
//   --recover          arm the self-healing subsystem on every job (dead
//                      links quarantined, connections re-routed mid-run;
//                      reports carry a `recovery` section)
//   --preempt, --compact, --watchdog-retries N, --watchdog-timeout-mult X
//                      as in daelite_sim (tools::parse_run_flags parses
//                      these shared RunSpec flags for both drivers)
//   --trace DIR        write one Chrome trace_event file per job into DIR
//   --per-connection   print per-job connection latency tables on stderr
//   --list             print the expanded job list and exit
//   --quiet            suppress per-job progress lines on stderr
//
// The cross product of {scenarios + synthetic meshes} x {slots} x {seeds}
// expands into independent jobs, each simulated on its own Kernel by the
// sim::ThreadPool (each job's simulation is single-threaded; --jobs is the
// only parallelism). Job order — and therefore the emitted document — is
// fixed at expansion time, so `--jobs 8` output is byte-identical to
// `--jobs 1` (wall-clock timing goes to stderr only, never into the JSON).
// Exit status: 0 if every job met its contracts, 1 otherwise, 2 on usage
// or spec errors.

#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "sim/json.hpp"
#include "sim/parallel.hpp"
#include "sim/trace_sink.hpp"
#include "soc/runner.hpp"
#include "cli_parse.hpp"

using namespace daelite;

namespace {

int usage() {
  std::cerr
      << "usage: daelite_batch [options] <scenario file>...\n"
         "  --jobs N         worker threads (default: hardware concurrency)\n"
         "  --out FILE       JSON results document (default: results.json)\n"
         "  --slots A,B,C    sweep wheel sizes across every scenario\n"
         "  --seeds K        sweep allocation-order seeds 1..K\n"
         "  --mesh WxH[t],.. add synthetic corner-stress scenarios (t = torus)\n"
         "  --run-cycles C   override run length for every job\n"
         "  --scheduler S    dispatch path: soa (default) | stride | reference\n"
         "  --trace DIR      one Chrome trace_event file per job in DIR\n"
         "  --fault-seed N   seed for fault injection (with --fault-rate/plan)\n"
         "  --fault-rate R   per-word fault probability in [0,1] on every link\n"
         "  --fault-plan F   fault-plan file (see src/sim/fault.hpp)\n"
         "  --recover        arm the self-healing subsystem on every job\n"
         "  --preempt        let guaranteed repairs preempt best-effort connections\n"
         "  --compact        re-pack non-guaranteed slots after every recovery wave\n"
         "  --watchdog-retries N       config-watchdog retry budget\n"
         "  --watchdog-timeout-mult X  scale on the derived watchdog timeout (> 0)\n"
         "  --per-connection per-job connection latency tables on stderr\n"
         "  --list           print the expanded job list and exit\n"
         "  --quiet          no per-job progress on stderr\n";
  return 2;
}

/// Job label -> file name: anything outside [A-Za-z0-9._-] becomes '_', so
/// "video[slots=16]" maps to the same file at any --jobs value.
std::string trace_file_name(const std::string& label) {
  std::string s = label;
  for (char& c : s)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_' && c != '.')
      c = '_';
  return s + ".trace.json";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(tok);
  return out;
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string b = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = b.find_last_of('.');
  if (dot != std::string::npos && dot > 0) b = b.substr(0, dot);
  return b;
}

/// Synthetic design-space point: four corner-to-opposite-corner streams
/// plus a centre->corners multicast — enough contention to exercise the
/// allocator at any mesh size (the reduced Table-3-style scaling sweep CI
/// runs).
bool make_stress_scenario(const std::string& spec, soc::Scenario* out, std::string* err) {
  std::string dims = spec;
  bool torus = false;
  if (!dims.empty() && (dims.back() == 't' || dims.back() == 'T')) {
    torus = true;
    dims.pop_back();
  }
  // Strict WxH: both sides must be complete base-10 integers — "4x4garbage"
  // or "4x" is a spec error, not a silently truncated 4x4 run.
  const auto x = dims.find('x');
  int w = 0, h = 0;
  const bool parsed = x != std::string::npos &&
                      tools::parse_int(std::string_view(dims).substr(0, x), &w) &&
                      tools::parse_int(std::string_view(dims).substr(x + 1), &h);
  if (!parsed || w < 2 || h < 2) {
    *err = "bad mesh spec '" + spec + "' (want WxH with W,H >= 2, optional 't')";
    return false;
  }
  soc::Scenario sc;
  sc.kind = torus ? soc::Scenario::TopologyKind::kTorus : soc::Scenario::TopologyKind::kMesh;
  sc.width = w;
  sc.height = h;
  sc.host = {w / 2, h / 2};
  sc.run_cycles = 5000;
  const int mx = w - 1, my = h - 1;
  const std::pair<int, int> corners[4] = {{0, 0}, {mx, 0}, {0, my}, {mx, my}};
  for (int i = 0; i < 4; ++i) {
    soc::Scenario::RawConnection c;
    c.name = "corner" + std::to_string(i);
    c.src = corners[i];
    c.dsts.push_back(corners[3 - i]);
    c.bandwidth = 150.0;
    sc.raw.push_back(std::move(c));
  }
  soc::Scenario::RawConnection mc;
  mc.name = "bcast";
  mc.src = sc.host;
  for (const auto& c : corners)
    if (c != sc.host) mc.dsts.push_back(c);
  mc.bandwidth = 40.0;
  sc.raw.push_back(std::move(mc));
  *out = std::move(sc);
  return true;
}

} // namespace

int main(int argc, char** argv) {
  std::size_t jobs = sim::default_job_count();
  std::string out_path = "results.json";
  std::vector<std::uint32_t> slot_sweep;
  std::uint64_t seeds = 0;
  std::vector<std::string> mesh_specs;
  std::optional<sim::Cycle> run_cycles;
  soc::RunSpec base_spec; ///< the shared RunSpec flags; every job starts from it
  std::string trace_dir;
  bool per_connection = false;
  bool list_only = false;
  bool quiet = false;
  std::vector<std::string> scenario_paths;

  for (int i = 1; i < argc; ++i) {
    switch (tools::parse_run_flags("daelite_batch", argc, argv, &i, &base_spec)) {
      case tools::RunFlag::kParsed: continue;
      case tools::RunFlag::kBad: return 2;
      case tools::RunFlag::kNone: break;
    }
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "daelite_batch: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const auto bad_value = [](const char* flag, const char* what, const char* got) {
      std::cerr << "daelite_batch: " << flag << " wants " << what << ", got '" << got << "'\n";
      return 2;
    };
    if (std::strcmp(argv[i], "--jobs") == 0) {
      const char* v = need("--jobs");
      if (!v) return usage();
      if (!tools::parse_int(v, &jobs)) return bad_value("--jobs", "an integer", v);
      if (jobs == 0) jobs = 1;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = need("--out");
      if (!v) return usage();
      out_path = v;
    } else if (std::strcmp(argv[i], "--slots") == 0) {
      const char* v = need("--slots");
      if (!v) return usage();
      for (const std::string& tok : split_csv(v)) {
        std::uint32_t s = 0;
        if (!tools::parse_int(tok, &s) || s == 0) {
          std::cerr << "daelite_batch: bad slot count '" << tok << "'\n";
          return 2;
        }
        slot_sweep.push_back(s);
      }
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      const char* v = need("--seeds");
      if (!v) return usage();
      if (!tools::parse_int(v, &seeds)) return bad_value("--seeds", "an integer", v);
    } else if (std::strcmp(argv[i], "--mesh") == 0) {
      const char* v = need("--mesh");
      if (!v) return usage();
      for (auto& m : split_csv(v)) mesh_specs.push_back(m);
    } else if (std::strcmp(argv[i], "--run-cycles") == 0) {
      const char* v = need("--run-cycles");
      if (!v) return usage();
      sim::Cycle c = 0;
      if (!tools::parse_int(v, &c)) return bad_value("--run-cycles", "an integer", v);
      run_cycles = c;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      const char* v = need("--trace");
      if (!v) return usage();
      trace_dir = v;
    } else if (std::strcmp(argv[i], "--per-connection") == 0) {
      per_connection = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      scenario_paths.push_back(argv[i]);
    }
  }
  if (scenario_paths.empty() && mesh_specs.empty()) return usage();

  // --- Expand the job matrix (deterministic order) ---------------------------
  struct Base {
    std::string name;
    soc::Scenario scenario;
  };
  std::vector<Base> bases;
  for (const std::string& path : scenario_paths) {
    std::string error;
    auto sc = soc::parse_scenario_file(path, &error);
    if (!sc) {
      std::cerr << "daelite_batch: " << error << "\n";
      return 2;
    }
    bases.push_back({base_name(path), std::move(*sc)});
  }
  for (const std::string& spec : mesh_specs) {
    soc::Scenario sc;
    std::string error;
    if (!make_stress_scenario(spec, &sc, &error)) {
      std::cerr << "daelite_batch: " << error << "\n";
      return 2;
    }
    bases.push_back({"stress_" + spec, std::move(sc)});
  }

  std::vector<soc::RunSpec> specs;
  const std::vector<std::uint64_t> seed_list = [&] {
    std::vector<std::uint64_t> s;
    if (seeds == 0) {
      s.push_back(0);
    } else {
      for (std::uint64_t k = 1; k <= seeds; ++k) s.push_back(k);
    }
    return s;
  }();
  for (const Base& b : bases) {
    const std::vector<std::optional<std::uint32_t>> slot_list = [&] {
      std::vector<std::optional<std::uint32_t>> s;
      if (slot_sweep.empty()) {
        s.push_back(std::nullopt);
      } else {
        for (auto v : slot_sweep) s.push_back(v);
      }
      return s;
    }();
    for (const auto& slots : slot_list) {
      for (std::uint64_t seed : seed_list) {
        soc::RunSpec spec = base_spec;
        spec.scenario = b.scenario;
        spec.slots_override = slots;
        spec.run_cycles_override = run_cycles;
        spec.seed = seed;
        std::string label = b.name;
        if (slots) label += "[slots=" + std::to_string(*slots) + "]";
        if (seed) label += "[seed=" + std::to_string(seed) + "]";
        spec.label = std::move(label);
        specs.push_back(std::move(spec));
      }
    }
  }

  if (list_only) {
    for (const auto& s : specs) std::cout << s.label << "\n";
    return 0;
  }

  // --- Run -------------------------------------------------------------------
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::cerr << "daelite_batch: cannot create " << trace_dir << ": " << ec.message() << "\n";
      return 2;
    }
  }
  std::mutex progress_mu;
  std::size_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = sim::parallel_map<analysis::NetworkReport>(
      specs.size(), jobs, [&](std::size_t i) {
        // Each job records into its own tracer and writes its own file, so
        // trace output is per-label and identical at any --jobs value.
        soc::RunSpec spec = specs[i];
        std::unique_ptr<sim::Tracer> tracer;
        if (!trace_dir.empty()) {
          tracer = std::make_unique<sim::Tracer>();
          spec.tracer = tracer.get();
        }
        analysis::NetworkReport r;
        try {
          r = soc::run_scenario(spec);
        } catch (const std::exception& e) {
          r.label = spec.label;
          r.error = std::string("exception: ") + e.what();
        }
        if (tracer != nullptr) {
          const std::string path = trace_dir + "/" + trace_file_name(spec.label);
          if (!sim::write_chrome_trace_file(path, *tracer)) {
            std::lock_guard<std::mutex> lock(progress_mu);
            std::cerr << "daelite_batch: cannot write " << path << "\n";
          }
        }
        if (!quiet || per_connection) {
          std::lock_guard<std::mutex> lock(progress_mu);
          if (!quiet)
            std::cerr << "[" << ++done << "/" << specs.size() << "] " << r.label << ": "
                      << (r.ok ? "ok" : r.error.empty() ? "CONTRACT VIOLATED" : r.error) << "\n";
          if (per_connection && r.error.empty()) analysis::print_connection_latency(std::cerr, r);
        }
        return r;
      });
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);

  // --- Emit (job order == expansion order: independent of --jobs) ------------
  std::size_t ok_count = 0;
  sim::JsonValue doc = sim::JsonValue::object();
  doc["tool"] = "daelite_batch";
  doc["schema_version"] = 1;
  sim::JsonValue jruns = sim::JsonValue::array();
  for (const auto& r : results) {
    if (r.ok) ++ok_count;
    jruns.push_back(r.to_json());
  }
  doc["runs"] = std::move(jruns);
  sim::JsonValue summary = sim::JsonValue::object();
  summary["total"] = results.size();
  summary["ok"] = ok_count;
  summary["failed"] = results.size() - ok_count;
  doc["summary"] = std::move(summary);

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "daelite_batch: cannot open " << out_path << "\n";
    return 2;
  }
  os << doc.dump(2) << "\n";

  if (!quiet)
    std::cerr << "daelite_batch: " << ok_count << "/" << results.size() << " ok, " << jobs
              << " workers, " << elapsed.count() << " ms -> " << out_path << "\n";
  return ok_count == results.size() ? 0 : 1;
}
