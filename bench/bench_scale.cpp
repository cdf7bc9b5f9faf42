// Scaling bench: stride-scheduled kernel vs the per-cycle reference.
//
// Sweeps mesh sizes 2x2 .. 10x10 and slot-table sizes on an idle-heavy
// scenario — configure two cross connections through the broadcast tree,
// drive a saturated traffic burst, then let the network sit idle for the
// bulk of the run. The idle tail is the regime the stride scheduler
// targets: routers/NIs dispatch only at slot starts, the config tree is
// suspended, and the kernel fast-forwards across cycles with no due
// component. The per-cycle reference ticks every component every cycle.
//
// Every sweep point cross-checks the two schedulers against each other
// (delivered words, configuration time, final cycle, and a digest over
// every per-output forwarded counter and NI link counter), and one 8x8
// point additionally compares full NetworkReport JSON from the end-to-end
// runner. Any mismatch — or an 8x8 idle-heavy speedup below 2x in the
// full sweep — fails the bench.
//
// Each idle-heavy point also times the batched SoA dispatch path
// (DaeliteNetwork::enable_soa — hw::SlotEngine forwarding whole slots
// over flat slot-table pools, skipping idle elements) against the
// component-path stride run, with the same identity checks. The SoA
// speedup lands in BENCH_scale.json (soa_ms / soa_speedup per row,
// soa_speedup_8x8_s16 at the gate point), where CI requires >= 1.0x on
// the largest quick-mode mesh; the full sweep enforces a 2x floor
// in-binary.
//
// Usage: bench_scale [--quick] [--json [dir]]
//   --quick   reduced sweep for CI smoke (fewer/smaller meshes, shorter
//             runs; the speedup floors are not enforced in-binary — CI
//             machines are noisy — but the JSON gate still applies)

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <thread>

#include "analysis/report.hpp"
#include "common.hpp"
#include "soc/runner.hpp"

using namespace daelite;
using namespace daelite::bench;
using analysis::TextTable;
using analysis::fmt;

namespace {

struct RunResult {
  double ms = 0.0;             ///< wall-clock of configure + traffic + idle
  std::uint64_t words = 0;     ///< payload words delivered across both connections
  sim::Cycle cfg_cycles = 0;   ///< broadcast-tree configuration time
  sim::Cycle end_cycle = 0;    ///< kernel.now() at the end of the run
  std::uint64_t digest = 0;    ///< FNV-1a over all forwarded/link counters
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One idle-heavy run: open two corner-crossing connections, configure,
/// saturate for `traffic_cycles`, then run `idle_cycles` with no host
/// activity. Only the simulated phases are timed (network construction
/// and allocation are identical work for both schedulers).
RunResult run_idle_heavy(sim::Scheduler scheduler, int n, std::uint32_t slots,
                         sim::Cycle traffic_cycles, sim::Cycle idle_cycles, bool soa = false) {
  DaeliteRig rig(n, n, slots, alloc::SlotPolicy::kSpread, 32, scheduler);
  if (soa) rig.net->enable_soa();
  const auto c1 = rig.connect(rig.mesh.ni(0, 0), {rig.mesh.ni(n - 1, n - 1)}, 2, 1);
  const auto c2 = rig.connect(rig.mesh.ni(n - 1, 0), {rig.mesh.ni(0, n - 1)}, 2, 1);

  RunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  const auto h1 = rig.net->open_connection(c1);
  const auto h2 = rig.net->open_connection(c2);
  r.cfg_cycles = rig.net->run_config();

  hw::Ni& s1 = rig.net->ni(h1.conn.request.src_ni);
  hw::Ni& s2 = rig.net->ni(h2.conn.request.src_ni);
  hw::Ni& d1 = rig.net->ni(h1.conn.request.dst_nis[0]);
  hw::Ni& d2 = rig.net->ni(h2.conn.request.dst_nis[0]);
  for (sim::Cycle c = 0; c < traffic_cycles; ++c) {
    while (s1.tx_push(h1.src_tx_q, 1)) {
    }
    while (s2.tx_push(h2.src_tx_q, 1)) {
    }
    rig.kernel.step();
    while (d1.rx_pop(h1.dst_rx_qs[0])) ++r.words;
    while (d2.rx_pop(h2.dst_rx_qs[0])) ++r.words;
  }
  // Stop pushing and consume until both connections are empty: leftover
  // words stuck behind exhausted credits would otherwise stall forever
  // (the idle tail pops nothing) and keep the network non-quiescent.
  long guard = 200000;
  while (--guard > 0 &&
         (s1.tx_level(h1.src_tx_q) != 0 || s2.tx_level(h2.src_tx_q) != 0 ||
          d1.rx_level(h1.dst_rx_qs[0]) != 0 || d2.rx_level(h2.dst_rx_qs[0]) != 0)) {
    rig.kernel.step();
    while (d1.rx_pop(h1.dst_rx_qs[0])) ++r.words;
    while (d2.rx_pop(h2.dst_rx_qs[0])) ++r.words;
  }
  // Idle tail: a drained network carrying only empty slots until the run
  // budget ends — the regime the stride scheduler's quiescence
  // fast-forward collapses to O(1).
  rig.kernel.run(idle_cycles);
  while (d1.rx_pop(h1.dst_rx_qs[0])) ++r.words;
  while (d2.rx_pop(h2.dst_rx_qs[0])) ++r.words;
  const auto t1 = std::chrono::steady_clock::now();

  r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.end_cycle = rig.kernel.now();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t l = 0; l < rig.mesh.topo.link_count(); ++l) {
    const topo::Link& link = rig.mesh.topo.link(static_cast<topo::LinkId>(l));
    h = fnv1a(h, rig.mesh.topo.is_router(link.src)
                     ? rig.net->router(link.src).forwarded_on(link.src_port)
                     : rig.net->ni(link.src).stats().link_busy_slots);
  }
  r.digest = h;
  return r;
}

/// End-to-end runner comparison: same synthetic scenario through every
/// dispatch mode — per-cycle reference, component stride, SoA — and the
/// full NetworkReport JSON must match byte for byte.
bool reports_identical(int n, std::uint32_t slots, sim::Cycle run_cycles) {
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = n;
  sc.height = n;
  sc.slots = slots;
  sc.run_cycles = run_cycles;
  sc.raw.push_back({"c0", {0, 0}, {{n - 1, n - 1}}, 100.0, 20.0,
                    std::numeric_limits<double>::infinity()});
  sc.raw.push_back({"c1", {n - 1, 0}, {{0, n - 1}}, 100.0, 0.0,
                    std::numeric_limits<double>::infinity()});
  const auto run = [&](sim::Scheduler scheduler, bool soa) {
    soc::RunSpec spec;
    spec.scenario = sc;
    spec.scheduler = scheduler;
    spec.soa = soa;
    return soc::run_scenario(spec).to_json().dump(2);
  };
  const std::string ref = run(sim::Scheduler::kReference, false);
  return run(sim::Scheduler::kStride, false) == ref && run(sim::Scheduler::kStride, true) == ref;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<int> meshes =
      quick ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4, 6, 8, 10};
  const std::vector<std::uint32_t> slot_counts =
      quick ? std::vector<std::uint32_t>{16} : std::vector<std::uint32_t>{8, 16, 32};
  const sim::Cycle traffic_cycles = quick ? 500 : 2000;
  const sim::Cycle idle_cycles = quick ? 5000 : 30000;

  using sim::JsonValue;
  JsonValue jrows = JsonValue::array();

  TextTable t("Stride vs per-cycle reference, idle-heavy runs (" +
              std::to_string(traffic_cycles) + " traffic + " + std::to_string(idle_cycles) +
              " idle cycles)");
  t.set_header({"mesh", "slots", "stride (ms)", "soa (ms)", "reference (ms)", "ref/stride",
                "stride/soa", "identical"});

  bool all_identical = true;
  bool soa_identical = true;
  double speedup_8x8 = 0.0;
  double soa_speedup_8x8 = 0.0;
  for (int n : meshes) {
    for (std::uint32_t slots : slot_counts) {
      // Warm-up pass stabilises allocator/CPU caches before timing.
      (void)run_idle_heavy(sim::Scheduler::kStride, n, slots, traffic_cycles / 10,
                           idle_cycles / 10);
      const RunResult s = run_idle_heavy(sim::Scheduler::kStride, n, slots, traffic_cycles,
                                         idle_cycles);
      const RunResult a = run_idle_heavy(sim::Scheduler::kStride, n, slots, traffic_cycles,
                                         idle_cycles, /*soa=*/true);
      const RunResult r = run_idle_heavy(sim::Scheduler::kReference, n, slots, traffic_cycles,
                                         idle_cycles);
      const bool same = s.words == r.words && s.cfg_cycles == r.cfg_cycles &&
                        s.end_cycle == r.end_cycle && s.digest == r.digest;
      const bool soa_same = a.words == s.words && a.cfg_cycles == s.cfg_cycles &&
                            a.end_cycle == s.end_cycle && a.digest == s.digest;
      all_identical = all_identical && same;
      soa_identical = soa_identical && soa_same;
      const double speedup = s.ms > 0.0 ? r.ms / s.ms : 0.0;
      const double soa_speedup = a.ms > 0.0 ? s.ms / a.ms : 0.0;
      if (n == 8 && slots == 16) {
        speedup_8x8 = speedup;
        soa_speedup_8x8 = soa_speedup;
      }

      t.add_row({std::to_string(n) + "x" + std::to_string(n), std::to_string(slots),
                 fmt(s.ms, 2), fmt(a.ms, 2), fmt(r.ms, 2), fmt(speedup, 2) + "x",
                 fmt(soa_speedup, 2) + "x", same && soa_same ? "yes" : "NO"});

      JsonValue row = JsonValue::object();
      row["mesh"] = n;
      row["slots"] = slots;
      row["traffic_cycles"] = traffic_cycles;
      row["idle_cycles"] = idle_cycles;
      row["words_delivered"] = s.words;
      row["cfg_cycles"] = s.cfg_cycles;
      row["stride_ms"] = s.ms;
      row["soa_ms"] = a.ms;
      row["reference_ms"] = r.ms;
      row["speedup"] = speedup;
      row["soa_speedup"] = soa_speedup;
      row["identical"] = same;
      row["soa_identical"] = soa_same;
      jrows.push_back(std::move(row));
    }
  }
  t.print(std::cout);
  std::cout << "The idle tail dominates: the stride scheduler dispatches routers/NIs\n"
               "only at slot starts, suspends the drained configuration tree, and\n"
               "fast-forwards spans where every active component is quiescent; the\n"
               "reference ticks every component every cycle. The SoA column batches\n"
               "each slot's forwarding into one engine pass over flat slot-table\n"
               "pools and skips elements whose links are provably idle that slot.\n";

  const bool report_ok = reports_identical(8, 16, quick ? 2000 : 10000);
  std::cout << "8x8 end-to-end NetworkReport JSON (reference vs stride vs soa): "
            << (report_ok ? "identical" : "DIFFERENT") << "\n";

  const std::string json_path = bench::json_out_path(argc, argv, "scale");
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::object();
    doc["quick"] = quick;
    doc["rows"] = std::move(jrows);
    doc["speedup_8x8_s16"] = speedup_8x8;
    doc["soa_speedup_8x8_s16"] = soa_speedup_8x8;
    doc["soa_identical"] = soa_identical;
    doc["reports_identical_8x8"] = report_ok;
    doc["hardware_threads"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    if (!bench::write_bench_json(json_path, "scale", std::move(doc))) return 1;
  }

  if (!all_identical || !report_ok) {
    std::cerr << "bench_scale: scheduler outputs differ\n";
    return 1;
  }
  if (!soa_identical) {
    std::cerr << "bench_scale: SoA outputs differ from the component path\n";
    return 1;
  }
  if (!quick && speedup_8x8 < 2.0) {
    std::cerr << "bench_scale: 8x8 idle-heavy speedup " << speedup_8x8 << "x below the 2x floor\n";
    return 1;
  }
  if (!quick && soa_speedup_8x8 < 2.0) {
    std::cerr << "bench_scale: 8x8 SoA speedup " << soa_speedup_8x8 << "x below the 2x floor\n";
    return 1;
  }
  return 0;
}
