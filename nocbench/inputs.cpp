#include "inputs.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "alloc/dimension.hpp"
#include "analysis/network_report.hpp"
#include "sim/random.hpp"
#include "soc/scenario.hpp"

namespace nocbench {

namespace analysis = daelite::analysis;
namespace sim = daelite::sim;
namespace soc = daelite::soc;
namespace topo = daelite::topo;

namespace {

using Coord = std::pair<int, int>;

std::string xy(Coord c) { return std::to_string(c.first) + "," + std::to_string(c.second); }

/// Places connections at seeded positions but fixed Manhattan distances, so
/// that seeds vary geometry and never the path-length mix. Skips the
/// configuration host's NI and keeps every NI under `cap` transmit and
/// `cap` receive queues (the network's NIs have a fixed queue count).
class Placer {
 public:
  Placer(int w, int h, std::uint64_t seed, int cap)
      : w_(w), h_(h), rng_(seed), cap_(cap), tx_(std::size_t(w * h), 0),
        rx_(std::size_t(w * h), 0) {}

  /// A source and destinations at the given distances from it. Unicast
  /// connections with a response channel also take the reverse queues.
  std::vector<Coord> place(const std::vector<int>& distances, bool response) {
    for (;;) {
      const Coord src{int(rng_.below(std::uint64_t(w_))), int(rng_.below(std::uint64_t(h_)))};
      if (src == Coord{0, 0} || !free(tx_, src) || (response && !free(rx_, src))) continue;
      std::vector<Coord> picked{src};
      for (int d : distances) {
        std::vector<Coord> ring;
        for (int y = 0; y < h_; ++y)
          for (int x = 0; x < w_; ++x) {
            const Coord c{x, y};
            if (std::abs(x - src.first) + std::abs(y - src.second) != d || c == Coord{0, 0} ||
                std::find(picked.begin(), picked.end(), c) != picked.end() || !free(rx_, c) ||
                (response && !free(tx_, c)))
              continue;
            ring.push_back(c);
          }
        if (ring.empty()) break;
        picked.push_back(ring[rng_.below(ring.size())]);
      }
      if (picked.size() != distances.size() + 1) continue;
      ++tx_[idx(src)];
      if (response) ++rx_[idx(src)];
      for (std::size_t k = 1; k < picked.size(); ++k) {
        ++rx_[idx(picked[k])];
        if (response) ++tx_[idx(picked[k])];
      }
      return picked;
    }
  }

 private:
  bool free(const std::vector<int>& used, Coord c) const { return used[idx(c)] < cap_; }
  std::size_t idx(Coord c) const { return std::size_t(c.second * w_ + c.first); }

  int w_, h_;
  sim::Xoshiro256 rng_;
  int cap_;
  std::vector<int> tx_, rx_;
};

void unicast(std::ostream& os, Placer& p, const std::string& name, int distance, int bw,
             int resp, const char* cls) {
  const std::vector<Coord> c = p.place({distance}, true);
  os << "connection " << name << " " << xy(c[0]) << " " << xy(c[1]) << " " << bw;
  if (resp > 0) os << " resp " << resp;
  if (cls != nullptr) os << " class " << cls;
  os << "\n";
}

} // namespace

std::string mesh_traffic_scenario(std::uint64_t seed) {
  std::ostringstream os;
  os << "# mesh_traffic, seed " << seed << "\n"
     << "mesh 12 12\nslots 32\nclock 500\nhost 0,0\n"
     << "energy hop 1.0 dram 12.0 config 2.0\n";
  Placer p(12, 12, seed, 3);
  static constexpr int kUnicastBw[] = {60, 125, 190, 250};
  for (int i = 0; i < 40; ++i)
    unicast(os, p, "u" + std::to_string(i), 2 + (i * 7) % 16, kUnicastBw[i % 4], i % 2 ? 60 : 0,
            nullptr);
  for (int i = 0; i < 6; ++i) {
    const std::vector<Coord> c = p.place({4, 8, 12}, false);
    os << "multicast m" << i << " " << xy(c[0]);
    for (std::size_t k = 1; k < c.size(); ++k) os << " " << xy(c[k]);
    os << " bw " << (i % 2 ? 190 : 125) << "\n";
  }
  os << "run 12000\n";
  return os.str();
}

std::string dnn_switch_scenario(std::uint64_t seed) {
  struct Shape {
    int weights, ifmap, ofmap;
  };
  std::vector<Shape> layers;
  static constexpr int kWeights[] = {192, 384, 576, 768};
  static constexpr int kIfmap[] = {16, 32, 48};
  static constexpr int kOfmap[] = {8, 16};
  for (int i = 0; i < 8; ++i)
    layers.push_back({kWeights[i % 4], kIfmap[(i / 4) % 3], kOfmap[(i / 2) % 2]});
  sim::Xoshiro256 rng(seed);
  for (std::size_t i = layers.size() - 1; i > 0; --i)
    std::swap(layers[i], layers[rng.below(i + 1)]);

  std::ostringstream os;
  os << "# dnn_switch, seed " << seed << "\n"
     << "mesh 8 8\nclock 500\nhost 0,0\ndram 0,2 0,4 0,6\n"
     << "energy hop 1.0 dram 12.0 config 2.0\n"
     << "dnn grid 2,2 5x5 weights 2 ifmap 1 ofmap 1\n";
  for (std::size_t i = 0; i < layers.size(); ++i)
    os << "layer l" << i << " weights " << layers[i].weights << " ifmap " << layers[i].ifmap
       << " ofmap " << layers[i].ofmap << "\n";
  os << "run 40000\n";
  return os.str();
}

std::string degraded_heal_scenario(std::uint64_t seed) {
  std::ostringstream os;
  os << "# degraded_heal, seed " << seed << "\n"
     << "mesh 8 8\nslots 32\nclock 500\nhost 0,0\n"
     << "energy hop 1.0 dram 12.0 config 2.0\n";
  Placer p(8, 8, seed, 3);
  static constexpr int kGuaranteedBw[] = {190, 250, 310};
  static constexpr int kStandardBw[] = {125, 190};
  static constexpr int kBestEffortBw[] = {250, 310, 375};
  for (int i = 0; i < 6; ++i)
    unicast(os, p, "gt" + std::to_string(i), 2 + (i * 5) % 10, kGuaranteedBw[i % 3], i % 2 ? 60 : 0,
            "guaranteed");
  for (int i = 0; i < 8; ++i)
    unicast(os, p, "st" + std::to_string(i), 2 + (i * 3) % 10, kStandardBw[i % 2], 0, "standard");
  for (int i = 0; i < 14; ++i)
    unicast(os, p, "be" + std::to_string(i), 2 + (i * 7) % 10, kBestEffortBw[i % 3], 0, "best_effort");
  os << "run 25000\n";
  return os.str();
}

std::string degraded_heal_kill_plan(const std::string& scenario_text, std::size_t count,
                                    std::uint64_t first_cycle, std::uint64_t spacing,
                                    std::string* why) {
  std::istringstream in(scenario_text);
  auto sc = soc::parse_scenario(in, why);
  if (!sc) return {};
  const topo::Mesh mesh = sc->build();
  const alloc::NocClocking clk{sc->clock_mhz, 4};
  const std::vector<std::uint32_t> wheel{sc->slots.value_or(32)};
  auto dim = alloc::dimension_network(mesh.topo, sc->connections, clk, wheel, why);
  if (!dim) return {};
  alloc::SlotAllocator mirror(mesh.topo, dim->params);
  for (const alloc::AllocatedConnection& c : dim->allocation.connections) {
    mirror.restore(c.request);
    if (c.has_response) mirror.restore(c.response);
  }
  std::ostringstream os;
  os << "seed 1\n";
  std::size_t picked = 0;
  // link_usage is sorted by reserved slots, descending (ties: link id).
  for (const analysis::LinkUsage& u : analysis::link_usage(mesh.topo, mirror.schedule())) {
    const topo::Link& l = mesh.topo.link(u.link);
    if (!mesh.topo.is_router(l.src) || !mesh.topo.is_router(l.dst)) continue;
    os << "kill data@" << u.link << " " << first_cycle + picked * spacing << " 1000000000\n";
    if (++picked == count) break;
  }
  return os.str();
}

ChurnInputs churn_online_inputs(std::uint64_t seed) {
  ChurnInputs in;
  in.ops = 12000;
  in.check_ops = 1500;
  in.workload.seed = seed;
  in.workload.arrival_rate = 0.001;
  in.workload.mean_hold_cycles = 600000.0;
  in.workload.modify_fraction = 0.10;
  in.workload.multicast_fraction = 0.10;
  return in;
}

std::string describe(const ChurnInputs& in) {
  const alloc::ChurnWorkloadOptions& w = in.workload;
  std::ostringstream os;
  os << "# churn_online: open-loop request stream fed to alloc::ChurnService\n"
     << "mesh " << in.mesh_dim << "x" << in.mesh_dim << "\nslots " << in.slots
     << "\nallocator incremental\nops " << in.ops << "\ncheck_ops " << in.check_ops
     << "\nseed " << w.seed << "\narrival_rate " << w.arrival_rate << "\nmean_hold_cycles "
     << w.mean_hold_cycles << "\nmodify_fraction " << w.modify_fraction
     << "\nmulticast_fraction " << w.multicast_fraction << "\nmax_fanout " << w.max_fanout
     << "\nmin_slots " << w.min_slots << "\nmax_slots " << w.max_slots << "\nresponse_slots "
     << w.response_slots << "\n";
  return os.str();
}

} // namespace nocbench
