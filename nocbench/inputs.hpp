#pragma once
// Seeded input generators of the four benchmark workloads. Every input the
// program under test receives is made here from the workload seed, and
// written beside the results so any run can be replayed with the shipped
// tools (daelite_sim reads the scenario text and the kill plan as-is).
//
// Seeds move placement and ordering, never the mix: each workload draws
// from a fixed multiset of demands and layer shapes, so figures of two
// seeds differ by geometry only and stay comparable run to run.

#include <cstdint>
#include <string>

#include "alloc/churn.hpp"

namespace nocbench {

namespace alloc = daelite::alloc;

/// mesh_traffic: 12x12 mesh, 40 unicast + 6 multicast connections with a
/// fixed bandwidth multiset at seeded positions, saturated traffic.
std::string mesh_traffic_scenario(std::uint64_t seed);

/// dnn_switch: 8x8 mesh, 5x5 tile grid, 3 DRAM ports, energy model on,
/// 48 short layers (fixed shape multiset, seeded order).
std::string dnn_switch_scenario(std::uint64_t seed);

/// degraded_heal: 8x8 mesh with guaranteed, standard and best-effort
/// connections at seeded positions.
std::string degraded_heal_scenario(std::uint64_t seed);

/// Kill plan for a degraded_heal scenario: kill the `count` router-to-router
/// data links that carry the most reserved slots in the scenario's own
/// dimensioned allocation, one every `spacing` cycles from `first_cycle`,
/// each for the rest of the run. Empty string (and `why` set) if the
/// scenario does not dimension.
std::string degraded_heal_kill_plan(const std::string& scenario_text, std::size_t count,
                                    std::uint64_t first_cycle, std::uint64_t spacing,
                                    std::string* why);

/// churn_online: the open-loop request stream's options (8x8 mesh, S=32).
struct ChurnInputs {
  int mesh_dim = 8;
  std::uint32_t slots = 32;
  std::uint64_t ops = 0;        ///< operations per measured stream
  std::uint64_t check_ops = 0;  ///< untimed prefix replayed on the from-scratch allocator
  alloc::ChurnWorkloadOptions workload;
};
ChurnInputs churn_online_inputs(std::uint64_t seed);
std::string describe(const ChurnInputs& in);

} // namespace nocbench
