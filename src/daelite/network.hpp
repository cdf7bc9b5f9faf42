#pragma once
// Whole-network assembly: instantiate routers, NIs, the configuration tree
// and the host configuration module from a Topology, and provide the
// connection-level programming API (the paper's set-up / tear-down
// procedure, §IV).
//
// Two programming paths exist:
//  * the hardware path — open_connection()/close_connection() build the
//    configuration packets and stream them through the broadcast tree, so
//    set-up cost and timing are exactly what the paper measures;
//  * the direct path — program_route_direct() pokes the slot tables
//    immediately, used by unit tests to separate data-path correctness
//    from configuration correctness.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/route.hpp"
#include "alloc/usecase.hpp"
#include "daelite/config.hpp"
#include "daelite/config_host.hpp"
#include "daelite/ni.hpp"
#include "daelite/router.hpp"
#include "daelite/slot_engine.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "topology/graph.hpp"
#include "topology/spanning_tree.hpp"

namespace daelite::hw {

/// Queue bindings of an open connection.
struct ConnectionHandle {
  alloc::AllocatedConnection conn;
  std::uint8_t src_tx_q = 0;               ///< request data out of the source NI
  std::uint8_t src_rx_q = 0;               ///< response data into the source NI (unicast)
  std::uint8_t dst_tx_q = 0;               ///< response data out of the destination NI (unicast)
  std::vector<std::uint8_t> dst_rx_qs;     ///< request data into each destination NI
};

class DaeliteNetwork {
 public:
  struct Options {
    tdm::TdmParams tdm = tdm::daelite_params(8);
    std::size_t ni_channels = 8;
    std::size_t ni_queue_capacity = 32;
    topo::NodeId cfg_root = 0;           ///< element the config module attaches to
    std::uint32_t cool_down_cycles = 4;
    /// Response watchdog on the configuration module. The timeout defaults
    /// to a bound derived from the tree depth (a response round-trip takes
    /// ~4*depth+6 cycles after the request's last word); override with
    /// cfg_response_timeout != 0. cfg_watchdog = false restores the
    /// pre-watchdog blocking behaviour (protocol tests).
    bool cfg_watchdog = true;
    std::uint32_t cfg_response_timeout = 0; ///< 0: derive from tree depth
    std::uint32_t cfg_max_retries = 3;
    /// Scale on the depth-derived timeout (ignored when
    /// cfg_response_timeout is set explicitly). Values > 1 trade slower
    /// loss detection for robustness on congested trees; the product is
    /// clamped to at least one cycle.
    double cfg_timeout_mult = 1.0;
  };

  DaeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options);

  Router& router(topo::NodeId id) { return *routers_.at(id); }
  Ni& ni(topo::NodeId id) { return *nis_.at(id); }
  const Ni& ni(topo::NodeId id) const { return *nis_.at(id); }
  ConfigModule& config_module() { return *config_module_; }
  const topo::ConfigTree& config_tree() const { return cfg_tree_; }
  const CfgIdMap& cfg_ids() const { return cfg_ids_; }
  const topo::Topology& topology() const { return *topo_; }
  const Options& options() const { return options_; }
  sim::Kernel& kernel() { return *kernel_; }

  // --- Hardware configuration path -------------------------------------------

  /// Enqueue the full set-up sequence for an allocated connection:
  /// path packets (branches before trunk), credit pairing, credit
  /// initialization, and flags. Returns the queue bindings.
  ConnectionHandle open_connection(const alloc::AllocatedConnection& conn);

  /// Enqueue the tear-down sequence and free the queues.
  void close_connection(const ConnectionHandle& handle);

  /// Enqueue set-up packets for a bare channel (no credits/flags).
  void post_route_setup(const alloc::RouteTree& route, std::uint8_t tx_queue,
                        const std::vector<std::uint8_t>& rx_queues);
  void post_route_teardown(const alloc::RouteTree& route, std::uint8_t tx_queue,
                           const std::vector<std::uint8_t>& rx_queues);

  /// True when the module finished streaming and the words drained to the
  /// deepest tree node.
  bool config_idle() const;

  /// Run the kernel until config_idle() (with drain). Returns cycles
  /// spent, or sim::kNoCycle if the configuration did not converge within
  /// max_cycles (e.g. a lost read response with the watchdog disabled) —
  /// callers must check, in NDEBUG builds too.
  sim::Cycle run_config(sim::Cycle max_cycles = 1'000'000);

  // --- Direct (test) configuration --------------------------------------------

  void program_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                            const std::vector<std::uint8_t>& rx_queues);
  void clear_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                          const std::vector<std::uint8_t>& rx_queues);

  // --- Queue management --------------------------------------------------------

  std::uint8_t alloc_tx_queue(topo::NodeId ni);
  std::uint8_t alloc_rx_queue(topo::NodeId ni);
  void free_tx_queue(topo::NodeId ni, std::uint8_t q);
  void free_rx_queue(topo::NodeId ni, std::uint8_t q);

  // --- Aggregate health --------------------------------------------------------

  std::uint64_t total_router_drops() const;
  std::uint64_t total_ni_drops() const;
  std::uint64_t total_rx_overflow() const;
  std::uint64_t total_cfg_errors() const;
  /// Config-agent protocol errors across routers AND NIs (the report's
  /// `health.protocol_errors` — NI agents used to be invisible).
  std::uint64_t total_protocol_errors() const;
  /// End-to-end integrity verdicts summed over every NI rx channel
  /// (per-word parity mismatches / sideband sequence gaps).
  std::uint64_t total_corrupt_words() const;
  std::uint64_t total_lost_words() const;

  // --- SoA dispatch ------------------------------------------------------------

  /// Switch the data path to batched SoA slot dispatch (hw::SlotEngine):
  /// one engine takes over ticking and committing every router and NI
  /// over flat slot-table pools, with idle elements skipped outright.
  /// Byte-identical reports and traces; only wall-clock time changes.
  /// Call before running traffic or attaching an injector/monitor.
  /// Returns false (and changes nothing) under the reference scheduler,
  /// which ignores suspension — the oracle stays per-component.
  /// Idempotent.
  bool enable_soa();
  bool soa_enabled() const { return engine_ != nullptr; }

  // --- Fault injection ---------------------------------------------------------

  /// Register every link of the selected classes (kData: data links in
  /// topology order; kCfgFwd/kCfgResp: configuration tree in BFS order)
  /// with an injector. The injector must have been constructed after this
  /// network so it commits last in the cycle.
  void attach_fault_lines(sim::FaultInjector& injector,
                          std::uint32_t class_mask = sim::kAllFaultClasses);

 private:
  /// (segments, queue words) shared by setup and teardown.
  std::vector<std::vector<std::uint8_t>> encode_route_packets(const alloc::RouteTree& route,
                                                              std::uint8_t tx_queue,
                                                              const std::vector<std::uint8_t>& rx_queues,
                                                              bool setup) const;

  sim::Kernel* kernel_;
  const topo::Topology* topo_;
  Options options_;
  CfgIdMap cfg_ids_;
  topo::ConfigTree cfg_tree_;

  std::map<topo::NodeId, std::unique_ptr<Router>> routers_;
  std::map<topo::NodeId, std::unique_ptr<Ni>> nis_;
  std::unique_ptr<ConfigModule> config_module_;
  /// Batched dispatch engine (enable_soa). Declared after the elements so
  /// it is destroyed first — its slot-table pools outlive every rebound
  /// table.
  std::unique_ptr<SlotEngine> engine_;

  std::map<topo::NodeId, std::vector<bool>> tx_queue_used_;
  std::map<topo::NodeId, std::vector<bool>> rx_queue_used_;

  std::uint64_t setup_seq_ = 0;    ///< trace-span sequence numbers (arg0 of the
  std::uint64_t teardown_seq_ = 0; ///< kSetup*/kTeardown* marker records)
};

} // namespace daelite::hw
