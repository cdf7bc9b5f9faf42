#include "daelite/network.hpp"

#include <algorithm>
#include <cassert>

namespace daelite::hw {

DaeliteNetwork::DaeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options)
    : kernel_(&k), topo_(&topo), options_(options) {
  assert(options_.tdm.valid());
  cfg_ids_ = assign_cfg_ids(topo);
  cfg_tree_ = topo::build_config_tree(topo, options_.cfg_root);
  assert(cfg_tree_.spans_all() && "configuration tree must reach every network element");

  // Instantiate elements.
  Ni::Params ni_params;
  ni_params.tdm = options_.tdm;
  ni_params.num_channels = options_.ni_channels;
  ni_params.queue_capacity = options_.ni_queue_capacity;

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const topo::Node& node = topo.node(n);
    if (node.kind == topo::NodeKind::kRouter) {
      routers_[n] = std::make_unique<Router>(k, node.name, cfg_ids_.at(n), node.in_links.size(),
                                             node.out_links.size(), options_.tdm);
    } else {
      assert(node.in_links.size() == 1 && node.out_links.size() == 1 &&
             "an NI attaches to exactly one router");
      nis_[n] = std::make_unique<Ni>(k, node.name, cfg_ids_.at(n), ni_params);
      tx_queue_used_[n].assign(options_.ni_channels, false);
      rx_queue_used_[n].assign(options_.ni_channels, false);
    }
  }

  // Wire the data links.
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const topo::Link& link = topo.link(l);
    const sim::Reg<Flit>* src_reg =
        topo.is_router(link.src) ? &routers_.at(link.src)->output_reg(link.src_port)
                                 : &nis_.at(link.src)->output_reg();
    if (topo.is_router(link.dst)) {
      routers_.at(link.dst)->connect_input(link.dst_port, src_reg);
    } else {
      nis_.at(link.dst)->connect_input(src_reg);
    }
  }

  // Host configuration module + broadcast tree wiring.
  ConfigModule::Params cfg_params;
  cfg_params.cool_down_cycles = options_.cool_down_cycles;
  if (options_.cfg_watchdog) {
    // A read response round-trips in ~4*depth+6 cycles after the request's
    // last word; the derived default adds slack for the host-write padding.
    cfg_params.response_timeout_cycles =
        options_.cfg_response_timeout != 0
            ? options_.cfg_response_timeout
            : std::max<std::uint32_t>(
                  1, static_cast<std::uint32_t>((4 * cfg_tree_.max_depth() + 16) *
                                                std::max(0.0, options_.cfg_timeout_mult)));
    cfg_params.max_retries = options_.cfg_max_retries;
    cfg_params.retry_cool_down_cycles = options_.cool_down_cycles;
  }
  config_module_ = std::make_unique<ConfigModule>(k, "cfg_host", cfg_params);

  auto agent_of = [&](topo::NodeId n) -> ConfigAgent& {
    return topo.is_router(n) ? routers_.at(n)->config_agent() : nis_.at(n)->config_agent();
  };
  for (topo::NodeId n : cfg_tree_.bfs_order) {
    if (n == cfg_tree_.root) {
      agent_of(n).connect_parent(&config_module_->fwd_out());
    } else {
      ConfigAgent& parent = agent_of(cfg_tree_.parent[n]);
      agent_of(n).connect_parent(&parent.fwd_out());
      parent.add_child_resp(&agent_of(n).resp_out());
    }
  }
  config_module_->connect_resp(&agent_of(cfg_tree_.root).resp_out());

  // Let the module suspend the whole (otherwise per-cycle) configuration
  // tree once it has drained — the dominant scheduling win on large
  // meshes, where agents are half of all components.
  std::vector<sim::Component*> agents;
  agents.reserve(cfg_tree_.bfs_order.size());
  for (topo::NodeId n : cfg_tree_.bfs_order) agents.push_back(&agent_of(n));
  config_module_->manage_tree(std::move(agents),
                              ConfigModule::drain_cycles(cfg_tree_.max_depth()));
}

// --- Queue management ----------------------------------------------------------

std::uint8_t DaeliteNetwork::alloc_tx_queue(topo::NodeId ni) {
  auto& used = tx_queue_used_.at(ni);
  for (std::size_t q = 0; q < used.size(); ++q) {
    if (!used[q]) {
      used[q] = true;
      return static_cast<std::uint8_t>(q);
    }
  }
  assert(false && "NI out of tx queues");
  return 0;
}

std::uint8_t DaeliteNetwork::alloc_rx_queue(topo::NodeId ni) {
  auto& used = rx_queue_used_.at(ni);
  for (std::size_t q = 0; q < used.size(); ++q) {
    if (!used[q]) {
      used[q] = true;
      return static_cast<std::uint8_t>(q);
    }
  }
  assert(false && "NI out of rx queues");
  return 0;
}

void DaeliteNetwork::free_tx_queue(topo::NodeId ni, std::uint8_t q) {
  tx_queue_used_.at(ni)[q] = false;
}
void DaeliteNetwork::free_rx_queue(topo::NodeId ni, std::uint8_t q) {
  rx_queue_used_.at(ni)[q] = false;
}

// --- Hardware configuration path -------------------------------------------------

std::vector<std::vector<std::uint8_t>> DaeliteNetwork::encode_route_packets(
    const alloc::RouteTree& route, std::uint8_t tx_queue,
    const std::vector<std::uint8_t>& rx_queues, bool setup) const {
  const auto segments = alloc::make_cfg_segments(*topo_, options_.tdm, route, tx_queue, rx_queues);
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(segments.size());
  for (const auto& seg : segments)
    packets.push_back(encode_path_packet(seg, options_.tdm, cfg_ids_, setup));
  if (!setup) {
    // Tear down the trunk (which disarms the source NI) before the
    // branches, the reverse of the bring-up order.
    std::reverse(packets.begin(), packets.end());
  }
  return packets;
}

void DaeliteNetwork::post_route_setup(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                      const std::vector<std::uint8_t>& rx_queues) {
  for (auto& p : encode_route_packets(route, tx_queue, rx_queues, true))
    config_module_->enqueue_packet(std::move(p), /*is_path=*/true);
}

void DaeliteNetwork::post_route_teardown(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                         const std::vector<std::uint8_t>& rx_queues) {
  for (auto& p : encode_route_packets(route, tx_queue, rx_queues, false))
    config_module_->enqueue_packet(std::move(p), /*is_path=*/true);
}

ConnectionHandle DaeliteNetwork::open_connection(const alloc::AllocatedConnection& conn) {
  ConnectionHandle h;
  h.conn = conn;
  const alloc::RouteTree& req = conn.request;
  const std::uint64_t seq = setup_seq_++;
  config_module_->enqueue_marker(sim::TraceEvent::kSetupBegin, seq);

  h.src_tx_q = alloc_tx_queue(req.src_ni);
  for (topo::NodeId dst : req.dst_nis) h.dst_rx_qs.push_back(alloc_rx_queue(dst));

  // Modelling metadata for latency/ordering accounting.
  nis_.at(req.src_ni)->set_debug_channel(h.src_tx_q, req.channel);

  if (conn.has_response) {
    const topo::NodeId dst = req.dst_nis[0];
    h.dst_tx_q = alloc_tx_queue(dst);
    h.src_rx_q = alloc_rx_queue(req.src_ni);
    nis_.at(dst)->set_debug_channel(h.dst_tx_q, conn.response.channel);

    post_route_setup(req, h.src_tx_q, h.dst_rx_qs);
    post_route_setup(conn.response, h.dst_tx_q, {h.src_rx_q});

    const std::uint16_t src_id = cfg_ids_.at(req.src_ni);
    const std::uint16_t dst_id = cfg_ids_.at(dst);
    const auto cap = static_cast<std::uint8_t>(
        std::min<std::size_t>(options_.ni_queue_capacity, 63)); // 6-bit credit values
    config_module_->enqueue_packet(encode_set_pair(src_id, h.src_tx_q, h.src_rx_q), false);
    config_module_->enqueue_packet(encode_set_pair(dst_id, h.dst_tx_q, h.dst_rx_qs[0]), false);
    config_module_->enqueue_packet(encode_write_credit(src_id, h.src_tx_q, cap), false);
    config_module_->enqueue_packet(encode_write_credit(dst_id, h.dst_tx_q, cap), false);
    config_module_->enqueue_packet(encode_set_flags(src_id, h.src_tx_q, kFlagTxEnabled), false);
    config_module_->enqueue_packet(encode_set_flags(dst_id, h.dst_tx_q, kFlagTxEnabled), false);
  } else {
    // Multicast: no response channel, flow control disabled (paper §IV:
    // "the default flow-control mechanism cannot be used").
    post_route_setup(req, h.src_tx_q, h.dst_rx_qs);
    const std::uint16_t src_id = cfg_ids_.at(req.src_ni);
    config_module_->enqueue_packet(encode_set_pair(src_id, h.src_tx_q, kCfgNoQueue), false);
    config_module_->enqueue_packet(
        encode_set_flags(src_id, h.src_tx_q, kFlagTxEnabled | kFlagFlowCtrlOff), false);
  }
  config_module_->enqueue_marker(sim::TraceEvent::kSetupEnd, seq);
  return h;
}

void DaeliteNetwork::close_connection(const ConnectionHandle& h) {
  const alloc::RouteTree& req = h.conn.request;
  const std::uint64_t seq = teardown_seq_++;
  config_module_->enqueue_marker(sim::TraceEvent::kTeardownBegin, seq);
  // Disable the sources first, then clear the tables.
  config_module_->enqueue_packet(encode_set_flags(cfg_ids_.at(req.src_ni), h.src_tx_q, 0), false);
  if (h.conn.has_response) {
    config_module_->enqueue_packet(
        encode_set_flags(cfg_ids_.at(req.dst_nis[0]), h.dst_tx_q, 0), false);
  }
  post_route_teardown(req, h.src_tx_q, h.dst_rx_qs);
  if (h.conn.has_response) post_route_teardown(h.conn.response, h.dst_tx_q, {h.src_rx_q});

  free_tx_queue(req.src_ni, h.src_tx_q);
  for (std::size_t i = 0; i < req.dst_nis.size(); ++i)
    free_rx_queue(req.dst_nis[i], h.dst_rx_qs[i]);
  if (h.conn.has_response) {
    free_tx_queue(req.dst_nis[0], h.dst_tx_q);
    free_rx_queue(req.src_ni, h.src_rx_q);
  }
  config_module_->enqueue_marker(sim::TraceEvent::kTeardownEnd, seq);
}

bool DaeliteNetwork::config_idle() const { return config_module_->idle(); }

sim::Cycle DaeliteNetwork::run_config(sim::Cycle max_cycles) {
  const sim::Cycle start = kernel_->now();
  if (!kernel_->run_until([this] { return config_module_->idle(); }, max_cycles)) {
    // Configuration did not converge inside the budget (e.g. a lost read
    // response with the watchdog disabled). This used to be an assert that
    // NDEBUG builds silently swallowed; the sentinel forces every caller
    // to decide.
    return sim::kNoCycle;
  }
  kernel_->run(ConfigModule::drain_cycles(cfg_tree_.max_depth()));
  return kernel_->now() - start;
}

// --- Direct (test) configuration ---------------------------------------------------

void DaeliteNetwork::program_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                          const std::vector<std::uint8_t>& rx_queues) {
  const tdm::TdmParams& p = options_.tdm;
  Ni& src = *nis_.at(route.src_ni);
  src.set_debug_channel(tx_queue, route.channel);
  for (tdm::Slot q : route.inject_slots) {
    src.table().set_tx(q, tx_queue);
    for (const alloc::RouteEdge& e : route.edges) {
      const topo::Link& link = topo_->link(e.link);
      if (!topo_->is_router(link.src)) continue; // the NI->router link has no table entry
      const auto parent = route.edge_into(*topo_, link.src);
      assert(parent.has_value());
      const auto in_port = static_cast<tdm::PortIndex>(topo_->link(parent->link).dst_port);
      routers_.at(link.src)->table().set(link.src_port, p.slot_at_link(q, e.depth), in_port);
    }
    for (std::size_t i = 0; i < route.dst_nis.size(); ++i) {
      const topo::NodeId dst = route.dst_nis[i];
      nis_.at(dst)->table().set_rx(route.rx_slot(*topo_, p, dst, q), rx_queues[i]);
    }
  }
}

void DaeliteNetwork::clear_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                        const std::vector<std::uint8_t>& rx_queues) {
  (void)tx_queue;
  (void)rx_queues;
  const tdm::TdmParams& p = options_.tdm;
  Ni& src = *nis_.at(route.src_ni);
  for (tdm::Slot q : route.inject_slots) {
    src.table().clear_tx(q);
    for (const alloc::RouteEdge& e : route.edges) {
      const topo::Link& link = topo_->link(e.link);
      if (!topo_->is_router(link.src)) continue;
      routers_.at(link.src)->table().clear(link.src_port, p.slot_at_link(q, e.depth));
    }
    for (topo::NodeId dst : route.dst_nis)
      nis_.at(dst)->table().clear_rx(route.rx_slot(*topo_, p, dst, q));
  }
}

// --- Aggregate health ----------------------------------------------------------------

std::uint64_t DaeliteNetwork::total_router_drops() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : routers_) n += r->stats().flits_dropped;
  return n;
}

std::uint64_t DaeliteNetwork::total_ni_drops() const {
  std::uint64_t n = 0;
  for (const auto& [id, ni] : nis_) n += ni->stats().flits_dropped;
  return n;
}

std::uint64_t DaeliteNetwork::total_rx_overflow() const {
  std::uint64_t n = 0;
  for (const auto& [id, ni] : nis_) n += ni->stats().rx_overflow;
  return n;
}

std::uint64_t DaeliteNetwork::total_cfg_errors() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : routers_) n += r->stats().cfg_errors;
  for (const auto& [id, ni] : nis_) n += ni->stats().cfg_errors;
  return n;
}

std::uint64_t DaeliteNetwork::total_corrupt_words() const {
  std::uint64_t n = 0;
  for (const auto& [id, ni] : nis_)
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni->rx_stats(q).corrupt_words;
  return n;
}

std::uint64_t DaeliteNetwork::total_lost_words() const {
  std::uint64_t n = 0;
  for (const auto& [id, ni] : nis_)
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni->rx_stats(q).lost_words;
  return n;
}

std::uint64_t DaeliteNetwork::total_protocol_errors() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : routers_) n += r->config_agent().protocol_errors();
  for (const auto& [id, ni] : nis_) n += ni->config_agent().protocol_errors();
  return n;
}

// --- SoA dispatch --------------------------------------------------------------------

bool DaeliteNetwork::enable_soa() {
  if (kernel_->scheduler() == sim::Scheduler::kReference) return false;
  if (engine_ != nullptr) return true;
  // Elements join in ascending node id, the registration order the
  // engine's staged trace records must follow.
  engine_ = std::make_unique<SlotEngine>(*kernel_, "soa", options_.tdm);
  for (topo::NodeId id = 0; id < topo_->node_count(); ++id) {
    if (topo_->is_router(id)) {
      engine_->add_router(*routers_.at(id));
    } else {
      engine_->add_ni(*nis_.at(id));
    }
  }
  engine_->finalize();
  return true;
}

// --- Fault injection -----------------------------------------------------------------

namespace {

// 4x32 data words + valid flags + credit; flips land in a carried data
// word when one exists (first preference: the word the bit addresses),
// else in the low credit bits so the corruption stays observable.
struct FlitFaultPolicy {
  static constexpr std::uint32_t kBits = 128;
  static bool present(const Flit& f) { return f.valid; }
  static void flip(Flit& f, std::uint32_t bit) {
    const std::uint32_t w = (bit / 32) % Flit::kMaxWords;
    const std::uint32_t b = bit % 32;
    if (f.data_valid[w]) {
      f.data[w] ^= 1u << b;
      return;
    }
    for (std::uint32_t i = 0; i < Flit::kMaxWords; ++i) {
      if (f.data_valid[i]) {
        f.data[i] ^= 1u << b;
        return;
      }
    }
    f.credit ^= 1u << (b % 6);
  }
  static void force_one(Flit& f, std::uint32_t bit) {
    const std::uint32_t w = (bit / 32) % Flit::kMaxWords;
    const std::uint32_t b = bit % 32;
    if (f.data_valid[w]) {
      f.data[w] |= 1u << b;
      return;
    }
    for (std::uint32_t i = 0; i < Flit::kMaxWords; ++i) {
      if (f.data_valid[i]) {
        f.data[i] |= 1u << b;
        return;
      }
    }
    f.credit |= 1u << (b % 6);
  }
};

struct CfgWordFaultPolicy {
  static constexpr std::uint32_t kBits = 7;
  static bool present(const CfgWord& w) { return w.valid; }
  static void flip(CfgWord& w, std::uint32_t bit) {
    w.data = static_cast<std::uint8_t>(w.data ^ (1u << (bit % kBits)));
  }
  static void force_one(CfgWord& w, std::uint32_t bit) {
    w.data = static_cast<std::uint8_t>(w.data | (1u << (bit % kBits)));
  }
};

} // namespace

void DaeliteNetwork::attach_fault_lines(sim::FaultInjector& injector, std::uint32_t class_mask) {
  using sim::FaultClass;
  if ((class_mask & sim::fault_class_bit(FaultClass::kData)) != 0) {
    // Fresh flits land on link registers only at slot-aligned cycles.
    const auto stride = static_cast<std::uint32_t>(options_.tdm.words_per_slot);
    for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
      const topo::Link& link = topo_->link(l);
      sim::Reg<Flit>& reg = topo_->is_router(link.src)
                                ? routers_.at(link.src)->output_reg(link.src_port)
                                : nis_.at(link.src)->output_reg();
      injector.watch<FlitFaultPolicy>(FaultClass::kData, reg, stride, 0);
    }
  }
  auto agent_of = [&](topo::NodeId n) -> ConfigAgent& {
    return topo_->is_router(n) ? routers_.at(n)->config_agent() : nis_.at(n)->config_agent();
  };
  if ((class_mask & sim::fault_class_bit(FaultClass::kCfgFwd)) != 0) {
    injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgFwd, config_module_->fwd_out());
    for (topo::NodeId n : cfg_tree_.bfs_order)
      injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgFwd, agent_of(n).fwd_out());
  }
  if ((class_mask & sim::fault_class_bit(FaultClass::kCfgResp)) != 0) {
    for (topo::NodeId n : cfg_tree_.bfs_order)
      injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgResp, agent_of(n).resp_out());
  }
}

} // namespace daelite::hw
