#include "check/oracles.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace ibwan::check {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The slower of the LAN and WAN serialization rates — the path's
/// throughput bottleneck.
double bottleneck_rate(const PathModel& path) {
  return std::min(path.lan_rate, path.wan_rate);
}

/// Minimum round trip of the cross-WAN path: propagation only, no
/// serialization or HCA costs, so it lower-bounds every real RTT and
/// window/RTT_min upper-bounds every window-limited throughput.
sim::Duration rtt_min_ns(const PathModel& path, sim::Duration wan_delay) {
  return 2 * (path.fixed_prop + wan_delay);
}

std::uint64_t packets_for(std::uint64_t msg_size, std::uint32_t mtu) {
  return msg_size == 0 ? 1 : (msg_size + mtu - 1) / mtu;
}

/// Finite-volume throughput: transferring `total` bytes at steady rate
/// `rate_mbps` still pays `ramp_ns` of pipeline fill (the measurement
/// convention times first doorbell to last completion). Returns the
/// corrected MB/s; total == 0 returns the steady rate unchanged.
double finite_volume_mbps(double rate_mbps, std::uint64_t total,
                          double ramp_ns) {
  if (total == 0 || rate_mbps <= 0.0) return rate_mbps;
  const double wire_ns = 1000.0 * static_cast<double>(total) / rate_mbps;
  return 1000.0 * static_cast<double>(total) / (wire_ns + ramp_ns);
}

}  // namespace

// ---- OracleReport ---------------------------------------------------

void OracleReport::add(CheckResult r) {
  if (!r.pass) ++failures_;
  checks_.push_back(std::move(r));
}

void OracleReport::expect_near(const std::string& oracle,
                               const std::string& context, double measured,
                               double predicted, double rel, double abs_eps) {
  const double err = std::abs(measured - predicted);
  const bool pass = err <= std::abs(predicted) * rel + abs_eps;
  add({oracle, context, pass,
       "measured=" + fmt(measured) + " predicted=" + fmt(predicted) +
           " rel_tol=" + fmt(rel)});
}

void OracleReport::expect_le(const std::string& oracle,
                             const std::string& context, double measured,
                             double bound, double slack) {
  const bool pass = measured <= bound * (1.0 + slack);
  add({oracle, context, pass,
       "measured=" + fmt(measured) + " bound=" + fmt(bound) +
           " slack=" + fmt(slack)});
}

void OracleReport::expect_ge(const std::string& oracle,
                             const std::string& context, double measured,
                             double floor, double slack) {
  const bool pass = measured >= floor * (1.0 - slack);
  add({oracle, context, pass,
       "measured=" + fmt(measured) + " floor=" + fmt(floor) +
           " slack=" + fmt(slack)});
}

void OracleReport::expect_eq_u64(const std::string& oracle,
                                 const std::string& context,
                                 std::uint64_t measured,
                                 std::uint64_t expected) {
  add({oracle, context, measured == expected,
       "measured=" + std::to_string(measured) +
           " expected=" + std::to_string(expected)});
}

void OracleReport::expect_true(const std::string& oracle,
                               const std::string& context, bool ok,
                               const std::string& detail) {
  add({oracle, context, ok, detail});
}

void OracleReport::merge(const OracleReport& other) {
  for (const CheckResult& r : other.checks_) add(r);
}

std::string OracleReport::failure_log() const {
  std::string out;
  for (const CheckResult& r : checks_) {
    if (r.pass) continue;
    out += "FAIL [" + r.oracle + "] " + r.context + ": " + r.detail + "\n";
  }
  return out;
}

std::string OracleReport::summary() const {
  return std::to_string(checks_.size()) + " checks, " +
         std::to_string(failures_) + " failed";
}

// ---- Path model -----------------------------------------------------

PathModel cross_wan_path(const net::FabricConfig& cfg) {
  PathModel path;
  path.lan_rate = cfg.lan_rate;
  path.wan_rate = cfg.longbow.wan_rate;
  // host->switch, switch->longbow, longbow->switch, switch->host cables
  // plus two switch hops, two Longbow pipeline traversals, and the
  // zero-distance fiber (net/fabric.cpp build_cluster_of_clusters).
  path.fixed_prop = 4 * cfg.host_link_prop + 2 * cfg.switch_latency +
                    2 * cfg.longbow.pipeline_latency +
                    cfg.longbow.base_propagation;
  path.lan_links = 4;
  return path;
}

sim::Duration path_serialization_ns(const PathModel& path,
                                    std::uint64_t wire_bytes) {
  const sim::Duration lan = sim::duration_ceil(
      static_cast<double>(wire_bytes) / path.lan_rate);
  const sim::Duration wan = sim::duration_ceil(
      static_cast<double>(wire_bytes) / path.wan_rate);
  return static_cast<sim::Duration>(path.lan_links) * lan + wan;
}

// ---- Latency oracles ------------------------------------------------

double verbs_latency_model_us(const net::FabricConfig& cfg,
                              const ib::HcaConfig& hca,
                              ib::perftest::Transport transport,
                              ib::perftest::Op op, std::uint64_t msg_size,
                              sim::Duration wan_delay) {
  const PathModel path = cross_wan_path(cfg);
  const std::uint32_t hdr = transport == ib::perftest::Transport::kUd
                                ? ib::kUdHeaderBytes
                                : ib::kRcHeaderBytes;
  // Sender: doorbell + per-packet engine. Receiver: per-packet rx cost,
  // then either receive-WQE matching + CQE delivery (channel semantics)
  // or the cheaper RDMA write detection (memory polling, no CQE).
  sim::Duration hca_ns = hca.wqe_overhead + hca.pkt_overhead +
                         hca.rx_pkt_overhead;
  if (op == ib::perftest::Op::kRdmaWrite) {
    hca_ns += hca.rdma_detect_overhead;
  } else {
    hca_ns += hca.recv_match_overhead + hca.cqe_latency;
  }
  const sim::Duration total = path.fixed_prop + wan_delay +
                              path_serialization_ns(path, msg_size + hdr) +
                              hca_ns;
  return static_cast<double>(total) / 1000.0;
}

double oneway_floor_us(const net::FabricConfig& cfg, sim::Duration wan_delay) {
  return static_cast<double>(cross_wan_path(cfg).fixed_prop + wan_delay) /
         1000.0;
}

double topology_oneway_floor_us(const net::TopologyConfig& topo, int src_site,
                                int dst_site, sim::Duration wan_delay) {
  const net::WanRoutes routes = net::compute_wan_routes(topo);
  const sim::Duration floor =
      net::path_floor_ns(topo, routes, src_site, dst_site, wan_delay);
  return static_cast<double>(floor) / 1000.0;
}

double km_latency_increment_us(double km) { return 5.0 * km; }

// ---- Bandwidth oracles ----------------------------------------------

double rc_wire_peak_mbps(const net::FabricConfig& cfg,
                         const ib::HcaConfig& hca, std::uint64_t msg_size) {
  const PathModel path = cross_wan_path(cfg);
  const std::uint64_t pkts = packets_for(msg_size, hca.mtu);
  const std::uint64_t wire = msg_size + pkts * ib::kRcHeaderBytes;
  return 1000.0 * bottleneck_rate(path) * static_cast<double>(msg_size) /
         static_cast<double>(wire);
}

double rc_window_bound_mbps(const net::FabricConfig& cfg,
                            const ib::HcaConfig& hca, std::uint64_t msg_size,
                            sim::Duration wan_delay) {
  const PathModel path = cross_wan_path(cfg);
  const double rtt = static_cast<double>(rtt_min_ns(path, wan_delay));
  return 1000.0 * static_cast<double>(hca.rc_max_inflight_msgs) *
         static_cast<double>(msg_size) / rtt;
}

std::uint64_t bdp_bytes(const net::FabricConfig& cfg,
                        sim::Duration wan_delay) {
  const PathModel path = cross_wan_path(cfg);
  return static_cast<std::uint64_t>(
      bottleneck_rate(path) *
      static_cast<double>(rtt_min_ns(path, wan_delay)));
}

void check_rc_bw(OracleReport& report, const std::string& context,
                 const net::FabricConfig& cfg, const ib::HcaConfig& hca,
                 std::uint64_t msg_size, sim::Duration wan_delay,
                 double measured_mbps, const Tolerances& tol,
                 std::uint64_t total_bytes) {
  const PathModel path = cross_wan_path(cfg);
  const double rtt = static_cast<double>(rtt_min_ns(path, wan_delay));
  const double wire = rc_wire_peak_mbps(cfg, hca, msg_size);
  const double window = rc_window_bound_mbps(cfg, hca, msg_size, wan_delay);
  report.expect_le("rc-bw-bound", context, measured_mbps,
                   std::min(wire, window), tol.bound_slack);
  const double window_product =
      static_cast<double>(hca.rc_max_inflight_msgs) *
      static_cast<double>(msg_size);
  const double bdp = static_cast<double>(bdp_bytes(cfg, wan_delay));
  if (window_product >= 2.0 * bdp) {
    // Above the knee the window covers the pipe: near-wire throughput,
    // minus the one-RTT pipeline fill a finite transfer pays.
    report.expect_ge("rc-knee", context + " above-knee", measured_mbps,
                     finite_volume_mbps(wire, total_bytes, rtt) *
                         tol.knee_high_frac);
  } else if (window_product <= 0.5 * bdp &&
             (total_bytes == 0 ||
              static_cast<double>(total_bytes) >= 4.0 * window_product)) {
    // Well below the knee the window bound is tight from both sides —
    // once the flow wraps the window enough times to reach steady state.
    report.expect_ge("rc-knee", context + " below-knee", measured_mbps,
                     finite_volume_mbps(window, total_bytes, rtt) *
                         tol.knee_low_frac);
  }
}

double ud_bw_model_mbps(const net::FabricConfig& cfg,
                        const ib::HcaConfig& hca, std::uint64_t msg_size) {
  const PathModel path = cross_wan_path(cfg);
  const std::uint64_t pkts = packets_for(msg_size, hca.mtu);
  // Steady-state inter-message gap: the sender engine (doorbell + one
  // engine tick per packet) or the per-message wire time on the slowest
  // link, whichever is longer. UD never waits for acks, so WAN delay
  // does not appear — Figure 4's delay-independence.
  const sim::Duration engine =
      hca.wqe_overhead + pkts * hca.pkt_overhead;
  const std::uint64_t full = hca.mtu + ib::kUdHeaderBytes;
  const std::uint64_t last =
      msg_size - (pkts - 1) * hca.mtu + ib::kUdHeaderBytes;
  const double rate = bottleneck_rate(path);
  const sim::Duration wire =
      (pkts - 1) * sim::duration_ceil(static_cast<double>(full) / rate) +
      sim::duration_ceil(static_cast<double>(last) / rate);
  const sim::Duration gap = std::max(engine, wire);
  return 1000.0 * static_cast<double>(msg_size) / static_cast<double>(gap);
}

void check_tcp_bw(OracleReport& report, const std::string& context,
                  const net::FabricConfig& cfg, std::uint32_t window_bytes,
                  int streams, sim::Duration wan_delay, double measured_mbps,
                  const Tolerances& tol, std::uint32_t cm_mtu,
                  int cm_rc_window, std::uint64_t bytes_per_stream) {
  const PathModel path = cross_wan_path(cfg);
  const double wire = 1000.0 * bottleneck_rate(path);
  const double rtt = static_cast<double>(rtt_min_ns(path, wan_delay));
  // All streams share one IpoibDevice pair; in connected mode that is
  // one RC QP whose message window caps the aggregate regardless of the
  // per-stream TCP windows.
  double window_product =
      static_cast<double>(streams) * static_cast<double>(window_bytes);
  if (cm_mtu != 0) {
    window_product =
        std::min(window_product, static_cast<double>(cm_rc_window) *
                                     static_cast<double>(cm_mtu));
  }
  const double window = 1000.0 * window_product / rtt;
  report.expect_le("tcp-bw-bound", context, measured_mbps,
                   std::min(wire, window), tol.bound_slack);
  const double bdp = static_cast<double>(bdp_bytes(cfg, wan_delay));
  const bool long_flow =
      bytes_per_stream == 0 ||
      static_cast<double>(bytes_per_stream) >= 8.0 * window_bytes;
  if (window_product <= 0.5 * bdp && long_flow) {
    // Slow start ramps to the window within a few RTTs; an 8-RTT ramp
    // allowance covers it for flows long enough to reach steady state.
    const std::uint64_t total =
        bytes_per_stream * static_cast<std::uint64_t>(streams);
    report.expect_ge("tcp-bw-bound", context + " window-limited",
                     measured_mbps,
                     finite_volume_mbps(window, total, 8.0 * rtt) *
                         tol.knee_low_frac);
  }
}

void check_mpi_bw(OracleReport& report, const std::string& context,
                  const net::FabricConfig& cfg, sim::Duration wan_delay,
                  double measured_mbps, const Tolerances& tol) {
  (void)wan_delay;  // the wire bound holds at every delay
  const double wire = 1000.0 * bottleneck_rate(cross_wan_path(cfg));
  report.expect_le("mpi-bw-bound", context, measured_mbps, wire,
                   tol.bound_slack);
}

double mpi_msg_rate_bound_mmps(const net::FabricConfig& cfg,
                               const ib::HcaConfig& hca, int pairs,
                               std::uint64_t msg_size) {
  const PathModel path = cross_wan_path(cfg);
  // Per-pair sender engine: one message per wqe+pkt overhead. Shared
  // wire: one message per wire time of its (single-packet) frame.
  const double engine =
      static_cast<double>(pairs) * 1000.0 /
      static_cast<double>(hca.wqe_overhead + hca.pkt_overhead);
  const double wire = 1000.0 * bottleneck_rate(path) /
                      static_cast<double>(msg_size + ib::kRcHeaderBytes);
  return std::min(engine, wire);
}

double bcast_floor_us(const net::FabricConfig& cfg, sim::Duration wan_delay) {
  // Broadcast data crosses to cluster B, the designated acker's reply
  // crosses back: at least one full propagation round trip.
  return static_cast<double>(rtt_min_ns(cross_wan_path(cfg), wan_delay)) /
         1000.0;
}

double nfs_bw_bound_mbps(const net::FabricConfig& cfg,
                         const ib::HcaConfig& server_hca,
                         std::uint64_t chunk_bytes, sim::Duration wan_delay,
                         bool lan) {
  if (lan) {
    // Server and client share one switch; no Longbow on the path and
    // negligible RTT, so only the LAN rate binds.
    return 1000.0 * cfg.lan_rate;
  }
  const PathModel path = cross_wan_path(cfg);
  const double wire = 1000.0 * bottleneck_rate(path);
  if (chunk_bytes == 0) return wire;  // IPoIB transport: wire bound only
  const double rtt = static_cast<double>(rtt_min_ns(path, wan_delay));
  const double window = 1000.0 *
                        static_cast<double>(server_hca.rc_max_inflight_msgs) *
                        static_cast<double>(chunk_bytes) / rtt;
  return std::min(wire, window);
}

// ---- Conservation ---------------------------------------------------

void check_conservation(OracleReport& report, const std::string& context,
                        const sim::MetricsSnapshot& snap,
                        const ConservationOptions& opt) {
  // Group counter rows by "<instance>/<layer>" scope. std::map keeps
  // the iteration (and thus the report) deterministic.
  std::map<std::string, std::map<std::string, std::uint64_t>> scopes;
  for (const auto& row : snap.counters) {
    const std::size_t slash = row.path.rfind('/');
    if (slash == std::string::npos) continue;
    scopes[row.path.substr(0, slash)][row.path.substr(slash + 1)] = row.value;
  }
  auto value = [](const std::map<std::string, std::uint64_t>& m,
                  const char* key) -> std::uint64_t {
    const auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
  };
  // Cross-scope SDR totals: a sender's chunks land in its peer's
  // receiver counters, so wire- and message-level identities only close
  // over the sum of every /sdr scope in the snapshot.
  std::uint64_t sdr_scopes = 0;
  std::uint64_t sdr_tx_chunks = 0, sdr_rx_chunks = 0;
  std::uint64_t sdr_msgs_completed = 0, sdr_msgs_delivered = 0;
  for (const auto& [scope, m] : scopes) {
    const std::string ctx = context + " " + scope;
    if (ends_with(scope, "/net.link")) {
      // Every wire byte a link serialized was delivered or dropped in
      // flight; buffer/brownout drops happen before serialization and
      // are outside the equation (net/link.hpp Stats).
      const std::uint64_t bytes_sent = value(m, "bytes_sent");
      const std::uint64_t bytes_out =
          value(m, "bytes_delivered") + value(m, "bytes_dropped");
      const std::uint64_t pkts_sent = value(m, "pkts_sent");
      const std::uint64_t pkts_out =
          value(m, "pkts_delivered") + value(m, "drops_fault") +
          value(m, "drops_link_down");
      if (opt.exact_links) {
        report.expect_eq_u64("link-conservation", ctx + " bytes", bytes_out,
                             bytes_sent);
        report.expect_eq_u64("link-conservation", ctx + " packets", pkts_out,
                             pkts_sent);
      } else {
        report.expect_true("link-conservation", ctx,
                           bytes_out <= bytes_sent && pkts_out <= pkts_sent,
                           "delivered+dropped <= sent (bytes " +
                               std::to_string(bytes_out) + "/" +
                               std::to_string(bytes_sent) + ")");
      }
    } else if (ends_with(scope, "/ib.rc")) {
      const std::uint64_t sent = value(m, "msgs_sent");
      const std::uint64_t completed = value(m, "send_completions");
      report.expect_true("rc-wqe-conservation", ctx, completed <= sent,
                         "send_completions=" + std::to_string(completed) +
                             " msgs_sent=" + std::to_string(sent));
      if (opt.exact_rc_wqes) {
        report.expect_eq_u64("rc-wqe-conservation", ctx + " exact", completed,
                             sent);
      }
    } else if (ends_with(scope, "/sdr")) {
      ++sdr_scopes;
      // Sender side: every message drained to exactly one terminal
      // state (the DONE/probe exchange guarantees liveness).
      report.expect_eq_u64(
          "sdr-conservation", ctx + " msgs",
          value(m, "msgs_completed") + value(m, "msgs_failed"),
          value(m, "msgs_sent"));
      // Receiver side: repairs consume parity, deliveries are backed by
      // received or repaired chunks, delivered bytes were decoded.
      report.expect_true(
          "sdr-conservation", ctx + " repairs",
          value(m, "chunks_repaired") <= value(m, "parity_chunks_received"),
          "chunks_repaired=" + std::to_string(value(m, "chunks_repaired")) +
              " parity_chunks_received=" +
              std::to_string(value(m, "parity_chunks_received")));
      const std::uint64_t delivered = value(m, "data_chunks_delivered");
      const std::uint64_t backed =
          value(m, "data_chunks_received") + value(m, "chunks_repaired");
      if (opt.exact_sdr) {
        report.expect_eq_u64("sdr-conservation", ctx + " chunks", delivered,
                             backed);
        report.expect_eq_u64("sdr-conservation", ctx + " bytes",
                             value(m, "msg_bytes_delivered"),
                             value(m, "decoded_bytes"));
      } else {
        report.expect_true("sdr-conservation", ctx + " chunks",
                           delivered <= backed,
                           "data_chunks_delivered=" + std::to_string(delivered) +
                               " received+repaired=" + std::to_string(backed));
        report.expect_true(
            "sdr-conservation", ctx + " bytes",
            value(m, "msg_bytes_delivered") <= value(m, "decoded_bytes"),
            "msg_bytes_delivered=" +
                std::to_string(value(m, "msg_bytes_delivered")) +
                " decoded_bytes=" + std::to_string(value(m, "decoded_bytes")));
      }
      sdr_tx_chunks += value(m, "data_chunks_sent") +
                       value(m, "parity_chunks_sent") +
                       value(m, "retrans_chunks_sent");
      sdr_rx_chunks += value(m, "data_chunks_received") +
                       value(m, "parity_chunks_received") +
                       value(m, "dup_chunks");
      sdr_msgs_completed += value(m, "msgs_completed");
      sdr_msgs_delivered += value(m, "msgs_delivered");
    } else if (ends_with(scope, "/kv.client")) {
      // Every quorum op terminates (finite timeout + bounded retries +
      // early abort), so the outcome split is exact at drain.
      report.expect_eq_u64(
          "kv-conservation", ctx + " ops",
          value(m, "ops_completed") + value(m, "ops_timed_out") +
              value(m, "ops_aborted"),
          value(m, "ops_issued"));
      // Replica calls resolve to ack/fail/late or are still suspended in
      // a transport at drain (an RC client waiting forever on a severed
      // WAN), hence one-sided.
      const std::uint64_t resolved = value(m, "replica_acks") +
                                     value(m, "replica_fails") +
                                     value(m, "replica_late");
      const std::uint64_t calls = value(m, "replica_calls");
      report.expect_true("kv-conservation", ctx + " replica-calls",
                         resolved <= calls,
                         "acks+fails+late=" + std::to_string(resolved) +
                             " replica_calls=" + std::to_string(calls));
    } else if (ends_with(scope, "/kv.replica")) {
      // The replica handler always replies, and classifies every
      // request as exactly one of read / applied write / stale write.
      const std::uint64_t requests = value(m, "requests");
      report.expect_eq_u64("kv-conservation", ctx + " replies",
                           value(m, "replies"), requests);
      report.expect_eq_u64("kv-conservation", ctx + " ops",
                           value(m, "reads_served") +
                               value(m, "writes_applied") +
                               value(m, "writes_stale"),
                           requests);
    }
  }
  if (sdr_scopes > 0) {
    // Chunks cross the wire at most once each; with exact_sdr (no loss)
    // every one of them arrived. A completed message was delivered by
    // some receiver (delivered-but-DONE-lost leaves delivered > completed).
    const std::string ctx = context + " sdr-global";
    if (opt.exact_sdr) {
      report.expect_eq_u64("sdr-conservation", ctx + " chunks", sdr_rx_chunks,
                           sdr_tx_chunks);
    } else {
      report.expect_true("sdr-conservation", ctx + " chunks",
                         sdr_rx_chunks <= sdr_tx_chunks,
                         "rx=" + std::to_string(sdr_rx_chunks) +
                             " tx=" + std::to_string(sdr_tx_chunks));
    }
    report.expect_true("sdr-conservation", ctx + " msgs",
                       sdr_msgs_completed <= sdr_msgs_delivered,
                       "completed=" + std::to_string(sdr_msgs_completed) +
                           " delivered=" + std::to_string(sdr_msgs_delivered));
  }
}

}  // namespace ibwan::check
