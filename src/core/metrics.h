// Cluster metrics collection: periodic sampling of per-MDS and
// cluster-wide rates into time series (figures 5-7) plus end-of-run
// aggregates (figures 2-4). Both read the same cumulative MDS counters
// (MdsStats, CacheStats), each incremented once where its event happens:
// a series value is a counter's growth since the previous sample over
// that window's length, and a total is its growth since the warm-up
// reset.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fault_log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"

namespace mdsim {

class MdsNode;
struct ClientStats;

class Metrics {
 public:
  /// `clients` are the stats of whatever issues the load, one per
  /// ClientCohort: per client in a single-engine cluster (cohorts of
  /// one), per shard in a sharded one.
  Metrics(std::vector<MdsNode*> nodes, std::vector<ClientStats*> clients);

  /// Take one sample (called by the cluster on its sampling cadence).
  void sample(SimTime now);
  /// Re-base the totals and the next sample's window at the warmup
  /// boundary.
  void reset(SimTime now);

  // --- time series (per sample) ------------------------------------------
  const std::vector<TimeSeries>& per_mds_throughput() const {
    return mds_tput_;
  }
  const TimeSeries& avg_throughput() const { return avg_tput_; }
  const TimeSeries& min_throughput() const { return min_tput_; }
  const TimeSeries& max_throughput() const { return max_tput_; }
  /// Cluster-wide replies/sec and forwards/sec (figure 7's two series).
  const TimeSeries& reply_rate() const { return reply_rate_; }
  const TimeSeries& forward_rate() const { return forward_rate_; }
  /// Forwards over first-hop client requests, per window (figure 6).
  const TimeSeries& forward_fraction() const { return fwd_fraction_; }
  /// Cluster-wide admission sheds/sec (zero with overload protection off).
  const TimeSeries& shed_rate() const { return shed_rate_; }
  /// Per-node self-measured health lag (seconds of queued-but-unserved
  /// work, EWMA'd; all-zero with health scoring off).
  const std::vector<TimeSeries>& per_mds_health() const { return mds_health_; }
  /// Nodes currently flagged gray-degraded (open gray windows).
  const TimeSeries& degraded_nodes() const { return degraded_nodes_; }

  // --- end-of-run aggregates ----------------------------------------------
  /// MDS-side counters of one node, or summed over nodes: `first_hops`
  /// are requests straight from a client, `sheds` all three admission
  /// shed causes.
  struct Counts {
    std::uint64_t replies = 0, forwards = 0, requests = 0, first_hops = 0;
    std::uint64_t failures = 0, hits = 0, misses = 0, sheds = 0, rejects = 0;

    Counts& operator+=(const Counts& o);
    Counts operator-(const Counts& o) const;
  };
  /// Post-reset totals over one or more MDS groups and their clients.
  /// Counts stay integers and the two order-sensitive sums keep node and
  /// client order, so totals merged across cells before dividing give
  /// the same doubles as one cell holding every node and client.
  struct Totals : Counts {
    SimTime since = 0;  // the (shared) last reset
    std::size_t nodes = 0;
    double prefix_sum = 0.0;  // per-node prefix fractions, summed in order
    Summary latency;          // client latencies, merged in order

    double avg_mds_throughput(SimTime now) const;
    double hit_rate() const;
    double prefix_fraction() const;
    double forward_fraction() const;
  };
  /// Add this group's post-reset totals to `t`.
  void add_totals(Totals& t) const;
  Totals totals() const {
    Totals t;
    add_totals(t);
    return t;
  }

  /// Mean per-MDS throughput since the last reset (figure 2's y-axis).
  double avg_mds_throughput(SimTime now) const;
  /// Aggregate cache hit rate across nodes since the last reset (fig 4).
  double cluster_hit_rate() const;
  /// Mean fraction of cache consumed by prefix inodes (figure 3).
  double mean_prefix_fraction() const;
  /// Total forwarded / total client requests since reset.
  double overall_forward_fraction() const;
  Summary client_latency() const;
  std::uint64_t total_replies() const;
  std::uint64_t total_failures() const;
  /// CPU queue-depth observers: maximum high-water mark across nodes and
  /// the across-node mean of per-node time-weighted mean depths (both
  /// since the last reset; `cpu_queue_depth()` alone is instantaneous).
  std::size_t cpu_queue_highwater() const;
  double mean_cpu_queue_depth(SimTime now) const;

  // --- latency attribution -------------------------------------------------
  /// Attach the per-request trace collector (null when tracing is off).
  /// Owned by the cluster; reset() drops its warmup-phase traces so the
  /// breakdown table covers the same window as the figure aggregates.
  void set_trace(TraceCollector* trace) { trace_ = trace; }
  TraceCollector* trace() const { return trace_; }

  // --- failure lifecycle ---------------------------------------------------
  /// The cell's fault log, read for the degraded-node census. Callers read
  /// crash, fence, overload and gray summaries from the FaultLog itself.
  void set_fault_log(const FaultLog* log) { faults_ = log; }

 private:
  std::vector<MdsNode*> nodes_;
  std::vector<ClientStats*> clients_;
  const FaultLog* faults_ = nullptr;
  TraceCollector* trace_ = nullptr;

  std::vector<TimeSeries> mds_tput_;
  TimeSeries avg_tput_;
  TimeSeries min_tput_;
  TimeSeries max_tput_;
  TimeSeries reply_rate_;
  TimeSeries forward_rate_;
  TimeSeries fwd_fraction_;
  TimeSeries shed_rate_;
  std::vector<TimeSeries> mds_health_;
  TimeSeries degraded_nodes_;

  static Counts counts_of(MdsNode& node);

  SimTime reset_at_ = 0;
  std::vector<Counts> base_;  // per node, at the last reset
  SimTime last_at_ = 0;
  std::vector<Counts> last_;  // per node, at the last sample or reset
};

}  // namespace mdsim
