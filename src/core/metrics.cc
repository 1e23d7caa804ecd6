#include "core/metrics.h"

#include <algorithm>
#include <limits>

#include "client/cohort.h"
#include "mds/mds_node.h"

namespace mdsim {

Metrics::Metrics(std::vector<MdsNode*> nodes,
                 std::vector<ClientStats*> clients)
    : nodes_(std::move(nodes)), clients_(std::move(clients)) {
  mds_tput_.resize(nodes_.size());
  mds_health_.resize(nodes_.size());
  base_.resize(nodes_.size());
  last_.resize(nodes_.size());
}

Metrics::Counts Metrics::counts_of(MdsNode& node) {
  const MdsStats& s = node.stats();
  const CacheStats& c = node.cache().stats();
  return Counts{s.replies_sent,
                s.forwards,
                s.requests_received,
                s.first_hop_requests,
                s.failures,
                c.hits,
                c.misses,
                s.requests_shed_queue + s.requests_shed_admission +
                    s.requests_shed_deadline,
                s.rejects_sent};
}

Metrics::Counts& Metrics::Counts::operator+=(const Counts& o) {
  replies += o.replies;
  forwards += o.forwards;
  requests += o.requests;
  first_hops += o.first_hops;
  failures += o.failures;
  hits += o.hits;
  misses += o.misses;
  sheds += o.sheds;
  rejects += o.rejects;
  return *this;
}

Metrics::Counts Metrics::Counts::operator-(const Counts& o) const {
  return Counts{replies - o.replies,     forwards - o.forwards,
                requests - o.requests,   first_hops - o.first_hops,
                failures - o.failures,   hits - o.hits,
                misses - o.misses,       sheds - o.sheds,
                rejects - o.rejects};
}

void Metrics::sample(SimTime now) {
  // Each series value is a counter's growth since the previous sample
  // (or reset), per second of that window.
  const SimTime dt = now - last_at_;
  const auto rate = [dt](std::uint64_t n) {
    return dt > 0 ? static_cast<double>(n) / to_seconds(dt) : 0.0;
  };
  last_at_ = now;
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = 0.0;
  double fwd_sum = 0.0;
  double req_sum = 0.0;
  double shed_sum = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Counts c = counts_of(*nodes_[i]);
    const Counts d = c - last_[i];
    last_[i] = c;
    const double tput = rate(d.replies);
    mds_tput_[i].record(now, tput);
    mds_health_[i].record(now, nodes_[i]->self_health_lag() * 1e-9);
    sum += tput;
    mn = std::min(mn, tput);
    mx = std::max(mx, tput);
    fwd_sum += rate(d.forwards);
    req_sum += rate(d.first_hops);
    shed_sum += rate(d.sheds);
  }
  const double n = static_cast<double>(nodes_.size());
  avg_tput_.record(now, n > 0 ? sum / n : 0.0);
  min_tput_.record(now, nodes_.empty() ? 0.0 : mn);
  max_tput_.record(now, mx);
  reply_rate_.record(now, sum);
  forward_rate_.record(now, fwd_sum);
  fwd_fraction_.record(now, req_sum > 0 ? fwd_sum / req_sum : 0.0);
  shed_rate_.record(now, shed_sum);
  // Gray-degraded census from the incident log (first-detector truth, not
  // any single node's view). Zero whenever health scoring is off.
  double degraded = 0.0;
  if (faults_ != nullptr) {
    for (const NodeWindow& g : faults_->gray_incidents()) {
      if (g.open) degraded += 1.0;
    }
  }
  degraded_nodes_.record(now, degraded);
}

void Metrics::reset(SimTime now) {
  reset_at_ = now;
  last_at_ = now;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    base_[i] = counts_of(*nodes_[i]);
    last_[i] = base_[i];
    nodes_[i]->reset_cpu_depth_stats(now);
  }
  for (ClientStats* c : clients_) c->latency_seconds = Summary{};
  // Warmup traces are dropped together with the latency Summaries they
  // reconcile against.
  if (trace_ != nullptr) trace_->reset();
}

void Metrics::add_totals(Totals& t) const {
  t.since = reset_at_;
  t.nodes += nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    t += counts_of(*nodes_[i]) - base_[i];
    t.prefix_sum += nodes_[i]->cache().prefix_fraction();
  }
  for (const ClientStats* c : clients_) t.latency.merge(c->latency_seconds);
}

double Metrics::Totals::avg_mds_throughput(SimTime now) const {
  if (nodes == 0 || now <= since) return 0.0;
  return static_cast<double>(replies) / to_seconds(now - since) /
         static_cast<double>(nodes);
}

double Metrics::Totals::hit_rate() const {
  const std::uint64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

double Metrics::Totals::prefix_fraction() const {
  return nodes > 0 ? prefix_sum / static_cast<double>(nodes) : 0.0;
}

double Metrics::Totals::forward_fraction() const {
  // Forwarded arrivals are re-counted as received; normalize by original
  // client submissions.
  const std::uint64_t original = requests > forwards ? requests - forwards : 0;
  return original > 0
             ? static_cast<double>(forwards) / static_cast<double>(original)
             : 0.0;
}

double Metrics::avg_mds_throughput(SimTime now) const {
  return totals().avg_mds_throughput(now);
}

double Metrics::cluster_hit_rate() const { return totals().hit_rate(); }

double Metrics::mean_prefix_fraction() const {
  return totals().prefix_fraction();
}

double Metrics::overall_forward_fraction() const {
  return totals().forward_fraction();
}

Summary Metrics::client_latency() const { return totals().latency; }

std::uint64_t Metrics::total_replies() const { return totals().replies; }

std::uint64_t Metrics::total_failures() const { return totals().failures; }

std::size_t Metrics::cpu_queue_highwater() const {
  std::size_t hw = 0;
  for (const MdsNode* n : nodes_) {
    hw = std::max(hw, n->cpu().depth_highwater());
  }
  return hw;
}

double Metrics::mean_cpu_queue_depth(SimTime now) const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  for (const MdsNode* n : nodes_) sum += n->cpu().mean_depth(now);
  return sum / static_cast<double>(nodes_.size());
}

}  // namespace mdsim
