#include "core/fault_plan.h"

#include <cassert>

#include "common/rng.h"

namespace mdsim {

FaultPlan& FaultPlan::crash(SimTime at, MdsId node, bool warm) {
  crashes_.push_back(CrashAction{at, node, warm});
  return *this;
}

FaultPlan& FaultPlan::restart(SimTime at, MdsId node) {
  restarts_.push_back(RestartAction{at, node});
  return *this;
}

FaultPlan& FaultPlan::flaky_link(SimTime from, SimTime until, NetAddr a,
                                 NetAddr b, const LinkFault& fault) {
  links_.push_back(LinkAction{from, until, a, b, fault});
  return *this;
}

FaultPlan& FaultPlan::partition(SimTime from, SimTime until,
                                std::vector<std::vector<NetAddr>> groups) {
  partitions_.push_back(PartitionAction{from, until, std::move(groups)});
  return *this;
}

FaultPlan& FaultPlan::cut_link(SimTime from, SimTime until, NetAddr src,
                               NetAddr dst) {
  cuts_.push_back(CutAction{from, until, src, dst});
  return *this;
}

FaultPlan& FaultPlan::fail_slow(SimTime from, SimTime until, MdsId node,
                                double cpu_mult, double disk_mult) {
  fail_slows_.push_back(FailSlowAction{from, until, node, cpu_mult, disk_mult});
  return *this;
}

FaultPlan& FaultPlan::degrade_link(SimTime from, SimTime until, NetAddr a,
                                   NetAddr b, const LinkDegrade& degrade) {
  degrades_.push_back(DegradeAction{from, until, a, b, degrade});
  return *this;
}

FaultPlan FaultPlan::randomize(std::uint64_t seed, int num_mds,
                               SimTime duration) {
  FaultPlan plan;
  if (num_mds < 2 || duration <= 0) return plan;
  Rng rng(seed, /*stream=*/0xc4a05ULL);
  const SimTime lo = duration / 5;
  const SimTime hi = 4 * duration / 5;
  const auto at_in = [&](SimTime a, SimTime b) {
    return a + static_cast<SimTime>(
                   rng.uniform(static_cast<std::uint64_t>(b - a)));
  };
  const auto pick_node = [&]() {
    return static_cast<MdsId>(rng.uniform(static_cast<std::uint64_t>(num_mds)));
  };

  // One crash/restart pair (warm or cold, never the last survivor since
  // num_mds >= 2 and only one node crashes at a time).
  {
    const SimTime at = at_in(lo, (lo + hi) / 2);
    const SimTime back = at_in(at + duration / 10, hi);
    const MdsId victim = pick_node();
    plan.crash(at, victim, /*warm=*/rng.bernoulli(0.5));
    plan.restart(back, victim);
  }
  // One fail-slow window on a different node: degraded disk, sometimes
  // CPU too.
  {
    const SimTime at = at_in(lo, (lo + hi) / 2);
    const SimTime end = at_in(at + duration / 10, hi);
    MdsId victim = pick_node();
    if (!plan.crashes_.empty() && victim == plan.crashes_.front().node) {
      victim = static_cast<MdsId>((victim + 1) % num_mds);
    }
    const double disk_mult = 4.0 + static_cast<double>(rng.uniform(9));
    const double cpu_mult = rng.bernoulli(0.5) ? 2.0 : 1.0;
    plan.fail_slow(at, end, victim, cpu_mult, disk_mult);
  }
  // One transient flaky window and one sustained lossy-degrade window on
  // random MDS<->MDS links.
  {
    const SimTime at = at_in(lo, hi - duration / 20);
    const SimTime end = at_in(at + duration / 20, hi);
    const MdsId a = pick_node();
    const MdsId b = static_cast<MdsId>((a + 1 + rng.uniform(
        static_cast<std::uint64_t>(num_mds - 1))) % num_mds);
    LinkFault f;
    f.drop = 0.05 + 0.1 * rng.uniform_double();
    f.duplicate = 0.02;
    f.spike = 0.05;
    plan.flaky_link(at, end, a, b, f);
  }
  {
    const SimTime at = at_in(lo, hi - duration / 20);
    const SimTime end = at_in(at + duration / 20, hi);
    const MdsId a = pick_node();
    const MdsId b = static_cast<MdsId>((a + 1 + rng.uniform(
        static_cast<std::uint64_t>(num_mds - 1))) % num_mds);
    LinkDegrade d;
    d.latency_factor = 2.0 + 6.0 * rng.uniform_double();
    d.extra_latency = from_micros(200);
    d.loss = 0.02 * rng.uniform_double();
    plan.degrade_link(at, end, a, b, d);
  }
  // Occasionally a short partition isolating one node (only with enough
  // survivors for a quorum on the majority side).
  if (num_mds >= 4 && rng.bernoulli(0.5)) {
    const SimTime at = at_in(lo, hi - duration / 10);
    const SimTime end = at_in(at + duration / 20, hi);
    const MdsId isolated = pick_node();
    std::vector<NetAddr> rest;
    for (MdsId i = 0; i < num_mds; ++i) {
      if (i != isolated) rest.push_back(i);
    }
    plan.partition(at, end, {rest, {isolated}});
  }
  return plan;
}

void FaultPlan::arm(ClusterSim& cluster) const {
  assert(cluster.num_shards() == 1 && "fault injection is single-shard");
  Simulation& sim = cluster.sim();
  for (const CrashAction& c : crashes_) {
    sim.schedule_at(c.at, [&cluster, node = c.node, warm = c.warm]() {
      cluster.fail_mds(node, warm);
    });
  }
  for (const RestartAction& r : restarts_) {
    sim.schedule_at(r.at, [&cluster, node = r.node]() {
      cluster.recover_mds(node);
    });
  }
  for (const LinkAction& l : links_) {
    sim.schedule_at(l.from, [&cluster, a = l.a, b = l.b, fault = l.fault]() {
      cluster.network().set_link_fault(a, b, fault);
    });
    sim.schedule_at(l.until, [&cluster, a = l.a, b = l.b]() {
      cluster.network().clear_link_fault(a, b);
    });
  }
  for (const PartitionAction& p : partitions_) {
    sim.schedule_at(p.from, [&cluster, groups = p.groups]() {
      cluster.network().partition(groups);
    });
    if (p.until > p.from) {
      sim.schedule_at(p.until, [&cluster]() { cluster.network().heal(); });
    }
  }
  for (const CutAction& c : cuts_) {
    sim.schedule_at(c.from, [&cluster, src = c.src, dst = c.dst]() {
      cluster.network().cut_link(src, dst);
    });
    if (c.until > c.from) {
      sim.schedule_at(c.until, [&cluster, src = c.src, dst = c.dst]() {
        cluster.network().restore_link(src, dst);
      });
    }
  }
  for (const FailSlowAction& f : fail_slows_) {
    sim.schedule_at(f.from, [&cluster, node = f.node, cpu = f.cpu_mult,
                             disk = f.disk_mult]() {
      cluster.set_fail_slow(node, cpu, disk);
    });
    if (f.until > f.from) {
      sim.schedule_at(f.until, [&cluster, node = f.node]() {
        cluster.set_fail_slow(node, 1.0, 1.0);
      });
    }
  }
  for (const DegradeAction& d : degrades_) {
    sim.schedule_at(d.from, [&cluster, a = d.a, b = d.b, deg = d.degrade]() {
      cluster.network().set_link_degrade(a, b, deg);
    });
    if (d.until > d.from) {
      sim.schedule_at(d.until, [&cluster, a = d.a, b = d.b]() {
        cluster.network().clear_link_degrade(a, b);
      });
    }
  }
}

}  // namespace mdsim
