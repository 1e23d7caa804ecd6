// mdsim benchmark binary: runs one workload for a time budget and prints
// one JSON record (run.py turns it into the benchmark's result line).
//
//   perfbench --workload scaleout|shift|create_storm --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// --trace 0 times untraced runs of several seeds derived from --seed (see
// end_to_end) and reports the end-to-end metrics: host speed of the
// simulator next to what the simulated cluster delivers. A repeated seed
// must reproduce its simulated outputs exactly. --trace 1 runs the first
// seed once untraced and once traced (on the parallel engine, also on one
// thread), requires identical outputs from each, and reports the
// per-layer metrics. On one engine every MDS cache must pass
// check_invariants() after every run. A failed check sets "correct" to
// false and the exit code to 1. --smoke shrinks every workload for the
// benchmark's own test.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapter.h"
#include "fstree/generator.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace mdsim;

// --- workloads ------------------------------------------------------------

/// Parallel engine and client cohorts at scale, with real subtree
/// partitioning and forwarding inside each of the 8 shards.
SimConfig scaleout(std::uint64_t seed, bool smoke, int threads) {
  const int mds = smoke ? 16 : 64;
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, mds,
                                       seed);
  // 1 000 clients per MDS at 100 ms mean think offer each MDS the load of
  // fig 2's 150 clients at 15 ms.
  cfg.num_clients = 1000 * mds;
  cfg.general.mean_think = from_millis(100);
  cfg.shards = mds / 8;
  cfg.threads = threads;
  cfg.duration = smoke ? 2 * kSecond : 6 * kSecond;
  cfg.warmup = smoke ? kSecond / 2 : 2 * kSecond;
  return cfg;
}

/// The paper's contribution: fig 5's workload shift on one engine, where
/// the balancer migrates subtrees to follow the clients that moved.
SimConfig shift(std::uint64_t seed, bool smoke, int) {
  SimConfig cfg = shift_config(StrategyKind::kDynamicSubtree, seed);
  if (smoke) {
    cfg.num_mds = 6;
    cfg.fs.num_users = 144;
    cfg.num_clients = 360;
    cfg.duration = 16 * kSecond;
    cfg.warmup = 2 * kSecond;
    cfg.shifting.shift_at = 8 * kSecond;
  }
  return cfg;
}

/// Write-heavy counterpart to shift: checkpoint creates into shared run
/// directories, with GIGA+ splitting them (abl_giga_split's storm).
SimConfig create_storm(std::uint64_t seed, bool smoke, int) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.num_mds = smoke ? 4 : 8;
  cfg.num_clients = smoke ? 200 : 600;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 100;
  cfg.fs.num_projects = 2;
  cfg.fs.project_runs = 2;
  cfg.fs.project_dir_files = 1500;
  // A private project or run directory would turn that seed's storm into
  // EACCES replies: every directory is open, so every create is served.
  cfg.fs.world_readable_fraction = 1.0;
  cfg.workload = WorkloadKind::kScientific;
  cfg.scientific.compute_phase = 2 * kSecond;
  cfg.scientific.ops_per_burst = 30;
  cfg.scientific.n_to_1_fraction = 0.2;
  cfg.mds.dirfrag_size_threshold = 2000;
  cfg.mds.dirfrag_temp_threshold = 400.0;
  cfg.mds.giga_enabled = true;
  cfg.duration = smoke ? 8 * kSecond : 24 * kSecond;
  cfg.warmup = 0;
  return cfg;
}

struct Workload {
  const char* name;
  SimConfig (*make)(std::uint64_t seed, bool smoke, int threads);
  /// Seeds simulated per --trace 0 run (see end_to_end): enough that the
  /// mean of their modelled results repeats across runs of the benchmark.
  std::uint64_t seeds;
};

constexpr Workload kWorkloads[] = {{"scaleout", scaleout, 2},
                                   {"shift", shift, 8},
                                   {"create_storm", create_storm, 8}};

// --- host facts -------------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// The histograms `hist(op)` of the op types `keep` accepts, merged into
/// a copy of the first so the collector's bucket layout carries over.
template <typename Hist, typename Keep>
LogHistogram merge_ops(Hist hist, Keep keep) {
  std::optional<LogHistogram> h;
  for (int op = 0; op < kNumOpTypes; ++op) {
    const auto o = static_cast<OpType>(op);
    if (!keep(o)) continue;
    if (h) {
      h->merge(hist(o));
    } else {
      h = hist(o);
    }
  }
  return *h;
}

/// Client latency percentile `p` in ms over the op types `keep` accepts.
template <typename Keep>
double total_ms(const TraceCollector& t, double p, Keep keep) {
  auto hist = [&t](OpType o) -> const LogHistogram& {
    return t.total_hist(o);
  };
  return merge_ops(hist, keep).percentile(p) / 1e6;
}

double stage_share(const TraceCollector& t, TraceStage s) {
  std::uint64_t ns = 0;
  for (int op = 0; op < kNumOpTypes; ++op) {
    ns += t.stage_total_ns(s, static_cast<OpType>(op));
  }
  const std::uint64_t total = t.grand_total_ns();
  return total > 0 ? static_cast<double>(ns) / static_cast<double>(total)
                   : 0.0;
}

double stage_p99_ms(const TraceCollector& t, TraceStage s) {
  auto hist = [&t, s](OpType o) -> const LogHistogram& {
    return t.stage_hist(s, o);
  };
  return merge_ops(hist, [](OpType) { return true; }).percentile(99.0) /
         1e6;
}

/// Traced stage sums must tile end-to-end latency exactly.
std::string check_tiling(const TraceCollector& t) {
  std::uint64_t stages = 0;
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int s = 0; s < kNumTraceStages; ++s) {
      stages += t.stage_total_ns(static_cast<TraceStage>(s),
                                 static_cast<OpType>(op));
    }
  }
  if (stages == t.grand_total_ns()) return {};
  return "trace stage sums " + std::to_string(stages) +
         " ns != end-to-end " + std::to_string(t.grand_total_ns()) + " ns";
}

// --- record -----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct Record {
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> host;  // key, JSON value
  std::vector<std::pair<std::string, double>> info;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  std::uint64_t attempted = 0;  // simulated client ops

  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
    }
    metrics.push_back({name, value, unit});
  }

  void print(std::ostream& out) const {
    out << "{\"correct\": " << (errors.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted
        << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      out << (i ? ", " : "") << json_str(errors[i]);
    }
    out << "], \"host\": {";
    for (std::size_t i = 0; i < host.size(); ++i) {
      out << (i ? ", " : "") << json_str(host[i].first) << ": "
          << host[i].second;
    }
    out << "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << json_str(metrics[i].name)
          << ": {\"value\": " << json_num(metrics[i].value)
          << ", \"unit\": " << json_str(metrics[i].unit) << "}";
    }
    out << "}, \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
      out << (i ? ", " : "") << json_str(info[i].first) << ": "
          << json_num(info[i].second);
    }
    out << "}, \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << (i ? ", " : "") << "{\"name\": " << json_str(spans[i].name)
          << ", \"parent\": " << spans[i].parent
          << ", \"start_s\": " << json_num(spans[i].start_s)
          << ", \"end_s\": " << json_num(spans[i].end_s) << "}";
    }
    out << "]}\n";
  }
};

// --- runs -------------------------------------------------------------------

/// The benchmark's own spans around each public call into the cluster.
class Spans {
 public:
  Spans(Record& rec, double origin) : rec_(rec), origin_(origin) {}

  int open(const std::string& name, int parent = -1) {
    rec_.spans.push_back({name, parent, host_now().wall_s - origin_, 0.0});
    return static_cast<int>(rec_.spans.size()) - 1;
  }
  void close(int id) {
    rec_.spans[static_cast<std::size_t>(id)].end_s =
        host_now().wall_s - origin_;
  }

 private:
  Record& rec_;
  double origin_;
};

/// One run of a config: its outputs and the host cost of its phases.
struct Run {
  SimOutputs out;
  HostTime run;                    // timed phase (see run_once)
  bool setup_inside = false;       // `run` holds set-up and warm-up
  std::uint64_t timed_events = 0;  // events executed in the timed phase
  std::vector<double> slice_ms;    // host ms per simulated second
  std::vector<double> pending;     // mean pending events per engine
  std::vector<std::uint64_t> shard_events;
  std::uint64_t heap_fallbacks = 0;
  std::optional<DetailCounters> detail;
  std::optional<std::size_t> tree_nodes;
  std::optional<TraceCollector> trace;
  std::string audit;  // broken cache invariant, if any
  bool warm = false;  // not its thread's first run
};

/// Build and run `cfg`, timing the phase RunResult counts ops in: on one
/// engine the warm-up runs before the clock starts. The parallel engine
/// builds and warms up inside run(), so there the timed phase holds both
/// (see timed()). A single engine runs on the calling thread, so its CPU
/// time is that thread's and concurrent runs do not blur it.
///
/// A per-layer run passes `spans`: it then records the benchmark's spans,
/// the pending-event depth and the module counters, and with `step` a
/// single engine advances one simulated second per call, timing each.
Run run_once(const SimConfig& cfg, Spans* spans, bool step = false,
             const std::string& label = {}) {
  auto open = [spans](const char* name, int parent) {
    return spans ? spans->open(name, parent) : -1;
  };
  auto close = [spans](int id) {
    if (spans) spans->close(id);
  };
  auto pending = [](BenchCluster& cluster) {
    const auto per_engine = cluster.shard_pending();
    double sum = 0.0;
    for (std::size_t p : per_engine) sum += static_cast<double>(p);
    return sum / static_cast<double>(per_engine.size());
  };
  Run r;
  const int top = spans ? spans->open(label) : -1;
  int s = open("construct", top);
  BenchCluster cluster(cfg);
  close(s);
  const bool one = cluster.single_engine();
  s = open("build", top);
  cluster.build();
  r.tree_nodes = cluster.tree_nodes();  // before the run's creates
  close(s);
  if (one && cfg.warmup > 0) {
    s = open("warmup", top);
    cluster.run_until(cfg.warmup);
    close(s);
  }
  s = open("run", top);
  const std::uint64_t events0 = one ? cluster.shard_events().front() : 0;
  const HostTime t0 = host_now(one);
  if (step && one) {
    for (SimTime t = cfg.warmup + kSecond; t <= cfg.duration; t += kSecond) {
      const HostTime a = host_now(one);
      cluster.run_until(t);
      r.slice_ms.push_back((host_now(one) - a).wall_s * 1e3);
      r.pending.push_back(pending(cluster));
    }
  }
  cluster.run();  // the rest, or all of it when not stepping
  r.run = host_now(one) - t0;
  r.setup_inside = !one;
  close(s);
  s = open("aggregate", top);
  r.out = cluster.outputs();
  r.timed_events = r.out.events - events0;
  r.audit = cluster.audit();
  if (spans) {
    r.shard_events = cluster.shard_events();
    r.heap_fallbacks = cluster.task_heap_fallbacks();
    r.detail = cluster.detail();
    if (const TraceCollector* t = cluster.tracer()) r.trace = *t;
    if (r.pending.empty()) r.pending.push_back(pending(cluster));
  }
  close(s);
  close(top);
  return r;
}

/// Files a run's broken cache invariant, if any.
void expect_sound(Record& rec, const Run& r, const std::string& label) {
  if (!r.audit.empty()) {
    rec.errors.push_back(label + ": cache invariant broken: " + r.audit);
  }
}

void expect_same(Record& rec, const SimOutputs& want, const SimOutputs& got,
                 const std::string& what) {
  if (same_outputs(want, got)) return;
  rec.errors.push_back(what + " changed the simulated outputs: " +
                       describe(want) + " vs " + describe(got));
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Host costs of zero-horizon set-ups. Safe to add to from concurrent
/// runs.
class SetupSamples {
 public:
  /// Times one set-up of `cfg`; returns the set-up seconds taken so far.
  double take(const SimConfig& cfg) {
    const HostTime t = time_setup(cfg);
    std::lock_guard<std::mutex> lock(mu_);
    wall_.push_back(t.wall_s);
    cpu_.push_back(t.cpu_s);
    total_s_ += t.wall_s;
    return total_s_;
  }
  /// Median over the samples; files their count in `rec`.
  HostTime median(Record& rec) const {
    rec.info.emplace_back("setup_samples", static_cast<double>(wall_.size()));
    return {perfbench::median(wall_), perfbench::median(cpu_)};
  }

 private:
  std::mutex mu_;  // guards the members below
  std::vector<double> wall_, cpu_;
  double total_s_ = 0.0;
};

/// The timed phase of `r` less the set-up it holds on the parallel engine.
HostTime timed(const Run& r, const HostTime& setup) {
  return r.setup_inside ? r.run - setup : r.run;
}

void add_sim_outputs(Record& rec, const SimOutputs& o) {
  rec.info.emplace_back("sim.replies", static_cast<double>(o.result.replies));
  rec.info.emplace_back("sim.failures",
                        static_cast<double>(o.result.failures));
  rec.info.emplace_back("sim.events", static_cast<double>(o.events));
  rec.info.emplace_back("sim.cross_posts",
                        static_cast<double>(o.cross_posts));
  rec.info.emplace_back("sim.hit_rate", o.result.hit_rate);
  rec.info.emplace_back("sim.prefix_fraction", o.result.prefix_fraction);
  rec.info.emplace_back("sim.forward_fraction", o.result.forward_fraction);
}

/// --trace 0: end-to-end metrics. The modelled results of one seed vary
/// more than any usable bound (fig 5's shift most of all), so a run
/// simulates every config of `cfgs` (one per derived seed) and reports the
/// mean of their modelled results. Host metrics are medians over the warm
/// runs: a thread's first run pays for heap memory fresh from the kernel,
/// and those first runs would otherwise be a third of shift's runs, so the
/// median would swing with how many more runs fit. Single-engine runs go
/// `nproc` at a time, each on its own
/// thread; the parallel engine already uses `nproc` threads, so its runs go
/// one at a time. Set-up samples go between the runs, so that host
/// slowdowns, which come and go within a run, weigh on them as they weigh
/// on the runs: before each run at least one, and more until set-ups have
/// taken a tenth of the time spent.
void end_to_end(const Options& opt, const std::vector<SimConfig>& cfgs,
                int cpus, Record& rec) {
  const double start = host_now().wall_s;
  const std::size_t k = cfgs.size();
  const int workers = cfgs.front().shards == 1 ? cpus : 1;
  SetupSamples setups;

  // Run i simulates cfgs[i % k]. Runs k and up repeat a seed, and at least
  // one does, so every run of the benchmark checks repeatability. Every
  // worker makes at least one warm run. Past that, a worker starts another
  // run only if one as long as its last still ends within the budget.
  std::mutex mu;  // guards runs and next
  std::vector<Run> runs;
  std::size_t next = 0;
  auto worker = [&] {
    double last_s = 0.0;
    for (int done = 0;; ++done) {
      std::size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next > k && done >= 2 &&
            host_now().wall_s - start + last_s > opt.seconds) {
          return;
        }
        i = next++;
      }
      while (setups.take(cfgs[i % k]) <
             0.1 * workers * (host_now().wall_s - start)) {
      }
      const double t0 = host_now().wall_s;
      Run r = run_once(cfgs[i % k], nullptr);
      r.warm = done > 0;
      last_s = host_now().wall_s - t0;
      std::lock_guard<std::mutex> lock(mu);
      if (runs.size() <= i) runs.resize(i + 1);
      runs[i] = std::move(r);
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  const HostTime setup = setups.median(rec);
  std::vector<double> ops_per_s, cpu_per_op;
  double tput = 0.0, lat = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const std::string label = "run" + std::to_string(i);
    expect_sound(rec, r, label);
    if (i < k) {
      tput += r.out.result.avg_mds_throughput;
      lat += r.out.result.mean_latency_ms;
      rec.attempted += r.out.result.replies;
    } else {
      expect_same(rec, runs[i % k].out, r.out, label + " (repeat)");
    }
    if (!r.warm) continue;
    const auto ops = static_cast<double>(r.out.result.replies);
    const HostTime phase = timed(r, setup);
    ops_per_s.push_back(ops / phase.wall_s);
    cpu_per_op.push_back(phase.cpu_s / ops * 1e6);
  }
  rec.metric("sim_ops_per_wall_s", median(ops_per_s), "ops/s");
  rec.metric("setup_s", setup.wall_s, "s");
  rec.metric("cpu_us_per_op", median(cpu_per_op), "us");
  rec.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  rec.metric("sim_mds_tput", tput / static_cast<double>(k), "ops/s/MDS");
  rec.metric("sim_lat_mean_ms", lat / static_cast<double>(k), "ms");

  rec.info.emplace_back("runs", static_cast<double>(runs.size()));
  rec.info.emplace_back("warm_runs", static_cast<double>(ops_per_s.size()));
  rec.info.emplace_back("workers", workers);
  std::sort(ops_per_s.begin(), ops_per_s.end());
  rec.info.emplace_back("ops_per_wall_s_min", ops_per_s.front());
  rec.info.emplace_back("ops_per_wall_s_max", ops_per_s.back());
  add_sim_outputs(rec, runs.front().out);
}

/// --trace 1: per-layer metrics from one untraced and one traced run.
void per_layer(const Options& opt, const SimConfig& cfg, Record& rec,
               Spans& spans) {
  SetupSamples setups;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) setups.take(cfg);
  const HostTime setup = setups.median(rec);
  const Run u = run_once(cfg, &spans, true, "untraced");
  const HostTime ut = timed(u, setup);
  expect_sound(rec, u, "untraced");

  SimConfig traced = cfg;
  traced.trace.enabled = true;
  const Run t = run_once(traced, &spans, false, "traced");
  const HostTime tt = timed(t, setup);
  expect_same(rec, u.out, t.out, "tracing");
  if (const std::string err = check_tiling(*t.trace); !err.empty()) {
    rec.errors.push_back(err);
  }
  if (cfg.shards > 1) {
    // The parallel engine must give the same results on one thread.
    SimConfig one = traced;
    one.threads = 1;
    const Run t1 = run_once(one, &spans, false, "traced_t1");
    expect_same(rec, u.out, t1.out, "threads=1");
  }
  const TraceCollector& tr = *t.trace;
  const RunResult& res = u.out.result;
  const auto ops = static_cast<double>(res.replies);
  const auto events = static_cast<double>(u.out.events);
  const double sim_s = to_seconds(cfg.duration);
  const int threads = std::min(cfg.threads, cfg.shards);
  rec.attempted = res.replies;

  // core: host time of the simulate phase, whole and per simulated second.
  std::vector<double> slices = u.slice_ms;
  if (slices.empty()) slices.push_back(ut.wall_s * 1e3 / sim_s);
  rec.metric("core.run_s", ut.wall_s, "s");
  rec.metric("core.slice_ms_p50", quantile(slices, 0.5), "ms");
  rec.metric("core.slice_ms_p90", quantile(slices, 0.9), "ms");

  // sim: the event engine. Over the timed phase,
  // ops/wall-s = 1e9 / (ns_per_event * events_per_op).
  const auto timed_events = static_cast<double>(u.timed_events);
  rec.metric("sim.events", events, "count");
  rec.metric("sim.events_per_op", timed_events / ops, "count");
  rec.metric("sim.ns_per_event", ut.wall_s * 1e9 / timed_events, "ns");
  rec.metric("sim.task_heap_fallbacks",
             static_cast<double>(u.heap_fallbacks), "count");
  const double depth = median(u.pending);
  rec.metric("sim.schedule_fire_ns",
             schedule_fire_ns(static_cast<std::size_t>(depth)), "ns");
  rec.info.emplace_back("sim.pending_events", depth);

  // sim, sharded engine: trivial values when the workload has one engine.
  rec.metric("sim.cross_posts", static_cast<double>(u.out.cross_posts),
             "count");
  double max_ev = 0.0, sum_ev = 0.0;
  for (std::uint64_t e : u.shard_events) {
    max_ev = std::max(max_ev, static_cast<double>(e));
    sum_ev += static_cast<double>(e);
  }
  rec.metric("sim.shard_imbalance",
             max_ev / (sum_ev / static_cast<double>(u.shard_events.size())),
             "ratio");
  rec.metric("sim.parallel_util", ut.cpu_s / (ut.wall_s * threads),
             "ratio");
  rec.metric("sim.window_us",
             window_us(cfg.shards, threads, cfg.net.cross_base_latency),
             "us");

  // net
  const int mds_per_engine = cfg.num_mds / cfg.shards;
  rec.metric("net.send_deliver_ns",
             send_deliver_ns(mds_per_engine + cfg.num_clients / cfg.shards),
             "ns");
  rec.metric("trace.net_request", stage_share(tr, TraceStage::kNetRequest),
             "ratio");
  rec.metric("trace.net_forward", stage_share(tr, TraceStage::kNetForward),
             "ratio");
  rec.metric("trace.net_reply", stage_share(tr, TraceStage::kNetReply),
             "ratio");

  // fstree: the namespaces set-up generates, one per engine. The last
  // engine's tree feeds the client and cache timings below.
  std::unique_ptr<FsTree> tree;
  double generate_s = 0.0;
  std::size_t nodes = 0;
  for (const NamespaceParams& fs : engine_namespaces(cfg)) {
    tree = std::make_unique<FsTree>();
    const double t0 = host_now().wall_s;
    generate_namespace(*tree, fs);
    generate_s += host_now().wall_s - t0;
    nodes += tree->node_count();
  }
  if (u.tree_nodes && *u.tree_nodes != nodes) {
    rec.errors.push_back("fstree: regenerated " + std::to_string(nodes) +
                         " nodes, the cluster built " +
                         std::to_string(*u.tree_nodes));
  }
  rec.metric("fstree.nodes", static_cast<double>(nodes), "count");
  rec.metric("fstree.generate_s", generate_s, "s");

  // client
  rec.metric("client.read_lat_p50_ms",
             total_ms(tr, 50.0, [](OpType o) { return !op_is_update(o); }),
             "ms");
  rec.metric("client.update_lat_p50_ms",
             total_ms(tr, 50.0, [](OpType o) { return op_is_update(o); }),
             "ms");
  rec.metric("client.lat_p99_ms",
             total_ms(tr, 99.0, [](OpType) { return true; }), "ms");
  rec.metric("client.fail_frac",
             static_cast<double>(res.failures) / ops, "ratio");
  rec.metric("client.resolve_ns", resolve_ns(*tree, mds_per_engine), "ns");

  // mds
  rec.metric("mds.forward_frac", res.forward_fraction, "ratio");
  rec.metric("trace.cpu_queue", stage_share(tr, TraceStage::kCpuQueue),
             "ratio");
  rec.metric("trace.cpu_service", stage_share(tr, TraceStage::kCpuService),
             "ratio");

  // cache
  rec.metric("cache.hit_rate", res.hit_rate, "ratio");
  rec.metric("cache.prefix_frac", res.prefix_fraction, "ratio");
  rec.metric("cache.lookup_ns", lookup_ns(*tree, cfg.mds.cache_capacity),
             "ns");

  // storage
  const std::pair<const char*, TraceStage> storage[] = {
      {"disk_queue", TraceStage::kDiskQueue},
      {"disk_service", TraceStage::kDiskService},
      {"journal_queue", TraceStage::kJournalQueue},
      {"journal_service", TraceStage::kJournalService},
      {"fetch_wait", TraceStage::kFetchWait}};
  for (const auto& [name, stage] : storage) {
    const std::string n = std::string("trace.") + name;
    rec.metric(n, stage_share(tr, stage), "ratio");
    rec.metric(n + "_p99_ms", stage_p99_ms(tr, stage), "ms");
  }

  // trace
  rec.metric("trace.overhead_frac", tt.wall_s / ut.wall_s - 1.0,
             "ratio");

  // Module counters only the single-engine cluster exposes.
  if (const auto& d = u.detail) {
    const auto mds_ops = static_cast<double>(d->mds_replies);
    const auto client_ops = static_cast<double>(d->client_ops);
    rec.info.emplace_back("mds.migrations", static_cast<double>(d->migrations));
    rec.info.emplace_back("mds.items_migrated",
                          static_cast<double>(d->items_migrated));
    rec.info.emplace_back("mds.replica_grants_per_op",
                          static_cast<double>(d->replica_grants) / mds_ops);
    rec.info.emplace_back("mds.invalidations_per_op",
                          static_cast<double>(d->invalidations) / mds_ops);
    rec.info.emplace_back("mds.journaled_per_op",
                          static_cast<double>(d->journaled) / mds_ops);
    rec.info.emplace_back("mds.giga_redirects",
                          static_cast<double>(d->giga_redirects));
    rec.info.emplace_back("cache.lookups",
                          static_cast<double>(d->cache_hits + d->cache_misses));
    rec.info.emplace_back("cache.evictions_per_op",
                          static_cast<double>(d->cache_evictions) / mds_ops);
    rec.info.emplace_back("client.retries_per_op",
                          static_cast<double>(d->client_retries) / client_ops);
    rec.info.emplace_back("client.stale_per_op",
                          static_cast<double>(d->client_stale) / client_ops);
    rec.info.emplace_back("net.msgs_per_op",
                          static_cast<double>(d->net_msgs) / ops);
  }
  rec.info.emplace_back("run_s_traced", tt.wall_s);
  add_sim_outputs(rec, u.out);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(v)) opt.workload = &w;
      }
      if (opt.workload == nullptr) return false;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return opt.workload != nullptr && opt.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload scaleout|shift|create_storm "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n";
    return 2;
  }
  const int cpus = nproc();
  // Seeds seed*K .. seed*K+K-1: disjoint for distinct --seed values. The
  // traced run uses the first.
  const std::uint64_t k = opt.smoke ? 2 : opt.workload->seeds;
  std::vector<mdsim::SimConfig> cfgs;
  for (std::uint64_t i = 0; i < k; ++i) {
    cfgs.push_back(opt.workload->make(opt.seed * k + i, opt.smoke, cpus));
  }
  const mdsim::SimConfig& cfg = cfgs.front();

  Record rec;
  rec.host = {
      {"workload", json_str(opt.workload->name)},
      {"seed", std::to_string(opt.seed)},
      {"nproc", std::to_string(cpus)},
      {"threads", std::to_string(std::min(cfg.threads, cfg.shards))},
      {"shards", std::to_string(cfg.shards)},
      {"cpu_model", json_str(cpu_model())},
      {"compiler", json_str(PERFBENCH_COMPILER)},
      {"build_type", json_str(PERFBENCH_BUILD_TYPE)},
      {"cxx_flags", json_str(PERFBENCH_CXX_FLAGS)},
      {"ndebug", kNdebug ? "true" : "false"},
  };
  if (opt.trace) {
    Spans spans(rec, host_now().wall_s);
    per_layer(opt, cfg, rec, spans);
  } else {
    end_to_end(opt, cfgs, cpus, rec);
  }
  rec.print(std::cout);
  return rec.errors.empty() ? 0 : 1;
}
