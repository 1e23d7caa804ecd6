// Failure-lifecycle incident log (paper section 4.6 made measurable).
//
// Every MDS crash opens an incident; the cluster and the nodes stamp the
// lifecycle milestones onto it as they happen: first detection by a
// survivor (missed heartbeats), takeover (delegations redistributed and
// the journal replayed by heirs), restart (process back, replaying its
// log), rejoin (replay finished, serving again) and re-mark-up (the first
// survivor that heard a heartbeat again). Detection latency,
// unavailability windows and recovery time are derived from these stamps.
// Fences, overload episodes, gray flags and fail-slow injections are
// NodeWindows: one span per node, open until closed. A fault call that
// finds nothing to act on (restarting a live MDS, crashing a dead one or
// the last live one) changes nothing and is logged as an IgnoredFault.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace mdsim {

struct FaultIncident {
  static constexpr SimTime kUnset = ~SimTime{0};

  MdsId node = kInvalidMds;
  SimTime crashed_at = kUnset;
  SimTime detected_at = kUnset;  // first survivor detection
  MdsId detected_by = kInvalidMds;
  SimTime takeover_at = kUnset;  // delegations redistributed
  SimTime restarted_at = kUnset;  // process back, replay begins
  SimTime rejoined_at = kUnset;   // replay done, serving again
  SimTime remarked_up_at = kUnset;  // first peer marked it up again
  bool open = true;

  bool has(SimTime t) const { return t != kUnset; }
};

/// A per-node span that opens and (maybe) closes: the one record shape
/// behind every non-crash window in the log. Distinct from FaultIncident,
/// whose six milestones track a crash; here the process stays up.
///  - fence: the node self-fenced (lost its authority lease and stopped
///    serving writes) because a partition cut it off from a quorum.
///  - overload: an episode of admission sheds. `ended_at` is the last
///    shed and `count` the number of sheds; the episode closes after a
///    quiet gap, so its span approximates time spent in overload.
///  - gray: a peer's health score (EWMA of heartbeat lag plus
///    self-reported service lag) crossed the degraded threshold. `by` is
///    the first detector. This is what the detector saw.
///  - fail-slow: the injection ground truth (ClusterSim::set_fail_slow),
///    which benches compare the gray windows against.
struct NodeWindow {
  static constexpr SimTime kUnset = FaultIncident::kUnset;

  MdsId node = kInvalidMds;
  SimTime began_at = kUnset;
  SimTime ended_at = kUnset;
  MdsId by = kInvalidMds;
  std::uint64_t count = 0;
  bool open = true;
};

/// A fault call that was a no-op because the run state gave it nothing to
/// act on. Fault plans run inside events, so these calls must not throw;
/// the log keeps them so a script that asked for the impossible shows.
struct IgnoredFault {
  enum class Reason : std::uint8_t {
    kRestartLive,    // recover_mds on an MDS that is serving
    kCrashDown,      // fail_mds on an MDS that is already down
    kCrashLastLive,  // fail_mds on the only MDS still up: no survivor
  };
  MdsId node = kInvalidMds;
  SimTime at = 0;
  Reason reason = Reason::kRestartLive;
};

class FaultLog {
 public:
  void note_ignored(MdsId node, IgnoredFault::Reason reason, SimTime now) {
    ignored_.push_back(IgnoredFault{node, now, reason});
  }

  void note_crash(MdsId node, SimTime now) {
    // A re-crash closes any incident still open for the node.
    if (FaultIncident* inc = open_of(incidents_, node)) inc->open = false;
    FaultIncident fresh;
    fresh.node = node;
    fresh.crashed_at = now;
    incidents_.push_back(fresh);
  }

  void note_detection(MdsId node, MdsId by, SimTime now) {
    FaultIncident* inc = open_of(incidents_, node);
    if (inc == nullptr || inc->has(inc->detected_at)) return;
    inc->detected_at = now;
    inc->detected_by = by;
  }

  void note_takeover(MdsId node, SimTime now) {
    FaultIncident* inc = open_of(incidents_, node);
    if (inc == nullptr || inc->has(inc->takeover_at)) return;
    inc->takeover_at = now;
  }

  void note_restart(MdsId node, SimTime now) {
    FaultIncident* inc = open_of(incidents_, node);
    if (inc == nullptr || inc->has(inc->restarted_at)) return;
    inc->restarted_at = now;
  }

  void note_rejoin(MdsId node, SimTime now) {
    FaultIncident* inc = open_of(incidents_, node);
    if (inc == nullptr || inc->has(inc->rejoined_at)) return;
    inc->rejoined_at = now;
    maybe_close(*inc);
  }

  void note_marked_up(MdsId node, SimTime now) {
    FaultIncident* inc = open_of(incidents_, node);
    if (inc == nullptr || inc->has(inc->remarked_up_at)) return;
    inc->remarked_up_at = now;
    maybe_close(*inc);
  }

  void note_fenced(MdsId node, SimTime now) { open_window(fences_, node, now); }
  void note_unfenced(MdsId node, SimTime now) {
    close_window(fences_, node, now);
  }

  /// One admission-gate shed on `node`. Extends the node's open overload
  /// episode, or opens a new one after a quiet gap.
  void note_shed(MdsId node, SimTime now) {
    NodeWindow* w = open_of(overloads_, node);
    if (w != nullptr && now - w->ended_at > kQuietGap) {
      w->open = false;
      w = nullptr;
    }
    if (w == nullptr) w = open_window(overloads_, node, now);
    w->ended_at = now;
    ++w->count;
  }

  /// First detector to see `node` cross the degraded threshold opens the
  /// window; later detectors are no-ops while it stays open.
  void note_gray_degraded(MdsId node, MdsId by, SimTime now) {
    if (NodeWindow* w = open_window(grays_, node, now)) w->by = by;
  }
  void note_gray_recovered(MdsId node, SimTime now) {
    close_window(grays_, node, now);
  }

  /// Injection bookkeeping (ClusterSim::set_fail_slow).
  void note_fail_slow(MdsId node, SimTime now) {
    open_window(fail_slows_, node, now);
  }
  void note_fail_slow_cleared(MdsId node, SimTime now) {
    close_window(fail_slows_, node, now);
  }

  const std::vector<FaultIncident>& incidents() const { return incidents_; }
  const std::vector<IgnoredFault>& ignored_faults() const { return ignored_; }
  const std::vector<NodeWindow>& fence_incidents() const { return fences_; }
  const std::vector<NodeWindow>& overload_incidents() const {
    return overloads_;
  }
  const std::vector<NodeWindow>& gray_incidents() const { return grays_; }
  const std::vector<NodeWindow>& fail_slow_incidents() const {
    return fail_slows_;
  }

  /// Total seconds peers were flagged gray-degraded, right-censoring
  /// windows still open at `asof`.
  double gray_degraded_seconds(SimTime asof) const {
    return censored_seconds(grays_, asof);
  }
  /// Total seconds nodes spent self-fenced (minority-side write stall),
  /// right-censoring windows still open at `asof`.
  double minority_stall_seconds(SimTime asof) const {
    return censored_seconds(fences_, asof);
  }

  /// Crash -> first survivor detection. `asof` (usually the run end)
  /// right-censors incidents whose end milestone never happened: a crash
  /// that was *never* detected still contributes `asof - crashed_at`
  /// instead of silently vanishing from the summary.
  Summary detection_latency_seconds(SimTime asof) const {
    return span([](const FaultIncident& i) { return i.detected_at; },
                [](const FaultIncident& i) { return i.crashed_at; }, asof);
  }
  /// Crash -> delegations redistributed: the window in which the dead
  /// node's territory has no authority at all.
  Summary unavailability_seconds(SimTime asof) const {
    return span([](const FaultIncident& i) { return i.takeover_at; },
                [](const FaultIncident& i) { return i.crashed_at; }, asof);
  }
  /// Restart -> journal replay finished (the node serves again).
  Summary recovery_time_seconds(SimTime asof) const {
    return span([](const FaultIncident& i) { return i.rejoined_at; },
                [](const FaultIncident& i) { return i.restarted_at; }, asof);
  }

  /// Per-episode overload durations (first shed -> last shed of the
  /// episode). An episode with one shed contributes 0; a sustained storm
  /// contributes its whole span.
  Summary overload_episode_seconds(SimTime /*asof*/) const {
    Summary s;
    for (const NodeWindow& o : overloads_) {
      s.add(to_seconds(o.ended_at - o.began_at));
    }
    return s;
  }

  /// Total requests shed at admission, across all nodes and episodes.
  std::uint64_t total_sheds() const {
    std::uint64_t n = 0;
    for (const NodeWindow& o : overloads_) n += o.count;
    return n;
  }

 private:
  // Rejoin (replay done) and re-mark-up (peers hear heartbeats again)
  // race freely — whichever lands second completes the lifecycle.
  static void maybe_close(FaultIncident& inc) {
    if (inc.has(inc.rejoined_at) && inc.has(inc.remarked_up_at)) {
      inc.open = false;
    }
  }

  /// The latest record still open for `node`, or null.
  template <typename Record>
  static Record* open_of(std::vector<Record>& records, MdsId node) {
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->node == node && it->open) return &*it;
    }
    return nullptr;
  }

  /// Open a window for `node` at `now`; null if one is already open.
  static NodeWindow* open_window(std::vector<NodeWindow>& windows,
                                 MdsId node, SimTime now) {
    if (open_of(windows, node) != nullptr) return nullptr;
    NodeWindow& w = windows.emplace_back();
    w.node = node;
    w.began_at = now;
    return &w;
  }

  static void close_window(std::vector<NodeWindow>& windows, MdsId node,
                           SimTime now) {
    NodeWindow* w = open_of(windows, node);
    if (w == nullptr) return;
    w->ended_at = now;
    w->open = false;
  }

  /// Summed window spans, open windows censored at `asof`.
  static double censored_seconds(const std::vector<NodeWindow>& windows,
                                 SimTime asof) {
    double total = 0.0;
    for (const NodeWindow& w : windows) {
      const SimTime end = w.open ? asof : w.ended_at;
      if (end == NodeWindow::kUnset || end < w.began_at) continue;
      total += to_seconds(end - w.began_at);
    }
    return total;
  }

  template <typename End, typename Begin>
  Summary span(End end, Begin begin, SimTime asof) const {
    Summary s;
    for (const FaultIncident& i : incidents_) {
      SimTime e = end(i);
      const SimTime b = begin(i);
      if (!i.has(b)) continue;  // milestone chain never started: nothing
      // Right-censor: the end milestone hadn't happened by `asof` (the
      // incident ran past the end of the run). Report the observed lower
      // bound rather than dropping the incident from the summary.
      if (!i.has(e)) e = asof;
      if (e == FaultIncident::kUnset || e < b) continue;
      s.add(to_seconds(e - b));
    }
    return s;
  }

  /// Sheds further apart than this belong to separate overload episodes.
  static constexpr SimTime kQuietGap = kSecond;

  std::vector<FaultIncident> incidents_;
  std::vector<NodeWindow> fences_;
  std::vector<NodeWindow> overloads_;
  std::vector<NodeWindow> grays_;
  std::vector<NodeWindow> fail_slows_;
  std::vector<IgnoredFault> ignored_;
};

}  // namespace mdsim
