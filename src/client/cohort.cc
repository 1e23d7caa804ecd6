#include "client/cohort.h"

#include <cassert>

namespace mdsim {

ClientStats& ClientStats::operator+=(const ClientStats& o) {
  ops_issued += o.ops_issued;
  ops_completed += o.ops_completed;
  ops_ok += o.ops_ok;
  ops_failed += o.ops_failed;
  forwarded_replies += o.forwarded_replies;
  retries += o.retries;
  stale_replies += o.stale_replies;
  rejected_replies += o.rejected_replies;
  retries_suppressed += o.retries_suppressed;
  giga_redirects += o.giga_redirects;
  hedges_fired += o.hedges_fired;
  hedge_wins += o.hedge_wins;
  wasted_hedges += o.wasted_hedges;
  latency_seconds.merge(o.latency_seconds);
  return *this;
}

ClientCohort::ClientCohort(Simulation& sim, Network& net, FsTree& tree,
                           Workload& workload, const Partitioner& partition,
                           const DirFragRegistry& dirfrag, int count,
                           ClientId first_id, int num_mds,
                           std::uint64_t seed)
    : sim_(sim),
      net_(net),
      tree_(tree),
      workload_(workload),
      partition_(partition),
      dirfrag_(dirfrag),
      first_id_(first_id),
      num_mds_(num_mds) {
  assert(count > 0);
  if (count > 1) {
    // Millisecond buckets: client timescales are 15 ms think times and
    // multi-second timeouts, so <1 ms of quantization is noise, and the
    // coarser tick batches an order of magnitude more clients per wheel
    // wakeup (one engine event services the whole bucket). A cohort of
    // one has nothing to batch and keeps exact timers instead (arm()).
    wheel_.emplace(
        sim,
        [this](std::uint32_t idx, std::uint32_t stamp) {
          on_timer(idx, stamp);
        },
        kMillisecond);
  }
  clients_.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Slot& c = clients_[i];
    const ClientId id = client_id(static_cast<int>(i));
    c.port.cohort = this;
    c.port.idx = static_cast<std::uint32_t>(i);
    c.uid = static_cast<std::uint32_t>(100 + id);
    // One stream per global client id: a client draws the same numbers
    // whichever cohort it lands in.
    c.rng = Rng(seed, 0xc11e47000ULL + static_cast<std::uint64_t>(id));
  }
}

void ClientCohort::set_tracer(TraceCollector* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) trace_recs_.resize(clients_.size());
}

void ClientCohort::set_remote_catalog(std::vector<RemoteTarget> catalog,
                                      double fraction) {
  catalog_ = std::move(catalog);
  remote_fraction_ = fraction;
}

void ClientCohort::start() {
  for (Slot& c : clients_) c.port.addr = net_.attach(&c.port);
  for (int i = 0; i < size(); ++i) {
    schedule_next(static_cast<std::uint32_t>(i));
  }
}

void ClientCohort::arm(std::uint32_t idx, Kind kind, SimTime due) {
  // One live timer per client: a new stamp supersedes whatever is in the
  // wheel (stale entries fire into on_timer and fail the stamp compare).
  Slot& c = clients_[idx];
  const std::uint32_t stamp = ((c.stamp >> 2) + 1) << 2 | kind;
  c.stamp = stamp;
  if (wheel_) {
    wheel_->arm(idx, stamp, due);
    return;
  }
  // Cohort of one: the exact due time, on the engine heap. The stamp
  // compare in on_timer never fails here — cancel() already dropped the
  // superseded event — but keeps one timer path for both modes.
  timer_.cancel();
  timer_ = sim_.schedule_at(due, [this, stamp]() { on_timer(0, stamp); });
}

void ClientCohort::disarm(std::uint32_t idx) {
  Slot& c = clients_[idx];
  c.stamp = ((c.stamp >> 2) + 1) << 2 | kThink;
  timer_.cancel();
}

void ClientCohort::on_timer(std::uint32_t idx, std::uint32_t stamp) {
  if (stamp != clients_[idx].stamp) return;  // superseded
  switch (stamp & 3u) {
    case kThink:
      begin_turn(idx);
      break;
    case kTimeout:
      on_timeout(idx);
      break;
    case kRetry:
      on_retry(idx);
      break;
    case kHedge:
      on_hedge(idx);
      break;
    default:
      assert(false);
  }
}

void ClientCohort::schedule_next(std::uint32_t idx) {
  Slot& c = clients_[idx];
  Operation op;
  const SimTime delay =
      workload_.next(client_id(static_cast<int>(idx)), sim_.now(), c.rng, &op);
  if (delay == kNever) {
    disarm(idx);  // this client is done
    return;
  }
  c.pending = std::move(op);
  arm(idx, kThink, sim_.now() + delay);
}

void ClientCohort::begin_turn(std::uint32_t idx) {
  Slot& c = clients_[idx];
  c.remote = 0;
  if (remote_fraction_ > 0.0 && !catalog_.empty() &&
      c.rng.bernoulli(remote_fraction_)) {
    c.remote = 1;
    c.remote_idx = static_cast<std::uint32_t>(c.rng.uniform(catalog_.size()));
  } else {
    const Operation& op = c.pending;
    // The target may have been unlinked while we were thinking.
    if (op.target == nullptr || !tree_.alive(op.target)) {
      schedule_next(idx);
      return;
    }
  }
  c.attempts = 0;
  issue(idx);
}

MdsId ClientCohort::pick_mds(Slot& c, const Operation& op) {
  const StrategyTraits traits = traits_for(partition_.kind());
  if (!traits.client_computes_location) {
    // GIGA+: if the op's governing directory has a cached split bitmap,
    // route straight to the owning partition (possibly stale — the
    // server answers mis-routes with a redirect and forwards). The
    // giga_empty() guard keeps the common no-fragmentation path free of
    // this block entirely, RNG draws included.
    if (!c.locs.giga_empty()) {
      const bool namespace_op = op.op == OpType::kCreate ||
                                op.op == OpType::kMkdir ||
                                op.op == OpType::kLink;
      const FsNode* dir = namespace_op ? op.target : op.target->parent();
      if (dir != nullptr) {
        const auto* g = c.locs.giga_for(dir->ino());
        if (g != nullptr) {
          const std::uint64_t h = giga_name_hash(
              dir->ino(), namespace_op ? op.name : op.target->name());
          const std::uint32_t p =
              giga_partition(h, g->bitmap, dirfrag_.max_depth());
          return giga_node(g->home, p, num_mds_);
        }
      }
    }
    return c.locs.resolve(op.target, c.rng, num_mds_);
  }
  // Hash strategies: the client knows the placement function.
  const bool namespace_op = op.op == OpType::kCreate ||
                            op.op == OpType::kMkdir ||
                            op.op == OpType::kLink;
  if (namespace_op) {
    switch (partition_.kind()) {
      case StrategyKind::kDirHash:
        // Dentries live with their directory.
        return partition_.authority_of(op.target) == kInvalidMds
                   ? 0
                   : static_cast<MdsId>(
                         op.target->path_hash() %
                         static_cast<std::uint64_t>(num_mds_));
      case StrategyKind::kFileHash:
      case StrategyKind::kLazyHybrid:
        return static_cast<MdsId>(child_path_hash(op.target, op.name) %
                                  static_cast<std::uint64_t>(num_mds_));
      default:
        break;
    }
  }
  return partition_.authority_of(op.target);
}

void ClientCohort::issue(std::uint32_t idx) {
  Slot& c = clients_[idx];
  auto msg = std::make_unique<ClientRequestMsg>();
  msg->req_id = c.next_req++;
  msg->client = client_id(static_cast<int>(idx));
  // Overload-admission context: retry number and the client-side
  // deadline. Stamped unconditionally (pure field writes); servers only
  // read them when overload protection is on.
  msg->attempt =
      c.attempts < 255 ? static_cast<std::uint8_t>(c.attempts) : 255;
  msg->deadline = sim_.now() + retry_.request_timeout;
  c.inflight = msg->req_id;
  c.issued_at = sim_.now();
  c.hedge_out = 0;
  ++stats_.ops_issued;

  if (c.remote != 0) {
    // Cross-shard stat: the catalog entry names a remote MDS by global
    // address and the target's owner (whose uid we assume, since our own
    // uid means nothing against another shard's permission state). The
    // reply must route back across the fabric, so the request carries our
    // *global* address; never traced (the collector is shard-local).
    const RemoteTarget& t = catalog_[c.remote_idx];
    msg->client_addr = net_.global_addr(c.port.addr);
    msg->op = OpType::kStat;
    msg->uid = t.uid;
    msg->target = t.ino;
    msg->secondary = kInvalidInode;
    ++remote_issued_;
    net_.send(c.port.addr, t.mds, std::move(msg));
  } else {
    const Operation& op = c.pending;
    msg->client_addr = c.port.addr;
    msg->op = op.op;
    msg->uid = c.uid;
    msg->target = op.target->ino();
    msg->secondary =
        op.secondary != nullptr ? op.secondary->ino() : kInvalidInode;
    msg->name = op.name;
    if (tracer_ != nullptr) {
      TraceRecord& rec = trace_recs_[idx];
      if (c.attempts == 0) {
        rec.begin(msg->req_id, msg->client, op.op, sim_.now());
      } else {
        // Re-issue: the timeout + backoff gap is attributed to kStallWait
        // and the old request instance loses the right to attribute.
        rec.rearm(msg->req_id, sim_.now());
      }
      msg->trace = &rec;
    }
    // Retries distrust cached knowledge: a silent node may be down or the
    // partition may have moved on, so spray somewhere random and re-learn.
    const MdsId mds =
        c.attempts == 0
            ? pick_mds(c, op)
            : static_cast<MdsId>(
                  c.rng.uniform(static_cast<std::uint64_t>(num_mds_)));
    assert(mds >= 0 && mds < num_mds_);
    c.primary = mds;
    net_.send(c.port.addr, mds, std::move(msg));
    // Hedge trigger: a warmed-up read-only first attempt arms the kHedge
    // timer at the op class's ~p99 delay instead of the timeout; the
    // ordinary timeout is armed only after the hedge fires, for the rest
    // of the window. Remote turns never hedge (the backup pick is over
    // *this* shard's nodes; the remote target is another shard's).
    if (hedge_.enabled && num_mds_ > 1 && hedge_eligible(op.op, c.attempts)) {
      const SimTime hd = hedge_ests_[idx].delay(op.op, hedge_,
                                                retry_.request_timeout);
      if (hd > 0) {
        arm(idx, kHedge, sim_.now() + hd);
        return;
      }
    }
  }
  arm(idx, kTimeout, sim_.now() + retry_.request_timeout);
}

void ClientCohort::on_hedge(std::uint32_t idx) {
  Slot& c = clients_[idx];
  if (c.inflight == 0) return;  // raced with the reply
  ++stats_.hedges_fired;
  c.hedge_out = 1;
  // One backup copy, same req_id: whichever reply loses the race fails
  // the req_id match and is discarded as stale. Never traced (two
  // in-flight copies must not share one attribution record).
  const Operation& op = c.pending;
  auto msg = std::make_unique<ClientRequestMsg>();
  msg->req_id = c.inflight;
  msg->client = client_id(static_cast<int>(idx));
  msg->client_addr = c.port.addr;
  msg->op = op.op;
  msg->uid = c.uid;
  msg->target = op.target->ino();
  msg->secondary = op.secondary != nullptr ? op.secondary->ino()
                                           : kInvalidInode;
  msg->name = op.name;
  msg->attempt = 0;
  msg->deadline = c.issued_at + retry_.request_timeout;
  msg->hedge = 1;
  const MdsId backup = hedge_pick_backup(c.primary, num_mds_, c.rng);
  assert(backup >= 0 && backup < num_mds_ && backup != c.primary);
  net_.send(c.port.addr, backup, std::move(msg));
  // The retry clock keeps its original deadline.
  arm(idx, kTimeout, c.issued_at + retry_.request_timeout);
}

void ClientCohort::give_up(std::uint32_t idx) {
  clients_[idx].inflight = 0;
  clients_[idx].attempts = 0;
  ++stats_.ops_failed;
  schedule_next(idx);
}

void ClientCohort::on_timeout(std::uint32_t idx) {
  Slot& c = clients_[idx];
  ++stats_.retries;
  ++c.attempts;
  if (c.remote == 0 && !tree_.alive(c.pending.target)) {
    give_up(idx);
    return;
  }
  // Retry budget: retries are throttled to a fraction of successes. A
  // dry budget means the cluster is rejecting/timing out far faster than
  // it serves — fail fast instead of feeding the storm.
  if (!c.budget.try_spend(retry_.budget)) {
    ++stats_.retries_suppressed;
    give_up(idx);
    return;
  }
  // Exponential backoff with jitter: the whole herd stranded by a dead
  // node times out together; spreading the re-issues over [d/2, d) keeps
  // the survivors (and the node when it returns) from absorbing one
  // synchronized stampede per timeout period.
  const SimTime delay = retry_backoff_delay(retry_, c.attempts, c.rng);
  arm(idx, kRetry, sim_.now() + delay);
}

void ClientCohort::on_retry(std::uint32_t idx) {
  const Slot& c = clients_[idx];
  if (c.remote == 0 && !tree_.alive(c.pending.target)) {
    give_up(idx);
    return;
  }
  issue(idx);
}

void ClientCohort::on_reply(std::uint32_t idx, NetAddr from, MessagePtr msg) {
  (void)from;
  Slot& c = clients_[idx];
  if (msg->type == MsgType::kGigaRedirect) {
    // Stale-bitmap correction for a mis-routed dentry op. The op itself
    // is still in flight (the server forwarded it); just learn the fresh
    // bitmap so the next op routes right. Reply-path context: stats_
    // updated directly. A redirect for a *remote* turn names another
    // shard's inode; like remote hints/epochs, it is never learned.
    const auto& r = static_cast<GigaRedirectMsg&>(*msg);
    ++stats_.giga_redirects;
    if (c.remote == 0) c.locs.learn_giga(r.dir, r.bitmap, r.home);
    return;
  }
  if (msg->type != MsgType::kClientReply) return;
  auto& reply = static_cast<ClientReplyMsg&>(*msg);
  if (reply.req_id != c.inflight) {
    // Late reply to a retried request, or a network-duplicated reply to
    // one already accepted: count and ignore (the op was settled once).
    ++stats_.stale_replies;
    return;
  }
  if (reply.rejected) {
    // Overload rejection: the request never entered a queue. Honor the
    // server's retry_after (plus jitter) if the budget allows a retry;
    // otherwise fail fast. Mirrors the timeout path's bookkeeping but
    // comes back much sooner than a full request timeout.
    ++stats_.rejected_replies;
    ++c.attempts;
    c.hedge_out = 0;
    if (c.remote == 0 && !tree_.alive(c.pending.target)) {
      give_up(idx);
      return;
    }
    if (!c.budget.try_spend(retry_.budget)) {
      ++stats_.retries_suppressed;
      give_up(idx);
      return;
    }
    const SimTime delay = rejected_retry_delay(reply.retry_after, c.rng);
    // Mark idle so a duplicate of this rejection lands in the stale
    // branch; the kRetry arm supersedes the pending timeout's stamp.
    c.inflight = 0;
    arm(idx, kRetry, sim_.now() + delay);
    return;
  }
  c.inflight = 0;
  c.attempts = 0;
  // No explicit cancellation needed: schedule_next below supersedes the
  // pending timeout (via arm or disarm).
  if (c.hedge_out != 0) {
    // Two copies were racing; the `hedge` echo says which one settled the
    // op (the loser lands in stale_replies). Reply-path context: stats_
    // directly, as with the other reply counters.
    if (reply.hedge != 0) {
      ++stats_.hedge_wins;
    } else {
      ++stats_.wasted_hedges;
    }
    c.hedge_out = 0;
  }

  ++stats_.ops_completed;
  if (reply.success) {
    ++stats_.ops_ok;
    c.budget.earn(retry_.budget);
    // Feed the tail estimator (integer-only, no RNG; a pure no-op for
    // the hedge decision until the class reaches min_samples). Local
    // turns only: a remote turn's latency describes another shard's
    // cluster.
    if (hedge_.enabled && c.remote == 0) {
      hedge_ests_[idx].observe(c.pending.op, sim_.now() - c.issued_at);
    }
  } else {
    ++stats_.ops_failed;
  }
  if (reply.hops > 0) ++stats_.forwarded_replies;
  stats_.latency_seconds.add(to_seconds(sim_.now() - c.issued_at));
  if (c.remote == 0) {
    if (tracer_ != nullptr) {
      TraceRecord& rec = trace_recs_[idx];
      rec.advance(TraceStage::kNetReply, sim_.now(), reply.req_id);
      rec.hops = reply.hops;
      rec.failed = !reply.success;
      tracer_->complete(rec, sim_.now());
    }
    if (reply.epoch > c.last_epoch) {
      c.last_epoch = reply.epoch;
      c.locs.clear();
    }
    c.locs.learn(reply.hints);
    if (reply.giga_dir != kInvalidInode) {
      c.locs.learn_giga(reply.giga_dir, reply.giga_bitmap, reply.giga_home);
    }
  }
  // Remote replies: hints and epochs describe another shard's namespace
  // and partition map — both are meaningless against ours, so neither is
  // learned (inode ids collide across shard trees).

  schedule_next(idx);
}

}  // namespace mdsim
