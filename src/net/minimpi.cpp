#include "net/minimpi.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace rcs::net {

namespace {

/// World-level telemetry: totals over all ranks, per-collective counts,
/// and the distribution of per-rank totals (one sample per rank per run, so
/// the registry stays the same size at any world size).
struct NetMetrics {
  obs::Counter& msgs;
  obs::Counter& bytes;
  obs::Counter& bcasts;
  obs::Counter& barriers;
  obs::Histogram& rank_msgs;
  obs::Histogram& rank_bytes;

  static NetMetrics& get() {
    auto& reg = obs::Registry::global();
    static NetMetrics m{reg.counter("net.msgs_sent"),
                        reg.counter("net.bytes_sent"),
                        reg.counter("net.collectives.bcast"),
                        reg.counter("net.collectives.barrier"),
                        reg.histogram("net.rank_msgs_sent"),
                        reg.histogram("net.rank_bytes_sent")};
    return m;
  }
};

}  // namespace

int Comm::size() const { return world_->size(); }

void Comm::note_send_metrics(std::uint64_t bytes) {
  if (!obs::metrics_enabled()) return;
  NetMetrics& nm = NetMetrics::get();
  nm.msgs.add(1);
  nm.bytes.add(bytes);
}

void Comm::note_send_trace(sim::CommEvent::Kind kind, int dst, SimTime t0,
                           SimTime depart, SimTime arrival,
                           std::uint64_t bytes) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  sim::CommEvent ev;
  ev.kind = kind;
  ev.rank = rank_;
  ev.peer = dst;
  ev.t0 = t0;
  ev.t1 = clock_.now();
  ev.depart = depart;
  ev.arrival = arrival;
  ev.bytes = bytes;
  ev.phase = trace_->intern(
      coll_label_ != nullptr
          ? coll_label_
          : (kind == sim::CommEvent::Kind::NicSend ? "isend" : "send"));
  trace_->add_comm(ev);
}

void Comm::note_recv_trace(const Message& msg, SimTime before,
                           const char* phase) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  sim::CommEvent ev;
  ev.kind = sim::CommEvent::Kind::Recv;
  ev.rank = rank_;
  ev.peer = msg.src;
  ev.t0 = before;
  ev.t1 = clock_.now();
  ev.depart = msg.depart;
  ev.arrival = msg.arrival;
  ev.bytes = msg.payload.size();
  ev.phase = trace_->intern(
      phase != nullptr ? phase
                       : (coll_label_ != nullptr ? coll_label_ : "recv"));
  trace_->add_comm(ev);
}

sim::LinkCost Comm::wire_cost(int dst, std::uint64_t bytes) {
  sim::LinkCost base;
  base.latency_s = world_->network().latency_s;
  base.bytes_per_s = world_->network().bytes_per_s;
  const sim::FaultPlan* plan = world_->fault_plan_;
  if (plan == nullptr) return base;
  const sim::LinkCost cost =
      plan->link_cost(rank_, dst, clock_.now(), base, msg_seq_++);
  const double b = static_cast<double>(bytes);
  const SimTime added = (cost.latency_s + b / cost.bytes_per_s) -
                        (base.latency_s + b / base.bytes_per_s);
  if (added > 0.0) {
    fault_stats_.link_hits += 1;
    fault_stats_.link_added_s += added;
  }
  return cost;
}

void Comm::send(int dst, int tag, Payload payload) {
  RCS_CHECK_MSG(dst >= 0 && dst < world_->size(), "send to bad rank " << dst);
  RCS_CHECK_MSG(dst != rank_, "send to self (rank " << rank_ << ")");
  RCS_CHECK_MSG(tag >= 0,
                "send with reserved tag " << tag << " (user tags must be >= 0)");
  send_any_tag(dst, tag, std::move(payload));
}

void Comm::send_any_tag(int dst, int tag, Payload payload) {
  obs::ScopedTimer span("send", "net");
  const std::uint64_t bytes = payload.size();
  note_send_metrics(bytes);
  // §4.3: the processor drives MPI, so the CPU is busy for the whole
  // serialization; arrival coincides with send completion.
  const sim::LinkCost cost = wire_cost(dst, bytes);
  const SimTime depart = clock_.now();
  clock_.advance(cost.latency_s + static_cast<double>(bytes) / cost.bytes_per_s);
  bytes_sent_ += bytes;
  msgs_sent_ += 1;
  note_send_trace(sim::CommEvent::Kind::Send, dst, depart, depart,
                  clock_.now(), bytes);

  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.depart = depart;
  msg.arrival = clock_.now();
  msg.payload = std::move(payload);
  world_->deliver(dst, std::move(msg));
}

void Comm::isend(int dst, int tag, Payload payload) {
  RCS_CHECK_MSG(dst >= 0 && dst < world_->size(), "isend to bad rank " << dst);
  RCS_CHECK_MSG(dst != rank_, "isend to self (rank " << rank_ << ")");
  RCS_CHECK_MSG(
      tag >= 0, "isend with reserved tag " << tag << " (user tags must be >= 0)");
  obs::ScopedTimer span("isend", "net");
  const std::uint64_t bytes = payload.size();
  note_send_metrics(bytes);
  // CPU pays only the DMA setup; the NIC serializes the transfer.
  const sim::LinkCost cost = wire_cost(dst, bytes);
  const SimTime setup_t0 = clock_.now();
  clock_.advance(cost.latency_s);
  const SimTime start = std::max(clock_.now(), nic_busy_until_);
  nic_busy_until_ = start + static_cast<double>(bytes) / cost.bytes_per_s;
  bytes_sent_ += bytes;
  msgs_sent_ += 1;
  note_send_trace(sim::CommEvent::Kind::NicSend, dst, setup_t0, start,
                  nic_busy_until_, bytes);

  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.depart = start;
  msg.arrival = nic_busy_until_;
  msg.payload = std::move(payload);
  world_->deliver(dst, std::move(msg));
}

Payload Comm::bcast_tree(int root, int tag, Payload payload) {
  const int p = size();
  RCS_CHECK_MSG(root >= 0 && root < p, "bcast_tree bad root " << root);
  if (obs::metrics_enabled() && rank_ == root) NetMetrics::get().bcasts.add(1);
  if (p == 1) return payload;
  CollScope coll(*this, "bcast");
  // Classic binomial tree on virtual ranks (root = virtual 0): a rank's
  // parent clears its lowest set bit; it forwards to vrank + s for every
  // power of two s below that bit, largest first, so the last arrival is
  // ceil(log2 p) transfer times after the root starts.
  const int vrank = (rank_ - root + p) % p;
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  const int low = vrank == 0 ? (1 << rounds) : (vrank & -vrank);
  if (vrank != 0) {
    const int parent = (vrank - low + root) % p;
    payload = recv(parent, tag).payload;
  }
  for (int s = low >> 1; s >= 1; s >>= 1) {
    if (vrank + s < p) {
      const int child = (vrank + s + root) % p;
      send(child, tag, payload);
    }
  }
  return payload;
}

void Comm::finish_recv(const Message& msg, const char* phase) {
  const SimTime before = clock_.now();
  clock_.advance_to(msg.arrival);
  note_recv_trace(msg, before, phase);
}

Message Comm::recv(int src, int tag, const char* phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(), "recv from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "recv from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(
      tag >= 0, "recv with reserved tag " << tag << " (user tags must be >= 0)");
  return recv_any_tag(src, tag, phase);
}

Message Comm::recv_any_tag(int src, int tag, const char* phase) {
  // The span covers the blocking mailbox wait — idle time shows up in the
  // trace as long "recv" slices on the waiting rank's lane.
  obs::ScopedTimer span("recv", "net");
  Message msg = world_->take(rank_, src, tag);
  finish_recv(msg, phase);
  return msg;
}

Message Comm::recv_deadline(int src, int tag, SimTime timeout_s,
                            bool* timed_out, const char* phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(),
                "recv_deadline from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "recv_deadline from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(tag >= 0, "recv_deadline with reserved tag " << tag);
  RCS_CHECK_MSG(timeout_s > 0.0, "recv_deadline timeout must be positive");
  obs::ScopedTimer span("recv", "net");
  if (timed_out != nullptr) *timed_out = false;
  const SimTime wait_t0 = clock_.now();
  const SimTime deadline = wait_t0 + timeout_s;
  Message msg = world_->take(rank_, src, tag);
  if (msg.arrival > deadline) {
    // Give up at the deadline. A late message is drained (it exists; the
    // payload may serve diagnostics) but the clock stops at the deadline, so
    // the caller can recompute the straggler's work without inheriting its
    // delay. The verdict compares simulated times only — wall-clock
    // scheduling cannot change it.
    if (timed_out != nullptr) *timed_out = true;
    fault_stats_.straggler_timeouts += 1;
    clock_.advance_to(deadline);
    // Deadline-bound wait: t1 = deadline != arrival, so the analyzer treats
    // it as a local stall instead of jumping over the (late) wire.
    note_recv_trace(msg, wait_t0, phase);
    return msg;
  }
  finish_recv(msg, phase);
  return msg;
}

void Comm::reset_for_run() {
  clock_ = VirtualClock();
  nic_busy_until_ = 0.0;
  bytes_sent_ = 0;
  msgs_sent_ = 0;
  msg_seq_ = 0;
  fault_stats_ = sim::FaultStats();
  trace_ = nullptr;
  coll_label_ = nullptr;
}

void Comm::barrier() {
  // Gather-to-0, then root releases everyone. Tags in a reserved range.
  constexpr int kGatherTag = -1001;
  constexpr int kReleaseTag = -1002;
  const int p = size();
  if (p == 1) return;
  if (obs::metrics_enabled() && rank_ == 0) NetMetrics::get().barriers.add(1);
  obs::ScopedTimer span("barrier", "net");
  CollScope coll(*this, "barrier");
  const std::byte zero{0};
  const Payload token = Payload::copy_of(&zero, 1);
  if (rank_ == 0) {
    SimTime latest = clock_.now();
    for (int r = 1; r < p; ++r) {
      Message m = recv_any_tag(r, kGatherTag, nullptr);
      latest = std::max(latest, m.arrival);
    }
    clock_.advance_to(latest);
    for (int r = 1; r < p; ++r) send_any_tag(r, kReleaseTag, token);
  } else {
    send_any_tag(0, kGatherTag, token);
    (void)recv_any_tag(0, kReleaseTag, nullptr);
  }
}

World::World(int size, NetworkParams net) : size_(size), net_(net) {
  RCS_CHECK_MSG(size >= 1, "world size must be at least 1, got " << size);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  comms_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    comms_.push_back(std::unique_ptr<Comm>(new Comm(this, r)));
  }
}

World::~World() = default;

Comm& World::comm(int rank) {
  RCS_CHECK_MSG(rank >= 0 && rank < size_, "bad rank " << rank);
  return *comms_[static_cast<std::size_t>(rank)];
}

SimTime World::makespan() const {
  SimTime t = 0.0;
  for (const auto& c : comms_) t = std::max(t, c->clock().now());
  return t;
}

void World::wake_waiters(std::vector<common::Fiber*>& spliced) {
  for (common::Fiber* f : spliced) f->wake();
  spliced.clear();
}

void World::deliver(int dst, Message msg) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::vector<common::Fiber*> waiters;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.from[msg.src].push_back(std::move(msg));
    waiters.swap(box.fiber_waiters);
  }
  wake_waiters(waiters);
}

Message World::take(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    if (auto q = box.from.find(src); q != box.from.end()) {
      std::deque<Message>& queue = q->second;
      auto it = std::find_if(queue.begin(), queue.end(),
                             [&](const Message& m) { return m.tag == tag; });
      if (it != queue.end()) {
        Message msg = std::move(*it);
        queue.erase(it);
        return msg;
      }
    }
    // Checked only after the queue search: a message that was delivered
    // before the failure is still consumable; only a wait that would block
    // forever on a dead peer aborts.
    if (box.poisoned) {
      throw WorldAborted("rank " + std::to_string(dst) +
                         " aborted: a peer rank failed while this rank was "
                         "waiting for src=" +
                         std::to_string(src) + " tag=" + std::to_string(tag));
    }
    // Park until a waker (deliver / poison_mailboxes) fires, then re-run
    // the checks above. The rank's fiber parks on its own stack, freeing
    // the worker thread to run another rank.
    common::Fiber* self = common::Fiber::current();
    RCS_CHECK_MSG(self != nullptr, "rank " << dst
                                           << " received outside World::run");
    box.fiber_waiters.push_back(self);
    common::Fiber::park(lock);
  }
}

void World::poison_mailboxes() {
  std::vector<common::Fiber*> waiters;
  for (auto& box : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(box->mu);
      box->poisoned = true;
      waiters.swap(box->fiber_waiters);
    }
    wake_waiters(waiters);
  }
}

void World::set_max_workers(int max_workers) {
  RCS_CHECK_MSG(max_workers > 0,
                "max_workers must be positive, got " << max_workers);
  max_workers_ = max_workers;
}

void World::run(const std::function<void(Comm&)>& rank_main) {
  if (ran_) {
    // A World is reusable: wipe every per-run artifact (stale clocks, NIC
    // horizons, byte counters, send logs, undelivered messages, poison
    // flags) so the second run is indistinguishable from a fresh World.
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box->mu);
      box->from.clear();
      box->poisoned = false;
      box->fiber_waiters.clear();
    }
    for (auto& c : comms_) c->reset_for_run();
  }
  ran_ = true;

  std::mutex err_mu;
  std::exception_ptr first_error;
  bool first_is_abort = false;  // held error is a secondary WorldAborted

  // The per-rank body: run the rank's main and classify whatever escapes
  // it. All simulated state lives in the rank's Comm, so the body does not
  // depend on which worker thread resumes the fiber.
  auto rank_body = [this, &rank_main, &err_mu, &first_error,
                    &first_is_abort](int r) {
    try {
      rank_main(*comms_[static_cast<std::size_t>(r)]);
    } catch (const WorldAborted&) {
      // Secondary failure induced by the poison below: keep it only
      // until the original exception shows up.
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) {
        first_error = std::current_exception();
        first_is_abort = true;
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error || first_is_abort) {
          first_error = std::current_exception();
          first_is_abort = false;
        }
      }
      // Wake every rank blocked on this (now dead) one so the whole
      // run unwinds instead of hanging.
      poison_mailboxes();
    }
  };

  // Every rank is a resumable context; take() parks it and the scheduler
  // resumes another runnable rank on the same worker. The lane_name hook
  // keeps per-rank Chrome-trace lanes intact even when many ranks share one
  // OS thread.
  common::FiberScheduler::Options opt;
  opt.workers = std::min(
      max_workers_ > 0 ? max_workers_ : common::ThreadPool::global().threads(),
      size_);
  opt.lane_name = [](int r) { return "rank " + std::to_string(r); };
  common::FiberScheduler::run(size_, opt, rank_body);

  if (obs::metrics_enabled()) {
    NetMetrics& nm = NetMetrics::get();
    for (const auto& c : comms_) {
      nm.rank_msgs.record(static_cast<double>(c->msgs_sent_));
      nm.rank_bytes.record(static_cast<double>(c->bytes_sent_));
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rcs::net
