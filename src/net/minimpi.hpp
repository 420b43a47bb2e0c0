#pragma once
// MiniMPI — an MPI-style message-passing runtime whose ranks run as
// cooperative fibers (common::FiberScheduler) in one process.
//
// The paper's nodes communicate with MPI over the XD1 RapidArray fabric; no
// MPI implementation is available here, so MiniMPI provides the subset the
// hybrid designs need (point-to-point send/recv with tags, broadcast and
// barrier) with real data movement between per-rank mailboxes. A
// message carries an immutable Payload: a sender packs a block once and
// every destination receives the same buffer, while each transfer is still
// charged on its own (below).
//
// Virtual time: every rank owns a clock in simulated seconds. Following the
// paper's model (§4.3: "the computations on the processors cannot overlap
// with the network communications"), a send charges the full serialization
// time `latency + bytes/B_n` to the *sender's* clock (the CPU drives MPI),
// and a receive advances the receiver's clock to at least the message's
// arrival time. Broadcast is root-serialized, matching the paper's
// "transfers ... to all the other nodes".
//
// Determinism: receives always name their source and tag, clocks depend only
// on message payload sizes and compute charges — never on wall-clock time —
// so repeated runs give identical simulated timings and data.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fiber.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

// DMA-style transfers live alongside the basic MPI-flavoured operations;
// see the class comments below.

namespace rcs::net {

using sim::SimTime;

/// Cost parameters of the interconnect between any two nodes.
struct NetworkParams {
  double bytes_per_s = 2e9;  // B_n: XD1 provides 2 GB/s links per node
  double latency_s = 0.0;    // per-message latency (the paper neglects it)

  /// Serialization time for one message of `bytes`.
  SimTime transfer_time(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

/// Per-rank simulated clock. All compute and communication charges flow
/// through here so the run produces a deterministic simulated schedule.
class VirtualClock {
 public:
  SimTime now() const { return now_; }

  /// Advance by a non-negative duration.
  void advance(SimTime dt) {
    RCS_CHECK_MSG(dt >= 0.0, "clock cannot move backwards by " << dt);
    now_ += dt;
  }

  /// Move forward to `t` if `t` is later; never moves backwards.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  SimTime now_ = 0.0;
};

/// An immutable, reference-counted message body. A sender builds it once
/// and may pass the same Payload to any number of sends: every
/// destination's Message shares the one buffer, and no rank can write it
/// after it is built. Copying a Payload copies a handle, not the bytes; the
/// buffer is freed when the last handle (the sender's or a receiver's)
/// drops it. An empty payload holds no buffer.
class Payload {
 public:
  Payload() = default;

  /// A payload of `bytes` bytes that `fill(std::byte* out)` writes once,
  /// before any other handle to the buffer exists. The buffer is an array
  /// of doubles, so a double at a multiple of 8 bytes is aligned.
  template <typename Fill>
  static Payload build(std::size_t bytes, Fill&& fill) {
    return build(bytes, bytes, std::forward<Fill>(fill));
  }

  /// A payload that travels as `bytes` bytes but holds only the first
  /// `stored` of them, which `fill` writes: a cost-only run's message keeps
  /// its header and is charged its whole size.
  template <typename Fill>
  static Payload build(std::size_t bytes, std::size_t stored, Fill&& fill) {
    RCS_CHECK(stored <= bytes);
    Payload p;
    if (bytes == 0) return p;
    auto words = std::make_shared_for_overwrite<double[]>(
        (stored + sizeof(double) - 1) / sizeof(double));
    fill(reinterpret_cast<std::byte*>(words.get()));
    p.words_ = std::move(words);
    p.size_ = bytes;
    p.stored_ = stored;
    return p;
  }

  /// A payload holding a copy of the `bytes` bytes at `data`.
  static Payload copy_of(const void* data, std::size_t bytes) {
    return build(bytes,
                 [&](std::byte* out) { std::memcpy(out, data, bytes); });
  }

  /// The buffer: readable for stored() bytes, not size().
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(words_.get());
  }
  /// Bytes on the wire: what every send charges.
  std::size_t size() const { return size_; }
  /// Bytes the buffer holds: size(), or less for a cost-only message.
  std::size_t stored() const { return stored_; }
  bool empty() const { return size_ == 0; }

 private:
  std::shared_ptr<const double[]> words_;
  std::size_t size_ = 0;
  std::size_t stored_ = 0;
};

/// A received message: payload plus provenance and simulated arrival time.
struct Message {
  int src = -1;
  int tag = -1;
  SimTime depart = 0.0;           // simulated time the transfer started
  SimTime arrival = 0.0;          // simulated time the payload is available
  Payload payload;

  /// Reinterpret the payload as a vector of doubles.
  std::vector<double> as_doubles() const {
    RCS_CHECK_MSG(payload.size() % sizeof(double) == 0,
                  "payload is not a whole number of doubles");
    RCS_CHECK_MSG(payload.stored() == payload.size(),
                  "a header-only payload holds no data to read");
    std::vector<double> out(payload.size() / sizeof(double));
    // An empty payload has no buffer, and memcpy must not see null.
    if (!out.empty()) std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }

  /// Reinterpret the payload as a single trivially-copyable value.
  template <typename T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    RCS_CHECK_MSG(payload.size() == sizeof(T), "payload size mismatch");
    RCS_CHECK_MSG(payload.stored() == payload.size(),
                  "a header-only payload holds no data to read");
    T v;
    std::memcpy(&v, payload.data(), sizeof(T));
    return v;
  }
};

class World;
class Comm;

/// Thrown out of blocked mailbox waits when another rank's main function
/// failed: the World poisons every mailbox so no rank hangs forever waiting
/// for a message its dead peer will never send. World::run swallows these
/// secondary errors and rethrows the original rank exception.
struct WorldAborted : Error {
  explicit WorldAborted(const std::string& what) : Error(what) {}
};

/// Thrown when a rank fail-stops under an injected FaultPlan crash, and out
/// of receives from a peer that has already failed. Distinct from
/// WorldAborted: a RankFailed world keeps running — survivors observe the
/// failure per-operation and may catch it to degrade gracefully, whereas
/// WorldAborted means the whole run is unwinding after an unexpected error.
struct RankFailed : Error {
  RankFailed(int failed_rank, const std::string& what)
      : Error(what), rank(failed_rank) {}
  int rank;  // the rank that fail-stopped (may be the thrower or a peer)
};

/// A rank's handle to the world: MPI-flavoured operations plus the rank's
/// virtual clock. One Comm per rank, used only from that rank's fiber.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Point-to-point send. Charges `transfer_time(payload.size())` to this
  /// rank's clock; the message arrives at the charged completion time. The
  /// destination's Message shares `payload`'s buffer: sending one payload
  /// to many ranks charges every transfer but never copies the bytes.
  /// All point-to-point operations validate their arguments: the peer rank
  /// must be in [0, size) and distinct from this rank, and user tags must be
  /// non-negative (negative tags are reserved for internal collectives) —
  /// violations throw a descriptive Error instead of indexing mailboxes out
  /// of bounds.
  void send(int dst, int tag, Payload payload);

  /// DMA-style non-blocking send: the transfer occupies this rank's NIC
  /// timeline instead of the CPU (the RapidArray engines on XD1 can move
  /// data without the processor). The CPU pays only the per-message setup
  /// latency; the message arrives when the NIC finishes. Ordering with
  /// other isends from this rank is preserved (one NIC, serialized).
  void isend(int dst, int tag, Payload payload);

  /// Simulated time this rank's NIC becomes idle.
  SimTime nic_free_at() const { return nic_busy_until_; }

  /// Blocking receive from a specific source and tag. The clock advances to
  /// at least the message's simulated arrival. `phase` names the receive's
  /// trace event (default: the active collective, else "recv"); the
  /// critical-path analyzer splits its wire time into hidden and visible
  /// per phase. Throws RankFailed when `src` fail-stopped before sending
  /// the message.
  Message recv(int src, int tag, const char* phase = nullptr);

  /// recv() with a simulated-time budget: if the message's arrival lands
  /// past `clock.now() + timeout_s` (or the source fail-stopped), sets
  /// *timed_out, advances the clock only to the deadline, and returns the
  /// late message (src = -1 when the peer died without sending) so the
  /// caller can degrade gracefully instead of stalling on a straggler.
  Message recv_deadline(int src, int tag, SimTime timeout_s, bool* timed_out,
                        const char* phase = nullptr);

  /// Convenience wrappers.
  void send_doubles(int dst, int tag, const double* data, std::size_t count) {
    send(dst, tag, Payload::copy_of(data, count * sizeof(double)));
  }
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, Payload::copy_of(&v, sizeof(T)));
  }

  /// Root-serialized broadcast: root sends to every other rank in turn
  /// (P_t' "transfers ... to all the other nodes"); non-roots receive.
  /// Returns the payload, on every rank the root's one buffer.
  Payload bcast(int root, int tag, Payload payload);

  /// Binomial-tree broadcast: ceil(log2 p) rounds, each relay forwarding to
  /// its subtree, so the last arrival is ~log2(p) transfer times instead of
  /// the root-serialized (p-1). Every rank must call it. Relays forward
  /// the buffer they received, so every rank returns the root's buffer.
  Payload bcast_tree(int root, int tag, Payload payload);

  /// Barrier (gather-to-0 then release). Synchronizes simulated clocks to
  /// the latest participant (plus the tiny control-message costs).
  void barrier();

  /// This rank's virtual clock (compute charges are applied by the node
  /// model, which shares this clock).
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// Attach a per-rank trace recorder: every send/isend/receive is recorded
  /// as a sim::CommEvent (clock interval + wire interval + phase label) for
  /// critical-path analysis. The recorder must outlive the run and must be
  /// private to this rank (recorders are not thread-safe); pass nullptr to
  /// detach (e.g. before an untimed gather). Cleared by each new run().
  void set_trace(sim::TraceRecorder* trace) { trace_ = trace; }

  /// Total bytes this rank has sent (for reports).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Injection accounting for this rank under the World's FaultPlan (link
  /// degradation seconds, self-crash). Zeroed when no plan is installed.
  const sim::FaultStats& fault_stats() const { return fault_stats_; }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  /// Accept a taken message: advance the clock to its arrival and trace
  /// the receive under `phase`.
  void finish_recv(const Message& msg, const char* phase);

  /// Internal send/recv that accept reserved (negative) tags — the public
  /// operations validate user tags and then route through these.
  void send_any_tag(int dst, int tag, Payload payload);
  Message recv_any_tag(int src, int tag, const char* phase);

  /// Fail-stop checkpoint: when the installed FaultPlan crashes this rank
  /// at t <= now, mark the rank failed, wake every blocked peer, and throw
  /// RankFailed. Called on entry to every communication operation — crashes
  /// manifest at the first message the dead rank would have touched.
  void check_crash();

  /// Per-message wire parameters: the network's nominal latency/bandwidth,
  /// degraded and jittered by the FaultPlan when one is installed (also
  /// advances the deterministic per-rank message sequence counter).
  sim::LinkCost wire_cost(int dst, std::uint64_t bytes);

  /// Restore construction-time state so a World can be run() again.
  void reset_for_run();

  /// Scoped collective-context label: internal sends/receives issued while
  /// a scope is live are attributed to the collective ("barrier", "bcast",
  /// ...) instead of the generic "send"/"recv".
  class CollScope {
   public:
    CollScope(Comm& c, const char* label) : c_(c), prev_(c.coll_label_) {
      c_.coll_label_ = label;
    }
    ~CollScope() { c_.coll_label_ = prev_; }
    CollScope(const CollScope&) = delete;
    CollScope& operator=(const CollScope&) = delete;

   private:
    Comm& c_;
    const char* prev_;
  };

  /// Trace hooks (no-ops when no recorder is attached).
  void note_send_trace(sim::CommEvent::Kind kind, int dst, SimTime t0,
                       SimTime depart, SimTime arrival, std::uint64_t bytes);
  void note_recv_trace(const Message& msg, SimTime before, const char* phase);

  /// Telemetry: bump the global message/byte counters (no-op when
  /// RCS_METRICS is off).
  void note_send_metrics(std::uint64_t bytes);

  World* world_;
  int rank_;
  VirtualClock clock_;
  SimTime nic_busy_until_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t msgs_sent_ = 0;
  std::uint64_t msg_seq_ = 0;  // per-rank send ordinal (fault jitter key)
  sim::FaultStats fault_stats_;
  sim::TraceRecorder* trace_ = nullptr;   // per-rank comm-event sink
  const char* coll_label_ = nullptr;      // active collective context
};

/// The set of ranks plus their mailboxes. Construct with the node count and
/// network parameters, then `run` a per-rank main function.
class World {
 public:
  World(int size, NetworkParams net);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }
  const NetworkParams& network() const { return net_; }

  /// Run every rank's rank_main to completion and return. Each rank is a
  /// cooperative fiber; the fibers are multiplexed over worker loops hosted
  /// on the global ThreadPool (see set_max_workers), so a world never runs
  /// on more OS threads than the pool has. A receive that must wait parks
  /// the rank's fiber and frees its worker for another rank. Simulated
  /// clocks, FIFO per-(src,tag) delivery, poison/RankFailed propagation
  /// and FaultPlan replay do not depend on the worker count (receives name
  /// their source and tag, and per-pair order is fixed by the sender's
  /// program order, so no scheduler interleaving is observable). Rethrows the first rank exception after every rank has
  /// finished; when one rank fails, every mailbox is poisoned so peers
  /// blocked in recv/barrier wake with WorldAborted instead of hanging
  /// (those secondary aborts are swallowed — the original exception is
  /// what propagates). With metrics on, each rank's message and byte totals
  /// are recorded once into the net.rank_msgs_sent / net.rank_bytes_sent
  /// histograms when the run ends. The Comms (and their clocks / byte
  /// counters) remain inspectable afterwards. Calling run() again first
  /// resets all per-run state (clocks, NIC timelines, byte counters,
  /// undelivered messages), so a World is reusable and each run starts from
  /// t = 0.
  void run(const std::function<void(Comm&)>& rank_main);

  /// Rank r's Comm — valid between construction and destruction; read its
  /// clock after run() to get per-node finish times.
  Comm& comm(int rank);

  /// Latest simulated clock across ranks (the run's makespan) — call after
  /// run().
  SimTime makespan() const;

  /// Install a fault plan for subsequent run()s (nullptr = fault-free; the
  /// plan must outlive the runs). With a plan, sends see degraded/jittered
  /// links, ranks fail-stop at their crash times, and receives from failed
  /// peers throw RankFailed.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_plan_ = plan; }
  const sim::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Ranks that fail-stopped during the last run(), ascending.
  std::vector<int> failed_ranks() const;

  /// Run the ranks over min(max_workers, size()) worker loops instead of
  /// the default min(pool threads, size()). The pool's thread count still
  /// caps how many of them run at once. Requires max_workers > 0.
  void set_max_workers(int max_workers);

 private:
  friend class Comm;

  struct Mailbox {
    std::mutex mu;
    /// Undelivered messages, one delivery-ordered queue per source, made on
    /// the source's first delivery. Every receive names its source, so it
    /// searches only that source's queue.
    std::unordered_map<int, std::deque<Message>> from;
    bool poisoned = false;  // a peer rank failed; waits must not block
    /// Rank fibers parked in take() on this box. A waiter registers here
    /// under `mu` before parking; wakers splice the list under `mu` and
    /// wake each fiber exactly once (the fiber analogue of cv.notify_all).
    std::vector<common::Fiber*> fiber_waiters;
  };

  void deliver(int dst, Message msg);
  Message take(int dst, int src, int tag);

  /// Wake every blocked take() with WorldAborted (called on first rank
  /// failure so the surviving ranks cannot deadlock on a dead peer).
  void poison_mailboxes();

  /// Mark `rank` fail-stopped and wake every blocked take() so waits on the
  /// dead rank turn into RankFailed instead of hanging (other traffic keeps
  /// flowing — unlike poison_mailboxes, the world stays alive).
  void mark_failed(int rank);
  bool is_failed(int rank) const {
    return failed_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Wake every fiber blocked in take() on one box. `spliced` must have
  /// been swapped out of the box's fiber_waiters under its mutex.
  static void wake_waiters(std::vector<common::Fiber*>& spliced);

  int size_;
  NetworkParams net_;
  int max_workers_ = 0;  // 0 = the pool's thread count
  bool ran_ = false;  // a run() completed; the next run() resets state
  const sim::FaultPlan* fault_plan_ = nullptr;
  std::unique_ptr<std::atomic<bool>[]> failed_;  // fail-stopped ranks
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Comm>> comms_;
};

}  // namespace rcs::net
