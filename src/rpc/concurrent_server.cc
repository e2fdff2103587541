#include "rpc/concurrent_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "rpc/protocol.h"
#include "util/logging.h"

namespace ssdb::rpc {
namespace {

// Poller registration identity of the listening socket; session ids
// start at 1, so 0 is free (and the poller's internal wake channel uses
// the top of the token range — see rpc/epoll_poller.cc).
constexpr uint64_t kListenerToken = 0;

}  // namespace

int IdleSweepWaitMs(int idle_timeout_seconds) {
  if (idle_timeout_seconds <= 0) return -1;
  const int64_t quarter_ms =
      static_cast<int64_t>(idle_timeout_seconds) * 1000 / 4;
  constexpr int64_t kMinMs = 50;
  constexpr int64_t kMaxMs = 60 * 60 * 1000;  // sweep at least hourly
  return static_cast<int>(std::min(kMaxMs, std::max(kMinMs, quarter_ms)));
}

ConcurrentServer::ConcurrentServer(gf::Ring ring,
                                   filter::ServerFilter* filter,
                                   std::unique_ptr<UnixServerSocket> listener,
                                   ConcurrentServerOptions options)
    : server_(std::move(ring), filter),
      listener_(std::move(listener)),
      options_(options) {
  threads_ = options_.threads;
  if (threads_ == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw == 0 ? 1 : hw;
  }
}

ConcurrentServer::~ConcurrentServer() { Shutdown(); }

void ConcurrentServer::UpdatePeak(std::atomic<uint64_t>& peak,
                                  uint64_t value) {
  uint64_t current = peak.load(std::memory_order_relaxed);
  while (value > current &&
         !peak.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

Status ConcurrentServer::Start() {
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    if (started_) return Status::FailedPrecondition("already started");
    started_ = true;
  }
  StatusOr<std::unique_ptr<EventPoller>> poller =
      MakeEventPoller(options_.poller);
  Status registered = poller.ok() ? Status::OK() : poller.status();
  if (registered.ok()) {
    poller_ = std::move(*poller);
    // Non-blocking accepts: the poller can report a connection that aborts
    // before accept runs, and the loop must not block on it.
    listener_->SetNonBlocking();
    registered = poller_->Add(listener_->fd(), kListenerToken,
                              /*oneshot=*/false);
  }
  if (!registered.ok()) {
    // Leave the server restartable (e.g. retry with the poll backend
    // after a kEpoll request on a non-epoll build).
    std::lock_guard<std::mutex> lock(listener_mu_);
    started_ = false;
    poller_.reset();
    return registered;
  }
  queues_.clear();
  queues_.reserve(threads_);
  for (size_t i = 0; i < threads_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  poll_thread_ = std::thread([this] { PollLoop(); });
  workers_.reserve(threads_);
  for (size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

const char* ConcurrentServer::poller_name() const {
  return poller_ ? poller_->name() : PollerBackendName(options_.poller);
}

ServerStats ConcurrentServer::Snapshot() const {
  ServerStats stats;
  stats.build = kServerBuild;
  stats.poller = poller_name();
  stats.threads = threads_;
  stats.uptime_seconds = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
  stats.requests_handled = server_.requests_handled();
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.open_connections = open_count_.load(std::memory_order_relaxed);
  stats.connections_idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.write_budget_closed = budget_closed_.load(std::memory_order_relaxed);
  stats.write_stalls = write_stalls_.load(std::memory_order_relaxed);
  stats.bytes_buffered = bytes_buffered_.load(std::memory_order_relaxed);
  stats.bytes_buffered_peak =
      bytes_buffered_peak_.load(std::memory_order_relaxed);
  stats.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  stats.frames_allocated = pool_.allocated();
  stats.frames_reused = pool_.reused();
  stats.poller_wakeups = poller_ ? poller_->wakeups() : 0;
  stats.poller_items_scanned = poller_ ? poller_->items_scanned() : 0;
  return stats;
}

void ConcurrentServer::PollLoop() {
  // With the idle sweep on, Wait returns at a fraction of the timeout so
  // sessions are reclaimed within ~1.25x idle_timeout_seconds; otherwise
  // the dispatcher sleeps until an event or a Wake.
  const int wait_ms = IdleSweepWaitMs(options_.idle_timeout_seconds);
  // The sweep is rate-limited to the wait granularity: busy traffic
  // wakes the dispatcher far more often, and an O(sessions) scan per
  // event-driven wake would reintroduce the cost epoll removed.
  auto next_sweep = std::chrono::steady_clock::now();
  std::vector<PollerEvent> events;
  // (worker queue, session) pairs to hand off after the shard locks drop.
  std::vector<std::pair<size_t, uint64_t>> handoff;
  std::vector<uint64_t> flush;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;
    StatusOr<size_t> waited = poller_->Wait(&events, wait_ms);
    if (!waited.ok()) {
      SSDB_LOG(ERROR) << "concurrent server " << poller_->name()
                      << " wait: " << waited.status().ToString();
      return;  // Shutdown still drains and closes everything
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    bool accept_ready = false;
    handoff.clear();
    flush.clear();
    for (const PollerEvent& event : events) {
      if (event.token == kListenerToken) {
        accept_ready = true;
        continue;
      }
      SessionShard& shard = ShardFor(event.token);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.sessions.find(event.token);
      // Stale events (session closed, or token retired before this
      // delivery) are dropped here; oneshot registration means an armed
      // session produces exactly one event until it is re-armed.
      if (it == shard.sessions.end()) continue;
      Session* session = it->second.get();
      if (session->state == SessionState::kArmed && event.readable) {
        session->state = SessionState::kReady;
        handoff.emplace_back(session->worker, event.token);
      } else if (session->state == SessionState::kFlushing &&
                 event.writable) {
        // The dispatcher owns kFlushing; flush after the shard lock drops.
        flush.push_back(event.token);
      }
    }
    for (uint64_t id : flush) FlushSession(id);
    for (const auto& [worker, id] : handoff) {
      WorkerQueue& queue = *queues_[worker];
      size_t depth;
      {
        std::lock_guard<std::mutex> lock(queue.mu);
        queue.ready.push_back(id);
        depth = queue.ready.size();
      }
      queue.cv.notify_one();
      UpdatePeak(queue_depth_peak_, depth);
    }
    if (accept_ready) HandleAccept();
    if (options_.idle_timeout_seconds > 0) {
      auto now = std::chrono::steady_clock::now();
      if (now >= next_sweep) {
        SweepIdle();
        next_sweep = now + std::chrono::milliseconds(wait_ms);
      }
    }
  }
}

void ConcurrentServer::HandleAccept() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(listener_mu_);
      if (stopping_.load(std::memory_order_relaxed) || accept_paused_) {
        return;
      }
      if (options_.max_connections > 0 &&
          open_count_.load(std::memory_order_relaxed) >=
              options_.max_connections) {
        // Backpressure: unplug the listener from the poller instead of
        // accepting past the fd budget; pending clients wait in the
        // listen backlog and MaybeResumeAccept plugs it back in.
        accept_paused_ = true;
        poller_->Remove(listener_->fd());
        if (options_.log_connections) {
          std::printf("accept paused at %zu connections (budget %zu)\n",
                      open_count_.load(std::memory_order_relaxed),
                      options_.max_connections);
          std::fflush(stdout);
        }
        return;
      }
    }
    // Drain the accept backlog; EAGAIN (or a racing abort) ends the loop
    // and the next listener event retries.
    StatusOr<std::unique_ptr<Channel>> channel = listener_->Accept();
    if (!channel.ok()) return;
    int fd = (*channel)->PollFd();
    if (fd < 0) continue;  // not pollable; drop the connection
    if (options_.io_timeout_seconds > 0) {
      // Bound how long a stalled client can hold a worker mid-frame.
      (*channel)->SetIoTimeout(options_.io_timeout_seconds);
    }
    if (options_.so_sndbuf > 0) {
      (*channel)->SetSendBufferBytes(options_.so_sndbuf);
    }
    const uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>();
    session->id = id;
    session->fd = fd;
    session->channel = std::move(*channel);
    session->worker = next_worker_++ % threads_;
    session->last_armed = std::chrono::steady_clock::now();
    {
      SessionShard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.sessions.emplace(id, std::move(session));
    }
    // Register after the table insert so an immediately-delivered event
    // always finds its session.
    Status added = poller_->Add(fd, id, /*oneshot=*/true);
    if (!added.ok()) {
      SSDB_LOG(ERROR) << "register connection: " << added.ToString();
      SessionShard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.sessions.erase(id);  // dropping the session closes the channel
      continue;
    }
    open_count_.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (options_.log_connections) {
      std::printf("connection %llu accepted (%llu accepted, %llu closed, "
                  "%zu open)\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(
                      accepted_.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      closed_.load(std::memory_order_relaxed)),
                  open_count_.load(std::memory_order_relaxed));
      std::fflush(stdout);
    }
  }
}

void ConcurrentServer::MaybeResumeAccept() {
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (!accept_paused_ || stopping_.load(std::memory_order_relaxed)) return;
  if (options_.max_connections > 0 &&
      open_count_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
    return;
  }
  accept_paused_ = false;
  poller_->Add(listener_->fd(), kListenerToken, /*oneshot=*/false);
}

void ConcurrentServer::SweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::seconds(options_.idle_timeout_seconds);
  std::vector<uint64_t> expired;
  for (SessionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& entry : shard.sessions) {
      // kArmed sessions are idle; kFlushing sessions count as idle when
      // the peer has accepted nothing for a full timeout (last_armed is
      // also the flush-progress clock). kReady/kBusy are mid-request and
      // bounded by the per-socket IO timeout instead. Both swept states
      // are owned by the dispatcher — this thread — so the collected set
      // cannot change state before the closes below.
      if (entry.second->state != SessionState::kArmed &&
          entry.second->state != SessionState::kFlushing) {
        continue;
      }
      if (now - entry.second->last_armed >= limit) {
        expired.push_back(entry.first);
      }
    }
  }
  for (uint64_t id : expired) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseSession(id, "idle timeout");
  }
}

void ConcurrentServer::WorkerLoop(size_t index) {
  WorkerQueue& queue = *queues_[index];
  std::string request = pool_.Acquire();
  std::string response = pool_.Acquire();
  for (;;) {
    uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(queue.mu);
      queue.cv.wait(lock, [this, &queue] {
        return stopping_.load(std::memory_order_relaxed) ||
               !queue.ready.empty();
      });
      if (queue.ready.empty()) break;  // stopping and fully drained
      id = queue.ready.front();
      queue.ready.pop_front();
    }
    Session* session = nullptr;
    {
      SessionShard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.sessions.find(id);
      if (it == shard.sessions.end() ||
          it->second->state != SessionState::kReady) {
        continue;
      }
      // kBusy makes this worker the session's sole owner: the dispatcher
      // skips it (its poller registration is disabled by oneshot) and the
      // queue holds no duplicate.
      it->second->state = SessionState::kBusy;
      session = it->second.get();
    }
    Status received = session->channel->ReceiveInto(&request);
    if (!received.ok()) {
      CloseSession(id, received.code() == StatusCode::kOutOfRange
                           ? "peer disconnected"
                           : "receive error");
      continue;
    }
    server_.HandleRequestInto(request, &response);
    const bool is_shutdown =
        !request.empty() && static_cast<Op>(request[0]) == Op::kShutdown;
    // Fast path: the response fits the socket and goes out inline. A
    // short write parks the tail on the session and hands it to the
    // dispatcher — this worker never blocks on a slow reader.
    StatusOr<size_t> sent = session->channel->SendNonBlocking(response, 0);
    if (!sent.ok()) {
      CloseSession(id, "send error");
      continue;
    }
    const size_t total = session->channel->SendCompleteOffset(response);
    if (*sent < total) {
      write_stalls_.fetch_add(1, std::memory_order_relaxed);
      const size_t remaining = total - *sent;
      if (options_.max_write_buffer > 0 &&
          remaining > options_.max_write_buffer) {
        budget_closed_.fetch_add(1, std::memory_order_relaxed);
        CloseSession(id, "write buffer budget exceeded");
        continue;
      }
      const uint64_t buffered =
          bytes_buffered_.fetch_add(remaining, std::memory_order_relaxed) +
          remaining;
      UpdatePeak(bytes_buffered_peak_, buffered);
      bool armed = false;
      {
        SessionShard& shard = ShardFor(id);
        std::lock_guard<std::mutex> lock(shard.mu);
        session->out = std::move(response);
        session->out_offset = *sent;
        session->out_total = total;
        session->close_after_flush = is_shutdown;
        session->state = SessionState::kFlushing;
        session->last_armed = std::chrono::steady_clock::now();
        // Write interest replaces the (oneshot-disabled) read interest;
        // under the poll backend ArmWrite kicks the self-pipe so the new
        // mask is picked up immediately.
        armed = poller_->ArmWrite(session->fd, id).ok();
        if (!armed) session->state = SessionState::kBusy;  // keep ownership
      }
      response = pool_.Acquire();
      if (!armed) CloseSession(id, "poller arm-write failed");
      continue;
    }
    if (is_shutdown) {
      // Connection-scoped: a client's shutdown closes its own session, the
      // server keeps serving everyone else (DESIGN.md §7).
      CloseSession(id, "client shutdown");
      continue;
    }
    bool rearmed = false;
    {
      SessionShard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      session->state = SessionState::kArmed;
      session->last_armed = std::chrono::steady_clock::now();
      // Under epoll this re-enables the oneshot registration without
      // waking the dispatcher; if bytes already arrived mid-request the
      // kernel delivers the event immediately. Holding the shard lock
      // keeps the re-arm atomic with the state transition so the idle
      // sweep cannot close a half-armed session.
      rearmed = poller_->Rearm(session->fd, id).ok();
      if (!rearmed) session->state = SessionState::kBusy;  // keep ownership
    }
    if (!rearmed) CloseSession(id, "poller rearm failed");
  }
  pool_.Release(std::move(request));
  pool_.Release(std::move(response));
}

void ConcurrentServer::FlushSession(uint64_t id) {
  Session* session = nullptr;
  {
    SessionShard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end() ||
        it->second->state != SessionState::kFlushing) {
      return;
    }
    session = it->second.get();
  }
  // Sole owner: only the dispatcher moves a session out of kFlushing and
  // this runs in the dispatcher thread, so the raw pointer stays valid
  // and the flush happens outside any lock. The shard acquire above
  // pairs with the worker's release at park time, publishing the out
  // fields.
  StatusOr<size_t> advanced =
      session->channel->SendNonBlocking(session->out, session->out_offset);
  if (!advanced.ok()) {
    CloseSession(id, "flush error");
    return;
  }
  const size_t progress = *advanced - session->out_offset;
  if (progress > 0) {
    bytes_buffered_.fetch_sub(progress, std::memory_order_relaxed);
  }
  session->out_offset = *advanced;
  if (*advanced < session->out_total) {
    // Still blocked: re-arm write interest and keep waiting; the sweep
    // reclaims the session if the peer never drains.
    if (progress > 0) {
      SessionShard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      session->last_armed = std::chrono::steady_clock::now();
    }
    if (!poller_->ArmWrite(session->fd, id).ok()) {
      CloseSession(id, "poller arm-write failed");
    }
    return;
  }
  // Drained: recycle the buffer and either retire the session (a flushed
  // kShutdown response) or resume reading.
  pool_.Release(std::move(session->out));
  session->out_offset = 0;
  session->out_total = 0;
  if (session->close_after_flush) {
    CloseSession(id, "client shutdown");
    return;
  }
  bool rearmed = false;
  {
    SessionShard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    session->state = SessionState::kArmed;
    session->last_armed = std::chrono::steady_clock::now();
    rearmed = poller_->Rearm(session->fd, id).ok();
  }
  if (!rearmed) CloseSession(id, "poller rearm failed");
}

void ConcurrentServer::CloseSession(uint64_t id, const char* why) {
  std::unique_ptr<Session> session;
  {
    SessionShard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return;
    session = std::move(it->second);
    shard.sessions.erase(it);
  }
  // Deregister before closing the fd: the kernel may recycle the fd
  // number for the very next accept.
  poller_->Remove(session->fd);
  session->channel->Close();
  if (session->out_total > session->out_offset) {
    bytes_buffered_.fetch_sub(session->out_total - session->out_offset,
                              std::memory_order_relaxed);
  }
  if (!session->out.empty() || session->out.capacity() > 0) {
    pool_.Release(std::move(session->out));
  }
  open_count_.fetch_sub(1, std::memory_order_relaxed);
  closed_.fetch_add(1, std::memory_order_relaxed);
  MaybeResumeAccept();
  if (options_.log_connections) {
    std::printf("connection %llu closed: %s (%llu accepted, %llu closed, "
                "%zu open)\n",
                static_cast<unsigned long long>(id), why,
                static_cast<unsigned long long>(
                    accepted_.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    closed_.load(std::memory_order_relaxed)),
                open_count_.load(std::memory_order_relaxed));
    std::fflush(stdout);
  }
}

void ConcurrentServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    if (!started_ || stopping_.load(std::memory_order_relaxed)) return;
    stopping_.store(true, std::memory_order_release);
  }
  if (poller_) poller_->Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Unblock any worker parked in Receive on a partial frame: SHUT_RD turns
  // its blocking read into an immediate EOF. Nothing is lost — a request
  // that never fully arrived was never serviceable — while workers past
  // Receive still compute and deliver their response (writes unaffected).
  for (SessionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& entry : shard.sessions) {
      ::shutdown(entry.second->fd, SHUT_RD);
    }
  }
  // Workers drain their queues (in-flight requests finish), then exit.
  // The empty lock/unlock fences the stopping_ store against each
  // worker's predicate check.
  for (const auto& queue : queues_) {
    { std::lock_guard<std::mutex> lock(queue->mu); }
    queue->cv.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::vector<uint64_t> remaining;
  for (SessionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& entry : shard.sessions) {
      remaining.push_back(entry.first);
    }
  }
  for (uint64_t id : remaining) CloseSession(id, "server shutdown");
  listener_->Close();
}

}  // namespace ssdb::rpc
