#include "rpc/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/span.h"
#include "util/check.h"

namespace msp::rpc {

namespace {

// epoll user-data tags for the two non-connection fds; connection ids
// start above them.
constexpr uint64_t kTagListen = 0;
constexpr uint64_t kTagWake = 1;
constexpr uint64_t kFirstConnId = 2;

// Bounded patience for the shutdown write drain: a stuck client must
// not wedge Shutdown forever.
constexpr int kDrainTimeoutMs = 2000;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

RpcServer::RpcServer(const RpcServerOptions& options)
    : options_(options),
      service_(options.service),
      next_conn_id_(kFirstConnId) {
  MSP_CHECK(service_ != nullptr) << "RpcServerOptions.service";
  MSP_CHECK_GT(options_.max_mailbox_depth, 0u)
      << "RpcServerOptions.max_mailbox_depth";
  if (options_.max_frame_payload > kMaxFramePayload) {
    options_.max_frame_payload = kMaxFramePayload;
  }
  const std::size_t shards = service_->num_shards();
  shard_accepted_ = std::vector<std::atomic<uint64_t>>(shards);
  shard_overloaded_ = std::vector<std::atomic<uint64_t>>(shards);
  if (obs::Registry* reg = options_.metrics; reg != nullptr) {
    m_connections_ = reg->counter("rpc.connections_total");
    m_active_ = reg->gauge("rpc.connections_active");
    m_requests_ = reg->counter("rpc.requests_total");
    m_responses_ = reg->counter("rpc.responses_total");
    m_overloaded_ = reg->counter("rpc.overloaded_total");
    m_frame_errors_ = reg->counter("rpc.frame_errors_total");
    m_bytes_read_ = reg->counter("rpc.bytes_read_total");
    m_bytes_written_ = reg->counter("rpc.bytes_written_total");
    m_handle_us_ = reg->histogram("rpc.handle_latency_us");
    m_shard_accepted_.reserve(shards);
    m_shard_overloaded_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      const obs::Labels labels = {{"shard", std::to_string(i)}};
      m_shard_accepted_.push_back(
          reg->counter("rpc.shard_accepted_total", labels));
      m_shard_overloaded_.push_back(
          reg->counter("rpc.shard_overloaded_total", labels));
    }
  }
}

RpcServer::~RpcServer() { Shutdown(); }

bool RpcServer::Start(std::string* error) {
  MSP_CHECK(!started_) << "RpcServer::Start called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = Errno("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    if (error != nullptr) *error = Errno("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    if (error != nullptr) *error = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error != nullptr) *error = Errno("epoll/eventfd");
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagListen;
  MSP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  ev.data.u64 = kTagWake;
  MSP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);

  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return true;
}

void RpcServer::Shutdown() {
  if (!started_) return;
  stop_requested_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (loop_.joinable()) loop_.join();
  // Closed only after the join: the loop reads both, and a close that
  // raced this function's wake-up write could let the write land on a
  // reused fd number.
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  started_ = false;
}

RpcServerCounters RpcServer::counters() const {
  std::unique_lock<std::mutex> lock(counters_mu_);
  return counters_;
}

void RpcServer::Loop() {
  epoll_event events[64];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kTagListen) {
        AcceptReady();
        continue;
      }
      if (tag == kTagWake) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) WriteReady(conn);
      // WriteReady may close on EPIPE; re-check liveness before reading.
      if (conns_.find(tag) == conns_.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) ReadReady(conn);
    }
  }

  // Graceful drain: no new connections, no new requests; everything
  // already admitted applies, every in-flight query completes, every
  // buffered response is written.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_->Flush();
  DrainCompletions();
  FlushAllAndClose();
  running_.store(false, std::memory_order_release);
}

void RpcServer::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    if (m_connections_ != nullptr) m_connections_->Inc();
    if (m_active_ != nullptr) m_active_->Add(1);
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.connections_opened;
  }
}

void RpcServer::ReadReady(Connection* conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<std::size_t>(n));
      if (m_bytes_read_ != nullptr) {
        m_bytes_read_->Inc(static_cast<uint64_t>(n));
      }
      std::unique_lock<std::mutex> lock(counters_mu_);
      counters_.bytes_read += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = orderly close; anything else a hard error. Either way the
    // conversation is over — drop the connection (mid-request bytes
    // included; there is nobody left to answer).
    CloseConnection(conn);
    return;
  }

  const uint64_t conn_id = conn->id;
  while (true) {
    std::size_t frame_size = 0;
    std::string_view payload;
    std::string error;
    const FrameStatus status =
        DecodeFrame(conn->in, &frame_size, &payload, &error,
                    options_.max_frame_payload);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kBad) {
      if (m_frame_errors_ != nullptr) m_frame_errors_->Inc();
      {
        std::unique_lock<std::mutex> lock(counters_mu_);
        ++counters_.frame_errors;
      }
      CloseConnection(conn);
      return;
    }
    HandlePayload(conn, payload);
    // HandlePayload never closes the connection, but be defensive
    // against future edits: re-resolve before mutating the buffer.
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn->in.erase(0, frame_size);
  }
}

void RpcServer::HandlePayload(Connection* conn, std::string_view payload) {
  const uint64_t start_us = obs::MonotonicMicros();
  Request request;
  std::string error;
  if (!DecodeRequest(payload, &request, &error)) {
    Response response;
    response.type = MsgType::kError;
    response.req_id = request.req_id;  // 0 when the header was torn
    response.error = "bad request: " + error;
    {
      std::unique_lock<std::mutex> lock(counters_mu_);
      ++counters_.errors;
    }
    SendFrame(conn, EncodeFrame(EncodeResponse(response)));
    return;
  }
  if (m_requests_ != nullptr) m_requests_->Inc();
  {
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.requests;
  }
  HandleRequest(conn, request);
  if (m_handle_us_ != nullptr) {
    m_handle_us_->RecordMicros(
        static_cast<double>(obs::MonotonicMicros() - start_us));
  }
}

Response RpcServer::AdmitOrOverload(const std::string& key, uint64_t cost,
                                    uint64_t req_id, uint32_t* shard_out) {
  const std::size_t shard = service_->ShardOf(key);
  *shard_out = static_cast<uint32_t>(shard);
  const uint64_t depth = service_->shard_heartbeat(shard).queue_depth.load(
      std::memory_order_relaxed);
  Response response;
  response.req_id = req_id;
  response.shard = static_cast<uint32_t>(shard);
  if (depth >= options_.max_mailbox_depth) {
    response.type = MsgType::kOverloaded;
    response.queue_depth = depth;
    response.depth_limit = options_.max_mailbox_depth;
    shard_overloaded_[shard].fetch_add(1, std::memory_order_relaxed);
    if (m_overloaded_ != nullptr) m_overloaded_->Inc();
    if (!m_shard_overloaded_.empty()) m_shard_overloaded_[shard]->Inc();
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.overloaded;
    return response;
  }
  response.type = MsgType::kOk;
  response.accepted = cost;
  shard_accepted_[shard].fetch_add(cost, std::memory_order_relaxed);
  if (!m_shard_accepted_.empty() && cost > 0) {
    m_shard_accepted_[shard]->Inc(cost);
  }
  return response;
}

void RpcServer::HandleRequest(Connection* conn, const Request& request) {
  obs::Span span("rpc.request");
  if (span.active()) {
    span.Arg("type", MsgTypeName(request.type));
    if (!request.key.empty()) span.Arg("key", request.key);
  }

  switch (request.type) {
    case MsgType::kCreateInstance: {
      // DecodeRequest already refused a spec failing Validate(); what
      // is left to refuse is a combination the service cannot honour,
      // such as a churn budget on a WAL-attached service.
      uint32_t shard = 0;
      Response response =
          AdmitOrOverload(request.key, 0, request.req_id, &shard);
      if (response.type == MsgType::kOk) {
        // RPC updates travel in trace-side id form (protocol.h), so
        // every remote instance translates — which also satisfies the
        // budget wrapper's translate requirement.
        const std::string refused = service_->CreateInstance(
            request.key, request.spec.ToOnlineConfig(),
            /*translate_trace_ids=*/true, request.spec.budget);
        if (!refused.empty()) {
          response.type = MsgType::kError;
          response.error = refused;
        }
      }
      if (response.type == MsgType::kError) {
        std::unique_lock<std::mutex> lock(counters_mu_);
        ++counters_.errors;
      }
      SendFrame(conn, EncodeFrame(EncodeResponse(response)));
      return;
    }

    case MsgType::kSubmit:
    case MsgType::kSubmitBatch: {
      Response response;
      response.req_id = request.req_id;
      if (request.updates.empty()) {
        response.type = MsgType::kError;
        response.error = "no updates";
        {
          std::unique_lock<std::mutex> lock(counters_mu_);
          ++counters_.errors;
        }
        SendFrame(conn, EncodeFrame(EncodeResponse(response)));
        return;
      }
      uint32_t shard = 0;
      response = AdmitOrOverload(request.key, request.updates.size(),
                                 request.req_id, &shard);
      if (response.type == MsgType::kOk) {
        service_->SubmitBatch(request.key, request.updates,
                              request.type == MsgType::kSubmit
                                  ? 0
                                  : request.batch_size);
      }
      SendFrame(conn, EncodeFrame(EncodeResponse(response)));
      return;
    }

    case MsgType::kQuery: {
      uint32_t shard = 0;
      Response admit =
          AdmitOrOverload(request.key, 0, request.req_id, &shard);
      if (admit.type != MsgType::kOk) {
        SendFrame(conn, EncodeFrame(EncodeResponse(admit)));
        return;
      }
      // Park a pending slot and let the shard worker fill it: the
      // probe is ordered after every earlier submit of this key, and
      // the slot keeps this connection's responses in request order.
      Connection::Slot slot;
      slot.slot_id = conn->next_slot_id++;
      const uint64_t conn_id = conn->id;
      const uint64_t slot_id = slot.slot_id;
      const uint64_t req_id = request.req_id;
      conn->slots.push_back(std::move(slot));
      service_->Inspect(
          request.key,
          [this, conn_id, slot_id, req_id,
           shard](const serving::ServingShard::InstanceProbe& probe) {
            Response response;
            response.type = MsgType::kQueryResult;
            response.req_id = req_id;
            response.shard = shard;
            response.found = probe.found;
            response.inputs = probe.inputs;
            response.reducers = probe.reducers;
            response.capacity = probe.capacity;
            response.applied_updates = probe.applied;
            response.rejected_updates = probe.rejected;
            response.deferred_pending = probe.deferred_pending;
            {
              std::unique_lock<std::mutex> lock(completion_mu_);
              completions_.push_back(
                  {conn_id, slot_id,
                   EncodeFrame(EncodeResponse(response))});
            }
            const uint64_t one = 1;
            [[maybe_unused]] const ssize_t n =
                ::write(wake_fd_, &one, sizeof(one));
          });
      return;
    }

    case MsgType::kStats: {
      SendFrame(conn,
                EncodeFrame(EncodeResponse(BuildStats(request.req_id))));
      return;
    }

    default: {
      Response response;
      response.type = MsgType::kError;
      response.req_id = request.req_id;
      response.error = "unexpected message type";
      {
        std::unique_lock<std::mutex> lock(counters_mu_);
        ++counters_.errors;
      }
      SendFrame(conn, EncodeFrame(EncodeResponse(response)));
      return;
    }
  }
}

Response RpcServer::BuildStats(uint64_t req_id) const {
  Response response;
  response.type = MsgType::kStatsResult;
  response.req_id = req_id;
  const serving::ServingStats stats = service_->stats();
  response.shards.reserve(stats.shards.size());
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const serving::ShardStats& s = stats.shards[i];
    ShardCounts counts;
    counts.applied = s.updates;
    counts.rejected = s.rejected;
    counts.skipped = s.skipped;
    counts.deferred_pending = s.budget_pending;
    counts.queue_depth = service_->shard_heartbeat(i).queue_depth.load(
        std::memory_order_relaxed);
    counts.rpc_accepted =
        shard_accepted_[i].load(std::memory_order_relaxed);
    counts.rpc_overloaded =
        shard_overloaded_[i].load(std::memory_order_relaxed);
    response.shards.push_back(counts);
  }
  return response;
}

void RpcServer::SendFrame(Connection* conn, std::string frame) {
  if (conn->slots.empty()) {
    conn->out += frame;
    if (m_responses_ != nullptr) m_responses_->Inc();
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.responses;
  } else {
    Connection::Slot slot;
    slot.slot_id = conn->next_slot_id++;
    slot.ready = true;
    slot.frame = std::move(frame);
    conn->slots.push_back(std::move(slot));
  }
  UpdateInterest(conn);
}

void RpcServer::FlushSlots(Connection* conn) {
  while (!conn->slots.empty() && conn->slots.front().ready) {
    conn->out += conn->slots.front().frame;
    conn->slots.pop_front();
    if (m_responses_ != nullptr) m_responses_->Inc();
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.responses;
  }
  UpdateInterest(conn);
}

void RpcServer::UpdateInterest(Connection* conn) {
  const bool want_write = conn->out.size() > conn->out_off;
  if (want_write == conn->want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void RpcServer::WriteReady(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
      if (m_bytes_written_ != nullptr) {
        m_bytes_written_->Inc(static_cast<uint64_t>(n));
      }
      std::unique_lock<std::mutex> lock(counters_mu_);
      counters_.bytes_written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn);
    return;
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
  UpdateInterest(conn);
}

void RpcServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  if (m_active_ != nullptr) m_active_->Sub(1);
  {
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.connections_closed;
  }
  // Completions for this connection's in-flight queries will find no
  // entry under this id and be dropped.
  conns_.erase(conn->id);
}

void RpcServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::unique_lock<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-query
    Connection* conn = it->second.get();
    for (Connection::Slot& slot : conn->slots) {
      if (slot.slot_id == done.slot_id) {
        slot.ready = true;
        slot.frame = std::move(done.frame);
        break;
      }
    }
    FlushSlots(conn);
  }
}

void RpcServer::FlushAllAndClose() {
  // After service_->Flush() every query completed, so no slot can
  // still be pending; anything left is plain buffered bytes.
  const uint64_t deadline_us =
      obs::MonotonicMicros() + uint64_t{kDrainTimeoutMs} * 1000;
  for (auto& [id, conn] : conns_) {
    FlushSlots(conn.get());
    while (conn->out_off < conn->out.size() &&
           obs::MonotonicMicros() < deadline_us) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, 50);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0) continue;
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        if (m_bytes_written_ != nullptr) {
          m_bytes_written_->Inc(static_cast<uint64_t>(n));
        }
        std::unique_lock<std::mutex> lock(counters_mu_);
        counters_.bytes_written += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      break;
    }
    ::close(conn->fd);
    if (m_active_ != nullptr) m_active_->Sub(1);
    std::unique_lock<std::mutex> lock(counters_mu_);
    ++counters_.connections_closed;
  }
  conns_.clear();
}

}  // namespace msp::rpc
