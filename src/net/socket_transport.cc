#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "util/byte_codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace moc::net {

namespace {

/** Peer id of a connection that has not completed kHello yet. */
constexpr PeerId kUnknownPeer = 0xFFFFFFFFu;

/** Reader poll granularity: how often a blocked reader rechecks stop flags. */
constexpr int kPollMs = 20;

obs::Counter&
NetCounter(const char* name) {
    return obs::MetricsRegistry::Instance().GetCounter(name);
}

/** Blocking full-buffer send; survives partial writes and EINTR. */
bool
SendAll(int fd, const std::uint8_t* data, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n =
            ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;  // EPIPE/ECONNRESET: the reader will see EOF
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

SocketTransport::SocketTransport(PeerId self, const SocketOptions& options)
    : self_(self), options_(options), monitor_(options.heartbeat) {}

std::unique_ptr<SocketTransport>
SocketTransport::Listen(std::uint16_t port, PeerId self,
                        const SocketOptions& options) {
    std::unique_ptr<SocketTransport> t(new SocketTransport(self, options));
    t->listener_ = true;
    t->StartListener(port);
    t->heartbeat_thread_ = std::thread([p = t.get()] { p->HeartbeatLoop(); });
    return t;
}

std::unique_ptr<SocketTransport>
SocketTransport::Connect(const std::string& host, std::uint16_t port,
                         PeerId self, const SocketOptions& options) {
    static obs::Counter& reconnects = NetCounter("net.reconnects");

    std::unique_ptr<SocketTransport> t(new SocketTransport(self, options));
    const CallPolicy& retry = options.connect_retry;
    Rng rng(retry.seed ^ port);
    const WallClock clock;
    const Seconds start = clock.Now();
    int fd = -1;
    for (std::size_t attempt = 0;; ++attempt) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0) {
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
                CloseFd(fd);
                throw std::runtime_error("bad transport host '" + host + "'");
            }
            if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0) {
                break;
            }
            CloseFd(fd);
            fd = -1;
        }
        const bool budget_left =
            attempt + 1 < retry.max_attempts &&
            (retry.op_deadline_s <= 0.0 ||
             clock.Now() - start < retry.op_deadline_s);
        if (!budget_left) {
            throw std::runtime_error("transport connect to " + host +
                                     " failed: " +
                                     std::string(std::strerror(errno)));
        }
        Seconds wait = retry.initial_timeout_s;
        for (std::size_t i = 0; i < attempt; ++i) {
            wait *= retry.backoff_multiplier;
        }
        wait = std::min(wait, retry.max_timeout_s);
        if (retry.jitter > 0.0) {
            wait *= rng.Uniform(1.0 - retry.jitter, 1.0 + retry.jitter);
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (attempt > 0) {
            reconnects.Add();
        }
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->peer = kCoordinatorPeer;
    {
        std::lock_guard<std::mutex> lock(t->conn_mu_);
        t->connections_[kCoordinatorPeer] = conn;
    }
    conn->reader = std::thread(
        [p = t.get(), conn] { p->ReaderLoop(conn); });

    // Introduce ourselves, then wait for the kWelcome that assigns our
    // session epoch. The welcome is processed by the reader thread.
    t->SendOn(conn, MsgType::kHello, {}, {});
    const Seconds handshake_deadline =
        clock.Now() + std::max(retry.op_deadline_s, 1.0);
    while (t->session_epoch_.load() == 0) {
        if (clock.Now() > handshake_deadline || conn->closed.load()) {
            t->Close();
            throw std::runtime_error("transport handshake with " + host +
                                     " timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t->monitor_.Register(kCoordinatorPeer, clock.Now());
    // Align clocks while the connection is idle: a short burst of probes
    // right after the handshake seeds the min-RTT filter before application
    // traffic adds queueing noise; heartbeats keep it fresh afterwards.
    for (int i = 0; i < 3; ++i) {
        t->SendPing(conn);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Seconds align_deadline = clock.Now() + 0.25;
    while (!t->offset_estimator_.Estimate() && !conn->closed.load() &&
           clock.Now() < align_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t->heartbeat_thread_ = std::thread([p = t.get()] { p->HeartbeatLoop(); });
    return t;
}

SocketTransport::~SocketTransport() {
    Close();
}

void
SocketTransport::StartListener(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error("transport socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        CloseFd(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("transport bind/listen failed: " +
                                 std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void
SocketTransport::AcceptLoop() {
    while (running_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready <= 0) {
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->peer = kUnknownPeer;
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            if (!running_.load()) {
                CloseFd(fd);
                return;
            }
            pending_.push_back(conn);
        }
        conn->reader =
            std::thread([this, conn] { ReaderLoop(conn); });
    }
}

void
SocketTransport::ReaderLoop(std::shared_ptr<Connection> conn) {
    static obs::Counter& received = NetCounter("net.frames_received");
    static obs::Counter& bytes_received = NetCounter("net.bytes_received");
    static obs::Counter& crc_rejected = NetCounter("net.crc_rejected");
    static obs::Counter& resyncs = NetCounter("net.resyncs");
    static obs::Counter& stale = NetCounter("net.stale_frames");

    FrameDecoder decoder;
    FrameDecoder::Stats last{};
    std::uint8_t buf[64 * 1024];
    bool eof = false;
    while (running_.load() && !conn->closed.load() && !eof) {
        pollfd pfd{conn->fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready <= 0) {
            continue;
        }
        const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n == 0 || (n < 0 && errno != EINTR)) {
            eof = true;  // a SIGKILL'd peer lands here: the kernel closes
        } else if (n > 0) {
            bytes_received.Add(static_cast<std::uint64_t>(n));
            decoder.Feed(buf, static_cast<std::size_t>(n));
        }
        while (auto frame = decoder.Next()) {
            received.Add();
            const Seconds now = clock_.Now();
            if (conn->peer == kUnknownPeer) {
                // Listener side: the first frame must introduce the peer.
                if (frame->type != MsgType::kHello) {
                    continue;
                }
                AdoptConnection(conn, frame->src_peer);
                continue;
            }
            if (listener_) {
                if (!epochs_.Accept(conn->peer, frame->epoch)) {
                    stale.Add();
                    continue;
                }
            } else if (frame->type == MsgType::kWelcome) {
                conn->epoch = frame->epoch;
                session_epoch_.store(frame->epoch);
                continue;
            } else if (conn->epoch != 0 && frame->epoch != conn->epoch) {
                stale.Add();
                continue;
            }
            monitor_.Heard(conn->peer, now);
            if (frame->type == MsgType::kHeartbeat) {
                continue;  // consumed by liveness, never surfaced
            }
            if (frame->type == MsgType::kTimePing) {
                // Clock probe: echo t0 back with our receive/reply stamps.
                // Never surfaced to Recv; a garbled probe gets no reply.
                const auto t1 =
                    static_cast<std::int64_t>(obs::Tracer::NowNs());
                std::int64_t t0 = 0;
                try {
                    ByteReader probe(frame->payload);
                    t0 = probe.I64();
                } catch (const std::exception&) {
                    continue;
                }
                ByteWriter pong;
                pong.I64(t0);
                pong.I64(t1);
                pong.I64(static_cast<std::int64_t>(obs::Tracer::NowNs()));
                SendOn(conn, MsgType::kTimePong, pong.Take(), {});
                continue;
            }
            if (frame->type == MsgType::kTimePong) {
                static obs::Counter& rejects =
                    NetCounter("net.clock.rejected");
                ClockSample sample;
                sample.t3 = static_cast<std::int64_t>(obs::Tracer::NowNs());
                try {
                    ByteReader pong(frame->payload);
                    sample.t0 = pong.I64();
                    sample.t1 = pong.I64();
                    sample.t2 = pong.I64();
                } catch (const std::exception&) {
                    rejects.Add();
                    continue;
                }
                const std::uint64_t before_rejected =
                    offset_estimator_.rejected();
                const ClockEstimate est = offset_estimator_.Add(sample);
                if (offset_estimator_.rejected() != before_rejected) {
                    rejects.Add();
                    continue;
                }
                static obs::Gauge& offset_gauge =
                    obs::MetricsRegistry::Instance().GetGauge(
                        "net.clock.offset_ns");
                static obs::Gauge& rtt_gauge =
                    obs::MetricsRegistry::Instance().GetGauge(
                        "net.clock.rtt_ns");
                offset_gauge.Set(static_cast<double>(est.offset_ns));
                rtt_gauge.Set(static_cast<double>(est.rtt_ns));
                // Exporters stamp this into every artifact (run_meta.h),
                // which is what lets the merge rebase this process's
                // timeline onto the coordinator's.
                obs::SetClusterClockOffsetNs(est.offset_ns);
                continue;
            }
            if (frame->type == MsgType::kGoodbye) {
                // Orderly close announcement: retire the connection now so
                // the EOF that follows is a farewell, not a death.
                {
                    std::lock_guard<std::mutex> lock(conn_mu_);
                    const auto it = connections_.find(conn->peer);
                    if (it != connections_.end() && it->second == conn) {
                        connections_.erase(it);
                        retired_.push_back(conn);
                    }
                }
                monitor_.Remove(conn->peer);
                conn->closed.store(true);
                continue;
            }
            Message msg;
            msg.type = frame->type;
            msg.from = frame->src_peer;
            msg.epoch = frame->epoch;
            msg.seq = frame->seq;
            msg.ctx = frame->ctx;
            msg.payload = std::move(frame->payload);
            Enqueue(std::move(msg));
        }
        const auto& stats = decoder.stats();
        crc_rejected.Add(stats.crc_rejects - last.crc_rejects);
        resyncs.Add(stats.resyncs - last.resyncs);
        last = stats;
    }
    if (eof && !conn->closed.load() && running_.load() &&
        conn->peer != kUnknownPeer && FindConnection(conn->peer) == conn) {
        DeclareDead(conn->peer, "eof", monitor_.SilentFor(conn->peer,
                                                          clock_.Now()));
    }
}

void
SocketTransport::HeartbeatLoop() {
    static obs::Counter& beats = NetCounter("net.heartbeats_sent");
    const Seconds interval = options_.heartbeat.interval_s;
    while (running_.load()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
        if (!running_.load()) {
            return;
        }
        std::vector<std::shared_ptr<Connection>> conns;
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            for (const auto& [peer, conn] : connections_) {
                conns.push_back(conn);
            }
        }
        for (const auto& conn : conns) {
            if (!conn->closed.load() &&
                SendOn(conn, MsgType::kHeartbeat, {}, {})) {
                beats.Add();
            }
            if (!listener_ && !conn->closed.load()) {
                // Piggyback a clock probe on the heartbeat cadence so the
                // offset estimate tracks drift for the connection's life.
                SendPing(conn);
            }
        }
        const Seconds now = clock_.Now();
        for (const PeerId peer : monitor_.Expired(now)) {
            // Silent past miss_limit intervals: SIGSTOP'd, partitioned, or
            // wedged. The socket may still be open — declare death anyway.
            DeclareDead(peer, "heartbeat_timeout",
                        monitor_.SilentFor(peer, now));
        }
    }
}

void
SocketTransport::AdoptConnection(const std::shared_ptr<Connection>& conn,
                                 PeerId peer) {
    static obs::Counter& reconnects = NetCounter("net.reconnects");
    std::shared_ptr<Connection> old;
    std::uint32_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        epoch = epochs_.Admit(peer);
        conn->peer = peer;
        conn->epoch = epoch;
        auto it = connections_.find(peer);
        if (it != connections_.end()) {
            old = it->second;
            retired_.push_back(old);
            reconnects.Add();
        }
        connections_[peer] = conn;
        for (auto p = pending_.begin(); p != pending_.end(); ++p) {
            if (*p == conn) {
                pending_.erase(p);
                break;
            }
        }
    }
    if (old) {
        // The superseded session's socket dies here; frames it already put
        // on the wire fail the epoch gate.
        old->closed.store(true);
        ::shutdown(old->fd, SHUT_RDWR);
    }
    monitor_.Register(peer, clock_.Now());
    SendOn(conn, MsgType::kWelcome, {}, {});
    recv_cv_.notify_all();  // wake WaitForPeers
}

void
SocketTransport::DeclareDead(PeerId peer, const char* cause,
                             Seconds silent_s) {
    std::shared_ptr<Connection> conn;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        const auto it = connections_.find(peer);
        if (it == connections_.end()) {
            return;  // already buried (EOF raced heartbeat timeout)
        }
        conn = it->second;
        connections_.erase(it);
        retired_.push_back(conn);
    }
    conn->closed.store(true);
    ::shutdown(conn->fd, SHUT_RDWR);
    JournalPeerDeath(peer, conn->epoch, cause, silent_s,
                     options_.heartbeat.DeathTimeout());
    MOC_WARN << "transport: peer " << peer << " declared dead (" << cause
             << ", silent " << silent_s << "s)";
    Message death;
    death.type = MsgType::kPeerDeath;
    death.from = peer;
    death.epoch = conn->epoch;
    Enqueue(std::move(death));
}

void
SocketTransport::SendPing(const std::shared_ptr<Connection>& conn) {
    static obs::Counter& pings = NetCounter("net.clock.pings");
    ByteWriter probe;
    probe.I64(static_cast<std::int64_t>(obs::Tracer::NowNs()));
    if (SendOn(conn, MsgType::kTimePing, probe.Take(), {})) {
        pings.Add();
    }
}

void
SocketTransport::Enqueue(Message message) {
    static obs::Counter& drops = NetCounter("net.queue_drops");
    {
        std::lock_guard<std::mutex> lock(recv_mu_);
        if (recv_queue_.size() >= options_.queue_capacity) {
            drops.Add();
            if (message.type == MsgType::kTelemetry) {
                // Telemetry is declared shed-first: its loss is routine
                // backpressure, surfaced on its own counter so the report
                // can distinguish it from dropped application frames.
                static obs::Counter& shed =
                    obs::MetricsRegistry::Instance().GetCounter(
                        "obs.telemetry.dropped");
                shed.Add();
            }
            return;
        }
        recv_queue_.push_back(std::move(message));
    }
    recv_cv_.notify_all();
}

bool
SocketTransport::SendOn(const std::shared_ptr<Connection>& conn, MsgType type,
                        Blob payload, const obs::TraceContext& ctx) {
    static obs::Counter& sent = NetCounter("net.frames_sent");
    static obs::Counter& bytes_sent = NetCounter("net.bytes_sent");
    Frame frame;
    frame.type = type;
    frame.src_peer = self_;
    frame.epoch = conn->epoch;
    frame.seq = next_seq_.fetch_add(1);
    frame.ctx = ctx;
    frame.payload = std::move(payload);
    const Blob wire = EncodeFrame(frame);
    std::lock_guard<std::mutex> lock(conn->send_mu);
    if (conn->closed.load()) {
        return false;
    }
    if (!SendAll(conn->fd, wire.data(), wire.size())) {
        return false;
    }
    sent.Add();
    bytes_sent.Add(wire.size());
    return true;
}

std::uint32_t
SocketTransport::epoch() const {
    return session_epoch_.load();
}

bool
SocketTransport::Send(PeerId to, MsgType type, Blob payload,
                      const obs::TraceContext& ctx) {
    const auto conn = FindConnection(to);
    if (!conn || conn->closed.load()) {
        return false;
    }
    return SendOn(conn, type, std::move(payload), ctx);
}

std::optional<Message>
SocketTransport::Recv(Seconds timeout_s) {
    std::unique_lock<std::mutex> lock(recv_mu_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(timeout_s, 0.0)));
    while (recv_queue_.empty() && running_.load()) {
        if (recv_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
            recv_queue_.empty()) {
            return std::nullopt;
        }
    }
    if (recv_queue_.empty()) {
        return std::nullopt;
    }
    Message msg = std::move(recv_queue_.front());
    recv_queue_.pop_front();
    return msg;
}

void
SocketTransport::Requeue(Message message) {
    {
        std::lock_guard<std::mutex> lock(recv_mu_);
        recv_queue_.push_front(std::move(message));
    }
    recv_cv_.notify_all();
}

std::vector<PeerId>
SocketTransport::Peers() const {
    std::lock_guard<std::mutex> lock(conn_mu_);
    std::vector<PeerId> peers;
    for (const auto& [peer, conn] : connections_) {
        if (!conn->closed.load()) {
            peers.push_back(peer);
        }
    }
    return peers;
}

bool
SocketTransport::Alive(PeerId peer) const {
    const auto conn = FindConnection(peer);
    return conn != nullptr && !conn->closed.load();
}

bool
SocketTransport::WaitForPeers(std::size_t n, Seconds timeout_s) {
    const Seconds deadline = clock_.Now() + timeout_s;
    while (clock_.Now() < deadline) {
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            if (connections_.size() >= n) {
                return true;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    return connections_.size() >= n;
}

void
SocketTransport::Close() {
    if (!running_.exchange(false)) {
        return;
    }
    recv_cv_.notify_all();  // wake blocked Recv callers promptly
    if (listen_fd_ >= 0) {
        ::shutdown(listen_fd_, SHUT_RDWR);
    }
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (const auto& [peer, conn] : connections_) {
            conns.push_back(conn);
        }
        connections_.clear();
        conns.insert(conns.end(), pending_.begin(), pending_.end());
        pending_.clear();
        conns.insert(conns.end(), retired_.begin(), retired_.end());
        retired_.clear();
    }
    for (const auto& conn : conns) {
        conn->closed.store(true);
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    if (heartbeat_thread_.joinable()) {
        heartbeat_thread_.join();
    }
    for (const auto& conn : conns) {
        if (conn->reader.joinable()) {
            conn->reader.join();
        }
        CloseFd(conn->fd);
    }
    if (listen_fd_ >= 0) {
        CloseFd(listen_fd_);
        listen_fd_ = -1;
    }
    recv_cv_.notify_all();
}

std::shared_ptr<SocketTransport::Connection>
SocketTransport::FindConnection(PeerId peer) const {
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = connections_.find(peer);
    return it == connections_.end() ? nullptr : it->second;
}

void
SocketTransport::CloseFd(int fd) {
    if (fd >= 0) {
        ::close(fd);
    }
}

}  // namespace moc::net
