#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/cluster_view.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "util/logging.h"

namespace moc::obs {

namespace {

/** Poll granularity: how often blocked loops recheck the stop flag. */
constexpr int kPollMs = 20;

Counter&
HttpCounter(const char* name) {
    return MetricsRegistry::Instance().GetCounter(name);
}

const char*
StatusText(int status) {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 503: return "Service Unavailable";
        default: return "Error";
    }
}

void
CloseFd(int fd) {
    if (fd >= 0) {
        ::close(fd);
    }
}

/** Blocking full-buffer send; survives partial writes and EINTR. */
bool
SendAll(int fd, const char* data, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
WriteResponse(int fd, const HttpResponse& response) {
    std::ostringstream head;
    head << "HTTP/1.1 " << response.status << " "
         << StatusText(response.status) << "\r\n"
         << "Content-Type: " << response.content_type << "\r\n"
         << "Content-Length: " << response.body.size() << "\r\n"
         << "Connection: close\r\n\r\n";
    const std::string header = head.str();
    return SendAll(fd, header.data(), header.size()) &&
           SendAll(fd, response.body.data(), response.body.size());
}

/** The `last` query parameter of /series (`?last=N`), 0 when absent. */
std::size_t
QueryLast(const std::string& query) {
    const std::string key = "last=";
    std::size_t pos = 0;
    while (pos < query.size()) {
        const std::size_t end = query.find('&', pos);
        const std::string param =
            query.substr(pos, end == std::string::npos ? end : end - pos);
        if (param.rfind(key, 0) == 0) {
            const char* digits = param.c_str() + key.size();
            char* stop = nullptr;
            const unsigned long long n = std::strtoull(digits, &stop, 10);
            if (stop != digits && *stop == '\0') {
                return static_cast<std::size_t>(n);
            }
        }
        if (end == std::string::npos) {
            break;
        }
        pos = end + 1;
    }
    return 0;
}

/** One row of the health table as a `moc-ranks/1` JSON object. */
void
AppendRankJson(std::ostringstream& out,
               const ClusterAggregator::RankHealth& row) {
    out << "{\"rank\": " << row.rank << ", \"alive\": "
        << (row.alive ? "true" : "false") << ", \"death_cause\": \""
        << JsonEscape(row.death_cause) << "\", \"phase\": \""
        << JsonEscape(row.phase.empty() ? "idle" : row.phase)
        << "\", \"generation\": " << row.generation << ", \"iteration\": "
        << row.iteration << ", \"elapsed_in_phase_s\": "
        << JsonNumber(row.elapsed_in_phase_s) << ", \"cluster_median_s\": "
        << JsonNumber(row.cluster_median_s) << ", \"slack_s\": "
        << JsonNumber(row.slack_s) << ", \"straggler\": "
        << (row.straggler ? "true" : "false") << ", \"samples\": "
        << row.samples << "}";
}

}  // namespace

HttpResponse
HandleMetrics() {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsPrometheus();
    return response;
}

HttpResponse
HandleHealthz() {
    const auto health = ClusterAggregator::Instance().Health();
    std::uint64_t alive = 0;
    std::uint64_t straggling = 0;
    std::uint64_t max_iteration = 0;
    std::ostringstream dead;
    std::size_t dead_count = 0;
    for (const auto& row : health) {
        alive += row.alive ? 1 : 0;
        straggling += row.straggler ? 1 : 0;
        max_iteration = std::max(max_iteration, row.iteration);
        if (!row.alive) {
            dead << (dead_count++ == 0 ? "" : ", ") << "{\"rank\": "
                 << row.rank << ", \"cause\": \""
                 << JsonEscape(row.death_cause) << "\"}";
        }
    }
    // An empty view is a single-process (or not-yet-reporting) run: alive
    // by definition — liveness of the process itself is proven by the 200.
    const bool healthy = dead_count == 0;
    HttpResponse response;
    response.status = healthy ? 200 : 503;
    response.content_type = "application/json";
    std::ostringstream body;
    body << "{\"schema\": \"moc-health/1\", \"healthy\": "
         << (healthy ? "true" : "false") << ", \"ranks\": " << health.size()
         << ", \"alive\": " << alive << ", \"dead\": [" << dead.str()
         << "], \"stragglers\": " << straggling << ", \"iteration\": "
         << max_iteration << ", \"telemetry_samples\": "
         << ClusterAggregator::Instance().samples() << ", \"series_points\": "
         << TimeSeriesRing::Instance().total() << "}\n";
    response.body = body.str();
    return response;
}

HttpResponse
HandleRanks() {
    const auto health = ClusterAggregator::Instance().Health();
    HttpResponse response;
    response.content_type = "application/json";
    std::ostringstream body;
    body << "{\"schema\": \"moc-ranks/1\", \"ranks\": [";
    for (std::size_t i = 0; i < health.size(); ++i) {
        if (i > 0) {
            body << ", ";
        }
        AppendRankJson(body, health[i]);
    }
    body << "]}\n";
    response.body = body.str();
    return response;
}

HttpResponse
HandleSeries(const std::string& query) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = TimeSeriesRing::Instance().Json(QueryLast(query));
    return response;
}

HttpEndpoint::HttpEndpoint(const HttpOptions& options) : options_(options) {
    routes_["/metrics"] = [](const std::string&, const std::string&) {
        return HandleMetrics();
    };
    routes_["/healthz"] = [](const std::string&, const std::string&) {
        return HandleHealthz();
    };
    routes_["/ranks"] = [](const std::string&, const std::string&) {
        return HandleRanks();
    };
    routes_["/series"] = [](const std::string&, const std::string& query) {
        return HandleSeries(query);
    };
}

HttpEndpoint::~HttpEndpoint() {
    Stop();
}

void
HttpEndpoint::SetRoute(const std::string& path, Handler handler) {
    const std::lock_guard<std::mutex> lock(mu_);
    routes_[path] = std::move(handler);
}

void
HttpEndpoint::Start() {
    if (running_.exchange(true)) {
        return;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        running_ = false;
        throw std::runtime_error("http endpoint socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        CloseFd(listen_fd_);
        listen_fd_ = -1;
        running_ = false;
        throw std::runtime_error(std::string("http endpoint bind/listen "
                                             "failed: ") +
                                 std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    worker_thread_ = std::thread([this] { WorkerLoop(); });
}

void
HttpEndpoint::Stop() {
    if (!running_.exchange(false)) {
        return;
    }
    queue_cv_.notify_all();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    if (worker_thread_.joinable()) {
        worker_thread_.join();
    }
    std::deque<int> leftovers;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        leftovers.swap(pending_);
    }
    for (const int fd : leftovers) {
        CloseFd(fd);
    }
    CloseFd(listen_fd_);
    listen_fd_ = -1;
}

void
HttpEndpoint::AcceptLoop() {
    static Counter& shed = HttpCounter("obs.http.shed");
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
        bool enqueued = false;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (pending_.size() < options_.max_pending) {
                pending_.push_back(fd);
                enqueued = true;
            }
        }
        if (enqueued) {
            queue_cv_.notify_one();
        } else {
            // Shed at the door — the worker is saturated and the scrape
            // plane must never build unbounded backlog.
            HttpResponse busy;
            busy.status = 503;
            busy.body = "busy\n";
            // Counted before the reply goes out: a client that has its
            // answer must already see it in the counters.
            shed.Add();
            WriteResponse(fd, busy);
            CloseFd(fd);
        }
    }
}

void
HttpEndpoint::WorkerLoop() {
    while (running_.load()) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queue_cv_.wait_for(lock, std::chrono::milliseconds(kPollMs),
                               [this] {
                                   return !pending_.empty() ||
                                          !running_.load();
                               });
            if (!pending_.empty()) {
                fd = pending_.front();
                pending_.pop_front();
            }
        }
        if (fd >= 0) {
            HandleConnection(fd);
        }
    }
}

void
HttpEndpoint::HandleConnection(int fd) {
    static Counter& requests = HttpCounter("obs.http.requests");
    static Counter& errors = HttpCounter("obs.http.errors");

    // Read until the end of the request head (blank line), the byte cap,
    // or the deadline. GET requests carry no body worth waiting for.
    std::string request;
    bool have_head = false;
    bool overflow = false;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(options_.request_timeout_s);
    while (running_.load() && !have_head && !overflow) {
        if (std::chrono::steady_clock::now() >= deadline) {
            break;
        }
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0 && errno != EINTR) {
            break;
        }
        if (ready <= 0) {
            continue;
        }
        char buf[1024];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            break;
        }
        request.append(buf, static_cast<std::size_t>(n));
        have_head = request.find("\r\n\r\n") != std::string::npos ||
                    request.find("\n\n") != std::string::npos;
        overflow = request.size() > options_.max_request_bytes;
    }

    HttpResponse response;
    if (!have_head) {
        response.status = 400;
        response.body = overflow ? "request too large\n"
                                 : "incomplete request\n";
    } else {
        std::istringstream head(request.substr(0, request.find('\n')));
        std::string method;
        std::string target;
        std::string version;
        head >> method >> target >> version;
        std::string path = target;
        std::string query;
        const std::size_t qpos = target.find('?');
        if (qpos != std::string::npos) {
            path = target.substr(0, qpos);
            query = target.substr(qpos + 1);
        }
        if (method.empty() || target.empty()) {
            response.status = 400;
            response.body = "malformed request line\n";
        } else if (method != "GET") {
            response.status = 405;
            response.body = "only GET is served here\n";
        } else {
            response = Dispatch(method, path, query);
        }
    }
    // Counted before the reply goes out (the body is already rendered, so
    // a /metrics reply never counts itself): a client that has its answer
    // must already see it in obs.http.requests / obs.http.errors.
    requests.Add();
    if (response.status >= 400) {
        errors.Add();
    }
    WriteResponse(fd, response);
    CloseFd(fd);
}

HttpResponse
HttpEndpoint::Dispatch(const std::string& method, const std::string& path,
                       const std::string& query) const {
    (void)method;
    Handler handler;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = routes_.find(path);
        if (it != routes_.end()) {
            handler = it->second;
        }
    }
    if (!handler) {
        HttpResponse response;
        response.status = 404;
        response.body = "no such route; try /metrics /healthz /ranks "
                        "/series\n";
        return response;
    }
    try {
        return handler(path, query);
    } catch (const std::exception& e) {
        HttpResponse response;
        response.status = 500;
        response.body = std::string("handler failed: ") + e.what() + "\n";
        return response;
    }
}

std::optional<HttpResult>
HttpGet(const std::string& host, std::uint16_t port, const std::string& path,
        double timeout_s) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return std::nullopt;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
        CloseFd(fd);
        return std::nullopt;
    }
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: " + host +
                                "\r\nConnection: close\r\n\r\n";
    if (!SendAll(fd, request.data(), request.size())) {
        CloseFd(fd);
        return std::nullopt;
    }
    std::string raw;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0 && errno != EINTR) {
            break;
        }
        if (ready <= 0) {
            continue;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            break;  // EOF: Connection: close semantics — we have it all
        }
        raw.append(buf, static_cast<std::size_t>(n));
    }
    CloseFd(fd);

    // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
    if (raw.rfind("HTTP/", 0) != 0) {
        return std::nullopt;
    }
    const std::size_t space = raw.find(' ');
    if (space == std::string::npos || space + 4 > raw.size()) {
        return std::nullopt;
    }
    char* stop = nullptr;
    const long status = std::strtol(raw.c_str() + space + 1, &stop, 10);
    if (status < 100 || status > 599) {
        return std::nullopt;
    }
    HttpResult result;
    result.status = static_cast<int>(status);
    std::size_t body = raw.find("\r\n\r\n");
    std::size_t skip = 4;
    if (body == std::string::npos) {
        body = raw.find("\n\n");
        skip = 2;
    }
    result.body = body == std::string::npos ? "" : raw.substr(body + skip);
    return result;
}

std::optional<UrlParts>
ParseHttpUrl(const std::string& url) {
    const std::string scheme = "http://";
    if (url.rfind(scheme, 0) != 0) {
        return std::nullopt;
    }
    std::string rest = url.substr(scheme.size());
    const std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
        rest = rest.substr(0, slash);
    }
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
        return std::nullopt;
    }
    UrlParts parts;
    parts.host = rest.substr(0, colon);
    const std::string digits = rest.substr(colon + 1);
    char* stop = nullptr;
    const unsigned long port = std::strtoul(digits.c_str(), &stop, 10);
    if (stop != digits.c_str() + digits.size() || port == 0 ||
        port > 65535) {
        return std::nullopt;
    }
    parts.port = static_cast<std::uint16_t>(port);
    return parts;
}

}  // namespace moc::obs
