#include "server/tcp_server.h"

#ifdef __unix__

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timing.h"

namespace pathalg {
namespace server {

namespace {

/// The one socket-I/O patience policy: how long a misbehaving peer may
/// pin a pool worker on a single syscall. Applied as SO_RCVTIMEO on the
/// refusal drain's reads and SO_SNDTIMEO on every connection's response
/// writes — one named constant so the two bounds cannot drift apart.
constexpr time_t kSocketIoTimeoutSec = 1;

timeval SocketIoTimeout() {
  timeval tv{};
  tv.tv_sec = kSocketIoTimeoutSec;
  return tv;
}

}  // namespace

struct TcpServer::Impl {
  /// Set once at construction, immutable afterwards (no guard needed).
  SessionManager* const manager;

  explicit Impl(SessionManager* m) : manager(m) {}

  Mutex mu;
  CondVar cv;
  int listener PA_GUARDED_BY(mu) = -1;
  uint16_t port PA_GUARDED_BY(mu) = 0;
  /// The accept loop is (or is being) started.
  bool accepting PA_GUARDED_BY(mu) = false;
  /// The accept-loop task is live.
  bool accept_running PA_GUARDED_BY(mu) = false;
  bool stopping PA_GUARDED_BY(mu) = false;
  /// Fds with live handlers.
  std::unordered_set<int> connections PA_GUARDED_BY(mu);
  size_t handlers_running PA_GUARDED_BY(mu) = 0;
  /// Refusal tasks in flight. Each holds a pool worker for its bounded
  /// drain, and Submit grows the pool per unfinished task — so a
  /// connection flood against a full gate must not fan out one task per
  /// refusal, or it would permanently grow the pool by the flood size.
  /// Shared-ptr'd so stragglers finishing after ~Impl stay safe.
  std::shared_ptr<std::atomic<int>> refusals_in_flight =
      std::make_shared<std::atomic<int>>(0);
  static constexpr int kMaxRefusalTasks = 8;
  /// Refusal-drain budget in *bytes* (on top of the per-read count and
  /// timeout bounds): a refused peer gets at most this much of its
  /// pipelined backlog read before the fd closes regardless.
  static constexpr size_t kMaxRefusalDrainBytes = 1024;
  /// Stop()'s drain budget (TcpServerOptions::drain_deadline_ms), fixed
  /// at Start.
  std::chrono::milliseconds drain_deadline PA_GUARDED_BY(mu){2000};

  /// Registers a freshly-accepted fd unless the server is stopping (in
  /// which case the caller must close it). Guards the Stop() sweep: a fd
  /// registered here is guaranteed to receive Stop's shutdown().
  bool RegisterConnection(int fd) PA_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (stopping) return false;
    connections.insert(fd);
    ++handlers_running;
    return true;
  }

  void UnregisterConnection(int fd) PA_EXCLUDES(mu) {
    {
      // Notify under the mutex: Stop() may destroy this Impl (and the
      // cv) the moment it observes handlers_running == 0, which it can
      // only do while holding mu — a notify outside the lock could touch
      // a destroyed cv. The close stays outside (it touches only the fd)
      // and after the erase, so Stop's shutdown sweep never sees a
      // closed — possibly reused — descriptor in `connections`.
      MutexLock lock(mu);
      connections.erase(fd);
      --handlers_running;
      cv.NotifyAll();
    }
    close(fd);
  }

  /// One connection: line-buffered reads over the raw fd, whole-response
  /// writes, one ServerSession for the connection's lifetime (destroying
  /// it releases the admission slot and flushes any recording).
  void ServeConnection(int fd, std::unique_ptr<ServerSession> session) {
    // A client that stops reading must not pin this worker for the
    // connection's lifetime: response writes time out after the shared
    // socket-I/O bound and the connection is dropped cleanly (counted in
    // slow_client_drops). The kernel send buffer absorbs normal reader
    // lag; only a peer stuck for the full timeout with the buffer full
    // trips this.
    const timeval timeout = SocketIoTimeout();
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    // Each response leaves in one write(), so Nagle has nothing to
    // coalesce — it only holds a response back while an earlier one is
    // un-ACKed, i.e. until the client's delayed-ACK timer (~40 ms) fires
    // whenever a client pipelines requests.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string pending;
    char buf[4096];
    ssize_t n;
    bool quit = false;
    auto respond = [&](const std::string& line) {
      std::string response;
      quit = !session->HandleLine(line, &response);
      size_t off = 0;
      while (off < response.size()) {
        // The socket-write injection site: models the send wedging
        // against a stuck peer, exercising the same drop path the
        // SO_SNDTIMEO expiry takes.
        if (FaultInjector::Global().ShouldFail(FaultSite::kSocketWrite)) {
          manager->RecordSlowClientDrop();
          quit = true;
          break;
        }
        const ssize_t w =
            write(fd, response.data() + off, response.size() - off);
        if (w <= 0) {
          // EAGAIN/EWOULDBLOCK is the SO_SNDTIMEO write timeout — the
          // slow-client drop, which we count; anything else means the
          // client went away (EPIPE with SIGPIPE ignored).
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            manager->RecordSlowClientDrop();
          }
          quit = true;
          break;
        }
        off += static_cast<size_t>(w);
      }
    };
    while (!quit && (n = read(fd, buf, sizeof(buf))) > 0) {
      pending.append(buf, static_cast<size_t>(n));
      size_t nl;
      while (!quit && (nl = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        respond(line);
      }
    }
    // A final request without a trailing newline still gets an answer
    // (parity with the piped mode, where getline handles the last line).
    if (!quit && !pending.empty()) respond(pending);
    session.reset();  // release the admission slot before unregistering
    UnregisterConnection(fd);
  }

  /// Writes the refusal line and closes without destroying it: a
  /// pipelining client may already have queued request bytes we never
  /// read, and close()-with-unread-data sends an RST that discards the
  /// in-flight response on the client's side. Half-close our sending
  /// direction, then drain until the peer acknowledges with EOF — but
  /// only for a bounded number of bounded-time reads, so a peer that
  /// trickles bytes forever cannot pin this task. Runs as its own pool
  /// task (touching only the fd, never the Impl), keeping the accept
  /// loop free to serve the next connection immediately.
  static void RefuseAndClose(int fd, const std::string& line) {
    (void)!write(fd, line.data(), line.size());
    shutdown(fd, SHUT_WR);
    const timeval timeout = SocketIoTimeout();
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    // Bounded three ways — reads, total bytes, per-read timeout — so a
    // peer trickling bytes can pin this task for at most a handful of
    // short reads, never proportionally to what it queued.
    char buf[256];
    size_t drained = 0;
    for (int reads = 0; reads < 8 && drained < kMaxRefusalDrainBytes;
         ++reads) {
      const ssize_t r = read(fd, buf, sizeof(buf));
      if (r <= 0) break;  // EOF, error or timeout
      drained += static_cast<size_t>(r);
    }
    close(fd);
  }

  /// `listener_fd` is passed by value: the accept loop runs for the
  /// whole listener lifetime, and reading the mu-guarded `listener`
  /// member without the lock (as this loop once did) is exactly the kind
  /// of convention-only discipline the thread-safety annotations exist
  /// to reject. Stop() still reaches the loop through the member — same
  /// fd, shutdown() under the lock.
  void AcceptLoop(const int listener_fd) PA_EXCLUDES(mu) {
    for (;;) {
      const int fd = accept(listener_fd, nullptr, nullptr);
      if (fd < 0) {
        MutexLock lock(mu);
        if (stopping) break;
        continue;  // transient accept failure; keep serving
      }
      Result<std::unique_ptr<ServerSession>> session = manager->Open();
      if (!session.ok()) {
        // Admission-gate refusals answer the BUSY line (retryable); any
        // other Open failure — e.g. a broken default graph spec — is a
        // real error the client must see as such, not an invitation to
        // retry forever.
        const std::string line =
            session.status().code() == StatusCode::kResourceExhausted
                ? manager->BusyLine()
                : "ERR " + engine::OneLine(session.status().ToString()) +
                      "\n";
        auto in_flight = refusals_in_flight;
        if (in_flight->fetch_add(1, std::memory_order_relaxed) <
            kMaxRefusalTasks) {
          ThreadPool::Shared().Submit([fd, line, in_flight] {
            RefuseAndClose(fd, line);
            in_flight->fetch_sub(1, std::memory_order_relaxed);
          });
        } else {
          // Flood path: past the task budget, answer and close inline
          // without the polite drain — a possible RST beats unbounded
          // worker growth, and the accept loop never blocks either way.
          in_flight->fetch_sub(1, std::memory_order_relaxed);
          (void)!write(fd, line.data(), line.size());
          close(fd);
        }
        continue;
      }
      if (!RegisterConnection(fd)) {
        close(fd);
        break;  // stopping: the session unwinds via its destructor
      }
      // Detach the handler onto the pool; it owns fd + session.
      auto handler = std::make_shared<std::unique_ptr<ServerSession>>(
          std::move(session).value());
      ThreadPool::Shared().Submit([this, fd, handler] {
        ServeConnection(fd, std::move(*handler));
      });
    }
    // Notify under the mutex (see UnregisterConnection).
    MutexLock lock(mu);
    accept_running = false;
    cv.NotifyAll();
  }
};

TcpServer::TcpServer(SessionManager* manager) : impl_(new Impl(manager)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(const TcpServerOptions& options) {
  int listener = -1;
  {
    MutexLock lock(impl_->mu);
    if (impl_->accepting) {
      return Status::InvalidArgument("server already started");
    }
    // A client closing its end mid-response must not SIGPIPE-kill the
    // process; writes then fail with EPIPE and the handler drops the
    // connection.
    std::signal(SIGPIPE, SIG_IGN);
    listener = socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) return Status::Internal("socket() failed");
    int one = 1;
    setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      close(listener);
      return Status::Internal("bind() failed (port in use?)");
    }
    socklen_t len = sizeof(addr);
    if (getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      close(listener);
      return Status::Internal("getsockname() failed");
    }
    if (listen(listener, options.backlog) < 0) {
      close(listener);
      return Status::Internal("listen() failed");
    }
    impl_->listener = listener;
    impl_->port = ntohs(addr.sin_port);
    impl_->accepting = true;
    impl_->accept_running = true;
    impl_->stopping = false;
    impl_->drain_deadline =
        std::chrono::milliseconds(options.drain_deadline_ms);
  }
  Impl* impl = impl_.get();
  ThreadPool::Shared().Submit([impl, listener] { impl->AcceptLoop(listener); });
  return Status::OK();
}

uint16_t TcpServer::port() const {
  MutexLock lock(impl_->mu);
  return impl_->port;
}

bool TcpServer::running() const {
  MutexLock lock(impl_->mu);
  return impl_->accept_running;
}

void TcpServer::Stop() {
  MutexLock lock(impl_->mu);
  if (!impl_->accepting) return;
  impl_->stopping = true;
  // Phase 1 — close the intake. Unblock the accept loop, and half-close
  // (SHUT_RD, not RDWR) every connection's read side: blocked reads see
  // EOF, no new request line is ever picked up, but in-flight queries
  // keep running and their responses still flow out. Handlers unwind
  // through their normal path, so live `!record` captures flush via the
  // session destructor. shutdown() (not close()) so no fd number is
  // reused while its handler still touches it.
  if (impl_->listener >= 0) shutdown(impl_->listener, SHUT_RDWR);
  for (int fd : impl_->connections) shutdown(fd, SHUT_RD);
  // Phase 2 — bounded drain: give in-flight queries the configured
  // deadline to finish on their own.
  const SteadyClock::time_point drain_until =
      SteadyClock::now() + impl_->drain_deadline;
  while (impl_->accept_running || impl_->handlers_running != 0) {
    if (!impl_->cv.WaitUntil(impl_->mu, drain_until)) break;
  }
  // Phase 3 — cancel stragglers. Trip the process-wide shutdown token
  // (every in-flight query polls it cooperatively and returns the pinned
  // cancellation ERR promptly), fully shut the sockets, and wait without
  // a deadline: after cancellation the handlers' remaining work is a
  // bounded unwind, so this converges.
  if (impl_->accept_running || impl_->handlers_running != 0) {
    impl_->manager->CancelAllQueries();
    for (int fd : impl_->connections) shutdown(fd, SHUT_RDWR);
    while (impl_->accept_running || impl_->handlers_running != 0) {
      impl_->cv.Wait(impl_->mu);
    }
  }
  if (impl_->listener >= 0) close(impl_->listener);
  impl_->listener = -1;
  impl_->accepting = false;
  impl_->cv.NotifyAll();
}

void TcpServer::WaitUntilStopped() {
  MutexLock lock(impl_->mu);
  while (impl_->accepting) impl_->cv.Wait(impl_->mu);
}

}  // namespace server
}  // namespace pathalg

#else  // !__unix__

namespace pathalg {
namespace server {

struct TcpServer::Impl {};

TcpServer::TcpServer(SessionManager*) : impl_(new Impl()) {}
TcpServer::~TcpServer() = default;
Status TcpServer::Start(const TcpServerOptions&) {
  return Status::NotImplemented("TCP serving requires a POSIX platform");
}
uint16_t TcpServer::port() const { return 0; }
bool TcpServer::running() const { return false; }
void TcpServer::Stop() {}
void TcpServer::WaitUntilStopped() {}

}  // namespace server
}  // namespace pathalg

#endif  // __unix__
