#include "load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>

namespace pathalg {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

timespec ToTimespec(double seconds) {
  seconds = std::max(seconds, 0.0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - std::floor(seconds)) * 1e9);
  return ts;
}

/// Terminal lines end a response block; STAT/HELP lines precede one.
bool IsTerminalLine(const std::string& line) {
  return line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0 ||
         line.rfind("BUSY", 0) == 0;
}

/// Writes as much of `conn.out` as the socket takes. False when the
/// connection is gone.
template <typename C>
bool FlushOut(C& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

/// Reads what the socket holds into `conn.in`. False on EOF or error.
template <typename C>
bool FillIn(C& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
}

}  // namespace

Result<std::unique_ptr<LoadClient>> LoadClient::Connect(uint16_t port,
                                                        size_t connections) {
  std::unique_ptr<LoadClient> client(new LoadClient());
  for (size_t i = 0; i < connections; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    client->conns_.emplace_back();
    client->conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return Status::Internal("connect() to 127.0.0.1:" +
                              std::to_string(port) + " failed");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return client;
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
}

Result<std::string> LoadClient::Call(size_t conn_index, const std::string& line,
                                     double timeout_s) {
  Conn& conn = conns_.at(conn_index);
  if (conn.dead) return Status::Internal("connection is closed");
  const Clock::time_point start = Clock::now();
  conn.out += line;
  conn.out += '\n';
  std::string block;
  for (;;) {
    if (!FlushOut(conn)) {
      conn.dead = true;
      return Status::Internal("send failed for '" + line + "'");
    }
    size_t nl;
    while ((nl = conn.in.find('\n')) != std::string::npos) {
      std::string got = conn.in.substr(0, nl);
      conn.in.erase(0, nl + 1);
      if (!block.empty()) block += '\n';
      block += got;
      if (IsTerminalLine(got)) return block;
    }
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0) return Status::Internal("no answer to '" + line + "'");
    const short events =
        static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
    pollfd pfd{conn.fd, events, 0};
    const timespec ts = ToTimespec(left);
    if (ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) {
      return Status::Internal("poll failed");
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !FillIn(conn)) {
      conn.dead = true;
      return Status::Internal("connection closed while waiting for '" +
                              line + "' (got '" + block + "')");
    }
  }
}

PhaseResult LoadClient::Run(const PhaseSpec& spec) {
  PhaseResult result;
  std::vector<Outcome>& outcomes = result.outcomes;
  outcomes.reserve(spec.open.size() + 1024);
  // Closed-loop slot of each outcome (-1 = open loop).
  std::vector<int> slot_of;
  std::vector<bool> slot_busy(spec.closed_slots, false);
  // A closed-loop request is due when its slot frees (its predecessor's
  // answer arrives), so client turnaround counts as generator lag.
  std::vector<double> slot_free_at(spec.closed_slots, 0.0);
  bool closed_done = spec.closed_slots == 0 || !spec.closed;
  size_t next_open = 0;
  size_t outstanding = 0;
  uint32_t writes_sent = 0;
  uint32_t writes_answered = 0;
  const double last_send =
      std::max(spec.end_s, spec.open.empty() ? 0.0 : spec.open.back().due);
  const double deadline = last_send + spec.drain_s;

  const Clock::time_point start = Clock::now();
  auto send = [&](const Request& r, double due, int slot) {
    Outcome o;
    o.conn = r.conn;
    o.kind = r.kind;
    o.tag = r.tag;
    o.due = due;
    o.sent = SecondsSince(start);
    o.writes_answered_at_send = writes_answered;
    const size_t index = outcomes.size();
    outcomes.push_back(std::move(o));
    slot_of.push_back(slot);
    Conn& conn = conns_.at(r.conn);
    if (conn.dead) return;  // stays unanswered: a failure
    if (r.kind == RequestKind::kWrite) ++writes_sent;
    conn.out += r.line;
    conn.out += '\n';
    conn.inflight.push_back(index);
    ++outstanding;
    if (!FlushOut(conn)) conn.dead = true;
  };
  auto fail_conn = [&](Conn& conn) {
    conn.dead = true;
    outstanding -= conn.inflight.size();
    for (size_t index : conn.inflight) {
      outcomes[index].response = "disconnected";
      if (slot_of[index] >= 0) {
        slot_busy[static_cast<size_t>(slot_of[index])] = false;
      }
    }
    conn.inflight.clear();
  };

  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    double t = SecondsSince(start);
    while (next_open < spec.open.size() && spec.open[next_open].due <= t) {
      const Request& r = spec.open[next_open++];
      send(r, r.due, -1);
    }
    if (!closed_done && t < spec.end_s) {
      for (size_t slot = 0; slot < spec.closed_slots && !closed_done; ++slot) {
        if (slot_busy[slot]) continue;
        Request r;
        if (!spec.closed(slot, &r)) {
          closed_done = true;
          break;
        }
        slot_busy[slot] = true;
        send(r, slot_free_at[slot], static_cast<int>(slot));
        // A closed loop over a dead connection would spin: stop it.
        if (conns_.at(r.conn).dead) closed_done = true;
      }
    }
    const bool sending_over = next_open == spec.open.size() &&
                              (closed_done || t >= spec.end_s);
    if (sending_over && outstanding == 0) break;
    if (t >= deadline) break;

    double wait = deadline - t;
    if (next_open < spec.open.size()) {
      wait = std::min(wait, spec.open[next_open].due - t);
    }
    if (!closed_done && t < spec.end_s) wait = std::min(wait, spec.end_s - t);
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      pfds[i].fd = c.dead ? -1 : c.fd;
      pfds[i].events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const timespec ts = ToTimespec(wait);
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    const double now = SecondsSince(start);
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.dead || pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLOUT) != 0 && !FlushOut(c)) {
        fail_conn(c);
        continue;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool open = FillIn(c);
      size_t nl;
      while ((nl = c.in.find('\n')) != std::string::npos) {
        if (c.inflight.empty()) {
          c.in.erase(0, nl + 1);  // an answer nobody asked for: ignored
          continue;
        }
        const size_t index = c.inflight.front();
        c.inflight.pop_front();
        --outstanding;
        Outcome& o = outcomes[index];
        o.response = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        o.received = now;
        if (o.kind == RequestKind::kWrite) ++writes_answered;
        o.writes_sent_at_answer = writes_sent;
        if (slot_of[index] >= 0) {
          const size_t slot = static_cast<size_t>(slot_of[index]);
          slot_busy[slot] = false;
          slot_free_at[slot] = now;
        }
      }
      if (!open) fail_conn(c);
    }
  }
  for (Conn& c : conns_) {
    if (c.inflight.empty()) continue;
    for (size_t index : c.inflight) outcomes[index].response = "no answer";
    c.inflight.clear();
    // Late answers would be read as answers to the next phase's requests,
    // so a connection that still owes answers is not used again.
    c.dead = true;
  }
  return result;
}

}  // namespace bench
}  // namespace pathalg
