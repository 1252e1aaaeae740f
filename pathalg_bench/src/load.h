#ifndef PATHALG_BENCH_LOAD_H_
#define PATHALG_BENCH_LOAD_H_

/// \file load.h
/// The benchmark's load generator: one client thread driving a handful of
/// non-blocking loopback connections with ppoll. Open-loop requests carry
/// an intended send time and are written when due, pipelined behind any
/// unanswered ones on the same connection, so a stalled server builds a
/// queue instead of slowing the generator down (no coordinated omission:
/// latency is measured from `due`, not from the actual send). Closed-loop
/// sources refill a fixed number of slots, each the moment its previous
/// request is answered.
///
/// The client sets TCP_NODELAY on its own sockets and nothing on the
/// server's: whatever the server does with its side of the connection is
/// part of what is measured.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace pathalg {
namespace bench {

enum class RequestKind : uint8_t { kRead, kWrite };

struct Request {
  /// Intended send time in seconds after the phase starts. Closed-loop
  /// requests are due the moment their slot frees.
  double due = 0.0;
  size_t conn = 0;
  RequestKind kind = RequestKind::kRead;
  /// Workload-defined identity (query text id, write index).
  uint32_t tag = 0;
  std::string line;
};

struct Outcome {
  size_t conn = 0;
  RequestKind kind = RequestKind::kRead;
  uint32_t tag = 0;
  double due = 0.0;
  double sent = 0.0;
  /// Negative when the request was never answered (disconnect, or no
  /// answer by the end of the drain).
  double received = -1.0;
  /// The response line without its '\n'.
  std::string response;
  /// Writes answered before this request was sent, and writes sent before
  /// its answer arrived: the window of write versions a read can have
  /// observed.
  uint32_t writes_answered_at_send = 0;
  uint32_t writes_sent_at_answer = 0;

  bool answered() const { return received >= 0.0; }
  double latency_from_due() const { return received - due; }
};

/// Supplies the next closed-loop request for a free slot; returns false
/// when the source is exhausted.
using ClosedSource = std::function<bool(size_t slot, Request* out)>;

struct PhaseSpec {
  /// Open-loop requests in ascending `due` order.
  std::vector<Request> open;
  /// Closed-loop slots (requests outstanding at once) and their source.
  size_t closed_slots = 0;
  ClosedSource closed;
  /// No closed-loop request is sent at or after this time.
  double end_s = 0.0;
  /// How long after the last send unanswered requests are waited for.
  double drain_s = 10.0;
};

struct PhaseResult {
  /// Open-loop requests first, in `open` order, then closed-loop ones in
  /// send order.
  std::vector<Outcome> outcomes;
};

class LoadClient {
 public:
  /// Opens `connections` sockets to 127.0.0.1:port.
  static Result<std::unique_ptr<LoadClient>> Connect(uint16_t port,
                                                     size_t connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  size_t connections() const { return conns_.size(); }

  /// Sends one line on `conn` and blocks for its whole response block
  /// (STAT/HELP lines up to the terminating OK/ERR/BUSY line), returned
  /// with '\n' between lines. Only for set-up and control requests, never
  /// while a phase runs.
  Result<std::string> Call(size_t conn, const std::string& line,
                           double timeout_s = 60.0);

  /// Runs one load phase to completion (all answered, or the drain ended).
  PhaseResult Run(const PhaseSpec& spec);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<size_t> inflight;  // outcome indices, oldest first
    bool dead = false;
  };

  LoadClient() = default;

  std::vector<Conn> conns_;
};

}  // namespace bench
}  // namespace pathalg

#endif  // PATHALG_BENCH_LOAD_H_
