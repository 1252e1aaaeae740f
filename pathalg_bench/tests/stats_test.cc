// Tests of the benchmark's own measurement rules: the tail percentile it
// reports, the seeded open-loop schedule, and latency measured from the
// intended send time while the server stalls.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "stats.h"

namespace pathalg {
namespace bench {
namespace {

TEST(SupportedTail, KeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(50000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(500), 0.98);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(20), 0.5);
  for (size_t n = 21; n <= 2500; n += 7) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const double tail = Percentile(v, SupportedTailQuantile(n));
    const auto beyond = std::count_if(v.begin(), v.end(),
                                      [&](double x) { return x > tail; });
    EXPECT_GE(beyond, static_cast<long>(kTailSamplesBeyond)) << "n=" << n;
  }
}

TEST(SupportedTail, SummaryReportsTheQuantileUsed) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 200u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.tail_quantile, 0.95);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  std::mt19937_64 a(7);
  std::mt19937_64 b(7);
  std::mt19937_64 c(8);
  const std::vector<double> x = PoissonArrivals(400.0, 0.0, 10.0, a);
  EXPECT_EQ(x, PoissonArrivals(400.0, 0.0, 10.0, b));
  EXPECT_NE(x, PoissonArrivals(400.0, 0.0, 10.0, c));
  EXPECT_TRUE(std::is_sorted(x.begin(), x.end()));
  EXPECT_GE(x.front(), 0.0);
  EXPECT_LT(x.back(), 10.0);
  // 4000 expected arrivals; a Poisson count stays within 5 sigma.
  EXPECT_NEAR(static_cast<double>(x.size()), 4000.0, 5 * 63.3);
}

TEST(Zipf, RankZeroIsMostPopular) {
  ZipfSampler zipf(400, 1.0);
  std::mt19937_64 rng(1);
  std::vector<int> hits(400);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(rng)];
  EXPECT_EQ(std::max_element(hits.begin(), hits.end()) - hits.begin(), 0);
  EXPECT_GT(hits[0], 10 * hits[99]);
}

/// A one-connection line server that answers each line at once, except
/// that it sleeps `stall` before answering line number `stall_at`.
class StallingServer {
 public:
  StallingServer(int stall_at, std::chrono::milliseconds stall) {
    listener_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listen(listener_, 1);
    thread_ = std::thread([this, stall_at, stall] {
      const int fd = accept(listener_, nullptr, nullptr);
      std::string pending;
      char buf[4096];
      int lines = 0;
      ssize_t n;
      while ((n = read(fd, buf, sizeof(buf))) > 0) {
        pending.append(buf, static_cast<size_t>(n));
        size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
          pending.erase(0, nl + 1);
          if (++lines == stall_at) std::this_thread::sleep_for(stall);
          const char answer[] = "OK 1 paths\n";
          (void)!write(fd, answer, sizeof(answer) - 1);
        }
      }
      close(fd);
    });
  }
  ~StallingServer() {
    thread_.join();
    close(listener_);
  }
  uint16_t port() const { return port_; }

 private:
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

constexpr auto kStall = std::chrono::milliseconds(300);

TEST(OpenLoop, LatencyCountsFromTheIntendedSendTime) {
  StallingServer server(5, kStall);
  PhaseResult result;
  {
    Result<std::unique_ptr<LoadClient>> client =
        LoadClient::Connect(server.port(), 1);
    ASSERT_TRUE(client.ok());
    PhaseSpec spec;
    for (int i = 0; i < 60; ++i) {
      Request r;
      r.due = 0.01 * i;  // 100 requests per second
      r.line = "q";
      spec.open.push_back(r);
    }
    spec.end_s = 0.6;
    result = (*client)->Run(spec);
  }
  ASSERT_EQ(result.outcomes.size(), 60u);
  size_t delayed = 0;
  for (const Outcome& o : result.outcomes) {
    ASSERT_TRUE(o.answered());
    // The generator kept its schedule while the server stalled.
    EXPECT_LT(o.sent - o.due, 0.05);
    if (o.latency_from_due() > 0.1) ++delayed;
  }
  // Request 5 waits the whole stall, and every request due during it
  // queues behind it: ~30 requests see the stall, not one.
  EXPECT_GE(result.outcomes[4].latency_from_due(), 0.29);
  EXPECT_GE(result.outcomes[5].latency_from_due(), 0.25);
  EXPECT_GE(delayed, 20u);
}

TEST(ClosedLoop, OneSlotHidesTheQueue) {
  StallingServer server(5, kStall);
  PhaseResult result;
  {
    Result<std::unique_ptr<LoadClient>> client =
        LoadClient::Connect(server.port(), 1);
    ASSERT_TRUE(client.ok());
    PhaseSpec spec;
    int left = 30;
    spec.closed_slots = 1;
    spec.closed = [&left](size_t, Request* r) {
      r->line = "q";
      return left-- > 0;
    };
    spec.end_s = 5.0;
    result = (*client)->Run(spec);
  }
  ASSERT_EQ(result.outcomes.size(), 30u);
  size_t delayed = 0;
  for (const Outcome& o : result.outcomes) {
    if (o.latency_from_due() > 0.1) ++delayed;
  }
  // The contrast with the open loop above: a closed loop that waits for
  // each answer records the stall once (coordinated omission).
  EXPECT_EQ(delayed, 1u);
}

}  // namespace
}  // namespace bench
}  // namespace pathalg
