// Unit tests of the benchmark's own machinery: the percentile rule, self
// time, the release and cache checks, and the closed-loop connection bound.
// Run with `python3 perfbench/run.py --test`.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "checks.h"
#include "serve_client.h"
#include "stats.h"

namespace perfbench {
namespace {

using vadasa::core::AttributeCategory;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 90), 90);
  EXPECT_EQ(Percentile(OneTo(10), 90), 9);
  EXPECT_EQ(Percentile(OneTo(3), 50), 2);
  EXPECT_EQ(Percentile(OneTo(1), 99), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(HighestReportablePercentile(100), 90);
  EXPECT_EQ(HighestReportablePercentile(1000), 99);
  EXPECT_EQ(HighestReportablePercentile(200), 95);
  EXPECT_EQ(HighestReportablePercentile(20), 50);
  EXPECT_EQ(HighestReportablePercentile(19), 0);
  const Summary s = Summarize(OneTo(200));
  EXPECT_EQ(s.n, 200u);
  EXPECT_EQ(s.p50, 100);
  EXPECT_EQ(s.p90, 180);
  EXPECT_EQ(s.top_percentile, 95);
  EXPECT_EQ(s.top, 190);
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0,100) with children [10,30), [20,50) (overlapping: union 40) and
  // [60,70); grandchild [62,68) counts against its parent, not the root.
  const std::vector<SpanRecord> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 30),
                                         Span(3, 1, 20, 50), Span(4, 1, 60, 70),
                                         Span(5, 4, 62, 68)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10 - 6);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<SpanRecord> spans = {Span(1, 0, 10, 20), Span(2, 1, 5, 15),
                                         Span(3, 1, 18, 40)};
  EXPECT_EQ(SelfTimes(spans)[0], 10 - 5 - 2);
  EXPECT_EQ(UnionLength({{0, 10}, {10, 20}, {30, 35}}, 0, 100), 25);
  EXPECT_EQ(UnionLength({}, 0, 100), 0);
}

class ReleaseCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    input_.header = {"Id", "Area", "Sector", "Growth", "Weight"};
    input_.rows = {{"1", "North", "Textiles", "10", "100"},
                   {"2", "South", "Commerce", "-3", "250"}};
    categories_ = {AttributeCategory::kIdentifier, AttributeCategory::kQuasiIdentifier,
                   AttributeCategory::kQuasiIdentifier,
                   AttributeCategory::kNonIdentifying, AttributeCategory::kWeight};
    release_ = input_;
  }
  vadasa::CsvTable input_, release_;
  std::vector<AttributeCategory> categories_;
};

TEST_F(ReleaseCheck, AcceptsSuppressionAndDroppedIdentifiers) {
  release_.rows[0][1] = "NULL_1";
  release_.rows[1][2] = "NULL_2";
  release_.rows[0][0] = "<dropped>";
  EXPECT_EQ(CheckRelease(input_, release_, categories_), "");
}

TEST_F(ReleaseCheck, CatchesAFlippedNonQiCell) {
  release_.rows[1][3] = "-4";
  EXPECT_NE(CheckRelease(input_, release_, categories_), "");
  release_ = input_;
  release_.rows[0][4] = "101";
  EXPECT_NE(CheckRelease(input_, release_, categories_), "");
}

TEST_F(ReleaseCheck, CatchesAFlippedQiCell) {
  release_.rows[0][1] = "South";
  EXPECT_NE(CheckRelease(input_, release_, categories_), "");
}

TEST_F(ReleaseCheck, CatchesANullOutsideTheQis) {
  release_.rows[1][3] = "NULL_7";
  EXPECT_NE(CheckRelease(input_, release_, categories_).find("outside the QIs"),
            std::string::npos);
}

TEST_F(ReleaseCheck, CatchesLostRows) {
  release_.rows.pop_back();
  EXPECT_NE(CheckRelease(input_, release_, categories_), "");
}

TEST(PayloadLedger, FlagsACacheHitWhoseBytesDiffer) {
  PayloadLedger ledger;
  const std::string miss = DigestFields({"a,b\n1,2\n", "audit"});
  EXPECT_EQ(ledger.Observe("k", miss), PayloadLedger::Verdict::kFirst);
  EXPECT_EQ(ledger.Observe("k", DigestFields({"a,b\n1,2\n", "audit"})),
            PayloadLedger::Verdict::kSame);
  EXPECT_EQ(ledger.Observe("k", DigestFields({"a,b\n1,3\n", "audit"})),
            PayloadLedger::Verdict::kDifferent);
  // Field boundaries count: moving bytes between csv and audit differs.
  EXPECT_NE(DigestFields({"ab", "c"}), DigestFields({"a", "bc"}));
}

/// A line-echo server on a unix socket that records how many connections
/// were ever accepted and the most open at once.
class CountingServer {
 public:
  explicit CountingServer(const std::string& path) : path_(path) {
    ::unlink(path.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 64), 0);
    acceptor_ = std::thread([this] { Accept(); });
  }
  ~CountingServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    for (auto& t : handlers_) t.join();
    ::unlink(path_.c_str());
  }
  int total() const { return total_.load(); }
  int peak() const { return peak_.load(); }

 private:
  void Accept() {
    while (true) {
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) return;
      total_.fetch_add(1);
      const int now = open_.fetch_add(1) + 1;
      int seen = peak_.load();
      while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
      }
      handlers_.emplace_back([this, c] {
        char buf[4096];
        ssize_t n;
        while ((n = ::recv(c, buf, sizeof(buf), 0)) > 0) ::send(c, buf, n, MSG_NOSIGNAL);
        ::close(c);
        open_.fetch_sub(1);
      });
    }
  }
  std::string path_;
  int fd_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
  std::atomic<int> total_{0}, open_{0}, peak_{0};
};

TEST(ClosedLoop, NeverOpensMoreThanTheConfiguredConnections) {
  char dir[] = "perfbench-test-XXXXXX";  // in the working directory
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/echo.sock";
  {
    CountingServer server(path);
    std::atomic<int> requests{0};
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    const ClosedLoopStats stats = RunClosedLoop(path, 3, [&](int client, Connection& conn) {
      if (requests.fetch_add(1) >= 300) return false;
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      const std::string line = "ping " + std::to_string(client);
      EXPECT_TRUE(conn.WriteLine(line).ok());
      auto reply = conn.ReadLine();
      EXPECT_TRUE(reply.ok());
      if (reply.ok()) EXPECT_EQ(*reply, line);  // its own answer, in order
      in_flight.fetch_sub(1);
      return true;
    });
    EXPECT_EQ(stats.connections_opened, 3u);
    EXPECT_EQ(stats.connect_failures, 0u);
    EXPECT_LE(max_in_flight.load(), 3);
    EXPECT_GE(requests.load(), 300);
    // Let the server notice the closed connections before counting.
    EXPECT_LE(server.total(), 3);
    EXPECT_LE(server.peak(), 3);
  }
  ::rmdir(dir);
}

}  // namespace
}  // namespace perfbench
