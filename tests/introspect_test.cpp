// introspect_test — the wire protocol of the live introspection
// endpoint: an in-process server driven by a scripted TCP client
// (help/list/stat/hazards/stream plus malformed-command rejection),
// and a full out-of-process round trip against a live
// `qsvbench --introspect` process.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/qsv_mutex.hpp"
#include "platform/wait.hpp"
#include "qsv/introspect.hpp"

namespace {

/// Connect to the loopback endpoint; -1 on failure.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Collect one response up to (and excluding) the terminating "."
/// line. Empty return means timeout/IO error with no payload.
std::string read_response(int fd, int timeout_ms = 10'000) {
  std::string buf, out;
  char chunk[512];
  for (;;) {
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string one = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (one == ".") return out;
      out += one + "\n";
    }
    struct pollfd p {};
    p.fd = fd;
    p.events = POLLIN;
    if (::poll(&p, 1, timeout_ms) <= 0) return out;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return out;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Send one command line and collect its response.
std::string request(int fd, const std::string& cmd,
                    int timeout_ms = 10'000) {
  const std::string line = cmd + "\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    return {};
  }
  return read_response(fd, timeout_ms);
}

/// RAII endpoint for the in-process tests.
struct ServerFixture : ::testing::Test {
  std::uint16_t port = 0;
  void SetUp() override {
    port = qsv::introspect::serve(0);
    ASSERT_NE(port, 0);
    ASSERT_TRUE(qsv::introspect::serving());
  }
  void TearDown() override { qsv::introspect::stop(); }
};

using IntrospectProtocol = ServerFixture;
using IntrospectMalformed = ServerFixture;

TEST_F(IntrospectProtocol, HelpListsEveryCommand) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string help = request(fd, "help");
  for (const char* cmd :
       {"help", "list", "stat", "hazards", "stream", "shutdown", "quit"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << "missing: " << cmd;
  }
  ::close(fd);
}

TEST_F(IntrospectProtocol, ListAndStatSeeALiveNamedLock) {
  qsv::core::QsvMutex mu(qsv::wait_policy::spin);
  if (mu.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::introspect::set_name(&mu, "wire-test-lock");
  mu.lock();
  mu.unlock();
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string list = request(fd, "list");
  EXPECT_NE(list.find("wire-test-lock"), std::string::npos);
  const std::string stat = request(fd, "stat wire-test-lock");
  EXPECT_NE(stat.find("wire-test-lock"), std::string::npos);
  EXPECT_NE(stat.find("acquisitions"), std::string::npos);
  ::close(fd);
}

TEST_F(IntrospectProtocol, HazardsReportsHistoryLines) {
  qsv::obs::clear_hazard_log();
  qsv::obs::record_hazard("wire-test inversion X -> Y");
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string hazards = request(fd, "hazards");
#if QSV_OBS
  EXPECT_NE(hazards.find("history"), std::string::npos);
  EXPECT_NE(hazards.find("wire-test inversion"), std::string::npos);
#endif
  ::close(fd);
  qsv::obs::clear_hazard_log();
}

TEST_F(IntrospectProtocol, StreamEmitsTheRequestedTickCount) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string out = request(fd, "stream 3 10");
  std::size_t ticks = 0, pos = 0;
  while ((pos = out.find("tick ", pos)) != std::string::npos) {
    ++ticks;
    pos += 5;
  }
  EXPECT_EQ(ticks, 3u);
  ::close(fd);
}

TEST_F(IntrospectProtocol, QuitClosesTheConnection) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string bye = request(fd, "quit");
  EXPECT_NE(bye.find("ok bye"), std::string::npos);
  // The server closed its side; the next read returns EOF.
  char c;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
  // The endpoint itself keeps serving (quit is per-connection).
  EXPECT_TRUE(qsv::introspect::serving());
}

TEST_F(IntrospectMalformed, UnknownAndIllFormedCommandsAreRejected) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  EXPECT_NE(request(fd, "frobnicate").find("err unknown command"),
            std::string::npos);
  EXPECT_NE(request(fd, "stat").find("err stat needs a lock name"),
            std::string::npos);
  EXPECT_NE(request(fd, "stat definitely-not-registered").find("err no such"),
            std::string::npos);
  EXPECT_NE(request(fd, "stream").find("err stream needs"),
            std::string::npos);
  EXPECT_NE(request(fd, "stream 0").find("err stream needs"),
            std::string::npos);
  EXPECT_NE(request(fd, "stream abc").find("err stream needs"),
            std::string::npos);
  EXPECT_NE(request(fd, "stream 2 0").find("err bad stream interval"),
            std::string::npos);
  EXPECT_NE(request(fd, "hazards nope").find("err bad hold threshold"),
            std::string::npos);
  // A threshold is rejected once its nanosecond value overflows 64 bits
  // (past 18446744073709 ms), not wrapped into a tiny one.
  EXPECT_NE(request(fd, "hazards 18446744073710").find(
                "err bad hold threshold"),
            std::string::npos);
  EXPECT_NE(request(fd, "hazards 1000 76480200929599801")
                .find("err bad starvation threshold"),
            std::string::npos);
  EXPECT_EQ(request(fd, "hazards 18446744073709 18446744073709").find("err"),
            std::string::npos);
  // A command survives surrounding whitespace.
  EXPECT_NE(request(fd, "   help   ").find("commands:"), std::string::npos);
  ::close(fd);
}

TEST_F(IntrospectMalformed, OverlongLinesAreRejectedNotBuffered) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string flood(2048, 'x');  // no newline: exceeds kMaxLine
  ASSERT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(flood.size()));
  // The server rejects the unbounded line on its own — no command to
  // send; just read the error it pushes before closing.
  const std::string out = read_response(fd);
  EXPECT_NE(out.find("err line too long"), std::string::npos);
  ::close(fd);
}

/// Out-of-process: launch the real `qsvbench --introspect=0`, parse
/// the banner for the bound port, drive the protocol over TCP, and
/// shut the process down through the endpoint.
TEST(IntrospectLive, QsvbenchServesAndShutsDownOverTheWire) {
  if (::access("./qsvbench", X_OK) != 0) {
    GTEST_SKIP() << "qsvbench not in the working directory";
  }
  FILE* proc = ::popen("./qsvbench --introspect=0 2>/dev/null", "r");
  ASSERT_NE(proc, nullptr);
  // Banner: "introspect: listening on 127.0.0.1:<port>"
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), proc), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "introspect: listening on 127.0.0.1:%u", &port),
            1)
      << "unexpected banner: " << line;
  ASSERT_GT(port, 0u);
  ASSERT_LT(port, 65536u);

  const int fd = connect_to(static_cast<std::uint16_t>(port));
  ASSERT_GE(fd, 0);
  const std::string help = request(fd, "help");
  EXPECT_NE(help.find("commands:"), std::string::npos);
  const std::string list = request(fd, "list");
#if QSV_OBS
  // The demo workload names its two locks.
  EXPECT_NE(list.find("ledger"), std::string::npos);
  EXPECT_NE(list.find("journal"), std::string::npos);
  const std::string stat = request(fd, "stat ledger");
  EXPECT_NE(stat.find("acquisitions"), std::string::npos);
#endif
  const std::string hazards = request(fd, "hazards");
  EXPECT_EQ(hazards.find("err"), std::string::npos);
  const std::string down = request(fd, "shutdown");
  EXPECT_NE(down.find("ok shutting down"), std::string::npos);
  ::close(fd);
  // The process notices the shutdown request and exits cleanly.
  const int rc = ::pclose(proc);
  EXPECT_EQ(rc, 0);
}

}  // namespace
