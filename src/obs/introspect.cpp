// introspect.cpp — loopback TCP server for the introspection protocol.
#include "obs/introspect.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "platform/arch.hpp"

namespace qsv::obs {

namespace {

/// Server state. One server per process; `stop` is the only word
/// touched cross-thread after start.
struct Server {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> shutdown_requested{false};
};

Server& server() {
  static Server* s = new Server();  // leaked: joins are explicit
  return *s;
}

/// Full send (loopback; short writes only under memory pressure).
/// MSG_NOSIGNAL: a vanished client must not SIGPIPE the host process.
bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool reply(int fd, const std::string& payload) {
  return send_all(fd, payload + ".\n");
}

bool reply_err(int fd, const std::string& why) {
  return send_all(fd, "err " + why + "\n.\n");
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) words.push_back(line.substr(i, j - i));
    i = j;
  }
  return words;
}

/// Largest `hazards` threshold in ms whose nanosecond value fits in 64
/// bits (about 584 years).
constexpr std::uint64_t kMaxThresholdMs =
    std::numeric_limits<std::uint64_t>::max() / 1'000'000;

bool parse_ms(const std::string& word, std::uint64_t& out) {
  if (word.empty() ||
      word.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(word.c_str(), nullptr, 10);
  return true;
}

/// Aggregate acquisition counters across all records (stream deltas).
void totals(std::uint64_t& acq, std::uint64_t& contended) {
  acq = 0;
  contended = 0;
  for (const LockStats& st : snapshot()) {
    acq += st.acquisitions + st.shared_acquisitions;
    contended += st.contended;
  }
}

/// Handle `stream <n> [interval_ms]`: n ticks of aggregate deltas,
/// one line per tick, flushed as they happen.
bool handle_stream(Server& srv, int fd, const std::vector<std::string>& w) {
  std::uint64_t ticks = 0, interval_ms = 200;
  if (w.size() < 2 || !parse_ms(w[1], ticks) || ticks == 0) {
    return reply_err(fd, "stream needs a tick count >= 1");
  }
  if (w.size() >= 3 && (!parse_ms(w[2], interval_ms) || interval_ms == 0)) {
    return reply_err(fd, "bad stream interval");
  }
  if (ticks > 1000) ticks = 1000;
  if (interval_ms > 10'000) interval_ms = 10'000;
  std::uint64_t prev_acq = 0, prev_con = 0;
  totals(prev_acq, prev_con);
  for (std::uint64_t i = 0; i < ticks; ++i) {
    // relaxed: stop gate; the join in introspect_stop synchronizes.
    if (srv.stop.load(std::memory_order_relaxed)) break;
    qsv::platform::thread_sleep(std::chrono::milliseconds(interval_ms));
    std::uint64_t acq = 0, con = 0;
    totals(acq, con);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "tick %llu acq=%llu contended=%llu locks=%zu\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(acq - prev_acq),
                  static_cast<unsigned long long>(con - prev_con),
                  size());
    prev_acq = acq;
    prev_con = con;
    if (!send_all(fd, buf)) return false;
  }
  return send_all(fd, ".\n");
}

/// Dispatch one command line. Returns false when the connection is
/// done (quit/shutdown/IO error).
bool handle_line(Server& srv, int fd, const std::string& line) {
  const std::vector<std::string> w = split_words(line);
  if (w.empty()) return reply(fd, "");
  const std::string& cmd = w[0];
  if (cmd == "help") {
    return reply(fd,
                 "commands: help | list | stat <lock> | hazards "
                 "[hold_ms [starve_ms]] | stream <n> [interval_ms] | "
                 "shutdown | quit\n");
  }
  if (cmd == "list") {
    return reply(fd, dump());
  }
  if (cmd == "stat") {
    if (w.size() < 2) return reply_err(fd, "stat needs a lock name");
    const std::string text = dump_stat(w[1]);
    if (text.empty()) return reply_err(fd, "no such lock '" + w[1] + "'");
    return reply(fd, text);
  }
  if (cmd == "hazards") {
    std::uint64_t hold_ms = kDefaultLongHoldNs / 1'000'000;
    std::uint64_t starve_ms = kDefaultStarvationNs / 1'000'000;
    if (w.size() >= 2 &&
        (!parse_ms(w[1], hold_ms) || hold_ms > kMaxThresholdMs)) {
      return reply_err(fd, "bad hold threshold");
    }
    if (w.size() >= 3 &&
        (!parse_ms(w[2], starve_ms) || starve_ms > kMaxThresholdMs)) {
      return reply_err(fd, "bad starvation threshold");
    }
    std::string out;
    for (const std::string& h : hazard_log()) {
      out += "history " + h + "\n";
    }
    for (const std::string& h :
         detect_hazards(hold_ms * 1'000'000, starve_ms * 1'000'000)) {
      out += "live " + h + "\n";
    }
    return reply(fd, out);
  }
  if (cmd == "stream") {
    return handle_stream(srv, fd, w);
  }
  if (cmd == "shutdown") {
    // relaxed: advisory flag polled by the hosting serve loop.
    srv.shutdown_requested.store(true, std::memory_order_relaxed);
    reply(fd, "ok shutting down\n");
    return false;
  }
  if (cmd == "quit") {
    reply(fd, "ok bye\n");
    return false;
  }
  return reply_err(fd, "unknown command '" + cmd + "'");
}

/// Serve one client: buffered line reads, poll so stop stays
/// responsive, hard cap on line length (malformed input is rejected,
/// never buffered without bound).
void serve_client(Server& srv, int fd) {
  constexpr std::size_t kMaxLine = 512;
  std::string buf;
  char chunk[256];
  // relaxed: stop gate (see introspect_stop).
  while (!srv.stop.load(std::memory_order_relaxed)) {
    struct pollfd p {};
    p.fd = fd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!handle_line(srv, fd, line)) {
        ::close(fd);
        return;
      }
    }
    if (buf.size() > kMaxLine) {
      reply_err(fd, "line too long");
      break;
    }
  }
  ::close(fd);
}

void accept_loop(Server& srv) {
  // relaxed: stop gate (see introspect_stop).
  while (!srv.stop.load(std::memory_order_relaxed)) {
    struct pollfd p {};
    p.fd = srv.listen_fd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int client = ::accept(srv.listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    serve_client(srv, client);
  }
}

}  // namespace

std::uint16_t introspect_start(std::uint16_t port) {
  Server& srv = server();
  // relaxed: start/stop are caller-serialized; the thread join carries
  // any needed ordering.
  if (srv.running.load(std::memory_order_relaxed)) return srv.port;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 4) < 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    ::close(fd);
    return 0;
  }
  srv.listen_fd = fd;
  srv.port = ntohs(addr.sin_port);
  // relaxed: flags read by the new thread; std::thread construction
  // carries the happens-before.
  srv.stop.store(false, std::memory_order_relaxed);
  srv.shutdown_requested.store(false, std::memory_order_relaxed);  // relaxed: as above
  srv.thread = std::thread([&srv] { accept_loop(srv); });
  srv.running.store(true, std::memory_order_relaxed);  // relaxed: as above
  return srv.port;
}

void introspect_stop() {
  Server& srv = server();
  // relaxed: start/stop caller-serialized (see introspect_start).
  if (!srv.running.load(std::memory_order_relaxed)) return;
  srv.stop.store(true, std::memory_order_relaxed);  // relaxed: poll-gated
  if (srv.thread.joinable()) srv.thread.join();
  ::close(srv.listen_fd);
  srv.listen_fd = -1;
  srv.running.store(false, std::memory_order_relaxed);  // relaxed: as above
}

bool introspect_running() {
  // relaxed: advisory query.
  return server().running.load(std::memory_order_relaxed);
}

bool introspect_shutdown_requested() {
  // relaxed: advisory flag polled by the hosting serve loop.
  return server().shutdown_requested.load(std::memory_order_relaxed);
}

}  // namespace qsv::obs
