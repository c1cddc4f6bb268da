// perf_load: one-thread HTTP/1.1 load generator for the picpredict daemon.
//
//   perf_load <plan-file>
//
// The plan (written by perfbench/run.py) is line oriented:
//
//   host <ipv4>             port <n>            conns <n>
//   drain_ms <n>            closed_limit_s <s>  closed_conns <c>...
//   R <id> <method> <path> [<json body to end of line>]   request table
//   O <conn> <due_us> <req> open-loop send, due <due_us> after the start
//   S <req>                 shared closed-loop queue, served by closed_conns
//
// Open-loop requests are pipelined on keep-alive connections and sent when
// due, whatever the daemon's state; closed-loop connections send their next
// queued request only after the previous reply. Every request prints one
// line:
//
//   <req> <conn> <O|S> <due_us> <sent_us> <done_us> <status> <body-fnv64>
//
// `due_us` is the schedule time for open-loop requests (latency is timed
// from it, so a stall also counts against every request queued behind it)
// and the send time for closed-loop ones. `sent_us - due_us` is how late
// the generator itself ran. Status 0 means the connection failed, -1 that
// the reply had not arrived when the drain budget ran out.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

double now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perf_load: %s\n", msg.c_str());
  std::exit(2);
}

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Open {
  int conn;
  double due_us;
  int req;
};

struct InFlight {
  int req;
  char kind;
  double due_us;
  double sent_us;
};

struct Conn {
  int fd = -1;
  bool writable_armed = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<InFlight> inflight;
};

struct Plan {
  std::string host = "127.0.0.1";
  int port = 0;
  int conns = 1;
  double drain_ms = 30000;
  double closed_limit_s = 0;
  std::vector<int> closed_conns;
  std::vector<std::string> wire;  // request id -> wire bytes
  std::vector<Open> opens;
  std::deque<int> closed_queue;
};

Plan read_plan(const char* path) {
  std::ifstream in(path);
  if (!in) die(std::string("cannot read plan ") + path);
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "host") {
      fields >> plan.host;
    } else if (tag == "port") {
      fields >> plan.port;
    } else if (tag == "conns") {
      fields >> plan.conns;
    } else if (tag == "drain_ms") {
      fields >> plan.drain_ms;
    } else if (tag == "closed_limit_s") {
      fields >> plan.closed_limit_s;
    } else if (tag == "closed_conns") {
      int c = 0;
      while (fields >> c) plan.closed_conns.push_back(c);
    } else if (tag == "R") {
      std::size_t id = 0;
      std::string method, target;
      fields >> id >> method >> target;
      std::string body;
      std::getline(fields, body);
      if (!body.empty() && body[0] == ' ') body.erase(0, 1);
      if (plan.wire.size() <= id) plan.wire.resize(id + 1);
      std::string wire = method + " " + target + " HTTP/1.1\r\nHost: " +
                         plan.host + "\r\n";
      if (!body.empty())
        wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n";
      wire += "\r\n" + body;
      plan.wire[id] = std::move(wire);
    } else if (tag == "O") {
      Open o{};
      fields >> o.conn >> o.due_us >> o.req;
      plan.opens.push_back(o);
    } else if (tag == "S") {
      int req = 0;
      fields >> req;
      plan.closed_queue.push_back(req);
    } else {
      die("unknown plan line: " + line);
    }
  }
  if (plan.port <= 0 || plan.conns < 1) die("plan needs port and conns");
  for (const Open& o : plan.opens)
    if (o.conn < 0 || o.conn >= plan.conns || o.req < 0 ||
        static_cast<std::size_t>(o.req) >= plan.wire.size())
      die("open entry out of range");
  for (int c : plan.closed_conns)
    if (c < 0 || c >= plan.conns) die("closed conn out of range");
  for (int r : plan.closed_queue)
    if (r < 0 || static_cast<std::size_t>(r) >= plan.wire.size())
      die("closed entry out of range");
  return plan;
}

class Generator {
 public:
  explicit Generator(Plan plan) : plan_(std::move(plan)) {
    epoll_ = epoll_create1(0);
    if (epoll_ < 0) die("epoll_create1");
    // Open-loop sends wake on an absolute timer: sleeping (not spinning)
    // leaves the cores to the daemon.
    timer_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (timer_ < 0) die("timerfd_create");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    if (epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &ev) != 0) die("epoll_ctl");
    conns_.resize(static_cast<std::size_t>(plan_.conns));
    for (std::size_t c = 0; c < conns_.size(); ++c) connect_conn(c);
  }
  ~Generator() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    ::close(timer_);
    ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run() {
    t0_ = now_us();
    std::size_t next_open = 0;
    double last_issue_us = 0;
    epoll_event events[16];
    for (;;) {
      double t = now_us() - t0_;
      while (next_open < plan_.opens.size() &&
             plan_.opens[next_open].due_us <= t) {
        const Open& o = plan_.opens[next_open++];
        issue(static_cast<std::size_t>(o.conn), o.req, 'O', o.due_us, t);
        last_issue_us = t;
      }
      const bool closed_open =
          plan_.closed_limit_s <= 0 || t < plan_.closed_limit_s * 1e6;
      for (int c : plan_.closed_conns) {
        Conn& conn = conns_[static_cast<std::size_t>(c)];
        if (!closed_open || plan_.closed_queue.empty() ||
            !conn.inflight.empty())
          continue;
        const int req = plan_.closed_queue.front();
        plan_.closed_queue.pop_front();
        issue(static_cast<std::size_t>(c), req, 'S', t, t);
        last_issue_us = t;
      }

      const bool more_to_issue =
          next_open < plan_.opens.size() ||
          (closed_open && !plan_.closed_queue.empty());
      std::size_t inflight = 0;
      for (const Conn& c : conns_) inflight += c.inflight.size();
      if (!more_to_issue && inflight == 0) break;
      if (!more_to_issue && t - last_issue_us > plan_.drain_ms * 1e3) break;

      if (next_open < plan_.opens.size()) arm_timer(plan_.opens[next_open].due_us);
      const int n = epoll_wait(epoll_, events, 16, 50);
      if (n < 0 && errno != EINTR) die("epoll_wait");
      for (int i = 0; i < n; ++i) {
        const std::size_t c = events[i].data.u64;
        if (c == kTimerTag) {
          std::uint64_t expirations = 0;
          if (::read(timer_, &expirations, sizeof expirations) < 0) {}
          continue;
        }
        if (conns_[c].fd < 0) continue;
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(c);
        if (conns_[c].fd >= 0 && (events[i].events & EPOLLOUT)) flush(c);
      }
    }
    for (Conn& conn : conns_) {
      for (const InFlight& f : conn.inflight)
        print(f, static_cast<std::size_t>(&conn - conns_.data()), -1, -1, 0);
      conn.inflight.clear();
    }
  }

 private:
  static constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};

  void arm_timer(double due_us) {
    const double at = t0_ + due_us;
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(at / 1e6);
    spec.it_value.tv_nsec =
        static_cast<long>((at - static_cast<double>(spec.it_value.tv_sec) * 1e6) * 1e3);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0)
      spec.it_value.tv_nsec = 1;
    timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void connect_conn(std::size_t c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) die("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(plan_.port));
    if (inet_pton(AF_INET, plan_.host.c_str(), &addr.sin_addr) != 1)
      die("bad host " + plan_.host);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      die(std::string("connect: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    if (epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev) != 0) die("epoll_ctl");
    Conn& conn = conns_[c];
    conn = Conn{};
    conn.fd = fd;
  }

  void issue(std::size_t c, int req, char kind, double due_us,
             double sent_us) {
    if (conns_[c].fd < 0) connect_conn(c);
    Conn& conn = conns_[c];
    conn.out += plan_.wire[static_cast<std::size_t>(req)];
    conn.inflight.push_back({req, kind, due_us, sent_us});
    flush(c);
  }

  void set_writable(std::size_t c, bool on) {
    Conn& conn = conns_[c];
    if (conn.writable_armed == on) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.writable_armed = on;
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_writable(c, true);
        return;
      } else {
        fail_conn(c);
        return;
      }
    }
    conn.out.clear();
    conn.out_off = 0;
    set_writable(c, false);
  }

  void on_readable(std::size_t c) {
    char buf[65536];
    for (;;) {
      Conn& conn = conns_[c];
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        parse(c);
        if (conns_[c].fd < 0) return;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail_conn(c);  // peer closed or error
      return;
    }
  }

  void parse(std::size_t c) {
    Conn& conn = conns_[c];
    for (;;) {
      const std::size_t head_end = conn.in.find("\r\n\r\n", conn.in_off);
      if (head_end == std::string::npos) break;
      const std::string head =
          conn.in.substr(conn.in_off, head_end - conn.in_off);
      int status = 0;
      if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
        fail_conn(c);
        return;
      }
      status = std::atoi(head.c_str() + head.find(' ') + 1);
      std::size_t length = 0;
      std::size_t pos = 0;
      while ((pos = head.find("\r\n", pos)) != std::string::npos) {
        pos += 2;
        if (strncasecmp(head.c_str() + pos, "content-length:", 15) == 0)
          length = std::strtoull(head.c_str() + pos + 15, nullptr, 10);
      }
      const std::size_t body_at = head_end + 4;
      if (conn.in.size() < body_at + length) break;
      const double done = now_us() - t0_;
      if (conn.inflight.empty()) {
        fail_conn(c);  // a reply nobody asked for
        return;
      }
      const InFlight f = conn.inflight.front();
      conn.inflight.pop_front();
      print(f, c, done, status, fnv1a(conn.in.data() + body_at, length));
      conn.in_off = body_at + length;
    }
    if (conn.in_off > 0 && conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    } else if (conn.in_off > (1u << 20)) {
      conn.in.erase(0, conn.in_off);
      conn.in_off = 0;
    }
  }

  void fail_conn(std::size_t c) {
    Conn& conn = conns_[c];
    const double t = now_us() - t0_;
    for (const InFlight& f : conn.inflight) print(f, c, t, 0, 0);
    epoll_ctl(epoll_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn = Conn{};
  }

  void print(const InFlight& f, std::size_t c, double done_us, int status,
             std::uint64_t hash) {
    std::printf("%d %zu %c %.1f %.1f %.1f %d %016llx\n", f.req, c, f.kind,
                f.due_us, f.sent_us, done_us, status,
                static_cast<unsigned long long>(hash));
  }

  Plan plan_;
  int epoll_ = -1;
  int timer_ = -1;
  std::vector<Conn> conns_;
  double t0_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) die("usage: perf_load <plan-file>");
  static char outbuf[1 << 20];
  std::setvbuf(stdout, outbuf, _IOFBF, sizeof outbuf);
  Generator generator(read_plan(argv[1]));
  generator.run();
  std::fflush(stdout);
  return 0;
}
