// perf_replay: the benchmark's traced run. Replays one workload's seeded
// inputs in-process through each layer's public functions and records a
// span around every call (name, start, end, parent, request id). Spans stay
// in memory and are written at exit as Chrome trace-event JSON; the
// per-layer numbers go to a JSON file for perfbench/run.py.
//
//   perf_replay <plan-file>
//
// Plan lines (written by perfbench/run.py):
//   serve_ini <path>        daemon config: trace, models, mesh, network
//   timings <csv>           `simulate --timings` output (model fits)
//   work <dir>              scratch files (access log)
//   chrome <path>           Chrome trace output
//   out <path>              metrics JSON output
//   miss <R> <mapper> <filter>   one solo /v1/predict miss to replay
//   warm <path> <json body>      one warm request (serve-stack layers)
//
// No code here runs inside src/: every number is a public call timed from
// outside, so the replay measures exactly what the daemon executes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bsst/trace_sim.hpp"
#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "mapping/mapper.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"
#include "model/model_set.hpp"
#include "picsim/instrumentation.hpp"
#include "serve/access_log.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/http.hpp"
#include "serve/http_parser.hpp"
#include "serve/request_trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_reader.hpp"
#include "util/config.hpp"
#include "workload/generator.hpp"

namespace {

using namespace picp;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

// --- spans -------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  double start_us;
  double end_us;
  int parent;   // index into spans, -1 for a root
  int request;  // replayed request id
};

/// In-memory span recorder. Off = Span objects cost one branch, which is
/// how trace.overhead_pct compares traced and untraced replays.
class Tracer {
 public:
  bool on = true;
  int request = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> stack;
  const Clock::time_point origin = Clock::now();

  double now() const { return us_since(origin); }
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracer.on) return;
    index_ = static_cast<int>(g_tracer.spans.size());
    g_tracer.spans.push_back({name, g_tracer.now(), 0.0,
                              g_tracer.stack.empty() ? -1
                                                     : g_tracer.stack.back(),
                              g_tracer.request});
    g_tracer.stack.push_back(index_);
  }
  ~Span() {
    if (index_ < 0) return;
    g_tracer.spans[static_cast<std::size_t>(index_)].end_us = g_tracer.now();
    g_tracer.stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Self time of every span: its duration minus what its children cover.
std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_us - spans[i].start_us;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    Json args = Json::object();
    args.set("request", Json(static_cast<std::int64_t>(s.request)));
    args.set("span", Json(static_cast<std::int64_t>(i)));
    args.set("parent", Json(static_cast<std::int64_t>(s.parent)));
    Json e = Json::object();
    e.set("name", Json(s.name));
    e.set("cat", Json("perfbench"));
    e.set("ph", Json("X"));
    e.set("ts", Json(s.start_us));
    e.set("dur", Json(s.end_us - s.start_us));
    e.set("pid", Json(static_cast<std::int64_t>(1)));
    e.set("tid", Json(static_cast<std::int64_t>(1)));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", Json("ms"));
  std::ofstream(path) << root.dump() << "\n";
}

// --- helpers -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct MissConfig {
  Rank ranks;
  std::string mapper;
  double filter;
};

struct WarmRequest {
  std::string path;
  std::string body;
};

struct Plan {
  std::string serve_ini, timings, work, chrome, out;
  std::vector<MissConfig> misses;
  std::vector<WarmRequest> warm;
};

Plan read_plan(const char* path) {
  std::ifstream in(path);
  PICP_REQUIRE(in.is_open(), std::string("cannot read plan ") + path);
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string tag;
    f >> tag;
    if (tag == "serve_ini") f >> plan.serve_ini;
    else if (tag == "timings") f >> plan.timings;
    else if (tag == "work") f >> plan.work;
    else if (tag == "chrome") f >> plan.chrome;
    else if (tag == "out") f >> plan.out;
    else if (tag == "miss") {
      MissConfig m{};
      f >> m.ranks >> m.mapper >> m.filter;
      plan.misses.push_back(m);
    } else if (tag == "warm") {
      WarmRequest w;
      f >> w.path;
      std::getline(f, w.body);
      if (!w.body.empty() && w.body[0] == ' ') w.body.erase(0, 1);
      plan.warm.push_back(w);
    } else if (!tag.empty()) {
      throw Error("unknown plan line: " + line);
    }
  }
  return plan;
}

serve::HttpRequest make_request(const WarmRequest& w) {
  serve::HttpRequest r;
  r.method = "POST";
  r.target = w.path;
  r.version = "HTTP/1.1";
  r.headers = {{"content-type", "application/json"},
               {"content-length", std::to_string(w.body.size())}};
  r.body = w.body;
  r.from_loopback = true;
  return r;
}

std::string wire_bytes(const WarmRequest& w) {
  return "POST " + w.path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(w.body.size()) + "\r\n\r\n" + w.body;
}

// --- cold path: one solo /v1/predict miss, layer by layer --------------------

/// Forwards every call to the program's mapper and puts a span around map(),
/// so the program's own WorkloadGenerator runs unchanged and the self time
/// of its span is the accumulation alone.
class TimedMapper final : public Mapper {
 public:
  explicit TimedMapper(std::unique_ptr<Mapper> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Rank num_ranks() const override { return inner_->num_ranks(); }
  void map(std::span<const Vec3> positions,
           std::vector<Rank>& owners) override {
    const Span span("mapping.map");
    inner_->map(positions, owners);
  }
  Rank owner_of_point(const Vec3& p) const override {
    return inner_->owner_of_point(p);
  }
  std::int64_t num_partitions() const override {
    return inner_->num_partitions();
  }

 private:
  std::unique_ptr<Mapper> inner_;
};

struct MissResult {
  std::uint64_t events = 0;
  double predicted_seconds = 0;
  double partitions = 0;
  std::int64_t ghosts = 0, migrations = 0;
  std::size_t intervals = 0;
};

std::vector<TraceSample> decode(const std::string& trace_path) {
  std::vector<TraceSample> samples;
  TraceReader reader(trace_path);
  TraceSample sample;
  while (reader.read_next(sample)) samples.push_back(sample);
  return samples;
}

/// The daemon's generate + simulate stages of one miss, as the public calls
/// PredictionPipeline makes, each under its own span.
MissResult replay_miss(const serve::ServiceConfig& sc, const SpectralMesh& mesh,
                       const ModelSet& models, const MissConfig& m) {
  MissResult r;
  const Span root("miss");
  const std::vector<TraceSample> samples = [&] {
    const Span span("trace.decode");
    return decode(sc.trace_path);
  }();
  const MeshPartition partition = [&] {
    const Span span("mesh.partition");
    return rcb_partition(mesh, m.ranks);
  }();
  TimedMapper mapper = [&] {
    const Span span("mapping.build");
    return TimedMapper(make_mapper(m.mapper, mesh, partition, m.filter));
  }();
  const WorkloadResult workload = [&] {
    const Span span("workload.generate");
    WorkloadParams params;
    params.ghost_radius = m.filter;
    WorkloadGenerator generator(mesh, partition, mapper, params);
    return generator.generate(samples);
  }();
  const Predictor predictor(models, m.filter);
  const TraceSimInput input = [&] {
    const Span span("core.sim_input");
    return predictor.sim_input(workload, sc.network);
  }();
  const SimReport sim = [&] {
    const Span span("bsst.des");
    return run_trace_simulation(input);
  }();
  r.events = sim.events;
  r.predicted_seconds = sim.total_seconds;
  double parts = 0;
  for (std::int64_t p : workload.partitions_per_interval)
    parts += static_cast<double>(p);
  r.partitions = parts / static_cast<double>(workload.num_intervals());
  r.ghosts = workload.comm_ghost.total_volume();
  r.migrations = workload.comm_real.total_volume();
  r.intervals = workload.num_intervals();
  return r;
}

/// The same miss through the program's PredictionService, with an armed
/// RequestTrace current: returns the µs of the service's own "render"
/// stages. The reply must carry the replay's prediction.
double service_render_us(serve::PredictionService& service,
                         const MissConfig& m, const MissResult& replayed) {
  char body[160];
  std::snprintf(body, sizeof body,
                "{\"ranks\":%lld,\"mapper\":\"%s\",\"filter\":%.17g}",
                static_cast<long long>(m.ranks), m.mapper.c_str(), m.filter);
  serve::RequestTrace trace(serve::ReactorClock{});
  trace.armed = true;
  serve::HttpResponse resp;
  {
    const Span span("serve.handle.miss");
    const serve::RequestTrace::Scope scope(&trace);
    resp = service.handle(make_request({"/v1/predict", body}));
  }
  if (resp.status != 200) throw Error("service miss failed: " + resp.body);
  const Json row = Json::parse(resp.body).find("results")->at(0);
  if (row.find("des_events")->as_uint() != replayed.events ||
      row.find("predicted_seconds")->as_double() != replayed.predicted_seconds)
    throw Error("PredictionService and the layer replay disagree at R=" +
                std::to_string(m.ranks));
  double us = 0;
  for (const serve::StageTiming& s : trace.stages())
    if (std::string(s.name) == "render") us += s.dur_us;
  return us;
}

/// Wall µs of the program's WorkloadGenerator alone (mapping included), for
/// the ghost / comm differences.
double generate_us(const SpectralMesh& mesh, const MissConfig& m,
                   const std::vector<TraceSample>& samples, bool ghosts,
                   bool comm) {
  const MeshPartition partition = rcb_partition(mesh, m.ranks);
  auto mapper = make_mapper(m.mapper, mesh, partition, m.filter);
  WorkloadParams params;
  params.ghost_radius = m.filter;
  params.compute_ghosts = ghosts;
  params.compute_comm = comm;
  WorkloadGenerator generator(mesh, partition, *mapper, params);
  const auto start = Clock::now();
  const WorkloadResult w = generator.generate(samples);
  const double us = us_since(start);
  if (w.num_intervals() != samples.size()) std::abort();
  return us;
}

// --- warm path: serve-stack layers -------------------------------------------

std::vector<double> time_handler(serve::PredictionService& service,
                                 const std::vector<serve::HttpRequest>& reqs,
                                 std::size_t n) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const serve::HttpRequest& req = reqs[i % reqs.size()];
    const Span span("serve.handle");
    const auto start = Clock::now();
    const serve::HttpResponse resp = service.handle(req);
    us.push_back(us_since(start));
    if (resp.status != 200) throw Error("warm request failed: " + resp.body);
  }
  return us;
}

double parse_us_per_request(const std::vector<WarmRequest>& warm,
                            std::size_t n) {
  std::string bytes;
  for (std::size_t i = 0; i < n; ++i) bytes += wire_bytes(warm[i % warm.size()]);
  serve::RequestParser parser{serve::HttpLimits{}};
  serve::HttpRequest req;
  std::size_t parsed = 0;
  const Span span("serve.http_parser");
  const auto start = Clock::now();
  for (std::size_t off = 0; off < bytes.size(); off += 4096) {
    parser.feed(bytes.data() + off, std::min<std::size_t>(4096, bytes.size() - off));
    while (parser.next(req)) ++parsed;
  }
  const double us = us_since(start);
  if (parsed != n) throw Error("parser returned a different request count");
  return us / static_cast<double>(n);
}

/// Client latency minus handler time, over an in-process HttpServer whose
/// handler is the service, timed. One keep-alive connection, closed loop.
std::vector<double> reactor_overhead(serve::PredictionService& service,
                                     const std::vector<serve::HttpRequest>& reqs,
                                     std::size_t n) {
  std::vector<double> handler_us(n, 0.0);
  std::atomic<std::size_t> current{0};
  serve::ServerOptions options;
  options.threads = 2;
  serve::HttpServer server(options, [&](const serve::HttpRequest& r) {
    const auto start = Clock::now();
    serve::HttpResponse resp = service.handle(r);
    handler_us[current] = us_since(start);
    return resp;
  });
  std::thread loop([&server] { server.run(); });
  std::vector<double> overhead;
  try {
    serve::HttpConnection conn(serve::connect_tcp("127.0.0.1", server.port()));
    for (; current < n; current.fetch_add(1)) {
      const serve::HttpRequest& req = reqs[current % reqs.size()];
      const Span span("serve.reactor");
      const auto start = Clock::now();
      conn.write_request(req, "127.0.0.1");
      serve::HttpResponse resp;
      if (!conn.read_response(resp, serve::HttpLimits{}) || resp.status != 200)
        throw Error("reactor replay request failed");
      overhead.push_back(us_since(start) - handler_us[current]);
    }
  } catch (...) {
    server.request_shutdown();
    loop.join();
    throw;
  }
  server.request_shutdown();
  loop.join();
  return overhead;
}

template <typename F>
double mean_us(std::size_t n, F&& f) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) f(i);
  return us_since(start) / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perf_replay <plan-file>\n");
    return 2;
  }
  try {
    const Plan plan = read_plan(argv[1]);
    telemetry::configure(telemetry::SessionOptions{});
    const serve::ServiceConfig sc =
        serve::ServiceConfig::from_config(Config::from_file(plan.serve_ini));
    const SpectralMesh mesh = [&] {
      TraceReader probe(sc.trace_path);
      return SpectralMesh(probe.header().domain, sc.nelx, sc.nely, sc.nelz,
                          sc.points_per_dim);
    }();
    const ModelSet models = ModelSet::load(sc.models_path);
    Json out = Json::object();
    const auto put = [&out](const std::string& name, double value) {
      out.set(name, Json(value));
    };

    serve::PredictionService service(sc);

    // Cold path. The traced pass whose spans give the layer numbers comes
    // first, so that it meets each miss as the solo daemon does. Then each
    // miss again traced and untraced, the order alternating from miss to
    // miss, for trace.overhead_pct; the spans of that pass are dropped.
    std::vector<MissResult> misses;
    for (std::size_t i = 0; i < plan.misses.size(); ++i) {
      g_tracer.request = static_cast<int>(i);
      misses.push_back(replay_miss(sc, mesh, models, plan.misses[i]));
    }
    const std::size_t layer_spans = g_tracer.spans.size();
    double traced_us = 0, untraced_us = 0;
    for (std::size_t i = 0; i < plan.misses.size(); ++i) {
      for (int pass = 0; pass < 2; ++pass) {
        g_tracer.on = (pass == 0) == (i % 2 == 0);
        const auto start = Clock::now();
        replay_miss(sc, mesh, models, plan.misses[i]);
        (g_tracer.on ? traced_us : untraced_us) += us_since(start);
      }
    }
    g_tracer.spans.resize(layer_spans);
    g_tracer.on = true;
    put("trace.overhead_pct", 100.0 * (traced_us - untraced_us) / untraced_us);

    // Render is a private stage of the service: its time comes from the
    // service's own RequestTrace on the same misses.
    std::vector<double> render_ms;
    for (std::size_t i = 0; i < plan.misses.size(); ++i) {
      g_tracer.request = static_cast<int>(i);
      render_ms.push_back(
          service_render_us(service, plan.misses[i], misses[i]) / 1e3);
    }

    const std::vector<double> self = self_times(g_tracer.spans);
    std::vector<std::vector<double>> by_request(plan.misses.size());
    const char* kLayers[] = {"trace.decode", "mesh.partition", "mapping.build",
                             "mapping.map", "workload.generate",
                             "core.sim_input", "bsst.des"};
    for (auto& v : by_request) v.assign(std::size(kLayers), 0.0);
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
      const SpanRecord& s = g_tracer.spans[i];
      for (std::size_t l = 0; l < std::size(kLayers); ++l)
        if (std::string(s.name) == kLayers[l])
          by_request[static_cast<std::size_t>(s.request)][l] += self[i] / 1e3;
    }
    Json per_miss = Json::array();
    std::vector<double> layer_sum_ms, decode_share;
    for (std::size_t i = 0; i < misses.size(); ++i) {
      double sum = render_ms[i];
      for (double v : by_request[i]) sum += v;
      layer_sum_ms.push_back(sum);
      decode_share.push_back(by_request[i][0] / sum);
      Json row = Json::object();
      row.set("ranks", Json(static_cast<std::int64_t>(plan.misses[i].ranks)));
      row.set("mapper", Json(plan.misses[i].mapper));
      row.set("filter", Json(plan.misses[i].filter));
      row.set("layer_sum_ms", Json(sum));
      row.set("des_events", Json(misses[i].events));
      row.set("predicted_seconds", Json(misses[i].predicted_seconds));
      per_miss.push_back(std::move(row));
    }
    const auto layer_ms = [&](std::size_t l) {
      std::vector<double> v;
      for (const auto& r : by_request) v.push_back(r[l]);
      return mean(v);
    };
    put("trace.decode_ms", layer_ms(0));
    put("trace.decode_share", quantile(decode_share, 0.5));
    put("mesh.partition_ms", layer_ms(1));
    put("mapping.build_ms", layer_ms(2));
    put("mapping.map_ms", layer_ms(3));
    // The generator's span less its mapper calls: the accumulation.
    put("workload.accumulate_ms", layer_ms(4));
    put("core.sim_input_ms", layer_ms(5));
    put("bsst.des_ms", layer_ms(6));
    put("serve.render_ms", mean(render_ms));
    put("replay.miss_p50_ms", quantile(layer_sum_ms, 0.5));
    {
      std::vector<double> events, parts, ghosts, moves, intervals, eps;
      for (std::size_t i = 0; i < misses.size(); ++i) {
        events.push_back(static_cast<double>(misses[i].events));
        parts.push_back(misses[i].partitions);
        ghosts.push_back(static_cast<double>(misses[i].ghosts));
        moves.push_back(static_cast<double>(misses[i].migrations));
        intervals.push_back(static_cast<double>(misses[i].intervals));
        eps.push_back(static_cast<double>(misses[i].events) /
                      (by_request[i][6] / 1e3));
      }
      put("bsst.events", mean(events));
      put("bsst.events_per_s", quantile(eps, 0.5));
      put("mapping.partitions", mean(parts));
      put("workload.ghost_transfers", mean(ghosts));
      put("workload.migrations", mean(moves));
      put("workload.intervals", mean(intervals));
    }
    {
      // Ghost and comm accounting: the generator with each switched off.
      g_tracer.on = false;
      const std::vector<TraceSample> samples = decode(sc.trace_path);
      put("trace.samples", static_cast<double>(samples.size()));
      put("trace.bytes",
          static_cast<double>(std::filesystem::file_size(sc.trace_path)));
      std::vector<double> ghost, comm;
      for (const MissConfig& m : plan.misses) {
        const double full = generate_us(mesh, m, samples, true, true);
        ghost.push_back((full - generate_us(mesh, m, samples, false, true)) / 1e3);
        comm.push_back((full - generate_us(mesh, m, samples, true, false)) / 1e3);
      }
      put("workload.ghost_ms", mean(ghost));
      put("workload.comm_ms", mean(comm));
      g_tracer.on = true;
    }

    // Warm path: the serve stack in-process on the workload's hot bodies.
    g_tracer.request = static_cast<int>(plan.misses.size());
    std::vector<serve::HttpRequest> reqs;
    for (const WarmRequest& w : plan.warm) reqs.push_back(make_request(w));
    for (const serve::HttpRequest& r : reqs) service.handle(r);  // warm-up
    const std::size_t n = 4000;
    const std::vector<double> handler = time_handler(service, reqs, n);
    put("handler.us.p50", quantile(handler, 0.5));
    put("handler.us.p99", quantile(handler, 0.99));
    put("parse.us_per_req", parse_us_per_request(plan.warm, n));
    const std::vector<double> reactor = reactor_overhead(service, reqs, n);
    put("reactor.us.p50", quantile(reactor, 0.5));
    put("reactor.us.p99", quantile(reactor, 0.99));
    {
      serve::ArtifactCache<std::string> cache(256);
      cache.get_or_compute(42, [] { return std::string(1024, 'x'); });
      const Span span("serve.artifact_cache");
      put("cache.hit_us", mean_us(100000, [&cache](std::size_t) {
            if (cache.get_or_compute(42, [] { return std::string(); })->empty())
              std::abort();
          }));
    }
    {
      serve::AccessLogOptions options;
      options.path = plan.work + "/replay_access.log";
      serve::AccessLog log(options);
      serve::RequestTrace trace(serve::ReactorClock{});
      trace.id = "p-0123456789abcdef";
      trace.method = "POST";
      trace.path = "/v1/predict";
      trace.peer = "127.0.0.1:40000";
      trace.status = 200;
      trace.cache_tier = "hit";
      trace.total_us = 120.0;
      trace.handler_us = 9.0;
      const Span span("serve.access_log");
      put("access_log.us_per_line",
          mean_us(20000, [&](std::size_t) { log.write(trace); }));
    }
    {
      const double bounds[] = {1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6};
      const Span span("telemetry.registry");
      put("registry.observe_us", mean_us(200000, [&](std::size_t i) {
            telemetry::registry()
                .histogram("perfbench.observe", bounds)
                .observe(static_cast<double>(i % 1000));
          }));
    }

    // Model generator: one fit per kernel on that kernel's rows.
    {
      const KernelTimings all = KernelTimings::load_csv(plan.timings);
      const ModelGenConfig config;  // `picpredict train` defaults
      for (int k = 0; k < kNumKernels; ++k) {
        KernelTimings rows;
        for (const TimingRecord& r : all.for_kernel(static_cast<Kernel>(k)))
          rows.add(r);
        if (rows.empty()) continue;
        const Span span("model.fit");
        const auto start = Clock::now();
        train_models(rows, config, nullptr);
        put(std::string("model.fit_s.") + kernel_name(static_cast<Kernel>(k)),
            us_since(start) / 1e6);
      }
    }

    // Self-time table per layer (all spans).
    {
      const std::vector<double> all_self = self_times(g_tracer.spans);
      std::vector<std::pair<std::string, std::pair<double, int>>> table;
      for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
        const std::string name = g_tracer.spans[i].name;
        auto it = std::find_if(table.begin(), table.end(),
                               [&](const auto& e) { return e.first == name; });
        if (it == table.end()) {
          table.push_back({name, {0.0, 0}});
          it = table.end() - 1;
        }
        it->second.first += all_self[i];
        it->second.second += 1;
      }
      std::printf("%-22s %8s %12s %12s\n", "layer (span)", "calls",
                  "self ms", "self us/call");
      for (const auto& [name, agg] : table)
        std::printf("%-22s %8d %12.3f %12.3f\n", name.c_str(), agg.second,
                    agg.first / 1e3, agg.first / agg.second);
    }
    write_chrome_trace(plan.chrome, g_tracer.spans);

    Json result = Json::object();
    result.set("metrics", std::move(out));
    result.set("misses", std::move(per_miss));
    std::ofstream(plan.out) << result.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_replay: %s\n", e.what());
    return 1;
  }
}
