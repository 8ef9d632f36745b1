// obs::ExpoServer implemented on the shared httpd core. Lives in
// ct_httpd (not ct_obs) because the event loop sits above obs in the
// layering; the obs header only carries a pimpl.
#include "ctwatch/obs/expo.hpp"

#include <sstream>
#include <vector>

#include "ctwatch/httpd/server.hpp"
#include "ctwatch/obs/metrics.hpp"
#include "ctwatch/obs/trace.hpp"

namespace ctwatch::obs {

namespace {

std::string trace_json(std::size_t limit) {
  const std::vector<SpanRecord> spans = Tracer::global().recent_spans(limit);
  std::ostringstream out;
  out << "{\"spans\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent_id
        << ",\"trace\":" << span.trace_id << ",\"thread\":" << span.thread_id << ",\"name\":\""
        << span.name << "\",\"start_us\":" << span.start_us << ",\"dur_us\":" << span.duration_us
        << "}";
  }
  out << "]}";
  return out.str();
}

httpd::Response text_ok(std::string body, const char* content_type) {
  httpd::Response response;
  response.status = 200;
  response.content_type = content_type;
  response.body = std::move(body);
  return response;
}

httpd::Router make_routes() {
  using httpd::Completion;
  using httpd::Request;
  httpd::Router router;
  router.get("/metrics", [](const Request&, Completion done) {
    done(text_ok(Registry::global().render_prometheus(),
                 "text/plain; version=0.0.4; charset=utf-8"));
  });
  router.get("/vars", [](const Request&, Completion done) {
    done(text_ok(Registry::global().render_json(), "application/json"));
  });
  router.get("/trace", [](const Request&, Completion done) {
    done(text_ok(trace_json(256), "application/json"));
  });
  const auto banner = [](const Request&, Completion done) {
    done(text_ok("ctwatch obs\n", "text/plain; charset=utf-8"));
  };
  router.get("/", banner);
  router.get("/healthz", banner);
  return router;
}

}  // namespace

struct ExpoServer::Impl {
  explicit Impl(const Options& options)
      : server(
            [&options] {
              httpd::ServerOptions server_options;
              server_options.port = options.port;
              server_options.bind_address = options.bind_address;
              server_options.workers = 1;
              server_options.max_connections = 64;
              return server_options;
            }(),
            make_routes()) {}

  httpd::Server server;
};

ExpoServer::ExpoServer() : ExpoServer(Options{}) {}
ExpoServer::ExpoServer(Options options) : impl_(std::make_unique<Impl>(options)) {}
ExpoServer::~ExpoServer() = default;

bool ExpoServer::start() { return impl_->server.start(); }
void ExpoServer::stop() { impl_->server.stop(); }
bool ExpoServer::running() const { return impl_->server.running(); }
std::uint16_t ExpoServer::port() const { return impl_->server.port(); }
std::uint64_t ExpoServer::requests_served() const { return impl_->server.requests_served(); }

}  // namespace ctwatch::obs
