// AimqServer: the TCP face of AimqService. Accept loop on its own thread,
// one session thread per connection, newline-delimited JSON per
// service/wire.h. Sessions are plain request/response: read a line, answer a
// line; protocol errors answer {"ok":false,...} and keep the connection
// open, transport errors close it.
//
// The same port also speaks just enough HTTP/1.1 for observability tooling:
// a first line starting with "GET " (never valid JSON) switches the session
// into one-shot HTTP mode. `GET /metrics` answers Prometheus text format
// 0.0.4, `GET /metrics.json` the same registry families as JSON
// (obs::MetricsRegistry::JsonSnapshot, also the body of the stats/metrics
// wire ops), `GET /trace` the Chrome trace-event dump (404 while tracing is
// disabled). The response
// carries Content-Length and Connection: close; the socket then closes.
//
// Stop() shuts the listening socket (unblocking accept), then shuts every
// live session socket (unblocking their reads) and joins all threads. The
// underlying AimqService is not stopped — it is owned by the caller and may
// serve in-process requests beyond the server's lifetime.

#ifndef AIMQ_SERVICE_SERVER_H_
#define AIMQ_SERVICE_SERVER_H_

#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.h"
#include "util/socket.h"
#include "util/status.h"

namespace aimq {

struct WireRequest;

/// \brief Thread-per-connection NDJSON/TCP server over one AimqService.
class AimqServer {
 public:
  /// \p service must be started and must outlive the server.
  AimqServer(AimqService* service, int port) : service_(service), port_(port) {}

  ~AimqServer();

  AimqServer(const AimqServer&) = delete;
  AimqServer& operator=(const AimqServer&) = delete;

  /// Binds and starts the accept thread. With port 0 the kernel picks a free
  /// port — read it back from port().
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Unblocks and joins the accept thread and every session. Idempotent.
  void Stop();

 private:
  void AcceptLoop();
  void Session(int fd);

  /// Handles one request line; returns the response line (sans '\n').
  std::string HandleLine(const std::string& line);

  /// Parses the rows array against the service schema, ingests, and
  /// publishes a snapshot; returns the response line (sans '\n').
  std::string HandleIngest(const WireRequest& request);

  /// Answers one HTTP GET (\p request_line already consumed) and returns;
  /// the caller closes the connection.
  void ServeHttp(int fd, const std::string& request_line, LineReader* reader);

  AimqService* service_;
  int port_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex mu_;
  bool stopping_ = false;                       // guarded by mu_
  std::unordered_map<int, std::thread> sessions_;  // fd -> thread, by mu_
  std::vector<std::thread> finished_sessions_;  // joined in Stop(), by mu_
};

}  // namespace aimq

#endif  // AIMQ_SERVICE_SERVER_H_
