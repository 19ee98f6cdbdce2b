#ifndef OXML_SERVER_SERVER_H_
#define OXML_SERVER_SERVER_H_

// The OXWP v1 TCP front end (docs/INTERNALS.md §13).
//
// A poll()-based loop on a dedicated thread owns all socket reads: it
// accepts connections, splits the byte stream into frames, and hands each
// frame to a worker pool (ThreadPool::Submit). Frames are strictly ordered
// per connection — one frame executes at a time, the next is dispatched
// when the previous finishes — with two exceptions baked into the design:
//
//   * kCancel is handled on the poll thread itself, while the session's
//     statement is still executing on a worker. That is the out-of-band
//     cancellation path: it resolves the session's in-flight statement id
//     and forwards to Database::Cancel.
//   * Transaction-control frames (kCommit / kRollback / kGoodbye) and
//     disconnect cleanup run on a separate single-thread control lane, so
//     the commit that releases gate-waiting mutations can never be starved
//     by a worker pool full of statements gate-waiting on that very
//     transaction.
//
// Statement execution itself is admission-gated by the SessionManager; a
// full queue surfaces as a kResourceExhausted error frame, never a hang.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/core/ordered_store.h"
#include "src/relational/database.h"
#include "src/server/session.h"
#include "src/server/wire_protocol.h"

namespace oxml {

class ThreadPool;

namespace server {

struct ServerOptions {
  /// Loopback by default: the auth stub is not an authentication system.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via port() after Start().
  uint16_t port = 0;
  /// Workers executing statement frames (>= 1).
  size_t worker_threads = 4;
  /// Accept backlog.
  int listen_backlog = 64;
  /// When non-empty, kHello must carry this token (stub authentication).
  std::string auth_token;
  /// Session + admission limits.
  SessionManagerOptions session;
  /// Poll timeout; also the idle-reap sweep cadence.
  int64_t sweep_interval_ms = 200;
};

/// Aggregate server counters (relaxed atomics, monotone).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> cancels_received{0};
  std::atomic<uint64_t> sessions_reaped{0};
  std::atomic<uint64_t> protocol_errors{0};
};

/// A multi-client server over one embedded Database. The Database (and any
/// registered stores) must outlive the server; Stop() (or destruction)
/// closes every session, rolling back whatever transactions they own.
class OxmlServer {
 public:
  OxmlServer(Database* db, ServerOptions options);
  ~OxmlServer();

  OxmlServer(const OxmlServer&) = delete;
  OxmlServer& operator=(const OxmlServer&) = delete;

  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Exposes `store` to the kXPath frame under `name`. Re-registration
  /// replaces the pointer (the fuzz harness swaps stores on bulk reload).
  void RegisterStore(const std::string& name, OrderedXmlStore* store);
  void UnregisterStore(const std::string& name);

  SessionManager* session_manager() { return manager_.get(); }
  Database* database() const { return db_; }
  ServerStats* stats() { return &stats_; }

 private:
  struct Connection;

  void PollLoop();
  void AcceptPending();
  /// Reads everything available from the connection; extracts frames and
  /// dispatches them. Returns false when the connection died.
  bool ReadConnection(const std::shared_ptr<Connection>& conn);
  /// Queues `frame` (or handles kCancel inline) and pumps the dispatch.
  void EnqueueFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// Dispatches the next pending frame when none is executing.
  void PumpConnection(const std::shared_ptr<Connection>& conn);
  /// Executes one frame on a worker; then re-pumps.
  void ProcessFrame(std::shared_ptr<Connection> conn, Frame frame);
  void HandleHello(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  /// Begins teardown: stops polling the fd and schedules session cleanup
  /// on the control lane.
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SendFrame(const std::shared_ptr<Connection>& conn,
                 const std::string& bytes);
  void WakePoll();

  Database* db_;
  ServerOptions options_;
  std::unique_ptr<SessionManager> manager_;
  /// Statement-frame workers.
  std::unique_ptr<ThreadPool> exec_pool_;
  /// Single-thread control lane: commit/rollback/goodbye + disconnect
  /// cleanup (see file comment).
  std::unique_ptr<ThreadPool> control_pool_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::thread poll_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::map<int, std::shared_ptr<Connection>> conns_;  // keyed by fd

  std::mutex stores_mu_;
  std::map<std::string, OrderedXmlStore*> stores_;

  ServerStats stats_;
};

}  // namespace server
}  // namespace oxml

#endif  // OXML_SERVER_SERVER_H_
