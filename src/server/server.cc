#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "src/core/xpath_eval.h"
#include "src/relational/thread_pool.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace server {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// The node signature the kXPath frame returns per result row. Matches the
/// DOM oracle's signature (tests/xpath_oracle_test.cc, fuzz harness) so
/// protocol clients can be compared byte-for-byte against the embedded
/// evaluator: attributes as "@name=value", everything else as the
/// serialized reconstructed subtree.
Result<std::string> NodeSignature(OrderedXmlStore* store, const StoredNode& n) {
  if (n.kind == XmlNodeKind::kAttribute) {
    return "@" + n.tag + "=" + n.value;
  }
  OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> subtree,
                        store->ReconstructSubtree(n));
  return WriteXml(*subtree);
}

}  // namespace

/// Per-connection state. The poll thread owns fd readiness and the read
/// buffer; workers execute at most one frame at a time (state_mu serializes
/// the pending queue + busy flag) and write replies under write_mu. The fd
/// is closed by the destructor, i.e. when the last shared_ptr — poll map,
/// in-flight worker, or cleanup task — lets go, so no thread can ever poll
/// or write a recycled descriptor.
struct OxmlServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  std::shared_ptr<Session> session;  // set by kHello

  std::string read_buf;  // poll thread only

  std::mutex state_mu;
  std::deque<Frame> pending;
  bool busy = false;
  bool closing = false;
  bool cleanup_scheduled = false;

  std::mutex write_mu;  // serializes socket writes across workers

  // The open result cursor (touched only by the worker executing this
  // connection's current frame; the busy-flag handoff under state_mu
  // orders access across workers).
  bool has_cursor = false;
  uint64_t cursor_tag = 0;
  ResultSet cursor;
  size_t cursor_pos = 0;
};

OxmlServer::OxmlServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

OxmlServer::~OxmlServer() { Stop(); }

Status OxmlServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server is already running");
  }
  if (options_.worker_threads == 0) options_.worker_threads = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind " + options_.host);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // Ephemeral-port support: read back whatever the kernel assigned.
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) <
      0) {
    Status st = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(bound.sin_port);
  OXML_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  if (::pipe(wake_pipe_) < 0) {
    Status st = Errno("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  manager_ = std::make_unique<SessionManager>(db_, options_.session);
  exec_pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  control_pool_ = std::make_unique<ThreadPool>(1);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void OxmlServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  WakePoll();
  if (poll_thread_.joinable()) poll_thread_.join();

  // Quiesce the pools in dependency order — exec workers schedule
  // disconnect cleanup onto the control lane, and the control lane's
  // kGoodbye path re-submits to itself — without nulling the members: a
  // draining worker that loaded stopping_ == false may still dereference
  // exec_pool_/control_pool_, so the pointers must stay valid until both
  // pools are joined. Only then is it safe to destroy them.
  if (exec_pool_ != nullptr) exec_pool_->Shutdown();
  if (control_pool_ != nullptr) control_pool_->Shutdown();
  exec_pool_.reset();
  control_pool_.reset();

  // Roll back whatever the surviving sessions own and drop the fds.
  std::map<int, std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [fd, conn] : conns) {
    (void)fd;
    if (conn->session) {
      conn->session->Kill();
      conn->session->Close();
      manager_->CloseSession(conn->session->id());
    }
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
  conns.clear();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void OxmlServer::RegisterStore(const std::string& name,
                               OrderedXmlStore* store) {
  std::lock_guard<std::mutex> lock(stores_mu_);
  stores_[name] = store;
}

void OxmlServer::UnregisterStore(const std::string& name) {
  std::lock_guard<std::mutex> lock(stores_mu_);
  stores_.erase(name);
}

void OxmlServer::WakePoll() {
  if (wake_pipe_[1] >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void OxmlServer::PollLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sweep connections flagged for teardown, then snapshot the live set.
    // The snapshot's shared_ptrs keep every polled fd open for the whole
    // iteration even if a worker flags the connection meanwhile.
    std::vector<std::shared_ptr<Connection>> live;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        bool closing;
        {
          std::lock_guard<std::mutex> st(it->second->state_mu);
          closing = it->second->closing;
        }
        if (closing) {
          it = conns_.erase(it);
        } else {
          live.push_back(it->second);
          ++it;
        }
      }
    }

    std::vector<pollfd> fds;
    fds.reserve(live.size() + 2);
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& conn : live) fds.push_back({conn->fd, POLLIN, 0});

    int rc = ::poll(fds.data(), fds.size(),
                    static_cast<int>(options_.sweep_interval_ms));
    if (stopping_.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; Stop() still cleans up
    }

    if (fds[1].revents & POLLIN) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) AcceptPending();

    for (size_t i = 0; i < live.size(); ++i) {
      short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) &&
          !(revents & POLLIN)) {
        CloseConnection(live[i]);
        continue;
      }
      if (revents & POLLIN) {
        if (!ReadConnection(live[i])) CloseConnection(live[i]);
      }
    }

    // Idle-session reaping rides the poll timeout. A reaped session's
    // connection is torn down too (its kills are visible via killed()).
    if (manager_ && options_.session.idle_timeout_ms > 0) {
      size_t reaped = manager_->ReapIdle();
      if (reaped > 0) {
        stats_.sessions_reaped.fetch_add(reaped, std::memory_order_relaxed);
        for (const auto& conn : live) {
          if (conn->session && conn->session->killed()) {
            CloseConnection(conn);
          }
        }
      }
    }
  }
}

void OxmlServer::AcceptPending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_[fd] = conn;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool OxmlServer::ReadConnection(const std::shared_ptr<Connection>& conn) {
  char buf[16384];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<size_t>(n));
      if (conn->read_buf.size() >
          kMaxFrameBytes + kFrameHeaderBytes + (16u << 10)) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return false;  // runaway buffer: client is not speaking OXWP
      }
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  while (true) {
    Frame frame;
    Result<bool> got = ExtractFrame(&conn->read_buf, &frame);
    if (!got.ok()) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendFrame(conn, EncodeError(0, got.status()));
      return false;
    }
    if (!*got) break;
    stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    EnqueueFrame(conn, std::move(frame));
  }
  return true;
}

void OxmlServer::EnqueueFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame) {
  if (frame.type == FrameType::kCancel) {
    // Out-of-band: handled here on the poll thread while the statement it
    // targets is still executing on a worker. Resolution goes through the
    // session's own in-flight slot, so a client can only ever cancel its
    // own statement. No reply — the cancelled statement's error frame (or
    // its normal result, if cancellation raced completion) is the signal.
    stats_.cancels_received.fetch_add(1, std::memory_order_relaxed);
    WireReader r(frame.body);
    auto tag = r.U64();
    if (tag.ok() && conn->session) (void)conn->session->Cancel(*tag);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    if (conn->closing) return;
    conn->pending.push_back(std::move(frame));
  }
  PumpConnection(conn);
}

void OxmlServer::PumpConnection(const std::shared_ptr<Connection>& conn) {
  if (stopping_.load(std::memory_order_acquire)) return;
  Frame frame;
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    if (conn->busy || conn->closing || conn->pending.empty()) return;
    frame = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->busy = true;
  }
  // Transaction-control frames go to the single-thread control lane: a
  // commit must be able to run even when every exec worker is gate-waiting
  // on the very transaction it would release.
  bool control = frame.type == FrameType::kCommit ||
                 frame.type == FrameType::kRollback ||
                 frame.type == FrameType::kGoodbye;
  ThreadPool* pool = control ? control_pool_.get() : exec_pool_.get();
  pool->Submit([this, conn, f = std::move(frame)]() mutable {
    ProcessFrame(conn, std::move(f));
  });
}

void OxmlServer::SendFrame(const std::shared_ptr<Connection>& conn,
                           const std::string& bytes) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(conn->fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 10000) <= 0) break;  // stuck peer: give up
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // dead peer; disconnect cleanup happens via the poll thread
  }
}

void OxmlServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    conn->closing = true;
    conn->pending.clear();
    if (!conn->cleanup_scheduled) {
      conn->cleanup_scheduled = true;
      schedule = true;
    }
  }
  if (!schedule) return;
  // Unblock anything still reading/writing the socket; the fd itself is
  // closed by the Connection destructor once every reference drops.
  ::shutdown(conn->fd, SHUT_RDWR);
  WakePoll();  // poll thread erases the connection on its next sweep
  if (stopping_.load(std::memory_order_acquire)) return;  // Stop() cleans up
  // Session teardown runs on the control lane so a disconnect mid-
  // transaction rolls back even when the exec pool is saturated.
  control_pool_->Submit([this, conn] {
    if (conn->session) {
      conn->session->Kill();
      conn->session->Close();
      manager_->CloseSession(conn->session->id());
    }
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  });
}

void OxmlServer::HandleHello(const std::shared_ptr<Connection>& conn,
                             const Frame& frame) {
  WireReader r(frame.body);
  uint32_t version = 0;
  std::string token;
  {
    auto v = r.U32();
    if (!v.ok()) {
      SendFrame(conn, EncodeError(0, v.status()));
      CloseConnection(conn);
      return;
    }
    version = *v;
    auto t = r.String();
    if (!t.ok()) {
      SendFrame(conn, EncodeError(0, t.status()));
      CloseConnection(conn);
      return;
    }
    token = std::move(*t);
  }
  if (version != kWireProtocolVersion) {
    SendFrame(conn, EncodeError(0, Status::InvalidArgument(
                        "unsupported protocol version " +
                        std::to_string(version))));
    CloseConnection(conn);
    return;
  }
  if (!options_.auth_token.empty() && token != options_.auth_token) {
    SendFrame(conn,
              EncodeError(0, Status::InvalidArgument("bad auth token")));
    CloseConnection(conn);
    return;
  }
  if (conn->session) {
    SendFrame(conn, EncodeError(0, Status::AlreadyExists(
                        "connection already has a session")));
    return;
  }
  Result<std::shared_ptr<Session>> session = manager_->CreateSession();
  if (!session.ok()) {
    // Session cap: refuse cleanly with the engine's status so the client
    // sees kResourceExhausted, then drop the connection.
    SendFrame(conn, EncodeError(0, session.status()));
    CloseConnection(conn);
    return;
  }
  conn->session = std::move(*session);
  WireWriter w(FrameType::kHelloOk);
  w.PutU64(conn->session->id());
  w.PutU32(kWireProtocolVersion);
  SendFrame(conn, w.Frame());
}

void OxmlServer::ProcessFrame(std::shared_ptr<Connection> conn, Frame frame) {
  auto send_ok = [&](uint64_t tag) {
    WireWriter w(FrameType::kOk);
    w.PutU64(tag);
    SendFrame(conn, w.Frame());
  };
  // Replies to a select-shaped result: header now, rows via kFetch.
  auto open_cursor = [&](uint64_t tag, ResultSet rs) {
    conn->cursor = std::move(rs);
    conn->cursor_tag = tag;
    conn->cursor_pos = 0;
    conn->has_cursor = true;
    SendFrame(conn, EncodeResultHeader(
                        tag, static_cast<int64_t>(conn->cursor.rows.size()),
                        /*is_select=*/true, &conn->cursor.schema));
  };

  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(conn, frame);
      break;

    case FrameType::kPing: {
      WireReader r(frame.body);
      auto tag = r.U64();
      WireWriter w(FrameType::kPong);
      w.PutU64(tag.ok() ? *tag : 0);
      SendFrame(conn, w.Frame());
      break;
    }

    default: {
      // Everything else needs a session.
      WireReader r(frame.body);
      auto tag_or = r.U64();
      uint64_t tag = tag_or.ok() ? *tag_or : 0;
      if (!tag_or.ok()) {
        SendFrame(conn, EncodeError(0, tag_or.status()));
        CloseConnection(conn);
        break;
      }
      if (!conn->session) {
        SendFrame(conn, EncodeError(tag, Status::InvalidArgument(
                            "no session: send Hello first")));
        break;
      }
      Session* session = conn->session.get();

      switch (frame.type) {
        case FrameType::kQuery: {
          auto sql = r.String();
          auto params = sql.ok() ? r.GetRow() : Result<Row>(sql.status());
          if (!params.ok()) {
            SendFrame(conn, EncodeError(tag, params.status()));
            break;
          }
          Result<ResultSet> rs =
              session->Query(*sql, std::move(*params), tag);
          if (!rs.ok()) {
            SendFrame(conn, EncodeError(tag, rs.status()));
          } else {
            open_cursor(tag, std::move(*rs));
          }
          break;
        }

        case FrameType::kExecute: {
          auto sql = r.String();
          auto params = sql.ok() ? r.GetRow() : Result<Row>(sql.status());
          if (!params.ok()) {
            SendFrame(conn, EncodeError(tag, params.status()));
            break;
          }
          Result<int64_t> affected =
              session->Execute(*sql, std::move(*params), tag);
          if (!affected.ok()) {
            SendFrame(conn, EncodeError(tag, affected.status()));
          } else {
            SendFrame(conn, EncodeResultHeader(tag, *affected,
                                               /*is_select=*/false, nullptr));
          }
          break;
        }

        case FrameType::kPrepare: {
          auto sql = r.String();
          if (!sql.ok()) {
            SendFrame(conn, EncodeError(tag, sql.status()));
            break;
          }
          Result<PreparedInfo> info = session->Prepare(*sql);
          if (!info.ok()) {
            SendFrame(conn, EncodeError(tag, info.status()));
          } else {
            WireWriter w(FrameType::kPrepared);
            w.PutU64(tag);
            w.PutU32(info->stmt_id);
            w.PutU32(info->param_count);
            SendFrame(conn, w.Frame());
          }
          break;
        }

        case FrameType::kBind: {
          auto stmt_id = r.U32();
          auto first = stmt_id.ok() ? r.U16() : Result<uint16_t>(
                                                    stmt_id.status());
          auto values =
              first.ok() ? r.GetRow() : Result<Row>(first.status());
          if (!values.ok()) {
            SendFrame(conn, EncodeError(tag, values.status()));
            break;
          }
          Status st = session->Bind(*stmt_id, *first, std::move(*values));
          if (!st.ok()) {
            SendFrame(conn, EncodeError(tag, st));
          } else {
            send_ok(tag);
          }
          break;
        }

        case FrameType::kExecuteStmt: {
          auto stmt_id = r.U32();
          auto want_rows =
              stmt_id.ok() ? r.U8() : Result<uint8_t>(stmt_id.status());
          if (!want_rows.ok()) {
            SendFrame(conn, EncodeError(tag, want_rows.status()));
            break;
          }
          if (*want_rows) {
            Result<ResultSet> rs = session->QueryPrepared(*stmt_id, tag);
            if (!rs.ok()) {
              SendFrame(conn, EncodeError(tag, rs.status()));
            } else {
              open_cursor(tag, std::move(*rs));
            }
          } else {
            Result<int64_t> affected = session->ExecutePrepared(*stmt_id, tag);
            if (!affected.ok()) {
              SendFrame(conn, EncodeError(tag, affected.status()));
            } else {
              SendFrame(conn,
                        EncodeResultHeader(tag, *affected,
                                           /*is_select=*/false, nullptr));
            }
          }
          break;
        }

        case FrameType::kFetch: {
          auto max_rows = r.U32();
          if (!max_rows.ok()) {
            SendFrame(conn, EncodeError(tag, max_rows.status()));
            break;
          }
          if (!conn->has_cursor) {
            SendFrame(conn, EncodeError(tag, Status::NotFound(
                                "no open result cursor")));
            break;
          }
          size_t max = *max_rows == 0 ? 1024 : *max_rows;
          std::string batch = EncodeRowBatch(conn->cursor_tag,
                                             conn->cursor.rows,
                                             &conn->cursor_pos, max);
          if (conn->cursor_pos >= conn->cursor.rows.size()) {
            conn->has_cursor = false;
            conn->cursor = ResultSet();
          }
          SendFrame(conn, batch);
          break;
        }

        case FrameType::kBegin: {
          Status st = session->Begin();
          st.ok() ? send_ok(tag)
                  : SendFrame(conn, EncodeError(tag, st));
          break;
        }
        case FrameType::kCommit: {
          Status st = session->Commit();
          st.ok() ? send_ok(tag)
                  : SendFrame(conn, EncodeError(tag, st));
          break;
        }
        case FrameType::kRollback: {
          Status st = session->Rollback();
          st.ok() ? send_ok(tag)
                  : SendFrame(conn, EncodeError(tag, st));
          break;
        }

        case FrameType::kCloseStmt: {
          auto stmt_id = r.U32();
          if (!stmt_id.ok()) {
            SendFrame(conn, EncodeError(tag, stmt_id.status()));
            break;
          }
          Status st = session->CloseStatement(*stmt_id);
          st.ok() ? send_ok(tag)
                  : SendFrame(conn, EncodeError(tag, st));
          break;
        }

        case FrameType::kXPath: {
          auto store_name = r.String();
          auto xpath = store_name.ok()
                           ? r.String()
                           : Result<std::string>(store_name.status());
          if (!xpath.ok()) {
            SendFrame(conn, EncodeError(tag, xpath.status()));
            break;
          }
          OrderedXmlStore* store = nullptr;
          {
            std::lock_guard<std::mutex> lock(stores_mu_);
            auto it = stores_.find(*store_name);
            if (it != stores_.end()) store = it->second;
          }
          if (store == nullptr) {
            SendFrame(conn, EncodeError(tag, Status::NotFound(
                                "no store registered as '" + *store_name +
                                "'")));
            break;
          }
          // Evaluate under the session's governance (admission gate,
          // deadline, cancel) exactly like a SQL statement, returning one
          // oracle-comparable signature per result node.
          ResultSet rs;
          rs.schema = Schema({Column{"node", TypeId::kText}});
          Status st = session->RunGoverned(tag, [&]() -> Status {
            OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                                  EvaluateXPath(store, *xpath));
            rs.rows.reserve(nodes.size());
            for (const StoredNode& n : nodes) {
              OXML_ASSIGN_OR_RETURN(std::string sig, NodeSignature(store, n));
              rs.rows.push_back(Row{Value::Text(std::move(sig))});
            }
            return Status::OK();
          });
          if (!st.ok()) {
            SendFrame(conn, EncodeError(tag, st));
          } else {
            open_cursor(tag, std::move(rs));
          }
          break;
        }

        case FrameType::kSessionOpts: {
          auto timeout = r.I64();
          auto budget =
              timeout.ok() ? r.I64() : Result<int64_t>(timeout.status());
          if (!budget.ok()) {
            SendFrame(conn, EncodeError(tag, budget.status()));
            break;
          }
          SessionDefaults d;
          d.timeout_ms = *timeout;
          d.memory_budget_bytes = *budget;
          session->SetDefaults(d);
          send_ok(tag);
          break;
        }

        case FrameType::kGoodbye: {
          send_ok(tag);
          CloseConnection(conn);
          break;
        }

        default: {
          stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          SendFrame(conn, EncodeError(tag, Status::InvalidArgument(
                              std::string("unexpected frame type ") +
                              FrameTypeToString(frame.type))));
          CloseConnection(conn);
          break;
        }
      }
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    conn->busy = false;
  }
  PumpConnection(conn);
}

}  // namespace server
}  // namespace oxml
