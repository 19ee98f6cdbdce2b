// The timed set-up shared by every workload and by the traced run's layer
// probe: parse the document text, load it into the Global, Local and Dewey
// stores of one Database, start the OXWP server, connect the clients and
// make one warm-up pass over every request shape. Also the request
// executors that both the workloads and the layer replay call.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "doc.h"
#include "src/core/ordered_store.h"
#include "src/relational/database.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace perfbench {

struct FixtureConfig {
  /// Empty = memory-resident.
  std::string file_path;
  /// OXWP client connections; 0 starts no server.
  int wire_clients = 0;
  /// Reopen `file_path` and attach to the stores instead of loading.
  bool reopen = false;
};

struct Fixture {
  std::unique_ptr<oxml::Database> db;
  std::array<std::unique_ptr<oxml::OrderedXmlStore>, kNumEnc> stores;
  std::unique_ptr<oxml::server::OxmlServer> server;
  std::vector<std::unique_ptr<oxml::server::OxmlClient>> clients;
  /// The <body> element of each store, for the embedded point probes.
  std::array<oxml::StoredNode, kNumEnc> body;

  ~Fixture() { TearDown(); }
  /// Says goodbye on every connection, stops the server and closes the
  /// database (which checkpoints a file-backed one).
  void TearDown();
};

/// Runs the set-up and returns the fixture; `seconds` receives the wall
/// time of everything from parsing to the end of `warm`.
std::unique_ptr<Fixture> SetUp(const FixtureConfig& config,
                               const std::string& xml_text,
                               const std::function<void(Fixture&)>& warm,
                               double* seconds);

/// Deletes a file-backed database and its log.
void RemoveDatabaseFiles(const std::string& path);

/// Outcome of one read request; `nodes` holds node signatures, or the
/// count as text for the count class.
using ReadResult = oxml::Result<std::vector<std::string>>;

/// A read over the wire: kXPath frame, or kQuery for the count class.
ReadResult WireRead(oxml::server::OxmlClient* client, const Request& req);

/// The same request through the public functions the server calls for it:
/// EvaluateXPath, then ReconstructSubtree + WriteXml per result node; or
/// Database::QueryP for the count class. `statements` (optional) receives
/// the statement-counter deltas {xpath, reconstruct} of this call.
ReadResult EmbeddedRead(Fixture& f, const Request& req,
                        std::array<uint64_t, 2>* statements = nullptr);

/// Checks a read answer against the oracle; aborts the run on a mismatch.
void CheckRead(const Oracle& oracle, const Request& req,
               const std::vector<std::string>& got);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// User plus system CPU time this process has used, in seconds.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
