// The traced run's layer probe: a single-threaded pass over a fresh fixture
// that decomposes requests by layer and measures the per-layer metrics that
// need a quiet database (exact statement counts, per-call times).
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <string>

#include "doc.h"
#include "fixture.h"
#include "stats.h"

namespace perfbench {

/// Sets up `config` (which must have one wire client) and adds the
/// server.overhead_us, core read/write path, relational per-call and
/// speed-up, and xml write metrics to `report`. Turns tracing on.
void RunLayerProbe(const FixtureConfig& config, uint64_t seed,
                   const NewsModel& model, const std::string& xml_text,
                   const Oracle& oracle, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
