// ns-3 export: emits a Keddah flow schedule in a form a stock ns-3 build
// can replay — a CSV schedule plus a self-contained ns-3 C++ replay program
// (scratch/keddah-replay.cc) that loads the CSV and drives one
// BulkSendApplication per flow. This is the "for use with network
// simulators" integration deliverable; the in-tree ReplayEngine mirrors its
// semantics at flow level for offline experiments.
#pragma once

#include <string>

#include "gen/generator.h"

namespace keddah::gen {

/// Export knobs (topology parameters baked into the generated program).
struct Ns3ExportOptions {
  std::size_t num_hosts = 16;
  std::string link_rate = "1Gbps";
  std::string link_delay = "100us";
};

/// Renders the flow schedule as CSV text: one row per flow,
/// "start,src,dst,bytes,kind,port".
std::string schedule_to_csv(const SyntheticTrafficSchedule& schedule);

/// Parses the CSV format written by schedule_to_csv (the CLI round-trips
/// generated schedules through disk; the port column is not read). Throws
/// std::runtime_error naming `source: row N: column` (data rows count from
/// 1) on a missing column, a start or bytes that is not a finite number
/// >= 0, a host that is not a whole integer in 0..2^32-1, or an unknown
/// traffic class.
SyntheticTrafficSchedule schedule_from_csv(const std::string& text,
                                           const std::string& source = "schedule");

/// Renders a complete ns-3 program (C++) that loads the CSV schedule and
/// replays it over a star topology with per-class TCP sinks.
std::string render_ns3_program(const Ns3ExportOptions& options);

/// Writes both artefacts: `<basename>.csv` and `<basename>.cc`. Throws
/// std::runtime_error on I/O failure.
void export_ns3(const SyntheticTrafficSchedule& schedule, const std::string& basename,
                const Ns3ExportOptions& options = {});

}  // namespace keddah::gen
