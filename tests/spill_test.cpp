// Tests for the KSPL spill path (capture/spill.h), the one binary trace
// format: bit-exact round trips through the mmap'd writer/reader and the
// collector, precise byte-offset-naming rejection of garbage, corrupted,
// truncated or abandoned files, and — the property the whole feature rests
// on — a spilled capture being indistinguishable from the in-memory Trace
// the collector would otherwise have accumulated.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capture/collector.h"
#include "capture/spill.h"
#include "gen/replay.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kc = keddah::capture;
namespace kg = keddah::gen;
namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;
namespace fs = std::filesystem;

namespace {

/// Unique-ish scratch path under the build's temp dir, removed by each test.
std::string scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "keddah_spill_test";
  fs::create_directories(dir);
  return (dir / name).string();
}

/// A record between node ids `src` and `dst`; the writer's table names them.
kc::FlowRecord record(std::uint32_t src, std::uint32_t dst, double bytes, double start,
                      double end, std::uint32_t job = 7) {
  kc::FlowRecord r;
  r.src_id = kn::NodeId(src);
  r.dst_id = kn::NodeId(dst);
  r.src_port = kn::ports::kShuffle;
  r.dst_port = kn::ports::kEphemeralBase;
  r.bytes = bytes;
  r.start = start;
  r.end = end;
  r.job_id = job;
  r.truth = kn::FlowKind::kShuffle;
  return r;
}

kc::NameTable table(std::vector<std::string> names) {
  return std::make_shared<const std::vector<std::string>>(std::move(names));
}

/// "h0" .. "h<n-1>": the name table of an n-node topology.
kc::NameTable host_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("h" + std::to_string(i));
  return table(std::move(names));
}

/// Patches `n` raw bytes at `offset` in a finalized spill file.
void patch(const std::string& path, std::size_t offset, const void* bytes, std::size_t n) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

/// Writes a small valid spill file and returns its path.
std::string write_sample(const std::string& name, std::size_t records = 3) {
  const std::string path = scratch(name);
  fs::remove(path);
  // 256 bytes forces arena growth.
  kc::SpillWriter writer(path, host_names(5), /*initial_capacity=*/256);
  for (std::size_t i = 0; i < records; ++i) {
    writer.add(record(static_cast<std::uint32_t>(i % 2), static_cast<std::uint32_t>(2 + i % 3),
                      1e6 * static_cast<double>(i + 1), 0.25 * static_cast<double>(i),
                      0.25 * static_cast<double>(i) + 1.5));
  }
  writer.finalize();
  return path;
}

/// The message SpillReader(path) rejects the file with, or "" when it opens.
std::string open_error(const std::string& path) {
  try {
    kc::SpillReader reader(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Captures 100 flows with varied ports, jobs and classes on a 2x4 rack
/// tree: in memory when `spill_dir` is empty, otherwise spilled there and
/// read back through SpillReader.
kc::Trace capture_sample(const std::string& spill_dir) {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_rack_tree(2, 4, 1e9, 10e9, 1e-4));
  kc::CollectorOptions options;
  options.spill_dir = spill_dir;
  kc::FlowCollector collector(net, options);
  const auto hosts = net.topology().hosts();
  for (std::size_t i = 0; i < 100; ++i) {
    kn::FlowMeta meta;
    meta.src_port = i % 2 == 0 ? kn::ports::kShuffle : kn::ports::kDataNodeXfer;
    meta.dst_port = static_cast<std::uint16_t>(kn::ports::kEphemeralBase + i);
    meta.job_id = static_cast<std::uint32_t>(i % 3);
    meta.kind = static_cast<kn::FlowKind>(i % kn::kNumFlowKinds);
    net.start_flow(hosts[i % hosts.size()], hosts[(i + 3) % hosts.size()],
                   ku::Bytes(1000.0 + 37.0 * static_cast<double>(i)), meta, nullptr);
  }
  sim.run();
  if (spill_dir.empty()) return collector.take();
  collector.finalize_spill();
  return kc::SpillReader(collector.spill_path()).to_trace();
}

}  // namespace

TEST(SpillRoundTrip, BitExactIncludingAwkwardDoubles) {
  const std::string path = scratch("roundtrip.kspill");
  fs::remove(path);
  // Values chosen to shake out any text formatting on the path: a double
  // with no short decimal form, a denormal, an epsilon-neighbour of 1.0.
  const std::vector<std::string> names = {"nn", "rack0-h1", "rack1-h0", "rack3-h7"};
  std::vector<kc::FlowRecord> written;
  written.push_back(record(1, 3, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0));
  written.push_back(record(1, 2, 5e-324, 0.0, std::nextafter(1.0, 2.0), /*job=*/0));
  written.push_back(record(0, 3, 1.75e9, 1234.56789012345,
                           std::numeric_limits<double>::max() / 1e10));
  {
    kc::SpillWriter writer(path, table(names), 128);
    for (const auto& r : written) writer.add(r);
    // An endpoint past the name table is refused, and nothing is appended.
    EXPECT_THROW(writer.add(record(0, 4, 1.0, 0.0, 1.0)), std::out_of_range);
    writer.finalize();
  }
  kc::SpillReader reader(path);
  ASSERT_EQ(reader.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const auto got = reader.record(i);
    EXPECT_EQ(got.src_id, written[i].src_id);
    EXPECT_EQ(got.dst_id, written[i].dst_id);
    EXPECT_EQ(got.src_port, written[i].src_port);
    EXPECT_EQ(got.dst_port, written[i].dst_port);
    EXPECT_EQ(got.job_id, written[i].job_id);
    EXPECT_EQ(got.truth, written[i].truth);
    // Bit-exact: EXPECT_EQ on the doubles, no tolerance.
    EXPECT_EQ(got.bytes, written[i].bytes);
    EXPECT_EQ(got.start, written[i].start);
    EXPECT_EQ(got.end, written[i].end);
  }
  // The name table is the writer's id-indexed table, whole.
  EXPECT_EQ(reader.names(), names);
  EXPECT_THROW((void)reader.record(written.size()), std::out_of_range);
  fs::remove(path);
}

TEST(SpillRoundTrip, ToTraceMatchesRecordOrder) {
  const std::string path = write_sample("totrace.kspill", 5);
  kc::SpillReader reader(path);
  const kc::Trace trace = reader.to_trace();
  ASSERT_EQ(trace.size(), reader.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].start, reader.record(i).start);
    EXPECT_EQ(trace[i].bytes, reader.record(i).bytes);
    EXPECT_EQ(trace[i].src_id, reader.record(i).src_id);
    EXPECT_EQ(trace.name(trace[i].src_id), reader.names()[reader.record(i).src_id]);
  }
  fs::remove(path);
}

TEST(SpillRoundTrip, WriterDestructorFinalizes) {
  const std::string path = scratch("dtor.kspill");
  fs::remove(path);
  {
    kc::SpillWriter writer(path, table({"a", "b"}), 128);
    writer.add(record(0, 1, 1.0, 0.0, 1.0));
  }  // no explicit finalize()
  kc::SpillReader reader(path);
  EXPECT_EQ(reader.size(), 1u);
  fs::remove(path);
}

TEST(SpillRoundTrip, EmptyCaptureReadsBackEmpty) {
  const std::string dir = scratch("empty_dir");
  fs::remove_all(dir);
  {
    ks::Simulator sim;
    kn::Network net(sim, kn::make_star(3, 1e9, 0.0));
    kc::CollectorOptions options;
    options.spill_dir = dir;
    kc::FlowCollector collector(net, options);
    sim.run();
    collector.finalize_spill();
    kc::SpillReader reader(collector.spill_path());
    EXPECT_TRUE(reader.empty());
    EXPECT_EQ(reader.to_trace().size(), 0u);
    // The name table still names every node, in id order.
    EXPECT_EQ(reader.names(), (std::vector<std::string>{"sw0", "h0", "h1", "h2"}));
  }
  fs::remove_all(dir);
}

TEST(SpillRoundTrip, SpillIsSmallerThanCsv) {
  const std::string spill_path = scratch("size.kspill");
  const std::string csv_path = scratch("size.csv");
  fs::remove(spill_path);
  const kc::NameTable names = host_names(2);
  kc::Trace trace(names);
  {
    kc::SpillWriter writer(spill_path, names);
    for (int i = 0; i < 2000; ++i) {
      const kc::FlowRecord r = record(0, 1, 1234567.0 + i, i * 0.001, i * 0.001 + 0.5);
      writer.add(r);
      trace.add(r);
    }
  }
  trace.save(csv_path);
  EXPECT_EQ(kc::SpillReader(spill_path).size(), trace.size());
  EXPECT_LT(fs::file_size(spill_path), fs::file_size(csv_path));
  fs::remove(spill_path);
  fs::remove(csv_path);
}

TEST(SpillErrors, TruncatedHeaderNamesByteCounts) {
  const std::string path = scratch("short.kspill");
  { std::ofstream(path, std::ios::binary) << "KSPL"; }
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"), std::string::npos) << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, BadMagicNamesOffsetZero) {
  const std::string path = write_sample("magic.kspill");
  const char junk[4] = {'N', 'O', 'P', 'E'};
  patch(path, 0, junk, sizeof junk);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic at offset 0"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, UnsupportedVersionNamesOffsetFour) {
  const std::string path = write_sample("version.kspill");
  const std::uint32_t future = 42;
  patch(path, 4, &future, sizeof future);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 42 at offset 4"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST(SpillErrors, RecordSizeMismatchNamesOffsetEight) {
  const std::string path = write_sample("recsize.kspill");
  const std::uint32_t wrong = 56;  // the version-1 record size
  patch(path, 8, &wrong, sizeof wrong);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record size 56 at offset 8"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, AbandonedUnfinalizedFileIsRejected) {
  const std::string path = write_sample("abandoned.kspill");
  // Re-create the crashed-writer state: finalized flag and name-table offset
  // back to their mid-write zeros.
  const std::uint32_t zero32 = 0;
  const std::uint64_t zero64 = 0;
  patch(path, 12, &zero32, sizeof zero32);
  patch(path, 24, &zero64, sizeof zero64);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset 24"), std::string::npos) << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, TruncatedRecordsNameTheFirstMissingRecord) {
  const std::string path = write_sample("truncated.kspill", 3);
  // Chop mid-record-1: one whole record survives, the second is cut short.
  fs::resize_file(path, kc::kSpillHeaderBytes + sizeof(kc::SpillRecord) + 20);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("at offset 112"), std::string::npos) << what;  // 64 + 48
  }
  fs::remove(path);
}

TEST(SpillErrors, VersionOneFileIsRejected) {
  const std::string path = write_sample("v1.kspill");
  const std::uint32_t v1 = 1;  // 56-byte records with interned names
  patch(path, 4, &v1, sizeof v1);
  const std::string what = open_error(path);
  EXPECT_NE(what.find("unsupported version 1 at offset 4 (this build reads version 2)"),
            std::string::npos)
      << what;
  fs::remove(path);
}

TEST(SpillErrors, GarbageAndMissingFilesAreRejected) {
  const std::string path = scratch("garbage.kspill");
  { std::ofstream(path, std::ios::binary) << "definitely not a KSPL file"; }
  EXPECT_NE(open_error(path).find("truncated header"), std::string::npos);
  { std::ofstream(path, std::ios::binary) << std::string(200, 'x'); }
  EXPECT_NE(open_error(path).find("bad magic at offset 0"), std::string::npos);
  EXPECT_NE(open_error(scratch("no_such_dir/missing.kspill")), "");
  fs::remove(path);
}

// A finalized file cut short anywhere after its header (a partial copy, a
// full disk) is rejected, and the message names the offset where the data
// runs out: the first missing record, or the name-table field that is cut.
TEST(SpillErrors, TruncationAnywhereAfterTheHeaderNamesTheOffset) {
  const std::size_t count = 4;
  const std::string path = write_sample("cut_source.kspill", count);
  const std::string cut = scratch("cut.kspill");
  const std::size_t size = fs::file_size(path);
  const std::size_t records_end = kc::kSpillHeaderBytes + count * sizeof(kc::SpillRecord);
  const auto cut_at = [&](std::size_t end) {
    fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, end);
    return open_error(cut);
  };
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t offset = kc::kSpillHeaderBytes + k * sizeof(kc::SpillRecord);
    const std::string what = cut_at(offset);
    EXPECT_NE(what.find(ku::format("truncated record %zu at offset %zu", k, offset)),
              std::string::npos)
        << what;
  }
  // Name-table fields as (offset, length): the count, then each name's
  // length prefix and bytes.
  std::vector<std::pair<std::size_t, std::size_t>> fields = {{records_end, 4}};
  const kc::SpillReader whole(path);
  for (const std::string& name : whole.names()) {
    const std::size_t at = fields.back().first + fields.back().second;
    fields.emplace_back(at, 4);
    fields.emplace_back(at + 4, name.size());
  }
  ASSERT_EQ(fields.back().first + fields.back().second, size);
  for (std::size_t end = records_end; end < size; ++end) {
    std::size_t field = 0;
    while (fields[field].first + fields[field].second <= end) ++field;
    const std::string what = cut_at(end);
    EXPECT_NE(what.find("truncated name table: "), std::string::npos) << what;
    EXPECT_NE(what.find(ku::format("at offset %zu runs past end of file %zu", fields[field].first,
                                   end)),
              std::string::npos)
        << what;
  }
  fs::remove(path);
  fs::remove(cut);
}

TEST(SpillErrors, TrailingBytesAfterTheNameTableNameTheOffset) {
  const std::string path = write_sample("trailing.kspill", 3);
  const std::size_t size = fs::file_size(path);
  { std::ofstream(path, std::ios::binary | std::ios::app) << "junk"; }
  const std::string what = open_error(path);
  EXPECT_NE(what.find(ku::format("4 trailing bytes at offset %zu after the name table", size)),
            std::string::npos)
      << what;
  fs::remove(path);
}

TEST(SpillErrors, NodeIdPastTheNameTableNamesTheRecordOffset) {
  const std::string path = write_sample("bad_id.kspill", 3);  // names h0..h4
  const std::uint32_t past_src = 5;
  const std::uint32_t past_dst = 9;
  patch(path, kc::kSpillHeaderBytes + sizeof(kc::SpillRecord) + offsetof(kc::SpillRecord, src_id),
        &past_src, sizeof past_src);
  patch(path,
        kc::kSpillHeaderBytes + 2 * sizeof(kc::SpillRecord) + offsetof(kc::SpillRecord, dst_id),
        &past_dst, sizeof past_dst);
  kc::SpillReader reader(path);  // header and name table are intact
  EXPECT_EQ(reader.names()[reader.record(0).src_id], "h0");
  const auto reject = [&reader](std::uint64_t i) {
    try {
      (void)reader.record(i);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(reject(1).find("record 1 at offset 112 references node 5 past the 5-name table"),
            std::string::npos)
      << reject(1);
  EXPECT_NE(reject(2).find("record 2 at offset 160 references node 9 past the 5-name table"),
            std::string::npos)
      << reject(2);
  EXPECT_THROW((void)reader.to_trace(), std::runtime_error);
  fs::remove(path);
}

TEST(SpillCollector, CollectorRoundTripKeepsEveryField) {
  const kc::Trace in_memory = capture_sample("");
  const std::string dir = scratch("round_trip_dir");
  fs::remove_all(dir);
  const kc::Trace spilled = capture_sample(dir);
  ASSERT_EQ(in_memory.size(), 100u);
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (std::size_t i = 0; i < spilled.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(spilled.name(spilled[i].src_id), in_memory.name(in_memory[i].src_id));
    EXPECT_EQ(spilled.name(spilled[i].dst_id), in_memory.name(in_memory[i].dst_id));
    EXPECT_EQ(spilled[i].src_id, in_memory[i].src_id);
    EXPECT_EQ(spilled[i].dst_id, in_memory[i].dst_id);
    EXPECT_EQ(spilled[i].src_port, in_memory[i].src_port);
    EXPECT_EQ(spilled[i].dst_port, in_memory[i].dst_port);
    EXPECT_EQ(spilled[i].job_id, in_memory[i].job_id);
    EXPECT_EQ(spilled[i].truth, in_memory[i].truth);
    EXPECT_EQ(spilled[i].bytes, in_memory[i].bytes);
    EXPECT_EQ(spilled[i].start, in_memory[i].start);
    EXPECT_EQ(spilled[i].end, in_memory[i].end);
  }
  fs::remove_all(dir);
}

TEST(SpillCollector, SpillModeKeepsTraceEmptyAndCountsRecords) {
  const std::string dir = scratch("collector_dir");
  fs::remove_all(dir);
  ku::Rng rng(11);
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 40; ++i) {
    kg::SyntheticFlow f;
    f.src_host = i % 8;
    f.dst_host = (i + 3) % 8;
    f.kind = kn::FlowKind::kShuffle;
    f.bytes = rng.uniform(1e5, 1e7);
    f.start = rng.uniform(0.0, 2.0);
    schedule.flows.push_back(f);
  }
  const auto topology = kn::make_rack_tree(2, 4, 1e9, 10e9, 1e-4);
  const auto result = kg::replay(schedule, topology, 40.0e9, dir);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.spilled_records, schedule.flows.size());
  EXPECT_EQ(result.spill_path, dir + "/capture.kspill");
  EXPECT_TRUE(fs::exists(result.spill_path));
  kc::SpillReader reader(result.spill_path);
  EXPECT_EQ(reader.size(), schedule.flows.size());
  fs::remove_all(dir);
}

// The headline guarantee: replaying the same schedule with capture spilled
// to disk yields byte-for-byte the records an in-memory capture collects —
// same order, same doubles — and identical derived metrics.
TEST(SpillCollector, SpilledCaptureReplaysIdenticallyToInMemory) {
  ku::Rng rng(23);
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 200; ++i) {
    kg::SyntheticFlow f;
    f.src_host = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.dst_host = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.kind = static_cast<kn::FlowKind>(rng.uniform_int(0, 4));
    f.bytes = std::pow(10.0, rng.uniform(4.0, 7.5));
    f.start = rng.uniform(0.0, 3.0);
    schedule.flows.push_back(f);
  }
  const auto topology = kn::make_fat_tree(4, 1e9, 1e-4, /*oversubscription=*/4.0);

  const auto in_memory = kg::replay(schedule, topology);
  const std::string dir = scratch("identical_dir");
  fs::remove_all(dir);
  const auto spilled = kg::replay(schedule, topology, 40.0e9, dir);

  EXPECT_EQ(spilled.makespan, in_memory.makespan);
  ASSERT_EQ(spilled.flow_completion_times.size(), in_memory.flow_completion_times.size());
  for (std::size_t i = 0; i < spilled.flow_completion_times.size(); ++i) {
    EXPECT_EQ(spilled.flow_completion_times[i], in_memory.flow_completion_times[i]);
  }
  kc::SpillReader reader(spilled.spill_path);
  const kc::Trace from_spill = reader.to_trace();
  ASSERT_EQ(from_spill.size(), in_memory.trace.size());
  for (std::size_t i = 0; i < from_spill.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(from_spill.name(from_spill[i].src_id),
              in_memory.trace.name(in_memory.trace[i].src_id));
    EXPECT_EQ(from_spill.name(from_spill[i].dst_id),
              in_memory.trace.name(in_memory.trace[i].dst_id));
    EXPECT_EQ(from_spill[i].src_id, in_memory.trace[i].src_id);
    EXPECT_EQ(from_spill[i].dst_id, in_memory.trace[i].dst_id);
    EXPECT_EQ(from_spill[i].src_port, in_memory.trace[i].src_port);
    EXPECT_EQ(from_spill[i].dst_port, in_memory.trace[i].dst_port);
    EXPECT_EQ(from_spill[i].job_id, in_memory.trace[i].job_id);
    EXPECT_EQ(from_spill[i].truth, in_memory.trace[i].truth);
    EXPECT_EQ(from_spill[i].bytes, in_memory.trace[i].bytes);
    EXPECT_EQ(from_spill[i].start, in_memory.trace[i].start);
    EXPECT_EQ(from_spill[i].end, in_memory.trace[i].end);
  }
  fs::remove_all(dir);
}
