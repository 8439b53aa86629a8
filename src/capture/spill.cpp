#include "capture/spill.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace keddah::capture {

namespace {

/// Header image kept bit-compatible with the documented layout; the struct
/// exists only in memory (the file is addressed by offset).
struct SpillHeader {
  char magic[4];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t flags;
  std::uint64_t record_count;
  std::uint64_t name_table_offset;
  std::uint8_t reserved[32];
};
static_assert(sizeof(SpillHeader) == kSpillHeaderBytes, "spill header layout drifted");

constexpr std::uint32_t kFlagFinalized = 1u;

[[noreturn]] void bad(const std::string& path, const std::string& what) {
  throw std::runtime_error("spill: " + path + ": " + what);
}

}  // namespace

SpillWriter::SpillWriter(const std::string& path, NameTable names, std::size_t initial_capacity)
    : path_(path),
      arena_(util::MmapArena::create(path, initial_capacity)),
      names_(std::move(names)) {
  SpillHeader header{};
  std::memcpy(header.magic, kSpillMagic, sizeof kSpillMagic);
  header.version = kSpillVersion;
  header.record_size = static_cast<std::uint32_t>(sizeof(SpillRecord));
  header.flags = 0;              // not finalized yet
  header.record_count = 0;       // patched by finalize()
  header.name_table_offset = 0;  // patched by finalize()
  arena_.append(&header, sizeof header);
}

SpillWriter::~SpillWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructor path: swallow I/O failures; the file stays unfinalized and
    // the reader will reject it with a precise diagnostic.
  }
}

void SpillWriter::add(const FlowRecord& record) {
  if (finalized_) throw std::logic_error("spill: add() after finalize(): " + path_);
  if (record.src_id >= names_->size() || record.dst_id >= names_->size()) {
    const std::uint32_t id = record.src_id >= names_->size() ? record.src_id : record.dst_id;
    throw std::out_of_range(util::format("spill: node %u past the %zu-name table: %s", id,
                                         names_->size(), path_.c_str()));
  }
  SpillRecord r{};
  r.src_id = record.src_id;
  r.dst_id = record.dst_id;
  r.src_port = record.src_port;
  r.dst_port = record.dst_port;
  r.job_id = record.job_id;
  r.truth = static_cast<std::uint8_t>(record.truth);
  r.bytes = record.bytes;
  r.start = record.start;
  r.end = record.end;
  arena_.append(&r, sizeof r);
  ++count_;
}

void SpillWriter::finalize() {
  if (finalized_ || !arena_.is_open()) return;
  const std::uint64_t table_offset = arena_.size();
  const auto table_count = static_cast<std::uint32_t>(names_->size());
  arena_.append(&table_count, sizeof table_count);
  for (const std::string& name : *names_) {
    const auto len = static_cast<std::uint32_t>(name.size());
    arena_.append(&len, sizeof len);
    arena_.append(name.data(), name.size());
  }
  SpillHeader header{};
  std::memcpy(header.magic, kSpillMagic, sizeof kSpillMagic);
  header.version = kSpillVersion;
  header.record_size = static_cast<std::uint32_t>(sizeof(SpillRecord));
  header.flags = kFlagFinalized;
  header.record_count = count_;
  header.name_table_offset = table_offset;
  arena_.write_at(0, &header, sizeof header);
  arena_.finalize();
  finalized_ = true;
}

SpillReader::SpillReader(const std::string& path)
    : arena_(util::MmapArena::open_readonly(path)) {
  const std::size_t file_size = arena_.size();
  if (file_size < kSpillHeaderBytes) {
    bad(path, util::format("truncated header: need %zu bytes, file has %zu", kSpillHeaderBytes,
                           file_size));
  }
  SpillHeader header{};
  std::memcpy(&header, arena_.data(), sizeof header);
  if (std::memcmp(header.magic, kSpillMagic, sizeof kSpillMagic) != 0) {
    bad(path, "bad magic at offset 0 (not a KSPL spill file)");
  }
  if (header.version != kSpillVersion) {
    bad(path, util::format("unsupported version %u at offset 4 (this build reads version %u)",
                           header.version, kSpillVersion));
  }
  if (header.record_size != sizeof(SpillRecord)) {
    bad(path, util::format("record size %u at offset 8 does not match this build's %zu",
                           header.record_size, sizeof(SpillRecord)));
  }
  if ((header.flags & kFlagFinalized) == 0 || header.name_table_offset == 0) {
    bad(path,
        "unfinalized spill (name-table offset is 0 at offset 24); "
        "the writer exited before finalize()");
  }
  count_ = header.record_count;
  const std::uint64_t records_end =
      kSpillHeaderBytes + count_ * static_cast<std::uint64_t>(sizeof(SpillRecord));
  if (header.name_table_offset != records_end) {
    bad(path, util::format("name table at offset %llu but records end at offset %llu",
                           static_cast<unsigned long long>(header.name_table_offset),
                           static_cast<unsigned long long>(records_end)));
  }
  if (records_end > file_size) {
    // Name the first record that falls off the end of the file.
    const std::uint64_t whole =
        (file_size - kSpillHeaderBytes) / sizeof(SpillRecord);
    bad(path, util::format("truncated record %llu at offset %llu: file ends at offset %zu",
                           static_cast<unsigned long long>(whole),
                           static_cast<unsigned long long>(kSpillHeaderBytes +
                                                           whole * sizeof(SpillRecord)),
                           file_size));
  }

  // Name table: u32 count, then length-prefixed strings.
  std::size_t cursor = header.name_table_offset;
  const auto need = [&](std::size_t n, const char* what) {
    if (cursor + n > file_size) {
      bad(path, util::format("truncated name table: %s at offset %zu runs past end of file %zu",
                             what, cursor, file_size));
    }
  };
  std::uint32_t num_names = 0;
  need(sizeof num_names, "name count");
  std::memcpy(&num_names, arena_.data() + cursor, sizeof num_names);
  cursor += sizeof num_names;
  std::vector<std::string> names;
  names.reserve(num_names);
  for (std::uint32_t i = 0; i < num_names; ++i) {
    std::uint32_t len = 0;
    need(sizeof len, "name length");
    std::memcpy(&len, arena_.data() + cursor, sizeof len);
    cursor += sizeof len;
    if (len > (1u << 20)) {
      bad(path, util::format("implausible name length %u at offset %zu", len,
                             cursor - sizeof len));
    }
    need(len, "name bytes");
    names.emplace_back(reinterpret_cast<const char*>(arena_.data() + cursor), len);
    cursor += len;
  }
  names_ = std::make_shared<const std::vector<std::string>>(std::move(names));
  // finalize() shrinks the file to the end of the name table.
  if (cursor != file_size) {
    bad(path, util::format("%zu trailing bytes at offset %zu after the name table",
                           file_size - cursor, cursor));
  }
}

const SpillRecord* SpillReader::raw(std::uint64_t i) const {
  return reinterpret_cast<const SpillRecord*>(arena_.data() + records_offset_ +
                                              i * sizeof(SpillRecord));
}

FlowRecord SpillReader::record(std::uint64_t i) const {
  if (i >= count_) throw std::out_of_range("spill: record index out of range: " + arena_.path());
  const SpillRecord* b = raw(i);
  if (b->src_id >= names_->size() || b->dst_id >= names_->size()) {
    bad(arena_.path(),
        util::format("record %llu at offset %llu references node %u past the %zu-name table",
                     static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(records_offset_ + i * sizeof(SpillRecord)),
                     b->src_id >= names_->size() ? b->src_id : b->dst_id, names_->size()));
  }
  FlowRecord r;
  r.src_id = net::NodeId(b->src_id);
  r.dst_id = net::NodeId(b->dst_id);
  r.src_port = b->src_port;
  r.dst_port = b->dst_port;
  r.job_id = b->job_id;
  r.truth = static_cast<net::FlowKind>(b->truth);
  r.bytes = b->bytes;
  r.start = b->start;
  r.end = b->end;
  return r;
}

Trace SpillReader::to_trace() const {
  Trace trace(names_);
  for (std::uint64_t i = 0; i < count_; ++i) trace.add(record(i));
  return trace;
}

}  // namespace keddah::capture
