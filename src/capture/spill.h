// Append-only, versioned, memory-mapped spill file for FlowRecords ("KSPL"
// format). The collector streams completed flows here instead of growing an
// in-memory Trace, so capture volume is bounded by disk, not RAM (the
// 10k-host scale scenarios produce millions of records).
//
// On-disk layout (all integers little-endian host order, doubles raw IEEE —
// a round trip is bit-exact):
//
//   offset  0  char[4]  magic "KSPL"
//   offset  4  u32      version (kSpillVersion)
//   offset  8  u32      record size in bytes (sizeof(SpillRecord), pinned)
//   offset 12  u32      flags (bit 0: finalized)
//   offset 16  u64      record count
//   offset 24  u64      name-table offset (0 until finalize)
//   offset 32  u8[32]   reserved (zero)
//   offset 64  records  record_count x 48-byte SpillRecord
//   name table          u32 count, then per name: u32 length + bytes
//
// The name table is indexed by NodeId: entry i names node i of the captured
// topology, and a record's src_id/dst_id are its keys. The writer takes the
// table once, at construction, so appending a record copies 48 bytes and
// looks nothing up.
//
// Crash semantics: the header's count/name-table fields are back-patched by
// finalize(); a file whose name-table offset is still 0 was abandoned
// mid-write and the reader rejects it (naming the offset) rather than
// guessing at a record count. A file cut short anywhere after the header is
// rejected naming the offset where its records or name table run out, and
// one with bytes past the name table naming where they start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/flow_record.h"
#include "capture/trace.h"
#include "util/mmap_arena.h"

namespace keddah::capture {

inline constexpr char kSpillMagic[4] = {'K', 'S', 'P', 'L'};
inline constexpr std::uint32_t kSpillVersion = 2;
inline constexpr std::size_t kSpillHeaderBytes = 64;

/// Fixed-width on-disk flow record; endpoint names live in the name table,
/// keyed by src_id/dst_id.
struct SpillRecord {
  std::uint32_t src_id;
  std::uint32_t dst_id;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint32_t job_id;
  std::uint8_t truth;
  std::uint8_t pad[7];
  double bytes;
  double start;
  double end;
};
static_assert(sizeof(SpillRecord) == 48, "spill record layout drifted");

/// Streams FlowRecords into a KSPL file through a growable mmap. finalize()
/// (also run by the destructor) writes the name table and back-patches the
/// header; until then the file on disk is marked unfinalized.
class SpillWriter {
 public:
  /// `(*names)[i]` names node i; every record added must have src_id and
  /// dst_id below names->size().
  SpillWriter(const std::string& path, NameTable names, std::size_t initial_capacity = 1u << 20);
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends one record. Throws std::out_of_range when an endpoint id is
  /// past the name table.
  void add(const FlowRecord& record);

  std::uint64_t records() const { return count_; }
  /// Bytes appended so far (header + records; name table lands at finalize).
  std::uint64_t bytes() const { return arena_.size(); }
  const std::string& path() const { return path_; }

  /// Writes the name table, patches the header, shrinks the file to its
  /// exact size, and closes. Idempotent.
  void finalize();

 private:
  std::string path_;
  util::MmapArena arena_;
  std::uint64_t count_ = 0;
  NameTable names_;
  bool finalized_ = false;
};

/// Maps a finalized KSPL file read-only and decodes records on demand.
/// Every validation error names the byte offset of the defect.
class SpillReader {
 public:
  explicit SpillReader(const std::string& path);

  std::uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Decodes record `i` (bounds-checked; throws std::out_of_range). Throws
  /// std::runtime_error, naming the record's offset, when an endpoint id is
  /// past the name table.
  FlowRecord record(std::uint64_t i) const;

  /// Materializes the whole spill as an in-memory Trace, in record order,
  /// sharing this reader's name table. The result is bit-exact against the
  /// records the writer was fed.
  Trace to_trace() const;

  /// The name table, indexed by NodeId.
  const std::vector<std::string>& names() const { return *names_; }

 private:
  const SpillRecord* raw(std::uint64_t i) const;

  util::MmapArena arena_;
  std::uint64_t count_ = 0;
  std::size_t records_offset_ = kSpillHeaderBytes;
  NameTable names_;
};

}  // namespace keddah::capture
