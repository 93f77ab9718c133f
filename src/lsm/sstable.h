// Immutable sorted string tables.
//
// Layout (paper §3.1 mechanics: block reads + one index block per lookup):
//   [data block 0][data block 1]...[index block][filter block][footer]
//   data block:   concatenated records, ~4KB target size
//   index block:  per data block {last_key, offset, size}
//   filter block: bloom filter over the table's user keys (absent — zero
//                 length — when bloom_bits_per_key is 0, which keeps the
//                 file byte-identical to the pre-filter format)
//   footer (16B): index offset u64, index size u64 (the filter region is
//                 whatever lies between index end and footer)
//
// A point lookup probes the bloom filter first: a negative answer proves
// the key is absent and skips both the index and data-block device reads —
// the common case for GETs against leveled trees, and the main lever on
// the per-file GET amplification the paper measures (Figs. 2/12). On a
// maybe (or with filters off, the 2014 LevelDB default this engine
// started from) the lookup loads the index block (>= one 4KB read),
// binary-searches it, and reads exactly one data block.
//
// Index, filter, and data blocks between lookups live only in a BlockCache;
// hits cost zero device IO and misses re-read (and re-charge) from the
// device. An unbudgeted cache (capacity 0, the default) keeps the index and
// filter from first use until the table is deleted, like LevelDB's table
// cache, and caches no data block — data blocks then always hit the device,
// since O_DIRECT leaves no page cache.
//
// The builder encodes records straight into one output buffer and emits
// the table through a sequential, chunked append stream (the paper's
// "asynchronous, io-efficient" FLUSH/COMPACT writes).
//
// Readers decode from views of the file's bytes (SimFs::ReadAt copies
// nothing). A table is immutable once its builder finishes and is deleted
// only when its last TableRef dies, so a record view from Get, a cursor or
// ScanAll stays valid for as long as the caller holds the table's ref.

#ifndef LIBRA_SRC_LSM_SSTABLE_H_
#define LIBRA_SRC_LSM_SSTABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/io_tag.h"
#include "src/lsm/block_cache.h"
#include "src/lsm/format.h"
#include "src/sim/task.h"

namespace libra::lsm {

struct SstableOptions {
  uint32_t block_bytes = 4096;          // data block target
  uint32_t write_chunk_bytes = 262144;  // sequential append granularity
  // Bloom filter density; 0 writes no filter block (tables byte-identical
  // to the pre-filter format).
  uint32_t bloom_bits_per_key = 0;
};

// Read-path event counters, shared across a DB's readers (the DB owns one
// and points every reader at it, like WalCounters for rotated WALs).
struct TableReadCounters {
  uint64_t bloom_probes = 0;           // GETs that consulted a filter
  uint64_t bloom_negatives = 0;        // ... answered "definitely absent"
  uint64_t bloom_false_positives = 0;  // ... said maybe, key wasn't there
  uint64_t index_block_reads = 0;      // index blocks read from the device
  uint64_t filter_block_reads = 0;     // filter blocks read from the device
  uint64_t data_block_reads = 0;       // GET data blocks read from the device
  uint64_t data_cache_hits = 0;        // GET data blocks served by the cache
};

// Encodes a table into one in-memory buffer; Finish() streams it to `file`.
class SstableBuilder {
 public:
  SstableBuilder(fs::SimFs& fs, fs::FileId file, SstableOptions options = {});

  // Sizes the output buffer for `entries` records holding `key_bytes` and
  // `value_bytes` in total (an upper bound on the finished table), so it is
  // allocated once instead of regrown. Call before the first Add.
  void Reserve(uint64_t entries, uint64_t key_bytes, uint64_t value_bytes);

  // Keys must arrive in internal order (user key asc, seq desc).
  void Add(std::string_view key, SequenceNumber seq, ValueType type,
           std::string_view value);

  // Writes all pending data to the file with `tag` IO. No Adds afterwards.
  sim::Task<Status> Finish(const iosched::IoTag& tag);

  uint64_t num_entries() const { return num_entries_; }
  const std::string& smallest_key() const { return smallest_; }
  std::string_view largest_key() const {
    return std::string_view(buffer_).substr(last_key_offset_, last_key_size_);
  }

 private:
  // Closes the open data block (if it holds any record) in the index.
  void EndBlock();

  fs::SimFs& fs_;
  fs::FileId file_;
  SstableOptions options_;

  std::string buffer_;      // the table: finished blocks, then the open one
  size_t block_start_ = 0;  // offset of the open data block in buffer_
  // The last record's key, as a range of buffer_ (the open block's last
  // key once it closes, and the table's largest key).
  size_t last_key_offset_ = 0;
  size_t last_key_size_ = 0;
  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint32_t size;
  };
  std::vector<IndexEntry> index_;
  // Distinct user keys for the filter block (internal order keeps versions
  // of one key adjacent, so adjacent-dup skipping suffices). Collected only
  // when bloom_bits_per_key > 0.
  std::vector<std::string> filter_keys_;
  std::string smallest_;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

// Reads a finished table. The footer is loaded from disk on first need and
// cached in the reader (tables are immutable). The parsed index, the filter
// block and — when the cache has a budget — data blocks live in the
// BlockCache: re-read and re-charged after eviction, which only a budgeted
// cache does.
class SstableReader {
 public:
  // `cache` holds this reader's blocks under (`tenant`, `table`) — the
  // owning tenant and table file number; table numbers alone collide
  // across tenants' partitions on a node-shared cache. It must outlive the
  // reader. `counters`, if non-null, receives read-path events.
  SstableReader(fs::SimFs& fs, fs::FileId file, BlockCache& cache,
                SstableOptions options = {}, uint64_t table = 0,
                iosched::TenantId tenant = 0,
                TableReadCounters* counters = nullptr);

  struct GetResult {
    bool found = false;    // an entry for the key exists in this table
    bool deleted = false;  // ... and it is a tombstone
    std::string value;
    Status status;         // IO / parse errors
  };

  // Point lookup: newest entry for `key` visible at `snapshot`. Probes the
  // bloom filter (when the table has one) before touching the index.
  sim::Task<GetResult> Get(const iosched::IoTag& tag, std::string_view key,
                           SequenceNumber snapshot);

  // Streaming in-order cursor over the table's records with user key >=
  // the seek key, for range scans. Data blocks are loaded on demand as the
  // cursor advances (each charged to the cursor's tag), so a
  // limit-truncated scan pays only for the blocks it actually touched —
  // unlike ScanAll's whole-table read. The cursor pins the parsed index
  // for its lifetime (a cache eviction mid-scan cannot invalidate it).
  // Scans bypass the bloom filter — a point filter cannot answer a range
  // predicate — and read data blocks straight from the device, so a long
  // scan cannot wash a tenant's hot blocks out of the shared cache.
  class RangeCursor {
   public:
    bool Valid() const { return valid_; }
    // The current record; its views point into the table file and stay
    // valid while the caller holds the table's ref. Requires Valid().
    const Record& record() const { return record_; }
    // Advances to the next record in internal-key order, reading the next
    // data block when the current one is exhausted. Clears Valid() past
    // the table's last record.
    sim::Task<Status> Next();

   private:
    friend class SstableReader;
    RangeCursor(fs::SimFs& fs, fs::FileId file, iosched::IoTag tag,
                TableIndexRef index)
        : fs_(fs), file_(file), tag_(tag), index_(std::move(index)) {}

    // Decodes forward until a record with user key >= `start` surfaces
    // (every record when `bounded` is false), loading blocks as needed.
    sim::Task<Status> SkipTo(std::string_view start, bool bounded);

    fs::SimFs& fs_;
    fs::FileId file_;
    iosched::IoTag tag_;
    TableIndexRef index_;
    size_t next_block_ = 0;  // index of the next data block to load
    std::string_view block_;  // current data block, a view of the file
    size_t offset_ = 0;       // decode position within block_
    Record record_;
    bool valid_ = false;
  };

  // Opens a cursor positioned at the first record whose user key is >=
  // `start` (immediately invalid when the table holds none). The index
  // load and all data-block reads are charged to `tag`.
  sim::Task<StatusOr<std::unique_ptr<RangeCursor>>> Seek(
      const iosched::IoTag& tag, std::string_view start);

  // Sequential scan for compaction: reads the whole data section in
  // write_chunk sized IOs, then yields its records in order via `fn`. The
  // records are views of the table file (valid while its ref is held).
  sim::Task<Status> ScanAll(
      const iosched::IoTag& tag,
      const std::function<void(const Record&)>& fn);

 private:
  // Loads and validates the footer (one charged 16B read, cached in the
  // reader afterwards), locating the index and filter regions.
  sim::Task<Status> LoadFooter(const iosched::IoTag& tag);

  // Resolves the parsed index: from the cache, else loads footer + index
  // block from the device, charged to `tag`. The returned ref pins the
  // index for the caller even if the cache evicts it mid-lookup.
  sim::Task<StatusOr<TableIndexRef>> LoadIndex(const iosched::IoTag& tag);

  // Resolves the filter block the same way. Returns a null ref when the
  // table has no filter; the ref pins the bytes past cache eviction.
  sim::Task<StatusOr<CachedBlockRef>> LoadFilter(const iosched::IoTag& tag);

  fs::SimFs& fs_;
  fs::FileId file_;
  SstableOptions options_;
  BlockCache& cache_;
  uint64_t table_;
  iosched::TenantId tenant_;
  TableReadCounters* counters_;  // nullptr: uncounted (bare-reader tests)
  // Footer, cached after the first (charged) load; a post-eviction reload
  // re-reads only the evicted block.
  bool footer_cached_ = false;
  uint64_t index_offset_ = 0;
  uint64_t index_size_ = 0;
  uint64_t filter_size_ = 0;  // 0 after footer load = table has no filter
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_SSTABLE_H_
