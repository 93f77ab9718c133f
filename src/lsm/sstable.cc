#include "src/lsm/sstable.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>
#include <utility>

namespace libra::lsm {

SstableBuilder::SstableBuilder(fs::SimFs& fs, fs::FileId file,
                               SstableOptions options)
    : fs_(fs), file_(file), options_(options) {}

void SstableBuilder::Reserve(uint64_t entries, uint64_t key_bytes,
                             uint64_t value_bytes) {
  // Each record encodes to key + value + 17 bytes. Every block but the last
  // holds at least block_bytes, and each index entry is its block's last
  // key + 16 bytes; the filter holds at most one key per entry.
  const uint64_t data = key_bytes + value_bytes + 17 * entries;
  const uint64_t blocks =
      std::min<uint64_t>(entries, data / options_.block_bytes + 1);
  const uint64_t filter_bits =
      std::max<uint64_t>(entries * options_.bloom_bits_per_key, 64);
  const uint64_t filter =
      options_.bloom_bits_per_key > 0 ? filter_bits / 8 + 2 : 0;
  buffer_.reserve(data + key_bytes + 16 * blocks + filter + 16);
}

void SstableBuilder::Add(std::string_view key, SequenceNumber seq,
                         ValueType type, std::string_view value) {
  assert(!finished_);
  if (num_entries_ == 0) {
    smallest_ = std::string(key);
  }
  if (options_.bloom_bits_per_key > 0 &&
      (filter_keys_.empty() || filter_keys_.back() != key)) {
    filter_keys_.emplace_back(key);
  }
  last_key_offset_ = buffer_.size() + 4;  // past the key's length prefix
  last_key_size_ = key.size();
  EncodeRecord(&buffer_, key, seq, type, value);
  ++num_entries_;
  if (buffer_.size() - block_start_ >= options_.block_bytes) {
    EndBlock();
  }
}

void SstableBuilder::EndBlock() {
  if (buffer_.size() == block_start_) {
    return;
  }
  index_.push_back(
      IndexEntry{buffer_.substr(last_key_offset_, last_key_size_), block_start_,
                 static_cast<uint32_t>(buffer_.size() - block_start_)});
  block_start_ = buffer_.size();
}

sim::Task<Status> SstableBuilder::Finish(const iosched::IoTag& tag) {
  assert(!finished_);
  finished_ = true;
  EndBlock();
  // Append the index block, the filter block (when filters are on; the
  // footer does not describe it — its region is whatever lies between the
  // index end and the footer, so bits_per_key 0 leaves the file
  // byte-identical to the pre-filter format), and the footer.
  const uint64_t index_offset = buffer_.size();
  for (const IndexEntry& e : index_) {
    PutLengthPrefixed(&buffer_, e.last_key);
    PutFixed64(&buffer_, e.offset);
    PutFixed32(&buffer_, e.size);
  }
  const uint64_t index_size = buffer_.size() - index_offset;
  if (options_.bloom_bits_per_key > 0) {
    BloomFilterBuild(filter_keys_, options_.bloom_bits_per_key, &buffer_);
  }
  PutFixed64(&buffer_, index_offset);
  PutFixed64(&buffer_, index_size);

  // Stream to disk in sequential chunks into a file buffer sized once.
  if (Status s = fs_.Reserve(file_, fs_.SizeOf(file_) + buffer_.size());
      !s.ok()) {
    co_return s;
  }
  uint64_t written = 0;
  while (written < buffer_.size()) {
    const uint64_t len = std::min<uint64_t>(options_.write_chunk_bytes,
                                            buffer_.size() - written);
    Status s = co_await fs_.Append(
        file_, tag, std::string_view(buffer_.data() + written, len));
    if (!s.ok()) {
      co_return s;
    }
    written += len;
  }
  co_return Status::Ok();
}

SstableReader::SstableReader(fs::SimFs& fs, fs::FileId file,
                             BlockCache& cache, SstableOptions options,
                             uint64_t table, iosched::TenantId tenant,
                             TableReadCounters* counters)
    : fs_(fs),
      file_(file),
      options_(options),
      cache_(cache),
      table_(table),
      tenant_(tenant),
      counters_(counters) {}

sim::Task<Status> SstableReader::LoadFooter(const iosched::IoTag& tag) {
  if (footer_cached_) {
    co_return Status::Ok();
  }
  const uint64_t size = fs_.SizeOf(file_);
  if (size < 16) {
    co_return Status::DataLoss("table too small");
  }
  StatusOr<std::string_view> footer =
      co_await fs_.ReadAt(file_, tag, size - 16, 16);
  if (!footer.ok()) {
    co_return footer.status();
  }
  index_offset_ = GetFixed64(*footer, 0);
  index_size_ = GetFixed64(*footer, 8);
  if (index_offset_ + index_size_ + 16 > size) {
    co_return Status::DataLoss("bad footer");
  }
  filter_size_ = size - 16 - (index_offset_ + index_size_);
  footer_cached_ = true;
  co_return Status::Ok();
}

sim::Task<StatusOr<TableIndexRef>> SstableReader::LoadIndex(
    const iosched::IoTag& tag) {
  if (CachedBlockRef hit =
          cache_.Get(tenant_, table_, BlockCache::Kind::kIndex, 0);
      hit != nullptr) {
    co_return hit->index;
  }
  if (Status s = co_await LoadFooter(tag); !s.ok()) {
    co_return s;
  }
  const uint64_t index_offset = index_offset_;
  const uint64_t index_size = index_size_;
  // Index read padded to at least a 4KB block — the "at least one (4KB)
  // index block read per file" of §3.1.
  const uint64_t data_end = index_offset + index_size;
  const uint64_t read_size =
      std::max<uint64_t>(index_size, std::min<uint64_t>(4096, data_end));
  const uint64_t read_off = data_end - read_size;
  StatusOr<std::string_view> index_block =
      co_await fs_.ReadAt(file_, tag, read_off, read_size);
  if (!index_block.ok()) {
    co_return index_block.status();
  }
  if (counters_ != nullptr) {
    ++counters_->index_block_reads;
  }
  // The index proper is the tail of the padded read.
  const std::string_view data =
      index_block->substr(index_offset - read_off, index_size);
  auto index = std::make_shared<TableIndex>();
  size_t off = 0;
  while (off < data.size()) {
    std::string_view key;
    if (!GetLengthPrefixed(data, &off, &key) || off + 12 > data.size()) {
      co_return Status::DataLoss("bad index entry");
    }
    const uint64_t block_off = GetFixed64(data, off);
    const uint32_t block_size = GetFixed32(data, off + 8);
    off += 12;
    index->emplace_back(std::string(key), block_off, block_size);
  }
  TableIndexRef ref = std::move(index);
  auto block = std::make_shared<CachedBlock>();
  block->index = ref;
  cache_.Insert(tenant_, table_, BlockCache::Kind::kIndex, 0, std::move(block),
                index_size);
  co_return ref;
}

sim::Task<StatusOr<CachedBlockRef>> SstableReader::LoadFilter(
    const iosched::IoTag& tag) {
  if (footer_cached_ && filter_size_ == 0) {
    co_return CachedBlockRef{};  // known filterless: zero IO, zero probes
  }
  // Only probe once the footer proved a filter exists — otherwise every
  // GET against a filterless table would count a phantom cache miss.
  if (footer_cached_) {
    if (CachedBlockRef hit =
            cache_.Get(tenant_, table_, BlockCache::Kind::kFilter, 0);
        hit != nullptr) {
      co_return hit;
    }
  }
  if (Status s = co_await LoadFooter(tag); !s.ok()) {
    co_return s;
  }
  if (filter_size_ == 0) {
    co_return CachedBlockRef{};
  }
  // Filter read padded to at least a 4KB block, mirroring the index read.
  const uint64_t filter_offset = index_offset_ + index_size_;
  const uint64_t filter_end = filter_offset + filter_size_;
  const uint64_t read_size =
      std::max<uint64_t>(filter_size_, std::min<uint64_t>(4096, filter_end));
  const uint64_t read_off = filter_end - read_size;
  StatusOr<std::string_view> filter_block =
      co_await fs_.ReadAt(file_, tag, read_off, read_size);
  if (!filter_block.ok()) {
    co_return filter_block.status();
  }
  if (counters_ != nullptr) {
    ++counters_->filter_block_reads;
  }
  auto block = std::make_shared<CachedBlock>();
  block->bytes = filter_block->substr(filter_offset - read_off, filter_size_);
  CachedBlockRef ref = std::move(block);
  cache_.Insert(tenant_, table_, BlockCache::Kind::kFilter, 0, ref,
                filter_size_);
  co_return ref;
}

sim::Task<SstableReader::GetResult> SstableReader::Get(
    const iosched::IoTag& tag, std::string_view key,
    SequenceNumber snapshot) {
  GetResult result;
  // Filter first: a negative probe proves the key absent and skips both
  // the index and the data-block device reads.
  bool filter_maybe = false;
  {
    StatusOr<CachedBlockRef> filter = co_await LoadFilter(tag);
    if (!filter.ok()) {
      result.status = filter.status();
      co_return result;
    }
    if (*filter != nullptr) {
      if (counters_ != nullptr) {
        ++counters_->bloom_probes;
      }
      if (!BloomFilterMayContain((*filter)->bytes, key)) {
        if (counters_ != nullptr) {
          ++counters_->bloom_negatives;
        }
        co_return result;  // definitely not in this table
      }
      filter_maybe = true;
    }
  }
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    result.status = loaded.status();
    co_return result;
  }
  const TableIndex& index = **loaded;  // ref pins past eviction
  // First block whose last key >= lookup key.
  const auto it = std::lower_bound(
      index.begin(), index.end(), key,
      [](const auto& entry, std::string_view k) {
        return std::string_view(std::get<0>(entry)) < k;
      });
  if (it == index.end()) {
    // Key larger than everything in the table — a filter that said maybe
    // was wrong.
    if (filter_maybe && counters_ != nullptr) {
      ++counters_->bloom_false_positives;
    }
    co_return result;
  }
  const uint64_t block_off = std::get<1>(*it);
  CachedBlockRef data_ref;
  std::string_view block;  // the cached copy, else a view of the file
  const bool data_cached = cache_.caches_data();
  if (data_cached) {
    data_ref = cache_.Get(tenant_, table_, BlockCache::Kind::kData, block_off);
  }
  if (data_ref != nullptr) {
    if (counters_ != nullptr) {
      ++counters_->data_cache_hits;  // zero device IO
    }
    block = data_ref->bytes;
  } else {
    StatusOr<std::string_view> read =
        co_await fs_.ReadAt(file_, tag, block_off, std::get<2>(*it));
    if (!read.ok()) {
      result.status = read.status();
      co_return result;
    }
    if (counters_ != nullptr) {
      ++counters_->data_block_reads;
    }
    block = *read;
    if (data_cached) {
      auto filled = std::make_shared<CachedBlock>();
      filled->bytes = std::string(block);
      cache_.Insert(tenant_, table_, BlockCache::Kind::kData, block_off,
                    filled, filled->bytes.size());
      data_ref = std::move(filled);
    }
  }
  // Scan the block for the newest visible entry (records are in internal
  // order: the first match with seq <= snapshot wins).
  size_t off = 0;
  Record rec;
  while (off < block.size() && DecodeRecord(block, &off, &rec)) {
    if (rec.key == key && rec.seq <= snapshot) {
      result.found = true;
      if (rec.type == ValueType::kDelete) {
        result.deleted = true;
      } else {
        result.value = std::string(rec.value);
      }
      co_return result;
    }
    if (rec.key > key) {
      break;
    }
  }
  if (filter_maybe && counters_ != nullptr) {
    ++counters_->bloom_false_positives;
  }
  co_return result;
}

sim::Task<Status> SstableReader::RangeCursor::SkipTo(std::string_view start,
                                                     bool bounded) {
  valid_ = false;
  while (true) {
    while (offset_ < block_.size()) {
      if (!DecodeRecord(block_, &offset_, &record_)) {
        co_return Status::DataLoss("bad data block");
      }
      if (!bounded || record_.key >= start) {
        valid_ = true;
        co_return Status::Ok();
      }
    }
    if (next_block_ >= index_->size()) {
      co_return Status::Ok();  // clean end of table, cursor invalid
    }
    const auto& entry = (*index_)[next_block_];
    StatusOr<std::string_view> read = co_await fs_.ReadAt(
        file_, tag_, std::get<1>(entry), std::get<2>(entry));
    if (!read.ok()) {
      co_return read.status();
    }
    block_ = *read;
    offset_ = 0;
    ++next_block_;
  }
}

sim::Task<Status> SstableReader::RangeCursor::Next() {
  return SkipTo({}, /*bounded=*/false);
}

sim::Task<StatusOr<std::unique_ptr<SstableReader::RangeCursor>>>
SstableReader::Seek(const iosched::IoTag& tag, std::string_view start) {
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    co_return loaded.status();
  }
  std::unique_ptr<RangeCursor> cursor(
      new RangeCursor(fs_, file_, tag, *loaded));
  // Records before the first block whose last key >= start all compare
  // below the seek key; start loading there.
  const TableIndex& index = **loaded;
  const auto it = std::lower_bound(
      index.begin(), index.end(), start,
      [](const auto& entry, std::string_view k) {
        return std::string_view(std::get<0>(entry)) < k;
      });
  cursor->next_block_ = static_cast<size_t>(it - index.begin());
  if (Status s = co_await cursor->SkipTo(start, /*bounded=*/true); !s.ok()) {
    co_return s;
  }
  co_return cursor;
}

sim::Task<Status> SstableReader::ScanAll(
    const iosched::IoTag& tag,
    const std::function<void(const Record&)>& fn) {
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    co_return loaded.status();
  }
  const TableIndex& index = **loaded;
  if (index.empty()) {
    co_return Status::Ok();
  }
  const uint64_t data_end =
      std::get<1>(index.back()) + std::get<2>(index.back());
  // The chunks are consecutive views of one file, so the first one's start
  // begins a view of the whole data section.
  const char* data_start = nullptr;
  uint64_t pos = 0;
  while (pos < data_end) {
    const uint64_t len =
        std::min<uint64_t>(options_.write_chunk_bytes, data_end - pos);
    StatusOr<std::string_view> chunk =
        co_await fs_.ReadAt(file_, tag, pos, len);
    if (!chunk.ok()) {
      co_return chunk.status();
    }
    if (data_start == nullptr) {
      data_start = chunk->data();
    }
    assert(chunk->data() == data_start + pos);
    pos += len;
  }
  // Records never span blocks and blocks are contiguous, so a single
  // linear decode covers the whole data section.
  const std::string_view data(data_start, data_end);
  size_t off = 0;
  Record rec;
  while (off < data.size() && DecodeRecord(data, &off, &rec)) {
    fn(rec);
  }
  co_return Status::Ok();
}

}  // namespace libra::lsm
