#include "src/lsm/block_cache.h"

#include <utility>

namespace libra::lsm {

CachedBlockRef BlockCache::Get(iosched::TenantId tenant, uint64_t table,
                               Kind kind, uint64_t offset) {
  const auto it = map_.find(Key{tenant, table, kind, offset});
  if (it == map_.end()) {
    ++misses_;
    ++tenants_[tenant].misses[static_cast<int>(kind)];
    return nullptr;
  }
  ++hits_;
  ++it->second->counters->hits[static_cast<int>(kind)];
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->block;
}

void BlockCache::Insert(iosched::TenantId tenant, uint64_t table, Kind kind,
                        uint64_t offset, CachedBlockRef block,
                        uint64_t bytes) {
  const Key key{tenant, table, kind, offset};
  EraseKey(key);  // replace semantics (concurrent loaders may both insert)
  lru_.push_front(Entry{key, std::move(block), bytes, &tenants_[tenant]});
  map_[key] = lru_.begin();
  resident_bytes_ += bytes;
  if (capacity_bytes_ == 0) {
    return;  // unbounded
  }
  while (resident_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    ++evictions_;
    ++victim.counters->evictions;
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

void BlockCache::EraseTable(iosched::TenantId tenant, uint64_t table) {
  auto it = map_.lower_bound(Key{tenant, table, Kind::kIndex, 0});
  while (it != map_.end() && it->first.tenant == tenant &&
         it->first.table == table) {
    resident_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    it = map_.erase(it);
  }
}

void BlockCache::EraseKey(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return;
  }
  resident_bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  map_.erase(it);
}

BlockCache::TenantCounters BlockCache::CountersOf(
    iosched::TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantCounters{} : it->second;
}

}  // namespace libra::lsm
