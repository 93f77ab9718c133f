// Deterministic shard placement for the cluster layer.
//
// Each tenant's keyspace is divided into a fixed number of shard slots
// (slot = hash(key) mod shards_per_tenant); slots are placed on nodes by
// consistent hashing: every node projects kVnodesPerNode points onto a
// 64-bit ring, and a (tenant, slot) pair homes on the first node point at or
// after its own ring position. The construction is a pure function of the
// options, so two maps built from the same spec agree on every placement —
// the property a restarting router or a test harness relies on.
//
// Migrations re-home a slot explicitly: Rehome() records an override that
// takes precedence over the ring until cleared. Overrides are the only
// mutable state.

#ifndef LIBRA_SRC_CLUSTER_SHARD_MAP_H_
#define LIBRA_SRC_CLUSTER_SHARD_MAP_H_

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace libra::cluster {

// Virtual points per node on the hash ring; more points smooth the
// slot-count imbalance between nodes.
inline constexpr int kVnodesPerNode = 64;

struct ShardMapOptions {
  int num_nodes = 4;
  int shards_per_tenant = 8;
  uint64_t seed = 0x11b7a5eed;  // any change reshuffles every placement
  // Replicas per slot: the leader plus rf-1 followers on distinct nodes
  // (the next distinct nodes walking the ring from the slot's position).
  // Clamped to num_nodes. 1 = unreplicated, the pre-replication layout.
  int replication_factor = 1;
};

class ShardMap {
 public:
  explicit ShardMap(ShardMapOptions options);

  int num_nodes() const { return options_.num_nodes; }
  int shards_per_tenant() const { return options_.shards_per_tenant; }
  int replication_factor() const {
    return options_.replication_factor < options_.num_nodes
               ? options_.replication_factor
               : options_.num_nodes;
  }

  // Shard slot of a key (tenant-independent: a tenant's keys spread over
  // all of its slots regardless of id).
  int SlotOfKey(std::string_view key) const;

  // Node currently homing (tenant, slot): the migration override when one
  // exists, else the ring placement.
  int HomeOf(uint32_t tenant, int slot) const;

  // Convenience: HomeOf(tenant, SlotOfKey(key)).
  int NodeOfKey(uint32_t tenant, std::string_view key) const;

  // Replica set of (tenant, slot): the leader (HomeOf, override-aware)
  // first, then RF-1 followers — the next distinct nodes walking the ring
  // from the slot's position. Size = replication_factor() (leader-only at
  // RF=1). Followers come from the ring even when a migration override
  // moved the leader, so a re-homed slot keeps its original followers.
  std::vector<int> ReplicasOf(uint32_t tenant, int slot) const;

  // Per-slot homes for a tenant (size shards_per_tenant).
  std::vector<int> Assignment(uint32_t tenant) const;

  // Number of `tenant` slot *replicas* hosted on each node (size
  // num_nodes). At RF=1 this is the leader count per node; at RF>1 a node
  // is counted for every slot it leads or follows — the unit of PUT work
  // (and reservation mass) the node actually carries.
  std::vector<int> SlotsPerNode(uint32_t tenant) const;

  // Pins (tenant, slot) to `node` (shard migration). An override equal to
  // the ring placement is stored anyway: placements must not silently move
  // back if the ring were ever rebuilt differently.
  void Rehome(uint32_t tenant, int slot, int node);

  size_t num_overrides() const { return overrides_.size(); }

 private:
  struct RingPoint {
    uint64_t point;
    int node;
    bool operator<(const RingPoint& other) const {
      if (point != other.point) {
        return point < other.point;
      }
      return node < other.node;  // total order: ties must break the same way
    }
  };

  int RingLookup(uint64_t point) const;
  // Index of the first ring point at or after `point` (wrapping).
  size_t RingIndex(uint64_t point) const;
  uint64_t SlotPoint(uint32_t tenant, int slot) const;

  ShardMapOptions options_;
  std::vector<RingPoint> ring_;  // sorted by point
  std::map<uint64_t, int> overrides_;  // key: tenant << 32 | slot
};

}  // namespace libra::cluster

#endif  // LIBRA_SRC_CLUSTER_SHARD_MAP_H_
