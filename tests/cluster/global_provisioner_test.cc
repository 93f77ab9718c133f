#include "src/cluster/global_provisioner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/sync.h"

namespace libra::cluster {
namespace {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

ssd::CalibrationTable TestTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

ClusterOptions TestOptions(int nodes = 4) {
  ClusterOptions opt;
  opt.num_nodes = nodes;
  opt.node_options.calibration = TestTable();
  opt.node_options.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.node_options.lsm_options.max_bytes_level1 = 1 * kMiB;
  opt.node_options.prefill_bytes = 64 * kMiB;
  return opt;
}

double SplitGetSum(Cluster& cl, TenantId tenant) {
  double sum = 0.0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    sum +=
        cl.node(n).policy().GetReservation(tenant).RateOf(AppRequest::kGet);
  }
  return sum;
}

// Keys of `tenant` homed on `node` under the cluster's shard map.
std::vector<std::string> KeysOn(const Cluster& cl, TenantId tenant, int node,
                                int count) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(count) && i < 100000;
       ++i) {
    std::string key = "hot-" + std::to_string(i);
    if (cl.shard_map().NodeOfKey(tenant, key) == node) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

// Spawned coroutines that suspend must be free functions with by-value
// parameters (copied into the frame); a capturing lambda's closure is a
// temporary that dies before the loop resumes the coroutine.
sim::Task<void> PutAll(TenantHandle tenant, std::vector<std::string> keys,
                       std::string value) {
  for (const std::string& k : keys) {
    co_await tenant.Put(k, value);
  }
}

sim::Task<void> HammerKeys(sim::EventLoop* loop, TenantHandle tenant,
                           std::vector<std::string> keys, SimTime end) {
  size_t i = 0;
  while (loop->Now() < end) {
    co_await tenant.Get(keys[i++ % keys.size()]);
    // Memtable-resident GETs complete in zero simulated time; yield so the
    // clock advances and the loop terminates.
    co_await sim::SleepFor(*loop, 100 * kMicrosecond);
  }
}

TEST(GlobalProvisionerTest, ResplitSumsExactlyToGlobalUnderSkew) {
  sim::EventLoop loop;
  Cluster cl(loop, TestOptions());
  const GlobalReservation global{3000.0, 1000.0};
  TenantHandle tenant = cl.AddTenant(1, global).value();

  // Concentrate all demand on one node, then provision repeatedly: the
  // split must follow the demand and always re-sum exactly to the global
  // reservation.
  const int hot_node = cl.shard_map().HomeOf(1, 0);
  const std::vector<std::string> keys = KeysOn(cl, 1, hot_node, 8);
  ASSERT_FALSE(keys.empty());
  {
    sim::TaskGroup group(loop);
    group.Spawn(PutAll(tenant, keys, std::string(1024, 'x')));
    loop.Run();
  }

  GlobalProvisioner& prov = cl.provisioner();
  for (int round = 0; round < 5; ++round) {
    {
      sim::TaskGroup group(loop);
      group.Spawn(HammerKeys(&loop, tenant, keys,
                             loop.Now() + 500 * kMillisecond));
      loop.Run();
    }
    prov.RunIntervalStep();
    EXPECT_DOUBLE_EQ(SplitGetSum(cl, 1), global.RateOf(AppRequest::kGet))
        << round;
  }
  EXPECT_GT(prov.splits_applied(), 0u);

  // The hot node ended up with the dominant share of the reservation.
  const double hot_share =
      cl.node(hot_node).policy().GetReservation(1).RateOf(AppRequest::kGet) /
      global.RateOf(AppRequest::kGet);
  EXPECT_GT(hot_share, 0.5);
  EXPECT_GT(prov.DemandShare(1, hot_node), 0.5);
}

TEST(GlobalProvisionerTest, HysteresisStopsSteadyStateThrash) {
  sim::EventLoop loop;
  Cluster cl(loop, TestOptions());
  TenantHandle tenant = cl.AddTenant(1, GlobalReservation{1000.0, 0.0}).value();
  const int hot_node = cl.shard_map().HomeOf(1, 0);
  const std::vector<std::string> keys = KeysOn(cl, 1, hot_node, 4);
  ASSERT_FALSE(keys.empty());
  {
    sim::TaskGroup group(loop);
    group.Spawn(PutAll(tenant, keys, "v"));
    loop.Run();
  }

  GlobalProvisioner& prov = cl.provisioner();
  // Steady identical demand every interval: after the split converges, the
  // hysteresis band must hold it still.
  for (int round = 0; round < 8; ++round) {
    sim::TaskGroup group(loop);
    group.Spawn(
        HammerKeys(&loop, tenant, keys, loop.Now() + 500 * kMillisecond));
    loop.Run();
    prov.RunIntervalStep();
  }
  const uint64_t converged = prov.splits_applied();
  for (int round = 0; round < 4; ++round) {
    sim::TaskGroup group(loop);
    group.Spawn(
        HammerKeys(&loop, tenant, keys, loop.Now() + 500 * kMillisecond));
    loop.Run();
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.splits_applied(), converged);
}

// Writes and reads back each of `keys` once, `gap` apart (perfbench's
// tenant_scale request pair): the same per-node request counts every time it
// runs.
sim::Task<void> PutGetEach(sim::EventLoop* loop, TenantHandle tenant,
                           std::vector<std::string> keys, SimDuration gap) {
  for (const std::string& k : keys) {
    co_await tenant.Put(k, "v");
    co_await tenant.Get(k);
    co_await sim::SleepFor(*loop, gap);
  }
}

// tenant_scale's shape (RF 2, a 20 GET/s + 10 PUT/s reservation, a handful of
// PUT + readback pairs per tenant per interval) with the demand held steady
// for ten intervals: each tenant gets exactly one demand-driven split away
// from the slot-proportional admission split, then hysteresis holds it. So
// tenant_scale's ~one split record per tenant (its 2.5 s run has a single
// resplit step, at 2 s) is that first split, not churn.
TEST(GlobalProvisionerTest, SteadyDemandSplitsEachTenantOnce) {
  sim::EventLoop loop;
  ClusterOptions opt = TestOptions();
  opt.replication_factor = 2;
  Cluster cl(loop, opt);
  constexpr TenantId kTenants = 4;
  std::vector<TenantHandle> handles;
  for (TenantId t = 1; t <= kTenants; ++t) {
    handles.push_back(cl.AddTenant(t, GlobalReservation{20.0, 10.0}).value());
  }
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back("k-" + std::to_string(i));
  }

  GlobalProvisioner& prov = cl.provisioner();
  prov.RunIntervalStep();  // the first step only records a demand baseline
  for (int round = 0; round < 10; ++round) {
    {
      sim::TaskGroup group(loop);
      for (const TenantHandle& h : handles) {
        group.Spawn(PutGetEach(&loop, h, keys, 100 * kMillisecond));
      }
      loop.Run();
    }
    prov.RunIntervalStep();
  }

  std::vector<int> splits(kTenants + 1, 0);
  for (const auto& rec : cl.rebalance_log().records()) {
    ASSERT_EQ(rec.kind, obs::RebalanceRecord::Kind::kSplit);
    ++splits[rec.tenant];
  }
  for (TenantId t = 1; t <= kTenants; ++t) {
    EXPECT_EQ(splits[t], 1) << "tenant " << t;
  }
}

TEST(GlobalProvisionerTest, NoDemandKeepsSlotProportionalSplit) {
  sim::EventLoop loop;
  Cluster cl(loop, TestOptions());
  const GlobalReservation global{800.0, 400.0};
  ASSERT_TRUE(cl.AddTenant(1, global).ok());
  const auto initial = [&] {
    std::vector<Reservation> r;
    for (int n = 0; n < cl.num_nodes(); ++n) {
      r.push_back(cl.node(n).policy().GetReservation(1));
    }
    return r;
  };
  const std::vector<Reservation> before = initial();
  GlobalProvisioner& prov = cl.provisioner();
  prov.RunIntervalStep();
  loop.RunUntil(loop.Now() + kSecond);
  prov.RunIntervalStep();
  // Nothing observed: the slot-proportional split equals the admission-time
  // even split, so hysteresis holds it and nothing thrashes.
  EXPECT_EQ(prov.splits_applied(), 0u);
  const std::vector<Reservation> after = initial();
  for (int n = 0; n < cl.num_nodes(); ++n) {
    for (AppRequest app : {AppRequest::kGet, AppRequest::kPut}) {
      EXPECT_DOUBLE_EQ(after[n].RateOf(app), before[n].RateOf(app)) << n;
    }
  }
  loop.Run();
}

TEST(GlobalProvisionerTest, PersistentOverbookingTriggersMigration) {
  sim::EventLoop loop;
  ClusterOptions opt = TestOptions(2);
  opt.provisioner.overbook_intervals_before_migration = 3;
  Cluster cl(loop, opt);
  ASSERT_TRUE(cl.AddTenant(1, GlobalReservation{100.0, 100.0}).ok());

  // Overbook node 0 behind the cluster's back: its policy now records
  // overbooked == true every interval.
  const int src = 0;
  ASSERT_TRUE(cl.node(src).HasTenant(1));
  ASSERT_TRUE(cl.node(src).UpdateReservation(1, {1.0e6, 1.0e6}).ok());
  cl.node(0).Start();
  cl.node(1).Start();

  GlobalProvisioner& prov = cl.provisioner();
  const size_t overrides_before = cl.shard_map().num_overrides();
  for (int i = 0; i < 5 && prov.migrations_started() == 0; ++i) {
    loop.RunUntil(loop.Now() + 1100 * kMillisecond);
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.migrations_started(), 1u);

  // Let the detached migration drain and flip the map.
  loop.RunUntil(loop.Now() + kSecond);
  EXPECT_GT(cl.shard_map().num_overrides(), overrides_before);
  bool saw_migration = false;
  for (const auto& rec : cl.rebalance_log().records()) {
    if (rec.kind == obs::RebalanceRecord::Kind::kMigration) {
      saw_migration = true;
      EXPECT_EQ(rec.tenant, 1u);
      EXPECT_EQ(rec.from_node, src);
      EXPECT_EQ(rec.to_node, 1);
    }
  }
  EXPECT_TRUE(saw_migration);

  cl.node(0).Stop();
  cl.node(1).Stop();
  loop.Run();
}

TEST(GlobalProvisionerTest, DisabledMigrationNeverFires) {
  sim::EventLoop loop;
  ClusterOptions opt = TestOptions(2);
  opt.provisioner.overbook_intervals_before_migration = 0;  // disabled
  Cluster cl(loop, opt);
  ASSERT_TRUE(cl.AddTenant(1, GlobalReservation{100.0, 100.0}).ok());
  ASSERT_TRUE(cl.node(0).UpdateReservation(1, {1.0e6, 1.0e6}).ok());
  cl.node(0).Start();
  cl.node(1).Start();
  GlobalProvisioner& prov = cl.provisioner();
  for (int i = 0; i < 5; ++i) {
    loop.RunUntil(loop.Now() + 1100 * kMillisecond);
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.migrations_started(), 0u);
  cl.node(0).Stop();
  cl.node(1).Stop();
  loop.Run();
}

}  // namespace
}  // namespace libra::cluster
