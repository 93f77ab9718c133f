// Parallel-engine cluster tests: the Cluster seam layer on a MultiLoop —
// request routing across per-node loops, thread-count-independent stats,
// the fault-injector delay floor against the engine lookahead, crash
// failover + recovery, and lossless migration, all through cross-loop
// messages instead of direct calls.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fault_injector.h"
#include "src/cluster/global_provisioner.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"

namespace libra::cluster {
namespace {

using iosched::TenantId;

constexpr SimDuration kRpcLatency = 50 * kMicrosecond;

ssd::CalibrationTable TestTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

ClusterOptions TestOptions(int nodes, int rf = 1) {
  ClusterOptions opt;
  opt.num_nodes = nodes;
  opt.replication_factor = rf;
  opt.node_options.calibration = TestTable();
  opt.node_options.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.node_options.lsm_options.max_bytes_level1 = 1 * kMiB;
  opt.node_options.prefill_bytes = 64 * kMiB;
  opt.rpc_latency = kRpcLatency;
  return opt;
}

// num_nodes + 1 loops: loop 0 is the coordinator, loop i + 1 is node i.
struct ParallelRig {
  sim::MultiLoop ml;
  Cluster cl;

  ParallelRig(int nodes, int threads, int rf = 1)
      : ml(nodes + 1, {threads, kRpcLatency}),
        cl(ml, TestOptions(nodes, rf)) {}

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    ml.Run();
  }
};

std::string Key(int i) { return std::string("k").append(std::to_string(i)); }
std::string Val(int i) { return std::string("v").append(std::to_string(i)); }

// Coroutines that outlive their spawning statement are free functions
// taking parameters by value (a capturing lambda's closure dies at the end
// of the spawning full expression).
sim::Task<void> PutAll(TenantHandle h, int n) {
  for (int i = 0; i < n; ++i) {
    const Status s = co_await h.Put(Key(i), Val(i));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

sim::Task<void> GetAll(TenantHandle h, int n, uint64_t* ok) {
  for (int i = 0; i < n; ++i) {
    const Result<std::string> r = co_await h.Get(Key(i));
    if (r.ok() && r.value() == Val(i)) {
      ++*ok;
    } else {
      ADD_FAILURE() << Key(i) << ": "
                    << (r.ok() ? "wrong value" : r.status().ToString());
    }
  }
}

sim::Task<void> MigrateAndCheck(Cluster* cl, TenantId tenant, int slot,
                                int to) {
  const Status s = co_await cl->MigrateShard(tenant, slot, to);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

sim::Task<void> RestartAndCheck(Cluster* cl, int node) {
  const Status s = co_await cl->RestartNode(node);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ParallelClusterTest, ServesRequestsAcrossNodeLoops) {
  ParallelRig rig(/*nodes=*/4, /*threads=*/1);
  ASSERT_TRUE(rig.cl.parallel());
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 32));
  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 32, &ok));
  EXPECT_EQ(ok, 32u);
  // The traffic really crossed loops: every request is at least a
  // request + response message pair.
  EXPECT_GE(rig.ml.messages_sent(), 128u);
  EXPECT_GT(rig.ml.epochs(), 0u);
}

TEST(ParallelClusterTest, DeleteAndMultiGetThroughSeams) {
  ParallelRig rig(/*nodes=*/3, /*threads=*/1);
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask([](TenantHandle t) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await t.Put(Key(i), Val(i))).ok());
    }
    EXPECT_TRUE((co_await t.Delete(Key(3))).ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) {
      keys.push_back(Key(i));
    }
    const auto results = co_await t.MultiGet(keys);
    EXPECT_EQ(results.size(), keys.size());
    if (results.size() != keys.size()) {
      co_return;  // ASSERT_* returns are not usable inside a coroutine
    }
    for (int i = 0; i < 8; ++i) {
      if (i == 3) {
        EXPECT_EQ(results[i].status().code(), StatusCode::kNotFound);
      } else {
        EXPECT_TRUE(results[i].ok()) << keys[i];
        EXPECT_EQ(results[i].ok() ? results[i].value() : "", Val(i));
      }
    }
  }(h));
}

// One full scenario — admission, traffic, provisioner interval steps via
// barrier hooks, stop, drain — rendered to the stats JSON. The render must
// be byte-identical for any worker count.
std::string StatsScenario(int threads) {
  ParallelRig rig(/*nodes=*/3, threads);
  TenantHandle h1 =
      rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  TenantHandle h2 =
      rig.cl.AddTenant(2, GlobalReservation{300.0, 300.0}).value();
  rig.cl.Start();
  sim::Detach(PutAll(h1, 48));
  sim::Detach(PutAll(h2, 16));
  rig.ml.RunUntil(3 * kSecond);  // a few provisioner intervals pass idle
  rig.cl.Stop();
  rig.ml.Run();
  return ClusterStatsToJson(rig.cl.Snapshot());
}

TEST(ParallelClusterTest, StatsJsonIdenticalAcrossThreadCounts) {
  const std::string one = StatsScenario(1);
  const std::string three = StatsScenario(3);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(ParallelClusterTest, FaultDelayFloorValidation) {
  FaultInjectorOptions opt;
  opt.rpc_delay_rate = 0.5;
  opt.rpc_delay_min = 10 * kMicrosecond;

  // Serial engines (no lookahead) and configs that never delay are fine.
  EXPECT_TRUE(CheckFaultDelayFloor(opt, 0).ok());
  FaultInjectorOptions inactive = opt;
  inactive.rpc_delay_rate = 0.0;
  EXPECT_TRUE(CheckFaultDelayFloor(inactive, kRpcLatency).ok());

  // A delay draw below the lookahead could land in an epoch that already
  // ran: rejected with both values and the hazard spelled out.
  const Status s = CheckFaultDelayFloor(opt, kRpcLatency);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(std::to_string(10 * kMicrosecond)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find(std::to_string(kRpcLatency)), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("lookahead"), std::string::npos) << s.message();

  FaultInjectorOptions good = opt;
  good.rpc_delay_min = kRpcLatency;
  EXPECT_TRUE(CheckFaultDelayFloor(good, kRpcLatency).ok());
}

TEST(ParallelClusterTest, FaultInjectorRefusesShortDelaysOnParallelEngine) {
  ParallelRig rig(/*nodes=*/2, /*threads=*/1);
  FaultInjectorOptions bad;
  bad.rpc_delay_rate = 0.25;
  bad.rpc_delay_min = rig.ml.lookahead() - 1;
  FaultInjector rejected(rig.ml.loop(0), rig.cl, bad);
  EXPECT_FALSE(rejected.config_status().ok());
  EXPECT_EQ(rejected.config_status().code(), StatusCode::kInvalidArgument);

  FaultInjectorOptions good = bad;
  good.rpc_delay_min = rig.ml.lookahead();
  FaultInjector accepted(rig.ml.loop(0), rig.cl, good);
  EXPECT_TRUE(accepted.config_status().ok());
}

TEST(ParallelClusterTest, CrashFailoverAndRecoveryAtRf2) {
  ParallelRig rig(/*nodes=*/4, /*threads=*/2, /*rf=*/2);
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 64));

  ASSERT_TRUE(rig.cl.CrashNode(1).ok());
  rig.ml.Run();  // the crash message lands on node 1's loop
  EXPECT_FALSE(rig.cl.NodeAlive(1));

  // Every key still reads back: requests fail over to the live replica.
  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);

  rig.RunTask(RestartAndCheck(&rig.cl, 1));
  EXPECT_TRUE(rig.cl.NodeAlive(1));
  EXPECT_FALSE(rig.cl.NodeSyncing(1));  // catch-up completed

  ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);
}

TEST(ParallelClusterTest, MigrationIsLosslessOnParallelEngine) {
  ParallelRig rig(/*nodes=*/4, /*threads=*/2);
  const TenantId tenant = 1;
  TenantHandle h =
      rig.cl.AddTenant(tenant, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 64));

  const int slot = 0;
  const int from = rig.cl.shard_map().HomeOf(tenant, slot);
  const int to = (from + 1) % rig.cl.num_nodes();
  rig.RunTask(MigrateAndCheck(&rig.cl, tenant, slot, to));
  EXPECT_EQ(rig.cl.shard_map().HomeOf(tenant, slot), to);

  uint64_t moved = 0;
  for (const auto& rec : rig.cl.rebalance_log().records()) {
    if (rec.kind == obs::RebalanceRecord::Kind::kMigration &&
        rec.tenant == tenant && rec.slot == slot) {
      moved = rec.keys_moved;
    }
  }
  EXPECT_GT(moved, 0u);

  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);
}

// The parallel engine must agree with the serial engine on every visible
// request result, not just on timing-free invariants.
TEST(ParallelClusterTest, ResultsMatchSerialEngine) {
  std::vector<std::string> serial_results;
  {
    sim::EventLoop loop;
    ClusterOptions opt = TestOptions(3);
    opt.rpc_latency = 0;
    Cluster cl(loop, opt);
    TenantHandle h = cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
    sim::Detach(PutAll(h, 24));
    loop.Run();
    sim::Detach([](TenantHandle t, std::vector<std::string>* out)
                    -> sim::Task<void> {
      for (int i = 0; i < 24; ++i) {
        const Result<std::string> r = co_await t.Get(Key(i));
        out->push_back(r.ok() ? r.value() : r.status().ToString());
      }
      const Result<std::string> miss = co_await t.Get("absent");
      out->push_back(miss.ok() ? miss.value() : miss.status().ToString());
    }(h, &serial_results));
    loop.Run();
  }

  std::vector<std::string> parallel_results;
  {
    ParallelRig rig(/*nodes=*/3, /*threads=*/2);
    TenantHandle h =
        rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
    rig.RunTask(PutAll(h, 24));
    rig.RunTask([](TenantHandle t, std::vector<std::string>* out)
                    -> sim::Task<void> {
      for (int i = 0; i < 24; ++i) {
        const Result<std::string> r = co_await t.Get(Key(i));
        out->push_back(r.ok() ? r.value() : r.status().ToString());
      }
      const Result<std::string> miss = co_await t.Get("absent");
      out->push_back(miss.ok() ? miss.value() : miss.status().ToString());
    }(h, &parallel_results));
  }

  EXPECT_EQ(parallel_results, serial_results);
}

}  // namespace
}  // namespace libra::cluster
