// Seeded oracle for the per-node admission ledger: after every random
// control-plane step (admissions with shuffled ids, reservation updates,
// crash/restart re-splits, rejections at the budget boundary) the ledger's
// ProvisionedOn must equal, bit for bit, the all-tenant left-to-right walk
// over the current splits, and every admission verdict and rejection text
// must be the one that walk implies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/sim/sync.h"

namespace libra::cluster {

using iosched::Reservation;
using iosched::TenantId;

class ClusterTestPeer {
 public:
  static double ProvisionedOn(const Cluster& cl, int node, TenantId except) {
    return cl.ProvisionedOn(node, except);
  }

  // The reference: every admitted tenant but `except`, in id order, adds
  // the priced share its current split places on `node`.
  static double Walk(const Cluster& cl, int node, TenantId except) {
    double provisioned = 0.0;
    for (const auto& [tenant, state] : cl.tenants_) {
      if (tenant == except) {
        continue;
      }
      if (const auto it = state.split.find(node); it != state.split.end()) {
        provisioned += cl.PricedVops(it->second);
      }
    }
    return provisioned;
  }

  static double PricedVops(const Cluster& cl, const Reservation& r) {
    return cl.PricedVops(r);
  }

  static std::map<int, Reservation> EvenSplit(const Cluster& cl,
                                              TenantId tenant,
                                              const GlobalReservation& g) {
    return cl.EvenSplit(tenant, g);
  }
};

namespace {

using Peer = ClusterTestPeer;

constexpr double kUtilization = 0.95;

ssd::CalibrationTable TestTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

ClusterOptions LedgerOptions() {
  ClusterOptions opt;
  opt.num_nodes = 4;
  opt.admission_utilization = kUtilization;
  opt.node_options.calibration = TestTable();
  opt.node_options.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.node_options.prefill_bytes = 16 * kMiB;
  return opt;
}

// The verdict (and exact rejection text) the reference walk implies for
// placing `split` for `tenant`.
Status ExpectedVerdict(Cluster& cl, TenantId tenant,
                       const std::map<int, Reservation>& split) {
  for (const auto& [n, share] : split) {
    const double provisioned = Peer::Walk(cl, n, tenant);
    const double incoming = Peer::PricedVops(cl, share);
    const double floor = cl.node(n).capacity().provisionable();
    const double budget = kUtilization * floor;
    if (provisioned + incoming > budget) {
      return Status::ResourceExhausted(
          "admission rejected: node " + std::to_string(n) + " would carry " +
          std::to_string(provisioned + incoming) + " VOP/s (" +
          std::to_string(provisioned) + " provisioned + " +
          std::to_string(incoming) + " for tenant " + std::to_string(tenant) +
          "), over " + std::to_string(budget) + " = " +
          std::to_string(kUtilization) + " * capacity floor " +
          std::to_string(floor));
    }
  }
  return Status::Ok();
}

void ExpectSameVerdict(const Status& got, const Status& want) {
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
}

void RunTask(sim::EventLoop& loop, sim::Task<void> t) {
  sim::Detach(std::move(t));
  loop.Run();
}

sim::Task<void> Restart(Cluster* cl, int node, Status* out) {
  *out = co_await cl->RestartNode(node);
}

TEST(AdmissionLedgerTest, SeededStepsMatchTheAllTenantWalk) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::EventLoop loop;
    Cluster cl(loop, LedgerOptions());
    Rng rng(seed);

    // Ids arrive shuffled, so most admissions land below some node's
    // largest admitted id (the ledger's non-append path).
    std::vector<TenantId> fresh;
    for (TenantId t = 1; t <= 80; ++t) {
      fresh.push_back(t);
    }
    for (size_t i = fresh.size(); i > 1; --i) {
      std::swap(fresh[i - 1], fresh[rng.NextU64(i)]);
    }
    std::vector<TenantId> admitted;
    int rejections = 0;
    int boundary_rejections = 0;
    int membership_changes = 0;

    const auto random_global = [&]() {
      return GlobalReservation{rng.NextDouble() * 3000.0,
                               rng.NextDouble() * 1500.0};
    };
    const auto try_add = [&](TenantId t, const GlobalReservation& g) {
      const Status want =
          ExpectedVerdict(cl, t, Peer::EvenSplit(cl, t, g));
      const Result<TenantHandle> got = cl.AddTenant(t, g);
      ExpectSameVerdict(got.status(), want);
      if (got.ok()) {
        admitted.push_back(t);
        fresh.erase(std::find(fresh.begin(), fresh.end(), t));
      } else {
        ++rejections;
      }
      return got.status();
    };

    for (int step = 0; step < 240; ++step) {
      const double dice = rng.NextDouble();
      if (dice < 0.45 && !fresh.empty()) {
        try_add(fresh[rng.NextU64(fresh.size())], random_global());
      } else if (dice < 0.70 && !admitted.empty()) {
        const TenantId t = admitted[rng.NextU64(admitted.size())];
        const GlobalReservation g = random_global();
        const Status want = ExpectedVerdict(cl, t, Peer::EvenSplit(cl, t, g));
        const Status got = cl.UpdateGlobalReservation(t, g);
        ExpectSameVerdict(got, want);
        rejections += got.ok() ? 0 : 1;
      } else if (dice < 0.85) {
        // Membership change: crash a live node (keeping two up) or
        // restart a dead one; both re-split every tenant.
        std::vector<int> up;
        std::vector<int> down;
        for (int n = 0; n < cl.num_nodes(); ++n) {
          (cl.NodeAlive(n) ? up : down).push_back(n);
        }
        if (!down.empty() && (up.size() <= 2 || rng.Bernoulli(0.5))) {
          Status s = Status::Internal("restart did not run");
          RunTask(loop, Restart(&cl, down[rng.NextU64(down.size())], &s));
          ASSERT_TRUE(s.ok()) << s.ToString();
        } else {
          ASSERT_TRUE(cl.CrashNode(up[rng.NextU64(up.size())]).ok());
        }
        ++membership_changes;
      } else if (!fresh.empty()) {
        // Boundary: scale a fixed mix to just past the tightest node's
        // remaining budget (rejected), then to just under it (admitted
        // unless rounding says otherwise — the walk decides).
        const TenantId t = fresh[rng.NextU64(fresh.size())];
        const GlobalReservation unit{1.0, 0.5};
        double scale = std::numeric_limits<double>::infinity();
        for (const auto& [n, share] : Peer::EvenSplit(cl, t, unit)) {
          const double room =
              kUtilization * cl.node(n).capacity().provisionable() -
              Peer::Walk(cl, n, t);
          scale = std::min(scale, room / Peer::PricedVops(cl, share));
        }
        if (!(scale > 0.0) || std::isinf(scale)) {
          continue;  // already overbooked by a re-split, or no live host
        }
        // The absolute term keeps the overshoot well above the budget's
        // ulp when the remaining room is tiny.
        const double over = scale * (1.0 + 1e-6) + 1e-3;
        const double under = std::max(0.0, scale * (1.0 - 1e-6) - 1e-3);
        const Status s = try_add(t, GlobalReservation{over, 0.5 * over});
        EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
        boundary_rejections += s.ok() ? 0 : 1;
        try_add(t, GlobalReservation{under, 0.5 * under});
      }

      // The ledger against the walk, exactly: everyone, each admitted
      // tenant excluded in turn, and an id nobody holds.
      for (int n = 0; n < cl.num_nodes(); ++n) {
        EXPECT_EQ(Peer::ProvisionedOn(cl, n, iosched::kInvalidTenant),
                  Peer::Walk(cl, n, iosched::kInvalidTenant))
            << "step " << step << " node " << n;
        EXPECT_EQ(Peer::ProvisionedOn(cl, n, 1000), Peer::Walk(cl, n, 1000));
        for (const TenantId t : admitted) {
          EXPECT_EQ(Peer::ProvisionedOn(cl, n, t), Peer::Walk(cl, n, t))
              << "step " << step << " node " << n << " except " << t;
        }
      }
      if (HasFatalFailure()) {
        return;
      }
    }
    // The seeds exercise every path the ledger has.
    EXPECT_GT(admitted.size(), 10u);
    EXPECT_GT(rejections, 0);
    EXPECT_GT(boundary_rejections, 0);
    EXPECT_GT(membership_changes, 5);
  }
}

}  // namespace
}  // namespace libra::cluster
