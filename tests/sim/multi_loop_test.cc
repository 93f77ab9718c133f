// MultiLoop (conservative parallel epoch engine) tests, plus regression
// pins for the EventLoop epoch primitives it is built on: RunBefore's
// exclusive horizon, AdvanceTo, NextEventTime, and RunUntil's inclusive
// deadline + idle-advance. These boundary semantics are what make an event
// scheduled exactly at a barrier timestamp run at the same instant — and
// in the same relative order — as under the serial engine.

#include "src/sim/multi_loop.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"

namespace libra::sim {
namespace {

// --- EventLoop epoch-primitive regressions (satellite: barrier semantics) ---

TEST(EventLoopEpochTest, RunBeforeHorizonIsExclusive) {
  EventLoop loop;
  std::vector<int> ran;
  loop.ScheduleAt(10, [&] { ran.push_back(10); });
  loop.ScheduleAt(19, [&] { ran.push_back(19); });
  loop.ScheduleAt(20, [&] { ran.push_back(20); });  // exactly at horizon
  EXPECT_EQ(loop.RunBefore(20), 2u);
  EXPECT_EQ(ran, (std::vector<int>{10, 19}));
  // Clock rests at the last dispatched event, not the horizon: the barrier
  // advances clocks explicitly.
  EXPECT_EQ(loop.Now(), 19);
  ASSERT_TRUE(loop.NextEventTime().has_value());
  EXPECT_EQ(*loop.NextEventTime(), 20);
}

TEST(EventLoopEpochTest, RunBeforeIdleLoopDoesNotAdvance) {
  EventLoop loop;
  EXPECT_EQ(loop.RunBefore(1000), 0u);
  EXPECT_EQ(loop.Now(), 0);
}

TEST(EventLoopEpochTest, AdvanceToMovesOnlyForward) {
  EventLoop loop;
  loop.AdvanceTo(50);
  EXPECT_EQ(loop.Now(), 50);
  loop.AdvanceTo(30);  // behind: no-op
  EXPECT_EQ(loop.Now(), 50);
}

TEST(EventLoopEpochTest, NextEventTimeSkipsCancelledEvents) {
  EventLoop loop;
  const EventLoop::EventId early = loop.ScheduleAt(10, [] {});
  loop.ScheduleAt(25, [] {});
  ASSERT_TRUE(loop.NextEventTime().has_value());
  EXPECT_EQ(*loop.NextEventTime(), 10);
  loop.Cancel(early);
  ASSERT_TRUE(loop.NextEventTime().has_value());
  EXPECT_EQ(*loop.NextEventTime(), 25);
  loop.Run();
  EXPECT_FALSE(loop.NextEventTime().has_value());
}

TEST(EventLoopEpochTest, RunUntilDeadlineIsInclusiveAndIdleAdvances) {
  EventLoop loop;
  std::vector<int> ran;
  loop.ScheduleAt(100, [&] { ran.push_back(100); });  // exactly at deadline
  loop.ScheduleAt(101, [&] { ran.push_back(101); });
  EXPECT_EQ(loop.RunUntil(100), 1u);
  EXPECT_EQ(ran, (std::vector<int>{100}));
  EXPECT_EQ(loop.Now(), 100);
  EXPECT_EQ(loop.RunUntil(500), 1u);  // 101 runs, then idle-advance
  EXPECT_EQ(loop.Now(), 500);
}

// Stepping one loop in fixed-lookahead epochs (the MultiLoop inner loop:
// RunBefore to an exclusive horizon, AdvanceTo the barrier) dispatches the
// same events in the same order at the same clock readings as a serial
// RunUntil — including events landing exactly on epoch boundaries and at
// the final deadline.
TEST(EventLoopEpochTest, ManualEpochSteppingMatchesSerialRunUntil) {
  constexpr SimTime kDeadline = 100;
  constexpr SimDuration kLookahead = 10;
  const std::vector<SimTime> kWhens = {0, 5, 10, 10, 19, 20, 21,
                                       30, 55, 99, 100, 100};

  auto seed = [&](EventLoop& loop, std::vector<SimTime>& log) {
    for (const SimTime w : kWhens) {
      loop.ScheduleAt(w, [&loop, &log] { log.push_back(loop.Now()); });
    }
  };

  EventLoop serial;
  std::vector<SimTime> serial_log;
  seed(serial, serial_log);
  const uint64_t serial_n = serial.RunUntil(kDeadline);

  EventLoop epoch;
  std::vector<SimTime> epoch_log;
  seed(epoch, epoch_log);
  uint64_t epoch_n = 0;
  for (;;) {
    const std::optional<SimTime> g = epoch.NextEventTime();
    if (!g.has_value() || *g > kDeadline) {
      break;
    }
    epoch.AdvanceTo(*g);
    SimTime horizon = *g + kLookahead;
    if (horizon > kDeadline) {
      horizon = kDeadline + 1;  // inclusive deadline in the last epoch
    }
    epoch_n += epoch.RunBefore(horizon);
  }
  epoch.AdvanceTo(kDeadline);

  EXPECT_EQ(epoch_n, serial_n);
  EXPECT_EQ(epoch_log, serial_log);
  EXPECT_EQ(epoch.Now(), serial.Now());
}

// --- MultiLoop engine ---

TEST(MultiLoopTest, CrossLoopMessageDeliversAtSendTimePlusDelay) {
  MultiLoop ml(2, {/*threads=*/1, /*lookahead=*/10});
  SimTime delivered_at = -1;
  ml.loop(0).ScheduleAt(5, [&] {
    ml.Send(0, 1, 25, [&] { delivered_at = ml.loop(1).Now(); });
  });
  EXPECT_EQ(ml.Run(), 2u);
  EXPECT_EQ(delivered_at, 30);
  EXPECT_EQ(ml.messages_sent(), 1u);
}

TEST(MultiLoopTest, RunUntilInclusiveDeadlineAndIdleAdvance) {
  MultiLoop ml(3, {/*threads=*/1, /*lookahead=*/10});
  std::vector<int> ran;
  ml.loop(1).ScheduleAt(100, [&] { ran.push_back(1); });  // exactly at deadline
  ml.loop(2).ScheduleAt(101, [&] { ran.push_back(2); });  // past it
  EXPECT_EQ(ml.RunUntil(100), 1u);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  // Every clock — and the barrier clock — idle-advances to the deadline.
  EXPECT_EQ(ml.Now(), 100);
  for (int i = 0; i < ml.num_loops(); ++i) {
    EXPECT_EQ(ml.loop(i).Now(), 100) << "loop " << i;
  }
  EXPECT_EQ(ml.RunUntil(500), 1u);
  EXPECT_EQ(ml.Now(), 500);
  EXPECT_EQ(ml.loop(0).Now(), 500);
}

// An event scheduled exactly at an interior epoch boundary G + lookahead
// belongs to the next epoch and still runs at its exact timestamp.
TEST(MultiLoopTest, EventExactlyAtEpochBoundaryRunsAtItsTime) {
  MultiLoop ml(2, {/*threads=*/1, /*lookahead=*/10});
  std::vector<std::pair<int, SimTime>> log;
  ml.loop(0).ScheduleAt(0, [&] { log.push_back({0, ml.loop(0).Now()}); });
  // First barrier G = 0, horizon 10: this event sits exactly on it.
  ml.loop(1).ScheduleAt(10, [&] { log.push_back({1, ml.loop(1).Now()}); });
  ml.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{0, 0}));
  EXPECT_EQ(log[1], (std::pair<int, SimTime>{1, 10}));
  EXPECT_EQ(ml.epochs(), 2u);  // one epoch per boundary event
}

// At equal delivery timestamps the exchange injects messages in (sender,
// sender-seq) order regardless of the order outboxes were filled, so the
// destination's FIFO tie-break is schedule-independent.
TEST(MultiLoopTest, ExchangeOrdersBySenderThenSendOrderAtEqualTimestamps) {
  MultiLoop ml(4, {/*threads=*/1, /*lookahead=*/10});
  std::vector<std::string> order;
  // Fill outboxes in reverse sender order, all delivering to loop 0 at
  // t=10; sender 3 sends twice to exercise the per-sender seq tie-break.
  for (int from = 3; from >= 1; --from) {
    ml.Send(from, 0, 10, [&order, from] {
      order.push_back(std::string("s").append(std::to_string(from)) + "a");
    });
  }
  ml.Send(3, 0, 10, [&order] { order.push_back("s3b"); });
  ml.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"s1a", "s2a", "s3a", "s3b"}));
}

TEST(MultiLoopTest, CheckDelayRejectsBelowLookaheadWithDescriptiveError) {
  MultiLoop ml(2, {/*threads=*/1, /*lookahead=*/50000});
  EXPECT_TRUE(ml.CheckDelay(50000).ok());
  EXPECT_TRUE(ml.CheckDelay(70000).ok());
  const Status s = ml.CheckDelay(49999);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The message must name both values and explain the hazard.
  EXPECT_NE(s.message().find("49999"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("50000"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("lookahead"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("epoch that already ran"), std::string::npos)
      << s.message();
}

TEST(MultiLoopTest, BarrierHookFiresAtExactTimeOnIdleEngine) {
  MultiLoop ml(3, {/*threads=*/1, /*lookahead=*/10});
  SimTime fired_at = -1;
  SimTime loop2_at = -1;
  ml.ScheduleBarrierAt(1234, [&] {
    fired_at = ml.Now();
    loop2_at = ml.loop(2).Now();  // every loop quiesced and advanced
  });
  ml.Run();  // no events at all: the hook time alone bounds the barrier
  EXPECT_EQ(fired_at, 1234);
  EXPECT_EQ(loop2_at, 1234);
}

TEST(MultiLoopTest, RearmingBarrierHookRunsOncePerRequestedTime) {
  MultiLoop ml(2, {/*threads=*/1, /*lookahead=*/10});
  std::vector<SimTime> fires;
  std::function<void()> tick = [&] {
    fires.push_back(ml.Now());
    if (fires.size() < 3) {
      ml.ScheduleBarrierAt(ml.Now() + 100, tick);
    }
  };
  ml.ScheduleBarrierAt(100, tick);
  ml.Run();
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300}));
}

TEST(MultiLoopTest, HookAndEventAtSameBarrierHookRunsFirst) {
  MultiLoop ml(2, {/*threads=*/1, /*lookahead=*/10});
  std::vector<std::string> order;
  ml.loop(1).ScheduleAt(40, [&] { order.push_back("event"); });
  ml.ScheduleBarrierAt(40, [&] { order.push_back("hook"); });
  ml.Run();
  // Hooks run at the barrier with loops quiesced, before the epoch step.
  EXPECT_EQ(order, (std::vector<std::string>{"hook", "event"}));
}

// --- determinism across worker counts ---

struct Logs {
  std::array<std::vector<std::string>, 4> per_loop;
};

// Three ping-pong rounds between the coordinator and each node loop, with
// node-local events interleaved. Captures stay under SmallFn's inline
// budget; each callback writes only its own loop's log (the engine's
// no-shared-state rule).
void PingPong(MultiLoop* ml, Logs* logs, int node, int rounds_left) {
  ml->Send(0, node, 10 + node, [ml, logs, node, rounds_left] {
    logs->per_loop[node].push_back("recv@" +
                                   std::to_string(ml->loop(node).Now()));
    ml->Send(node, 0, 15, [ml, logs, node, rounds_left] {
      logs->per_loop[0].push_back("ack" + std::to_string(node) + "@" +
                                  std::to_string(ml->loop(0).Now()));
      if (rounds_left > 1) {
        PingPong(ml, logs, node, rounds_left - 1);
      }
    });
  });
}

struct ScenarioResult {
  Logs logs;
  uint64_t dispatched = 0;
  uint64_t epochs = 0;
  uint64_t messages = 0;
  std::array<SimTime, 4> final_now{};
};

ScenarioResult RunScenario(int threads) {
  ScenarioResult out;
  MultiLoop ml(4, {threads, /*lookahead=*/10});
  Logs& logs = out.logs;
  for (int l = 0; l < 4; ++l) {
    for (int k = 0; k < 5; ++k) {
      ml.loop(l).ScheduleAt(7 * k + l, [&ml, &logs, l, k] {
        logs.per_loop[l].push_back("local" + std::to_string(k) + "@" +
                                   std::to_string(ml.loop(l).Now()));
      });
    }
  }
  for (int node = 1; node < 4; ++node) {
    PingPong(&ml, &logs, node, 3);
  }
  ml.ScheduleBarrierAt(25, [&ml, &logs] {
    logs.per_loop[0].push_back("hook@" + std::to_string(ml.Now()));
  });
  out.dispatched = ml.RunUntil(200);
  out.epochs = ml.epochs();
  out.messages = ml.messages_sent();
  for (int l = 0; l < 4; ++l) {
    out.final_now[l] = ml.loop(l).Now();
  }
  return out;
}

TEST(MultiLoopTest, IdenticalResultsForAnyWorkerCount) {
  const ScenarioResult base = RunScenario(1);
  // Sanity: the scenario actually exercised cross-loop traffic.
  EXPECT_EQ(base.messages, 18u);  // 3 nodes * 3 rounds * 2 legs
  EXPECT_GT(base.epochs, 0u);
  for (const int threads : {2, 4}) {
    const ScenarioResult other = RunScenario(threads);
    EXPECT_EQ(other.logs.per_loop, base.logs.per_loop) << threads;
    EXPECT_EQ(other.dispatched, base.dispatched) << threads;
    EXPECT_EQ(other.epochs, base.epochs) << threads;
    EXPECT_EQ(other.messages, base.messages) << threads;
    EXPECT_EQ(other.final_now, base.final_now) << threads;
  }
}

// Degenerate single-loop engine: with no cross-loop traffic possible, the
// epoch engine must reproduce the serial EventLoop exactly (this is how
// single-node demos run under --sim-threads without changing output).
TEST(MultiLoopTest, SingleLoopEngineMatchesSerialEventLoop) {
  const std::vector<SimTime> kWhens = {0, 3, 10, 10, 20, 47, 50};

  EventLoop serial;
  std::vector<SimTime> serial_log;
  for (const SimTime w : kWhens) {
    serial.ScheduleAt(w, [&serial, &serial_log] {
      serial_log.push_back(serial.Now());
      if (serial.Now() == 3) {
        serial.ScheduleAfter(9, [&serial, &serial_log] {
          serial_log.push_back(serial.Now());
        });
      }
    });
  }
  const uint64_t serial_n = serial.RunUntil(50);

  MultiLoop ml(1, {/*threads=*/1, /*lookahead=*/10});
  EventLoop& loop = ml.loop(0);
  std::vector<SimTime> ml_log;
  for (const SimTime w : kWhens) {
    loop.ScheduleAt(w, [&loop, &ml_log] {
      ml_log.push_back(loop.Now());
      if (loop.Now() == 3) {
        loop.ScheduleAfter(9, [&loop, &ml_log] {
          ml_log.push_back(loop.Now());
        });
      }
    });
  }
  const uint64_t ml_n = ml.RunUntil(50);

  EXPECT_EQ(ml_n, serial_n);
  EXPECT_EQ(ml_log, serial_log);
  EXPECT_EQ(loop.Now(), serial.Now());
}

}  // namespace
}  // namespace libra::sim
