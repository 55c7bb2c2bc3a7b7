// The three benchmark workloads. Each runs in one process with one caller
// (closed loop), generates its inputs from the seed before any timer
// starts, checks every op, and fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

/// PageRank steady state: configure once, then warm reduce() replays of
/// the frozen plan on the twitter-like graph, degrees 8x4x2.
void run_replay_twitter(const Config& cfg, Report& report);

/// Minibatch mode: one reduce_with_config() per step over a pool of fresh
/// Zipf(0.9) key sets, degrees 8x4x2.
void run_minibatch_zipf(const Config& cfg, Report& report);

/// Overlapped replay: windows of 4 streams through the AsyncExecutor on
/// the yahoo-like graph, degrees 16x4.
void run_async_yahoo(const Config& cfg, Report& report);

}  // namespace perfbench
