// The deterministic bulk-synchronous engine: ParallelBspEngine at one
// thread.
//
// Every round runs on the calling thread — produce in rank order, delivery
// through the shared wire core (comm/delivery.hpp), consume in rank order —
// which makes this the reference every other engine is tested against. The
// round itself lives in comm/parallel.hpp; this name only fixes the thread
// count and keeps the (n, failures, trace, timing) constructor.
#pragma once

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/parallel.hpp"

namespace kylix {

template <typename V>
class BspEngine : public ParallelBspEngine<V> {
 public:
  /// All observer pointers are optional and not owned.
  BspEngine(rank_t num_nodes, const FailureModel* failures = nullptr,
            Trace* trace = nullptr, TimingAccumulator* timing = nullptr)
      : ParallelBspEngine<V>(num_nodes, 1, failures, trace, timing) {}
};

}  // namespace kylix
