/**
 * @file
 * Isolated per-layer replays for the traced benchmark run: one
 * workload's recorded DynOp stream is pushed through each simulator
 * layer's public functions on its own (functional execution, trace
 * replay, the branch predictor, the cache hierarchy, the comparator
 * prefetchers and the B-Fetch hooks), so each layer's host cost per
 * unit of work is measured without the others around it.
 */

#ifndef BFSIM_PERFBENCH_LAYERS_HH_
#define BFSIM_PERFBENCH_LAYERS_HH_

#include <cstdint>
#include <string>

#include "spans.hh"

namespace perfbench {

/** Work counts and host seconds of the isolated layer replays. */
struct LayerCosts
{
    std::uint64_t ops = 0;          ///< DynOps replayed per layer
    double captureSeconds = 0.0;    ///< LiveSource::nextBatch
    double replaySeconds = 0.0;     ///< TraceReplay::nextSpan
    std::uint64_t traceBytes = 0;   ///< resident TraceBuffer bytes
    std::uint64_t branches = 0;     ///< conditional branches
    std::uint64_t mispredicts = 0;
    double branchSeconds = 0.0;     ///< predict + update
    std::uint64_t accesses = 0;     ///< demand loads and stores
    double memSeconds = 0.0;        ///< Hierarchy::access
    double smsSeconds = 0.0;        ///< SMS Prefetcher::observe
    double strideSeconds = 0.0;     ///< Stride Prefetcher::observe
    std::uint64_t controlOps = 0;   ///< branches and jumps
    double bfetchSeconds = 0.0;     ///< BFetchEngine hooks
    /** Replays whose ops differ from live functional execution. */
    std::uint64_t replayMismatches = 0;

    void add(const LayerCosts &other);
};

/**
 * Record the first `ops` DynOps of suite workload `workload` and replay
 * them through every layer in isolation, with one span per layer under
 * the recorder's innermost open span.
 */
LayerCosts replayLayers(const std::string &workload, std::uint64_t ops,
                        SpanRecorder &spans);

} // namespace perfbench

#endif // BFSIM_PERFBENCH_LAYERS_HH_
