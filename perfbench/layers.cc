#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "branch/registry.hh"
#include "core/bfetch.hh"
#include "mem/hierarchy.hh"
#include "prefetch/registry.hh"
#include "sim/dyn_op_source.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace perfbench {

using namespace bfsim;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The recorded stream in the trace's column layout. */
struct OpColumns
{
    std::vector<std::uint32_t> pcIndex;
    std::vector<Addr> effAddr;
    std::vector<RegVal> result;
    std::vector<std::uint8_t> flags;

    std::size_t size() const { return pcIndex.size(); }
    bool taken(std::size_t i) const
    {
        return flags[i] & sim::OpSpanView::takenFlag;
    }
    bool writesReg(std::size_t i) const
    {
        return flags[i] & sim::OpSpanView::writesRegFlag;
    }
};

std::uint64_t
opChecksum(std::uint32_t pc_index, Addr eff_addr, RegVal result,
           std::uint8_t flags)
{
    std::uint64_t x = pc_index ^ (eff_addr * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(result) << 1) ^
                      (std::uint64_t{flags} << 56);
    return x ^ (x >> 29);
}

} // namespace

void
LayerCosts::add(const LayerCosts &other)
{
    ops += other.ops;
    captureSeconds += other.captureSeconds;
    replaySeconds += other.replaySeconds;
    traceBytes += other.traceBytes;
    branches += other.branches;
    mispredicts += other.mispredicts;
    branchSeconds += other.branchSeconds;
    accesses += other.accesses;
    memSeconds += other.memSeconds;
    smsSeconds += other.smsSeconds;
    strideSeconds += other.strideSeconds;
    controlOps += other.controlOps;
    bfetchSeconds += other.bfetchSeconds;
    replayMismatches += other.replayMismatches;
}

LayerCosts
replayLayers(const std::string &workload, std::uint64_t ops,
             SpanRecorder &spans)
{
    using Clock = std::chrono::steady_clock;
    const isa::Program &program =
        workloads::workloadByName(workload).program;
    const std::vector<isa::StaticDecode> &decode = program.decodeTable();
    LayerCosts cost;

    // Both timed op-delivery loops read every op they deliver, as a
    // consumer would; the checksums prove that trace replay reproduces
    // live functional execution.
    std::uint64_t live_sum = 0;
    {
        auto span = spans.scope("sim.capture:" + workload);
        sim::LiveSource live(program);
        std::vector<sim::DynOp> batch(sim::opBatchSize);
        auto start = Clock::now();
        while (cost.ops < ops) {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch.size(), ops - cost.ops));
            std::size_t got = live.nextBatch(batch.data(), want);
            if (got == 0)
                break;
            for (std::size_t i = 0; i < got; ++i) {
                const sim::DynOp &op = batch[i];
                live_sum += opChecksum(
                    op.pcIndex, op.effAddr, op.result,
                    static_cast<std::uint8_t>(
                        (op.taken ? sim::OpSpanView::takenFlag : 0) |
                        (op.writesReg ? sim::OpSpanView::writesRegFlag
                                      : 0)));
            }
            cost.ops += got;
        }
        cost.captureSeconds = secondsSince(start);
    }

    // Record the stream once (untimed), then time a replay of it.
    sim::TraceCapture capture(program);
    OpColumns columns;
    sim::OpSpanView view;
    while (columns.size() < cost.ops) {
        std::size_t got = capture.nextSpan(view, cost.ops - columns.size());
        if (got == 0 || got == sim::DynOpSource::noSpan)
            break;
        columns.pcIndex.insert(columns.pcIndex.end(), view.pcIndex,
                               view.pcIndex + got);
        columns.effAddr.insert(columns.effAddr.end(), view.effAddr,
                               view.effAddr + got);
        columns.result.insert(columns.result.end(), view.result,
                              view.result + got);
        columns.flags.insert(columns.flags.end(), view.flags,
                             view.flags + got);
    }
    cost.ops = columns.size();
    cost.traceBytes = capture.buffer()->memoryBytes();
    const std::size_t n = columns.size();
    {
        auto span = spans.scope("sim.replay:" + workload);
        sim::TraceReplay replay(capture.buffer());
        std::uint64_t replayed = 0, replay_sum = 0;
        auto start = Clock::now();
        while (replayed < cost.ops) {
            std::size_t got = replay.nextSpan(view, cost.ops - replayed);
            if (got == 0 || got == sim::DynOpSource::noSpan)
                break;
            for (std::size_t i = 0; i < got; ++i)
                replay_sum += opChecksum(view.pcIndex[i], view.effAddr[i],
                                         view.result[i], view.flags[i]);
            replayed += got;
        }
        cost.replaySeconds = secondsSince(start);
        cost.replayMismatches += replayed != n || replay_sum != live_sum;
    }

    {
        auto span = spans.scope("branch:" + workload);
        auto predictor = branch::makePredictor("tournament");
        auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            if (!decode[columns.pcIndex[i]].isCondBranch())
                continue;
            Addr pc = isa::instAddr(columns.pcIndex[i]);
            bool taken = columns.taken(i);
            ++cost.branches;
            cost.mispredicts += predictor->predict(pc) != taken;
            predictor->update(pc, taken);
        }
        cost.branchSeconds = secondsSince(start);
    }

    // One op per cycle: a synthetic clock, since no core model runs.
    std::vector<std::uint8_t> l1Hit(n, 0);
    {
        auto span = spans.scope("mem:" + workload);
        mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
        auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const isa::StaticDecode &d = decode[columns.pcIndex[i]];
            if (!d.isMemory())
                continue;
            ++cost.accesses;
            l1Hit[i] = hierarchy
                           .access(0, columns.effAddr[i], d.isStore(),
                                   static_cast<Cycle>(i))
                           .l1Hit;
        }
        cost.memSeconds = secondsSince(start);
    }

    struct
    {
        const char *scheme;
        double *seconds;
    } prefetchers[] = {{"sms", &cost.smsSeconds},
                       {"stride", &cost.strideSeconds}};
    for (auto [scheme, seconds] : prefetchers) {
        auto span = spans.scope(std::string("prefetch.") + scheme + ":" +
                                workload);
        prefetch::CorePrefetch plan = prefetch::makeCorePrefetch(scheme);
        prefetch::PrefetchQueue queue;
        auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const isa::StaticDecode &d = decode[columns.pcIndex[i]];
            if (!d.isMemory())
                continue;
            prefetch::DemandAccess access{
                isa::instAddr(columns.pcIndex[i]), columns.effAddr[i],
                d.isLoad(), l1Hit[i] != 0, static_cast<Cycle>(i)};
            plan.demand->observe(access, queue);
            while (!queue.empty())
                queue.pop();
        }
        *seconds = secondsSince(start);
    }

    {
        // The hooks in OooCore's order; the predictor calls they need
        // are part of the measured cost.
        auto span = spans.scope("core.bfetch:" + workload);
        auto predictor = branch::makePredictor("tournament");
        prefetch::PrefetchQueue queue;
        core::BFetchEngine engine(core::BFetchConfig{}, *predictor, queue);
        auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const isa::StaticDecode &d = decode[columns.pcIndex[i]];
            Addr pc = isa::instAddr(columns.pcIndex[i]);
            Cycle now = static_cast<Cycle>(i);
            bool writes = columns.writesReg(i);
            if (writes)
                engine.onRegWrite(d.rd, columns.result[i], i + 1, now);
            if (d.isControl()) {
                ++cost.controlOps;
                bool cond = d.isCondBranch();
                bool taken = columns.taken(i);
                bool predicted = cond ? predictor->predict(pc) : true;
                engine.onDecodeBranch(pc, predicted,
                                      predicted ? d.targetAddr : pc + 4,
                                      cond, now);
                engine.onCommitBranch(pc, taken, d.targetAddr, cond,
                                      predicted == taken);
                if (cond)
                    predictor->update(pc, taken);
            }
            if (d.isMemory())
                engine.onCommitMem(pc, d.rs1, columns.effAddr[i],
                                   d.isLoad());
            if (writes)
                engine.onCommitRegWrite(d.rd, columns.result[i]);
            while (!queue.empty())
                queue.pop();
        }
        cost.bfetchSeconds = secondsSince(start);
    }
    return cost;
}

} // namespace perfbench
