/**
 * @file
 * The repository benchmark: runs one of three workloads through the
 * public harness (workloads::allWorkloads, harness::selectMixes,
 * harness::runBatch, harness::warmSharedTrace, sim::trace_store),
 * repeats its timed sweep from cold memo and trace caches until the
 * measuring time is used up, checks every job's outputs, and prints
 * every metric by name with its unit. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload single_suite|mix4|sampled_long --seed N
 *             --seconds S --trace 0|1 [--setup-only] [--smoke]
 *             [--store DIR] [--spans PATH]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * untraced and traced sweeps, replays each workload's op stream
 * through every layer in isolation and prints the per-layer metrics,
 * writing the recorded spans to --spans. --setup-only stops after
 * set-up and prints {"setup_s": ...}. --smoke divides every budget by
 * 20 (self-test only). The exit code is non-zero when an output check
 * fails.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/batch.hh"
#include "harness/experiment.hh"
#include "harness/mixes.hh"
#include "harness/sampling.hh"
#include "layers.hh"
#include "sim/trace_store.hh"
#include "spans.hh"
#include "workloads/workload.hh"

namespace {

using namespace bfsim;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

/** B-Fetch geomean speedups the paper reports (Fig. 8 and Fig. 10). */
constexpr double paperSingleSpeedup = 1.232;
constexpr double paperMix4Speedup = 1.285;

const std::vector<std::string> schemes{"None", "Stride", "SMS", "Bfetch"};

/** fig10's top FOA-ranked mixes that mix4 times, and held-out draws. */
constexpr unsigned timedMixes = 10;
constexpr unsigned heldOutMixes = 2;

/** DynOps per application in the isolated layer replays. */
constexpr std::uint64_t layerReplayOps = 200'000;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "single_suite|mix4|sampled_long --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--smoke] [--store DIR] "
                 "[--spans PATH]\n",
                 message.c_str());
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool setupOnly = false;
    bool smoke = false;
    std::string storeDir = ".bench_build/perfbench-store";
    std::string spansPath = ".bench_build/perfbench-spans.json";
};

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || !end || *end != '\0' || value[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + value +
              "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " expects a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            args.workload = value();
        } else if (arg == "--seed") {
            args.seed = parseCount(arg, value());
        } else if (arg == "--seconds") {
            args.seconds =
                static_cast<double>(parseCount(arg, value()));
            have_seconds = true;
        } else if (arg == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            args.trace = v == "1";
        } else if (arg == "--setup-only") {
            args.setupOnly = true;
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--store") {
            args.storeDir = value();
        } else if (arg == "--spans") {
            args.spansPath = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (args.workload != "single_suite" && args.workload != "mix4" &&
        args.workload != "sampled_long")
        usage("unknown workload '" + args.workload + "'");
    if (!have_seconds && !args.setupOnly)
        usage("--seconds is required");
    return args;
}

/** Deterministic 64-bit mixer (splitmix64) for seed-driven draws. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fisher-Yates shuffle driven by splitmix64 (portable across libs). */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[splitmix(state) % i]);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]) of a non-empty sample. */
double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return values.empty()
               ? 0.0
               : std::exp(log_sum / static_cast<double>(values.size()));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One FOA-ranked mix with its fig10 row number. */
struct RankedMix
{
    unsigned row;
    std::vector<std::string> workloads;
};

std::string
mixLabel(const RankedMix &mix)
{
    std::string label = "mix" + std::to_string(mix.row) + "=";
    for (std::size_t i = 0; i < mix.workloads.size(); ++i)
        label += (i ? "+" : "") + mix.workloads[i];
    return label;
}

/** A workload's timed sweep and what its checks and metrics need. */
struct Plan
{
    std::string name;
    harness::RunOptions options;
    std::vector<harness::BatchJob> jobs;
    unsigned threads = 1;
    /** Distinct suite applications the sweep runs. */
    std::vector<std::string> apps;
    std::vector<RankedMix> mixes;
    std::vector<RankedMix> heldOut;
    double paperSpeedup = paperSingleSpeedup;
};

/**
 * Threads of each timed sweep: one per CPU the process may run on, at
 * most four. A busy neighbour on the shared host slows the CPU it sits
 * on; a one-thread sweep takes that slowdown whole whenever it lands
 * there, while a sweep over every CPU only takes its share.
 */
unsigned
sweepThreads()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0)
        return 1;
    return static_cast<unsigned>(std::clamp(CPU_COUNT(&mask), 1, 4));
}

/**
 * Set-up: program build, then FOA profiling and mix selection (mix4)
 * or cold capture of a fresh v2 trace store (sampled_long), then the
 * job list. Everything here happens before the first timed job.
 */
Plan
setUp(const Args &args, SpanRecorder &spans)
{
    Plan plan;
    plan.name = args.workload;
    const std::uint64_t scale = args.smoke ? 20 : 1;
    {
        auto span = spans.scope("harness.build");
        workloads::allWorkloads();
    }
    // Pin everything the environment could change.
    harness::setTraceCacheEnabled(true);
    sim::trace_store::setDirectory("");
    plan.options.predictor = "tournament";

    if (plan.name == "single_suite") {
        plan.options.instructions = 400'000 / scale;
        plan.threads = sweepThreads();
        plan.apps = workloads::workloadNames();
    } else if (plan.name == "mix4") {
        plan.options.instructions = 200'000 / scale;
        plan.threads = sweepThreads();
        plan.paperSpeedup = paperMix4Speedup;
        std::vector<harness::Mix> ranked;
        {
            auto span = spans.scope("harness.foa");
            std::vector<harness::BatchJob> profiles;
            for (const std::string &name : workloads::workloadNames()) {
                profiles.push_back(harness::BatchJob::custom(
                    "foa/" + name,
                    [name] { return harness::foaProfile(name); }));
            }
            harness::runBatch(
                profiles, plan.threads,
                [](const harness::BatchItem &, std::size_t,
                   std::size_t) {},
                harness::BatchOptions{});
            ranked = harness::selectMixes(4, 29);
        }
        for (unsigned row = 1; row <= ranked.size(); ++row) {
            RankedMix mix{row, ranked[row - 1].workloads};
            if (row <= timedMixes)
                plan.mixes.push_back(mix);
            else
                plan.heldOut.push_back(mix);
        }
        // Seed 0 holds nothing out; any other seed draws the held-out
        // mixes from the rows below the timed ones, blind to outcomes.
        if (args.seed == 0) {
            plan.heldOut.clear();
        } else {
            shuffle(plan.heldOut, args.seed);
            plan.heldOut.resize(
                std::min<std::size_t>(heldOutMixes, plan.heldOut.size()));
            std::sort(plan.heldOut.begin(), plan.heldOut.end(),
                      [](const RankedMix &a, const RankedMix &b) {
                          return a.row < b.row;
                      });
        }
        std::set<std::string> apps;
        for (const RankedMix &mix : plan.mixes) {
            apps.insert(mix.workloads.begin(), mix.workloads.end());
            for (const std::string &kind : schemes) {
                plan.jobs.push_back(harness::BatchJob::mix(
                    mix.workloads, kind, plan.options,
                    "mix4/mix" + std::to_string(mix.row) + "/" + kind));
            }
        }
        plan.apps.assign(apps.begin(), apps.end());
    } else {
        plan.options.instructions = 10'000'000 / scale;
        plan.options.sample =
            harness::SampleConfig::parse("400000:1000:8000:ckpt");
        // Jobs run in parallel and each job's windows in turn: a window
        // pool per 30 ms job put the scheduler in the measurement (the
        // same sweep with four window threads drifted 40% between two
        // runs, with four batch threads 8%).
        plan.threads = sweepThreads();
        plan.options.sample.jobs = 1;
        plan.apps = {"mcf", "lbm", "sjeng"};
        auto span = spans.scope("harness.trace_warm");
        std::filesystem::remove_all(args.storeDir);
        sim::trace_store::setSaveFormatVersion(2);
        sim::trace_store::setDirectory(args.storeDir);
        for (const std::string &app : plan.apps) {
            harness::warmSharedTrace(app, plan.options);
            harness::persistTraceStore();
            harness::clearTraceCache();
        }
    }
    if (plan.name != "mix4") {
        for (const std::string &app : plan.apps) {
            for (const std::string &kind : schemes) {
                plan.jobs.push_back(harness::BatchJob::single(
                    app, kind, plan.options,
                    plan.name + "/" + app + "/" + kind));
            }
        }
        // The seed only permutes submission order; results must not
        // depend on it (the digests are compared across repetitions).
        shuffle(plan.jobs, args.seed);
    }
    return plan;
}

/** Everything kept from one job of one repetition. */
struct JobOutcome
{
    std::string label;
    bool failed = false;
    bool cached = false;
    std::string error;
    double seconds = 0.0;
    std::optional<harness::SingleResult> single;
    std::optional<harness::MixResult> mix;
    std::uint64_t digest = 0;
    /** First failed output check; empty when every check passed. */
    std::string checkError;

    std::size_t cores() const { return mix ? mix->cores.size() : 1; }
    const sim::CoreStats &
    core(std::size_t c) const
    {
        return mix ? mix->cores[c] : single->core;
    }
    const mem::CoreMemStats &
    memStats(std::size_t c) const
    {
        return mix ? mix->mem[c] : single->mem;
    }
    const harness::SampledStats &
    sampled() const
    {
        return mix ? mix->sampled : single->sampled;
    }
    double simSeconds() const
    {
        return mix ? mix->simSeconds : single->simSeconds;
    }
    std::uint64_t simInstructions() const
    {
        return mix ? mix->simInstructions : single->simInstructions;
    }
    bool completed() const { return !failed && (single || mix); }
};

/** FNV-1a over the fields of a job's outcome. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i)
            h = (h ^ p[i]) * 0x100000001b3ull;
    }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
    void add(double v) { bytes(&v, sizeof v); }
    void add(const std::string &s) { bytes(s.data(), s.size()); }

    void
    add(const sim::CoreStats &c)
    {
        for (std::uint64_t v :
             {c.instructions, c.cycles, c.condBranches, c.mispredicts,
              c.loads, c.stores, c.fetchCyclesWithBranch})
            add(v);
        for (std::uint64_t v : c.branchesPerFetchCycle)
            add(v);
    }
    void
    add(const mem::CoreMemStats &m)
    {
        for (std::uint64_t v :
             {m.accesses, m.l1Hits, m.l2Hits, m.l3Hits, m.dramAccesses,
              m.prefetchesIssued, m.prefetchesDuplicate,
              m.usefulPrefetches, m.uselessPrefetches, m.latePrefetches,
              m.writebacks})
            add(v);
    }
    void
    add(const harness::SampledStats &s)
    {
        for (std::uint64_t v :
             {s.windows, s.measuredInstructions, s.warmupInstructions,
              s.ffSkippedOps, s.ffInstructions, s.checkpointHits})
            add(v);
        add(s.cpi);
    }
};

std::uint64_t
digestOf(const JobOutcome &job)
{
    Digest d;
    d.add(job.label);
    d.add(std::uint64_t{job.failed});
    if (job.failed) {
        d.add(job.error);
        return d.h;
    }
    for (std::size_t c = 0; c < job.cores(); ++c) {
        d.add(job.core(c));
        d.add(job.memStats(c));
    }
    d.add(job.sampled());
    if (job.single) {
        const core::BFetchStats &b = job.single->bfetch;
        for (std::uint64_t v :
             {b.lookaheadWalks, b.blocksVisited, b.prefetchesGenerated,
              b.pattPrefetches, b.loopPrefetches, b.filteredByPerLoad,
              b.stopsConfidence, b.stopsBrtcMiss, b.stopsDepth,
              b.mhtLearnUpdates, b.brtcUpdates})
            d.add(v);
    } else {
        d.add(job.mix->weightedSpeedup);
    }
    return d.h;
}

/** Per-job sanity checks on a completed job; "" when all pass. */
std::string
checkOutputs(const JobOutcome &job, const harness::RunOptions &options)
{
    const harness::SampledStats &sampled = job.sampled();
    for (std::size_t c = 0; c < job.cores(); ++c) {
        const sim::CoreStats &core = job.core(c);
        const mem::CoreMemStats &m = job.memStats(c);
        std::string where = " (core " + std::to_string(c) + ")";
        if (!(core.ipc > 0.0 && core.ipc <= options.width))
            return "IPC " + std::to_string(core.ipc) +
                   " outside (0, width]" + where;
        std::uint64_t retired = sampled.enabled
                                    ? sampled.budgetInstructions
                                    : core.instructions;
        if (retired < options.instructions)
            return "retired " + std::to_string(retired) +
                   " below the budget" + where;
        // A sampled job's counters are measured-region deltas, where a
        // prefetch issued during warmup can prove useful afterwards.
        if (!sampled.enabled &&
            m.usefulPrefetches + m.uselessPrefetches > m.prefetchesIssued)
            return "useful + useless prefetches exceed issued" + where;
        // Each issued prefetch may add one DRAM read beyond the demand
        // accesses, so DRAM is bounded by accesses + issued prefetches.
        if (m.l1Hits + m.l2Hits + m.l3Hits + m.dramAccesses >
            m.accesses + m.prefetchesIssued)
            return "L1 + L2 + L3 + DRAM exceed accesses" + where;
    }
    return "";
}

/** One timed repetition of the sweep, reduced to what is kept. */
struct Rep
{
    bool traced = false;
    double wall = 0.0;
    std::vector<JobOutcome> jobs;
    harness::MemoStats memo;
    harness::TraceCacheStats trace;
    sim::trace_store::Stats store;
};

sim::trace_store::Stats
storeDelta(const sim::trace_store::Stats &after,
           const sim::trace_store::Stats &before)
{
    sim::trace_store::Stats d;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.decodeSeconds = after.decodeSeconds - before.decodeSeconds;
    return d;
}

JobOutcome
outcomeOf(const harness::BatchItem &item, const harness::RunOptions &opts)
{
    JobOutcome job;
    job.label = item.label;
    job.failed = item.failed;
    job.cached = item.cached;
    job.error = item.error;
    job.seconds = item.seconds;
    if (item.single)
        job.single = *item.single;
    if (item.mix)
        job.mix = *item.mix;
    if (job.completed())
        job.checkError = checkOutputs(job, opts);
    job.digest = digestOf(job);
    return job;
}

/** Run the sweep once from cold memo and trace caches. */
Rep
runRep(const Plan &plan, SpanRecorder &spans)
{
    harness::clearMemoCaches();
    harness::clearTraceCache();
    Rep rep;
    rep.traced = spans.enabled();
    sim::trace_store::Stats store_before = sim::trace_store::stats();
    harness::BatchResult result;
    {
        auto batch = spans.scope("harness.batch");
        int parent = batch.index();
        auto progress = [&spans, parent](const harness::BatchItem &item,
                                         std::size_t, std::size_t) {
            double end = spans.now();
            spans.add("job:" + item.label, end - item.seconds, end,
                      parent);
        };
        Clock::time_point start = Clock::now();
        result = harness::runBatch(plan.jobs, plan.threads, progress,
                                   harness::BatchOptions{});
        rep.wall = secondsSince(start);
    }
    rep.memo = harness::memoStats();
    rep.trace = harness::traceCacheStats();
    rep.store = storeDelta(sim::trace_store::stats(), store_before);
    for (const harness::BatchItem &item : result.items)
        rep.jobs.push_back(outcomeOf(item, plan.options));
    return rep;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Credited simulated instructions: completed jobs only. */
double
creditedInstructions(const Rep &rep, const harness::RunOptions &options)
{
    double credit = 0.0;
    for (const JobOutcome &job : rep.jobs)
        if (job.completed() && job.checkError.empty())
            credit += static_cast<double>(job.cores()) *
                      static_cast<double>(options.instructions);
    return credit;
}

const JobOutcome *
findJob(const Rep &rep, const std::string &label)
{
    for (const JobOutcome &job : rep.jobs)
        if (job.label == label)
            return &job;
    return nullptr;
}

/**
 * Geomean B-Fetch speedup over the no-prefetch runs: IPC ratio per
 * application (single-core workloads) or normalized weighted speedup
 * per mix (mix4), over units whose two jobs both completed.
 */
double
bfetchSpeedup(const Plan &plan, const Rep &rep)
{
    std::vector<double> speedups;
    std::vector<std::string> units;
    if (plan.name == "mix4") {
        for (const RankedMix &mix : plan.mixes)
            units.push_back("mix4/mix" + std::to_string(mix.row) + "/");
    } else {
        for (const std::string &app : plan.apps)
            units.push_back(plan.name + "/" + app + "/");
    }
    for (const std::string &unit : units) {
        const JobOutcome *base = findJob(rep, unit + "None");
        const JobOutcome *with = findJob(rep, unit + "Bfetch");
        if (!base || !with || !base->completed() || !with->completed())
            continue;
        speedups.push_back(
            base->mix ? with->mix->weightedSpeedup /
                            base->mix->weightedSpeedup
                      : with->single->core.ipc / base->single->core.ipc);
    }
    return geomean(speedups);
}

/**
 * Worst per-job (per-core for mixes) relative IPC difference between
 * two sweeps of the same jobs, in percent.
 */
double
worstIpcErrorPct(const std::vector<JobOutcome> &estimate,
                 const std::vector<JobOutcome> &reference)
{
    double worst = 0.0;
    for (const JobOutcome &ref : reference) {
        const JobOutcome *est = nullptr;
        for (const JobOutcome &job : estimate)
            if (job.label == ref.label)
                est = &job;
        if (!est || !est->completed() || !ref.completed())
            continue;
        for (std::size_t c = 0; c < ref.cores(); ++c) {
            double full = ref.core(c).ipc;
            worst = std::max(worst, 100.0 *
                                        std::fabs(est->core(c).ipc - full) /
                                        full);
        }
    }
    return worst;
}

std::vector<JobOutcome>
runJobs(const std::vector<harness::BatchJob> &jobs, unsigned threads,
        const harness::RunOptions &options)
{
    harness::BatchResult result = harness::runBatch(
        jobs, threads,
        [](const harness::BatchItem &, std::size_t, std::size_t) {},
        harness::BatchOptions{});
    std::vector<JobOutcome> out;
    for (const harness::BatchItem &item : result.items)
        out.push_back(outcomeOf(item, options));
    return out;
}

/** The plan's jobs with their run options replaced. */
std::vector<harness::BatchJob>
withOptions(const Plan &plan, const harness::RunOptions &options)
{
    std::vector<harness::BatchJob> jobs = plan.jobs;
    for (harness::BatchJob &job : jobs)
        job.options = options;
    return jobs;
}

/**
 * ipc_err_pct: sampled_long's timed jobs are sampled, so their full
 * detailed runs are the reference. single_suite and mix4 time full
 * runs, so a sampled shadow of the same jobs (ten windows per budget,
 * the CI window shape scaled to the period) is the estimate. Either
 * way this runs after the timed phase.
 */
double
ipcErrorPct(const Plan &plan, const Rep &last)
{
    if (plan.options.sample.enabled) {
        harness::RunOptions full = plan.options;
        full.sample = harness::SampleConfig{};
        std::vector<JobOutcome> reference;
        // One application at a time bounds the resident trace buffers.
        for (const std::string &app : plan.apps) {
            std::vector<harness::BatchJob> jobs;
            for (const harness::BatchJob &job : withOptions(plan, full))
                if (job.workloads.front() == app)
                    jobs.push_back(job);
            for (JobOutcome &job : runJobs(jobs, 4, full))
                reference.push_back(std::move(job));
            harness::clearTraceCache();
        }
        return worstIpcErrorPct(last.jobs, reference);
    }
    harness::RunOptions shadow = plan.options;
    std::uint64_t period = plan.options.instructions / 10;
    shadow.sample = harness::SampleConfig::parse(
        std::to_string(period) + ":" + std::to_string(period / 40) + ":" +
        std::to_string(period / 5) + ":ckpt");
    return worstIpcErrorPct(runJobs(withOptions(plan, shadow), 4, shadow),
                            last.jobs);
}

/** mix4 held-out check: None and Bfetch on the seed-drawn mixes. */
void
reportHeldOut(const Plan &plan)
{
    if (plan.heldOut.empty())
        return;
    std::vector<harness::BatchJob> jobs;
    for (const RankedMix &mix : plan.heldOut) {
        for (const char *kind : {"None", "Bfetch"}) {
            jobs.push_back(harness::BatchJob::mix(
                mix.workloads, kind, plan.options,
                "mix4/mix" + std::to_string(mix.row) + "/" + kind));
        }
    }
    std::vector<JobOutcome> out = runJobs(jobs, 4, plan.options);
    std::vector<double> speedups;
    for (std::size_t m = 0; m < plan.heldOut.size(); ++m) {
        const JobOutcome &base = out[2 * m];
        const JobOutcome &with = out[2 * m + 1];
        if (!base.completed() || !with.completed())
            continue;
        double s = with.mix->weightedSpeedup / base.mix->weightedSpeedup;
        speedups.push_back(s);
        std::printf("held-out mix%u: Bfetch normalized weighted speedup "
                    "%.4f\n",
                    plan.heldOut[m].row, s);
    }
    std::printf("held-out paper error: %.4f%% over %zu mix(es)\n",
                100.0 * std::fabs(geomean(speedups) / plan.paperSpeedup -
                                  1.0),
                speedups.size());
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** End-to-end metrics of the untraced repetitions after the warm-up. */
std::vector<Metric>
endToEnd(const Plan &plan, const std::vector<Rep> &reps, double setup_s,
         double peak_rss_mb, double ok_ratio, double ipc_err_pct)
{
    std::vector<double> walls, mips;
    for (std::size_t i = 1; i < reps.size(); ++i) {
        const Rep &rep = reps[i];
        walls.push_back(rep.wall);
        mips.push_back(creditedInstructions(rep, plan.options) /
                       rep.wall / 1e6);
    }
    double speedup = bfetchSpeedup(plan, reps.back());
    return {
        {"wall_s", median(walls), "s"},
        {"sim_mips", median(mips), "MIPS"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_ratio", ok_ratio, "ratio"},
        {"paper_err_pct",
         100.0 * std::fabs(speedup / plan.paperSpeedup - 1.0), "%"},
        {"ipc_err_pct", ipc_err_pct, "%"},
    };
}

/** Per-layer metrics of the traced repetitions and layer replays. */
std::vector<Metric>
perLayer(const Plan &plan, const std::vector<Rep> &reps,
         const SpanRecorder &spans, const perfbench::LayerCosts &layers,
         const std::vector<JobOutcome> &bfetchRuns)
{
    std::vector<const Rep *> traced, untraced;
    for (const Rep &rep : reps)
        (rep.traced ? traced : untraced).push_back(&rep);
    const Rep &last = *traced.back();
    std::vector<Metric> out;
    auto put = [&out](const std::string &name, double value,
                      const char *unit) {
        out.push_back({name, value, unit});
    };

    // sim: op delivery.
    double ops = static_cast<double>(layers.ops);
    put("sim.capture_ns_per_op", 1e9 * ratio(layers.captureSeconds, ops),
        "ns/op");
    put("sim.replay_ns_per_op", 1e9 * ratio(layers.replaySeconds, ops),
        "ns/op");
    put("sim.trace_bytes_per_op",
        ratio(static_cast<double>(layers.traceBytes), ops), "B/op");
    put("trace_store.decode_s", last.store.decodeSeconds, "s");
    put("trace_store.hits", static_cast<double>(last.store.hits), "count");
    put("trace_store.misses", static_cast<double>(last.store.misses),
        "count");

    // sim: timing, per scheme, over completed jobs.
    std::uint64_t watchdog = 0;
    for (const JobOutcome &job : last.jobs)
        watchdog += job.failed &&
                    job.error.find("no commit progress") != std::string::npos;
    for (const std::string &kind : schemes) {
        double secs = 0.0, insts = 0.0, retired = 0.0, cycles = 0.0;
        for (const JobOutcome &job : last.jobs) {
            if (!job.completed() ||
                job.label.substr(job.label.rfind('/') + 1) != kind)
                continue;
            secs += job.simSeconds();
            insts += static_cast<double>(job.simInstructions());
            for (std::size_t c = 0; c < job.cores(); ++c) {
                retired += static_cast<double>(job.core(c).instructions);
                cycles += static_cast<double>(job.core(c).cycles);
            }
        }
        put("sim.cmp_ns_per_inst." + kind, 1e9 * ratio(secs, insts),
            "ns/inst");
        put("sim.ipc." + kind, ratio(retired, cycles), "inst/cycle");
    }
    put("sim.watchdog_trips", static_cast<double>(watchdog), "count");

    // Model counters summed over the sweep's completed jobs.
    double cond = 0, mispredicts = 0, insts = 0;
    mem::CoreMemStats all{};
    std::map<std::string, mem::CoreMemStats> by_scheme;
    std::map<std::string, double> insts_by_scheme;
    harness::SampledStats sampling{};
    double window_secs = 0.0, window_insts = 0.0;
    for (const JobOutcome &job : last.jobs) {
        if (!job.completed())
            continue;
        std::string kind = job.label.substr(job.label.rfind('/') + 1);
        for (std::size_t c = 0; c < job.cores(); ++c) {
            cond += static_cast<double>(job.core(c).condBranches);
            mispredicts += static_cast<double>(job.core(c).mispredicts);
            insts += static_cast<double>(job.core(c).instructions);
            insts_by_scheme[kind] +=
                static_cast<double>(job.core(c).instructions);
            mem::accumulateMemStats(all, job.memStats(c));
            mem::accumulateMemStats(by_scheme[kind], job.memStats(c));
        }
        const harness::SampledStats &s = job.sampled();
        if (s.enabled) {
            sampling.windows += s.windows;
            sampling.checkpointHits += s.checkpointHits;
            sampling.ffSkippedOps += s.ffSkippedOps;
            window_secs += job.simSeconds();
            window_insts += static_cast<double>(job.simInstructions());
        }
    }

    put("branch.ns_per_branch",
        1e9 * ratio(layers.branchSeconds,
                    static_cast<double>(layers.branches)),
        "ns/branch");
    put("branch.miss_rate", ratio(mispredicts, cond), "ratio");

    // core: B-Fetch engine counters from the single-core Bfetch runs.
    core::BFetchStats b{};
    for (const JobOutcome &job : bfetchRuns) {
        if (!job.completed() || !job.single)
            continue;
        const core::BFetchStats &s = job.single->bfetch;
        b.lookaheadWalks += s.lookaheadWalks;
        b.blocksVisited += s.blocksVisited;
        b.stopsConfidence += s.stopsConfidence;
        b.stopsBrtcMiss += s.stopsBrtcMiss;
        b.stopsDepth += s.stopsDepth;
        b.filteredByPerLoad += s.filteredByPerLoad;
        b.prefetchesGenerated += s.prefetchesGenerated;
    }
    double walks = static_cast<double>(b.lookaheadWalks);
    put("core.bfetch_ns_per_branch",
        1e9 * ratio(layers.bfetchSeconds,
                    static_cast<double>(layers.controlOps)),
        "ns/branch");
    put("core.bfetch.depth_avg",
        ratio(static_cast<double>(b.blocksVisited), walks), "blocks");
    put("core.bfetch.stop_confidence_ratio",
        ratio(static_cast<double>(b.stopsConfidence), walks), "ratio");
    put("core.bfetch.stop_brtc_miss_ratio",
        ratio(static_cast<double>(b.stopsBrtcMiss), walks), "ratio");
    put("core.bfetch.stop_depth_ratio",
        ratio(static_cast<double>(b.stopsDepth), walks), "ratio");
    put("core.bfetch.filtered_ratio",
        ratio(static_cast<double>(b.filteredByPerLoad),
              static_cast<double>(b.filteredByPerLoad +
                                  b.prefetchesGenerated)),
        "ratio");

    // mem.
    double acc = static_cast<double>(all.accesses);
    double l1 = static_cast<double>(all.l1Hits);
    double l2 = static_cast<double>(all.l2Hits);
    put("mem.ns_per_access",
        1e9 * ratio(layers.memSeconds,
                    static_cast<double>(layers.accesses)),
        "ns/access");
    put("mem.l1_hit_rate", ratio(l1, acc), "ratio");
    put("mem.l2_hit_rate", ratio(l2, acc - l1), "ratio");
    put("mem.l3_hit_rate",
        ratio(static_cast<double>(all.l3Hits), acc - l1 - l2), "ratio");
    put("mem.dram_per_kinst",
        1000.0 * ratio(static_cast<double>(all.dramAccesses), insts),
        "1/kinst");

    // prefetch.
    double accesses = static_cast<double>(layers.accesses);
    put("prefetch.sms.ns_per_observe",
        1e9 * ratio(layers.smsSeconds, accesses), "ns/observe");
    put("prefetch.stride.ns_per_observe",
        1e9 * ratio(layers.strideSeconds, accesses), "ns/observe");
    for (const char *kind : {"Stride", "SMS", "Bfetch"}) {
        const mem::CoreMemStats &m = by_scheme[kind];
        std::string prefix = std::string("prefetch.") + kind;
        std::transform(prefix.begin(), prefix.end(), prefix.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        double useful = static_cast<double>(m.usefulPrefetches);
        put(prefix + ".accuracy",
            ratio(useful, static_cast<double>(m.prefetchesIssued)),
            "ratio");
        put(prefix + ".useless_per_kinst",
            1000.0 * ratio(static_cast<double>(m.uselessPrefetches),
                           insts_by_scheme[kind]),
            "1/kinst");
        put(prefix + ".late_ratio",
            ratio(static_cast<double>(m.latePrefetches), useful),
            "ratio");
    }

    // harness.
    std::vector<double> batch_s, overhead_s, efficiency, job_s;
    for (const Rep *rep : traced) {
        double busy = 0.0;
        for (const JobOutcome &job : rep->jobs) {
            busy += job.seconds;
            if (!job.cached)
                job_s.push_back(job.seconds);
        }
        batch_s.push_back(rep->wall);
        overhead_s.push_back(rep->wall - busy / plan.threads);
        efficiency.push_back(busy / (plan.threads * rep->wall));
    }
    put("harness.build_s", spans.total("harness.build"), "s");
    put("harness.foa_s", spans.total("harness.foa"), "s");
    put("harness.trace_warm_s", spans.total("harness.trace_warm"), "s");
    put("harness.batch_s", median(batch_s), "s");
    put("harness.overhead_s", median(overhead_s), "s");
    put("harness.parallel_eff", median(efficiency), "ratio");
    put("harness.memo_hits",
        static_cast<double>(last.memo.singleHits + last.memo.mixHits),
        "count");
    put("harness.memo_computes",
        static_cast<double>(last.memo.singleComputes +
                            last.memo.mixComputes),
        "count");
    put("harness.trace_attaches", static_cast<double>(last.trace.attaches),
        "count");
    put("harness.resident_trace_mb",
        static_cast<double>(last.trace.residentBytes) / (1024.0 * 1024.0),
        "MB");
    // The tail is the highest percentile with at least ten jobs beyond it.
    double n_jobs = static_cast<double>(job_s.size());
    double tail_pct =
        n_jobs > 10 ? std::floor(100.0 * (n_jobs - 10.0) / n_jobs) : 0.0;
    put("harness.job_s.p50", job_s.empty() ? 0.0 : percentile(job_s, 50),
        "s");
    put("harness.job_s.tail",
        job_s.empty() ? 0.0 : percentile(job_s, tail_pct), "s");
    put("harness.job_s.tail_pct", tail_pct, "%");
    put("harness.job_s.count", n_jobs, "count");

    // harness: sampling.
    put("sampling.windows", static_cast<double>(sampling.windows), "count");
    put("sampling.ckpt_hits", static_cast<double>(sampling.checkpointHits),
        "count");
    put("sampling.ff_skipped_ops",
        static_cast<double>(sampling.ffSkippedOps), "count");
    put("sampling.window_ns_per_inst",
        1e9 * ratio(window_secs, window_insts), "ns/inst");

    // benchmark: cost of tracing on the timed phase.
    std::vector<double> traced_wall, untraced_wall;
    for (const Rep *rep : traced)
        traced_wall.push_back(rep->wall);
    for (std::size_t i = 1; i < untraced.size(); ++i)
        untraced_wall.push_back(untraced[i]->wall);
    put("bench.trace_overhead_pct",
        100.0 * (ratio(median(traced_wall), median(untraced_wall)) - 1.0),
        "%");
    return out;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

Result
runBenchmark(const Args &args, const Plan &plan, double setup_s,
             SpanRecorder &spans)
{
    std::printf("workload %s seed %llu: %zu jobs on %u thread(s), %u "
                "window thread(s) per sampled job\n",
                plan.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                plan.jobs.size(), plan.threads, plan.options.sample.jobs);
    for (const RankedMix &mix : plan.mixes)
        std::printf("timed %s\n", mixLabel(mix).c_str());
    for (const RankedMix &mix : plan.heldOut)
        std::printf("held-out %s\n", mixLabel(mix).c_str());

    // Timed phase: repeat the sweep until the measuring time is used
    // up. The first repetition is an untimed warm-up that only feeds
    // the output checks: it alone pays the process's first-touch costs.
    // At least two timed repetitions follow, so every job's digest is
    // compared; the traced run alternates untraced and traced ones, so
    // the tracing overhead compares like with like.
    SpanRecorder untraced(false);
    std::vector<Rep> reps;
    std::size_t min_reps = 3;
    Clock::time_point timed_start = Clock::now();
    // Peak RSS is taken after the first repetition: a figure binary
    // runs its sweep once per process, and later repetitions only add
    // allocator slop that depends on thread timing.
    double peak_rss_mb = 0.0;
    while (reps.size() < min_reps ||
           secondsSince(timed_start) < args.seconds) {
        bool traced = args.trace && reps.size() % 2 == 1;
        reps.push_back(runRep(plan, traced ? spans : untraced));
        if (reps.size() == 1)
            peak_rss_mb = peakRssMb();
        std::fprintf(stderr, "perfbench: repetition %zu: %.3f s\n",
                     reps.size(), reps.back().wall);
    }

    // Outputs must pass their checks and repeat exactly in every rep.
    Result result;
    for (const Rep &rep : reps) {
        for (std::size_t j = 0; j < rep.jobs.size(); ++j) {
            const JobOutcome &job = rep.jobs[j];
            std::string problem = job.checkError;
            if (problem.empty() && job.digest != reps[0].jobs[j].digest)
                problem = "outputs differ from the first repetition";
            ++result.attempted;
            if (!problem.empty()) {
                result.correct = false;
                std::printf("CHECK FAILED %s: %s\n", job.label.c_str(),
                            problem.c_str());
            }
            if (!problem.empty() || job.failed)
                ++result.failed;
        }
    }
    for (const JobOutcome &job : reps.back().jobs)
        if (job.failed)
            std::printf("job failed %s: %s\n", job.label.c_str(),
                        job.error.c_str());

    if (!args.trace) {
        double ok_ratio = 1.0 - static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
        double ipc_err_pct = ipcErrorPct(plan, reps.back());
        reportHeldOut(plan);
        result.metrics = endToEnd(plan, reps, setup_s, peak_rss_mb,
                                  ok_ratio, ipc_err_pct);
        return result;
    }
    perfbench::LayerCosts layers;
    {
        auto span = spans.scope("layers");
        std::uint64_t ops = layerReplayOps / (args.smoke ? 20 : 1);
        for (const std::string &app : plan.apps)
            layers.add(perfbench::replayLayers(app, ops, spans));
    }
    if (layers.replayMismatches) {
        result.correct = false;
        std::printf("CHECK FAILED trace replay differs from live "
                    "execution on %llu application(s)\n",
                    static_cast<unsigned long long>(
                        layers.replayMismatches));
    }
    // B-Fetch engine counters come from single-core Bfetch runs: the
    // sweep's own for single-core workloads, extra runs of the mix
    // members (outside the timed phase) for mix4.
    std::vector<JobOutcome> bfetch_runs;
    if (plan.name == "mix4") {
        std::vector<harness::BatchJob> jobs;
        for (const std::string &app : plan.apps)
            jobs.push_back(harness::BatchJob::single(
                app, "Bfetch", plan.options, "mix4/" + app + "/Bfetch"));
        bfetch_runs = runJobs(jobs, 4, plan.options);
    } else {
        for (const JobOutcome &job : reps.back().jobs)
            if (job.label.ends_with("/Bfetch"))
                bfetch_runs.push_back(job);
    }
    result.metrics = perLayer(plan, reps, spans, layers, bfetch_runs);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    setQuiet(true);
    SpanRecorder spans(args.trace);
    Result result;
    {
        auto run_span = spans.scope("run:" + args.workload);
        Plan plan = [&] {
            auto span = spans.scope("setup");
            return setUp(args, spans);
        }();
        double setup_s = secondsSince(processStart);
        if (args.setupOnly) {
            std::printf("{\"setup_s\": %.17g}\n", setup_s);
            return 0;
        }
        result = runBenchmark(args, plan, setup_s, spans);
    }
    if (args.trace && !spans.writeJson(args.spansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spansPath.c_str());
    printResult(result.correct, result.attempted, result.failed,
                result.metrics);
    return result.correct ? 0 : 1;
}
