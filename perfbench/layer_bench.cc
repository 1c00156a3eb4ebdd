/**
 * @file
 * Per-layer microbenchmarks on the configurations the scenarios run.
 * Prints one JSON object of metrics on stdout.
 *
 *   sim.event_queue  the mixed and far-future event churns of
 *                    bench/event_churn.h (included, not copied).
 *   sim.memory       one FetchStream per DECA loader (2 per core, the
 *                    DECA prefetcher, the core's MSHRs split between
 *                    them) streaming through the bank-tier
 *                    MemorySystem of each preset machine: DDR5, HBM
 *                    and HBM3e. This is the stream set GemmSimulation
 *                    builds for a DECA kernel.
 *
 * Host times are the median over kReps repetitions; the row-hit ratios
 * are simulated and repeat exactly.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "event_churn.h"
#include "sim/coro.h"
#include "sim/event_queue.h"
#include "sim/fetch_stream.h"
#include "sim/memory_system.h"
#include "sim/params.h"

namespace {

using namespace deca;
using Clock = std::chrono::steady_clock;

constexpr u64 kChurnEvents = 2'000'000;
constexpr u64 kLinesPerStream = 2'048;
/** Lines per consumer await: one dense BF16 tile (1 KiB). */
constexpr u64 kChunkLines = 16;
constexpr u32 kLoadersPerCore = 2;
constexpr int kReps = 3;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
churnNsPerEvent(bench::ChurnDeltaFn fn)
{
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        sim::EventQueue q;
        const auto t0 = Clock::now();
        bench::runChurnWith(q, kChurnEvents, fn);
        const auto t1 = Clock::now();
        if (q.eventsExecuted() != kChurnEvents) {
            std::fprintf(stderr, "churn executed %llu events, wanted %llu\n",
                         static_cast<unsigned long long>(q.eventsExecuted()),
                         static_cast<unsigned long long>(kChurnEvents));
            std::exit(1);
        }
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0)
                         .count() /
                     static_cast<double>(kChurnEvents));
    }
    return median(ns);
}

struct MemoryResult
{
    double nsPerLine;
    double rowHitRatio;
};

MemoryResult
memoryStreams(const sim::SimParams &p)
{
    sim::FetchStreamConfig fc;
    fc.policy = sim::PrefetchPolicy::DecaPf;
    fc.mshrs = std::max<u32>(1, p.l2Mshrs / kLoadersPerCore);
    fc.prefetchLines = p.l2PrefetchLines;
    fc.onChipLatency = p.l2Latency + p.llcLatency;
    fc.boundedAcceptance = p.memAcceptDepth != 0;

    const u32 n_streams = p.cores * kLoadersPerCore;
    const u64 lines = u64{n_streams} * kLinesPerStream;
    std::vector<double> ns;
    double hit_ratio = 0.0;
    for (int r = 0; r < kReps; ++r) {
        sim::EventQueue q;
        sim::MemorySystem mem(q, p.memConfig());
        std::vector<std::unique_ptr<sim::FetchStream>> streams;
        for (u32 s = 0; s < n_streams; ++s)
            streams.push_back(std::make_unique<sim::FetchStream>(
                q, mem, fc, kLinesPerStream * kCacheLineBytes));
        auto consume = [&](u32 s) -> sim::SimTask {
            for (u64 i = 0; i < kLinesPerStream / kChunkLines; ++i)
                co_await streams[s]->fetch(kChunkLines * kCacheLineBytes);
        };
        const auto t0 = Clock::now();
        for (u32 s = 0; s < n_streams; ++s)
            consume(s);
        q.run();
        const auto t1 = Clock::now();
        for (const auto &s : streams) {
            if (s->delivered() != s->totalBytes()) {
                std::fprintf(stderr, "%s: stream delivered %llu of %llu\n",
                             p.name.c_str(),
                             static_cast<unsigned long long>(s->delivered()),
                             static_cast<unsigned long long>(
                                 s->totalBytes()));
                std::exit(1);
            }
        }
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0)
                         .count() /
                     static_cast<double>(lines));
        hit_ratio = mem.measuredRowHitRate();
    }
    return {median(ns), hit_ratio};
}

} // namespace

int
main()
{
    std::printf("{\"sim.event_queue.ns_per_event.mixed\": %.6f",
                churnNsPerEvent(&bench::churnDelta));
    std::printf(", \"sim.event_queue.ns_per_event.far_future\": %.6f",
                churnNsPerEvent(&bench::farFutureDelta));
    const struct
    {
        const char *tier;
        sim::SimParams params;
    } tiers[] = {{"ddr5", sim::sprDdrParams()},
                 {"hbm", sim::sprHbmParams()},
                 {"hbm3e", sim::sprHbm3eParams()}};
    for (const auto &t : tiers) {
        const MemoryResult m = memoryStreams(t.params);
        std::printf(", \"sim.memory.ns_per_line.%s\": %.6f", t.tier,
                    m.nsPerLine);
        std::printf(", \"sim.memory.sim_row_hit_ratio.%s\": %.17g", t.tier,
                    m.rowHitRatio);
    }
    std::printf("}\n");
    return 0;
}
