/**
 * @file
 * In-memory span recorder linked into decasim_traced through
 * `-Wl,--wrap=` (trace/wrap.syms). Each wrapper opens a span, calls the
 * real function through its `__real_` alias and closes the span, so the
 * traced binary runs exactly the code decasim runs. Spans carry name,
 * start, end, parent and thread; they stay in memory and are written as
 * JSON to $DECA_TRACE_OUT when the process exits.
 *
 * Span names follow the src/ modules. EventQueue::run/runUntil is only
 * recorded (as kernels.gemm) when called directly under runGemmSteady:
 * the serving simulator's own event loop stays inside serve.sim. The
 * host core, DECA pipeline and TEPL queue are called only from inside
 * gemm_sim.cc, so their cost is part of kernels.gemm.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kernels/gemm_sim.h"
#include "llm/inference.h"
#include "roofsurface/campaign.h"
#include "roofsurface/dse.h"
#include "runner/scenario_registry.h"
#include "serve/serving_sim.h"
#include "serve/step_cost.h"
#include "sim/event_queue.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    long parent = -1;
    unsigned thread = 0;
    long long startNs = 0;
    long long endNs = -1;
    std::string attrs; ///< JSON members, comma-separated
};

struct Recorder
{
    std::mutex mu;
    std::vector<Span> spans;
};

void dump();

Recorder &
recorder()
{
    static Recorder r;
    static const bool registered = (std::atexit(&dump), true);
    (void)registered;
    return r;
}

/** Absolute steady-clock time (CLOCK_MONOTONIC), so the driver can
 *  line spans up with the pauses it inserts. */
long long
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct OpenSpan
{
    long index;
    const char *kind;
};

struct ThreadState
{
    unsigned id;
    std::vector<OpenSpan> open;
};

ThreadState &
threadState()
{
    static std::atomic<unsigned> next{0};
    thread_local ThreadState ts{next.fetch_add(1), {}};
    return ts;
}

/** RAII span: open on construction, closed (with its attributes) on
 *  destruction, also when the wrapped call throws. */
class Scope
{
  public:
    Scope(const char *kind, std::string name = {})
    {
        Recorder &r = recorder();
        ThreadState &ts = threadState();
        Span s;
        s.name = name.empty() ? kind : std::move(name);
        s.parent = ts.open.empty() ? -1 : ts.open.back().index;
        s.thread = ts.id;
        std::lock_guard<std::mutex> lock(r.mu);
        s.startNs = nowNs();
        index_ = static_cast<long>(r.spans.size());
        r.spans.push_back(std::move(s));
        ts.open.push_back({index_, kind});
    }

    ~Scope()
    {
        Recorder &r = recorder();
        threadState().open.pop_back();
        std::lock_guard<std::mutex> lock(r.mu);
        Span &s = r.spans[static_cast<std::size_t>(index_)];
        s.endNs = nowNs();
        s.attrs = std::move(attrs_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    attr(const char *key, double v)
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g",
                      attrs_.empty() ? "" : ",", key, v);
        attrs_ += buf;
    }

    void
    attr(const char *key, const std::string &hex)
    {
        attrs_ += (attrs_.empty() ? "\"" : ",\"");
        attrs_ += key;
        attrs_ += "\":\"" + hex + "\"";
    }

  private:
    long index_ = -1;
    std::string attrs_;
};

bool
insideKernel()
{
    const ThreadState &ts = threadState();
    return !ts.open.empty() &&
           std::strcmp(ts.open.back().kind, "kernels.gemm_steady") == 0;
}

void
dump()
{
    const char *path = std::getenv("DECA_TRACE_OUT");
    if (path == nullptr || *path == '\0')
        return;
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr)
        return;
    std::fputs("{\"spans\":[", f);
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const Span &s = r.spans[i];
        std::fprintf(f,
                     "%s\n{\"id\":%zu,\"parent\":%ld,\"thread\":%u,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"attrs\":{%s}}",
                     i == 0 ? "" : ",", i, s.parent, s.thread,
                     s.name.c_str(), s.startNs, s.endNs, s.attrs.c_str());
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

/** 64-bit FNV-1a of a key string, as 16 hex digits. */
std::string
digest(const std::string &key)
{
    unsigned long long h = 1469598103934665603ull;
    for (const unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", h);
    return buf;
}

/** Key of one cycle-sim call: identifying inputs plus the full result.
 *  The simulation is deterministic, so equal inputs always give equal
 *  keys; two distinct inputs collide only if they produce bit-identical
 *  results under the same machine, kernel and workload shape. */
std::string
gemmKey(const deca::sim::SimParams &p, const deca::kernels::KernelConfig &k,
        const deca::kernels::GemmWorkload &w, unsigned warmup,
        const deca::kernels::GemmResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "|%u|%d|%u|%u|%d|%u|%u|%u|%llu|%u|%llu|%llu|%.17g|%.17g|"
                  "%.17g|%.17g|%.17g",
                  p.cores, static_cast<int>(p.memKind), p.memChannels,
                  p.memTiming.banksPerChannel, p.sampleMode ? 1 : 0,
                  w.batchN, w.tilesPerCore, w.poolTiles,
                  static_cast<unsigned long long>(w.seed), warmup,
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.tilesProcessed),
                  r.tflops, r.utilMem, r.utilTmul, r.utilVec, r.utilDeca);
    return digest(p.name + "|" + k.describe() + "|" + w.scheme.name + buf);
}

// -- runner: scenario bodies, via trampolines installed at registration --

using deca::runner::ScenarioContext;
using deca::runner::ScenarioFn;

constexpr std::size_t kMaxScenarios = 128;

struct Registered
{
    std::string name;
    ScenarioFn fn;
};

std::vector<Registered> &
registered()
{
    static std::vector<Registered> v;
    return v;
}

template <std::size_t I>
int
trampoline(const ScenarioContext &ctx)
{
    const Registered &reg = registered()[I];
    Scope s("runner.scenario", "runner.scenario." + reg.name);
    const int rc = reg.fn(ctx);
    const deca::kernels::BaselineCacheStats st =
        deca::kernels::sampleBaselineCacheStats();
    s.attr("baseline_hits", static_cast<double>(st.hits));
    s.attr("baseline_misses", static_cast<double>(st.misses));
    return rc;
}

template <std::size_t... I>
constexpr std::array<ScenarioFn, sizeof...(I)>
makeTrampolines(std::index_sequence<I...>)
{
    return {&trampoline<I>...};
}

constexpr std::array<ScenarioFn, kMaxScenarios> kTrampolines =
    makeTrampolines(std::make_index_sequence<kMaxScenarios>{});

} // namespace

using deca::Cycles;
using deca::u32;
using deca::u64;
namespace kernels = deca::kernels;
namespace roofsurface = deca::roofsurface;
namespace serve = deca::serve;
namespace sim = deca::sim;

#define DECA_WRAP(sym) __wrap_##sym
#define DECA_REAL(sym) __real_##sym

// A symbol a later change renames or re-signs leaves its __real_ alias
// unresolved, so the traced build fails to link instead of silently
// losing the layer's spans.
#define DECA_DECLARE_REAL(ret, sym, ...)                                   \
    extern "C" ret DECA_REAL(sym)(__VA_ARGS__)

DECA_DECLARE_REAL(bool,
    _ZN4deca6runner16registerScenarioENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES6_PFiRKNS0_15ScenarioContextEE,
    std::string, std::string, ScenarioFn);
extern "C" bool
DECA_WRAP(_ZN4deca6runner16registerScenarioENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES6_PFiRKNS0_15ScenarioContextEE)(
    std::string name, std::string description, ScenarioFn fn)
{
    std::vector<Registered> &regs = registered();
    if (regs.size() < kMaxScenarios) {
        regs.push_back({name, fn});
        fn = kTrampolines[regs.size() - 1];
    }
    return DECA_REAL(
        _ZN4deca6runner16registerScenarioENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES6_PFiRKNS0_15ScenarioContextEE)(
        std::move(name), std::move(description), fn);
}

// -- kernels --

DECA_DECLARE_REAL(kernels::GemmResult,
    _ZN4deca7kernels13runGemmSteadyERKNS_3sim9SimParamsERKNS0_12KernelConfigERKNS0_12GemmWorkloadEj,
    const sim::SimParams &, const kernels::KernelConfig &,
    const kernels::GemmWorkload &, u32);
extern "C" kernels::GemmResult
DECA_WRAP(_ZN4deca7kernels13runGemmSteadyERKNS_3sim9SimParamsERKNS0_12KernelConfigERKNS0_12GemmWorkloadEj)(
    const sim::SimParams &p, const kernels::KernelConfig &k,
    const kernels::GemmWorkload &w, u32 warmup)
{
    Scope s("kernels.gemm_steady");
    kernels::GemmResult r = DECA_REAL(
        _ZN4deca7kernels13runGemmSteadyERKNS_3sim9SimParamsERKNS0_12KernelConfigERKNS0_12GemmWorkloadEj)(
        p, k, w, warmup);
    s.attr("key", gemmKey(p, k, w, warmup, r));
    return r;
}

DECA_DECLARE_REAL(Cycles, _ZN4deca3sim10EventQueue3runEv, sim::EventQueue *);
extern "C" Cycles
DECA_WRAP(_ZN4deca3sim10EventQueue3runEv)(sim::EventQueue *q)
{
    if (!insideKernel())
        return DECA_REAL(_ZN4deca3sim10EventQueue3runEv)(q);
    const Cycles before = q->now();
    Scope s("kernels.gemm");
    const Cycles end = DECA_REAL(_ZN4deca3sim10EventQueue3runEv)(q);
    s.attr("sim_cycles", static_cast<double>(q->now() - before));
    return end;
}

DECA_DECLARE_REAL(Cycles, _ZN4deca3sim10EventQueue8runUntilEm,
                  sim::EventQueue *, Cycles);
extern "C" Cycles
DECA_WRAP(_ZN4deca3sim10EventQueue8runUntilEm)(sim::EventQueue *q,
                                               Cycles limit)
{
    if (!insideKernel())
        return DECA_REAL(_ZN4deca3sim10EventQueue8runUntilEm)(q, limit);
    const Cycles before = q->now();
    Scope s("kernels.gemm");
    const Cycles end =
        DECA_REAL(_ZN4deca3sim10EventQueue8runUntilEm)(q, limit);
    s.attr("sim_cycles", static_cast<double>(q->now() - before));
    return end;
}

DECA_DECLARE_REAL(void,
    _ZN4deca7kernels8TilePoolC1ERKNS_8compress17CompressionSchemeEjm,
    kernels::TilePool *, const deca::compress::CompressionScheme &, u32,
    u64);
extern "C" void
DECA_WRAP(_ZN4deca7kernels8TilePoolC1ERKNS_8compress17CompressionSchemeEjm)(
    kernels::TilePool *self, const deca::compress::CompressionScheme &scheme,
    u32 num_tiles, u64 seed)
{
    Scope s("compress.tile_pool");
    DECA_REAL(_ZN4deca7kernels8TilePoolC1ERKNS_8compress17CompressionSchemeEjm)(
        self, scheme, num_tiles, seed);
}

// -- llm / serve --

DECA_DECLARE_REAL(deca::llm::FcThroughput,
    _ZNK4deca3llm14InferenceModel12fcThroughputERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigEj,
    const deca::llm::InferenceModel *,
    const deca::compress::CompressionScheme &,
    const kernels::KernelConfig &, u32);
extern "C" deca::llm::FcThroughput
DECA_WRAP(_ZNK4deca3llm14InferenceModel12fcThroughputERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigEj)(
    const deca::llm::InferenceModel *self,
    const deca::compress::CompressionScheme &scheme,
    const kernels::KernelConfig &kernel, u32 rows)
{
    Scope s("llm.fc_throughput");
    return DECA_REAL(
        _ZNK4deca3llm14InferenceModel12fcThroughputERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigEj)(
        self, scheme, kernel, rows);
}

DECA_DECLARE_REAL(void,
    _ZN4deca5serve13StepCostModelC1ERKNS_3llm14InferenceModelERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigE,
    serve::StepCostModel *, const deca::llm::InferenceModel &,
    const deca::compress::CompressionScheme &,
    const kernels::KernelConfig &);
extern "C" void
DECA_WRAP(_ZN4deca5serve13StepCostModelC1ERKNS_3llm14InferenceModelERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigE)(
    serve::StepCostModel *self, const deca::llm::InferenceModel &inf,
    const deca::compress::CompressionScheme &scheme,
    const kernels::KernelConfig &kernel)
{
    Scope s("serve.step_cost");
    DECA_REAL(
        _ZN4deca5serve13StepCostModelC1ERKNS_3llm14InferenceModelERKNS_8compress17CompressionSchemeERKNS_7kernels12KernelConfigE)(
        self, inf, scheme, kernel);
    // Keyed by what the model prices, probed through its public API.
    char buf[256];
    std::snprintf(buf, sizeof buf, "|%.17g|%.17g|%.17g|%.17g|%llu",
                  self->decodeStepSeconds(1, 0.0),
                  self->decodeStepSeconds(16, 1.0e5),
                  self->prefillSeconds(512, 1.0e5),
                  self->weightBytesPerPass(),
                  static_cast<unsigned long long>(self->kvBytesPerToken()));
    s.attr("key", digest(inf.params().name + "|" + scheme.name + "|" +
                         kernel.describe() + buf));
}

DECA_DECLARE_REAL(serve::ServeMetrics, _ZN4deca5serve16ServingSimulator3runEv,
                  serve::ServingSimulator *);
extern "C" serve::ServeMetrics
DECA_WRAP(_ZN4deca5serve16ServingSimulator3runEv)(
    serve::ServingSimulator *self)
{
    Scope s("serve.sim");
    serve::ServeMetrics m =
        DECA_REAL(_ZN4deca5serve16ServingSimulator3runEv)(self);
    s.attr("requests", static_cast<double>(m.offered));
    return m;
}

// -- roofsurface --

DECA_DECLARE_REAL(roofsurface::CampaignResult,
    _ZN4deca11roofsurface11runCampaignERKNS0_12CampaignSpecERKNS0_19CampaignCalibrationERKNS_6runner12SweepOptionsE,
    const roofsurface::CampaignSpec &,
    const roofsurface::CampaignCalibration &,
    const deca::runner::SweepOptions &);
extern "C" roofsurface::CampaignResult
DECA_WRAP(_ZN4deca11roofsurface11runCampaignERKNS0_12CampaignSpecERKNS0_19CampaignCalibrationERKNS_6runner12SweepOptionsE)(
    const roofsurface::CampaignSpec &spec,
    const roofsurface::CampaignCalibration &calib,
    const deca::runner::SweepOptions &sweep)
{
    Scope s("roofsurface.campaign");
    roofsurface::CampaignResult r = DECA_REAL(
        _ZN4deca11roofsurface11runCampaignERKNS0_12CampaignSpecERKNS0_19CampaignCalibrationERKNS_6runner12SweepOptionsE)(
        spec, calib, sweep);
    s.attr("points", static_cast<double>(r.pointsEvaluated));
    return r;
}

DECA_DECLARE_REAL(roofsurface::CampaignCalibration,
    _ZN4deca11roofsurface17calibrateCampaignERKNS0_12CampaignSpecEb,
    const roofsurface::CampaignSpec &, bool);
extern "C" roofsurface::CampaignCalibration
DECA_WRAP(_ZN4deca11roofsurface17calibrateCampaignERKNS0_12CampaignSpecEb)(
    const roofsurface::CampaignSpec &spec, bool sample)
{
    Scope s("roofsurface.calibrate");
    return DECA_REAL(
        _ZN4deca11roofsurface17calibrateCampaignERKNS0_12CampaignSpecEb)(
        spec, sample);
}

DECA_DECLARE_REAL(std::vector<roofsurface::ValidationRow>,
    _ZN4deca11roofsurface16validateFrontierERKNS0_12CampaignSpecERKSt6vectorINS0_13CampaignPointESaIS5_EEbRKNS_6runner12SweepOptionsE,
    const roofsurface::CampaignSpec &,
    const std::vector<roofsurface::CampaignPoint> &, bool,
    const deca::runner::SweepOptions &);
extern "C" std::vector<roofsurface::ValidationRow>
DECA_WRAP(_ZN4deca11roofsurface16validateFrontierERKNS0_12CampaignSpecERKSt6vectorINS0_13CampaignPointESaIS5_EEbRKNS_6runner12SweepOptionsE)(
    const roofsurface::CampaignSpec &spec,
    const std::vector<roofsurface::CampaignPoint> &shortlist, bool sample,
    const deca::runner::SweepOptions &sweep)
{
    Scope s("roofsurface.validate");
    return DECA_REAL(
        _ZN4deca11roofsurface16validateFrontierERKNS0_12CampaignSpecERKSt6vectorINS0_13CampaignPointESaIS5_EEbRKNS_6runner12SweepOptionsE)(
        spec, shortlist, sample, sweep);
}

DECA_DECLARE_REAL(roofsurface::ErrorDistribution,
    _ZN4deca11roofsurface17errorDistributionERKSt6vectorINS0_13ValidationRowESaIS2_EE,
    const std::vector<roofsurface::ValidationRow> &);
extern "C" roofsurface::ErrorDistribution
DECA_WRAP(_ZN4deca11roofsurface17errorDistributionERKSt6vectorINS0_13ValidationRowESaIS2_EE)(
    const std::vector<roofsurface::ValidationRow> &rows)
{
    Scope s("roofsurface.error_distribution");
    const roofsurface::ErrorDistribution d = DECA_REAL(
        _ZN4deca11roofsurface17errorDistributionERKSt6vectorINS0_13ValidationRowESaIS2_EE)(
        rows);
    s.attr("p95", d.p95);
    return d;
}

DECA_DECLARE_REAL(std::vector<roofsurface::MemoryDesignPoint>,
    _ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKNS_6runner12SweepOptionsE,
    const roofsurface::MachineConfig &, const std::vector<u32> &,
    const std::vector<u32> &, const std::vector<u32> &,
    const deca::runner::SweepOptions &);
extern "C" std::vector<roofsurface::MemoryDesignPoint>
DECA_WRAP(_ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKNS_6runner12SweepOptionsE)(
    const roofsurface::MachineConfig &base, const std::vector<u32> &channels,
    const std::vector<u32> &banks, const std::vector<u32> &streams,
    const deca::runner::SweepOptions &sweep)
{
    Scope s("roofsurface.explore_memory");
    return DECA_REAL(
        _ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKNS_6runner12SweepOptionsE)(
        base, channels, banks, streams, sweep);
}

DECA_DECLARE_REAL(void,
    _ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKSt8functionIFvRKNS0_17MemoryDesignPointEEERKNS_6runner12SweepOptionsE,
    const roofsurface::MachineConfig &, const std::vector<u32> &,
    const std::vector<u32> &, const std::vector<u32> &,
    const std::function<void(const roofsurface::MemoryDesignPoint &)> &,
    const deca::runner::SweepOptions &);
extern "C" void
DECA_WRAP(_ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKSt8functionIFvRKNS0_17MemoryDesignPointEEERKNS_6runner12SweepOptionsE)(
    const roofsurface::MachineConfig &base, const std::vector<u32> &channels,
    const std::vector<u32> &banks, const std::vector<u32> &streams,
    const std::function<void(const roofsurface::MemoryDesignPoint &)> &sink,
    const deca::runner::SweepOptions &sweep)
{
    Scope s("roofsurface.explore_memory");
    DECA_REAL(
        _ZN4deca11roofsurface19exploreMemoryDesignERKNS0_13MachineConfigERKSt6vectorIjSaIjEES8_S8_RKSt8functionIFvRKNS0_17MemoryDesignPointEEERKNS_6runner12SweepOptionsE)(
        base, channels, banks, streams, sink, sweep);
}
