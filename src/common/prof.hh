/**
 * @file
 * Scoped phase profiler for the per-access hot paths.
 *
 * A profiling *site* is a named pair of accumulators (host cycles,
 * call count) registered once per process; a *scope* charges the
 * host-cycle delta between its construction and destruction to one
 * site. Sites live as function-local statics at the instrumented
 * code (ZTX_PROF_SCOPE), so adding one costs a single line and no
 * central registry edit.
 *
 * Profiling is off by default and enabled per process via
 * setEnabled() or the ZTX_PROF environment variable. When disabled
 * a scope is one predicted branch — no timestamp is read — so the
 * instrumentation may sit inside the per-access simulator paths
 * without a measurable cost.
 *
 * The accumulators hold *host* time (TSC ticks on x86, steady-clock
 * nanoseconds elsewhere). They therefore vary run to run and must
 * never feed simulated state or Machine::dumpStatsJson(), which the
 * determinism tests byte-compare across runs; the
 * bench harness dumps snapshotJson() into the bench JSON `prof`
 * section only (validated by bench/json_check). Sites nest freely —
 * an outer site's cycles include its inner sites' — and the dump
 * reports sites sorted by name so the *shape* is stable even though
 * the values are wall-clock.
 */

#ifndef ZTX_COMMON_PROF_HH
#define ZTX_COMMON_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/json.hh"

namespace ztx::prof {

namespace detail {

/** Process-wide on/off switch; plain bool, set before threads run. */
extern bool enabledFlag;

/** Cycle counter: TSC where available, steady-clock ns otherwise. */
inline std::uint64_t
now()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

} // namespace detail

/** One named accumulator; self-registers on construction. */
struct Site
{
    const char *name;
    /** Relaxed atomics: sites are process-wide statics. */
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> calls{0};
    Site *next = nullptr;

    explicit Site(const char *site_name);

    Site(const Site &) = delete;
    Site &operator=(const Site &) = delete;
};

/** True when profiling scopes are charging their sites. */
inline bool
enabled()
{
    return detail::enabledFlag;
}

/** Turn profiling on or off (call before the machine runs). */
void setEnabled(bool on);

/** Enable from the ZTX_PROF environment variable ("1"/"true"). */
bool enabledFromEnv();

/** Zero every site's accumulators (between bench records). */
void reset();

/**
 * Snapshot all sites as the bench-JSON `prof` section:
 * {"enabled": bool, "unit": "tsc"|"ns",
 *  "sites": [{"name", "cycles", "calls"}...]} with sites sorted by
 * name (only sites whose translation unit has run register; a
 * disabled run reports the registered sites with zero counts).
 */
Json snapshotJson();

/** RAII scope charging one site; no-op while disabled. */
class Scope
{
  public:
    explicit Scope(Site &site)
    {
        if (detail::enabledFlag) {
            site_ = &site;
            t0_ = detail::now();
        }
    }

    ~Scope()
    {
        if (site_) {
            site_->cycles.fetch_add(detail::now() - t0_,
                                    std::memory_order_relaxed);
            site_->calls.fetch_add(1, std::memory_order_relaxed);
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Site *site_ = nullptr;
    std::uint64_t t0_ = 0;
};

} // namespace ztx::prof

#define ZTX_PROF_CONCAT2(a, b) a##b
#define ZTX_PROF_CONCAT(a, b) ZTX_PROF_CONCAT2(a, b)

/** Charge the rest of the enclosing block to site @p name. */
#define ZTX_PROF_SCOPE(name)                                          \
    static ::ztx::prof::Site ZTX_PROF_CONCAT(ztxProfSite_,            \
                                             __LINE__){name};         \
    ::ztx::prof::Scope ZTX_PROF_CONCAT(ztxProfScope_, __LINE__)       \
    {                                                                 \
        ZTX_PROF_CONCAT(ztxProfSite_, __LINE__)                       \
    }

#endif // ZTX_COMMON_PROF_HH
