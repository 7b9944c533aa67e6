#include "prof.hh"

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>

namespace ztx::prof {

namespace detail {

bool enabledFlag = false;

/** Head of the lock-free site registry (push-only). */
std::atomic<Site *> siteHead{nullptr};

} // namespace detail

Site::Site(const char *site_name) : name(site_name)
{
    Site *head = detail::siteHead.load(std::memory_order_relaxed);
    do {
        next = head;
    } while (!detail::siteHead.compare_exchange_weak(
        head, this, std::memory_order_release,
        std::memory_order_relaxed));
}

void
setEnabled(bool on)
{
    detail::enabledFlag = on;
}

bool
enabledFromEnv()
{
    const char *v = std::getenv("ZTX_PROF");
    const bool on =
        v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
    setEnabled(on);
    return on;
}

void
reset()
{
    for (Site *s = detail::siteHead.load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
        s->cycles.store(0, std::memory_order_relaxed);
        s->calls.store(0, std::memory_order_relaxed);
    }
}

Json
snapshotJson()
{
    // Aggregate by name: the same logical site may exist at several
    // code locations, and sorted names keep the JSON shape
    // deterministic.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        by_name;
    for (Site *s = detail::siteHead.load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
        auto &acc = by_name[s->name];
        acc.first += s->cycles.load(std::memory_order_relaxed);
        acc.second += s->calls.load(std::memory_order_relaxed);
    }

    Json doc = Json::object();
    doc["enabled"] = enabled();
#if defined(__x86_64__) || defined(__i386__)
    doc["unit"] = "tsc";
#else
    doc["unit"] = "ns";
#endif
    Json arr = Json::array();
    for (const auto &[name, acc] : by_name) {
        Json site = Json::object();
        site["name"] = name;
        site["cycles"] = acc.first;
        site["calls"] = acc.second;
        arr.push(std::move(site));
    }
    doc["sites"] = std::move(arr);
    return doc;
}

} // namespace ztx::prof
