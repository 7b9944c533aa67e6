#include "hierarchy.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/prof.hh"
#include "common/trace.hh"

namespace ztx::mem {

const char *
xiKindName(XiKind kind)
{
    switch (kind) {
      case XiKind::ReadOnly: return "read-only";
      case XiKind::Demote: return "demote";
      case XiKind::Exclusive: return "exclusive";
      case XiKind::Lru: return "lru";
    }
    return "?";
}

Hierarchy::Hierarchy(const Topology &topo, const LatencyModel &lat,
                     const HierarchyGeometry &geo)
    : topo_(topo), lat_(lat), geo_(geo), stats_("hierarchy")
{
    const unsigned n = topo_.numCpus();
    if (n == 0)
        ztx_fatal("topology has zero CPUs");
    if (n > maxDirectoryCpus)
        ztx_fatal("topology has ", n, " CPUs; directory supports ",
                  maxDirectoryCpus);
    // Size the directory's per-line sharer words to this machine
    // instead of the compile-time worst case.
    dir_.configure(n);
    l1_.reserve(n);
    l2_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        l1_.emplace_back(geo_.l1, "l1." + std::to_string(i));
        l2_.emplace_back(geo_.l2, "l2." + std::to_string(i));
        lruExt_.emplace_back(geo_.l1.rows(), false);
    }
    lruExtTracked_.resize(n);
    txLines_.resize(n);
    for (unsigned c = 0; c < topo_.numChips(); ++c)
        l3_.emplace_back(geo_.l3, "l3." + std::to_string(c));
    for (unsigned m = 0; m < topo_.numMcms(); ++m)
        l4_.emplace_back(geo_.l4, "l4." + std::to_string(m));
    clients_.resize(n, nullptr);
}

void
Hierarchy::setClient(CpuId cpu, CacheClient *client)
{
    clients_.at(cpu) = client;
}

CacheClient *
Hierarchy::client(CpuId cpu) const
{
    CacheClient *c = clients_.at(cpu);
    if (!c)
        ztx_panic("no CacheClient registered for cpu ", cpu);
    return c;
}

AccessResult
Hierarchy::localHit(CpuId cpu, Addr line)
{
    AccessResult res;
    const auto p1 = l1_[cpu].probeForInsert(line);
    if (p1.hit) {
        l1_[cpu].touchAt(p1);
        res.source = DataSource::L1;
        res.latency = lat_.l1Hit;
        ++hot_.l1Hit;
        return res;
    }
    // Inclusivity: a held line must be L2-resident.
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (!p2.hit)
        ztx_panic("directory says cpu ", cpu, " holds line but L2 miss");
    l2_[cpu].touchAt(p2);
    insertL1At(cpu, line, p1);
    res.source = DataSource::L2;
    res.latency = lat_.l2Hit;
    ++hot_.l2Hit;
    return res;
}

DataSource
Hierarchy::findSource(CpuId cpu, Addr line,
                      const HolderScope &holders) const
{
    if (l1_[cpu].contains(line))
        return DataSource::L1;
    if (l2_[cpu].contains(line))
        return DataSource::L2;

    // Nearest other holder supplies the line (cache intervention).
    if (holders.inChip)
        return DataSource::L3;
    if (holders.inMcm)
        return DataSource::L4;
    if (holders.other)
        return DataSource::RemoteMcm;

    if (l3_[topo_.chipOf(cpu)].contains(line))
        return DataSource::L3;
    if (l4_[topo_.mcmOf(cpu)].contains(line))
        return DataSource::L4;
    for (unsigned m = 0; m < topo_.numMcms(); ++m)
        if (m != topo_.mcmOf(cpu) && l4_[m].contains(line))
            return DataSource::RemoteMcm;
    return DataSource::Memory;
}

XiResponse
Hierarchy::sendXi(XiKind kind, Addr line, CpuId target, CpuId requester)
{
    const std::uint8_t flags = l1_[target].flagsOf(line);
    const XiContext ctx{
        kind, line, requester,
        bool(flags & line_flag::txRead),
        bool(flags & line_flag::txDirty),
        lruExtensionHit(target, line),
        poisonedCached(line),
    };
    switch (kind) {
      case XiKind::ReadOnly: ++hot_.xiReadOnly; break;
      case XiKind::Demote: ++hot_.xiDemote; break;
      case XiKind::Exclusive: ++hot_.xiExclusive; break;
      case XiKind::Lru: ++hot_.xiLru; break;
    }
    ztx_trace(trace::Category::Xi, xiKindName(kind), " XI to cpu",
              target, " line=0x", std::hex, line, std::dec,
              " from cpu", requester);
    const XiResponse resp = client(target)->incomingXi(ctx);
    if (resp == XiResponse::Reject) {
        if (kind != XiKind::Demote && kind != XiKind::Exclusive)
            ztx_panic("client rejected a non-rejectable ",
                      xiKindName(kind), " XI");
        ++hot_.xiRejected;
    }
    return resp;
}

Cycles
Hierarchy::probeDelay(XiKind kind, CpuId target, CpuId requester)
{
    if (!xiProbe_)
        return 0;
    const Cycles delay = xiProbe_->xiDelay(kind, target, requester);
    if (delay)
        ++hot_.xiDelayed;
    return delay;
}

void
Hierarchy::removeFromCpu(CpuId cpu, Addr line)
{
    l1_[cpu].invalidate(line);
    l2_[cpu].invalidate(line);
    dir_.remove(line, cpu);
}

AccessResult
Hierarchy::fetch(CpuId cpu, Addr line, bool exclusive)
{
    ZTX_PROF_SCOPE("hier.fetch");
    if (lineOffset(line) != 0)
        ztx_panic("fetch of non-line-aligned address");

    ++hot_.fetchTotal;
    // L1/L2 hit: decided from the directory words, no snapshot.
    if (dir_.holds(cpu, line) &&
        (!exclusive || dir_.ownerOf(line) == cpu))
        return localHit(cpu, line);

    const HolderScope holders = dir_.holderScope(
        line, cpu, topo_.chipRange(cpu), topo_.mcmRange(cpu));
    AccessResult res;
    res.source = findSource(cpu, line, holders);

    Cycles xi_cost = 0;
    const CpuId owner = holders.owner;
    if (owner != invalidCpu && owner != cpu) {
        // Another CPU owns the line exclusively.
        const XiKind kind =
            exclusive ? XiKind::Exclusive : XiKind::Demote;
        const Distance d = topo_.distance(cpu, owner);
        const Cycles delay = probeDelay(kind, owner, cpu);
        if (sendXi(kind, line, owner, cpu) == XiResponse::Reject) {
            res.rejected = true;
            res.rejecter = owner;
            res.latency = lat_.rejectRetry(d) + delay;
            return res;
        }
        xi_cost = std::max(xi_cost, lat_.intervention(d) + delay);
        if (exclusive)
            removeFromCpu(owner, line);
        else
            dir_.demoteOwner(line); // owner keeps a read-only copy
    } else if (exclusive) {
        // Invalidate all other read-only copies.
        dir_.forEachSharerExcept(line, cpu, [&](CpuId s) {
            const Cycles delay =
                probeDelay(XiKind::ReadOnly, s, cpu);
            sendXi(XiKind::ReadOnly, line, s, cpu);
            removeFromCpu(s, line);
            xi_cost = std::max(
                xi_cost,
                lat_.intervention(topo_.distance(cpu, s)) + delay);
        });
    }

    if (exclusive)
        dir_.setExclusive(line, cpu);
    else
        dir_.addSharer(line, cpu);

    installLocal(cpu, line);
    if (poisonActive_)
        propagatePoisonOnFill(cpu, line, holders.other, res.source);
    res.latency = std::max(lat_.fetch(res.source), xi_cost);
    ++hot_.fetchMiss;
    return res;
}

void
Hierarchy::propagatePoisonOnFill(CpuId cpu, Addr line,
                                 bool other_holder, DataSource source)
{
    const auto it = poison_.find(line);
    if (it == poison_.end())
        return;
    if (it->second & poisonCached) {
        // A corrupt cached image supplied the fill: holder
        // intervention carries poison over the XI data transfer,
        // a shared-cache hit carries it on the fetch itself.
        if (other_holder)
            ++hot_.poisonSpreadXi;
        else
            ++hot_.poisonSpreadFetch;
    } else if ((it->second & poisonMemorySide) &&
               source == DataSource::Memory) {
        // The corrupt home image enters the cache hierarchy.
        it->second |= poisonCached;
        ++hot_.poisonSpreadFetch;
    } else {
        return; // memory-side only, fill came from a clean cache
    }
    l1_[cpu].setFlags(line, line_flag::poison);
}

void
Hierarchy::installLocal(CpuId cpu, Addr line)
{
    const unsigned chip = topo_.chipOf(cpu);
    const unsigned mcm = topo_.mcmOf(cpu);

    // Each level resolves presence, the free way, and the LRU victim
    // in one probe. Probes are taken level by level because an evict
    // handler may mutate the arrays below the level it ran for.
    const auto p4 = l4_[mcm].probeForInsert(line);
    if (p4.hit) {
        l4_[mcm].touchAt(p4);
    } else {
        const auto victim = l4_[mcm].insertAt(p4, line);
        if (victim.valid)
            handleL4Evict(mcm, victim.line);
    }
    const auto p3 = l3_[chip].probeForInsert(line);
    if (p3.hit) {
        l3_[chip].touchAt(p3);
    } else {
        const auto victim = l3_[chip].insertAt(p3, line);
        if (victim.valid)
            handleL3Evict(chip, victim.line);
    }
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (p2.hit) {
        l2_[cpu].touchAt(p2);
    } else {
        const auto victim = l2_[cpu].insertAt(p2, line);
        if (victim.valid)
            handleL2Evict(cpu, victim.line);
    }
    const auto p1 = l1_[cpu].probeForInsert(line);
    if (p1.hit)
        l1_[cpu].touchAt(p1);
    else
        insertL1At(cpu, line, p1);
}

void
Hierarchy::insertL1(CpuId cpu, Addr line)
{
    insertL1At(cpu, line, l1_[cpu].probeForInsert(line));
}

void
Hierarchy::insertL1At(CpuId cpu, Addr line,
                      const CacheArray::Probe &probe)
{
    const auto victim = l1_[cpu].insertAt(probe, line);
    if (!victim.valid)
        return;
    // The displaced line stays L2-resident; only the transactional
    // read footprint needs bookkeeping (paper §III.C).
    if (victim.flags & line_flag::txRead) {
        if (lruExtEnabled_) {
            lruExt_[cpu][l1_[cpu].row(victim.line)] = true;
            ++hot_.lruExtSet;
            auto &tracked = lruExtTracked_[cpu];
            if (std::find(tracked.begin(), tracked.end(),
                          victim.line) == tracked.end())
                tracked.push_back(victim.line);
        } else {
            // Ablation: without the extension the footprint promise
            // is limited to the L1; losing a tx-read line aborts.
            const XiContext ctx{XiKind::Lru, victim.line, invalidCpu,
                                true,
                                bool(victim.flags & line_flag::txDirty),
                                false,
                                poisonedCached(victim.line)};
            client(cpu)->incomingXi(ctx);
        }
    }
    client(cpu)->l1Evicted(victim.line, victim.flags);
    ++hot_.l1Evict;
}

void
Hierarchy::handleL2Evict(CpuId cpu, Addr victim)
{
    const std::uint8_t flags = l1_[cpu].flagsOf(victim);
    const bool ext_hit = lruExtensionHit(cpu, victim);
    l1_[cpu].invalidate(victim);
    dir_.remove(victim, cpu);
    ++hot_.l2Evict;
    const bool victim_poisoned = poisonedCached(victim);
    if (victim_poisoned)
        ++hot_.poisonSpreadCastout; // castout moves the image
    // Inclusivity LRU-XI down to the core; the client aborts its
    // transaction when the line is (or may be, via the imprecise
    // extension row) part of the transactional footprint.
    const XiContext ctx{XiKind::Lru, victim, invalidCpu,
                        bool(flags & line_flag::txRead),
                        bool(flags & line_flag::txDirty), ext_hit,
                        victim_poisoned};
    client(cpu)->incomingXi(ctx);
}

void
Hierarchy::handleL3Evict(unsigned chip, Addr victim)
{
    l3EvictStat_.inc();
    // Inclusivity: the line leaves every L2 of the chip (and, in
    // handleL2Evict, the L1 and the directory) before the LRU-XI.
    const unsigned first = chip * topo_.coresPerChip();
    for (unsigned i = 0; i < topo_.coresPerChip(); ++i) {
        const CpuId cpu = first + i;
        if (l2_[cpu].invalidate(victim))
            handleL2Evict(cpu, victim);
    }
}

void
Hierarchy::handleL4Evict(unsigned mcm, Addr victim)
{
    l4EvictStat_.inc();
    const unsigned first_chip = mcm * topo_.chipsPerMcm();
    for (unsigned i = 0; i < topo_.chipsPerMcm(); ++i) {
        const unsigned chip = first_chip + i;
        if (l3_[chip].invalidate(victim))
            handleL3Evict(chip, victim);
    }
}

void
Hierarchy::markTx(CpuId cpu, Addr line, std::uint8_t bit)
{
    line = lineAlign(line);
    // A line enters the footprint list when it gains its first tx
    // bit. A line evicted and refilled since is listed again, which
    // clearTxMarks() tolerates.
    if (!(l1_[cpu].setFlags(line, bit) & txBits))
        txLines_[cpu].push_back(line);
}

void
Hierarchy::markTxRead(CpuId cpu, Addr line)
{
    markTx(cpu, line, line_flag::txRead);
}

void
Hierarchy::markTxDirty(CpuId cpu, Addr line)
{
    markTx(cpu, line, line_flag::txDirty);
}

void
Hierarchy::clearTxMarks(CpuId cpu)
{
    // Only markTx() sets tx bits, so the footprint list names every
    // line that can carry one; lines evicted since are skipped.
    for (const Addr line : txLines_[cpu])
        l1_[cpu].clearFlags(line, txBits);
    txLines_[cpu].clear();
    std::fill(lruExt_[cpu].begin(), lruExt_[cpu].end(), false);
    lruExtTracked_[cpu].clear();
}

void
Hierarchy::killTxDirtyLines(CpuId cpu)
{
    std::vector<Addr> doomed;
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags & line_flag::txDirty)
            doomed.push_back(e.line);
    });
    for (const Addr line : doomed)
        l1_[cpu].invalidate(line);
    hot_.txDirtyKilled += doomed.size();
}

bool
Hierarchy::txRead(CpuId cpu, Addr line) const
{
    return l1_[cpu].flagsOf(lineAlign(line)) & line_flag::txRead;
}

bool
Hierarchy::txDirty(CpuId cpu, Addr line) const
{
    return l1_[cpu].flagsOf(lineAlign(line)) & line_flag::txDirty;
}

bool
Hierarchy::lruExtensionHit(CpuId cpu, Addr line) const
{
    if (!lruExtEnabled_)
        return false;
    return lruExt_[cpu][l1_[cpu].row(lineAlign(line))];
}

bool
Hierarchy::lruExtensionAny(CpuId cpu) const
{
    for (const bool b : lruExt_[cpu])
        if (b)
            return true;
    return false;
}

void
Hierarchy::setLruExtensionEnabled(bool enabled)
{
    lruExtEnabled_ = enabled;
}

bool
Hierarchy::inL1(CpuId cpu, Addr line) const
{
    return l1_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL2(CpuId cpu, Addr line) const
{
    return l2_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL3(unsigned chip, Addr line) const
{
    return l3_[chip].contains(lineAlign(line));
}

bool
Hierarchy::inL4(unsigned mcm, Addr line) const
{
    return l4_[mcm].contains(lineAlign(line));
}

void
Hierarchy::flushCpuCaches(CpuId cpu)
{
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags & (line_flag::txRead | line_flag::txDirty))
            ztx_panic("flushCpuCaches with transactional marks set");
    });
    std::vector<Addr> lines;
    l2_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        lines.push_back(e.line);
    });
    for (const Addr line : lines) {
        l1_[cpu].invalidate(line);
        l2_[cpu].invalidate(line);
        dir_.remove(line, cpu);
    }
    std::fill(lruExt_[cpu].begin(), lruExt_[cpu].end(), false);
    lruExtTracked_[cpu].clear();
}

std::vector<Addr>
Hierarchy::txFootprintLines(CpuId cpu) const
{
    std::vector<Addr> lines;
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags &
            (line_flag::txRead | line_flag::txDirty))
            lines.push_back(e.line);
    });
    // Evicted-but-tracked lines: displaced from the L1 while an
    // LRU-extension row preserved their tx-read promise. A line may
    // have been refetched (and remarked) since its eviction; skip
    // those to avoid duplicates.
    for (const Addr line : lruExtTracked_[cpu])
        if (!(l1_[cpu].flagsOf(line) &
              (line_flag::txRead | line_flag::txDirty)))
            lines.push_back(line);
    return lines;
}

bool
Hierarchy::injectAdversarialXi(CpuId target, Addr line)
{
    const DirectoryEntry e = dir_.lookup(line);
    if (e.owner == target) {
        // Rejectable: an owner defending its footprint stiff-arms
        // exactly as it would against a real remote claimant.
        if (sendXi(XiKind::Exclusive, line, target, invalidCpu) ==
            XiResponse::Reject)
            return false;
    } else if (dir_.holds(target, line)) {
        // A shared copy cannot be defended (ReadOnly XIs are not
        // rejectable): a tx-read hit aborts the transaction.
        sendXi(XiKind::ReadOnly, line, target, invalidCpu);
    } else {
        return false; // raced away (e.g. aborted out) — no-op
    }
    removeFromCpu(target, line);
    return true;
}

void
Hierarchy::squeezeCapacity(CpuId cpu, unsigned l1_ways,
                           unsigned l2_ways)
{
    l1_[cpu].setEffectiveAssoc(l1_ways);
    l2_[cpu].setEffectiveAssoc(l2_ways);
}

void
Hierarchy::poisonLine(Addr line, bool memory_side)
{
    line = lineAlign(line);
    std::uint8_t &bits = poison_[line];
    bits |= poisonCached;
    if (memory_side)
        bits |= poisonMemorySide;
    poisonActive_ = true;
    stats_.counter("poison.injected").inc();
    // Best-effort flag mirror on the L1s of current holders, so
    // XiContext and introspection see the poison without a map walk.
    dir_.lookup(line).forEachHolder([&](CpuId h) {
        if (l1_[h].contains(line))
            l1_[h].setFlags(line, line_flag::poison);
    });
}

bool
Hierarchy::scrubLine(Addr line)
{
    line = lineAlign(line);
    const auto it = poison_.find(line);
    if (it == poison_.end())
        return true; // raced away (already scrubbed) — vacuous
    if (it->second & poisonMemorySide)
        return false; // no clean copy exists anywhere
    poison_.erase(it);
    for (auto &l1 : l1_)
        l1.clearFlags(line, line_flag::poison);
    stats_.counter("poison.scrubbed").inc();
    poisonActive_ = !poison_.empty();
    return true;
}

void
Hierarchy::reloadLine(Addr line)
{
    line = lineAlign(line);
    if (poison_.erase(line)) {
        stats_.counter("poison.reloaded").inc();
        for (auto &l1 : l1_)
            l1.clearFlags(line, line_flag::poison);
    }
    poisonActive_ = !poison_.empty();
}

bool
Hierarchy::inTxFootprint(CpuId cpu, Addr line) const
{
    line = lineAlign(line);
    if (l1_[cpu].flagsOf(line) &
        (line_flag::txRead | line_flag::txDirty))
        return true;
    const auto &tracked = lruExtTracked_[cpu];
    return std::find(tracked.begin(), tracked.end(), line) !=
           tracked.end();
}

void
Hierarchy::foldHotCounters() const
{
    // Touch every counter unconditionally so the set of registered
    // stats (and hence the JSON shape) never depends on which paths
    // happened to run.
    stats_.counter("fetch.total").inc(hot_.fetchTotal);
    stats_.counter("fetch.l1_hit").inc(hot_.l1Hit);
    stats_.counter("fetch.l2_hit").inc(hot_.l2Hit);
    stats_.counter("fetch.miss").inc(hot_.fetchMiss);
    stats_.counter("l1.evict").inc(hot_.l1Evict);
    stats_.counter("l1.lru_ext_set").inc(hot_.lruExtSet);
    stats_.counter("l1.tx_dirty_killed").inc(hot_.txDirtyKilled);
    stats_.counter("l2.evict").inc(hot_.l2Evict);
    stats_.counter("xi.read-only").inc(hot_.xiReadOnly);
    stats_.counter("xi.demote").inc(hot_.xiDemote);
    stats_.counter("xi.exclusive").inc(hot_.xiExclusive);
    stats_.counter("xi.lru").inc(hot_.xiLru);
    stats_.counter("xi.rejected").inc(hot_.xiRejected);
    stats_.counter("xi.delayed").inc(hot_.xiDelayed);
    stats_.counter("poison.spread_fetch").inc(hot_.poisonSpreadFetch);
    stats_.counter("poison.spread_castout")
        .inc(hot_.poisonSpreadCastout);
    stats_.counter("poison.spread_xi").inc(hot_.poisonSpreadXi);
    hot_ = {};
}

std::string
Hierarchy::indexCheck() const
{
    const auto check = [](const CacheArray &arr) {
        return arr.indexCheck();
    };
    for (const CacheArray &arr : l1_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l2_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l3_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l4_)
        if (std::string err = check(arr); !err.empty())
            return err;
    return "";
}

void
Hierarchy::checkInvariants() const
{
    for (unsigned cpu = 0; cpu < topo_.numCpus(); ++cpu) {
        // L1 subset of L2, L2 subset of L3 and L4; holders match
        // the directory.
        l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!l2_[cpu].contains(e.line))
                ztx_panic("L1 line not in L2 (cpu ", cpu, ")");
        });
        l2_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!l3_[topo_.chipOf(cpu)].contains(e.line))
                ztx_panic("L2 line not in L3 (cpu ", cpu, ")");
            if (!l4_[topo_.mcmOf(cpu)].contains(e.line))
                ztx_panic("L2 line not in L4 (cpu ", cpu, ")");
            if (!dir_.holds(cpu, e.line))
                ztx_panic("L2 line not in directory (cpu ", cpu, ")");
        });
    }
}

} // namespace ztx::mem
