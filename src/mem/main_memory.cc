#include "main_memory.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace ztx::mem {

const MainMemory::Line *
MainMemory::findLine(Addr line) const
{
    if (keys_.empty())
        return nullptr;
    for (std::size_t i = probeStart(line);; i = (i + 1) & mask_) {
        const Addr k = keys_[i];
        if (k == line)
            return vals_[i];
        if (k == emptyKey)
            return nullptr;
    }
}

void
MainMemory::grow(std::size_t cap)
{
    std::vector<Addr> old_keys = std::move(keys_);
    std::vector<Line *> old_vals = std::move(vals_);
    keys_.assign(cap, emptyKey);
    vals_.assign(cap, nullptr);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (old_keys[i] == emptyKey)
            continue;
        std::size_t j = probeStart(old_keys[i]);
        while (keys_[j] != emptyKey)
            j = (j + 1) & mask_;
        keys_[j] = old_keys[i];
        vals_[j] = old_vals[i];
    }
}

MainMemory::Line &
MainMemory::ensureLine(Addr line)
{
    if (const Line *l = findLine(line))
        return const_cast<Line &>(*l);

    if (keys_.empty())
        grow(initialCapacity);
    else if ((used_ + 1) * 4 > keys_.size() * 3)
        grow(keys_.size() * 2);
    std::size_t i = probeStart(line);
    while (keys_[i] != emptyKey)
        i = (i + 1) & mask_;

    if (chunkNext_ == chunkLines) {
        chunks_.push_back(
            std::make_unique<std::array<Line, chunkLines>>());
        chunkNext_ = 0;
    }
    Line &l = (*chunks_.back())[chunkNext_++];
    l.fill(0);
    keys_[i] = line;
    vals_[i] = &l;
    ++used_;
    return l;
}

std::uint8_t
MainMemory::readByte(Addr addr) const
{
    const Line *line = findLine(lineAlign(addr));
    return line ? (*line)[lineOffset(addr)] : 0;
}

void
MainMemory::writeByte(Addr addr, std::uint8_t value)
{
    ensureLine(lineAlign(addr))[lineOffset(addr)] = value;
}

std::uint64_t
MainMemory::read(Addr addr, unsigned size) const
{
    if (size == 0 || size > 8)
        ztx_panic("MainMemory::read of unsupported size ", size);
    std::uint8_t buf[8];
    readBlock(addr, buf, size);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v = (v << 8) | buf[i];
    return v;
}

void
MainMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    if (size == 0 || size > 8)
        ztx_panic("MainMemory::write of unsupported size ", size);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < size; ++i)
        buf[i] = std::uint8_t(value >> (8 * (size - 1 - i)));
    writeBlock(addr, buf, size);
}

void
MainMemory::readBlock(Addr addr, std::uint8_t *out, std::size_t len) const
{
    while (len > 0) {
        const Addr base = lineAlign(addr);
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk =
            std::min<std::size_t>(len, lineSizeBytes - off);
        if (const Line *line = findLine(base))
            std::memcpy(out, line->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MainMemory::writeBlock(Addr addr, const std::uint8_t *in, std::size_t len)
{
    while (len > 0) {
        const Addr base = lineAlign(addr);
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk =
            std::min<std::size_t>(len, lineSizeBytes - off);
        std::memcpy(ensureLine(base).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::size_t
MainMemory::linesAllocated() const
{
    return used_;
}

} // namespace ztx::mem
