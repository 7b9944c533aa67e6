#include "program.hh"

#include "common/log.hh"

namespace ztx::isa {

Addr
Program::entry() const
{
    if (slots_.empty())
        ztx_fatal("fetch from empty program");
    return slots_.front().addr;
}

Addr
Program::labelAddr(const std::string &name) const
{
    const auto it = labels_.find(name);
    if (it == labels_.end())
        ztx_fatal("unknown label '", name, "'");
    return it->second;
}

} // namespace ztx::isa
