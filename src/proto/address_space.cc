#include "address_space.hh"

#include <cstring>

#include "sim/log.hh"

namespace swsm
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

AddressSpace::AddressSpace(int num_nodes, std::uint32_t page_bytes,
                           std::uint32_t block_bytes)
    : numNodes_(num_nodes), pageBytes_(page_bytes), blockBytes_(block_bytes)
{
    if (num_nodes <= 0)
        SWSM_FATAL("address space needs at least one node");
    if (!isPow2(page_bytes) || !isPow2(block_bytes))
        SWSM_FATAL("page and block sizes must be powers of two");
    if (block_bytes > page_bytes && block_bytes % page_bytes != 0)
        SWSM_FATAL("blocks larger than a page must be page multiples");
}

void
AddressSpace::growTo(std::uint64_t new_brk)
{
    const std::uint64_t pages = (new_brk + pageBytes_ - 1) / pageBytes_;
    while (pageHomes.size() < pages) {
        pageHomes.push_back(nextHome);
        nextHome = (nextHome + 1) % numNodes_;
    }
    store.resize(pages * pageBytes_, 0);
    brk = new_brk;
}

GlobalAddr
AddressSpace::alloc(std::uint64_t bytes, std::uint64_t align)
{
    if (!isPow2(align))
        SWSM_FATAL("allocation alignment must be a power of two");
    const GlobalAddr base = (brk + align - 1) & ~(align - 1);
    growTo(base + bytes);
    return base;
}

GlobalAddr
AddressSpace::allocAt(std::uint64_t bytes, NodeId home)
{
    const GlobalAddr base = alloc(bytes, pageBytes_);
    setRangeHome(base, bytes, home);
    return base;
}

void
AddressSpace::setRangeHome(GlobalAddr addr, std::uint64_t bytes,
                           NodeId home)
{
    if (home < 0 || home >= numNodes_)
        SWSM_FATAL("invalid home node %d", home);
    if (bytes == 0)
        return;
    const PageId first = pageOf(addr);
    const PageId last = pageOf(addr + bytes - 1);
    for (PageId p = first; p <= last; ++p)
        pageHomes.at(p) = home;
}

void
AddressSpace::initWrite(GlobalAddr a, const void *src, std::uint64_t bytes)
{
    if (bytes > store.size() || a > store.size() - bytes)
        SWSM_PANIC("initWrite beyond allocated space");
    std::memcpy(&store[a], src, bytes);
}

void
AddressSpace::initRead(GlobalAddr a, void *dst, std::uint64_t bytes) const
{
    if (bytes > store.size() || a > store.size() - bytes)
        SWSM_PANIC("initRead beyond allocated space");
    std::memcpy(dst, &store[a], bytes);
}

} // namespace swsm
