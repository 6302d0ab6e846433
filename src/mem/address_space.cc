#include "src/mem/address_space.h"

#include <cassert>

namespace tcs {

void AddressSpace::SetEvicted(uint64_t vpn) {
  assert(vpn < pages_.size() && pages_[vpn] >= kFrameBase);
  pages_[vpn] = kEvicted;
  --resident_count_;
  RecordChain(0, 0);
}

}  // namespace tcs
