// Resource offers (two-level scheduling, §3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/resources.h"

namespace omega {

// A slice of one machine's currently unused resources, locked for the
// receiving framework while the offer is outstanding.
struct OfferSlice {
  MachineId machine = kInvalidMachineId;
  Resources resources;
};

// An offer: the per-machine available resources handed to one framework. The
// Mesos "simple allocator" offers *all* available resources at once and does
// not limit what a framework may accept (§3.3, footnote 3).
//
// `slices` holds the slices the framework has pulled, in machine order. An
// offer with a non-zero `lazy` epoch holds more: the allocator keeps the rest
// of it implicit, and the framework pulls slices on demand through
// MesosAllocator::Pull (DESIGN.md §7).
struct ResourceOffer {
  std::vector<OfferSlice> slices;
  uint64_t lazy = 0;
};

}  // namespace omega
