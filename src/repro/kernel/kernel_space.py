"""The shared kernel address space (paper section 5.2, "Kernel
Mappings").

Linux maps one kernel address space into every process.  LVM keeps a
*single* learned page table for it, shared by all processes: this both
saves memory and avoids retraining a kernel index per process.  The
hardware selects the kernel index via the usual kernel/user VA split
(bit 47 of the canonical address).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import LVMConfig
from repro.core.learned_index import LearnedIndex
from repro.core.rebase import AddressSpaceRebaser
from repro.mem.allocator import PhysicalAllocator
from repro.types import PTE, TranslationError

#: First kernel VPN: the canonical upper half (0xffff8000_00000000).
KERNEL_BASE_VPN = 0xFFFF_8000_0000_0000 >> 12


def is_kernel_vpn(vpn: int) -> bool:
    return vpn >= KERNEL_BASE_VPN


class SharedKernelIndex:
    """One LVM index for the kernel's mappings, shared by all processes.

    The kernel's direct map and vmalloc area are huge and extremely
    regular (the direct map is one linear run), which is the best case
    for a learned index; rebasing removes the canonical-upper-half
    offset so Q44.20 slopes stay well-conditioned.
    """

    def __init__(
        self,
        allocator: Optional[PhysicalAllocator] = None,
        config: Optional[LVMConfig] = None,
        direct_map_pages: int = 1 << 18,
    ):
        # One region at the kernel base with generous headroom.
        rebaser = AddressSpaceRebaser(
            [(KERNEL_BASE_VPN, direct_map_pages)],
            headroom=1 << 20,
        )
        self.index = LearnedIndex(allocator, config, rebaser=rebaser)
        self.attached_processes = 0

    def map_direct(self, start_vpn: int, pages: int, ppn0: int) -> None:
        """Map a linear run (the kernel direct map)."""
        if not is_kernel_vpn(start_vpn):
            raise TranslationError(f"{start_vpn:#x} is not a kernel VPN")
        self.index.bulk_build(
            self.index.mappings()
            + [PTE(vpn=start_vpn + i, ppn=ppn0 + i) for i in range(pages)]
        )

    def map(self, pte: PTE) -> None:
        if not is_kernel_vpn(pte.vpn):
            raise TranslationError(f"{pte.vpn:#x} is not a kernel VPN")
        self.index.insert(pte)

    def attach(self) -> "SharedKernelIndex":
        """A new process shares (not copies) the kernel index."""
        self.attached_processes += 1
        return self

    def memory_saved_vs_per_process(self) -> int:
        """Bytes saved by sharing instead of per-process kernel tables."""
        per_process = self.index.index_size_bytes + self.index.table_bytes
        return per_process * max(0, self.attached_processes - 1)
