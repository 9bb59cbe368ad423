"""OS layer: address spaces, THP policy, ASLR, processes, the shared
kernel index."""

from repro.kernel.aslr import ASLRLayout
from repro.kernel.kernel_space import (
    KERNEL_BASE_VPN,
    SharedKernelIndex,
    is_kernel_vpn,
)
from repro.kernel.process import Process, ProcessStats
from repro.kernel.thp import plan_vma_runs
from repro.kernel.vma import VMA, AddressSpace

__all__ = [
    "ASLRLayout",
    "KERNEL_BASE_VPN",
    "SharedKernelIndex",
    "is_kernel_vpn",
    "AddressSpace",
    "Process",
    "ProcessStats",
    "VMA",
    "plan_vma_runs",
]
