"""GPU + SSD integrated-system model behind the Fig. 3 motivation study.

A large-scale application whose dataset exceeds GPU memory executes as
a loop of phases: read a chunk from the SSD (*storage*), DMA it into
GPU memory over PCIe and the electrical memory channels (*data move*),
then run the kernels over it (*GPU*).  Fig. 3a reports the time split
between the three; Fig. 3b zooms into the memory subsystem and splits
DMA vs DRAM-access time plus the DMA energy fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import GB, SystemConfig

if TYPE_CHECKING:
    from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class PhaseBreakdown:
    """Execution-time split of one workload on the GPU+SSD system."""

    workload: str
    data_move_frac: float
    storage_frac: float
    gpu_frac: float

    @property
    def movement_over_compute(self) -> float:
        """(storage + data move) time relative to GPU compute time."""
        if self.gpu_frac == 0:
            return float("inf")
        return (self.data_move_frac + self.storage_frac) / self.gpu_frac


@dataclass(frozen=True)
class MemoryBreakdown:
    """Fig. 3b: DMA share of memory-subsystem time and energy."""

    workload: str
    dma_time_frac: float
    dram_time_frac: float
    dma_energy_frac: float


class GpuSsdSystem:
    """Analytic phase model of the GPU+SSD testbed (Section II-B)."""

    # Effective SSD streaming bandwidth (multi-channel Z-NAND [57]).
    SSD_BW_GB_PER_S = 12.8
    # GDDR line access (row share + column + I/O): ~5 pJ/bit over a
    # 128 B line.  DMA energy per bit comes from the electrical-channel
    # config; the split reproduces Fig. 3b's ~19 % DMA energy share.
    DRAM_ACCESS_PJ = 600.0

    def __init__(self, cfg: SystemConfig, dataset_bytes: int = 32 * GB) -> None:
        self.cfg = cfg
        self.dataset_bytes = dataset_bytes
        gpu = cfg.gpu
        self._inst_per_s = gpu.num_sms * gpu.sm_freq_ghz * 1e9

    def _compute_seconds(self, spec: WorkloadSpec) -> float:
        """Kernel time: instructions implied by APKI and data reuse."""
        accesses = self.dataset_bytes / self.cfg.gpu.line_bytes * spec.compute_reuse
        instructions = accesses * 1000.0 / spec.apki
        return instructions / self._inst_per_s

    def _data_move_seconds(self) -> float:
        """PCIe in + results out."""
        pcie = self.cfg.host.pcie_bandwidth_gb_per_s * 1e9
        return 2.0 * self.dataset_bytes / pcie

    def _storage_seconds(self) -> float:
        return self.dataset_bytes / (self.SSD_BW_GB_PER_S * 1e9)

    def phase_breakdown(self, spec: WorkloadSpec) -> PhaseBreakdown:
        """Fig. 3a row for one workload."""
        gpu = self._compute_seconds(spec)
        move = self._data_move_seconds()
        storage = self._storage_seconds()
        total = gpu + move + storage
        return PhaseBreakdown(
            workload=spec.name,
            data_move_frac=move / total,
            storage_frac=storage / total,
            gpu_frac=gpu / total,
        )

    def memory_breakdown(self, spec: WorkloadSpec) -> MemoryBreakdown:
        """Fig. 3b row: inside the GPU memory subsystem."""
        # DMA writes of the dataset through the electrical channels.
        chan_bw_bits = self.cfg.electrical.total_bandwidth_bits_per_ns * 1e9
        dma_s = self.dataset_bytes * 8 / chan_bw_bits
        # Demand DRAM accesses: reuse-weighted line accesses, ~40 ns each.
        accesses = self.dataset_bytes / self.cfg.gpu.line_bytes * spec.compute_reuse
        dram_s = accesses * 40e-9 / self.cfg.electrical.num_channels
        total = dma_s + dram_s
        # Energy: per-bit DMA energy vs per-access DRAM energy.
        dma_pj = self.dataset_bytes * 8 * self.cfg.electrical.energy_pj_per_bit
        dram_pj = accesses * self.DRAM_ACCESS_PJ
        return MemoryBreakdown(
            workload=spec.name,
            dma_time_frac=dma_s / total,
            dram_time_frac=dram_s / total,
            dma_energy_frac=dma_pj / (dma_pj + dram_pj),
        )
