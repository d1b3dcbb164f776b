"""Simulated device memory: regions and buffers.

An OpenCL device exposes global, constant, local and private memory
regions (§3.1 of the paper).  For the simulation we track *global*
allocations as :class:`Buffer` objects wrapping NumPy arrays, with a
per-device allocation ledger so out-of-memory and double-free bugs in
schedules surface as errors instead of silently "working".
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.errors import DeviceMemoryError


class MemoryRegion(enum.Enum):
    """The four OpenCL memory regions."""

    GLOBAL = "global"
    CONSTANT = "constant"
    LOCAL = "local"
    PRIVATE = "private"


class Buffer:
    """A device-resident array.

    The host must move data explicitly (``CommandQueue.enqueue_write`` /
    ``enqueue_read``) just as in OpenCL; reading ``data`` directly is
    the simulation-level backdoor used by kernels themselves.
    """

    _counter = 0

    def __init__(
        self,
        nbytes: int,
        dtype="int64",
        region: MemoryRegion = MemoryRegion.GLOBAL,
        name: str = "",
    ) -> None:
        from repro.util.host import require_numpy

        np = require_numpy()
        dtype = np.dtype(dtype)
        if nbytes <= 0:
            raise DeviceMemoryError(f"buffer size must be positive, got {nbytes!r}")
        if nbytes % dtype.itemsize != 0:
            raise DeviceMemoryError(
                f"buffer size {nbytes} is not a multiple of itemsize "
                f"{dtype.itemsize}"
            )
        Buffer._counter += 1
        self.name = name or f"buf{Buffer._counter}"
        self.nbytes = nbytes
        self.dtype = dtype
        self.region = region
        self.data = np.zeros(nbytes // dtype.itemsize, dtype=dtype)
        self.freed = False

    def __len__(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self.freed else "live"
        return f"<Buffer {self.name!r} {self.nbytes}B {self.dtype} {state}>"

    @property
    def words(self) -> int:
        """Number of machine words (elements) — unit of transfer cost."""
        return self.data.size

    def check_live(self) -> None:
        """Raise if this buffer has been freed."""
        if self.freed:
            raise DeviceMemoryError(f"use of freed buffer {self.name!r}")


class DeviceMemory:
    """Allocation ledger for one device's global memory."""

    def __init__(self, capacity_bytes: int, device_name: str = "device") -> None:
        if capacity_bytes <= 0:
            raise DeviceMemoryError(
                f"device memory capacity must be positive, got {capacity_bytes!r}"
            )
        self.capacity_bytes = capacity_bytes
        self.device_name = device_name
        self.allocated_bytes = 0
        self._live: Dict[str, Buffer] = {}

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def alloc(
        self,
        nbytes: int,
        dtype="int64",
        name: str = "",
        region: MemoryRegion = MemoryRegion.GLOBAL,
    ) -> Buffer:
        """Allocate a buffer, enforcing the device's capacity."""
        if nbytes > self.free_bytes:
            raise DeviceMemoryError(
                f"{self.device_name}: cannot allocate {nbytes} B "
                f"({self.free_bytes} B free of {self.capacity_bytes} B)"
            )
        buf = Buffer(nbytes, dtype=dtype, region=region, name=name)
        self.allocated_bytes += nbytes
        self._live[buf.name] = buf
        return buf

    def free(self, buf: Buffer) -> None:
        """Release a buffer back to the device."""
        buf.check_live()
        if buf.name not in self._live:
            raise DeviceMemoryError(
                f"{self.device_name}: buffer {buf.name!r} was not allocated here"
            )
        del self._live[buf.name]
        self.allocated_bytes -= buf.nbytes
        buf.freed = True

    def live_buffers(self) -> Dict[str, Buffer]:
        """Snapshot of currently-live buffers by name."""
        return dict(self._live)
