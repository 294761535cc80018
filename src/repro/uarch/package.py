"""Multi-core package model.

Aggregates per-core power into package power (what Fig 9c plots) and owns
the shared turbo budget. The modelled part approximates one socket of the
paper's Xeon Silver 4114 testbed: 10 physical cores plus an uncore (mesh,
LLC, memory controllers, IO) whose power is load-insensitive to first
order at these utilisations.

Accounting is delta-based: each :class:`~repro.uarch.core.Core` pushes a
fixed-point delta when (and only when) its own state or frequency changes,
so reading :attr:`Package.core_power` — which the turbo budget does on
every C-state transition — is O(1) regardless of core count, instead of
re-summing all cores per event. The fixed-point total (units of
``2**-80`` W) is exact, so it never drifts from the true sum no matter how
many transitions accumulate or in which order cores fire. The package also
integrates core energy piecewise between transitions, giving an O(1) live
socket-energy reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.uarch.core import INV_POWER_SCALE, Core
from repro.uarch.turbo import TurboBudget, TurboConfig


@dataclass(frozen=True)
class PackageConfig:
    """Package-level parameters.

    Attributes:
        cores: physical core count per socket (Xeon Silver 4114: 10).
        uncore_watts: socket uncore power (mesh + LLC + IMC + IO). The
            4114's package idle sits tens of watts above the sum of core
            idle powers; ~38 W reproduces the Fig 9c band.
        sockets: sockets contributing to the reported package power.
    """

    cores: int = 10
    uncore_watts: float = 38.0
    sockets: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("core count must be positive")
        if self.uncore_watts < 0:
            raise ConfigurationError("uncore power must be >= 0")
        if self.sockets <= 0:
            raise ConfigurationError("socket count must be positive")


class Package:
    """A socket: cores + uncore + turbo budget.

    Args:
        cores: the core models aggregated by this socket.
        config: package parameters.
        turbo: shared turbo budget (a default one is built if omitted).
    """

    def __init__(
        self,
        cores: Sequence[Core],
        config: PackageConfig = PackageConfig(),
        turbo: TurboBudget = None,
    ):
        if not cores:
            raise ConfigurationError("package needs at least one core")
        if len(cores) != config.cores:
            raise ConfigurationError(
                f"got {len(cores)} cores but config says {config.cores}"
            )
        self.cores: List[Core] = list(cores)
        self.config = config
        self.turbo = turbo if turbo is not None else TurboBudget(TurboConfig())
        self._core_power_int = 0
        # package_power runs per C-state transition; pin the config scalars.
        self._uncore = config.uncore_watts
        self._sockets = config.sockets
        for core in self.cores:
            # The core pushes fixed-point deltas straight into
            # _core_power_int (a bare attribute add — the whole per-event
            # cost of package accounting).
            core.attach_to_package(self)
            self._core_power_int += core.power_fixed_point

    # -- delta accounting --------------------------------------------------
    def energy_joules(self, time: float) -> float:
        """Core energy integrated up to ``time`` (piecewise-constant).

        Reads the cores' running energy accumulators without mutating
        them, so it can be called mid-run; the cores themselves integrate
        in O(1) per transition, making this an O(cores) *reporting* call
        with zero per-event cost. Covers the cores only (multiply the
        span by ``config.uncore_watts * config.sockets`` for the full
        socket).

        Raises:
            ConfigurationError: if ``time`` precedes a core's last
                accounting point.
        """
        total = 0.0
        for core in self.cores:
            span = time - core._energy_time
            if span < 0:
                raise ConfigurationError(
                    f"package energy query at t={time} precedes core "
                    f"{core.core_id}'s accounting point t={core._energy_time}"
                )
            total += core._energy_acc + core.current_power * span
        return total

    def telemetry_power(self, time: float) -> "tuple[float, float, float]":
        """``(package_power, core_power, core_energy_joules)`` at ``time``.

        The read-only bundle the telemetry sampler
        (:class:`repro.obs.timeline.TimelineSampler`) pulls on every
        probe tick: instantaneous powers from the O(1) fixed-point
        accumulator plus integrated core energy via
        :meth:`energy_joules`. Never closes core accounting (unlike
        :meth:`average_package_power`), so sampling mid-run cannot
        perturb the simulation's observables.
        """
        return (self.package_power, self.core_power, self.energy_joules(time))

    @property
    def core_power(self) -> float:
        """Instantaneous sum of core powers (O(1))."""
        return self._core_power_int * INV_POWER_SCALE

    @property
    def package_power(self) -> float:
        """Instantaneous socket power: cores + uncore."""
        return (
            self._core_power_int * INV_POWER_SCALE + self._uncore
        ) * self._sockets

    def average_package_power(self, time: float) -> float:
        """Average package power over each core's observed span.

        Uses core energy counters (closing them at ``time``), so call this
        once at the end of a run.
        """
        total_core = 0.0
        span = None
        for core in self.cores:
            stats = core.snapshot(time)
            total_core += stats.energy_joules
            span = stats.wall_seconds if span is None else span
        if not span or span <= 0:
            raise ConfigurationError("cannot average power over empty span")
        avg_cores = total_core / span
        return (avg_cores + self.config.uncore_watts) * self.config.sockets
