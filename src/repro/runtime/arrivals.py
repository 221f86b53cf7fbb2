"""Seeded, tick-deterministic arrival processes (open-system serving).

Every workload elsewhere in the reproduction is *closed-batch*: N tasks
are seeded up front and the pool drains to termination.  This module is
the open-system frontend: an :class:`ArrivalProcess` is a pure function
``(parameters, seed) -> sorted tuple of integer arrival ticks`` that the
serving layer (:mod:`repro.runtime.serving`) replays into a running
pool.  Determinism is absolute — the trace is materialized once from a
private :class:`random.Random`, so a fixed spec + seed produces
bit-identical arrival ticks on every run, on every backend, and across
serial / process-pool sweep execution.  That property is what lets the
conformance suite demand identical completed-task checksums on
fabric ≡ mp for the *same* arrival trace.

Four processes are provided:

* **fixed** — evenly spaced arrivals at exactly ``rate`` per second
  (integer tick spacing, so inter-arrival gaps are exactly equal);
* **poisson** — exponential inter-arrival gaps at constant intensity;
* **bursty** — a 2-state Markov-modulated Poisson process (MMPP):
  the intensity switches between ``rate_low`` and ``rate_high`` with
  exponentially distributed dwell times;
* **diurnal** — an inhomogeneous Poisson process whose intensity ramps
  sinusoidally between ``base`` and ``peak`` over ``period`` seconds
  (a compressed day), generated by thinning.

Each process carries its own **ledger** (``emitted`` — the number of
arrivals in the trace) and a declared **intensity envelope**
(:meth:`ArrivalProcess.rate_bounds` and :meth:`ArrivalProcess.intensity`)
against which the property suite checks that the programmed rate never
leaves the declared bounds.

The module also hosts the order-independent ``serving_checksum`` every
backend uses to fingerprint its completed task set.
"""

from __future__ import annotations

import math
import random

from ..fabric.engine import TICKS_PER_SECOND
from .stats import mix64


def serving_checksum(seqs) -> int:
    """xor of :func:`mix64` over arrival sequence numbers.

    Order-independent and duplicate-sensitive: executing every injected
    task exactly once — in any interleaving, on any backend — yields the
    same value; a lost or doubled task changes it.
    """
    chk = 0
    for s in seqs:
        chk ^= mix64(s)
    return chk


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------

class ArrivalProcess:
    """Base class: a materialized, immutable arrival-tick trace.

    Subclasses implement :meth:`_generate` returning an iterable of
    float arrival times in seconds; the base class converts to integer
    femtosecond ticks, sorts, clips to ``[0, duration)`` and caches.
    """

    #: Spec keyword (``fixed``/``poisson``/``bursty``/``diurnal``).
    kind = "base"

    def __init__(self, duration_s: float, seed: int = 0) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        self.duration_s = duration_s
        self.duration_ticks = round(duration_s * TICKS_PER_SECOND)
        self.seed = seed
        self._trace: tuple[int, ...] | None = None

    # -- the deterministic trace ---------------------------------------
    def trace(self) -> tuple[int, ...]:
        """Sorted integer arrival ticks in ``[0, duration)`` (cached)."""
        if self._trace is None:
            ticks = sorted(
                round(t * TICKS_PER_SECOND) for t in self._generate()
            )
            self._trace = tuple(
                t for t in ticks if 0 <= t < self.duration_ticks
            )
        return self._trace

    @property
    def emitted(self) -> int:
        """The process's own ledger: arrivals this trace will emit."""
        return len(self.trace())

    def _generate(self):
        raise NotImplementedError

    # -- the declared intensity envelope -------------------------------
    def rate_bounds(self) -> tuple[float, float]:
        """Declared ``(low, high)`` bounds on the intensity function."""
        raise NotImplementedError

    def intensity(self, t: float) -> float:
        """Programmed intensity λ(t) in arrivals/second at time ``t``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (CLI banners, reports)."""
        lo, hi = self.rate_bounds()
        return (
            f"{self.kind} arrivals, rate in [{lo:g}, {hi:g}]/s over "
            f"{self.duration_s:g}s (seed {self.seed}): {self.emitted} tasks"
        )


class FixedRateArrivals(ArrivalProcess):
    """Evenly spaced arrivals: exact integer-tick spacing."""

    kind = "fixed"

    def __init__(self, rate: float, duration_s: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(duration_s, seed)
        self.rate = rate
        self.spacing_ticks = max(1, round(TICKS_PER_SECOND / rate))

    def trace(self) -> tuple[int, ...]:
        if self._trace is None:
            self._trace = tuple(
                range(0, self.duration_ticks, self.spacing_ticks)
            )
        return self._trace

    def _generate(self):  # pragma: no cover - trace() is overridden
        return ()

    def rate_bounds(self) -> tuple[float, float]:
        eff = TICKS_PER_SECOND / self.spacing_ticks
        return (eff, eff)

    def intensity(self, t: float) -> float:
        return TICKS_PER_SECOND / self.spacing_ticks


class PoissonArrivals(ArrivalProcess):
    """Constant-intensity Poisson process (exponential gaps)."""

    kind = "poisson"

    def __init__(self, rate: float, duration_s: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(duration_s, seed)
        self.rate = rate

    def _generate(self):
        rng = random.Random((self.seed << 8) ^ 0x9015504)
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= self.duration_s:
                return
            yield t

    def rate_bounds(self) -> tuple[float, float]:
        return (self.rate, self.rate)

    def intensity(self, t: float) -> float:
        return self.rate


class BurstyArrivals(ArrivalProcess):
    """2-state MMPP: intensity alternates between low and high bursts.

    Dwell times in each state are exponential with means ``dwell_low`` /
    ``dwell_high`` seconds; within a state, arrivals are Poisson at that
    state's rate.  The process starts in the low state.
    """

    kind = "bursty"

    def __init__(
        self,
        rate_low: float,
        rate_high: float,
        duration_s: float,
        seed: int = 0,
        dwell_low: float | None = None,
        dwell_high: float | None = None,
    ) -> None:
        if rate_low <= 0 or rate_high <= 0:
            raise ValueError("rates must be positive")
        if rate_high < rate_low:
            raise ValueError(
                f"rate_high ({rate_high}) must be >= rate_low ({rate_low})"
            )
        super().__init__(duration_s, seed)
        self.rate_low = rate_low
        self.rate_high = rate_high
        self.dwell_low = dwell_low if dwell_low is not None else duration_s / 8
        self.dwell_high = (
            dwell_high if dwell_high is not None else duration_s / 16
        )
        if self.dwell_low <= 0 or self.dwell_high <= 0:
            raise ValueError("dwell times must be positive")
        self._phases: list[tuple[float, float, float]] | None = None

    def _build_phases(self) -> list[tuple[float, float, float]]:
        """``(start, end, rate)`` segments covering ``[0, duration)``."""
        if self._phases is None:
            rng = random.Random((self.seed << 8) ^ 0xB0251)
            phases = []
            t = 0.0
            high = False
            while t < self.duration_s:
                dwell = rng.expovariate(
                    1.0 / (self.dwell_high if high else self.dwell_low)
                )
                end = min(self.duration_s, t + dwell)
                phases.append(
                    (t, end, self.rate_high if high else self.rate_low)
                )
                t = end
                high = not high
            self._phases = phases
        return self._phases

    def _generate(self):
        rng = random.Random((self.seed << 8) ^ 0xB0252)
        for start, end, rate in self._build_phases():
            t = start
            while True:
                t += rng.expovariate(rate)
                if t >= end:
                    break
                yield t

    def rate_bounds(self) -> tuple[float, float]:
        return (self.rate_low, self.rate_high)

    def intensity(self, t: float) -> float:
        for start, end, rate in self._build_phases():
            if start <= t < end:
                return rate
        return self.rate_low

    def phases(self) -> list[tuple[float, float, float]]:
        """The materialized ``(start, end, rate)`` burst schedule."""
        return list(self._build_phases())


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal intensity ramp between ``base`` and ``peak`` (thinning).

    λ(t) = base + (peak - base) * (1 - cos(2π t / period)) / 2 — the
    trough sits at t = 0 and the peak at t = period / 2, a compressed
    day.  Candidates are drawn at the peak rate and accepted with
    probability λ(t)/peak (Lewis-Shedler thinning), which keeps the
    realized process exactly inhomogeneous-Poisson with intensity λ.
    """

    kind = "diurnal"

    def __init__(
        self,
        base: float,
        peak: float,
        duration_s: float,
        seed: int = 0,
        period: float | None = None,
    ) -> None:
        if base <= 0 or peak <= 0:
            raise ValueError("rates must be positive")
        if peak < base:
            raise ValueError(f"peak ({peak}) must be >= base ({base})")
        super().__init__(duration_s, seed)
        self.base = base
        self.peak = peak
        self.period = period if period is not None else duration_s
        if self.period <= 0:
            raise ValueError("period must be positive")

    def intensity(self, t: float) -> float:
        phase = (1.0 - math.cos(2.0 * math.pi * t / self.period)) / 2.0
        return self.base + (self.peak - self.base) * phase

    def _generate(self):
        rng = random.Random((self.seed << 8) ^ 0xD1024A1)
        t = 0.0
        while True:
            t += rng.expovariate(self.peak)
            if t >= self.duration_s:
                return
            if rng.random() * self.peak < self.intensity(t):
                yield t

    def rate_bounds(self) -> tuple[float, float]:
        return (self.base, self.peak)


#: Spec keyword -> builder of positional rate arguments.
ARRIVAL_KINDS = ("fixed", "poisson", "bursty", "diurnal")


def parse_arrival_spec(
    spec: str, duration_s: float, seed: int = 0
) -> ArrivalProcess:
    """Build a process from a CLI spec string.

    Grammar::

        poisson:RATE
        fixed:RATE
        bursty:LOW,HIGH[,DWELL_LOW,DWELL_HIGH]
        diurnal:BASE,PEAK[,PERIOD]
    """
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(
            f"arrival spec {spec!r} needs a rate, e.g. 'poisson:50000'"
        )
    try:
        args = [float(a) for a in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad arrival spec {spec!r}: {exc}") from None
    if kind == "poisson" and len(args) == 1:
        return PoissonArrivals(args[0], duration_s, seed)
    if kind == "fixed" and len(args) == 1:
        return FixedRateArrivals(args[0], duration_s, seed)
    if kind == "bursty" and len(args) in (2, 4):
        dwells = args[2:] if len(args) == 4 else (None, None)
        return BurstyArrivals(
            args[0], args[1], duration_s, seed,
            dwell_low=dwells[0], dwell_high=dwells[1],
        )
    if kind == "diurnal" and len(args) in (2, 3):
        return DiurnalArrivals(
            args[0], args[1], duration_s, seed,
            period=args[2] if len(args) == 3 else None,
        )
    raise ValueError(
        f"bad arrival spec {spec!r}: want KIND:RATE(,...) with KIND in "
        f"{ARRIVAL_KINDS}"
    )
