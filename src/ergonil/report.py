"""Report containers shared by the averaging and seminorm modules."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SupPoint:
    """Certified grid maximum of a frequency sweep at one scale N."""

    sup_value: float
    t_star: float
    grid_size: int
    grid_spacing: float
    error_bound: float  # grid max >= true sup - error_bound


@dataclass(frozen=True)
class SeminormEstimate:
    family: str  # "local_sequence" or "ghk_function"
    k: int
    H: int
    N: int
    value: float
    clamped: bool
    pre_root_average: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("seminorm estimates are nonnegative by construction")


@dataclass(frozen=True)
class ConvergenceReport:
    """Averages A_N along an increasing schedule with consecutive deltas.

    `dyadic_deltas[i] = |values[i+1] - values[i]|`; for a dyadic schedule this
    is |A_{2N} - A_N|. Optional parallel columns carry sup sweeps (per-N
    certified maxima) and seminorm estimates (per-N value, box size H and
    clamp flag). `error_budget` is an additive uncertainty inherited from
    table-backed weights.
    """

    schedule: tuple[int, ...]
    values: tuple[complex, ...]
    dyadic_deltas: tuple[float, ...] = field(default=())
    sup_data: tuple[SupPoint, ...] | None = None
    seminorm_data: tuple[SeminormEstimate, ...] | None = None
    error_budget: float = 0.0

    def value_at(self, n: int) -> complex:
        return self.values[self.schedule.index(n)]

    def delta_at(self, n: int) -> float:
        """Delta between A at `n` and A at the next scheduled scale."""
        return self.dyadic_deltas[self.schedule.index(n)]


def check_schedule(schedule) -> tuple[int, ...]:
    """The schedule as ints; it must be nonempty, integral, positive and strictly increasing."""
    given = tuple(schedule)
    schedule = tuple(int(n) for n in given)
    if (not schedule or schedule != given or schedule[0] < 1
            or any(y <= x for x, y in zip(schedule, schedule[1:]))):
        raise ValueError("schedule must hold positive integers in strictly increasing order")
    return schedule


def make_report(schedule, values, **kwargs) -> ConvergenceReport:
    values = tuple(complex(v) for v in values)
    deltas = tuple(abs(values[i + 1] - values[i]) for i in range(len(values) - 1))
    return ConvergenceReport(tuple(int(n) for n in schedule), values, deltas, **kwargs)
