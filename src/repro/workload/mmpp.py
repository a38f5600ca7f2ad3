"""Markov-Modulated Poisson Process (MMPP) arrival generation.

The paper (Section 3, "Load generator") uses a two-state MMPP — the model
recommended by Fischer & Meier-Hellstern's MMPP cookbook and also used by
MArk and BATCH — to produce bursty, unpredictable request arrivals.  In a
two-state MMPP the arrival rate alternates between a low and a high
Poisson rate, with exponentially distributed sojourn times in each state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.workload.traces import ArrivalTrace

__all__ = ["MMPPState", "MMPP"]


@dataclass(frozen=True)
class MMPPState:
    """One state of the modulating Markov chain."""

    name: str
    rate: float
    mean_dwell_s: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("state rate must be non-negative")
        if self.mean_dwell_s <= 0:
            raise ValueError("mean dwell time must be positive")


class MMPP:
    """A two-or-more-state Markov-modulated Poisson process."""

    def __init__(self, states: Sequence[MMPPState]):
        if len(states) < 2:
            raise ValueError("an MMPP needs at least two states")
        self.states = list(states)

    # -- state timeline -----------------------------------------------------
    def sample_state_timeline(self, duration: float,
                              rng: np.random.Generator,
                              initial_state: int = 0,
                              ) -> List[Tuple[float, float, MMPPState]]:
        """Alternating state intervals covering ``[0, duration)``.

        Returns a list of ``(start, end, state)`` tuples.  States cycle in
        order (low → high → low → ...), which for a two-state chain is the
        exact embedded chain; dwell times are exponential.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        timeline: List[Tuple[float, float, MMPPState]] = []
        time = 0.0
        index = initial_state % len(self.states)
        while time < duration:
            state = self.states[index]
            dwell = rng.exponential(state.mean_dwell_s)
            end = min(time + dwell, duration)
            timeline.append((time, end, state))
            time = end
            index = (index + 1) % len(self.states)
        return timeline

    # -- arrivals -----------------------------------------------------------
    def sample_arrivals_conditioned(self, duration: float,
                                    rng: np.random.Generator,
                                    total: int,
                                    timeline: List[Tuple[float, float, MMPPState]] | None = None,
                                    name: str = "mmpp") -> ArrivalTrace:
        """An arrival trace over ``[0, duration)`` with exactly ``total`` arrivals.

        A Poisson process conditioned on its total count places arrivals
        independently with density proportional to the intensity: a
        multinomial split of ``total`` across the state intervals
        (weighted by ``rate x length``) followed by uniform placement
        within each interval.  This keeps the MMPP burst structure while
        removing the Poisson noise on the total count, which is what the
        workload generator needs to hit a target request count exactly.
        """
        if total < 0:
            raise ValueError("total must be non-negative")
        if timeline is None:
            timeline = self.sample_state_timeline(duration, rng)
        weights = np.array([(end - start) * state.rate
                            for start, end, state in timeline], dtype=float)
        mass = weights.sum()
        if mass <= 0:
            if total:
                raise ValueError(
                    "cannot place arrivals on a zero-intensity timeline")
            return ArrivalTrace(np.array([]), name=name)
        counts = rng.multinomial(int(total), weights / mass)
        pieces = [rng.uniform(start, end, size=n)
                  for (start, end, _state), n in zip(timeline, counts) if n]
        times = np.sort(np.concatenate(pieces)) if pieces else np.array([])
        return ArrivalTrace(times, name=name)

    @staticmethod
    def two_state(low_rate: float, high_rate: float,
                  mean_low_dwell_s: float, mean_high_dwell_s: float) -> "MMPP":
        """Convenience constructor for the common two-state MMPP."""
        return MMPP([
            MMPPState("low", low_rate, mean_low_dwell_s),
            MMPPState("high", high_rate, mean_high_dwell_s),
        ])
