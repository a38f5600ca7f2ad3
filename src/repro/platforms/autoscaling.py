"""The shared autoscaler loop for server-based platforms.

Managed ML services (SageMaker, AI Platform) and EC2/GCE autoscaling
groups both follow the same pattern the paper describes: a periodic
evaluation of current demand against a per-instance target, followed by a
scale-out that only becomes effective minutes later (Section 4.2 and 4.3
observe 3–5 minutes on AWS).  The decision itself lives in a
:class:`~repro.platforms.policies.TargetUtilisationPolicy`; this module
is only the *driver* that samples demand on a period and executes the
policy's launch decision.  The policy is deliberately simple — the point
the paper makes is that *any* policy with a minutes-long actuation delay
cannot follow bursty inference workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.platforms.policies import TargetUtilisationPolicy
from repro.sim import Environment

__all__ = ["TargetTrackingScaler"]


@dataclass
class TargetTrackingScaler:
    """Periodic driver of a target-utilisation scaling policy.

    Every ``evaluation_period_s`` the scaler reads the current demand
    (in-flight plus queued requests), asks the policy how many launches
    that demand calls for, and hands the count to the platform.  When
    the policy enables scale-in (``scale_in_cooldown_s``) and the
    platform supplies the ``retire`` / ``idle`` hooks, an evaluation
    with nothing to launch may instead retire surplus idle instances —
    the policy's ``plan_retires`` decides, gated on the cooldown since
    the last scaling action in either direction.

    Construct it either with an explicit ``policy`` or with the scalar
    fields (``target_per_instance`` / ``min_instances`` /
    ``max_instances`` / ``max_scale_step``), from which a policy is
    built.
    """

    env: Environment
    evaluation_period_s: float
    #: Returns the current demand (in-flight + queued requests).
    demand: Callable[[], float]
    #: Returns the number of instances currently ready or being launched.
    provisioned_total: Callable[[], int]
    #: Launches ``n`` additional instances (platform handles the delay).
    launch: Callable[[int], None]
    #: Retires ``n`` idle instances (optional; enables scale-in).
    retire: Optional[Callable[[int], None]] = None
    #: Returns the number of idle instances (required for scale-in).
    idle: Optional[Callable[[], int]] = None
    #: The decision rule; built from the scalar fields when omitted.
    policy: Optional[TargetUtilisationPolicy] = None
    target_per_instance: Optional[float] = None
    min_instances: Optional[int] = None
    max_instances: Optional[int] = None
    #: Maximum number of instances added per evaluation.
    max_scale_step: int = 1_000_000

    def __post_init__(self) -> None:
        if self.evaluation_period_s <= 0:
            raise ValueError("evaluation_period_s must be positive")
        if self.policy is None:
            self.policy = TargetUtilisationPolicy(
                target_per_instance=self.target_per_instance or 0.0,
                min_instances=(1 if self.min_instances is None
                               else self.min_instances),
                max_instances=(1 if self.max_instances is None
                               else self.max_instances),
                max_scale_step=self.max_scale_step,
            )
        elif (self.target_per_instance is not None
              or self.min_instances is not None
              or self.max_instances is not None
              or self.max_scale_step != 1_000_000):
            # The scalar fields only parameterise a policy the scaler
            # builds itself; with an explicit policy they would be
            # silently ignored (e.g. a max_scale_step cap that never
            # applies), so reject the mix outright.
            raise ValueError("pass either an explicit policy or the "
                             "scalar fields, not both")
        self._last_scale_time = self.env.now

    def desired_instances(self) -> int:
        """Number of instances the current demand calls for."""
        return self.policy.desired_instances(self.demand())

    def evaluate_once(self) -> int:
        """Run one evaluation; returns the fleet delta it requested.

        Positive = launches, negative = retirements, 0 = no action.
        """
        demand = self.demand()
        missing = self.policy.launches(demand, self.provisioned_total())
        if missing > 0:
            self.launch(missing)
            self._last_scale_time = self.env.now
            return missing
        if self.retire is not None and self.idle is not None:
            surplus = self.policy.plan_retires(
                demand, self.provisioned_total(), self.idle(),
                self.env.now - self._last_scale_time)
            if surplus > 0:
                self.retire(surplus)
                self._last_scale_time = self.env.now
                return -surplus
        return 0

    def run(self):
        """The scaler's periodic process (register with ``env.process``)."""
        while True:
            yield self.evaluation_period_s
            self.evaluate_once()
