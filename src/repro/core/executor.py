"""Executor: simulated load-generating clients (paper Figure 3).

The executor owns the client side of an experiment.  Each client replays
its share of the workload: it waits for the next arrival time, picks a
request uniformly at random from the request pool, sends it to the
platform, and records the outcome.  Client-side batching (Figure 17) and
the Figure 12c/12d micro-benchmark knobs (samples per request, inferences
per request) are applied here because they are client decisions, not
platform ones.

Outcomes are recorded columnar: every issued request is registered with
the recorder the caller passes in and committed into its columns the
moment it completes, so the per-request Python objects only live while
their request is in flight.  The recorder is required, and in the
package ``ServingBenchmark.run`` is the one place that chooses it: a
preallocated :class:`~repro.serving.outcome_table.OutcomeRecorder`
sized from the workload, or the streaming
:class:`~repro.serving.streaming.ChunkedOutcomeRecorder` for
trace-scale cells.  Both have the same write API (``register`` /
``commit``), so the executor drives either one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.faults import RetryPolicy
from repro.platforms.base import ServingPlatform
from repro.platforms.batching import BatchAccumulator
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.records import RequestOutcome
from repro.sim import Environment, RandomStreams
from repro.workload.generator import Workload
from repro.workload.requests import RequestPool

__all__ = ["Executor"]


@dataclass
class Executor:
    """Replays a workload against a serving platform."""

    env: Environment
    platform: ServingPlatform
    workload: Workload
    request_pool: RequestPool
    rng: RandomStreams
    #: Columnar outcome store: an ``OutcomeRecorder`` or, for streamed
    #: cells, a ``ChunkedOutcomeRecorder``.
    recorder: OutcomeRecorder
    _next_request_id: int = 0
    _last_completion: float = 0.0
    _commit = None  # bound recorder.commit, cached for the hot callback
    #: Client-side retry policy (None unless the config enables retries).
    _retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        # The request pick is a pre-bound draw over the pool's payloads
        # (scaled by the fixed samples-per-request knob once, here).
        samples = self.platform.config.samples_per_request
        self._payloads = [template.payload_mb * samples
                          for template in self.request_pool.templates]
        self._pick = self.rng.choice_draw("request-pick",
                                          len(self._payloads))

    # -- public ---------------------------------------------------------------
    def execute(self, until: Optional[float] = None) -> OutcomeRecorder:
        """Run the experiment until ``until`` and return the recorder.

        The caller reads the outcomes off the recorder: ``table()`` on
        an ``OutcomeRecorder``, ``finalize()`` on a streaming
        ``ChunkedOutcomeRecorder``.
        """
        self._commit = self.recorder.commit
        self._retry = RetryPolicy.from_config(self.platform.config)
        self.platform.outcome_sink = self._late_commit
        self.platform.start()
        for client_id, trace in enumerate(self.workload.client_traces):
            self.env.process(self._client(client_id, trace))
        self.env.run(until=until)
        return self.recorder

    @property
    def last_completion_time(self) -> float:
        """Completion time of the last finished request (0 if none)."""
        return self._last_completion

    # -- clients ---------------------------------------------------------------
    def _client(self, client_id: int, trace):
        config = self.platform.config
        batcher = BatchAccumulator(config.batch_size)
        last_index = len(trace) - 1
        previous = 0.0
        register = self.recorder.register
        single = config.batch_size == 1
        # One process per request, running the platform's request
        # generator — or, with retries on, the retry loop around it
        # (chosen once per client, not per request).
        request = (self.platform.request if self._retry is None
                   else self._resilient_request)
        process = self.env.process
        payloads = self._payloads
        pick = self._pick
        response_mb = self.platform.model.output_payload_mb
        completed = self._completed
        for index, arrival in enumerate(trace):
            gap = arrival - previous
            previous = arrival
            if gap > 0:
                yield gap
            outcome = self._new_outcome(client_id)
            register(outcome)
            if single:
                process(request(outcome, payloads[pick()],
                                response_mb)).callbacks.append(completed)
            else:
                batch = batcher.add(outcome)
                if batch is None and index == last_index:
                    batch = batcher.flush()
                if batch:
                    process(self._send_batch(client_id, batch, request))

    def _new_outcome(self, client_id: int) -> RequestOutcome:
        config = self.platform.config
        outcome = RequestOutcome(
            request_id=self._next_request_id,
            client_id=client_id,
            send_time=self.env.now,
            inferences=config.inferences_per_request,
        )
        self._next_request_id += 1
        return outcome

    def _completed(self, process) -> None:
        """Completion callback of a request process: record its outcome.

        A callback on the request's own process, not a wrapper process:
        a wrapper per request used to add three calendar entries per
        request to the hot path.
        """
        self._note_completion(process.value)

    def _resilient_request(self, outcome: RequestOutcome, payload_mb: float,
                           response_mb: float):
        """Retry loop: capped exponential backoff under a timeout budget.

        Each attempt is a full platform request (the conservation
        ledger counts every attempt).  After a failed attempt the next
        try is delayed by the policy's jittered backoff; retrying stops
        when the attempts are exhausted or when the next backoff would
        overrun the per-request timeout budget.  The budget is enforced
        *between* attempts — an attempt already in flight runs to its
        platform-side deadline (which ``request_timeout_s`` tightens).
        """
        policy = self._retry
        budget = self.platform.config.request_timeout_s
        deadline = (outcome.send_time + budget
                    if budget is not None else None)
        attempt = 1
        while True:
            yield from self.platform.request(outcome, payload_mb, response_mb)
            if outcome.success or attempt >= policy.attempts:
                break
            delay = policy.backoff(self.rng, attempt)
            if deadline is not None and self.env.now + delay > deadline:
                break
            yield delay
            outcome.reopen()
            attempt += 1
        outcome.attempts = attempt
        return outcome

    def _send_batch(self, client_id: int, batch: List[RequestOutcome],
                    request):
        """Send one invocation carrying a whole client-side batch.

        ``request`` is the client's request callable, so a batch goes
        through the retry loop whenever retries are on; each member
        takes the carrier's attempts.
        """
        config = self.platform.config
        carrier = RequestOutcome(
            request_id=self._next_request_id,
            client_id=client_id,
            send_time=self.env.now,
            inferences=len(batch) * config.inferences_per_request,
        )
        self._next_request_id += 1
        payload = self._payloads[self._pick()] * len(batch)
        response = self.platform.model.output_payload_mb * len(batch)
        yield from request(carrier, payload, response)
        for member in batch:
            member.cold_start = carrier.cold_start
            member.instance_id = carrier.instance_id
            member.attempts = carrier.attempts
            member.breakdown = dict(carrier.breakdown)
            member.finish(carrier.completion_time
                          if carrier.completion_time is not None
                          else self.env.now,
                          carrier.success, carrier.error)
            self._note_completion(member)

    def _note_completion(self, outcome: RequestOutcome) -> None:
        completion = outcome.completion_time
        if completion is not None:
            self._commit(outcome)
            if completion > self._last_completion:
                self._last_completion = completion

    def _late_commit(self, outcome: RequestOutcome) -> None:
        """Re-record an outcome the platform mutated after completion.

        Batch carriers are not registered rows (``row == -1``); their
        members are finished from the carrier's state instead.
        """
        if outcome.row >= 0:
            self._commit(outcome)
