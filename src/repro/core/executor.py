"""Executor: simulated load-generating clients (paper Figure 3).

The executor owns the client side of an experiment.  Each client replays
its share of the workload: it waits for the next arrival time, picks a
request uniformly at random from the request pool, sends it to the
platform, and records the outcome.  Client-side batching (Figure 17) and
the Figure 12c/12d micro-benchmark knobs (samples per request, inferences
per request) are applied here because they are client decisions, not
platform ones: with a batch size of ``B`` a client holds its requests
back until ``B`` have arrived (or its trace ends) and sends them as one
invocation of ``B`` inferences, which cuts invocations and cold starts
(hence cost) while every member waits for the whole batch.

Outcomes are recorded in place: each issued request is registered with
the recorder, and its row index is all that travels down the request
path.  The platform binds the recorder's column block once per run and
writes the request's outcome straight into its row; the outermost layer
(the platform, or the retry loop or batch sender here) calls
``commit(row)`` once the request finished at its client.  The recorder
is required; ``ServingBenchmark.run`` chooses it (a preallocated
:class:`~repro.serving.outcome_table.OutcomeRecorder` or the streaming
:class:`~repro.serving.streaming.ChunkedOutcomeRecorder`, which share
one write API).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.faults import RetryPolicy
from repro.platforms.base import ServingPlatform
from repro.serving.outcome_table import OutcomeRecorder
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
        config = self.platform.config
        self._retry = RetryPolicy.from_config(config)
        # The platform commits each request itself unless the retry loop
        # or the batch sender finishes it.
        direct = self._retry is None and config.batch_size == 1
        self.platform.bind(self.recorder.columns,
                           self.recorder.commit if direct else None)
        self.platform.start()
        for client_id, trace in enumerate(self.workload.client_traces):
            self.env.process(self._client(client_id, trace))
        self.env.run(until=until)
        return self.recorder

    # -- clients ---------------------------------------------------------------
    def _client(self, client_id: int, trace):
        config = self.platform.config
        batch_size = config.batch_size
        batch: List[int] = []   # rows waiting for the batch to fill
        last_index = len(trace) - 1
        previous = 0.0
        register = self.recorder.register
        inferences = config.inferences_per_request
        single = batch_size == 1
        # One process per request, running the platform's request
        # generator — or, with retries on, the retry loop around it
        # (chosen once per client, not per request).
        request = (self.platform.request if self._retry is None
                   else self._resilient_request)
        process = self.env.process
        env = self.env
        payloads = self._payloads
        pick = self._pick
        response_mb = self.platform.model.output_payload_mb
        for index, arrival in enumerate(trace):
            gap = arrival - previous
            previous = arrival
            if gap > 0:
                yield gap
            row = register(self._next_request_id, client_id, env.now,
                           inferences)
            self._next_request_id += 1
            if single:
                process(request(row, payloads[pick()], response_mb))
            else:
                batch.append(row)
                if len(batch) == batch_size or index == last_index:
                    process(self._send_batch(batch))
                    batch = []

    def _resilient_request(self, row: int, payload_mb: float,
                           response_mb: float, commit: bool = True):
        """Retry loop: capped exponential backoff under a timeout budget.

        Each attempt is a full platform request (the conservation
        ledger counts every attempt) on the same row: the row's
        end-to-end latency spans every attempt plus the backoff in
        between, per-attempt stages are overwritten by the next attempt
        and accumulate-style stages (network) sum across attempts.
        After a failed attempt the next try is delayed by the policy's
        jittered backoff; retrying stops when the attempts are exhausted
        or when the next backoff would overrun the per-request timeout
        budget.  The budget is enforced *between* attempts — an attempt
        already in flight runs to its platform-side deadline (which
        ``request_timeout_s`` tightens).  Commits the row at the end
        unless the caller (the batch sender) does.
        """
        env = self.env
        policy = self._retry
        rows = self.recorder.columns
        budget = self.platform.config.request_timeout_s
        deadline = env.now + budget if budget is not None else None
        attempt = 1
        while True:
            yield from self.platform.request(row, payload_mb, response_mb)
            if rows.success[row] or attempt >= policy.attempts:
                break
            delay = policy.backoff(self.rng, attempt)
            if deadline is not None and env.now + delay > deadline:
                break
            # Reopen the row for the next attempt: during the backoff
            # the request is in flight again.
            rows.completion_time[row] = float("nan")
            rows.errors.pop(row, None)
            yield delay
            attempt += 1
        if attempt != 1:
            rows.attempts[row] = attempt
        if commit:
            self.recorder.commit(row)

    def _send_batch(self, batch: List[int]):
        """Send one invocation carrying a whole client-side batch.

        The first member's row carries the invocation (with the batch's
        inference count while it is served); every serve-side column of
        that row then fans out to the other members, and each member is
        committed.  A batch goes through the retry loop whenever retries
        are on, so each member takes the carrier's attempts.
        """
        rows = self.recorder.columns
        carrier = batch[0]
        per_request = self.platform.config.inferences_per_request
        rows.inferences[carrier] = len(batch) * per_request
        # The invocation takes a request id of its own.
        self._next_request_id += 1
        payload = self._payloads[self._pick()] * len(batch)
        response = self.platform.model.output_payload_mb * len(batch)
        if self._retry is None:
            yield from self.platform.request(carrier, payload, response)
        else:
            yield from self._resilient_request(carrier, payload, response,
                                               commit=False)
        rows.inferences[carrier] = per_request
        rows.fan_out(carrier, batch[1:])
        commit = self.recorder.commit
        for member in batch:
            commit(member)
