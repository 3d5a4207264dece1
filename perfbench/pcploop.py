"""Closed-loop PCP fetch driver.

Each client keeps exactly one fetch in flight and sends the next one
only when the previous reply is in, the same blocking read PAPI's
``pcp`` component does. A slow fabric therefore receives less load;
there is no backlog to grow.

Every reply is checked as it arrives: the response must carry exactly
the requested pmids in request order (a cross-wired reply fails), every
pmid must have values, and the context's fetch timestamps must never
go backwards. A refused or errored fetch, or a reply that fails a
check, counts as failed. After a transport error the client redials
and continues; a failed redial ends that client and is recorded as
unrecovered.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from array import array
from typing import List, Sequence

from repro.errors import PCPError


@dataclasses.dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    cross_wired: int = 0
    non_monotone: int = 0
    unrecovered: int = 0
    elapsed_s: float = 0.0
    #: Completion time (seconds from the start of the loop) and round
    #: trip of every fetch that passed its checks. Flat arrays keep
    #: memory at 16 bytes a fetch, so a faster fabric barely moves the
    #: peak RSS metric.
    done_at: array = dataclasses.field(default_factory=lambda: array("d"))
    round_trip: array = dataclasses.field(
        default_factory=lambda: array("d"))
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


async def _client(index: int, session, pmids: Sequence[int],
                  started_at: float, stop_at: float,
                  result: LoopResult) -> None:
    wanted = list(pmids)
    last_timestamp = None
    while time.perf_counter() < stop_at:
        result.attempted += 1
        started = time.perf_counter()
        try:
            values = await session.fetch(wanted)
        except (PCPError, OSError) as exc:
            result.failed += 1
            result.errors.append(f"client {index}: {exc!r}")
            try:
                await session.close()
                await session.open()
            except (PCPError, OSError) as redial:
                result.unrecovered += 1
                result.errors.append(f"client {index} redial: {redial!r}")
                return
            continue
        done = time.perf_counter()
        timestamp = session.last_fetch_timestamp
        problem = None
        if list(values) != wanted or not all(values.values()):
            result.cross_wired += 1
            problem = f"cross-wired reply {sorted(values)}"
        elif last_timestamp is not None and timestamp < last_timestamp:
            result.non_monotone += 1
            problem = f"timestamp {timestamp} < {last_timestamp}"
        last_timestamp = timestamp
        if problem is not None:
            result.failed += 1
            result.errors.append(f"client {index}: {problem}")
            continue
        result.done_at.append(done - started_at)
        result.round_trip.append(done - started)


async def closed_loop(sessions: Sequence, pmids: Sequence[int],
                      duration_s: float) -> LoopResult:
    """Drive every (already open) async session in a closed loop for
    ``duration_s`` seconds and return the combined result."""
    result = LoopResult()
    started = time.perf_counter()
    stop_at = started + duration_s
    await asyncio.gather(*(_client(i, session, pmids, started, stop_at,
                                   result)
                           for i, session in enumerate(sessions)))
    result.elapsed_s = time.perf_counter() - started
    return result
