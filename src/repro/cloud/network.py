"""Network link models and the makespan arithmetic over them.

Transfer-speed experiments need only two ingredients: per-connection links
with bandwidth and latency, and the rule for combining per-cloud times
(CDStore's client uploads to all clouds concurrently via multi-threading,
§4.6, so wall-clock time is the *maximum* over per-cloud times, further
bounded by the client's shared physical uplink).  This is a *model*: the
testbed and bench helpers price byte counts with it; no real transfer in
``repro.client`` or ``repro.net`` is charged a simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["Link", "batch_count", "makespan", "pipeline_makespan"]

MB = 1_000_000.0


def makespan(durations: list[float], shared_floor: float = 0.0) -> float:
    """Wall-clock span of concurrent activities (§4.6).

    A multi-threaded client drives all cloud connections at once, so the
    elapsed time is the *maximum* over per-connection durations, bounded
    below by any shared resource (e.g. the client's physical uplink).
    """
    return max(durations + [shared_floor]) if durations else shared_floor


def pipeline_makespan(stage_times: list[list[float]]) -> float:
    """Makespan of a windowed pipeline: ``stage_times[s][w]`` is the time
    stage ``s`` spends on window ``w``.

    Classic permutation-flow-shop recurrence with unbounded buffers: a
    stage starts window ``w`` once it finished window ``w - 1`` *and* the
    previous stage finished window ``w``.  With one window this is the
    serial stage sum; as windows shrink it approaches ``max`` over stage
    totals — the overlap the comm engine's streaming transfer stage
    (``pipeline_depth > 1``) realises, where wire time hides behind
    encoding (§4.6).
    """
    if not stage_times:
        return 0.0
    widths = {len(stage) for stage in stage_times}
    if len(widths) > 1:
        raise ParameterError(
            f"stages disagree on window count: {sorted(widths)}"
        )
    finish = [0.0] * len(stage_times[0])
    for stage in stage_times:
        prev_in_stage = 0.0
        for w, cost in enumerate(stage):
            prev_in_stage = max(prev_in_stage, finish[w]) + cost
            finish[w] = prev_in_stage
    return finish[-1] if finish else 0.0


def batch_count(nbytes: float, unit: int = 4 << 20) -> int:
    """Number of 4 MB transfer units for ``nbytes`` (§4.1 batching).

    The single source of truth for batch-latency accounting: the testbed
    model and the bench helpers charge one link round trip per unit
    returned here.
    """
    return max(1, int(-(-nbytes // unit)))


@dataclass(frozen=True)
class Link:
    """A one-directional network path.

    Parameters
    ----------
    bandwidth_mbps:
        Sustained throughput in MB/s (decimal megabytes, as the paper's
        tables use).
    latency_s:
        Per-request round-trip setup cost charged once per batch (CDStore
        batches shares in 4 MB units precisely to amortise this, §4.1).
    """

    bandwidth_mbps: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ParameterError(
                f"bandwidth must be positive, got {self.bandwidth_mbps}"
            )
        if self.latency_s < 0:
            raise ParameterError(f"latency must be >= 0, got {self.latency_s}")

    def transfer_time(self, nbytes: int, batches: int = 1) -> float:
        """Seconds to move ``nbytes`` split into ``batches`` requests."""
        if nbytes < 0:
            raise ParameterError(f"negative byte count {nbytes}")
        return nbytes / (self.bandwidth_mbps * MB) + self.latency_s * max(batches, 1)
