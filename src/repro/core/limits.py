"""The result-size limit on threshold queries.

"We impose a limit on the maximum number of locations that can be
returned as a result of a threshold query ... currently this limit is
set conservatively to 10^6 locations" (paper §4).  Queries whose
thresholds are set too low fail with :class:`ThresholdTooLowError`, and
the user is pointed at the PDF query to pick a better threshold.
"""

from __future__ import annotations

#: Maximum number of points a threshold query may return (paper §4).
MAX_RESULT_POINTS = 1_000_000

#: Most worker processes per node a query may ask to be charged for
#: (the paper uses 1-8); the slab split allocates per process.
MAX_PROCESSES = 64


class ThresholdTooLowError(Exception):
    """The query matched more points than the configured limit.

    Attributes:
        points_found: how many matching points were seen before the
            query was cut off (a lower bound on the true count).
        limit: the configured maximum.
    """

    def __init__(self, points_found: int, limit: int) -> None:
        super().__init__(
            f"threshold matched at least {points_found} points, above the "
            f"limit of {limit}; raise the threshold (the PDF query shows "
            "the value distribution) or request the field data directly"
        )
        self.points_found = points_found
        self.limit = limit
