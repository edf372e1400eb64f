"""Post-query analysis: clustering and statistics.

Once the threshold query returns the intense locations, scientists
"cluster them in both 3d and 4d" with a friends-of-friends algorithm to
study the evolution of intense vortices (paper §3, Fig. 3).  This
package provides that clustering plus the summary statistics used to
pick thresholds (RMS values, value distributions).
"""

from repro.analysis.fof import Cluster, friends_of_friends, friends_of_friends_4d
from repro.analysis.stats import (
    norm_rms,
    threshold_for_fraction,
    threshold_at_rms_multiple,
)

__all__ = [
    "Cluster",
    "friends_of_friends",
    "friends_of_friends_4d",
    "norm_rms",
    "threshold_at_rms_multiple",
    "threshold_for_fraction",
]
