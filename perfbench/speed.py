"""Speed probe used to normalise times against the host's CPU speed drift.

The host's CPU speed drifts by a third or more over tens of seconds,
far more than a regression bound can absorb. A run therefore times a
fixed pure-Python loop next to each measured item and scales the item's
times by REF_NOMINAL_S over the probe's recent median: a normalised
value is the time on a machine where the probe takes REF_NOMINAL_S. The
probe is benchmark code, so a change to the program moves normalised
values exactly as it moves raw ones. This module imports nothing beyond
`time`, so that a cold-import measurement can use it first.
"""

import time

REF_NOMINAL_S = 0.0015


def speed_probe() -> float:
    """Seconds taken by a fixed loop of dict, tuple and float work."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(4000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += len(key) * 0.25
    return time.perf_counter() - t0


class Speed:
    """Scale factor from the rolling median of recent probe times."""

    def __init__(self, window: int = 5):
        self.window = window
        self.recent: list = []
        self.scales: list = []

    def scale(self, probes: int = 1) -> float:
        """Probe `probes` times; REF_NOMINAL_S over the rolling median."""
        for _ in range(probes):
            self.recent = (self.recent + [speed_probe()])[-self.window:]
        scale = REF_NOMINAL_S / sorted(self.recent)[len(self.recent) // 2]
        self.scales.append(scale)
        return scale
