"""Timings in reference seconds, so that runs on a shared host agree.

The benchmark's host shares its cores with other machines' work. On a
2-vCPU Xeon VM the same Python loop, timed in 20 ms chunks, ran at two
speeds about 40% apart, switching every few seconds, and a stretch at one
speed can cover a whole run. Medians within a run remove short stretches,
not long ones: over two sets of ten runs, the middle half of the
adhoc-churn wall times spread by a quarter of their median.

So the benchmark also times a fixed reference slice (pure Python: build,
sort and group 600 small tuples, then format and split a string; about
0.5 ms) right after each timed operation, and scales every timed interval
by ``REFERENCE_SLICE_S`` over the median duration of the slices around it.
A slowdown of the host stretches the interval and its slices alike and
cancels; a slowdown of the program stretches only the interval and shows.
A reference second is about a wall-clock second on that VM with its core
to itself. The slices run with the garbage collector paused, so a
collection the program's garbage triggers is charged to the program.
"""

import gc
import statistics
import time

#: The slice's duration on the reference host: the scale of a reference
#: second. Fixed, so that numbers from different runs compare.
REFERENCE_SLICE_S = 0.0005
#: an interval is scaled by the median of this many slices on either side
#: of the one after it (with that one)
NEIGHBOURS = 4


def _reference_slice():
    rows = [(i * 7919 % 101, "k%d" % (i % 37), i) for i in range(600)]
    rows.sort()
    groups = {}
    for first, key, last in rows:
        groups.setdefault(key, []).append(first + last)
    text = ",".join("%s:%d" % (key, sum(values))
                    for key, values in groups.items())
    return len(text.split(","))


class SpeedMeter:
    """Reference slices run between timed operations, and the intervals
    they scale."""

    def __init__(self):
        self.slices = []     # (start, end) of each slice, perf_counter
        self.intervals = []  # (host seconds, index of the slice after it)

    def sample(self):
        """Run one reference slice; return its index."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_slice()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.slices.append((start, end))
        return len(self.slices) - 1

    def mark(self, seconds):
        """Record an interval of ``seconds`` that just ended and run the
        slice after it; returns the interval's index."""
        self.intervals.append((seconds, self.sample()))
        return len(self.intervals) - 1

    def scale(self, index):
        """Reference seconds per host second around slice ``index``."""
        window = self.slices[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1]
        return REFERENCE_SLICE_S / statistics.median(
            end - start for start, end in window)

    def reference_s(self, interval):
        seconds, index = self.intervals[interval]
        return seconds * self.scale(index)

    def host_s(self, interval):
        return self.intervals[interval][0]

    def settle(self, count=2 * NEIGHBOURS):
        """Run ``count`` more slices, so that the last intervals have a
        full window after them."""
        for _ in range(count):
            self.sample()

    def span(self, start, end):
        """(reference, host) seconds of [start, end] without the slices in
        it. Each stretch before a slice is scaled around that slice; call
        after a ``sample()`` taken at or after ``end``."""
        reference = host = 0.0
        previous = start
        for index, (slice_start, slice_end) in enumerate(self.slices):
            if slice_start < start:
                continue
            stop = min(slice_start, end)
            reference += (stop - previous) * self.scale(index)
            host += stop - previous
            if slice_start >= end:
                break
            previous = slice_end
        else:
            raise ValueError("no slice at or after the end of the span")
        return reference, host
