"""Byte-size units and formatting helpers."""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def format_bytes(num_bytes):
    """Render a byte count the way the paper's Table 1 does (B/KB/MB/GB).

    >>> format_bytes(27)
    '27 B'
    >>> format_bytes(int(1.6 * GB))
    '1.6 GB'
    """
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    if num_bytes < KB:
        return f"{num_bytes} B"
    for unit, size in (("GB", GB), ("MB", MB), ("KB", KB)):
        if num_bytes >= size:
            return f"{num_bytes / size:.1f} {unit}"
    raise AssertionError("unreachable")


def format_minutes(seconds):
    """Render simulated seconds as minutes with one decimal (paper's axis)."""
    return f"{seconds / 60.0:.1f} min"


def format_ratio(numerator, denominator, spec=".1f"):
    """Render ``numerator / denominator`` as a speedup, or ``n/a`` when
    the denominator is zero (a run that took no simulated time has no
    meaningful speedup).

    >>> format_ratio(30.0, 10.0)
    '3.0x'
    >>> format_ratio(30.0, 0.0)
    'n/a'
    """
    if denominator == 0:
        return "n/a"
    return f"{numerator / denominator:{spec}}x"
