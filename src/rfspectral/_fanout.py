"""Map over independent work items, serially or on a thread pool."""

from __future__ import annotations


def fan_out(fn, items, jobs: int = 1) -> list:
    """[fn(item) for item in items], spread over `jobs` threads when
    jobs > 1.  Results keep the order of items either way."""
    if jobs <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
