"""The one place ``repro`` toggles the cyclic collector (private)."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block; restore the state found.

    A build allocates ~10^6 cycle-free objects; every collection on the way
    re-traverses them for nothing (``bulk_load`` 0.50 -> 0.39 s at n = 200k,
    ``list(tree.items())`` of a fresh tree 0.70 -> 0.05 s).  The state is
    process-wide, and ``enable`` is only called by a thread that *saw* it
    enabled, so threads A, B end enabled iff they started enabled:
    ``A+ A- B+ B-`` each restores what it found; ``A+ B+ B- A-`` B saw
    disabled, A re-enables; ``A+ B+ A- B-`` A re-enables early (B loses the
    rest of its pause) and B leaves it; both reading "enabled" before either
    disables ends in two ``enable`` calls.  Started disabled, nobody enables.
    Never held across a fork: the child would inherit the flag for life.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
