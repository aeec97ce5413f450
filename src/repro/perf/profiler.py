"""cProfile helpers behind the CLI's ``--profile-out`` flag.

Profiling a whole campaign is one context manager::

    from repro.perf import profile_to

    with profile_to("campaign.prof"):
        run_campaign(cfg)

The dump is a standard :mod:`pstats` file — load it with
``python -m pstats campaign.prof`` or snakeviz.
"""

from __future__ import annotations

import contextlib
import cProfile
import pathlib
from typing import Iterator, Optional


@contextlib.contextmanager
def profile_to(path: "str | pathlib.Path | None") -> Iterator[Optional[cProfile.Profile]]:
    """Profile the enclosed block into ``path`` (no-op when ``path`` is None).

    The no-op branch keeps call sites flag-driven: callers wrap their
    command body unconditionally and pass the ``--profile-out`` value
    straight through.
    """
    if path is None:
        yield None
        return
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        prof.dump_stats(str(out))
