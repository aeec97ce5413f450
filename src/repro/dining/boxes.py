"""The one grammar naming a dining box: spec string → instance factory.

A declarative run's ``algorithm``, the ``flawed_cm`` detector's ``box``
param and the experiments' black-box helpers all name their box here:
``wf-ewx`` (the ◇P-based wait-free ◇WX algorithm), ``hygienic`` (the
fault-intolerant baseline, which ignores the provider),
``deferred[:horizon]`` (Section 3's adversarial-but-legal box, mistake
horizon 150 by default), ``manager`` (the coordinator-based box) and
``fair[:k]`` (``wf-ewx`` under the eventual k-fairness wrapper, k = 2 by
default).
"""

from __future__ import annotations

import math

from repro.dining.base import DiningBoxFactory, SuspicionProvider
from repro.dining.deferred import DeferredExclusionDining
from repro.dining.fair_wrapper import FairDining
from repro.dining.hygienic import HygienicDining
from repro.dining.manager import ManagerDining
from repro.dining.wf_ewx import WaitFreeEWXDining
from repro.errors import ConfigurationError

#: The accepted spellings, quoted by every rejection.
BOX_GRAMMAR = "wf-ewx | hygienic | deferred[:horizon] | manager | fair[:k]"


def box_factory(spec: str,
                provider: SuspicionProvider | None) -> DiningBoxFactory:
    """The factory ``(instance_id, graph) -> DiningInstance`` named by
    ``spec``, bound to ``provider``.

    The spec is parsed now and every instance is built later, so a
    malformed spec fails here even when ``provider`` is ``None`` (pure
    validation).
    """
    name, sep, arg = (spec.partition(":") if isinstance(spec, str)
                      else ("", "", ""))
    try:
        if name == "wf-ewx" and not sep:
            return lambda iid, g: WaitFreeEWXDining(iid, g, provider)
        if name == "hygienic" and not sep:
            return lambda iid, g: HygienicDining(iid, g)
        if name == "manager" and not sep:
            return lambda iid, g: ManagerDining(iid, g, provider)
        if name == "deferred":
            horizon = float(arg) if sep else 150.0
            if math.isfinite(horizon):
                return lambda iid, g: DeferredExclusionDining(
                    iid, g, provider, mistake_horizon=horizon)
        if name == "fair":
            k = int(arg) if sep else 2
            if k >= 1:
                inner = box_factory("wf-ewx", provider)
                return lambda iid, g: FairDining(iid, g, inner, provider, k=k)
    except ValueError:
        pass
    raise ConfigurationError(
        f"malformed dining box {spec!r}; expected {BOX_GRAMMAR}")
