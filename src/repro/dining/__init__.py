"""The dining-philosophers layer.

A *dining instance* (paper Section 4) is an undirected conflict graph whose
vertices are diners cycling through thinking → hungry → eating → exiting.
A solution schedules hungry→eating transitions subject to an exclusion
criterion and a progress criterion.

This package provides:

* :mod:`repro.dining.base` — the diner client interface every algorithm
  implements (so the reduction can treat any of them as a black box);
* :mod:`repro.dining.boxes` — :func:`box_factory`, the one grammar naming
  a box (``wf-ewx | hygienic | deferred[:horizon] | manager | fair[:k]``);
* :mod:`repro.dining.spec` — trace checkers for ◇WX / WX / wait-freedom /
  k-fairness;
* :mod:`repro.dining.wf_ewx` — the ◇P-based wait-free ◇WX algorithm
  (hygienic dining with suspicion override, faithful to [12]);
* :mod:`repro.dining.hygienic` — the fault-intolerant Chandy–Misra baseline
  (the same algorithm with a never-suspecting oracle);
* :mod:`repro.dining.deferred` — an adversarial-but-legal WF-◇WX box that
  defeats the flawed construction of [8] (paper Section 3);
* :mod:`repro.dining.perpetual` — a wait-free *perpetual* WX box (for the
  Section 9 experiment extracting T);
* :mod:`repro.dining.client` — environment drivers that make diners hungry;
* :mod:`repro.dining.fairness` — overtaking counters for eventual
  k-fairness.
"""

from repro.dining.base import DinerComponent, DiningBoxFactory, DiningInstance
from repro.dining.boxes import box_factory
from repro.dining.client import EagerClient, PeriodicClient
from repro.dining.deferred import DeferredExclusionDining
from repro.dining.fair_wrapper import FairDining
from repro.dining.hygienic import HygienicDining, never_suspect
from repro.dining.manager import ManagerDining
from repro.dining.perpetual import PerpetualDining
from repro.dining.spec import (
    ExclusionReport,
    WaitFreedomReport,
    check_exclusion,
    check_wait_freedom,
    eating_intervals,
)
from repro.dining.wf_ewx import WaitFreeEWXDining

__all__ = [
    "DeferredExclusionDining",
    "DinerComponent",
    "DiningBoxFactory",
    "DiningInstance",
    "EagerClient",
    "FairDining",
    "ExclusionReport",
    "HygienicDining",
    "ManagerDining",
    "PeriodicClient",
    "PerpetualDining",
    "WaitFreeEWXDining",
    "WaitFreedomReport",
    "box_factory",
    "check_exclusion",
    "check_wait_freedom",
    "eating_intervals",
    "never_suspect",
]
