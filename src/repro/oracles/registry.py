"""The detector registry: every oracle as a named, spec-addressable citizen.

Historically each detector class had its own constructor wiring scattered
through ``runtime/builder.py`` and the experiment harnesses.  This module
unifies them behind one surface:

* :class:`DetectorSpec` — a plain-data ``(name, params, seed)`` triple that
  fully describes which detector a run uses and how it is parameterized.
  It rides on :class:`~repro.runtime.spec.RunSpec` (the ``detector`` /
  ``detector_params`` fields), serializes to JSON, and participates in the
  content-addressed :func:`~repro.runtime.store.spec_hash`.
* :data:`REGISTRY` — ``name -> DetectorEntry``: per-detector defaults, the
  trace label its ``"suspect"`` rows carry, the property battery the class
  promises (:class:`~repro.oracles.properties.DetectorAssumptions`), and an
  ``install`` hook that attaches the per-process modules to an engine.
  Unknown names fail with an error enumerating every registered detector
  with an example — the same idiom as ``GRAPH_KINDS``.

Registered detectors (``repro lattice`` runs all but ``extracted`` by
default):

======================  =====================================================
``eventually_perfect``  ◇P from partial synchrony (heartbeats + adaptive
                        timeouts) — the default; the golden traces pin
                        its wiring bit for bit.
``perfect``             P substrate (crash schedule + fixed latency).
``trusting``            T substrate (trust granted late, revoked only on
                        real crashes).
``strong``              S substrate (never-suspected anchor + finite noise).
``eventually_strong``   ◇S substrate (one converging anchor, everyone else
                        flaps forever — the minimum ◇S permits).
``omega``               Ω: leader election over an internal ◇P, exposed
                        through the suspect-list API (suspect every
                        non-leader).  Satisfies Ω, yet visibly *weaker*
                        than ◇P for wait-free dining.
``flawed_cm``           The Guerraoui-style extraction of [8] the
                        corrigendum refutes: one dining instance per
                        ordered pair over an adversarial-but-legal deferred
                        box.  Deliberately fails ◇P accuracy — the
                        lattice's negative reference point.
``extracted``           The paper's reduction (Algs. 1/2): one pair of
                        dining instances per ordered pair over a WF-◇WX
                        box (``box``), which runs on its own heartbeat ◇P.
                        Claims ◇P's battery and passes it.
======================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule, attach_detectors
from repro.oracles.eventually_perfect import EventuallyPerfectDetector
from repro.oracles.eventually_strong import EventuallyStrongDetector
from repro.oracles.omega import OmegaDetector, OmegaElector
from repro.oracles.perfect import PerfectDetector
from repro.oracles.properties import DetectorAssumptions
from repro.oracles.strong import StrongDetector, default_anchor
from repro.oracles.trusting import TrustingDetector
from repro.sim.engine import Engine
from repro.sim.faults import CrashSchedule
from repro.sim.rng import BatchedDoubles
from repro.types import ProcessId

#: The registry name of the default oracle: the heartbeat ◇P.
DEFAULT_DETECTOR = "eventually_perfect"

#: Trace label of the dining-facing detector in every declarative run.
#: The golden traces pin it, so native modules keep the historical name.
BOX_LABEL = "boxfd"


@dataclass(frozen=True)
class DetectorSpec:
    """Which detector a run uses: ``(name, params, seed)``.

    ``params`` overrides the registry entry's defaults (unknown keys are a
    :class:`~repro.errors.ConfigurationError` at construction, naming the
    accepted ones).  ``seed`` feeds the substrate noise generators (S/◇S
    wrongful-suspicion draws) so detector randomness replays with the run.
    """

    name: str = DEFAULT_DETECTOR
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        entry = resolve_detector(self.name)
        object.__setattr__(self, "params", dict(self.params))
        unknown = set(self.params) - set(entry.defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for detector "
                f"{self.name!r}; accepted: {sorted(entry.defaults)} "
                f"(defaults {entry.defaults})")

    @property
    def entry(self) -> "DetectorEntry":
        return resolve_detector(self.name)

    def merged_params(self) -> dict[str, Any]:
        """Entry defaults overlaid with this spec's overrides."""
        merged = dict(self.entry.defaults)
        merged.update(self.params)
        return merged


@dataclass
class InstallContext:
    """Everything an ``install`` hook needs beyond its parameters."""

    engine: Engine
    pids: list[ProcessId]
    schedule: CrashSchedule
    #: Conflict-graph-local monitoring restriction (``None`` = all-to-all).
    peers_of: Optional[Mapping[ProcessId, Sequence[ProcessId]]]
    seed: int

    def peers(self, pid: ProcessId) -> list[ProcessId]:
        if self.peers_of is None:
            return [q for q in self.pids if q != pid]
        return list(self.peers_of.get(pid, ()))

    def rng_for(self, pid: ProcessId, salt: int = 0) -> BatchedDoubles:
        """Deterministic per-owner noise stream: a function of the spec
        seed and the owner's sorted index only, so substrate randomness is
        independent of construction order and worker count.

        A batched view: the S and ◇S noise only ever calls ``.random()``,
        which it serves with the raw generator's doubles."""
        return BatchedDoubles(np.random.default_rng(
            np.random.SeedSequence(entropy=abs(int(self.seed)),
                                   spawn_key=(self._rank[pid], salt))))

    @cached_property
    def _rank(self) -> dict[ProcessId, int]:
        """Each pid's index in sorted order, computed once per context."""
        return {pid: i for i, pid in enumerate(sorted(self.pids))}


@dataclass(frozen=True)
class DetectorEntry:
    """One registered detector: docs, defaults, label, battery, installer."""

    name: str
    summary: str
    example: str
    #: The ``detector=`` label its dining-facing ``"suspect"`` rows carry.
    label: str
    defaults: Mapping[str, Any]
    #: The completeness/accuracy battery this class *claims* — what
    #: :func:`~repro.oracles.properties.check_detector_properties` judges
    #: the run against (``flawed_cm`` claims ◇P's and fails it).
    assumptions: DetectorAssumptions
    install: Callable[[InstallContext, Mapping[str, Any]],
                      "dict[ProcessId, Any]"]


# -- install hooks ------------------------------------------------------------


def _install_eventually_perfect(ctx: InstallContext,
                                params: Mapping[str, Any]):
    return attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: EventuallyPerfectDetector(
            BOX_LABEL, peers,
            heartbeat_period=int(params["heartbeat_period"]),
            initial_timeout=int(params["initial_timeout"]),
            backoff=float(params["backoff"])),
        peers_of=ctx.peers_of,
    )


def _install_perfect(ctx: InstallContext, params: Mapping[str, Any]):
    return attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: PerfectDetector(
            BOX_LABEL, peers, ctx.schedule,
            latency=float(params["latency"])),
        peers_of=ctx.peers_of,
    )


def _install_trusting(ctx: InstallContext, params: Mapping[str, Any]):
    return attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: TrustingDetector(
            BOX_LABEL, peers, ctx.schedule,
            registration_delay=float(params["registration_delay"]),
            latency=float(params["latency"])),
        peers_of=ctx.peers_of,
    )


def _anchor_for(ctx: InstallContext, params: Mapping[str, Any]) -> ProcessId:
    anchor = params.get("anchor")
    if anchor is None:
        return default_anchor(ctx.pids, ctx.schedule)
    if anchor not in ctx.pids:
        raise ConfigurationError(
            f"anchor {anchor!r} is not a process of this run "
            f"(processes: {sorted(ctx.pids)})")
    return anchor


def _install_strong(ctx: InstallContext, params: Mapping[str, Any]):
    anchor = _anchor_for(ctx, params)
    return attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: StrongDetector(
            BOX_LABEL, peers, ctx.schedule, anchor=anchor,
            latency=float(params["latency"]),
            noise_until=float(params["noise_until"]),
            noise_prob=float(params["noise_prob"]),
            rng=ctx.rng_for(owner)),
        peers_of=ctx.peers_of,
    )


def _install_eventually_strong(ctx: InstallContext,
                               params: Mapping[str, Any]):
    anchor = _anchor_for(ctx, params)
    return attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: EventuallyStrongDetector(
            BOX_LABEL, peers, ctx.schedule, anchor=anchor,
            anchor_trust_time=float(params["anchor_trust_time"]),
            flap_prob=float(params["flap_prob"]),
            latency=float(params["latency"]),
            rng=ctx.rng_for(owner)),
        peers_of=ctx.peers_of,
    )


def _install_omega(ctx: InstallContext, params: Mapping[str, Any]):
    # Ω stacks three components per process: an internal ◇P (own trace
    # label, so its mistakes don't count against the dining-facing
    # output), an OmegaElector deriving the leader estimate, and an
    # OmegaDetector exposing "suspect every non-leader" through the
    # standard oracle API.
    inner = attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: EventuallyPerfectDetector(
            "omega.sub", peers,
            heartbeat_period=int(params["heartbeat_period"]),
            initial_timeout=int(params["initial_timeout"])),
        peers_of=ctx.peers_of,
    )
    modules: dict[ProcessId, OracleModule] = {}
    for pid in ctx.pids:
        elector = OmegaElector("omega.elect", inner[pid])
        ctx.engine.process(pid).add_component(elector)
        facade = OmegaDetector("omega", ctx.peers(pid), elector)
        ctx.engine.process(pid).add_component(facade)
        modules[pid] = facade
    return modules


def _install_reduction(label: str, ctx: InstallContext,
                       params: Mapping[str, Any]):
    # The two reduction entries share this hook and differ in their pair
    # construction: Algs. 1/2 for ``extracted``, [8]'s for ``flawed_cm``.
    # Local imports: repro.core / repro.dining sit above the oracle layer.
    from repro.core.extraction import build_full_extraction
    from repro.core.flawed_cm import FLAWED_LABEL, FlawedCMPair
    from repro.core.pair import ReductionPair
    from repro.dining.boxes import box_factory

    substrate = attach_detectors(
        ctx.engine, ctx.pids,
        lambda owner, peers: EventuallyPerfectDetector(
            f"{label}.sub", peers, heartbeat_period=4, initial_timeout=10),
        peers_of=ctx.peers_of,
    )

    def provider(pid: ProcessId):
        module = substrate[pid]
        return lambda q: module.suspected(q)

    construction = (
        partial(FlawedCMPair, heartbeat_period=int(params["heartbeat_period"]))
        if label == FLAWED_LABEL else ReductionPair)
    return build_full_extraction(
        ctx.engine, ctx.pids, box_factory(params["box"], provider),
        construction=construction,
        monitors=[(p, q) for p in ctx.pids for q in ctx.peers(p)])[0]


# -- the registry -------------------------------------------------------------

REGISTRY: dict[str, DetectorEntry] = {}


def _register(entry: DetectorEntry) -> None:
    REGISTRY[entry.name] = entry


_register(DetectorEntry(
    name="eventually_perfect",
    summary="◇P from partial synchrony (heartbeats + adaptive timeouts)",
    example='detector="eventually_perfect", '
            'detector_params={"initial_timeout": 20}',
    label=BOX_LABEL,
    # NB: the runtime's default timeout is 10, not the class default of
    # 24 — the golden traces pin it.
    defaults={"heartbeat_period": 4, "initial_timeout": 10, "backoff": 2.0},
    assumptions=DetectorAssumptions(accuracy="eventual_strong",
                                    completeness="strong", label=BOX_LABEL),
    install=_install_eventually_perfect,
))

_register(DetectorEntry(
    name="perfect",
    summary="P substrate (crash schedule + fixed detection latency)",
    example='detector="perfect", detector_params={"latency": 5.0}',
    label=BOX_LABEL,
    defaults={"latency": 5.0},
    assumptions=DetectorAssumptions(accuracy="perpetual_strong",
                                    completeness="strong", label=BOX_LABEL),
    install=_install_perfect,
))

_register(DetectorEntry(
    name="trusting",
    summary="T substrate (trust granted late, revoked only on real crashes)",
    example='detector="trusting", '
            'detector_params={"registration_delay": 10.0}',
    label=BOX_LABEL,
    defaults={"registration_delay": 10.0, "latency": 5.0},
    assumptions=DetectorAssumptions(accuracy="trusting",
                                    completeness="strong", label=BOX_LABEL),
    install=_install_trusting,
))

_register(DetectorEntry(
    name="strong",
    summary="S substrate (never-suspected anchor + finite suspicion noise)",
    example='detector="strong", detector_params={"noise_until": 60.0}',
    label=BOX_LABEL,
    defaults={"latency": 5.0, "noise_until": 60.0, "noise_prob": 0.05,
              "anchor": None},
    assumptions=DetectorAssumptions(accuracy="perpetual_weak",
                                    completeness="strong", label=BOX_LABEL),
    install=_install_strong,
))

_register(DetectorEntry(
    name="eventually_strong",
    summary="◇S substrate (one converging anchor; everyone else flaps "
            "forever)",
    example='detector="eventually_strong", '
            'detector_params={"flap_prob": 0.2}',
    label=BOX_LABEL,
    defaults={"anchor_trust_time": 100.0, "flap_prob": 0.2, "latency": 5.0,
              "anchor": None},
    assumptions=DetectorAssumptions(accuracy="eventual_weak",
                                    completeness="strong", label=BOX_LABEL),
    install=_install_eventually_strong,
))

_register(DetectorEntry(
    name="omega",
    summary="Ω over an internal ◇P: suspect exactly the non-leaders",
    example='detector="omega"',
    label="omega",
    defaults={"heartbeat_period": 4, "initial_timeout": 10},
    assumptions=DetectorAssumptions(accuracy="leader_agreement",
                                    completeness="strong", label="omega"),
    install=_install_omega,
))

_register(DetectorEntry(
    name="flawed_cm",
    summary="the [8] extraction the corrigendum refutes (one CM instance "
            "per pair over a deferred box)",
    example='detector="flawed_cm", detector_params={"box": "deferred:150"}',
    label="flawed",
    defaults={"box": "deferred:150", "heartbeat_period": 4},
    # It *claims* ◇P's battery — and, over the deferred box, fails the
    # accuracy half: that failure is the corrigendum's Section 3 point.
    assumptions=DetectorAssumptions(accuracy="eventual_strong",
                                    completeness="strong", label="flawed"),
    install=partial(_install_reduction, "flawed"),
))

_register(DetectorEntry(
    name="extracted",
    summary="the paper's reduction: ◇P extracted by Algs. 1/2 from a "
            "WF-◇WX box on a heartbeat ◇P",
    example='detector="extracted", detector_params={"box": "manager"}',
    label="extracted",
    defaults={"box": "wf-ewx"},
    assumptions=DetectorAssumptions(accuracy="eventual_strong",
                                    completeness="strong", label="extracted"),
    install=partial(_install_reduction, "extracted"),
))


def detector_kind_help() -> str:
    """One line per registered detector, for error messages and ``--help``."""
    return "; ".join(f"{name} (e.g. {entry.example})"
                     for name, entry in REGISTRY.items())


def resolve_detector(name: str) -> DetectorEntry:
    """Look a detector up by name; unknown names enumerate the registry."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector {name!r}; registered detectors: "
            f"{detector_kind_help()}") from None


def install_detector(spec: DetectorSpec, ctx: InstallContext
                     ) -> "dict[ProcessId, Any]":
    """Attach ``spec``'s modules to the engine; returns ``pid ->`` an
    object with the ``suspected(q)`` query API (an
    :class:`~repro.oracles.base.OracleModule` or an extraction facade)."""
    entry = resolve_detector(spec.name)
    return entry.install(ctx, spec.merged_params())
