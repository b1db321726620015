"""Deterministic fault-plan composition and the channel-facing hook API.

A :class:`FaultPlan` is an immutable bundle of named impairments plus a
seed.  The channel layer calls one hook per pipeline stage:

* :meth:`FaultPlan.apply_image` — every image-valued stage
  (``emission``, ``pre_optics``, ``post_optics``, ``sensor``);
* :meth:`FaultPlan.jitter_start_time` — the ``shutter`` stage;
* :meth:`FaultPlan.stream_indices` — the ``stream`` stage (drops and
  duplicates, decided *before* any capture is rendered so dropped
  captures cost nothing).

Determinism: each fault's RNG is seeded by ``(plan seed, stage id,
capture index, fault position)`` through a :class:`numpy.random.SeedSequence`,
so results are bit-identical across runs, call orders and process pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .impairments import (
    CaptureDrop,
    CaptureDuplicate,
    DisplayFlicker,
    ExposureDrift,
    Impairment,
    PartialOcclusion,
    ScanlineCorruption,
    ShutterJitter,
    SpecularGlare,
)

__all__ = ["FaultPlan", "FAULT_REGISTRY", "IMAGE_STAGES", "STAGES", "derive_seed"]

#: Image-valued hook stages, in pipeline order.
IMAGE_STAGES = ("emission", "pre_optics", "post_optics", "sensor")

#: All hook stages, in pipeline order; the index doubles as the stage id
#: mixed into each fault's seed.
STAGES = ("emission", "shutter", "pre_optics", "post_optics", "sensor", "stream")

#: name -> impairment class, for :meth:`FaultPlan.from_spec`.
FAULT_REGISTRY: dict[str, type] = {
    cls.name: cls
    for cls in (
        PartialOcclusion,
        SpecularGlare,
        ExposureDrift,
        DisplayFlicker,
        ShutterJitter,
        ScanlineCorruption,
        CaptureDrop,
        CaptureDuplicate,
    )
}


def derive_seed(seed: int, *components: int) -> np.random.SeedSequence:
    """The one sanctioned :class:`~numpy.random.SeedSequence` constructor.

    Every RNG in the deterministic tree is derived here from a base
    *seed* plus integer *components* (stage id, capture index, fault
    position, ...), each masked to 32 bits so the derivation is
    identical across platforms and process pools.  Static analysis rule
    RB001 forbids raw ``np.random.SeedSequence(...)`` construction
    anywhere else in ``core/``, ``channel/``, ``coding/``, ``faults/``
    and ``link/`` — this function is its single allowlisted site, which
    keeps seed derivation auditable in exactly one place.
    """
    return np.random.SeedSequence(
        entropy=seed & 0xFFFFFFFF,
        spawn_key=tuple(component & 0xFFFFFFFF for component in components),
    )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable composition of impairments.

    The empty plan (no faults) is a strict no-op at every hook point, so
    passing ``FaultPlan()`` is equivalent to passing ``None``.
    """

    faults: tuple[Impairment, ...] = ()
    seed: int = 0
    #: Optional label (scenario name) carried through reports.
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Impairment):
                raise TypeError(f"not an Impairment: {fault!r}")
            if fault.stage not in STAGES:
                raise ValueError(f"{fault.name} declares unknown stage {fault.stage!r}")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict, seed: int = 0, name: str = "") -> "FaultPlan":
        """Build a plan from ``{fault_name: kwargs}`` (kwargs may be None)."""
        faults = []
        for fault_name, kwargs in spec.items():
            try:
                factory = FAULT_REGISTRY[fault_name]
            except KeyError:
                known = ", ".join(sorted(FAULT_REGISTRY))
                raise ValueError(f"unknown fault {fault_name!r} (known: {known})") from None
            faults.append(factory(**(kwargs or {})))
        return cls(faults=tuple(faults), seed=seed, name=name)

    @property
    def active(self) -> bool:
        return bool(self.faults)

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        if not self.faults:
            return "clean"
        return "+".join(f.name for f in self.faults)

    # -- deterministic RNG derivation -------------------------------------

    def _rng(self, stage: str, capture_index: int, fault_index: int) -> np.random.Generator:
        key_index = capture_index if self.faults[fault_index].rng_per_capture else 0
        seq = derive_seed(self.seed, STAGES.index(stage), key_index, fault_index)
        return np.random.default_rng(seq)

    # -- hook points -------------------------------------------------------

    def hooks(self, stage: str) -> bool:
        """Whether any fault of this plan runs at *stage*."""
        return any(fault.stage == stage for fault in self.faults)

    def apply_image(self, stage: str, image: np.ndarray, index: int) -> np.ndarray:
        """Run every fault registered at image-valued *stage* on *image*.

        *index* is the capture index for capture-space stages and the
        frame index for the ``emission`` stage.
        """
        if stage not in IMAGE_STAGES:
            raise ValueError(f"not an image stage: {stage!r}")
        for position, fault in enumerate(self.faults):
            if fault.stage == stage:
                image = fault.apply(image, self._rng(stage, index, position), index)
        return image

    def jitter_start_time(self, start_time: float, capture_index: int) -> float:
        """Perturbed readout start time for capture *capture_index*."""
        for position, fault in enumerate(self.faults):
            if fault.stage == "shutter":
                start_time = fault.jitter(
                    start_time, self._rng("shutter", capture_index, position), capture_index
                )
        return start_time

    def stream_indices(self, num_captures: int) -> list[int]:
        """Capture indices actually delivered, after drops and duplicates.

        The returned list references the *nominal* capture index, so a
        duplicated capture repeats its index and a dropped one is
        absent; all per-capture fault RNGs stay keyed by the nominal
        index, keeping image-stage faults independent of stream faults.
        """
        out = []
        for index in range(num_captures):
            copies = 1
            for position, fault in enumerate(self.faults):
                if fault.stage != "stream":
                    continue
                rng = self._rng("stream", index, position)
                if isinstance(fault, CaptureDrop):
                    if not fault.keep(rng, index):
                        copies = 0
                elif isinstance(fault, CaptureDuplicate):
                    copies = max(copies, fault.copies(rng, index)) if copies else 0
            out.extend([index] * copies)
        return out
