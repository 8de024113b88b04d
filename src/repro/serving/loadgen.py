"""Deterministic traffic mixes for driving a fleet.

Against a :class:`~repro.serving.router.FleetRouter`, a mix maps model
names to traffic weights; :func:`mix_schedule` turns it into the sequence
of models to route each request to, by a deterministic weighted
interleaving (largest-remainder, so a ``{"a": 3, "b": 1}`` mix sends
exactly 3:1 — no sampling noise in benchmarks or tests).  The load itself
is generated from outside the product: ``python3 -m bench`` measures
serving, and a live server's view of its traffic is its ``metrics()``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import ConfigurationError


def mix_schedule(mix: Dict[str, float], length: int) -> List[str]:
    """A deterministic ``length``-long model sequence proportional to ``mix``.

    Largest-remainder interleaving: every position credits each model by its
    normalized weight and picks the most-owed one, so a ``{"a": 3, "b": 1}``
    mix yields exactly 3 "a" per "b" with the two spread evenly — the same
    traffic every run, which is what exactness tests and benchmarks need.
    """
    if not mix:
        raise ConfigurationError("mix must name at least one model")
    for name, weight in mix.items():
        if weight <= 0:
            raise ConfigurationError(
                f"mix weight for {name!r} must be positive, got {weight}"
            )
    names = sorted(mix)
    total = sum(mix.values())
    credit = {name: 0.0 for name in names}
    schedule: List[str] = []
    for _ in range(int(length)):
        for name in names:
            credit[name] += mix[name] / total
        pick = max(names, key=lambda name: (credit[name], name))
        credit[pick] -= 1.0
        schedule.append(pick)
    return schedule


__all__ = ["mix_schedule"]
