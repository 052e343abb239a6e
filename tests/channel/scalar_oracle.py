"""Frozen per-pair ray tracer: the test-only oracle for the batched kernel.

A verbatim copy of the scalar image-method tracer and Eq. 8 synthesis
that :mod:`repro.channel.multipath` used before the batched kernel
replaced it, together with the geometry helpers it called. The kernel
must reproduce :func:`trace_rays` + :func:`one_way_channel` **bit for
bit**; keeping the oracle self-contained means a later change to the
library's geometry cannot silently move the reference too.

The one deliberate difference from the original: unnamed walls label
their rays with the wall's index instead of ``id(wall)``, matching the
library's deterministic ray descriptions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.channel.geometry import Wall, as_point
from repro.channel.multipath import MAX_SUPPORTED_REFLECTIONS, Ray
from repro.constants import SPEED_OF_LIGHT
from repro.errors import GeometryError, LinkBudgetError

_EPS = 1e-9


def distance_m(a, b) -> float:
    return float(np.linalg.norm(as_point(a) - as_point(b)))


def mirror_point(point, wall: Wall) -> np.ndarray:
    p = as_point(point)
    to_point = p - wall.p1
    n = wall.normal
    return p - 2.0 * float(np.dot(to_point, n)) * n


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def segment_intersection(a, b, c, d) -> Optional[np.ndarray]:
    a, b, c, d = map(as_point, (a, b, c, d))
    r = b - a
    s = d - c
    denom = _cross2(r, s)
    if abs(denom) < _EPS:
        return None
    t = _cross2(c - a, s) / denom
    u = _cross2(c - a, r) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return a + t * r
    return None


def segments_cross(a, b, c, d) -> bool:
    a, b, c, d = map(as_point, (a, b, c, d))
    r = b - a
    s = d - c
    denom = _cross2(r, s)
    if abs(denom) < _EPS:
        return False
    t = _cross2(c - a, s) / denom
    u = _cross2(c - a, r) / denom
    return _EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS


def reflection_point(a, b, wall: Wall) -> Optional[np.ndarray]:
    a, b = as_point(a), as_point(b)
    image = mirror_point(b, wall)
    if np.allclose(image, b, atol=_EPS):
        return None
    return segment_intersection(a, image, wall.p1, wall.p2)


def _transmission_gain(a, b, walls: Sequence[Wall], skip: Sequence[Wall] = ()) -> float:
    gain = 1.0
    for wall in walls:
        if wall in skip:
            continue
        if segments_cross(a, b, wall.p1, wall.p2):
            gain *= 10.0 ** (-wall.transmission_loss_db / 20.0)
    return gain


def trace_rays(
    a,
    b,
    walls: Sequence[Wall] = (),
    max_reflections: int = 1,
    min_gain: float = 1e-6,
) -> List[Ray]:
    if not 0 <= max_reflections <= MAX_SUPPORTED_REFLECTIONS:
        raise GeometryError(
            f"max_reflections must be 0-{MAX_SUPPORTED_REFLECTIONS}, "
            f"got {max_reflections}"
        )
    a, b = as_point(a), as_point(b)
    if np.allclose(a, b):
        raise GeometryError("ray tracing requires distinct endpoints")
    rays: List[Ray] = [
        Ray(
            length=distance_m(a, b),
            gain=_transmission_gain(a, b, walls),
            bounces=0,
            description="direct",
        )
    ]
    if max_reflections >= 1:
        for index, wall in enumerate(walls):
            if wall.reflectivity <= 0.0:
                continue
            point = reflection_point(a, b, wall)
            if point is None:
                continue
            length = distance_m(a, point) + distance_m(point, b)
            gain = (
                wall.reflectivity
                * _transmission_gain(a, point, walls, skip=(wall,))
                * _transmission_gain(point, b, walls, skip=(wall,))
            )
            if gain >= min_gain:
                rays.append(
                    Ray(length, gain, 1, description=f"bounce:{wall.name or index}")
                )
    if max_reflections >= 2:
        for i, first in enumerate(walls):
            if first.reflectivity <= 0.0:
                continue
            for j, second in enumerate(walls):
                if second is first or second.reflectivity <= 0.0:
                    continue
                image_b = mirror_point(b, second)
                p1 = reflection_point(a, image_b, first)
                if p1 is None:
                    continue
                p2 = reflection_point(p1, b, second)
                if p2 is None:
                    continue
                length = distance_m(a, p1) + distance_m(p1, p2) + distance_m(p2, b)
                gain = (
                    first.reflectivity
                    * second.reflectivity
                    * _transmission_gain(a, p1, walls, skip=(first,))
                    * _transmission_gain(p1, p2, walls, skip=(first, second))
                    * _transmission_gain(p2, b, walls, skip=(second,))
                )
                if gain >= min_gain:
                    rays.append(
                        Ray(
                            length,
                            gain,
                            2,
                            description=(
                                f"bounce2:{first.name or i}"
                                f"+{second.name or j}"
                            ),
                        )
                    )
    return rays


def free_space_amplitude(distance_m: float, frequency_hz: float) -> float:
    if distance_m <= 0:
        raise LinkBudgetError(f"distance must be positive, got {distance_m}")
    if frequency_hz <= 0:
        raise LinkBudgetError(f"frequency must be positive, got {frequency_hz}")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return float(wavelength / (4.0 * np.pi * distance_m))


def one_way_channel(rays: Sequence[Ray], frequency_hz: float) -> complex:
    if frequency_hz <= 0:
        raise GeometryError(f"frequency must be positive, got {frequency_hz}")
    h = 0.0 + 0.0j
    for ray in rays:
        amplitude = ray.gain * free_space_amplitude(ray.length, frequency_hz)
        phase = -2.0 * np.pi * frequency_hz * ray.length / SPEED_OF_LIGHT
        h += amplitude * np.exp(1j * phase)
    return complex(h)


def channel(a, b, walls: Sequence[Wall], max_reflections: int, frequency_hz: float) -> complex:
    """The seed's ``Environment.channel`` without its fault hook."""
    return one_way_channel(trace_rays(a, b, walls, max_reflections), frequency_hz)
