"""Image-method ray tracing and multipath channel synthesis.

Given an environment of walls, the tracer enumerates the propagation
paths between two nodes: the direct path (attenuated by any wall it
punches through) and specular reflections up to a configurable order.
The synthesis then superposes them into the complex channel of the
paper's Eq. 8:

    h = sum_i  a_i * exp(-j 2 pi f d_i / c)

with amplitudes a_i combining free-space spreading, reflection
coefficients, and wall transmission losses. Backscatter links are
round trip; by channel reciprocity the round-trip channel is the square
of the one-way channel, which contains the pairwise path products of
Eq. 8's double sum.

There is one implementation: the batched kernel :func:`trace_batch` +
:func:`superpose`. It takes ``P`` endpoint pairs at once (a whole drone
flight) and a :class:`WallArrays` wall set, and is vectorised over
poses and walls. :func:`trace_rays` and :func:`one_way_channel` are its
``P = 1`` views that pack the per-ray arrays into :class:`Ray` objects.

The kernel is bitwise-equal to the per-pair scalar tracer it replaced.
Three rules make that hold:

* **Dot products go through BLAS ``ddot``**, as ``np.dot`` and
  ``np.linalg.norm`` did on 2-vectors, by way of stacked
  ``np.matmul(u[..., None, :], v[..., :, None])``. ``ddot`` fuses its
  multiply-adds, so ``x*x + y*y`` would differ in the last bit.
* **Sums and products keep the scalar order.** Transmission factors
  multiply in wall order (``np.multiply.reduce`` is a sequential
  loop). Rays add into ``h`` one slot at a time, in the order direct,
  single bounces by wall, double bounces by ``(first, second)``;
  ``np.sum`` would sum pairwise.
* **Scalar predicates are reproduced exactly**: ``np.allclose`` with
  its default ``rtol``, skip-by-equality of walls (``wall in skip``),
  the ``min_gain`` pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.channel.geometry import Wall
from repro.constants import SPEED_OF_LIGHT
from repro.errors import GeometryError
from repro.obs import metrics

MAX_SUPPORTED_REFLECTIONS = 2

#: Crossing/intersection tolerance of :mod:`repro.channel.geometry`.
_EPS = 1e-9
#: ``np.allclose`` defaults (coincident endpoints).
_RTOL = 1e-5
_ATOL = 1e-8


@dataclass(frozen=True)
class Ray:
    """One propagation path between two nodes.

    ``gain`` is the linear amplitude factor from interactions only
    (reflections and wall transmissions); free-space spreading is applied
    by the channel synthesis using ``length``.
    """

    length: float
    gain: float
    bounces: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise GeometryError(f"ray length must be positive, got {self.length}")
        if self.gain < 0:
            raise GeometryError(f"ray gain must be >= 0, got {self.gain}")


class WallArrays:
    """A wall set as the kernel's per-wall arrays, in wall order.

    ``p1``/``s`` are the segment starts and ``p2 - p1``, ``normal`` the
    unit normals, ``factor`` the amplitude transmission factor
    ``10^(-loss/20)`` and ``reflectivity`` the reflection coefficient.
    ``keep[i, v]`` is False when wall ``v`` equals wall ``i`` (a path
    bouncing off ``i`` is not attenuated by it, nor by an equal copy).
    ``reflecting`` indexes the walls that reflect; ``first``/``second``
    index into it the ordered double-bounce pairs.
    """

    def __init__(self, walls: Sequence[Wall]) -> None:
        self.walls: Tuple[Wall, ...] = tuple(walls)
        self.labels = tuple(w.name or str(i) for i, w in enumerate(self.walls))
        self.p1 = np.array([w.p1 for w in self.walls], dtype=float).reshape(-1, 2)
        self.s = np.array([w.p2 - w.p1 for w in self.walls], dtype=float).reshape(-1, 2)
        self.normal = np.array([w.normal for w in self.walls], dtype=float).reshape(-1, 2)
        self.factor = np.array(
            [10.0 ** (-w.transmission_loss_db / 20.0) for w in self.walls], dtype=float
        )
        self.reflectivity = np.array([w.reflectivity for w in self.walls], dtype=float)
        self.keep = np.array(
            [[v not in (w,) for v in self.walls] for w in self.walls], dtype=bool
        ).reshape(len(self.walls), len(self.walls))
        reflecting = [i for i, w in enumerate(self.walls) if not w.reflectivity <= 0.0]
        self.reflecting = np.array(reflecting, dtype=np.intp)
        pairs = [
            (fi, si)
            for fi, i in enumerate(reflecting)
            for si, j in enumerate(reflecting)
            if self.walls[j] is not self.walls[i]
        ]
        self.first = np.array([f for f, _ in pairs], dtype=np.intp)
        self.second = np.array([s for _, s in pairs], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.walls)

    def slots(self, max_reflections: int) -> List[Tuple[int, str]]:
        """``(bounces, description)`` of every ray slot, in kernel order."""
        out = [(0, "direct")]
        if max_reflections >= 1:
            out += [(1, f"bounce:{self.labels[i]}") for i in self.reflecting]
        if max_reflections >= 2:
            ref = self.reflecting
            out += [
                (2, f"bounce2:{self.labels[ref[f]]}+{self.labels[ref[s]]}")
                for f, s in zip(self.first, self.second)
            ]
        return out


class RayBatch(NamedTuple):
    """Per-ray arrays of ``P`` endpoint pairs, ``(P, R)`` in slot order.

    ``present[k, r]`` says whether slot ``r`` is a ray of pair ``k``;
    absent slots hold unspecified lengths and gains. ``complete`` is
    True when every slot is present (free space), which lets the
    synthesis skip the masking.
    """

    lengths: np.ndarray
    gains: np.ndarray
    present: np.ndarray
    complete: bool = False


def _as_points(p) -> np.ndarray:
    """Coerce one 2-D point or a stack of them into a ``(P, 2)`` array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected 2-D points, got shape {np.shape(p)}")
    return arr


# -- vectorised geometry -------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise 2-vector dot product through BLAS ``ddot`` (as ``np.dot``)."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    """Row-wise ``np.linalg.norm`` of 2-vectors, bit for bit."""
    return np.sqrt(_dot(u, u))


def _allclose(x: np.ndarray, y: np.ndarray, atol: float) -> np.ndarray:
    """Row-wise ``np.allclose(x, y, atol=atol)`` (default ``rtol``)."""
    return (
        (np.abs(x - y) <= atol + _RTOL * np.abs(y)) & np.isfinite(y) | (x == y)
    ).all(axis=-1)


def _coincident(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``np.allclose(a[k], b[k])`` holds for any pair ``k``."""
    if len(a) == 1:
        # One pair: the same IEEE arithmetic on Python floats, cheaper
        # than a dozen ufunc calls on 2-element arrays.
        return all(
            (abs(x - y) <= _ATOL + _RTOL * abs(y) and math.isfinite(y)) or x == y
            for x, y in zip(a[0].tolist(), b[0].tolist())
        )
    return bool(_allclose(a, b, _ATOL).any())


def _mirror(p: np.ndarray, p1: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Reflect points across wall lines (``geometry.mirror_point``)."""
    return p - (2.0 * _dot(p - p1, normal))[..., None] * normal


def _intersect(
    a: np.ndarray, b: np.ndarray, p1: np.ndarray, s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``geometry.segment_intersection`` of ``a-b`` with walls ``(p1, s)``.

    Returns the intersection points and the mask of where they exist.
    """
    r = b - a
    r0, r1 = r[..., 0], r[..., 1]
    s0, s1 = s[..., 0], s[..., 1]
    ca = p1 - a
    denom = r0 * s1 - r1 * s0
    t = (ca[..., 0] * s1 - ca[..., 1] * s0) / denom
    u = (ca[..., 0] * r1 - ca[..., 1] * r0) / denom
    hit = (
        (np.abs(denom) >= _EPS)
        & (-_EPS <= t) & (t <= 1.0 + _EPS)
        & (-_EPS <= u) & (u <= 1.0 + _EPS)
    )
    return a + t[..., None] * r, hit


def _crossings(a: np.ndarray, b: np.ndarray, walls: WallArrays) -> np.ndarray:
    r = b - a
    r0, r1 = r[..., 0:1], r[..., 1:2]
    s0, s1 = walls.s[:, 0], walls.s[:, 1]
    ca0 = walls.p1[:, 0] - a[..., 0:1]
    ca1 = walls.p1[:, 1] - a[..., 1:2]
    denom = r0 * s1 - r1 * s0
    t = (ca0 * s1 - ca1 * s0) / denom
    u = (ca0 * r1 - ca1 * r0) / denom
    return (
        (np.abs(denom) >= _EPS)
        & (_EPS < t) & (t < 1.0 - _EPS)
        & (_EPS < u) & (u < 1.0 - _EPS)
    )


def crossings(a, b, walls: WallArrays) -> np.ndarray:
    """``geometry.segments_cross(a, b, w.p1, w.p2)`` for every wall ``w``.

    ``a``/``b`` are broadcastable ``(..., 2)`` endpoint arrays; the
    result is the ``(..., W)`` mask of proper crossings.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _crossings(np.asarray(a, dtype=float), np.asarray(b, dtype=float), walls)


def _transmission(
    a: np.ndarray, b: np.ndarray, walls: WallArrays, keep: np.ndarray
) -> np.ndarray:
    """Amplitude factor of the walls (where ``keep``) segments a-b cross."""
    crossed = _crossings(a, b, walls) & keep
    return np.multiply.reduce(np.where(crossed, walls.factor, 1.0), axis=-1)


# -- the kernel ----------------------------------------------------------------


def trace_batch(
    a,
    b,
    walls: WallArrays,
    max_reflections: int = 1,
    min_gain: float = 1e-6,
) -> RayBatch:
    """Propagation paths of ``P`` endpoint pairs ``a[k] -> b[k]``.

    Parameters
    ----------
    a, b:
        ``(P, 2)`` endpoint arrays (a single point broadcasts over the
        other's poses).
    walls:
        The environment's walls as kernel arrays; each may obstruct
        and/or reflect.
    max_reflections:
        Reflection order: 0 = direct only, 1 adds single bounces,
        2 adds double bounces.
    min_gain:
        Paths whose interaction gain falls below this are dropped.

    Returns
    -------
    RayBatch
        Slot 0 is always the direct path (even when heavily obstructed
        its gain may round to zero but the entry remains, so "the
        direct path may not be the strongest" scenarios of paper §5.2
        are representable).
    """
    if not 0 <= max_reflections <= MAX_SUPPORTED_REFLECTIONS:
        raise GeometryError(
            f"max_reflections must be 0-{MAX_SUPPORTED_REFLECTIONS}, "
            f"got {max_reflections}"
        )
    a, b = _as_points(a), _as_points(b)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if _coincident(a, b):
        raise GeometryError("ray tracing requires distinct endpoints")
    lengths = _norm(a - b)[:, None]
    if not len(walls):
        # Free space: one unobstructed direct ray per pair.
        ones = np.ones_like(lengths)
        return RayBatch(lengths, ones, ones.astype(bool), complete=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _trace_walls(a, b, walls, max_reflections, min_gain, lengths)


def _trace_walls(
    a: np.ndarray,
    b: np.ndarray,
    walls: WallArrays,
    max_reflections: int,
    min_gain: float,
    direct_lengths: np.ndarray,
) -> RayBatch:
    keep_all = np.ones(len(walls), bool)
    lengths = [direct_lengths]
    gains = [_transmission(a, b, walls, keep_all)[:, None]]
    present = [np.ones(direct_lengths.shape, bool)]
    ref = walls.reflecting
    if max_reflections >= 1 and len(ref):
        aa, bb = a[:, None, :], b[:, None, :]
        p1, s, normal = walls.p1[ref], walls.s[ref], walls.normal[ref]
        keep, refl = walls.keep[ref], walls.reflectivity[ref]
        # Single bounce off each reflecting wall: the image of b.
        image = _mirror(bb, p1, normal)
        on_line = _allclose(image, bb, _EPS)
        point, hit = _intersect(aa, image, p1, s)
        gain = (
            refl
            * _transmission(aa, point, walls, keep)
            * _transmission(point, bb, walls, keep)
        )
        lengths.append(_norm(aa - point) + _norm(point - bb))
        gains.append(gain)
        present.append(hit & ~on_line & (gain >= min_gain))
        first, second = walls.first, walls.second
        if max_reflections >= 2 and len(first):
            # Double bounce: mirror b across the second wall, then find
            # the first wall's specular point toward that image.
            image_b = image[:, second]
            image_2 = _mirror(image_b, p1[first], normal[first])
            q1, hit1 = _intersect(aa, image_2, p1[first], s[first])
            q2, hit2 = _intersect(q1, image_b, p1[second], s[second])
            gain = (
                refl[first]
                * refl[second]
                * _transmission(aa, q1, walls, keep[first])
                * _transmission(q1, q2, walls, keep[first] & keep[second])
                * _transmission(q2, bb, walls, keep[second])
            )
            lengths.append(_norm(aa - q1) + _norm(q1 - q2) + _norm(q2 - bb))
            gains.append(gain)
            present.append(
                ~_allclose(image_2, image_b, _EPS) & hit1
                & ~on_line[:, second] & hit2
                & (gain >= min_gain)
            )
    batch = RayBatch(
        np.concatenate(lengths, axis=1),
        np.concatenate(gains, axis=1),
        np.concatenate(present, axis=1),
    )
    bad = batch.present & ((batch.lengths <= 0) | (batch.gains < 0))
    if bad.any():
        k, r = np.argwhere(bad)[0]
        raise GeometryError(
            f"ray length must be positive and gain >= 0, got length "
            f"{batch.lengths[k, r]} and gain {batch.gains[k, r]}"
        )
    return batch


def superpose(batch: RayBatch, frequency_hz: float) -> np.ndarray:
    """Superpose each pair's rays into its one-way channel (Eq. 8 terms).

    Each ray contributes ``gain * (lambda / 4 pi d) * exp(-j 2 pi f d / c)``;
    returns the ``(P,)`` complex channels.
    """
    if frequency_hz <= 0:
        raise GeometryError(f"frequency must be positive, got {frequency_hz}")
    present, lengths = batch.present, batch.lengths
    if not batch.complete:
        lengths = np.where(present, lengths, 1.0)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    amplitude = batch.gains * (wavelength / ((4.0 * np.pi) * lengths))
    phasor = np.exp(1j * ((-2.0 * np.pi * frequency_hz) * lengths / SPEED_OF_LIGHT))
    terms = amplitude * phasor
    if not batch.complete:
        terms = np.where(present, terms, 0j)
    # Ray by ray, in slot order: the scalar loop's summation order. An
    # absent slot adds +0.0, which is exact (h never holds -0.0).
    h = np.zeros(len(lengths), complex)
    for r in range(terms.shape[1]):
        h = h + terms[:, r]
    return h


def channels(
    a,
    b,
    walls: WallArrays,
    frequency_hz: float,
    max_reflections: int = 1,
) -> np.ndarray:
    """One-way complex channels of ``P`` endpoint pairs (the kernel)."""
    batch = trace_batch(a, b, walls, max_reflections)
    h = superpose(batch, frequency_hz)
    if len(h) and metrics.active_registry() is not None:
        metrics.count("channel.rays_traced", int(np.count_nonzero(batch.present)))
        metrics.count("channel.channels_synthesized", len(h))
    return h


# -- per-pair views ------------------------------------------------------------


def trace_rays(
    a,
    b,
    walls: Union[Sequence[Wall], WallArrays] = (),
    max_reflections: int = 1,
    min_gain: float = 1e-6,
) -> List[Ray]:
    """Enumerate propagation paths from ``a`` to ``b`` as :class:`Ray` objects.

    The ``P = 1`` view of :func:`trace_batch`: the direct path first,
    then single bounces in wall order, then double bounces in
    ``(first, second)`` order. Unnamed walls label their rays by index.
    """
    if not isinstance(walls, WallArrays):
        walls = WallArrays(walls)
    batch = trace_batch(a, b, walls, max_reflections, min_gain)
    rays = [
        Ray(float(length), float(gain), bounces, description)
        for (bounces, description), length, gain, present in zip(
            walls.slots(max_reflections),
            batch.lengths[0],
            batch.gains[0],
            batch.present[0],
        )
        if present
    ]
    metrics.count("channel.rays_traced", len(rays))
    return rays


def one_way_channel(rays: Sequence[Ray], frequency_hz: float) -> complex:
    """Superpose rays into a one-way complex channel (paper Eq. 8 terms).

    Each ray contributes ``gain * (lambda / 4 pi d) * exp(-j 2 pi f d / c)``.
    """
    if frequency_hz <= 0:
        raise GeometryError(f"frequency must be positive, got {frequency_hz}")
    metrics.count("channel.channels_synthesized")
    batch = RayBatch(
        np.array([[ray.length for ray in rays]], dtype=float),
        np.array([[ray.gain for ray in rays]], dtype=float),
        np.ones((1, len(rays)), bool),
        complete=True,
    )
    return complex(superpose(batch, frequency_hz)[0])


def round_trip_channel(rays: Sequence[Ray], frequency_hz: float) -> complex:
    """Round-trip channel over a reciprocal link: the one-way square.

    Expanding the square reproduces the double sum of paper Eq. 8: every
    forward path i pairs with every return path j, with total length
    ``d_i + d_j`` — for the direct path this is the familiar 2d.
    """
    h = one_way_channel(rays, frequency_hz)
    return complex(h * h)
