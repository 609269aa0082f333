"""Plaintext-side math: components, coarse transforms, level and layer planning.

A plan is a tuple of Layer: each layer names a stored level (index), its
coarsity factor and the integer radius the query runs with in that
level's coarse space.

Everything here is exact integer arithmetic except the planning helpers
(square roots), which round conservatively: radii only ever grow and level
selection only ever coarsens, so planning noise can add false positives but
never false negatives.  Membership itself (dist^2 vs r^2) stays integral.
"""

import math
from dataclasses import dataclass

from .ces import LAYOUT_SHRQ, LAYOUT_UNIFIED, Component, layout_len
from .errors import ConfigError, IngestionError, QueryRejected

EPS = 1e-9


@dataclass(frozen=True)
class SphereQuery:
    center: tuple
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ConfigError("radius must be non-negative")


@dataclass(frozen=True)
class RangeQuery:
    col: int  # 1-based dimension index
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError("range lower bound exceeds upper bound")
        if self.col < 1:
            raise ConfigError("column index is 1-based")


@dataclass(frozen=True)
class Layer:
    index: int
    radius: float  # planning radius in base units
    scaled_radius: int  # integer radius used in the layer's coarse space
    factor: int  # coarsity factor b_c^index


def validate_point(coords, d, x_max, label=""):
    """Ingestion guard: integral coordinates inside [0, x_max]."""
    tag = f" ({label})" if label else ""
    if len(coords) != d:
        raise IngestionError(f"point{tag} has {len(coords)} coordinates, expected {d}")
    for c in coords:
        if not isinstance(c, int) or isinstance(c, bool):
            raise IngestionError(f"point{tag} has non-integer coordinate {c!r}")
        if not 0 <= c <= x_max:
            raise IngestionError(f"point{tag} coordinate {c} outside [0, {x_max}]")
    return tuple(coords)


def make_data_component(coords, layout):
    """{m_1..m_d, 1, ||m||^2} or {m_1..m_d, 1, m_1^2..m_d^2}."""
    coords = tuple(int(c) for c in coords)
    d = len(coords)
    if layout == LAYOUT_SHRQ:
        entries = coords + (1, sum(c * c for c in coords))
    elif layout == LAYOUT_UNIFIED:
        entries = coords + (1,) + tuple(c * c for c in coords)
    else:
        raise ConfigError(f"unknown layout {layout!r}")
    return Component(entries, d)


def make_sphere_query_component(q, layout, cols=None):
    """Query vector whose dot with a data component is
    r^2 - sum_{i in cols} (m_i - q_i)^2; omitted columns contribute 0."""
    center = tuple(int(c) for c in q.center)
    d = len(center)
    all_cols = tuple(range(1, d + 1))
    cols = all_cols if cols is None else tuple(sorted(set(cols)))
    if any(c < 1 or c > d for c in cols):
        raise ConfigError("column indices must be in [1, d]")
    norm = sum(center[i - 1] * center[i - 1] for i in cols)
    if layout == LAYOUT_SHRQ:
        if cols != all_cols:
            raise ConfigError("column subsets need the unified layout")
        entries = tuple(2 * c for c in center) + (q.radius * q.radius - norm, -1)
        return Component(entries, d)
    if layout != LAYOUT_UNIFIED:
        raise ConfigError(f"unknown layout {layout!r}")
    entries = [0] * layout_len(layout, d)
    for i in cols:
        entries[i - 1] = 2 * center[i - 1]
        entries[d + i] = -1
    entries[d] = q.radius * q.radius - norm
    return Component(tuple(entries), d)


def range_to_sphere(rq, d):
    """Closed range [lo, hi] as a one-column sphere: odd widths round the
    radius up and over-cover hi+1 by one unit (client validation trims it)."""
    width = rq.hi - rq.lo
    radius = (width + 1) // 2 if width % 2 else width // 2
    center = [0] * d
    if rq.col > d:
        raise ConfigError(f"column {rq.col} exceeds dimension count {d}")
    center[rq.col - 1] = rq.lo + radius
    return SphereQuery(tuple(center), radius)


def coarse_transform(coords, factor):
    """Map every coordinate to floor(x / factor)."""
    if factor < 1:
        raise ConfigError("coarsity factor must be >= 1")
    return tuple(int(c) // factor for c in coords)


def coarsity_base(v, d):
    """floor(sqrt(v) / (2*sqrt(d) + 1)); the layered protocol needs >= 2."""
    base = int(math.sqrt(v) / (2 * math.sqrt(d) + 1) + EPS)
    if base < 2:
        raise ConfigError(
            f"layered storage unsupported: coarsity base {base} < 2 for v={v}, d={d}"
        )
    return base


def select_coarsity_exponent(r, v, d, e_max):
    """Minimal base-2 level whose coarse radius fits the lookup table.

    Uses isqrt(v) rather than float sqrt so a non-square v can never admit
    a transformed radius whose square exceeds v.
    """
    root_v = math.isqrt(v)
    if r <= root_v:
        return 0
    slack = math.sqrt(d)
    for e in range(1, e_max + 1):
        if r / 2**e + slack <= root_v + EPS:
            return e
    raise QueryRejected(
        "radius-unsupported",
        f"r / 2^E_max + sqrt(d) > sqrt(v) (r={r}, E_max={e_max}, v={v}, d={d})",
    )


def covering_radii(r, v, d, b_c, e_max):
    """Gap-free layer plan from the exact annulus algebra.

    Layer i with scaled radius rh captures coarse dist^2 in
    [max(0, rh^2 - v), rh^2] exactly, so the still-uncovered region after it
    is dist < factor * (sqrt(rh^2 - v) + sqrt(d)).  Each layer's radius is
    sized to reach the previous layer's true inner edge, and the plan ends
    on a layer whose scaled radius fits the table outright (a full disk).
    """
    if b_c < 2:
        raise ConfigError("layered plan needs a coarsity base >= 2")
    root_d = math.sqrt(d)
    layers = [Layer(0, float(r), int(r), 1)]
    if r * r <= v:
        return tuple(layers)
    top = math.sqrt(r * r - v)  # points closer than this may have been missed
    i = 1
    while True:
        if i > e_max:
            raise QueryRejected(
                "radius-unsupported", f"radius {r} needs layer {i} > E_max = {e_max}"
            )
        factor = b_c**i
        scaled = math.ceil(top / factor + root_d - EPS)
        layers.append(Layer(i, top, scaled, factor))
        if scaled * scaled <= v:
            return tuple(layers)
        top = factor * (math.sqrt(scaled * scaled - v) + root_d)
        i += 1


def dist_squared(a, b, cols=None):
    """Integer squared distance, optionally over a subset of 1-based columns."""
    idx = range(len(a)) if cols is None else [c - 1 for c in cols]
    return sum((a[i] - b[i]) * (a[i] - b[i]) for i in idx)


def sphere_contains(coords, q, cols=None):
    return dist_squared(coords, q.center, cols) <= q.radius * q.radius


def range_contains(coords, rq):
    return rq.lo <= coords[rq.col - 1] <= rq.hi
