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

from .ces import LAYOUT_SHRQ, LAYOUT_UNIFIED, layout_len
from .errors import ConfigError, IngestionError, QueryRejected
from .pairing import Record

EPS = 1e-9


class SphereQuery(Record):
    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        if radius < 0:
            raise ConfigError("radius must be non-negative")
        super().__init__(center, radius)


class RangeQuery(Record):
    __slots__ = ("col", "lo", "hi")  # col is a 1-based dimension index

    def __init__(self, col, lo, hi):
        if lo > hi:
            raise ConfigError("range lower bound exceeds upper bound")
        if col < 1:
            raise ConfigError("column index is 1-based")
        super().__init__(col, lo, hi)


class Layer(Record):
    """A planned layer: its stored level index, its planning radius in base
    units, the integer scaled_radius in its coarse space, factor b_c^index."""

    __slots__ = ("index", "radius", "scaled_radius", "factor")


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
    if layout == LAYOUT_SHRQ:
        return coords + (1, sum(c * c for c in coords))
    if layout == LAYOUT_UNIFIED:
        return coords + (1,) + tuple(c * c for c in coords)
    raise ConfigError(f"unknown layout {layout!r}")


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
        return tuple(2 * c for c in center) + (q.radius * q.radius - norm, -1)
    if layout != LAYOUT_UNIFIED:
        raise ConfigError(f"unknown layout {layout!r}")
    entries = [0] * layout_len(layout, d)
    for i in cols:
        entries[i - 1] = 2 * center[i - 1]
        entries[d + i] = -1
    entries[d] = q.radius * q.radius - norm
    return tuple(entries)


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


def scaled_radius(r, factor, d):
    """Integer radius covering r in the coarse space of factor: r itself at
    factor 1, else r / factor padded by the floor error of d dimensions."""
    if factor == 1:
        return r
    return math.ceil(r / factor + math.sqrt(d) - EPS)


def coarse_layer(r, v, d, e_max):
    """The layer at the minimal base-2 level whose scaled radius fits the
    lookup table (scaled^2 <= v, an exact integer test)."""
    for e in range(e_max + 1):
        scaled = scaled_radius(r, 2**e, d)
        if scaled * scaled <= v:
            return Layer(e, float(r), scaled, 2**e)
    raise QueryRejected(
        "radius-unsupported",
        f"r > sqrt(v) at every level up to E_max = {e_max} (r={r}, v={v}, d={d})",
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
        scaled = scaled_radius(top, factor, d)
        layers.append(Layer(i, top, scaled, factor))
        if scaled * scaled <= v:
            return tuple(layers)
        top = factor * (math.sqrt(scaled * scaled - v) + root_d)
        i += 1


def dist_squared(a, b):
    """Integer squared distance."""
    return sum((a[i] - b[i]) * (a[i] - b[i]) for i in range(len(a)))


def sphere_contains(coords, q):
    return dist_squared(coords, q.center) <= q.radius * q.radius


def range_contains(coords, rq):
    return rq.lo <= coords[rq.col - 1] <= rq.hi
