"""Plaintext reference predicates for sphere and range queries.

Each computes the exact answer from the plaintext points in the distance
form: integer dist^2 <= r^2 for a sphere, lo <= m_col <= hi for a range.
The CLI's oracle commands and the benchmark check encrypted answers
against them.
"""

from .geometry import range_contains, sphere_contains


def hrq_oracle(dataset, query, cols=None):
    """ids of points inside the sphere: integer dist^2 <= r^2."""
    return {rid for rid, coords in dataset if sphere_contains(coords, query, cols)}


def range_oracle(dataset, rq):
    """ids of points with lo <= m_col <= hi."""
    return {rid for rid, coords in dataset if range_contains(coords, rq)}
