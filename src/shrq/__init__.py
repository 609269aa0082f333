"""Encrypted hypersphere and range queries over an untrusted store.

A data owner encrypts a spatial table slot-by-slot under a composite-order
pairing scheme and uploads it, together with a hash lookup table, to a
server that evaluates encrypted sphere and range queries without learning
points, queries, or even the query type.
"""

__version__ = "0.1.0"
