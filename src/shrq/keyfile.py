"""Owner-side key file: JSON serialization plus load-time consistency checks.

The file holds everything the owner needs to reopen a deployment: group
primes, generators, blinding vectors, long-term scalars and the AES key
(the secret key), the deployment configuration (layout, d, v, x_max,
protocol, E_max, b_c), and the coordinate offset applied at ingestion:
null until the key's first upload records it (see cli), and None as
load_keyfile returns it, so saving a loaded key writes the same bytes.
It is written through the server module's write_durably, as the state log's
snapshot is, and its base64 fields are read strictly, as on the wire.
Loading re-derives s = g^q1 and h = u^q2, neither the identity, and A.B = 0
mod q1, and rebuilds the deployment through protocols.make_config, as `shrq
keygen` builds it, so a tampered field fails closed instead of silently
corrupting queries.
"""

import json

from .ces import SecretKey, layout_len, margin_bound
from .errors import KeyfileError
from .pairing import group_from_descriptor
from .protocols import make_config
from .server import b64d, b64e, write_durably


def save_keyfile(path, sk, config, offsets=None):
    """Write the key file with write_durably: atomically and readable by its
    owner alone, as it holds q1, q2, alpha, beta and the AES key."""
    group = sk.group
    params = group.params
    doc = {
        "lambda": params.q1.bit_length(),  # for readers; load does not read it
        **params.describe(),
        "q1": str(params.q1),
        "q2": str(params.q2),
        "g": b64e(group.canonical_bytes(sk.g)),
        "u": b64e(group.canonical_bytes(sk.u)),
        "s": b64e(group.canonical_bytes(sk.s)),
        "h": b64e(group.canonical_bytes(sk.h)),
        "A": [str(a) for a in sk.A],
        "B": [str(b) for b in sk.B],
        "alpha": str(sk.alpha),
        "beta": str(sk.beta),
        "aes_key": b64e(sk.aes_key),
        "layout": config.layout,
        "d": config.d,
        "v": config.v,
        "x_max": config.x_max,
        "protocol": config.protocol,
        "e_max": config.e_max,
        "b_c": config.b_c,
        "offset": None if offsets is None else list(offsets),
    }
    write_durably(path, [json.dumps(doc, indent=1) + "\n"])


def load_keyfile(path):
    """Returns (sk, config, offsets), the offsets None until the key's first
    upload records them; raises KeyfileError on any inconsistency."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise KeyfileError(f"cannot read key file {path}: {exc}") from None
    try:
        return _parse(doc)
    except KeyfileError:
        raise
    except Exception as exc:
        raise KeyfileError(f"invalid key file: {exc}") from None


def _parse(doc):
    # the group descriptor's fields sit at the top level of the key file
    group = group_from_descriptor(doc, int(doc["q1"]), int(doc["q2"]))
    params = group.params
    config = make_config(
        doc["protocol"], int(doc["d"]), int(doc["v"]), int(doc["x_max"]), int(doc["e_max"]),
        params.backend, doc["layout"],
    )
    if config.b_c != doc["b_c"]:
        raise KeyfileError("key file inconsistent: stored coarsity base is wrong")
    g = group.decode(b64d(doc["g"]))
    u = group.decode(b64d(doc["u"]))
    s = group.decode(b64d(doc["s"]))
    h = group.decode(b64d(doc["h"]))
    if group.pow(g, params.q1) != s:
        raise KeyfileError("key file inconsistent: s != g^q1")
    if group.pow(u, params.q2) != h:
        raise KeyfileError("key file inconsistent: h != u^q2")
    if group.is_identity(s) or group.is_identity(h):  # given the two above, s has order q2 and h order q1
        raise KeyfileError("key file inconsistent: s or h is the identity")

    A = [int(a) for a in doc["A"]]
    B = [int(b) for b in doc["B"]]
    if len(A) != layout_len(config.layout, config.d) or len(B) != len(A):
        raise KeyfileError("key file inconsistent: vector length does not match layout")
    if sum(a * b for a, b in zip(A, B)) % params.N % params.q1 != 0:
        raise KeyfileError("key file inconsistent: A.B is not a multiple of q1")

    alpha, beta = int(doc["alpha"]), int(doc["beta"])
    if alpha % params.q2 == 0:
        raise KeyfileError("key file inconsistent: alpha vanishes mod q2")
    if params.q2 <= margin_bound(config.d, config.v, config.x_max):
        raise KeyfileError("key file inconsistent: correctness margin violated")
    aes_key = b64d(doc["aes_key"])
    if len(aes_key) != 32:
        raise KeyfileError("key file inconsistent: AES key must be 32 bytes")

    offsets = None if doc["offset"] is None else [int(o) for o in doc["offset"]]
    if offsets is not None and len(offsets) != config.d:
        raise KeyfileError("key file inconsistent: offset length != d")
    return SecretKey(group, g, u, s, h, A, B, alpha, beta, aes_key), config, offsets
