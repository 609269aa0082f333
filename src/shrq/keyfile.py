"""Owner-side key file: JSON serialization plus load-time consistency checks.

The file holds everything the owner needs to reopen a deployment: group
primes, generators, blinding vectors, long-term scalars, the AES key, the
layout/protocol configuration, and the coordinate offset applied at
ingestion.  Loading re-derives s = g^q1, h = u^q2 and A.B = 0 mod q1, and
rebuilds the deployment through protocols.make_config, as keygen does, so a
tampered field fails closed instead of silently corrupting queries.
"""

import base64
import json

from .ces import SecretKey, layout_len, margin_bound
from .errors import KeyfileError
from .pairing import group_from_descriptor
from .protocols import make_config


def save_keyfile(path, sk, config, offsets=None):
    group = sk.group
    params = group.params
    doc = {
        "lambda": params.lambda_bits,
        **params.describe(),
        "q1": str(params.q1),
        "q2": str(params.q2),
        "g": base64.b64encode(group.canonical_bytes(sk.g)).decode(),
        "u": base64.b64encode(group.canonical_bytes(sk.u)).decode(),
        "s": base64.b64encode(group.canonical_bytes(sk.s)).decode(),
        "h": base64.b64encode(group.canonical_bytes(sk.h)).decode(),
        "A": [str(a) for a in sk.A],
        "B": [str(b) for b in sk.B],
        "alpha": str(sk.alpha),
        "beta": str(sk.beta),
        "aes_key": base64.b64encode(sk.aes_key).decode(),
        "layout": sk.layout,
        "d": sk.d,
        "v": sk.v,
        "x_max": sk.x_max,
        "protocol": config.protocol,
        "e_max": config.e_max,
        "b_c": config.b_c,
        "offset": list(offsets) if offsets is not None else [0] * sk.d,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_keyfile(path):
    """Returns (sk, config, offsets); raises KeyfileError on any inconsistency."""
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
    group = group_from_descriptor(doc, int(doc["lambda"]), int(doc["q1"]), int(doc["q2"]))
    params = group.params
    g = group.decode(base64.b64decode(doc["g"]))
    u = group.decode(base64.b64decode(doc["u"]))
    s = group.decode(base64.b64decode(doc["s"]))
    h = group.decode(base64.b64decode(doc["h"]))
    if group.pow(g, params.q1) != s:
        raise KeyfileError("key file inconsistent: s != g^q1")
    if group.pow(u, params.q2) != h:
        raise KeyfileError("key file inconsistent: h != u^q2")

    A = [int(a) for a in doc["A"]]
    B = [int(b) for b in doc["B"]]
    layout, d = doc["layout"], int(doc["d"])
    if len(A) != layout_len(layout, d) or len(B) != len(A):
        raise KeyfileError("key file inconsistent: vector length does not match layout")
    if sum(a * b for a, b in zip(A, B)) % params.N % params.q1 != 0:
        raise KeyfileError("key file inconsistent: A.B is not a multiple of q1")

    alpha, beta = int(doc["alpha"]), int(doc["beta"])
    if alpha % params.q2 == 0:
        raise KeyfileError("key file inconsistent: alpha vanishes mod q2")
    v, x_max = int(doc["v"]), int(doc["x_max"])
    if params.q2 <= margin_bound(d, v, x_max):
        raise KeyfileError("key file inconsistent: correctness margin violated")
    aes_key = base64.b64decode(doc["aes_key"])
    if len(aes_key) != 32:
        raise KeyfileError("key file inconsistent: AES key must be 32 bytes")

    sk = SecretKey(group, g, u, s, h, A, B, alpha, beta, aes_key, layout, d, v, x_max)

    config = make_config(doc["protocol"], d, v, x_max, int(doc["e_max"]), params.backend, layout)
    if (config.protocol, config.b_c) != (doc["protocol"], doc["b_c"]):
        raise KeyfileError("key file inconsistent: stored protocol or coarsity base is wrong")

    offsets = [int(o) for o in doc["offset"]]
    if len(offsets) != d:
        raise KeyfileError("key file inconsistent: offset length != d")
    return sk, config, offsets
