"""Setup and query orchestration for the three sphere protocols and ranges.

Protocol variants (DeploymentConfig.protocol) differ only in the plan,
the tuple of geometry.Layer a sphere query runs at:

    "t"  one store; the plan is one layer at factor 1, radius capped at sqrt(v);
    "c"  one coarse store per power-of-two level; the plan is one layer at
         the minimal level whose transformed radius fits the lookup table;
    "l"  stores per power-of-b_c level; the plan is covering_radii's
         gap-free layers, and the union is deduplicated client-side.

plan_sphere and plan_range check a query against the deployment and plan
it without any I/O, so callers can reject a query before connecting; the
query functions run the same step before they send anything.  Every layer
is executed the same way, and every pipeline ends with client-side
validation against the original integer predicate, so the returned
ResultSet is exact regardless of how much the coarse execution over-covered.
"""

import json
import math
import secrets
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .ces import (
    HASH_ID,
    LAYOUT_UNIFIED,
    create_lookup_table,
    query_encrypt,
    tuple_encrypt,
)
from .errors import (
    ConfigError,
    DataIntegrityError,
    DuplicateIdError,
    NotFoundError,
    ProtocolError,
    QueryRejected,
    SetupError,
)
from .geometry import (
    EPS,
    Layer,
    RangeQuery,
    SphereQuery,
    coarse_transform,
    coarsity_base,
    covering_radii,
    make_data_component,
    make_sphere_query_component,
    range_contains,
    range_to_sphere,
    select_coarsity_exponent,
    sphere_contains,
    validate_point,
)
from .pairing import CURVE_A1
from .server import b64d, b64e, lookup_message, tuple_message

PROTOCOL_TABLE = "t"
PROTOCOL_COARSE = "c"
PROTOCOL_LAYERED = "l"

_NONCE_LEN = 12


@dataclass
class DeploymentConfig:
    protocol: str
    layout: str
    d: int
    v: int
    x_max: int
    e_max: int = 0
    b_c: int | None = None
    backend: str = CURVE_A1

    @property
    def levels(self):
        return self.e_max + 1

    def level_factor(self, level):
        if self.protocol == PROTOCOL_LAYERED:
            return self.b_c**level
        return 2**level


def make_config(protocol, d, v, x_max, e_max=0, backend=CURVE_A1, layout=LAYOUT_UNIFIED):
    """Validate and derive the deployment parameters."""
    protocol = protocol.lower()
    if protocol not in (PROTOCOL_TABLE, PROTOCOL_COARSE, PROTOCOL_LAYERED):
        raise ConfigError(f"unknown protocol {protocol!r} (expected t, c or l)")
    if d < 1 or v < 0 or x_max < 1:
        raise ConfigError("need d >= 1, v >= 0, x_max >= 1")
    if protocol == PROTOCOL_TABLE:
        if e_max != 0:
            raise ConfigError("single-table protocol has exactly one level (E_max = 0)")
    elif e_max < 0:
        raise ConfigError("E_max must be non-negative")
    b_c = coarsity_base(v, d) if protocol == PROTOCOL_LAYERED else None
    return DeploymentConfig(protocol, layout, d, v, x_max, e_max, b_c, backend)


@dataclass
class ResultSet:
    """Validated query answer: (id, point) pairs sorted by id, deduplicated."""

    records: list = field(default_factory=list)

    @property
    def ids(self):
        return {rid for rid, _ in self.records}

    def __len__(self):
        return len(self.records)


# -- record encryption (db-store blobs) --------------------------------------


def encrypt_record(sk, rid, coords):
    """AES-256-GCM blob = nonce || ciphertext || tag, id bound as AAD."""
    nonce = secrets.token_bytes(_NONCE_LEN)
    payload = json.dumps({"coords": list(coords)}).encode("utf-8")
    return nonce + AESGCM(sk.aes_key).encrypt(nonce, payload, rid.encode("utf-8"))


def decrypt_record(sk, rid, blob):
    if len(blob) < _NONCE_LEN + 16:
        raise DataIntegrityError(f"record {rid!r}: blob too short")
    try:
        payload = AESGCM(sk.aes_key).decrypt(blob[:_NONCE_LEN], blob[_NONCE_LEN:], rid.encode("utf-8"))
    except InvalidTag:
        raise DataIntegrityError(f"record {rid!r}: AES authentication failed") from None
    return tuple(json.loads(payload)["coords"])


# -- wire helpers -------------------------------------------------------------


def _send(server, msg):
    reply = server.request(msg)
    if reply.get("type") == "error":
        text = reply.get("error", "")
        if "duplicate id" in text:
            raise DuplicateIdError(text)
        raise ProtocolError(f"server error: {text}")
    return reply


def hello_message(config, descriptor):
    """Pin the group (a GroupParams.describe() output) and the level count."""
    backend = dict(descriptor)
    return {
        "type": "hello",
        "N": backend.pop("N"),
        "backend": backend,
        "hash": HASH_ID,
        "levels": config.levels,
    }


def point_messages(config, sk, rid, coords, rng=None):
    """db-store blob plus one encrypted tuple per coarsity level."""
    rid = str(rid)
    coords = validate_point(coords, config.d, config.x_max, label=rid)
    msgs = [{"type": "put_store", "id": rid, "blob": b64e(encrypt_record(sk, rid, coords))}]
    for level in range(config.levels):
        comp = make_data_component(
            coarse_transform(coords, config.level_factor(level)), config.layout
        )
        msgs.append(tuple_message(sk.group, level, rid, tuple_encrypt(sk, comp, rng=rng)))
    return msgs


def setup_messages(config, sk, dataset, rng=None):
    """The full upload stream: hello, lookup table, then every record."""
    yield hello_message(config, sk.group.params.describe())
    yield lookup_message(create_lookup_table(sk))
    seen = set()
    for rid, coords in dataset:
        rid = str(rid)
        if rid in seen:
            raise SetupError(f"duplicate record id {rid!r} in dataset")
        seen.add(rid)
        yield from point_messages(config, sk, rid, coords, rng=rng)


def run_setup(config, sk, dataset, server, rng=None):
    """Send the whole setup stream; returns the number of messages sent."""
    count = 0
    for msg in setup_messages(config, sk, dataset, rng=rng):
        _send(server, msg)
        count += 1
    return count


# -- dynamic updates -----------------------------------------------------------


def insert_point(config, sk, rid, coords, server, rng=None):
    for msg in point_messages(config, sk, rid, coords, rng=rng):
        _send(server, msg)


def delete_point(config, sk, rid, server):
    reply = _send(server, {"type": "delete", "id": str(rid)})
    if not reply.get("found"):
        raise NotFoundError(f"record id {rid!r} not present")


def update_point(config, sk, rid, coords, server, rng=None):
    delete_point(config, sk, rid, server)
    insert_point(config, sk, rid, coords, server, rng=rng)


# -- query pipeline -------------------------------------------------------------


def _wrap_guard(sk, scaled_radius):
    # dot values live mod q2; a layer radius whose square reaches the
    # margin would let in-range residues collide with out-of-range dots
    q2 = sk.group.params.q2
    limit = q2 - (sk.v + sk.d * sk.x_max * sk.x_max)
    if scaled_radius * scaled_radius >= limit:
        raise QueryRejected(
            "radius-unsupported", f"radius {scaled_radius} would wrap dot values modulo q2"
        )


def plan_sphere(config, sk, query, cols=None):
    """Check a sphere query against the deployment, without any I/O, and
    return the layers it runs at; every layer passes the wrap guard, which
    cannot fire for t or c, whose scaled r^2 <= v < q2 - margin."""
    for c in query.center:
        if not 0 <= c <= config.x_max:
            raise QueryRejected("center-out-of-domain", f"center coordinate {c} outside [0, {config.x_max}]")
    active = config.d if cols is None else len(set(cols))
    r, v = query.radius, config.v
    if config.protocol == PROTOCOL_TABLE:
        if r * r > v:
            raise QueryRejected(
                "radius-unsupported", f"r > sqrt(v): radius {r} exceeds sqrt({v})"
            )
        plan = (Layer(0, float(r), r, 1),)
    elif config.protocol == PROTOCOL_COARSE:
        e = select_coarsity_exponent(r, v, active, config.e_max)
        factor = 2**e
        # a coarse layer's radius absorbs the floor error of every active dim
        scaled = math.ceil(r / factor + math.sqrt(active) - EPS) if e else r
        plan = (Layer(e, float(r), scaled, factor),)
    else:
        plan = covering_radii(r, v, active, config.b_c, config.e_max)
    for layer in plan:
        _wrap_guard(sk, layer.scaled_radius)
    return plan


def plan_range(config, sk, rq):
    """Clamp a range to the domain and plan it as a one-column sphere;
    returns (sphere, plan), and an empty plan when nothing is left."""
    if config.layout != LAYOUT_UNIFIED:
        raise ConfigError("range queries need a unified-layout deployment")
    if rq.col > config.d:
        raise ConfigError(f"column {rq.col} exceeds dimension count {config.d}")
    lo, hi = max(rq.lo, 0), min(rq.hi, config.x_max)
    if lo > hi:
        return None, ()
    sphere = range_to_sphere(RangeQuery(rq.col, lo, hi), config.d)
    return sphere, plan_sphere(config, sk, sphere, cols=(rq.col,))


def query_message(sk, comp, level):
    return {
        "type": "query",
        "level": level,
        "slots": [b64e(sk.group.canonical_bytes(s)) for s in query_encrypt(sk, comp)],
    }


def _execute(config, sk, server, sphere, plan, cols):
    """Run every planned layer, union the matches by id (first blob wins)."""
    raw = {}
    for layer in plan:
        coarse = SphereQuery(coarse_transform(sphere.center, layer.factor), layer.scaled_radius)
        comp = make_sphere_query_component(coarse, config.layout, cols)
        reply = _send(server, query_message(sk, comp, layer.index))
        if reply.get("type") != "result":
            raise ProtocolError(f"unexpected reply {reply.get('type')!r}")
        for match in reply["matches"]:
            raw.setdefault(str(match["id"]), match["blob"])
    return raw


def validate(raw_records, predicate):
    """Keep exactly the records satisfying the original integer predicate."""
    kept = [(rid, coords) for rid, coords in raw_records if predicate(coords)]
    kept.sort(key=lambda item: item[0])
    return ResultSet(kept)


def _decrypt_all(sk, raw):
    return [(rid, decrypt_record(sk, rid, b64d(blob))) for rid, blob in raw.items()]


def query_sphere(config, sk, query, server, cols=None):
    """Full sphere pipeline: plan, encrypt, execute, decrypt, validate."""
    plan = plan_sphere(config, sk, query, cols)
    raw = _execute(config, sk, server, query, plan, cols)
    return validate(_decrypt_all(sk, raw), lambda coords: sphere_contains(coords, query, cols))


def query_range(config, sk, rq, server):
    """Range pipeline: clamp to the domain, run as a one-column sphere, trim
    the odd-width over-cover during validation.  Clamping keeps membership
    of in-domain points, so validation tests the range as given."""
    sphere, plan = plan_range(config, sk, rq)
    raw = _execute(config, sk, server, sphere, plan, cols=(rq.col,))
    return validate(_decrypt_all(sk, raw), lambda coords: range_contains(coords, rq))
