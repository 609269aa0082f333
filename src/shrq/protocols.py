"""Setup and query orchestration for the three sphere protocols and ranges.

Protocol variants (DeploymentConfig.protocol) differ only in the plan,
the tuple of geometry.Layer a sphere query runs at:

    "c"  one coarse store per power-of-two level; the plan is coarse_layer's
         one layer, at the minimal level whose scaled radius fits the lookup
         table (scaled^2 <= v);
    "t"  is "c" at E_max = 0: one store, and the plan is one layer at
         factor 1 with the radius capped at sqrt(v);
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

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .ces import (
    LAYOUT_UNIFIED,
    create_lookup_table,
    layout_len,
    query_encrypt,
    tuple_encrypt,
)
from .errors import (
    ConfigError,
    DataIntegrityError,
    DuplicateIdError,
    IngestionError,
    NotFoundError,
    ProtocolError,
    QueryRejected,
)
from .geometry import (
    RangeQuery,
    SphereQuery,
    coarse_layer,
    coarse_transform,
    coarsity_base,
    covering_radii,
    make_data_component,
    make_sphere_query_component,
    range_contains,
    range_to_sphere,
    sphere_contains,
    validate_point,
)
from .pairing import CURVE_A1, Record
from .server import REPLIES, b64d, b64e, hello_message, lookup_message, store_message, tuple_message

PROTOCOL_TABLE = "t"
PROTOCOL_COARSE = "c"
PROTOCOL_LAYERED = "l"

_NONCE_LEN = 12


class DeploymentConfig(Record):
    """The one home of the deployment's layout, d, v, x_max and level
    factors; make_config validates it."""

    __slots__ = ("protocol", "layout", "d", "v", "x_max", "e_max", "backend")

    @property
    def b_c(self):
        """The layered protocol's coarsity base, None for the others."""
        return coarsity_base(self.v, self.d) if self.protocol == PROTOCOL_LAYERED else None

    @property
    def levels(self):
        return self.e_max + 1

    @property
    def factors(self):
        """Level i's coarsity factor, b_c**i for "l" and 2**i otherwise, for storage and plans alike."""
        base = self.b_c if self.protocol == PROTOCOL_LAYERED else 2
        return tuple(base**level for level in range(self.levels))


def make_config(protocol, d, v, x_max, e_max=0, backend=CURVE_A1, layout=LAYOUT_UNIFIED):
    """Validate and derive the deployment parameters."""
    if protocol not in (PROTOCOL_TABLE, PROTOCOL_COARSE, PROTOCOL_LAYERED):
        raise ConfigError(f"unknown protocol {protocol!r} (expected t, c or l)")
    if d < 1 or v < 0 or x_max < 1:
        raise ConfigError("need d >= 1, v >= 0, x_max >= 1")
    layout_len(layout, d)  # rejects an unknown layout
    if protocol == PROTOCOL_TABLE:
        if e_max != 0:
            raise ConfigError("single-table protocol has exactly one level (E_max = 0)")
    elif e_max < 0:
        raise ConfigError("E_max must be non-negative")
    if protocol == PROTOCOL_LAYERED:
        coarsity_base(v, d)  # rejects a base below 2
    return DeploymentConfig(protocol, layout, d, v, x_max, e_max, backend)


class ResultSet(Record):
    """Validated query answer: (id, point) pairs sorted by id, deduplicated."""

    __slots__ = ("records",)

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
        aad = rid.encode("utf-8", "surrogatepass")  # an id no write could use fails as a forgery
        payload = AESGCM(sk.aes_key).decrypt(blob[:_NONCE_LEN], blob[_NONCE_LEN:], aad)
    except InvalidTag:
        raise DataIntegrityError(f"record {rid!r}: AES authentication failed") from None
    return tuple(json.loads(payload)["coords"])


# -- wire helpers -------------------------------------------------------------


def _send(server, msg):
    """The server's reply to msg, checked here alone: a JSON object of the type
    and exactly the fields that REPLIES gives msg's type, each of its JSON type.
    An error reply raises: DuplicateIdError for a duplicate id, else ProtocolError."""
    reply = server.request(msg)
    if type(reply) is dict and reply.get("type") == "error":
        text = reply.get("error")
        if not isinstance(text, str):
            raise ProtocolError(f"malformed reply from the server: error is {text!r}")
        if "duplicate id" in text:
            raise DuplicateIdError(text)
        raise ProtocolError(f"server error: {text}")
    rtype, fields = REPLIES[msg["type"]]
    if type(reply) is not dict or reply.get("type") != rtype or not reply.keys() <= {"type", *fields}:
        article = "an" if rtype == "ack" else "a"
        raise ProtocolError(f"malformed reply from the server: {msg['type']} got {reply!r}, not {article} {rtype}")
    for name, kind in fields.items():
        if type(reply.get(name)) is not kind:  # a missing field is None, and a bool is no int
            raise ProtocolError(f"malformed reply from the server: {name} is {reply.get(name)!r}")
    return reply


def record_id(rid):
    """rid as a str with no surrogate, so that it encodes as UTF-8 (its blob's AAD)."""
    rid = str(rid)
    if any("\ud800" <= ch <= "\udfff" for ch in rid):
        raise IngestionError(f"record id {rid!r} is not UTF-8 text")
    return rid


def point_messages(config, sk, rid, coords, rng=None):
    """db-store blob plus one encrypted tuple per coarsity level."""
    rid = record_id(rid)
    coords = validate_point(coords, config.d, config.x_max, label=rid)
    msgs = [store_message(rid, encrypt_record(sk, rid, coords))]
    for level, factor in enumerate(config.factors):
        comp = make_data_component(coarse_transform(coords, factor), config.layout)
        msgs.append(tuple_message(sk.group, level, rid, tuple_encrypt(sk, comp, rng=rng)))
    return msgs


def setup_messages(config, sk, dataset, rng=None):
    """The full upload stream: hello, lookup table, then every record (the server refuses a repeated id)."""
    yield hello_message(sk.group.params.describe(), config.levels)
    yield lookup_message(create_lookup_table(sk, config.v))
    for rid, coords in dataset:
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
    if not _send(server, {"type": "delete", "id": str(rid)})["found"]:
        raise NotFoundError(f"record id {rid!r} not present")


def update_point(config, sk, rid, coords, server, rng=None):
    """Replace rid's point; a point that fails validation leaves the record."""
    validate_point(coords, config.d, config.x_max, label=record_id(rid))
    delete_point(config, sk, rid, server)
    insert_point(config, sk, rid, coords, server, rng=rng)


# -- query pipeline -------------------------------------------------------------


def plan_sphere(config, sk, query, col=None):
    """Check a sphere query against the deployment, without any I/O, and
    return the layers it runs at; every layer passes the wrap guard, which
    cannot fire for t or c, whose scaled r^2 <= v < q2 - margin."""
    if len(query.center) != config.d:
        raise ConfigError(f"center has {len(query.center)} coordinates, the key has d={config.d}")
    if any(type(v) is not int for v in (*query.center, query.radius)):  # int() would truncate 0.5
        raise ConfigError(f"sphere {query.center}, r={query.radius!r} needs integer centre and radius")
    for c in query.center:
        if not 0 <= c <= config.x_max:
            raise QueryRejected("center-out-of-domain", f"center coordinate {c} outside [0, {config.x_max}]")
    active = config.d if col is None else 1
    if config.protocol == PROTOCOL_LAYERED:
        plan = covering_radii(query.radius, config.v, active, config.factors)
    else:
        plan = (coarse_layer(query.radius, config.v, active, config.factors),)
    # dot values live mod q2; a layer radius whose square reaches the
    # margin would let in-range residues collide with out-of-range dots
    limit = sk.group.params.q2 - (config.v + config.d * config.x_max * config.x_max)
    for layer in plan:
        if layer.scaled_radius * layer.scaled_radius >= limit:
            raise QueryRejected(
                "radius-unsupported", f"radius {layer.scaled_radius} would wrap dot values modulo q2"
            )
    return plan


def plan_range(config, sk, rq):
    """Clamp a range to the domain, round it inward to its integers and plan
    it as a one-column sphere; returns (sphere, plan), or (None, ()) if empty."""
    if config.layout != LAYOUT_UNIFIED:
        raise ConfigError("range queries need a unified-layout deployment")
    if rq.col > config.d:
        raise ConfigError(f"column {rq.col} exceeds dimension count {config.d}")
    lo, hi = max(rq.lo, 0), min(rq.hi, config.x_max)
    if lo <= hi:  # so both are finite
        lo, hi = math.ceil(lo), math.floor(hi)
    if lo > hi:
        return None, ()
    sphere = range_to_sphere(RangeQuery(rq.col, lo, hi), config.d)
    return sphere, plan_sphere(config, sk, sphere, col=rq.col)


def query_message(config, sk, comp, level):
    return {
        "type": "query",
        "level": level,
        "slots": [b64e(sk.group.canonical_bytes(s)) for s in query_encrypt(sk, comp, config.d)],
    }


def _execute(config, sk, server, sphere, plan, col):
    """Run every planned layer, union the matches by id (first blob wins)."""
    raw = {}
    for layer in plan:
        coarse = SphereQuery(coarse_transform(sphere.center, layer.factor), layer.scaled_radius)
        comp = make_sphere_query_component(coarse, config.layout, col)
        matches = _send(server, query_message(config, sk, comp, layer.index))["matches"]
        if not all(isinstance(m, dict) and isinstance(m.get("id"), str) and isinstance(m.get("blob"), str)
                   for m in matches):
            raise ProtocolError("malformed reply from the server: matches are not [{id, blob}] strings")
        for match in matches:
            raw.setdefault(match["id"], match["blob"])
    return raw


def validate(raw_records, predicate):
    """Keep exactly the records satisfying the original integer predicate."""
    kept = [(rid, coords) for rid, coords in raw_records if predicate(coords)]
    kept.sort(key=lambda item: item[0])
    return ResultSet(kept)


def _decrypt_all(sk, raw):
    return [(rid, decrypt_record(sk, rid, b64d(blob))) for rid, blob in raw.items()]


def query_sphere(config, sk, query, server):
    """Full sphere pipeline: plan, encrypt, execute, decrypt, validate."""
    plan = plan_sphere(config, sk, query)
    raw = _execute(config, sk, server, query, plan, None)
    return validate(_decrypt_all(sk, raw), lambda coords: sphere_contains(coords, query))


def query_range(config, sk, rq, server):
    """Range pipeline: clamp to the domain, run as a one-column sphere, trim
    the odd-width over-cover during validation.  Clamping and rounding keep
    membership of in-domain points, so validation tests the range as given."""
    sphere, plan = plan_range(config, sk, rq)
    raw = _execute(config, sk, server, sphere, plan, rq.col)
    return validate(_decrypt_all(sk, raw), lambda coords: range_contains(coords, rq))
