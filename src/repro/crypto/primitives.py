"""Structural signatures, MACs and digests.

A digest is a stable 64-bit integer computed from the ``repr`` of the signed
object; protocol messages are dataclasses with deterministic reprs, so equal
message contents produce equal digests across nodes, while a forged or
tampered copy of a message digests differently and fails verification.

Seal-once messages
------------------
Computing ``repr`` plus two CRC passes dominates the simulator's wall-clock
on crypto-heavy workloads, and the *same* frozen message is typically
digested many times (once per receiver, once per retransmission, once per
quorum check).  Frozen protocol messages therefore mix in
:class:`Digestible`, which makes them *seal once*: the repr digest, the
signed-content digest, the wire size and the repr string are each computed
the first time they are asked for and stored on the instance as seals,
which are never re-validated.  A message is immutable once built — lint
rule P202 forbids ``object.__setattr__`` outside this module, and the
mutation-after-send sanitizer (:func:`repro.net.set_send_sanitizer`)
catches in-flight tampering at runtime — so a seal can never go stale.
Byzantine behaviours that tamper with messages build a fresh copy
(``dataclasses.replace``), which starts unsealed.

A sealed value is bit-identical to the plain ``repr``-based digest, and the
simulated hashing cost is still charged **per call** (from the sealed
encoding length), so simulated time, reply traces and replay are exactly
what digesting afresh on every call would give — only wall-clock time
drops.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.crypto import costs as _costs
from repro.sim.node import charge

SIGNATURE_BYTES = 128  # 1024-bit RSA
MAC_BYTES = 32  # HMAC-SHA-256

_crc32 = zlib.crc32
_HIGH_SALT = 0x9E3779B9


class Digestible:
    """Marker mixin: a frozen dataclass that seals its digests once.

    Opting in promises that the object is immutable after construction
    (its fields are only ever replaced via ``dataclasses.replace``, which
    builds a fresh, unsealed copy) and — when it defines
    ``signed_content()`` — that authenticator fields (``signature`` /
    ``auth`` / ``mac``) are excluded from that content.  Field values must
    themselves be treated as frozen: a seal records the message as it was
    when first asked for and is never checked against the fields again.
    """

    __slots__ = ()


#: Instance-dict slots holding the seals: ``(digest, kb length)`` for the
#: two digests, the plain value for the wire size and the repr string.
_REPR_SEAL = "_seal_repr_digest"
_CONTENT_SEAL = "_seal_content_digest"
_SIZE_SEAL = "_seal_size_bytes"
_REPR_STR_SEAL = "_seal_repr_str"

#: Authenticator fields, excluded from ``signed_content()`` by convention
#: (attaching one keeps the content seal valid).
_AUTH_FIELDS = frozenset({"signature", "auth", "mac"})


def _crc64(data: bytes) -> int:
    # Two CRC passes with different salts give a cheap, stable 64-bit value.
    return (_crc32(data, _HIGH_SALT) << 32) | _crc32(data)


def _measure(text: str) -> Tuple[int, float]:
    """``(digest, kb length)`` of a repr string."""
    data = text.encode("utf-8", errors="replace")
    return _crc64(data), len(data) / 1024.0


def digest(obj: Any) -> int:
    """Stable digest of ``obj`` (charges hashing cost by object size)."""
    if isinstance(obj, Digestible):
        seal = obj.__dict__.get(_REPR_SEAL)
        if seal is None:
            seal = obj.__dict__[_REPR_SEAL] = _measure(repr(obj))
        value, kb = seal
    else:
        value, kb = _measure(repr(obj))
    charge(_costs._ACTIVE.hash_per_kb * kb)
    return value


def _signed_content(obj: Any) -> Any:
    return obj.signed_content() if hasattr(obj, "signed_content") else obj


def content_digest(obj: Any) -> int:
    """Digest of ``obj.signed_content()`` (of ``obj`` itself without one).

    Bit-identical to ``digest(obj.signed_content())`` — same encoding, same
    simulated hashing charge — but a :class:`Digestible` message builds and
    hashes its content tuple only once, however often it is authenticated.
    """
    if not isinstance(obj, Digestible):
        return digest(_signed_content(obj))
    seal = obj.__dict__.get(_CONTENT_SEAL)
    if seal is None:
        seal = obj.__dict__[_CONTENT_SEAL] = _measure(repr(_signed_content(obj)))
    value, kb = seal
    charge(_costs._ACTIVE.hash_per_kb * kb)
    return value


def _digest_of(obj: Any) -> int:
    """Digest used by the authentication primitives.

    A :class:`Digestible` message authenticates its ``signed_content()``
    (sealed); anything else — a raw content tuple, application state —
    digests by ``repr``.
    """
    if isinstance(obj, Digestible):
        return content_digest(obj)
    return digest(obj)


def structural_digest(obj: Any) -> int:
    """The exact value :func:`digest` computes, with **no CPU charge**.

    Local integrity checks on *stored* state (does this snapshot still
    hash to the digest recorded when it was written?) model a disk-level
    checksum, not a network-facing crypto operation.  Charging them would
    perturb simulated CPU interleavings on paths that predate the storage
    fault model — this helper keeps such checks byte-invisible.  It never
    reads a seal, which is what lets the send sanitizer catch tampering.
    Never use it for anything a remote party must not be able to forge.
    """
    return _crc64(repr(obj).encode("utf-8", errors="replace"))


def attach_auth(body: Any, **auth: Any) -> Any:
    """``dataclasses.replace(body, **auth)`` that keeps the content seal.

    The authenticator fields (``signature`` / ``auth`` / ``mac``) are excluded
    from ``signed_content()``, so the copy's content digest is identical to
    ``body``'s — carrying the seal over spares every receiver of the
    authenticated copy the first re-digest.  Only authenticator fields may be
    replaced through this helper.

    The copy itself bypasses ``__init__``: a frozen message's state lives
    entirely in its instance dict, so duplicating the dict and overwriting
    the authenticator field is equivalent to ``dataclasses.replace`` at a
    fraction of the cost.  Seals whose value depends on the authenticator
    (full-object repr/digest, wire size) are dropped from the copy.
    """
    if not _AUTH_FIELDS.issuperset(auth):
        raise ValueError(f"attach_auth only replaces authenticator fields, got {auth}")
    cls = body.__class__
    if not (isinstance(body, Digestible) and auth.keys() <= cls.__dataclass_fields__.keys()):
        return dataclass_replace(body, **auth)
    message = object.__new__(cls)
    state = message.__dict__
    state.update(body.__dict__)
    state.pop(_REPR_SEAL, None)
    state.pop(_SIZE_SEAL, None)
    state.pop(_REPR_STR_SEAL, None)
    state.update(auth)
    return message


def cached_size_bytes(message: Any) -> int:
    """``message.size_bytes()``, sealed once per :class:`Digestible` message.

    Wire sizes feed serialization and NIC delays on every send of the
    message.
    """
    size = message.__dict__.get(_SIZE_SEAL)
    if size is None:
        size = message.__dict__[_SIZE_SEAL] = message.size_bytes()
    return size


def cached_repr(obj: Any) -> str:
    """``repr(obj)``, sealed once per :class:`Digestible` message.

    Protocol components use message reprs as dedup keys.  No ``__repr__``
    may call this: the send sanitizer's :func:`structural_digest` must see
    every field as it is now, not as a seal recorded it.
    """
    if not isinstance(obj, Digestible):
        return repr(obj)
    text = obj.__dict__.get(_REPR_STR_SEAL)
    if text is None:
        text = obj.__dict__[_REPR_STR_SEAL] = repr(obj)
    return text


@dataclass(frozen=True)
class Signature:
    """A digital signature by ``signer`` over an object with ``object_digest``."""

    signer: str
    object_digest: int

    def size_bytes(self) -> int:
        return SIGNATURE_BYTES


def sign(signer: str, obj: Any) -> Signature:
    """Sign ``obj`` as principal ``signer`` (charges RSA signing cost).

    ``obj`` is either a content tuple or a :class:`Digestible` message,
    in which case its ``signed_content()`` is what gets signed.
    """
    charge(_costs._ACTIVE.rsa_sign)
    if isinstance(obj, Digestible):
        return Signature(signer=signer, object_digest=content_digest(obj))
    return Signature(signer=signer, object_digest=digest(obj))


def verify(
    signature: Optional[Signature],
    obj: Any,
    signer: Optional[str] = None,
    group: Optional[Iterable[str]] = None,
) -> bool:
    """Check a signature (charges RSA verification cost).

    ``signer`` pins the expected principal; ``group`` instead accepts any
    member of a set (the paper's ``valid_sig_E``).
    """
    charge(_costs._ACTIVE.rsa_verify)
    if signature is None:
        return False
    if signer is not None and signature.signer != signer:
        return False
    if group is not None and signature.signer not in group:
        return False
    if isinstance(obj, Digestible):
        return signature.object_digest == content_digest(obj)
    return signature.object_digest == digest(obj)


@dataclass(frozen=True)
class Mac:
    """A single HMAC authenticating ``obj`` from ``sender`` to ``receiver``."""

    sender: str
    receiver: str
    object_digest: int

    def size_bytes(self) -> int:
        return MAC_BYTES


def make_mac(sender: str, receiver: str, obj: Any) -> Mac:
    """The paper's ``mac_{a,e}(m)``."""
    charge(_costs._ACTIVE.hmac)
    return Mac(sender=sender, receiver=receiver, object_digest=_digest_of(obj))


def verify_mac(mac: Optional[Mac], obj: Any, sender: str, receiver: str) -> bool:
    charge(_costs._ACTIVE.hmac)
    if mac is None:
        return False
    if mac.sender != sender or mac.receiver != receiver:
        return False
    if isinstance(obj, Digestible):
        return mac.object_digest == content_digest(obj)
    return mac.object_digest == digest(obj)


@dataclass(frozen=True)
class MacVector:
    """A MAC vector authenticating ``obj`` from ``sender`` to a whole group.

    The paper's ``mac_{a,E}(m)``: one MAC per group member, so its wire size
    grows with the group.
    """

    sender: str
    macs: Tuple[Tuple[str, int], ...]  # (receiver, object_digest) pairs

    def size_bytes(self) -> int:
        return MAC_BYTES * max(1, len(self.macs))

    def receiver_digests(self) -> Dict[str, int]:
        """Receiver -> digest lookup table, built once per vector."""
        table = self.__dict__.get("_receiver_digests")
        if table is None:
            table = dict(self.macs)
            object.__setattr__(self, "_receiver_digests", table)
        return table


def make_mac_vector(sender: str, receivers: Iterable[str], obj: Any) -> MacVector:
    receivers = tuple(receivers)
    charge(_costs._ACTIVE.hmac * max(1, len(receivers)))
    obj_digest = _digest_of(obj)
    return MacVector(
        sender=sender, macs=tuple([(receiver, obj_digest) for receiver in receivers])
    )


def make_equivocating_mac_vector(
    sender: str, variants: Dict[str, Any]
) -> MacVector:
    """A MAC vector whose entries authenticate *different* objects.

    This is the authenticated-equivocation primitive: a Byzantine sender
    holds its own MAC keys, so nothing stops it from putting the digest of
    a different payload variant in each receiver's entry — every receiver
    then validates "its" variant as genuinely coming from ``sender``, yet
    no two receivers saw the same bytes.  (What the sender *cannot* do is
    forge entries for other principals' keys; this helper only models
    misuse of the sender's own.)  ``variants`` maps receiver name to the
    object that receiver's entry should authenticate.  Costs charge like
    an honest :func:`make_mac_vector` over the same group.
    """
    charge(_costs._ACTIVE.hmac * max(1, len(variants)))
    return MacVector(
        sender=sender,
        macs=tuple(
            (receiver, _digest_of(obj)) for receiver, obj in variants.items()
        ),
    )


def verify_mac_vector(
    vector: Optional[MacVector], obj: Any, sender: str, receiver: str
) -> bool:
    """Verify the entry for ``receiver`` in a MAC vector from ``sender``."""
    charge(_costs._ACTIVE.hmac)
    if vector is None or vector.sender != sender:
        return False
    macs = vector.macs
    if len(macs) <= 8:
        # Typical group sizes: a linear scan beats building a lookup table.
        expected = None
        for entry_receiver, entry_digest in macs:
            if entry_receiver == receiver:
                expected = entry_digest
                break
    else:
        expected = vector.receiver_digests().get(receiver)
    if expected is None:
        return False
    if isinstance(obj, Digestible):
        return expected == content_digest(obj)
    return expected == digest(obj)
