"""Seal-once digests: bit identity, charges, forgery, and tampering.

Sealing (``crypto/primitives.py``) must be *invisible* to the protocol:
identical digest values and identical simulated CPU charges to digesting
afresh on every call.  A forged copy still fails ``verify``.  A message is
immutable once built, and in-place tampering after it was sent is caught
by the mutation-after-send sanitizer — ``verify`` no longer re-checks a
sealed message against its fields.
"""

# lint: allow-file[P202] -- these tests tamper with frozen messages on
# purpose to prove the sanitizer and verify catch exactly that
from __future__ import annotations

import pytest

from repro.core.messages import Execute, RequestBody, RequestWrapper
from repro.crypto.costs import CostModel, use_cost_model
from repro.crypto.primitives import (
    attach_auth,
    cached_repr,
    cached_size_bytes,
    content_digest,
    digest,
    make_mac,
    make_mac_vector,
    sign,
    structural_digest,
    verify,
    verify_mac,
    verify_mac_vector,
)
from repro.errors import SimulationError
from repro.net import Network, Site, Topology, set_send_sanitizer
from repro.sim.core import Simulator
from repro.sim.node import Node


def _body(counter=1, operation=("put", "k", "v")):
    return RequestBody(operation=operation, client="c1", counter=counter)


class TestBitIdentity:
    def test_cached_digest_equals_uncached(self):
        body = _body()
        sealed = content_digest(body)
        sealed_again = content_digest(body)
        assert sealed == sealed_again == digest(body.signed_content())

    def test_repr_digest_equals_uncached(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        sealed = digest(wrapper)
        assert sealed == digest(wrapper) == structural_digest(wrapper)

    def test_equal_but_distinct_objects_share_digest_value(self):
        assert content_digest(_body()) == content_digest(_body())

    def test_cached_size_and_repr_match_plain(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        assert cached_size_bytes(wrapper) == wrapper.size_bytes()
        assert cached_repr(wrapper) == repr(wrapper)
        # and again, from the seal
        assert cached_size_bytes(wrapper) == wrapper.size_bytes()
        assert cached_repr(wrapper) == repr(wrapper)


class TestChargeParity:
    def test_cache_hits_charge_identical_hashing_cost(self):
        model = CostModel()  # full-cost model so hash charges are visible
        with use_cost_model(model):
            sim = Simulator(seed=1)
            body = _body()

            def charge_of(fn):
                node = Node(sim, "probe")
                node._pending_cost = 0.0
                import repro.sim.node as node_mod

                previous = node_mod._current
                node_mod._current = node
                try:
                    fn()
                finally:
                    node_mod._current = previous
                return node._pending_cost

            first = charge_of(lambda: content_digest(body))  # seals
            hit = charge_of(lambda: content_digest(body))  # reads the seal
            plain = charge_of(lambda: digest(body.signed_content()))
            assert first == hit == plain
            assert first > 0


def _tamper_field_rebind():
    body = _body()
    signature = sign("c1", body)
    assert verify(signature, body, signer="c1")  # content now sealed
    return body, "operation", ("put", "k", "EVIL")


def _tamper_true_for_one():
    # ``True == 1`` but their reprs differ.
    body = _body(counter=1)
    signature = sign("c1", body)
    assert verify(signature, body, signer="c1")
    return body, "counter", True


def _tamper_mac_and_vector():
    body = _body()
    mac = make_mac("a", "b", body)
    vector = make_mac_vector("a", ["b", "c"], body)
    assert verify_mac(mac, body, "a", "b")
    assert verify_mac_vector(vector, body, "a", "b")
    return body, "counter", 7


def _tamper_size_changing_body():
    wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
    cached_size_bytes(wrapper)
    cached_repr(wrapper)
    return wrapper, "body", _body(operation=("put", "k", "v" * 100))


def _tamper_attach_auth_copy():
    body = RequestWrapper(body=_body(), signature=None, group="g0")
    signature = sign("r1", body)  # seals the content carried to the copy
    message = attach_auth(body, signature=signature)
    assert verify(message.signature, message, signer="r1")
    return message, "group", "evil"


class _Sink(Node):
    def on_message(self, src, message):
        pass


@pytest.fixture
def armed_network():
    """A two-node network with the send sanitizer armed for the test."""
    previous = set_send_sanitizer(True)
    sim = Simulator(seed=3)
    network = Network(sim, Topology(), jitter=0.0)
    a = network.register(_Sink(sim, "a", Site("virginia", 1)))
    b = network.register(_Sink(sim, "b", Site("virginia", 2)))
    yield sim, network, a, b
    set_send_sanitizer(previous)


class TestByzantineMutation:
    def test_forged_copy_fails_verify(self):
        body = _body()
        signature = sign("c1", body)
        assert verify(signature, body, signer="c1")
        forged = RequestBody(
            operation=body.operation, client=body.client, counter=999
        )
        assert not verify(signature, forged, signer="c1")

    def test_tampered_before_first_digest_fails_verify(self):
        signature = sign("c1", _body())
        tampered = _body()
        object.__setattr__(tampered, "operation", ("put", "k", "EVIL"))
        assert not verify(signature, tampered, signer="c1")
        assert not verify_mac(make_mac("c1", "b", _body()), tampered, "c1", "b")

    @pytest.mark.parametrize(
        "prime",
        [
            _tamper_field_rebind,
            _tamper_true_for_one,
            _tamper_mac_and_vector,
            _tamper_size_changing_body,
            _tamper_attach_auth_copy,
        ],
        ids=["rebind", "true-for-one", "mac", "size", "attach-auth"],
    )
    def test_tamper_after_send_is_caught(self, armed_network, prime):
        """A sealed message rebound in flight is the sanitizer's to catch."""
        sim, network, a, b = armed_network
        message, field_name, value = prime()
        network.send(a, b, message)
        object.__setattr__(message, field_name, value)
        with pytest.raises(SimulationError, match="mutated after send"):
            sim.run()


class TestAttachAuth:
    def test_attach_auth_equivalent_to_replace(self):
        body = RequestWrapper(body=_body(), signature=None, group="g0")
        signature = sign("r1", body)
        message = attach_auth(body, signature=signature)
        assert message.signature is signature
        assert message.body is body.body and message.group == body.group
        assert message.signed_content() == body.signed_content()
        assert repr(message) != repr(body)  # signature shows in the repr
        assert verify(message.signature, message, signer="r1")

    def test_attach_auth_rejects_non_auth_fields(self):
        with pytest.raises(ValueError):
            attach_auth(_body(), counter=5)

    def test_execute_payload_digest_stable_through_cache(self):
        wrapper = RequestWrapper(body=_body(), signature=None, group="g0")
        execute = Execute(seq=3, request=wrapper)
        first = digest(execute)
        assert digest(execute) == first == structural_digest(execute)
