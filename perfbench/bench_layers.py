"""Fold a cProfile of ``sim.run`` into per-layer host self time.

A layer is a ``repro.<package>`` module.  Each profiled function's self
time goes to the package whose file defines it.  The benchmark's own
load-driving callbacks (this directory) count as ``workload``: they are
the generator side of the run, like :mod:`repro.workload`.  Built-ins and
other non-``repro`` code (the standard library, dataclass-generated
``__init__``) have no layer of their own; their self time is split over
their direct callers with the per-caller times ``pstats`` records, and
whatever cannot be attributed that way (callers outside every layer)
lands in ``other``.  The layers plus ``other`` partition the profile's
total self time exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: layers reported by name; any other ``repro`` package folds into other.
LAYERS = (
    "crypto",
    "sim",
    "irmc",
    "net",
    "consensus",
    "core",
    "app",
    "deploy",
    "checkpoints",
    "elastic",
    "workload",
)

#: crypto primitives counted per op, by the counter they feed.
CRYPTO_CALLS = {
    "crypto.sign_calls_per_op": ("sign", "sign_share"),
    "crypto.verify_calls_per_op": ("verify", "verify_threshold"),
    "crypto.mac_calls_per_op": (
        "make_mac",
        "verify_mac",
        "make_mac_vector",
        "verify_mac_vector",
    ),
    "crypto.digest_calls_per_op": ("digest", "content_digest"),
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer defining code in ``filename``; ``None`` for foreign code."""
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "workload"
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    package = filename[at + len(_MARKER):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def fold(stats) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """``(self_s per layer incl. other, calls per layer, total self_s)``.

    ``stats`` is a :class:`pstats.Stats`; its ``stats`` mapping is
    ``(file, line, name) -> (primitive calls, calls, self, cumulative,
    callers)`` where each caller maps to its own ``(.., .., self, ..)``
    share of the callee.
    """
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0 for layer in LAYERS + ("other",)}
    total = 0.0
    for (filename, _line, _name), (_cc, ncalls, tt, _ct, callers) in stats.stats.items():
        total += tt
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += ncalls
            continue
        attributed = 0.0
        for (caller_file, _l, _n), caller_share in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer is not None:
                self_s[caller_layer] += caller_share[2]
                calls[caller_layer] += caller_share[1]
                attributed += caller_share[2]
        self_s["other"] += tt - attributed
    return self_s, calls, total


def crypto_calls(stats) -> Dict[str, int]:
    """Exact call counts of the crypto primitives, by counter name."""
    counts = {counter: 0 for counter in CRYPTO_CALLS}
    for (filename, _line, name), (_cc, ncalls, _tt, _ct, _callers) in stats.stats.items():
        if layer_of(filename) != "crypto":
            continue
        for counter, names in CRYPTO_CALLS.items():
            if name in names:
                counts[counter] += ncalls
    return counts
