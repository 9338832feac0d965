"""The traced benchmark's hook points exist and are put back after a run."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from perfbench.tracing import Tracer  # noqa: E402
from toscert import certify, lqrdemo, sdpcore, tos  # noqa: E402


def _attributes():
    owners = (certify, lqrdemo, sdpcore, tos, tos.IterateTrace)
    return {(owner.__name__, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_tracer_install_and_restore():
    before = _attributes()
    tracer = Tracer()
    try:
        tracer.install()
        patched = {key for key, value in _attributes().items()
                   if value is not before[key]}
    finally:
        tracer.restore()
    assert {"solve_sdp", "max_eig", "build_w2", "certify_linear_rate",
            "run", "to_csv", "assemble_oracles"} <= {n for _, n in patched}
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
