"""Call digests: the interner's value is ``blake2b(name || blob)`` to 64
bits, little-endian, and computing it never loads OpenSSL.

``repro.core.digests`` takes ``blake2b`` from the built-in ``_blake2``
module instead of ``hashlib``; the reference test pins the result to
``hashlib``'s, and the subprocess test checks that a whole distributed
run leaves ``_hashlib`` (and with it ``libcrypto``) unloaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestInterner, intern_digest

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def reference(name: str, blob: bytes) -> int:
    digest = hashlib.blake2b(name.encode() + blob, digest_size=8).digest()
    return int.from_bytes(digest, "little")


SAMPLES = [
    ("read", b""),
    ("write", bytes(range(256))),
    ("openat", b"/etc/passwd\x00" + b"\x00" * 8),
    ("café", b"\xff" * 33),
    ("", b"x"),
]


class TestDigestReference:
    @pytest.mark.parametrize("name,blob", SAMPLES)
    def test_interner_matches_hashlib_blake2b(self, name, blob):
        interner = DigestInterner()
        assert interner.digest(name, blob) == reference(name, blob)
        # The cached path returns the same value.
        assert interner.digest(name, blob) == reference(name, blob)
        assert (interner.misses, interner.hits) == (1, 1)
        assert intern_digest(name, blob) == reference(name, blob)

    @given(st.text(max_size=16), st.binary(max_size=200))
    @settings(max_examples=100)
    def test_any_input_matches_hashlib_blake2b(self, name, blob):
        assert DigestInterner().digest(name, blob) == reference(name, blob)


_PROBE = """
import json
import sys

from repro.core import Level, ReMonConfig
from repro.core.digests import interner
from repro.dist import DistConfig, DistMvee
from repro.guest.program import Program


def main(ctx):
    for _ in range(5):
        _pid = yield ctx.sys.getpid()
        _now = yield from ctx.libc.clock_gettime()
    return 0


config = ReMonConfig(replicas=2, level=Level.NONSOCKET_RW, dist=DistConfig())
result = DistMvee(Program("probe", main), config).run(max_steps=20_000_000)
print(json.dumps({
    "exit_codes": result.exit_codes,
    "digests": interner.misses,
    "hashlib": sorted(m for m in sys.modules if "hashlib" in m),
}))
"""


def test_distributed_run_never_loads_openssl():
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit_codes"] == [0, 0]
    assert out["digests"] > 0, "the run computed no digest"
    assert out["hashlib"] == []
