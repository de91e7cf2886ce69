"""``fratio rdcodec roundtrip`` stdout, pinned byte for byte.

``data/pinned_rdcodec.json`` holds the argv and stdout of roundtrips on
dft:4096, wht:12, gabor:N=64,T=64 and haar:4096, for ``sparse:3`` and
``random`` signals at eps 0.8 and 0.2, plus dft:1, whose bit account has
null ``bound_terms``.  The report carries k, the byte count, every part of
the bit account and the distortion, so the codec must reproduce each one.
"""
import json
from pathlib import Path

import pytest

from fratio.cli import main

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_rdcodec.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=lambda c: " ".join(c["argv"][2:]))
def test_roundtrip_stdout_is_pinned(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
