"""The demos print every answer they reach: feasibility witnesses, the
synthesized and frozen schemes row by row, the Shannon bound with its
certificate, and oracle entropies.  Each demo's stdout is pinned by its
sha256, so a change that moves any of those answers shows here.  A demo
whose output changes on purpose gets its new digest in the same change."""

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_feasibility.py": "2c0cbedb51cfc7c72fbcc787ad7039e23686209a8584c54d65c2cc202dfdf406",
    "02_half_rate_synthesis.py": "5ce4433fe70bce373bf439bbe1d85975d2b0f99831869aecfc5e014295910f0b",
    "03_rate_two_fifths_scheme.py": "fa371736e80cb43208149286e4955b7184013a3a2e30d954c6aa23e438c4f3fc",
    "04_shannon_bound.py": "933eee603d1b8405170a30e29e5a134893a984dffd3317df1bb1abf65bbaa17d",
    "05_entropy_oracle.py": "9e93a2d1b2024234515714cad2fdd0c7e4e87c8ed9f9dee0956c5bb8967be814",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DIGESTS[name]


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)
