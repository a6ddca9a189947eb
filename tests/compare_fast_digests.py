"""Compare a suite run's report bytes with the recorded digests.

    sigma-lab run-all --suite fast --out OUT
    python tests/compare_fast_digests.py OUT
    sigma-lab run-all --suite full --out OUT
    python tests/compare_fast_digests.py OUT tests/full_suite_digests.json

The digest file (``fast_suite_digests.json`` beside this script unless
one is given) holds the sha256 of ``report.csv`` and ``report.json``
at DEFAULT_SEED, one sha256 over the curve files under ``curves/``,
and the numpy version they were recorded with; a change that moves
report bytes on purpose records them again.  The curves digest is the
sha256 of their ``sha256sum`` listing in name order, what
``(cd OUT/curves && LC_ALL=C sha256sum *) | sha256sum`` prints.  The
script prints a GitHub Actions ``::notice::`` when all three match
and a ``::warning::`` naming the installed numpy when one does not.
It always exits 0: numpy is unpinned, and NEP 19 gives its random
streams no guarantee across versions.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def digest(out: Path, name: str) -> str:
    """The sha256 of a report file, or of the listing of ``curves/``."""
    if name != "curves/":
        return hashlib.sha256((out / name).read_bytes()).hexdigest()
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in sorted((out / name).iterdir()))
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def main(out: str, digests: str | None = None) -> None:
    path = Path(digests) if digests else Path(__file__).with_name("fast_suite_digests.json")
    recorded = json.loads(path.read_text(encoding="utf-8"))
    moved = [name for name, value in recorded["sha256"].items() if digest(Path(out), name) != value]
    if moved:
        print(
            f"::warning::report bytes of {', '.join(moved)} differ from {path.name}, recorded with numpy {recorded['numpy']};"
            f" installed numpy is {np.__version__}"
        )
    else:
        print(f"::notice::report bytes equal {path.name} (numpy {np.__version__})")


if __name__ == "__main__":
    main(*sys.argv[1:3])
