"""Compare a fast-suite run's report bytes with the recorded digests.

    sigma-lab run-all --suite fast --out OUT
    python tests/compare_fast_digests.py OUT

``fast_suite_digests.json`` holds the sha256 of ``report.csv`` and
``report.json`` at DEFAULT_SEED and the numpy version they were
recorded with; a change that moves report bytes on purpose records
them again.  The script prints a GitHub Actions ``::notice::`` when
both files match and a ``::warning::`` naming the installed numpy when
one does not.  It always exits 0: numpy is unpinned, and NEP 19 gives
its random streams no guarantee across versions.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def main(out: str) -> None:
    recorded = json.loads((Path(__file__).with_name("fast_suite_digests.json")).read_text(encoding="utf-8"))
    moved = [
        name
        for name, digest in recorded["sha256"].items()
        if hashlib.sha256((Path(out) / name).read_bytes()).hexdigest() != digest
    ]
    if moved:
        print(
            f"::warning::fast-suite bytes of {', '.join(moved)} differ from the digests recorded with numpy {recorded['numpy']};"
            f" installed numpy is {np.__version__}"
        )
    else:
        print(f"::notice::fast-suite report bytes equal the recorded digests (numpy {np.__version__})")


if __name__ == "__main__":
    main(sys.argv[1])
