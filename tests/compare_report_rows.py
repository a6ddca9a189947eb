"""Compare two reports' rows, keyed by (experiment, check).

    python tests/compare_report_rows.py BASE_OUT HEAD_OUT

Reads ``report.csv`` from both report directories and prints one GitHub
Actions ``::notice::`` per row that only the base has (removed), that
only the head has (added), or that both have with different cells
(moved, naming the columns that differ), then a summary line.  A row
keeps its key when rows around it come or go, so a dropped row does not
move every row after it.  It always exits 0: it reports a comparison
and is no gate.
"""

import csv
import sys
from pathlib import Path


def read_rows(out: str) -> tuple[list[str], dict[tuple[str, str], dict[str, str]]]:
    with (Path(out) / "report.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = {(row["experiment"], row["check"]): row for row in reader}
        return list(reader.fieldnames or ()), rows


def main(base_out: str, head_out: str) -> None:
    base_cols, base = read_rows(base_out)
    head_cols, head = read_rows(head_out)
    if base_cols != head_cols:
        print(f"::notice::report.csv header differs: base {base_cols}, head {head_cols}")
    removed = [key for key in base if key not in head]
    added = [key for key in head if key not in base]
    moved = {}
    for key in base.keys() & head.keys():
        cols = [col for col in head_cols if base[key].get(col) != head[key].get(col)]
        if cols:
            moved[key] = cols
    for label, keys in (("removed", removed), ("added", added)):
        for experiment, check in keys:
            print(f"::notice::{label} row {experiment}/{check}")
    for (experiment, check), cols in sorted(moved.items()):
        print(f"::notice::moved row {experiment}/{check}: {', '.join(cols)}")
    print(
        f"::notice::report.csv: {len(base)} base rows, {len(head)} rows;"
        f" {len(removed)} removed, {len(added)} added, {len(moved)} moved"
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
