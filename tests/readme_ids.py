"""The relation ids the README tables document, and how an id matches a row.

A row is an id prefix with its key fields: a field written name=value must
appear in the id as written, a field written name matches name=<any value>.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_rows(families: str) -> list:
    """The table rows whose id starts with one of the |-joined families."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^\| `((?:{families})\.[^`]*)` \|", text, re.M)


def matches(row: str, rid: str) -> bool:
    rf, idf = row.split("."), rid.split(".")
    return len(rf) == len(idf) and all(
        r == i or ("=" not in r and i.split("=")[0] == r) for r, i in zip(rf, idf))


def unmatched(rows: list, ids: list) -> tuple:
    """(ids that match no row, rows that match no id)."""
    return ([rid for rid in ids if not any(matches(row, rid) for row in rows)],
            [row for row in rows if not any(matches(row, rid) for rid in ids)])
