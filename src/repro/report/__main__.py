"""``python -m repro.report FILE...`` -- validate ``BENCH_*.json`` artifacts.

Prints one ``<file>: <kind> schema <version> ok`` line per valid file and
exits 1 on the first violation (CI's perf-smoke job runs it over every
freshly benched artifact), or 2 when no file is named.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .schemas import SchemaError, validate_bench_file


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.report FILE...", file=sys.stderr)
        return 2
    for name in argv:
        try:
            payload = validate_bench_file(name)
        except SchemaError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"{name}: {payload['benchmark']} schema {payload['schema']} ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - run as a subprocess by the tests
    sys.exit(main())
