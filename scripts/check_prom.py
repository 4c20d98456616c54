#!/usr/bin/env python3
"""Lint a Prometheus text exposition scraped from `/metrics`.

Applies the rules of the `prometheus_exposition_is_well_formed` unit test
(crates/telemetry/src/snapshot.rs) to real server output:

- every family opens with a `# HELP name text` line (non-empty text),
  then a `# TYPE name kind` line for the same name;
- the kind is `counter` or `gauge`, and counters end in `_total` or
  `_count`;
- metric names, label names and label sets are legal, and every sample
  line sits under its own family's preamble;
- no family and no series (name plus label set) appears twice, and every
  family has at least one sample;
- every value is a finite number, and counters are >= 0.

Usage: scripts/check_prom.py FILE...
Exit status: 0 = every file is well formed, 1 = a violation (printed).
"""

import math
import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL = r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"'
SAMPLE = re.compile(
    rf"(?P<name>{NAME})(?P<labels>\{{(?:{LABEL}(?:,{LABEL})*)?\}})? (?P<value>\S+)"
)


def check(path: str) -> None:
    """Lints one exposition; exits with a message on the first violation."""

    def fail(lineno: int, msg: str) -> None:
        sys.exit(f"check_prom: {path}:{lineno}: {msg}")

    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail(0, "empty exposition")
    families, series = set(), set()
    samples = 0
    i = 0
    while i < len(lines):
        help_line = lines[i]
        m = re.fullmatch(rf"# HELP ({NAME}) (\S.*)", help_line)
        if not m:
            fail(i + 1, f"expected a HELP line with text, got {help_line!r}")
        name = m.group(1)
        if name in families:
            fail(i + 1, f"duplicate family {name}")
        families.add(name)
        type_line = lines[i + 1] if i + 1 < len(lines) else ""
        m = re.fullmatch(rf"# TYPE {re.escape(name)} (\S+)", type_line)
        if not m:
            fail(i + 2, f"expected TYPE for {name}, got {type_line!r}")
        kind = m.group(1)
        if kind not in ("counter", "gauge"):
            fail(i + 2, f"family {name} has unknown type {kind}")
        if kind == "counter" and not name.endswith(("_total", "_count")):
            fail(i + 2, f"counter {name} lacks its _total/_count suffix")
        i += 2
        first = i
        while i < len(lines) and not lines[i].startswith("#"):
            line = lines[i]
            m = SAMPLE.fullmatch(line)
            if not m:
                fail(i + 1, f"malformed sample line {line!r}")
            if m["name"] != name:
                fail(i + 1, f"sample {m['name']} under the preamble of {name}")
            labels = re.findall(LABEL, m["labels"] or "")
            keys = [k for k, _ in labels]
            if len(set(keys)) != len(keys):
                fail(i + 1, f"repeated label name in {line!r}")
            key = (name, tuple(sorted(labels)))
            if key in series:
                fail(i + 1, f"duplicate series {line!r}")
            series.add(key)
            try:
                value = float(m["value"])
            except ValueError:
                fail(i + 1, f"non-numeric value in {line!r}")
            if not math.isfinite(value):
                fail(i + 1, f"non-finite value in {line!r}")
            if kind == "counter" and value < 0:
                fail(i + 1, f"negative counter in {line!r}")
            i += 1
        if i == first:
            fail(i, f"family {name} has no samples")
        samples += i - first
    print(f"check_prom: {path}: {len(families)} families, {samples} samples OK")


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit("usage: check_prom.py FILE...")
    for path in sys.argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
