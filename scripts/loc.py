#!/usr/bin/env python3
"""Print the non-test Rust line count per crate and in total.

Counts every line of each `crates/*/src/**/*.rs` file up to the file's
first line starting with `#[cfg(test)]` (inline unit-test modules sit at
the end of a file by convention). Integration tests, benches, examples,
`third_party/` and `perfbench/` live outside `crates/*/src` and are not
counted.

Usage: python3 scripts/loc.py [repo-root]
"""

import pathlib
import sys


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate = {}
    for src in sorted(root.glob("crates/*/src")):
        per_crate[src.parent.name] = sum(
            non_test_lines(p) for p in sorted(src.rglob("*.rs"))
        )
    width = max(map(len, per_crate), default=5)
    for name, n in per_crate.items():
        print(f"{name:<{width}} {n:>7,}")
    print(f"{'total':<{width}} {sum(per_crate.values()):>7,}")


if __name__ == "__main__":
    main()
